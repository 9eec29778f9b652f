"""Large-N Dyson gas: logarithmically repelling charges in an external field.

The eigenvalue integrand is carried around as an energy

    E = - sum_{m != n} log|z_m - z_n|
        + (1/hbar) sum_j [ |z_j|^2 - 2 Re sum_k t_k z_j^k ]           (plane)

    E = - sum_{m != n} log|s_m - s_n|
        + (1/hbar) sum_j [ c s_j^2 / 2 - 2 Re sum_k t_k z(s_j)^k ]    (curve)

with ``t0 = hbar * N`` held finite and the coefficient ``c`` given as
``GasConfig.confine``.  Curves are straight, so their pair terms are real
and their field is one real polynomial in ``s``, ``GasConfig.potential``.

Every kernel works on one coordinate vector ``x``: the curve parameters
``s`` on a curve and the positions ``z`` in the plane; a curve's
``z = curve.point(s)`` is formed only for the ``GasState`` a run returns.
The equilibrium configuration is found deterministically: on a curve by
damped projected Newton over ``s``, on a dense explicit Hessian (8 N^2
bytes, O(N^3) time per iteration), and in the plane by L-BFGS over the 2N
coordinates, keeping the lowest of a few seeded starts.  A seeded
Metropolis sampler provides the finite-hbar companion, at O(N) per
proposal from cached per-particle log potentials (see ``metropolis``).
The support of the minimizer reproduces the growing domains of the
contour-dynamics module; in the plane its boundary is extracted by angular
binning, as a polyline.

Both measures score their pairs by one pass, ``_pair_pass``, over ``x``:
one call gives the pair energy and, when asked, every pair force.  It
works in row blocks of at most ``_PAIR_BLOCK`` = 16,384 differences, with
no N x N matrix, and fills the N(N-1)/2 distances into one buffer in
``triu`` order, summed in one ``np.sum``: the minimizers are sensitive to
that order at the ulp level, and on the real line it makes real and
complex input agree bit for bit.

``scipy.linalg`` (the curve Newton's Cholesky factorization) and
``scipy.optimize`` (the plane minimizer) are imported where they are used,
so that importing this module, as the CLI does for every scenario, loads
neither: a curve minimization loads only ``scipy.linalg``, a plane
minimization ``scipy.optimize``, and a Metropolis run no scipy part.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InsufficientSamplesError
from .laurent import _horner

log = logging.getLogger(__name__)

MIN_SEPARATION = 1e-12
# deterministic starts of a plane minimization; the lowest energy is kept
_PLANE_STARTS = 6
# differences per row block of the pair pass: at 65536 its pages were
# refaulted on every call
_PAIR_BLOCK = 16384
# Curve Newton stops after a step whose decrement g^T H^-1 g is at most
# this.  The decrement's roundoff level grows about as N^3: 4e-29 at N = 32,
# 1.4e-26 at N = 256 and 7.5e-25 at N = 1024 on the real line.
_NEWTON_FLOOR = 1e-20
# shifted factorizations, and then step halvings, before a curve Newton
# iteration gives up and ends the run
_ATTEMPTS = 60


@dataclass(frozen=True)
class CurveSpec:
    """Straight support curve ``z(s) = z0 + direction * s`` for ``lo <= s <= hi``.

    ``direction`` is normalized to modulus 1, so ``s`` is arc length,
    ``dz/ds = direction`` and ``|z_m - z_n| = |s_m - s_n|``.  Either end may
    be infinite: the real line has no end, a ray a hard endpoint at ``z0``
    (``s >= 0``), and a segment two.
    """

    z0: complex = 0j
    direction: complex = 1 + 0j
    lo: float = -np.inf
    hi: float = np.inf

    def __post_init__(self):
        d = complex(self.direction)
        if d == 0:
            raise ValueError("curve direction must be nonzero")
        if not float(self.lo) < float(self.hi):
            raise ValueError("curve needs lo < hi")
        object.__setattr__(self, "z0", complex(self.z0))
        object.__setattr__(self, "direction", d / abs(d))

    @classmethod
    def real_line(cls) -> "CurveSpec":
        return cls()

    @classmethod
    def ray(cls, z0: complex, direction: complex) -> "CurveSpec":
        return cls(z0, direction, lo=0.0)

    @classmethod
    def segment(cls, lo: float, hi: float, z0=0j, direction=1 + 0j) -> "CurveSpec":
        return cls(z0, direction, lo, hi)

    @property
    def bounds(self):
        return (self.lo, self.hi)

    def point(self, s):
        out = self.z0 + self.direction * np.asarray(s, dtype=float)
        return out if out.ndim else complex(out)


@dataclass(frozen=True)
class Schedule:
    """Minimizer and sampler settings.

    ``max_iterations`` (per start) and ``tolerance`` (on the largest force;
    default ``1e-8 * N / hbar``) bound the minimizer, and ``burn_in`` and
    ``proposal_scale`` drive the Metropolis sampler.
    """

    max_iterations: int = 20000
    tolerance: float | None = None
    burn_in: int | None = None
    proposal_scale: float = 0.1

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.burn_in is not None and self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        # not (v > 0) also refuses NaN
        if self.tolerance is not None and not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if not self.proposal_scale > 0:
            raise ValueError(f"proposal_scale must be positive, got {self.proposal_scale}")


@dataclass(frozen=True)
class GasConfig:
    """Particle count, temperature scale, harmonic times and the support.

    Without a ``curve`` the gas lives in the plane, in the field ``|z|^2``.
    On a straight ``curve`` the finite coefficient ``confine`` gives the
    confinement ``confine * s^2 / (2 hbar)``; the plane ignores ``confine``.
    A curve's field is ``potential``, the read-only ascending coefficients of
    ``c s^2 / 2 - 2 Re W(z0 + direction s)`` (None in the plane).  A field
    that does not confine is refused.
    """

    N: int
    hbar: float
    times: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))
    curve: CurveSpec | None = None
    confine: float = 1.0
    seed: int = 0
    schedule: Schedule = field(default_factory=Schedule)
    potential: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if not math.isfinite(self.t0):
            raise ValueError("t0 = hbar * N must be finite")
        times = np.asarray(self.times, dtype=complex).reshape(-1).copy()
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        if not math.isfinite(self.confine):
            raise ValueError("confine must be a finite coefficient")
        if self.curve is not None:
            z0, direction = self.curve.z0, self.curve.direction
            potential = _curve_field(times.tolist(), z0, direction, self.confine).real.copy()
            # the same composition on magnitudes bounds each coefficient; one
            # within its rounding of 0 is exactly 0 (say Re t3 d^3 for real
            # t3 and d = e^(i pi/6)), so that it cannot decide confinement
            bound = _curve_field([-abs(t) for t in times.tolist()], abs(z0), abs(direction),
                                 abs(self.confine)).real[:len(potential)]
            tiny = (potential != 0.0) & (np.abs(potential) <= 8 * max(len(potential) - 1, 1)
                                         * np.finfo(float).eps * bound)
            potential[tiny] = 0.0
            potential.setflags(write=False)
            object.__setattr__(self, "potential", potential)
        _check_confining(self)

    @property
    def t0(self) -> float:
        return self.hbar * self.N

    @property
    def measure(self) -> str:
        return "plane" if self.curve is None else "curve"


def _curve_field(times: list, z0: complex, direction: complex, confine: float) -> np.ndarray:
    """Ascending coefficients of ``confine s^2 / 2 - 2 W(z0 + direction s)``, with
    ``W(z) = sum_k times[k - 1] z^k``, composed in ``numpy.polynomial``."""
    # imported here, as scipy is: a plane run never needs it
    from numpy.polynomial import Polynomial

    drive = _horner([0j, *times], Polynomial([z0, direction]))
    return (Polynomial([0.0, 0.0, confine / 2.0]) - 2.0 * drive).coef


def _check_confining(config: GasConfig):
    """Refuse a field that does not confine, naming the term that wins at infinity.

    In the plane ``|z|^2 - 2 Re W(z)`` confines iff every ``t_k`` with
    ``k >= 3`` is 0 and ``|t_2| < 1/2``; a larger drive needs a cutoff.  On
    a curve, at each infinite end ``s -> sign inf``, the top nonzero
    coefficient ``p_k`` of ``potential`` with ``k >= 1`` needs ``sign^k p_k > 0``.
    """
    if config.measure == "plane":
        t, k = config.times, len(np.trim_zeros(config.times, "b"))
        if k >= 3 or (k == 2 and not abs(t[1]) < 0.5):
            raise ValueError(f"plane field is not confining: the drive's t{k} z^{k} term "
                             f"(t{k} = {t[k - 1]}) is not beaten by |z|^2 at infinity")
        return
    p, k = config.potential, len(np.trim_zeros(config.potential[1:], "b"))
    for sign, end, far in ((-1, config.curve.lo, "-inf"), (1, config.curve.hi, "+inf")):
        if np.isinf(end) and not (k and sign ** k * p[k] > 0):
            term = f"its term {p[k]} s^{k} wins" if k else "no term grows"
            raise ValueError(f"curve field is not confining at s -> {far}: {term} "
                             "in c s^2 / 2 - 2 Re W(z0 + direction s)")


def _polynomial(coeffs, x, order: int = 0):
    """``sum_k coeffs[k] x^k``, or its ``order``-th derivative, by Horner's rule;
    0 where that sum is empty."""
    return _horner([math.perm(k, order) * c for k, c in enumerate(coeffs)][order:], x)


@dataclass(frozen=True)
class GasState:
    """Particle configuration plus the outcome of the run that produced it.

    ``trace`` is the (iteration, energy, max force) record of the minimizer
    that produced the state, when one ran: row 0 is the start and row ``i``
    the iterate after ``i`` iterations, Newton iterations on a curve and
    L-BFGS iterations in the plane.  ``evaluations`` counts its energy
    evaluations plus its force evaluations, plus its Hessian builds on a
    curve, over every start of a plane run.  Particles closer than
    ``MIN_SEPARATION`` are refused: a curve state's are found by sorting its
    parameters, a plane state's by one distance row per particle.
    """

    positions: np.ndarray
    params: np.ndarray | None = None
    energy: float = np.nan
    converged: bool = False
    iterations: int = 0
    trace: tuple | None = None
    evaluations: int = 0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=complex).reshape(-1).copy()
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        par = self.params
        if par is not None:
            par = np.asarray(par, dtype=float).reshape(-1).copy()
            par.setflags(write=False)
            object.__setattr__(self, "params", par)
        # Non-finite positions are left to the caller: their separations
        # are undefined.
        if len(pos) > 1 and np.all(np.isfinite(pos)):
            if par is not None:
                # on a straight curve |z_m - z_n| = |s_m - s_n|
                gap = float(np.diff(np.sort(par)).min())
            else:
                # each particle against the later ones, in O(N) memory
                gap = min(float(np.abs(pos[j + 1:] - pos[j]).min()) for j in range(len(pos) - 1))
            if gap <= MIN_SEPARATION:
                raise ValueError(
                    f"particle positions are not pairwise distinct (min separation {gap:.3e})"
                )

    @property
    def N(self) -> int:
        return len(self.positions)


def _pair_pass(x: np.ndarray, forces: bool = True):
    """``sum_{m != n} log|x_m - x_n|`` and every ``sum_{m != j} 1 / conj(x_j - x_m)``.

    ``x`` is real (curve parameters) or complex (plane positions).  Row
    blocks of at most ``_PAIR_BLOCK`` differences fill their ``triu`` part
    into one distance buffer, summed in one ``np.sum``, and with ``forces``
    their rows give the repulsions; without, a block forms only the columns
    from its first row on.  Points closer than ``MIN_SEPARATION``
    return ``(-inf, None)``; without ``forces`` the repulsions are None.
    """
    n = len(x)
    d = np.empty(n * (n - 1) // 2)
    repulsion = np.empty(n, dtype=x.dtype) if forces else None
    col = np.arange(n)
    rows = max(1, _PAIR_BLOCK // max(n, 1))
    start = 0
    for r0 in range(0, n, rows):
        r1 = min(n, r0 + rows)
        lo = 0 if forces else r0
        diff = x[r0:r1, None] - x[lo:]
        upper = diff[col[lo:] > col[r0:r1, None]]
        stop = start + len(upper)
        if stop > start and np.abs(upper, out=d[start:stop]).min() < MIN_SEPARATION:
            return -np.inf, None
        start = stop
        if forces:
            diff[col[:r1 - r0], col[r0:r1]] = np.inf
            if diff.dtype.kind == "c":
                np.conj(diff, out=diff)
            np.divide(1.0, diff, out=diff).sum(axis=1, out=repulsion[r0:r1])
    return 2.0 * float(np.sum(np.log(d, out=d))), repulsion


def _energy_gradient(x: np.ndarray, config: GasConfig, gradient: bool = True):
    """Energy and, with ``gradient``, ``dE/ds`` on a curve or ``dE/dzbar`` in the plane.

    ``x`` is the curve parameters ``s`` on a curve and the positions ``z``
    in the plane.  The pair terms come from one ``_pair_pass`` over ``x``,
    the field from ``potential`` and its derivative on a curve and from
    ``|z|^2 - 2 Re W(z)`` in the plane.  Coincident particles give the
    ``+inf`` sentinel; the gradient is None where the energy is not finite.
    """
    pair, repulsion = _pair_pass(x, forces=gradient)
    if pair == -np.inf:
        log.debug("coincident particles: energy sentinel +inf")
        return np.inf, None
    hbar = config.hbar
    if config.measure == "curve":
        e = -pair + float(np.sum(_polynomial(config.potential, x) / hbar))
        if not (gradient and e < np.inf):
            return e, None
        return e, _polynomial(config.potential, x, 1) / hbar - 2.0 * repulsion
    drive = [0j, *config.times.tolist()]
    drive_energy = 2.0 * np.real(np.sum(_polynomial(drive, x)))
    e = -pair + (float(np.sum(np.abs(x) ** 2)) - drive_energy) / hbar
    if not (gradient and e < np.inf):
        return e, None
    return e, (x - np.conj(_polynomial(drive, x, 1))) / hbar - repulsion


def _wall_clamped(s: np.ndarray, f_s: np.ndarray, curve: CurveSpec) -> np.ndarray:
    """Parameter forces with every push into a curve wall set to zero."""
    pushed = ((s <= curve.lo + 1e-12) & (f_s < 0)) | ((s >= curve.hi - 1e-12) & (f_s > 0))
    return np.where(pushed, 0.0, f_s)


def _initial_configuration(config: GasConfig, rng: np.random.Generator) -> np.ndarray:
    """Seeded start coordinates: positions in the plane, parameters on a curve.

    The plane start is uniform on the disk of radius ``sqrt(t0)``.  A curve
    start is stratified over ``[a, b]``, the curve's finite ends or a window
    of width ``4 sqrt(t0)`` from ``-2 sqrt(t0)`` or from its one finite end:
    particle k starts at ``a + (b - a) (k + u_k) / N`` with ``u_k`` uniform
    on ``[1/4, 3/4]``, so the start is sorted and every gap is at least
    ``(b - a) / (2 N)``.  The curve Newton needs such gaps: a full Newton
    step on the log barrier can at most double a gap, and N sorted uniform
    draws leave a closest pair about ``(b - a) / N^2`` apart.
    """
    if config.measure == "plane":
        radius = math.sqrt(config.t0)
        rho = radius * np.sqrt(rng.uniform(0.0, 1.0, config.N))
        ang = rng.uniform(0.0, 2.0 * np.pi, config.N)
        return rho * np.exp(1j * ang)
    span = 2.0 * math.sqrt(config.t0)
    lo, hi = config.curve.bounds
    a = lo if np.isfinite(lo) else -span
    b = min(hi, a + 2.0 * span)
    n = config.N
    return a + (b - a) * ((np.arange(n) + rng.uniform(0.25, 0.75, n)) / n)


def _state(config: GasConfig, x: np.ndarray, **outcome) -> GasState:
    """The ``GasState`` of coordinates ``x``, at ``z = curve.point(x)`` on a curve."""
    if config.measure == "curve":
        return GasState(config.curve.point(x), x, **outcome)
    return GasState(x, **outcome)


def minimize(config: GasConfig) -> GasState:
    """Equilibrium configuration, deterministic for a given config and seed.

    A curve measure runs damped projected Newton over its N parameters (see
    ``_curve_newton``).  The plane runs L-BFGS over the 2N coordinates
    ``(Re z, Im z)`` (see ``_lbfgs``); its energy has metastable crystalline
    minima, so it keeps the lowest energy of ``_PLANE_STARTS`` deterministic
    starts, the earlier start on a tie: start 0 draws from
    ``default_rng(seed)``, the others from ``SeedSequence(seed).spawn``.
    ``iterations``, ``trace`` and ``converged`` describe the kept start,
    ``evaluations`` counts every start, and ``max_iterations`` bounds each
    start.  Converged means ``max |force| < tol`` with the default tolerance
    ``1e-8 * N / hbar``, where a force pushing a particle into a curve wall
    counts as zero; non-convergence is reported through the state's
    ``converged`` flag and a warning log line, not an exception.
    """
    sched = config.schedule
    tol = sched.tolerance if sched.tolerance is not None else 1e-8 * config.N / config.hbar
    if config.measure == "curve":
        x, trace, evaluations = _curve_newton(config, sched.max_iterations)
    else:
        children = np.random.SeedSequence(config.seed).spawn(_PLANE_STARTS - 1)
        rngs = [np.random.default_rng(config.seed)] + [np.random.default_rng(c) for c in children]
        runs = [_lbfgs(config, _initial_configuration(config, rng), tol, sched.max_iterations)
                for rng in rngs]
        # min keeps the first of equal energies
        x, trace, _ = min(runs, key=lambda run: run[1][-1][1])
        evaluations = sum(run[2] for run in runs)
    state = _state(config, x, energy=trace[-1][1], converged=trace[-1][2] < tol,
                   iterations=len(trace) - 1, trace=tuple(trace), evaluations=evaluations)
    if not state.converged:
        log.warning("minimize did not converge: residual force %.3e after %d iterations",
                    state.trace[-1][2], state.iterations)
    return state


def _curve_hessian(s: np.ndarray, config: GasConfig, out: np.ndarray):
    """Write the curve energy's Hessian in ``s`` into the N x N buffer ``out``.

    Off the diagonal it is ``-2 / (s_m - s_n)^2``, the log-gas graph
    Laplacian times 2; the diagonal is the field's curvature
    ``potential''(s_j) / hbar`` minus the rest of its row.
    """
    np.subtract(s[:, None], s, out=out)
    out *= out
    diagonal = out.reshape(-1)[::len(s) + 1]
    diagonal[:] = np.inf
    np.divide(-2.0, out, out=out)
    diagonal[:] = _polynomial(config.potential, s, 2) / config.hbar - out.sum(axis=1)


def _curve_newton(config: GasConfig, max_iterations: int):
    """Damped projected Newton from the seeded start; returns the last iterate, trace and count.

    Each iteration builds the Hessian H (``_curve_hessian``) and solves
    ``H p = -g`` by Cholesky; where H is not positive definite, as under a
    drive with ``W'' < 0``, a growing multiple of the identity is added
    until the factorization succeeds.  The walls are handled by Bertsekas'
    projected Newton: an end particle within epsilon of its wall and pushed
    into it is active, its row and column leave H, and it steps straight to
    the wall; epsilon is the longest diagonally scaled projected gradient
    step, so it shrinks to 0 at a minimum.  The step ``clip(s + t p)``
    backtracks from ``t = 1`` by halves until the particles keep their order
    at least ``MIN_SEPARATION`` apart and the energy falls by a quarter of
    the predicted ``t g.p``, give or take 4 ulps of roundoff in the energy.
    The run goes on past convergence: it stops after the step whose Newton
    decrement ``-g.p`` (``g^T H^-1 g`` without walls) is at most
    ``_NEWTON_FLOOR``, after ``max_iterations`` iterations, when no
    factorization or no step is found in ``_ATTEMPTS`` tries, or when the
    accepted step leaves ``s`` as it was: under a weak field the energy's
    roundoff can hide a decrement above the floor, the backtracking then
    halves the step to nothing, and every later iteration would repeat it.

    Trace row ``i`` is the ``(i, energy, max wall-clamped force)`` of the
    iterate after ``i`` Newton iterations, and the count is energy plus
    gradient evaluations plus Hessian builds.
    """
    # imported here, not at module level, so that only a curve minimization
    # pays for loading scipy.linalg
    from scipy.linalg import LinAlgError, cho_factor, cho_solve

    curve = config.curve
    lo, hi = curve.bounds
    s = _initial_configuration(config, np.random.default_rng(config.seed))
    n = len(s)
    hessian = np.empty((n, n))
    diagonal = hessian.reshape(-1)[::n + 1]
    e, g = _energy_gradient(s, config)
    evaluations = 1 if g is None else 2

    def residual(s, g):
        return np.inf if g is None else float(np.max(np.abs(_wall_clamped(s, -g, curve))))

    trace = [(0, e, residual(s, g))]
    while g is not None and len(trace) <= max_iterations:
        _curve_hessian(s, config, hessian)
        evaluations += 1
        epsilon = np.max(np.abs(s - np.clip(s - g / np.abs(diagonal), lo, hi)))
        active = [(j, wall) for j, wall, push in ((0, lo, g[0]), (n - 1, hi, -g[-1]))
                  if abs(s[j] - wall) <= epsilon and push > 0]
        rhs = g.copy()
        for j, wall in active:
            rhs[j] = s[j] - wall
        shift = 0.0
        for _ in range(_ATTEMPTS):
            diagonal += shift
            for j, _ in active:
                hessian[j, :] = hessian[:, j] = 0.0
                diagonal[j] = 1.0
            try:
                # H is symmetric, so its transpose is a Fortran-ordered H
                # that the factorization overwrites in place
                factor = cho_factor(hessian.T, lower=True, overwrite_a=True, check_finite=False)
                break
            except LinAlgError:
                _curve_hessian(s, config, hessian)
                evaluations += 1
                shift = max(4.0 * shift, 1e-3 * float(np.max(np.abs(diagonal))))
        else:
            break
        step = -cho_solve(factor, rhs, check_finite=False)
        slope = float(g @ step)
        t = 1.0
        for _ in range(_ATTEMPTS):
            trial = np.clip(s + t * step, lo, hi)
            if np.all(np.diff(trial) > MIN_SEPARATION):
                e_trial, g_trial = _energy_gradient(trial, config)
                evaluations += 1 if g_trial is None else 2
                if g_trial is not None and e_trial - e <= t * slope / 4.0 + 4.0 * np.spacing(abs(e)):
                    break
            t /= 2.0
        else:
            break
        if np.array_equal(trial, s):
            # the accepted step rounded away, so every later iteration would repeat this one
            break
        s, e, g = trial, e_trial, g_trial
        trace.append((len(trace), e, residual(s, g)))
        if -slope <= _NEWTON_FLOOR:
            break
    return s, trace, evaluations


def _lbfgs(config: GasConfig, z0: np.ndarray, tol: float, max_iterations: int):
    """Plane L-BFGS from ``z0``; returns the last positions, the trace and the evaluation count.

    The iterate is the 2N-vector ``x = (Re z, Im z)``, the energy's gradient
    in it ``2 (Re, Im) dE/dzbar``, and the residual the largest force
    ``|dE/dzbar_j|``.  Trace row 0 is the start and row ``i`` the ``(i,
    energy, residual)`` of the iterate after ``i`` quasi-Newton iterations;
    the evaluation count is energy plus gradient evaluations.  scipy's own
    stopping tests are off: the run stops once the residual is below
    ``tol``, after ``max_iterations`` iterations, or when the line search
    can make no more progress.
    """
    # imported here, not at module level, so that only a plane minimization
    # pays for loading scipy.optimize
    from scipy import optimize

    n = config.N
    last = {"x": None}
    evaluations = 0

    def evaluate(x):
        """Energy and gradient at ``x``, computed once per distinct ``x``."""
        nonlocal evaluations
        if not np.array_equal(x, last["x"]):
            e, grad = _energy_gradient(x[:n] + 1j * x[n:], config)
            evaluations += 1 if grad is None else 2
            last.update(x=x.copy(), e=e, grad=None if grad is None
                        else 2.0 * np.concatenate((grad.real, grad.imag)))
        return last["e"], last["grad"]

    def energy_and_gradient(x):
        e, grad = evaluate(x)
        # coincident particles give the +inf sentinel, which the line search
        # backs away from, and no forces
        return e, np.zeros_like(x) if grad is None else grad

    x0 = np.concatenate((z0.real, z0.imag))
    trace = []
    iterate = [x0]

    def record(x):
        """Append the trace row of iterate ``x``; True once it has converged."""
        e, grad = evaluate(x)
        iterate[0] = x.copy()
        # only a start can have no gradient: no accepted step raises the energy
        residual = np.inf if grad is None else 0.5 * float(np.max(np.hypot(grad[:n], grad[n:])))
        trace.append((len(trace), e, residual))
        return residual < tol

    def callback(intermediate_result):
        if record(intermediate_result.x):
            raise StopIteration

    if not record(x0):
        optimize.minimize(energy_and_gradient, x0, jac=True, method="L-BFGS-B",
                          callback=callback,
                          # at most 20 line-search evaluations per iteration
                          options={"maxiter": max_iterations, "maxfun": 25 * max_iterations,
                                   "ftol": 0.0, "gtol": 0.0})
    x = iterate[0]
    return x[:n] + 1j * x[n:], trace, evaluations


@dataclass(frozen=True)
class MetropolisRun:
    """Final state of one chain, its kept coordinates and its acceptance record.

    ``state`` is the configuration after the last sweep, with its energy.
    ``samples`` is a read-only ``(kept, N)`` array of the coordinates ``x``
    after each sweep past the burn-in; its last row, if any, is ``state``'s.
    ``proposals`` counts every proposal, one that leaves a curve's parameter
    range included, and ``accepted`` the accepted ones.  ``windows`` has one
    ``(sweep, acceptance, proposal_scale)`` row per burn-in tuning window:
    its last sweep, its acceptance, and the scale after tuning.
    """

    state: GasState
    samples: np.ndarray
    acceptance: float
    proposal_scale: float
    proposals: int
    accepted: int
    windows: tuple


def _particle_field(config: GasConfig):
    """``field(x)``: one particle's field energy as a Python float, at its ``s`` or ``z``.

    A configuration's energy is its pair term plus this summed over its
    particles: ``potential(s) / hbar`` on a curve and
    ``(|z|^2 - 2 Re W(z)) / hbar`` in the plane, with ``W(z) = z sum_k t_k
    z^(k-1)``, in Python float and complex arithmetic by one ``_horner``
    call; a zero plane drive is left out, which is exact.
    """
    hbar, times = config.hbar, config.times.tolist()
    if config.measure == "curve":
        coeffs = config.potential.tolist()
        return lambda s: _horner(coeffs, s) / hbar
    if not any(times):
        return lambda z: (z.real * z.real + z.imag * z.imag) / hbar
    return lambda z: (z.real * z.real + z.imag * z.imag
                      - 2.0 * (z * _horner(times, z)).real) / hbar


def metropolis(config: GasConfig, sweeps: int) -> MetropolisRun:
    """Metropolis-Hastings sampling of the gas measure at finite hbar.

    Runs ``sweeps >= 1`` sweeps of N Gaussian single-particle proposals,
    each costing O(N); the scale is tuned to 30-50 percent acceptance in
    windows of 20 sweeps during burn-in and then frozen, and every window is
    recorded in ``MetropolisRun.windows``.  Chains are bit-reproducible from
    ``(seed, config)``; a curve chain starts from ``_initial_configuration``,
    as the curve Newton does.  A post-tuning acceptance outside [1%, 99%]
    logs a diagnostics warning.

    The chain moves ``x`` alone, the curve parameters on a curve and the
    positions in the plane, and caches each particle's log potential
    ``L_j = sum_{m != j} log|x_m - x_j|`` and its field
    (``_particle_field``).  A proposal moving particle j to ``x_new`` builds
    one distance row ``|x - x_new|``, entry j masked to 1, and sums its logs
    to ``S``; its energy change is ``-2 (S - L_j) + field(new) - field_j``.
    The chain fills its ``L`` cache once, O(N^2), with the same row at each
    ``x_new = x_j``.  An accepted move adds the new row's logs minus the old
    row's to every ``L`` and sets ``L_j = S``; over 30 sweeps at N = 1024
    the cache drifts from a fresh fill by about 2e-12, with ``|L|`` up to
    507.  Only a move that would be accepted is tested for a partner closer
    than ``MIN_SEPARATION``, and it is then rejected; one at ``dE <= 0``
    draws and discards the uniform that a move at ``dE > 0`` draws, so each
    such move takes one uniform, as a move of infinite energy change does.
    An exact coincidence gives ``S = -inf`` and ``dE = +inf``, and is
    rejected.  Each sweep past the burn-in copies ``x`` into a row of
    ``samples``; its final value is ``state``, whose energy is the chain's
    one full ``_energy_gradient`` call.
    """
    if sweeps < 1:
        raise ValueError(f"metropolis needs sweeps >= 1, got sweeps = {sweeps}")
    rng = np.random.default_rng(config.seed)
    x = _initial_configuration(config, rng)
    on_curve = config.measure == "curve"
    scale = config.schedule.proposal_scale
    burn_in = config.schedule.burn_in
    if burn_in is None:
        # at least the final sweep is kept
        burn_in = min(max(20, sweeps // 5), sweeps - 1)
    # the same draws as rng.normal() and rng.uniform(), with less call overhead
    normal, uniform = rng.standard_normal, rng.random
    field = _particle_field(config)
    fields = [field(value) for value in x.tolist()]
    diff = np.empty(config.N, dtype=x.dtype)
    d_row = np.empty(config.N)
    log_new = np.empty(config.N)

    samples, windows = [], []
    accepted = proposed = tune_acc = tune_prop = 0
    # an unbounded end is +-inf, which no proposal crosses
    lo, hi = config.curve.bounds if on_curve else (None, None)
    log_potential = np.empty(config.N)
    with np.errstate(divide="ignore"):
        for j in range(config.N):
            np.abs(np.subtract(x, x[j], out=diff), out=d_row)
            d_row[j] = 1.0
            log_potential[j] = np.log(d_row, out=d_row).sum()
        for sweep in range(1, sweeps + 1):
            for j in range(config.N):
                proposed += 1
                tune_prop += 1
                if on_curve:
                    x_new = x.item(j) + scale * normal()
                    if x_new < lo or x_new > hi:
                        continue
                else:
                    x_new = x.item(j) + scale * (normal() + 1j * normal())
                np.abs(np.subtract(x, x_new, out=diff), out=d_row)
                d_row[j] = 1.0
                pair = float(np.log(d_row, out=log_new).sum())
                field_new = field(x_new)
                dE = -2.0 * (pair - log_potential.item(j)) + field_new - fields[j]
                if dE <= 0 or uniform() < math.exp(-min(dE, 700.0)):
                    if d_row.min() < MIN_SEPARATION:
                        # a too-close move takes one uniform whatever the sign of dE
                        if dE <= 0:
                            uniform()
                        continue
                    np.abs(np.subtract(x, x[j], out=diff), out=d_row)
                    d_row[j] = 1.0
                    np.log(d_row, out=d_row)
                    log_potential += np.subtract(log_new, d_row, out=d_row)
                    log_potential[j] = pair
                    fields[j] = field_new
                    x[j] = x_new
                    accepted += 1
                    tune_acc += 1
            if sweep <= burn_in and sweep % 20 == 0 and tune_prop:
                rate = tune_acc / tune_prop
                if rate < 0.30:
                    scale *= 0.7
                elif rate > 0.50:
                    scale *= 1.3
                windows.append((sweep, rate, scale))
                tune_acc = tune_prop = 0
            if sweep > burn_in:
                samples.append(x.copy())
    rate = accepted / max(proposed, 1)
    if not 0.01 <= rate <= 0.99:
        log.warning("metropolis acceptance %.3f outside [0.01, 0.99] after tuning", rate)
    samples = np.array(samples, dtype=x.dtype).reshape(len(samples), config.N)
    samples.setflags(write=False)
    state = _state(config, x, energy=_energy_gradient(x, config, gradient=False)[0])
    return MetropolisRun(state=state, samples=samples, acceptance=rate, proposal_scale=scale,
                         proposals=proposed, accepted=accepted, windows=tuple(windows))


@dataclass(frozen=True)
class SupportEstimate:
    """Support of the equilibrium measure: a boundary polyline or arc ends."""

    kind: str
    boundary: np.ndarray | None = None
    s_min: float | None = None
    s_max: float | None = None
    histogram: tuple | None = None


def support_boundary(state: GasState, config: GasConfig, bins: int = 32) -> SupportEstimate:
    """Support estimate from a converged or well-mixed configuration.

    Plane: outermost particle per angular bin, smoothed once with a circular
    [1, 2, 1]/4 stencil.  Particle centers tile the droplet, so the polyline
    is then pushed out by the half-cell width of the uniform density (mean
    radius over sqrt(N)).  Curve: occupied parameter range and a density
    histogram.  A plane estimate needs ``bins >= 4`` and ``N >= 4``; a plane
    state that leaves a bin empty at every count down to 4 raises
    :class:`InsufficientSamplesError`.
    """
    if config.measure == "curve":
        s = state.params
        s_min, s_max = float(np.min(s)), float(np.max(s))
        counts, edges = np.histogram(s, bins=bins)
        return SupportEstimate(kind="curve", s_min=s_min, s_max=s_max,
                               histogram=(counts, edges))
    if bins < 4:
        raise ValueError(f"a plane boundary needs bins >= 4, got bins = {bins}")
    if state.N < 4:
        raise ValueError(f"a plane boundary needs N >= 4 particles, got N = {state.N}")
    z = state.positions
    angles = np.angle(z)
    while bins >= 4:
        idx = np.floor((angles + np.pi) / (2.0 * np.pi) * bins).astype(int) % bins
        counts = np.bincount(idx, minlength=bins)
        if np.all(counts > 0):
            break
        bins //= 2
        log.warning("empty angular bins; reducing bin count to %d", bins)
    else:
        raise InsufficientSamplesError(
            "an angular bin stays empty at every bin count down to 4: "
            "too few particles to estimate a boundary")
    boundary = np.empty(bins, dtype=complex)
    for b in range(bins):
        members = z[idx == b]
        boundary[b] = members[np.argmax(np.abs(members))]
    smoothed = 0.25 * (np.roll(boundary, 1) + 2.0 * boundary + np.roll(boundary, -1))
    half_cell = float(np.mean(np.abs(smoothed))) / math.sqrt(state.N)
    smoothed = smoothed * (1.0 + half_cell / np.abs(smoothed))
    return SupportEstimate(kind="plane", boundary=smoothed)


@dataclass(frozen=True)
class FreeEnergyEstimate:
    value: float
    d2f_dt02: float
    e_min: dict


def free_energy_estimate(config: GasConfig) -> FreeEnergyEstimate:
    """Leading-order free energy ``F = -hbar^2 E_min`` and its t0 curvature.

    The second derivative uses the particle number as the t0 axis
    (``Delta t0 = hbar``), so it needs converged minimizations at N-1, N
    and N+1.
    """
    e_min = {}
    for n_particles in (config.N - 1, config.N, config.N + 1):
        if n_particles < 1:
            raise ValueError("free_energy_estimate needs N >= 2")
        state = minimize(replace(config, N=n_particles))
        if not state.converged:
            raise ValueError(f"minimization at N = {n_particles} did not converge")
        e_min[n_particles] = state.energy
    value = -config.hbar ** 2 * e_min[config.N]
    d2f = -(e_min[config.N + 1] - 2.0 * e_min[config.N] + e_min[config.N - 1])
    return FreeEnergyEstimate(value=value, d2f_dt02=d2f, e_min=e_min)
