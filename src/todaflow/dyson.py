"""Large-N Dyson gas: logarithmically repelling charges in an external field.

The eigenvalue integrand is carried around as an energy

    E = - sum_{m != n} log|z_m - z_n|
        + (1/hbar) sum_j [ |z_j|^2 - 2 Re sum_k t_k z_j^k ]           (plane)

    E = - sum_{m != n} log|z_m - z_n|
        + (1/hbar) sum_j [ c s_j^2 / 2 - 2 Re sum_k t_k z(s_j)^k ]    (curve)

with ``t0 = hbar * N`` held finite and the coefficient ``c`` given as
``GasConfig.confine``; both fields and their forces are closed forms.
Curves are straight, so their pair terms are real.  The equilibrium
configuration is found deterministically by one L-BFGS-B minimizer: over
the 2N coordinates in the plane, keeping the lowest of a few seeded starts,
and over the curve parameters on a curve, with the curve's ends as box
bounds.  A seeded Metropolis sampler provides the finite-hbar companion;
each of its proposals costs O(N), from one distance row and a scalar field
term.  The support of the minimizer reproduces the growing domains of the
contour-dynamics module; its boundary is extracted by angular binning.

Both measures score their pairs by one pass, ``_pair_pass``, over the
curve parameters or the plane positions: one call gives the pair energy
and, when asked, every pair force.  It works in row blocks of at most
``_PAIR_BLOCK`` = 16,384 differences, with no N x N matrix, and fills the
N(N-1)/2 distances into one buffer in ``triu`` order, summed in one
``np.sum``: the minimizers are sensitive to that order at the ulp level,
and on the real line it makes real and complex input agree bit for bit.

``scipy.optimize`` (the minimizer) and ``scipy.spatial`` (the separation
check of ``GasState``) are imported where they are used, so that importing
this module, as the CLI does for every scenario, loads neither.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InsufficientSamplesError
from .laurent import LaurentMap

log = logging.getLogger(__name__)

MIN_SEPARATION = 1e-12
# deterministic starts of a plane minimization; the lowest energy is kept
_PLANE_STARTS = 6
# differences per row block of the pair pass: at 65536 its pages were
# refaulted on every call
_PAIR_BLOCK = 16384
_BOUNDARY_MAP_ORDER = 8  # of the map fitted through a plane support's boundary


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


@dataclass(frozen=True)
class GasConfig:
    """Particle count, temperature scale, harmonic times and the support.

    Without a ``curve`` the gas lives in the plane, in the field ``|z|^2``.
    On a straight ``curve`` the finite coefficient ``confine`` gives the
    confinement ``confine * s^2 / (2 hbar)``; the plane ignores ``confine``.
    """

    N: int
    hbar: float
    times: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))
    curve: CurveSpec | None = None
    confine: float = 1.0
    seed: int = 0
    schedule: Schedule = field(default_factory=Schedule)

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if not math.isfinite(self.t0):
            raise ValueError("t0 = hbar * N must be finite")
        times = np.asarray(self.times, dtype=complex).reshape(-1).copy()
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        if not math.isfinite(self.confine):
            raise ValueError("confine must be a finite coefficient")
        _check_confining(self)

    @property
    def t0(self) -> float:
        return self.hbar * self.N

    @property
    def measure(self) -> str:
        return "plane" if self.curve is None else "curve"


def _check_confining(config: GasConfig):
    """Reject fields whose one-particle energy is not positive far away.

    Far away is the ring ``|z| = R = 50 max(1, sqrt(t0))`` in the plane, and
    ``s = -R`` or ``s = R`` at a curve's infinite ends.
    """
    radius = 50.0 * max(1.0, math.sqrt(max(config.t0, 1e-12)))
    if config.measure == "plane":
        far = radius * np.exp(2j * np.pi * np.arange(64) / 64)
        field_energy = np.abs(far) ** 2
    else:
        lo, hi = config.curve.bounds
        s = np.array([end for end, bound in ((-radius, lo), (radius, hi)) if np.isinf(bound)])
        far = config.curve.point(s)
        field_energy = config.confine * s ** 2 / 2.0
    if not np.all(field_energy - 2.0 * np.real(_times_polynomial(config.times, far)) > 0):
        raise ValueError(f"{config.measure} field is not confining: "
                         "the harmonic drive wins in the far field")


def _times_polynomial(times: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k t_k z^k with t = times[0..K-1]."""
    out = np.zeros_like(z)
    p = np.ones_like(z)
    for tk in times:
        p = p * z
        if tk != 0:
            out = out + tk * p
    return out


def _times_polynomial_derivative(times: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k k t_k z^(k-1)."""
    out = np.zeros_like(z)
    p = np.ones_like(z)
    for k, tk in enumerate(times, start=1):
        if tk != 0:
            out = out + k * tk * p
        p = p * z
    return out


@dataclass(frozen=True)
class GasState:
    """Particle configuration plus the outcome of the run that produced it.

    ``trace`` is the (iteration, energy, max force) record of the minimizer
    that produced the state, when one ran: row 0 is the start and row ``i``
    the iterate after ``i`` iterations.  ``evaluations`` counts its energy
    evaluations plus its force evaluations, over every start of a plane run.
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
        # Non-finite positions are left to the caller: their separations
        # are undefined, and a k-d tree cannot hold them.
        if len(pos) > 1 and np.all(np.isfinite(pos)):
            # imported here, not at module level, so that importing the CLI
            # does not load scipy.spatial for scenarios without a gas
            from scipy.spatial import cKDTree

            xy = np.column_stack((pos.real, pos.imag))
            gap = float(cKDTree(xy).query(xy, k=2)[0][:, 1].min())
            if gap <= MIN_SEPARATION:
                raise ValueError(
                    f"particle positions are not pairwise distinct (min separation {gap:.3e})"
                )
        if self.params is not None:
            par = np.asarray(self.params, dtype=float).reshape(-1).copy()
            par.setflags(write=False)
            object.__setattr__(self, "params", par)

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


def _energy_gradient(z: np.ndarray, s, config: GasConfig, gradient: bool = True):
    """Energy and, with ``gradient``, ``dE/ds`` on a curve or ``dE/dzbar`` in the plane.

    The pair terms come from one ``_pair_pass`` over ``s`` on a curve and
    ``z`` in the plane; the field's part of ``dE/dzbar`` is ``z`` and of
    ``dE/ds`` is ``c s``, over ``hbar``.  Coincident particles give the
    ``+inf`` sentinel; the gradient is None where the energy is not finite.
    """
    on_curve = config.measure == "curve"
    if on_curve and s is None:
        raise ValueError("a curve-measure gas needs the parameter vector")
    pair, repulsion = _pair_pass(s if on_curve else z, forces=gradient)
    if pair == -np.inf:
        log.debug("coincident particles: energy sentinel +inf")
        return np.inf, None
    hbar = config.hbar
    drive = 2.0 * np.real(np.sum(_times_polynomial(config.times, z)))
    if on_curve:
        c = config.confine
        e = -pair + float(np.sum(c * s ** 2 / (2.0 * hbar))) - drive / hbar
    else:
        e = -pair + (float(np.sum(np.abs(z) ** 2)) - drive) / hbar
    if not (gradient and e < np.inf):
        return e, None
    drive_slope = _times_polynomial_derivative(config.times, z)
    if on_curve:
        drive_force = 2.0 * np.real(drive_slope * config.curve.direction)
        return e, c * s / hbar - 2.0 * repulsion - drive_force / hbar
    return e, (z - np.conj(drive_slope)) / hbar - repulsion


def _wall_clamped(s: np.ndarray, f_s: np.ndarray, curve: CurveSpec) -> np.ndarray:
    """Parameter forces with every push into a curve wall set to zero."""
    pushed = ((s <= curve.lo + 1e-12) & (f_s < 0)) | ((s >= curve.hi - 1e-12) & (f_s > 0))
    return np.where(pushed, 0.0, f_s)


def _initial_configuration(config: GasConfig, rng: np.random.Generator):
    if config.measure == "plane":
        radius = math.sqrt(config.t0)
        rho = radius * np.sqrt(rng.uniform(0.0, 1.0, config.N))
        ang = rng.uniform(0.0, 2.0 * np.pi, config.N)
        return rho * np.exp(1j * ang), None
    span = 2.0 * math.sqrt(config.t0)
    lo, hi = config.curve.bounds
    a = lo if np.isfinite(lo) else -span
    b = min(hi, a + 2.0 * span)
    s = np.sort(rng.uniform(a, b, config.N))
    return config.curve.point(s), s


def minimize(config: GasConfig) -> GasState:
    """Equilibrium configuration, deterministic for a given config and seed.

    Both measures run one L-BFGS driver (see ``_lbfgs``): a curve measure
    over the N curve parameters with the curve's ends as box bounds, the
    plane over the 2N coordinates ``(Re z, Im z)`` with no bounds.  The plane
    energy has metastable crystalline minima, so the plane keeps the lowest
    energy of ``_PLANE_STARTS`` deterministic starts, the earlier start on a
    tie (see ``_plane_starts``); ``iterations``, ``trace`` and ``converged``
    describe the kept start, ``evaluations`` counts every start, and
    ``max_iterations`` bounds each start.  Converged means
    ``max |force| < tol`` with the default tolerance ``1e-8 * N / hbar``,
    where a force pushing a particle into a curve wall counts as zero;
    non-convergence is reported through the state's ``converged`` flag and a
    warning log line, not an exception.
    """
    sched = config.schedule
    tol = sched.tolerance if sched.tolerance is not None else 1e-8 * config.N / config.hbar
    if config.measure == "curve":
        curve = config.curve
        bounds = [curve.bounds] * config.N
        _, s0 = _initial_configuration(config, np.random.default_rng(config.seed))
        s, trace, evaluations = _lbfgs(
            lambda s: _energy_gradient(curve.point(s), s, config),
            lambda s, grad: float(np.max(np.abs(_wall_clamped(s, -grad, curve)))),
            s0, bounds, tol, sched.max_iterations)
        z = curve.point(s)
    else:
        n = config.N
        to_z = lambda x: x[:n] + 1j * x[n:]

        def plane_fun(x):
            e, grad = _energy_gradient(to_z(x), None, config)
            return e, None if grad is None else 2.0 * np.concatenate((grad.real, grad.imag))

        runs = [_lbfgs(plane_fun,
                       lambda x, grad: 0.5 * float(np.max(np.hypot(grad[:n], grad[n:]))),
                       np.concatenate((z0.real, z0.imag)), None, tol, sched.max_iterations)
                for z0 in _plane_starts(config)]
        # min keeps the first of equal energies
        x, trace, _ = min(runs, key=lambda run: run[1][-1][1])
        z, s, evaluations = to_z(x), None, sum(run[2] for run in runs)
    state = GasState(z, s, energy=trace[-1][1], converged=trace[-1][2] < tol,
                     iterations=len(trace) - 1, trace=tuple(trace), evaluations=evaluations)
    if not state.converged:
        log.warning("minimize did not converge: residual force %.3e after %d iterations",
                    state.trace[-1][2], state.iterations)
    return state


def _plane_starts(config: GasConfig) -> list:
    """Start 0 draws from ``default_rng(seed)``, the others from ``SeedSequence(seed).spawn``."""
    children = np.random.SeedSequence(config.seed).spawn(_PLANE_STARTS - 1)
    rngs = [np.random.default_rng(config.seed)] + [np.random.default_rng(c) for c in children]
    return [_initial_configuration(config, rng)[0] for rng in rngs]


def _lbfgs(fun, residual, x0: np.ndarray, bounds, tol: float, max_iterations: int):
    """L-BFGS-B from ``x0``; returns the last iterate, the trace and the evaluation count.

    ``fun(x)`` is the energy and its gradient (None where the energy is not
    finite), and ``residual(x, gradient)`` the largest force.  Trace row 0
    is the start and row ``i`` the ``(i, energy, residual)`` of the iterate
    after ``i`` quasi-Newton iterations; the evaluation count is energy plus
    gradient evaluations.  scipy's own stopping tests are off: the run stops
    once the residual is below ``tol``, after ``max_iterations`` iterations,
    or when the line search can make no more progress.
    """
    # imported here, not at module level, so that only a gas minimization
    # pays for loading scipy.optimize
    from scipy import optimize

    last = {"x": None}
    evaluations = 0

    def evaluate(x):
        """Energy and gradient at ``x``, computed once per distinct ``x``."""
        nonlocal evaluations
        if not np.array_equal(x, last["x"]):
            e, grad = fun(x)
            evaluations += 1 if grad is None else 2
            last.update(x=x.copy(), e=e, grad=grad)
        return last["e"], last["grad"]

    def energy_and_gradient(x):
        e, grad = evaluate(x)
        if grad is None:
            # Coincident particles, which a projected step can put on a wall
            # at once, give the +inf sentinel and no forces.  The line search
            # interpolates and cannot bracket +inf (it stops at a zero step),
            # so it gets the energy of the iterate it started from plus one
            # ulp: never an acceptable step, and its interpolation shrinks it.
            return np.nextafter(trace[-1][1], np.inf), np.zeros_like(x)
        return e, grad

    trace = []
    iterate = [x0]

    def record(x):
        """Append the trace row of iterate ``x``; True once it has converged."""
        e, grad = evaluate(x)
        iterate[0] = x.copy()
        # only a start can have no gradient: no accepted step raises the energy
        trace.append((len(trace), e, np.inf if grad is None else residual(x, grad)))
        return trace[-1][2] < tol

    def callback(intermediate_result):
        if record(intermediate_result.x):
            raise StopIteration

    converged = record(x0)
    # A line search that cannot lower the energy ends a scipy run early, as
    # next to walls that several particles press against.  A fresh run from
    # the last iterate drops the curvature memory that led there; a run that
    # lowers the energy no further ends the minimization.
    while not converged and len(trace) <= max_iterations:
        start_energy = trace[-1][1]
        remaining = max_iterations + 1 - len(trace)
        optimize.minimize(energy_and_gradient, iterate[0], jac=True, method="L-BFGS-B",
                          bounds=bounds, callback=callback,
                          # at most 20 line-search evaluations per iteration
                          options={"maxiter": remaining, "maxfun": 25 * remaining,
                                   "ftol": 0.0, "gtol": 0.0})
        converged = trace[-1][2] < tol
        if not trace[-1][1] < start_energy:
            break
    return iterate[0], trace, evaluations


@dataclass(frozen=True)
class MetropolisRun:
    """Kept samples of one chain and its acceptance record.

    ``proposals`` counts every proposal, one that leaves a curve's parameter
    range included, and ``accepted`` the accepted ones.  ``windows`` has one
    ``(sweep, acceptance, proposal_scale)`` row per burn-in tuning window:
    its last sweep, its acceptance, and the scale after tuning.
    """

    samples: tuple
    acceptance: float
    proposal_scale: float
    proposals: int
    accepted: int
    windows: tuple


def _particle_field(config: GasConfig):
    """``field(z, s)``: one particle's field energy as a Python float.

    A configuration's energy is its pair term plus this summed over its
    particles: ``(|z|^2 - 2 Re sum_k t_k z^k) / hbar`` in the plane and
    ``c s^2 / (2 hbar) - 2 Re sum_k t_k z^k / hbar`` on a curve.  All of it
    is Python float and complex arithmetic, the harmonic sum a Horner loop;
    ``s * s`` rounds as numpy's ``s ** 2`` does.
    """
    times = [complex(t) for t in config.times[::-1]]
    hbar = config.hbar

    def drive(z):
        acc = 0j
        for t in times:
            acc = (acc + t) * z
        return 2.0 * acc.real

    if config.measure == "curve":
        c = config.confine
        return lambda z, s: c * (s * s) / (2.0 * hbar) - drive(z) / hbar
    return lambda z, s: (z.real * z.real + z.imag * z.imag - drive(z)) / hbar


def _proposal_delta(config: GasConfig):
    """``delta(z, s, j, z_new, s_new)``: the energy change of moving particle j.

    The pair change comes from one distance row to all N particles (real
    ``|s - s_new|`` on a curve) with entry j masked to 1, in buffers
    allocated once, so a proposal costs O(N) with no temporaries; a move
    closer than ``MIN_SEPARATION`` to another particle costs ``+inf``.
    """
    field = _particle_field(config)
    on_curve = config.measure == "curve"
    diff = np.empty(config.N, dtype=float if on_curve else complex)
    d_new = np.empty(config.N)
    d_old = np.empty(config.N)

    def delta(z, s, j, z_new, s_new):
        z_old = complex(z[j])
        x, x_new, x_old = (s, s_new, s[j]) if on_curve else (z, z_new, z_old)
        np.abs(np.subtract(x, x_new, out=diff), out=d_new)
        np.abs(np.subtract(x, x_old, out=diff), out=d_old)
        d_new[j] = d_old[j] = 1.0
        if d_new.min() < MIN_SEPARATION:
            return np.inf
        np.log(np.divide(d_new, d_old, out=d_new), out=d_new)
        pair = -2.0 * float(d_new.sum())
        return pair + field(z_new, s_new) - field(z_old, None if s is None else s[j])

    return delta


def metropolis(config: GasConfig, sweeps: int) -> MetropolisRun:
    """Metropolis-Hastings sampling of the gas measure at finite hbar.

    Gaussian single-particle proposals, each costing O(N) (see
    ``_proposal_delta``); the scale is tuned to 30-50 percent acceptance in
    windows of 20 sweeps during burn-in and then frozen, and every window is
    recorded in ``MetropolisRun.windows``.  Chains are bit-reproducible
    from ``(seed, config)``.  A post-tuning acceptance outside [1%, 99%]
    logs a diagnostics warning.
    """
    rng = np.random.default_rng(config.seed)
    z, s = _initial_configuration(config, rng)
    on_curve = config.measure == "curve"
    scale = config.schedule.proposal_scale
    burn_in = config.schedule.burn_in
    if burn_in is None:
        # at least the final sweep is kept
        burn_in = min(max(20, sweeps // 5), sweeps - 1)
    delta_energy = _proposal_delta(config)
    # the same draws as rng.normal() and rng.uniform(), with less call overhead
    normal, uniform = rng.standard_normal, rng.random

    samples, windows = [], []
    accepted = proposed = tune_acc = tune_prop = 0
    if on_curve:
        # an unbounded end is +-inf, which no proposal crosses
        lo, hi = config.curve.bounds
        z0, direction = config.curve.z0, config.curve.direction
    for sweep in range(1, sweeps + 1):
        for j in range(config.N):
            proposed += 1
            tune_prop += 1
            if on_curve:
                s_new = float(s[j]) + scale * normal()
                if s_new < lo or s_new > hi:
                    continue
                z_new = z0 + direction * s_new
            else:
                s_new = None
                z_new = complex(z[j]) + scale * (normal() + 1j * normal())
            dE = delta_energy(z, s, j, z_new, s_new)
            if dE <= 0 or uniform() < math.exp(-min(dE, 700.0)):
                z[j] = z_new
                if on_curve:
                    s[j] = s_new
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
            samples.append(GasState(z.copy(), None if s is None else s.copy(),
                                    energy=_energy_gradient(z, s, config, gradient=False)[0]))
    rate = accepted / max(proposed, 1)
    if not 0.01 <= rate <= 0.99:
        log.warning("metropolis acceptance %.3f outside [0.01, 0.99] after tuning", rate)
    return MetropolisRun(samples=tuple(samples), acceptance=rate, proposal_scale=scale,
                         proposals=proposed, accepted=accepted, windows=tuple(windows))


@dataclass(frozen=True)
class SupportEstimate:
    """Support of the equilibrium measure: a boundary polyline or arc ends."""

    kind: str
    boundary: np.ndarray | None = None
    fitted_map: LaurentMap | None = None
    bin_angles: np.ndarray | None = None
    s_min: float | None = None
    s_max: float | None = None
    histogram: tuple | None = None


def _fit_boundary_map(points: np.ndarray) -> LaurentMap:
    """Least-squares truncated map through boundary points at their angles."""
    theta = np.angle(points)
    rows = []
    rhs = []
    for th, b in zip(theta, points):
        cos_r, sin_r = math.cos(th), math.sin(th)
        row_re = [cos_r]
        row_im = [sin_r]
        for j in range(_BOUNDARY_MAP_ORDER + 1):
            cj, sj = math.cos(j * th), math.sin(j * th)
            row_re.extend([cj, sj])
            row_im.extend([-sj, cj])
        rows.extend([row_re, row_im])
        rhs.extend([b.real, b.imag])
    sol, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(rhs), rcond=None)
    r = float(sol[0])
    if r <= 0:
        raise ValueError("boundary fit produced a non-positive conformal radius")
    coeffs = sol[1::2] + 1j * sol[2::2]
    return LaurentMap(r, coeffs)


def support_boundary(state: GasState, config: GasConfig, bins: int = 32,
                     edge_correction: bool = True) -> SupportEstimate:
    """Support estimate from a converged or well-mixed configuration.

    Plane: outermost particle per angular bin, smoothed once with a circular
    [1, 2, 1]/4 stencil, plus a least-squares truncated-map fit.  Particle
    centers tile the droplet, so with ``edge_correction`` the polyline is
    pushed out by the half-cell width of the uniform density (mean radius
    over sqrt(N)); turn it off to get the raw outermost-particle hull.
    Curve: occupied parameter range and a density histogram.  A plane
    estimate needs ``bins >= 4`` and ``N >= 4``; a plane state that leaves
    a bin empty at every count down to 4 raises
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
    if edge_correction:
        half_cell = float(np.mean(np.abs(smoothed))) / math.sqrt(state.N)
        smoothed = smoothed * (1.0 + half_cell / np.abs(smoothed))
    fitted = _fit_boundary_map(smoothed)
    bin_angles = -np.pi + (np.arange(bins) + 0.5) * 2.0 * np.pi / bins
    return SupportEstimate(kind="plane", boundary=smoothed, fitted_map=fitted,
                           bin_angles=bin_angles)


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
