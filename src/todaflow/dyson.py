"""Large-N Dyson gas: logarithmically repelling charges in an external field.

The eigenvalue integrand is carried around as an energy

    E = - sum_{m != n} log|z_m - z_n|
        + (1/hbar) sum_j [ U(z_j) - 2 Re sum_k t_k z_j^k ]           (plane)

    E = - sum_{m != n} log|z_m - z_n|
        + sum_j [ confine(s_j) - (2/hbar) Re sum_k t_k z(s_j)^k ]    (curve)

with ``t0 = hbar * N`` held finite.  The equilibrium configuration is found
deterministically: by steepest descent with backtracking in the plane, and
by L-BFGS-B over the curve parameters on a curve, with the curve's ends as
box bounds.  A seeded Metropolis sampler provides the finite-hbar
companion.  The support of the minimizer reproduces the growing domains of
the contour-dynamics module; its boundary is extracted by angular binning.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import optimize

from .growth import PotentialSpec
from .laurent import LaurentMap

log = logging.getLogger(__name__)

MIN_SEPARATION = 1e-12


@dataclass(frozen=True)
class CurveSpec:
    """Support curve for singular measures: the real line, a ray, or a table.

    A ray has a hard endpoint at ``z0`` (parameter ``s >= 0``); a parametric
    curve interpolates a caller-supplied arc-length sample table.
    """

    kind: str
    z0: complex = 0j
    direction: complex = 1 + 0j
    s_table: np.ndarray | None = None
    z_table: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("real_line", "ray", "parametric"):
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if self.kind == "ray":
            d = complex(self.direction)
            if d == 0:
                raise ValueError("ray direction must be nonzero")
            object.__setattr__(self, "direction", d / abs(d))
        if self.kind == "parametric":
            s = np.asarray(self.s_table, dtype=float)
            z = np.asarray(self.z_table, dtype=complex)
            if s.ndim != 1 or s.shape != z.shape or len(s) < 2 or np.any(np.diff(s) <= 0):
                raise ValueError("parametric curve needs matching tables over increasing s")
            object.__setattr__(self, "s_table", s)
            object.__setattr__(self, "z_table", z)

    @classmethod
    def real_line(cls) -> "CurveSpec":
        return cls("real_line")

    @classmethod
    def ray(cls, z0: complex, direction: complex) -> "CurveSpec":
        return cls("ray", z0=complex(z0), direction=complex(direction))

    @property
    def bounds(self):
        if self.kind == "real_line":
            return (-np.inf, np.inf)
        if self.kind == "ray":
            return (0.0, np.inf)
        return (float(self.s_table[0]), float(self.s_table[-1]))

    def point(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "real_line":
            out = s.astype(complex)
        elif self.kind == "ray":
            out = self.z0 + self.direction * s
        else:
            out = np.interp(s, self.s_table, self.z_table.real) + 1j * np.interp(
                s, self.s_table, self.z_table.imag
            )
        return out if out.ndim else complex(out)

    def velocity(self, s):
        """dz/ds: the unit tangent on a line or ray, a central difference on a table."""
        s = np.asarray(s, dtype=float)
        if self.kind == "real_line":
            out = np.ones(s.shape, dtype=complex)
        elif self.kind == "ray":
            out = np.full(s.shape, self.direction, dtype=complex)
        else:
            h = 1e-6 * max(1.0, float(self.s_table[-1] - self.s_table[0]))
            out = (np.asarray(self.point(s + h)) - np.asarray(self.point(s - h))) / (2.0 * h)
        return out if out.ndim else complex(out)

    def tangent(self, s):
        out = np.asarray(self.velocity(s))
        if self.kind == "parametric":
            out = out / np.abs(out)
        return out if out.ndim else complex(out)


@dataclass(frozen=True)
class Schedule:
    """Minimizer and sampler settings.

    ``max_iterations`` and ``tolerance`` (on the largest force; default
    ``1e-8 * N / hbar``) bound either minimizer.  ``step0`` is the first step
    of the plane's steepest descent (default ``hbar``); L-BFGS-B on a curve
    chooses its own steps and ignores it.  ``init_radius``/``init_span`` size
    the seeded start, and ``burn_in``, ``proposal_scale`` and ``thin`` drive
    the Metropolis sampler.
    """

    max_iterations: int = 20000
    tolerance: float | None = None
    step0: float | None = None
    init_radius: float | None = None
    init_span: float | None = None
    burn_in: int | None = None
    proposal_scale: float = 0.1
    thin: int = 1

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.burn_in is not None and self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")


@dataclass(frozen=True)
class GasConfig:
    """Particle count, temperature scale, harmonic times and the measure."""

    N: int
    hbar: float
    times: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))
    measure: str = "plane"
    potential: PotentialSpec = field(default_factory=PotentialSpec.quadratic)
    curve: CurveSpec | None = None
    confine: object = None
    seed: int = 0
    schedule: Schedule = field(default_factory=Schedule)

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        times = np.asarray(self.times, dtype=complex).reshape(-1).copy()
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        if self.measure not in ("plane", "curve"):
            raise ValueError(f"unknown measure {self.measure!r}")
        if self.measure == "curve":
            if self.curve is None or self.confine is None:
                raise ValueError("curve measure needs a CurveSpec and a confine callable")
        else:
            _check_confining(self.potential, times, self.t0)

    @property
    def t0(self) -> float:
        return self.hbar * self.N


def _check_confining(potential: PotentialSpec, times: np.ndarray, t0: float):
    """Reject plane potentials that lose to the harmonic terms at infinity."""
    radius = 50.0 * max(1.0, math.sqrt(max(t0, 1e-12)))
    ring = radius * np.exp(2j * np.pi * np.arange(64) / 64)
    drive = 2.0 * np.real(_times_polynomial(times, ring))
    margin = potential.value_at(ring) - drive
    if np.any(margin <= 0):
        raise ValueError(
            "potential is not confining: the harmonic drive wins on the far-field ring"
        )


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

    ``trace`` is the per-iteration (iteration, energy, max force) record of
    the minimizer that produced the state, when one ran, and ``evaluations``
    counts its energy evaluations plus its force evaluations.
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
        if len(pos) > 1:
            diff = np.abs(pos[:, None] - pos[None, :])
            np.fill_diagonal(diff, np.inf)
            if diff.min() <= MIN_SEPARATION:
                raise ValueError(
                    f"particle positions are not pairwise distinct (min separation {diff.min():.3e})"
                )
        if self.params is not None:
            par = np.asarray(self.params, dtype=float).reshape(-1).copy()
            par.setflags(write=False)
            object.__setattr__(self, "params", par)

    @property
    def N(self) -> int:
        return len(self.positions)


def _pair_log_sum(z: np.ndarray) -> float:
    """sum_{m != n} log|z_m - z_n|, or -inf when points coincide."""
    if len(z) < 2:
        return 0.0
    diff = np.abs(z[:, None] - z[None, :])
    iu = np.triu_indices(len(z), k=1)
    d = diff[iu]
    if d.min() < MIN_SEPARATION:
        return -np.inf
    return 2.0 * float(np.sum(np.log(d)))


def energy(state, config: GasConfig) -> float:
    """Negative log of the eigenvalue integrand (each pair counted twice).

    Coincident particles return the ``+inf`` sentinel.
    """
    if isinstance(state, GasState):
        return _energy_raw(state.positions, state.params, config)
    return _energy_raw(np.asarray(state, dtype=complex), None, config)


def _energy_raw(z: np.ndarray, s, config: GasConfig) -> float:
    pair = _pair_log_sum(z)
    if pair == -np.inf:
        log.debug("coincident particles: energy sentinel +inf")
        return np.inf
    drive = 2.0 * np.real(np.sum(_times_polynomial(config.times, z)))
    if config.measure == "plane":
        field_term = float(np.sum(config.potential.value_at(z))) - drive
        return -pair + field_term / config.hbar
    if s is None:
        raise ValueError("curve-measure energy needs the parameter vector")
    confine_term = float(np.sum(np.asarray(config.confine(s), dtype=float)))
    return -pair + confine_term - drive / config.hbar


def _potential_wirtinger(potential: PotentialSpec, z: np.ndarray) -> np.ndarray:
    """d U / d zbar; quadratic potentials give z exactly, custom ones use FD."""
    if potential.kind == "quadratic":
        return z.astype(complex)
    h = 1e-6
    ux = (potential.value_at(z + h) - potential.value_at(z - h)) / (2.0 * h)
    uy = (potential.value_at(z + 1j * h) - potential.value_at(z - 1j * h)) / (2.0 * h)
    return 0.5 * (ux + 1j * uy)


def _repulsion(z: np.ndarray) -> np.ndarray:
    """sum_{m != j} 1 / (zbar_j - zbar_m) for every j."""
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, np.inf)
    return np.sum(1.0 / np.conj(diff), axis=1)


def _plane_forces(z: np.ndarray, config: GasConfig) -> np.ndarray:
    drive = np.conj(_times_polynomial_derivative(config.times, z))
    return _repulsion(z) - (_potential_wirtinger(config.potential, z) - drive) / config.hbar


def _confine_derivative(confine, s: np.ndarray) -> np.ndarray:
    h = 1e-6
    return (np.asarray(confine(s + h), dtype=float) - np.asarray(confine(s - h), dtype=float)) / (2.0 * h)


def _curve_param_forces(s: np.ndarray, config: GasConfig) -> np.ndarray:
    """Descent direction in the curve parameter (force = -dE/ds)."""
    z = config.curve.point(s)
    complex_part = _repulsion(z) + np.conj(_times_polynomial_derivative(config.times, z)) / config.hbar
    return (2.0 * np.real(complex_part * np.conj(config.curve.velocity(s)))
            - _confine_derivative(config.confine, s))


def forces(state, config: GasConfig) -> np.ndarray:
    """Descent direction: ``z + gamma * force`` lowers the energy to first order.

    Curve measures project onto the curve tangent; at a ray endpoint the
    inward wall component is clamped to zero (hard wall).
    """
    if isinstance(state, GasState):
        z, s = state.positions, state.params
    else:
        z, s = np.asarray(state, dtype=complex), None
    if config.measure == "plane":
        return _plane_forces(z, config)
    if s is None:
        raise ValueError("curve-measure forces need the parameter vector")
    return _wall_clamped(s, _curve_param_forces(s, config), config.curve) * config.curve.tangent(s)


def _wall_clamped(s: np.ndarray, f_s: np.ndarray, curve: CurveSpec) -> np.ndarray:
    """Parameter forces with every push into a curve wall set to zero."""
    lo, hi = curve.bounds
    at_low_wall = (s <= lo + 1e-12) & (f_s < 0) if np.isfinite(lo) else np.zeros(len(s), bool)
    at_high_wall = (s >= hi - 1e-12) & (f_s > 0) if np.isfinite(hi) else np.zeros(len(s), bool)
    return np.where(at_low_wall | at_high_wall, 0.0, f_s)


def _initial_configuration(config: GasConfig, rng: np.random.Generator):
    if config.measure == "plane":
        radius = config.schedule.init_radius or math.sqrt(config.t0)
        rho = radius * np.sqrt(rng.uniform(0.0, 1.0, config.N))
        ang = rng.uniform(0.0, 2.0 * np.pi, config.N)
        return rho * np.exp(1j * ang), None
    span = config.schedule.init_span or 2.0 * math.sqrt(config.t0)
    lo, hi = config.curve.bounds
    a = lo if np.isfinite(lo) else -span
    b = min(hi, a + 2.0 * span) if np.isfinite(hi) else a + 2.0 * span
    s = np.sort(rng.uniform(a, b, config.N))
    return config.curve.point(s), s


def minimize(config: GasConfig) -> GasState:
    """Equilibrium configuration, deterministic for a given config and seed.

    The plane measure runs steepest descent with Armijo backtracking, whose
    energy decreases monotonically along the iteration; a curve measure runs
    L-BFGS-B over the curve parameters (see ``_minimize_curve``).  Converged
    means ``max |force| < tol`` with the default tolerance
    ``1e-8 * N / hbar``, where a force pushing a particle into a curve wall
    counts as zero; non-convergence is reported through the state's
    ``converged`` flag and a warning log line, not an exception.
    """
    rng = np.random.default_rng(config.seed)
    z, s = _initial_configuration(config, rng)
    sched = config.schedule
    tol = sched.tolerance if sched.tolerance is not None else 1e-8 * config.N / config.hbar
    if config.measure == "curve":
        state = _minimize_curve(config, s, tol)
    else:
        state = _minimize_plane(config, z, tol)
    if not state.converged:
        log.warning("minimize did not converge: residual force %.3e after %d iterations",
                    state.trace[-1][2], state.iterations)
    return state


def _minimize_plane(config: GasConfig, z: np.ndarray, tol: float) -> GasState:
    """Steepest descent; one trace row per iteration, taken before its step."""
    sched = config.schedule
    gamma = sched.step0 if sched.step0 is not None else config.hbar
    gamma_max = 100.0 * gamma
    e_now = _energy_raw(z, None, config)
    evaluations = 1
    iterations = 0
    converged = False
    trace = []
    for iterations in range(1, sched.max_iterations + 1):
        f = _plane_forces(z, config)
        evaluations += 1
        grad_norm = float(np.max(np.abs(f)))
        trace.append((iterations, e_now, grad_norm))
        if grad_norm < tol:
            converged = True
            break
        decrease = float(np.sum(np.abs(f) ** 2))
        accepted = False
        backtracked = False
        while gamma > 1e-18:
            z_try = z + gamma * f
            e_try = _energy_raw(z_try, None, config)
            evaluations += 1
            if e_try <= e_now - 1e-4 * gamma * decrease:
                accepted = True
                break
            gamma *= 0.5
            backtracked = True
        if not accepted:
            break
        z, e_now = z_try, e_try
        if not backtracked:
            gamma = min(gamma * 1.3, gamma_max)
    return GasState(z, None, energy=e_now, converged=converged, iterations=iterations,
                    trace=tuple(trace), evaluations=evaluations)


def _minimize_curve(config: GasConfig, s0: np.ndarray, tol: float) -> GasState:
    """L-BFGS-B over the N curve parameters, with the curve's bounds as box bounds.

    Trace row 0 is the start and row ``i`` the iterate after ``i``
    quasi-Newton iterations, so ``iterations`` counts those iterations.
    scipy's own stopping tests are off: the run stops once the wall-clamped
    residual force is below ``tol``, after ``max_iterations`` iterations, or
    when the line search can make no more progress.
    """
    last = {"s": None}
    evaluations = 0

    def evaluate(s):
        """Energy and parameter forces at ``s``, computed once per distinct ``s``."""
        nonlocal evaluations
        if not np.array_equal(s, last["s"]):
            e = _energy_raw(config.curve.point(s), s, config)
            evaluations += 1
            f_s = None
            if e < np.inf:
                f_s = _curve_param_forces(s, config)
                evaluations += 1
            last.update(s=s.copy(), e=e, f=f_s)
        return last["e"], last["f"]

    def energy_and_gradient(s):
        e, f_s = evaluate(s)
        if f_s is None:
            # Coincident particles, which a projected step can put on a wall
            # at once, give the +inf sentinel and no forces.  The line search
            # interpolates and cannot bracket +inf (it stops at a zero step),
            # so it gets the energy of the iterate it started from plus one
            # ulp: never an acceptable step, and its interpolation shrinks it.
            return np.nextafter(trace[-1][1], np.inf), np.zeros_like(s)
        return e, -f_s

    trace = []
    iterate = [s0]

    def record(s):
        """Append the trace row of iterate ``s``; True once it has converged."""
        e, f_s = evaluate(s)
        iterate[0] = s.copy()
        trace.append((len(trace), e, float(np.max(np.abs(_wall_clamped(s, f_s, config.curve))))))
        return trace[-1][2] < tol

    def callback(intermediate_result):
        if record(intermediate_result.x):
            raise StopIteration

    lo, hi = config.curve.bounds
    bounds = [(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)] * len(s0)
    max_iterations = config.schedule.max_iterations
    converged = record(s0)
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
    s = iterate[0]
    return GasState(config.curve.point(s), s, energy=trace[-1][1], converged=converged,
                    iterations=len(trace) - 1, trace=tuple(trace), evaluations=evaluations)


@dataclass(frozen=True)
class MetropolisRun:
    samples: tuple
    acceptance: float
    proposal_scale: float


def metropolis(config: GasConfig, sweeps: int) -> MetropolisRun:
    """Metropolis-Hastings sampling of the gas measure at finite hbar.

    Gaussian single-particle proposals; the scale is tuned to 30-50 percent
    acceptance during burn-in and then frozen.  Chains are bit-reproducible
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
    thin = max(1, config.schedule.thin)
    N = config.N

    def delta_energy(j, z_new_j, s_new_j):
        others = np.delete(z, j)
        d_new = np.abs(z_new_j - others)
        d_old = np.abs(z[j] - others)
        if len(others) and d_new.min() < MIN_SEPARATION:
            return np.inf
        pair = -2.0 * (np.sum(np.log(d_new)) - np.sum(np.log(d_old))) if len(others) else 0.0
        drive = 2.0 * np.real(
            _times_polynomial(config.times, np.array([z_new_j]))
            - _times_polynomial(config.times, np.array([z[j]]))
        )[0]
        if on_curve:
            conf = float(config.confine(np.array([s_new_j]))[0] - config.confine(np.array([s[j]]))[0])
            return pair + conf - drive / config.hbar
        u = float(config.potential.value_at(np.array([z_new_j]))[0]
                  - config.potential.value_at(np.array([z[j]]))[0])
        return pair + (u - drive) / config.hbar

    samples = []
    accepted = 0
    proposed = 0
    tune_acc = 0
    tune_prop = 0
    lo, hi = config.curve.bounds if on_curve else (None, None)
    for sweep in range(1, sweeps + 1):
        for j in range(N):
            if on_curve:
                s_new = s[j] + scale * rng.normal()
                if (np.isfinite(lo) and s_new < lo) or (np.isfinite(hi) and s_new > hi):
                    proposed += 1
                    tune_prop += 1
                    continue
                z_new = complex(config.curve.point(s_new))
            else:
                s_new = None
                z_new = z[j] + scale * (rng.normal() + 1j * rng.normal())
            dE = delta_energy(j, z_new, s_new)
            proposed += 1
            tune_prop += 1
            if dE <= 0 or rng.uniform() < math.exp(-min(dE, 700.0)):
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
            tune_acc = tune_prop = 0
        if sweep > burn_in and (sweep - burn_in) % thin == 0:
            samples.append(GasState(z.copy(), None if s is None else s.copy(),
                                    energy=_energy_raw(z, s, config)))
    rate = accepted / max(proposed, 1)
    if not 0.01 <= rate <= 0.99:
        log.warning("metropolis acceptance %.3f outside [0.01, 0.99] after tuning", rate)
    return MetropolisRun(samples=tuple(samples), acceptance=rate, proposal_scale=scale)


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


def _fit_boundary_map(points: np.ndarray, order: int = 8) -> LaurentMap:
    """Least-squares truncated map through boundary points at their angles."""
    theta = np.angle(points)
    rows = []
    rhs = []
    for th, b in zip(theta, points):
        cos_r, sin_r = math.cos(th), math.sin(th)
        row_re = [cos_r]
        row_im = [sin_r]
        for j in range(order + 1):
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
    Curve: occupied parameter range and a density histogram.
    """
    if config.measure == "curve":
        s = state.params
        s_min, s_max = float(np.min(s)), float(np.max(s))
        counts, edges = np.histogram(s, bins=bins)
        return SupportEstimate(kind="curve", s_min=s_min, s_max=s_max,
                               histogram=(counts, edges))
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
        raise ValueError("too few particles to estimate a boundary")
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
