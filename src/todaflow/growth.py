"""Contour dynamics: moment flows of a truncated conformal map.

A map from :mod:`todaflow.laurent` is evolved by prescribing the normal
velocity of its boundary image and lifting that velocity to coefficient ODEs
through the classical analytic-extension scheme:

    dz/dt (w) = w z'(w) Phi(w),   Re Phi = V_n / |z'|  on |w| = 1,

with ``Phi`` the Schwarz extension of the real boundary data.  The available
flows are growth with a source at infinity, growth with a source at a finite
exterior point, and the higher harmonic-moment flows, all in the quadratic
background ``U = z zbar`` (``U_zzbar = 1``) that the gas of
:mod:`todaflow.dyson` shares.  The orientation is outward-positive: the area
clock runs at ``d t0/dt = +1``.

Each flow is an ODE on the map's ``M + 2`` modes ``v = (r, a_0 .. a_M)``,
the polynomial reduction of Kostov, Krichever, Mineev-Weinstein, Wiegmann &
Zabrodin.  An RK4 stage calls no FFT: it reads ``z`` and ``w z'`` from its
modes by one product with the power table, ``Phi`` from one product of
``h`` with the Schwarz table, and ``dz/dt`` from one short convolution of
``p v`` with ``Phi``: its first ``M + 2`` entries are the rates, and the
rest, which only a step's first stage computes, is the leakage the
truncated map drops.  ``r``'s rate ``r Phi_0`` is real, so ``r`` stays
real.  No stage builds a map; a source stage inverts ``z0`` on its modes,
and a harmonic stage reads ``phi_k`` off them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import laurent
from .errors import CuspError, NonUnivalentError
from .laurent import LaurentMap

#: boundary |z'| below this is treated as a cusp for smooth flows
CUSP_FLOOR = 1e-8

#: most records whose moments :func:`run` fills in one boundary pass
MOMENT_BLOCK = 16


@dataclass(frozen=True)
class FlowSpec:
    """One deformation direction: which time runs, and with which sign."""

    kind: str
    k: int = 0
    z0: complex = 0j
    sign: int = 1

    _KINDS = ("t0_infinity", "t0_source", "tk_real", "tk_imag")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown flow kind {self.kind!r}")
        if self.kind in ("tk_real", "tk_imag") and self.k < 1:
            raise ValueError("harmonic flows need k >= 1")
        if self.sign not in (1, -1):
            raise ValueError("flow sign must be +1 or -1")

    @classmethod
    def t0_infinity(cls, sign: int = 1) -> "FlowSpec":
        return cls("t0_infinity", sign=sign)

    @classmethod
    def t0_source(cls, z0: complex, sign: int = 1) -> "FlowSpec":
        return cls("t0_source", z0=complex(z0), sign=sign)

    @classmethod
    def tk_real(cls, k: int, sign: int = 1) -> "FlowSpec":
        return cls("tk_real", k=k, sign=sign)

    @classmethod
    def tk_imag(cls, k: int, sign: int = 1) -> "FlowSpec":
        return cls("tk_imag", k=k, sign=sign)


@dataclass(frozen=True)
class MomentVector:
    """t0 plus the exterior moments t_k and interior moments v_k, k = 1..order.

    :func:`moment_vector` fills all three from one boundary pass.  ``v0`` is
    deliberately absent: only its t0-derivative is ever defined by the flow
    equations, not the quantity itself.
    """

    order: int
    t0: float
    t: np.ndarray
    v: np.ndarray


def _require_univalent(m: LaurentMap, n: int | None, context: str, grid=None):
    ok, min_sep, min_zp, theta = laurent.univalence_witness(m, n, grid)
    if not ok:
        raise NonUnivalentError(f"{context}: univalence witness failed (min separation "
                                f"{min_sep:.3e}, min |z'| {min_zp:.3e} near theta={theta:.4f})",
                                theta=theta)


def _moments(grids, order: int) -> list:
    """Both moment families of each map of a block from one boundary pass over
    its ``(z, w z')`` samples, stacked along a leading axis, without the witness.

    With ``core = zbar z' w`` on the grid, ``t0 = mean(core)``,
    ``t_k = mean(z^-k core) / k`` and ``v_k = mean(z^k core)``; ``z^-k`` and
    ``z^k`` are one running product, so the block holds one power at a time.
    A map's moments do not depend on its block, to the bit.
    """
    z, wzp = grids
    n = z.shape[-1]
    core = (np.conj(z) * wzp)[..., None]
    base = power = np.stack([1.0 / z, z], axis=1)
    sums = np.empty((order, len(z), 2), dtype=complex)
    for k in range(order):
        sums[k] = (power @ core)[..., 0]
        power = power * base
    t, v = sums.T
    t0 = np.mean(core[..., 0], axis=-1).real
    return [MomentVector(order, float(a), b, c)
            for a, b, c in zip(t0, t / (n * np.arange(1, order + 1)), v / n)]


def moment_vector(m: LaurentMap, order: int, n: int | None = None) -> MomentVector:
    """Both moment families of a map from one witness and one boundary pass,
    which share the map's grid samples."""
    n = laurent._resolve_grid(m, n)
    grid = laurent._grid_values(m, n)
    _require_univalent(m, n, "moment_vector", grid)
    return _moments((grid[0][None], grid[1][None]), order)[0]


def orlov_shulman(m: LaurentMap, moments: MomentVector, w):
    """Truncated moment generating function on the boundary.

    ``M(w) = sum_k k t_k z^k(w) + t0 + sum_k v_k z^{-k}(w)`` with both sums
    cut at ``moments.order``.  It approximates ``|z|^2`` on the contour
    wherever the tail series converges.
    """
    K = moments.order
    if len(moments.t) != K or len(moments.v) != K:
        raise ValueError("moment order mismatch")
    z = laurent.evaluate(m, w)
    out = (laurent._horner(np.concatenate([[moments.t0], np.arange(1, K + 1) * moments.t]), z)
           + laurent._horner(np.concatenate([[0.0], moments.v]), 1.0 / z))
    return out if out.ndim else complex(out)


def _velocity_over_speed(v: np.ndarray, flow: FlowSpec, n: int, grid=None, w0=None):
    """Return (V_n samples, h = V_n/|z'| samples) on the grid.

    ``v`` holds the map's modes (:func:`laurent._modes`), and ``grid`` its
    ``(z, w z')`` samples when the caller already has them.  A source flow
    takes ``w0``, the root of ``z(w0) = z0``, or inverts ``z0`` by
    :func:`laurent._invert`; a harmonic flow reads ``phi_k`` off the modes.
    """
    w = laurent._power_table(n, len(v))[0, :n]  # row p = 1: the grid nodes
    _, wzp = laurent._mode_values(v, n) if grid is None else grid
    azp = np.abs(wzp)
    if azp.min() < CUSP_FLOOR:
        j = int(np.argmin(azp))
        raise CuspError(f"|z'| = {azp[j]:.3e} at theta = {2 * np.pi * j / n:.4f}: cusp, smooth "
                        "flow undefined (slit-type evolution in todaflow.loewner may still "
                        "apply)", theta=2 * np.pi * j / n)
    if flow.kind == "t0_infinity":
        vn = 1.0 / (2.0 * azp)
    elif flow.kind == "t0_source":
        w0 = laurent._invert(float(v[0].real), v[1:].tolist(), flow.z0) if w0 is None else w0
        wf = w / (w - w0) + w * np.conj(w0) / (1.0 - w * np.conj(w0))
        # outward-positive orientation: reduces to the source-at-infinity flow
        # as |z0| grows, and keeps d t0/dt = +1.
        vn = -wf.real / (2.0 * azp)
    else:
        phi = laurent._phi_k_many(v[0], v[1:], flow.k, w)
        vn = (phi.real if flow.kind == "tk_real" else -phi.imag) / azp
    vn = flow.sign * vn
    return vn, vn / azp


def _coefficient_rhs(v: np.ndarray, flow: FlowSpec, n: int, grid=None, w0=None,
                     count: int | None = None) -> np.ndarray:
    """The modes of ``dz/dt = w z' Phi`` for a map of modes ``v``.

    ``Phi``, the Schwarz extension of ``h``, is one product of ``h`` with
    :func:`laurent._schwarz_table`: its ``n/2`` modes, or the first ``count``.
    ``w z'`` has the modes ``p v`` at the powers ``p = 1, 0, .., -M``, so
    ``dz/dt`` is their convolution with ``Phi``: the first ``M + 2`` entries
    are the rates of ``r`` and the ``a_j``, which read ``Phi_0 .. Phi_-(M+1)``
    only, and the rest is spectral leakage (:func:`_leakage`).  ``r``'s rate,
    ``r Phi_0``, is real.  ``grid`` and ``w0`` are as in :func:`_velocity_over_speed`.
    """
    _, h = _velocity_over_speed(v, flow, n, grid, w0)
    table = laurent._schwarz_table(n, n // 2 if count is None else count)
    return np.convolve(v * laurent._mode_powers(len(v)), (h @ table).view(complex))


def _leakage(rates: np.ndarray, count: int) -> float:
    """Energy of the ``dz/dt`` modes past the map's ``count`` modes."""
    tail = rates[count:]
    return float(np.vdot(tail, tail).real)


@dataclass(frozen=True)
class StepDiagnostics:
    leakage: float
    min_abs_zprime: float


def _rk4_step(m: LaurentMap, flow: FlowSpec, dt: float, n: int, grid=None, root=None):
    """One RK4 step on the map's modes ``v = (r, a_0 .. a_M)``: the new map, its
    diagnostics, its ``(z, w z')`` and its last source root; ``grid`` is
    ``m``'s ``(z, w z')`` if known.

    A stage's rates are one product with each table and one convolution
    (:func:`_coefficient_rhs`); the first stage alone takes all of ``Phi``,
    for the leakage.  A source stage seeds its inversion at the stage
    before's root, the first at ``root`` (cold if None).
    """
    v = laurent._modes(m.r, m.coeffs if len(m.coeffs) else [0j])
    count = len(v)

    def rates(u, grid=None, modes=None):
        nonlocal root
        laurent._check_modes(u[0].real, u[1:])
        if flow.kind == "t0_source":
            root = laurent._invert(float(u[0].real), u[1:].tolist(), flow.z0, root)
        return _coefficient_rhs(u, flow, n, grid, root, modes)

    first = rates(v, grid)
    k1 = first[:count]
    k2 = rates(v + 0.5 * dt * k1, modes=count)[:count]
    k3 = rates(v + 0.5 * dt * k2, modes=count)[:count]
    k4 = rates(v + dt * k3, modes=count)[:count]
    v_new = v + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    new_map = LaurentMap(v_new[0].real, v_new[1:])
    new_grid = laurent._grid_values(new_map, n)
    ok, _, min_zp, theta = laurent.univalence_witness(new_map, n, new_grid)
    if not ok:
        raise CuspError(f"univalence lost after step dt={dt} (min |z'| {min_zp:.3e} near "
                        f"theta={theta:.4f})", theta=theta)
    return new_map, StepDiagnostics(_leakage(first, count), min_zp), new_grid, root


def _schedule_problems(m: LaurentMap, schedule):
    """Yield ``(leg, key, message)`` for every leg of ``schedule`` that ``m`` cannot run.

    A leg needs ``steps >= 1``.  A harmonic leg needs ``k <= M + 1``: an
    order-``M`` map keeps ``t_k = 0`` for every ``k > M + 1`` (the polynomial
    reduction), whatever the grid.  An area leg moves ``t0``
    (:func:`laurent._area`) by exactly ``sign * duration``, and may not take a
    positive ``t0`` to zero or below; a start map with ``t0 <= 0`` is left to
    the univalence witness.
    """
    t0 = laurent._area(m)
    for leg, (flow, duration, steps) in enumerate(schedule):
        if steps < 1:
            yield leg, "steps", "steps must be >= 1"
        harmonic = flow.kind in ("tk_real", "tk_imag")
        if harmonic and flow.k > m.order + 1:
            yield leg, "k", (f"needs k <= M + 1 = {m.order + 1}: an order-{m.order} map keeps "
                             "t_k = 0 for every larger k")
        after = t0 if harmonic else t0 + flow.sign * duration
        if t0 > 0.0 >= after:
            yield leg, "duration", f"takes t0 from {t0:g} to {after:g}: the area must stay positive"
        t0 = after


def _require_runnable(m: LaurentMap, schedule):
    """Raise ``ValueError`` naming every problem of :func:`_schedule_problems`."""
    problems = [f"leg {leg}: {message}" for leg, _, message in _schedule_problems(m, schedule)]
    if problems:
        raise ValueError("; ".join(problems))


def step(m: LaurentMap, flow: FlowSpec, dt: float, n: int | None = None) -> LaurentMap:
    """Advance the map by one fixed RK4 step of the chosen flow.

    The leading coefficient's rate is real, so it stays real; losing
    univalence raises :class:`CuspError` with the offending angle.  A step
    that :func:`run` would refuse as a one-step leg of duration ``dt`` (a
    harmonic flow past ``k = M + 1``, an area step that ends ``t0``) raises
    ``ValueError`` before it is taken.  ``dt = 0`` returns the map unchanged.
    """
    if dt == 0:
        return m
    n = laurent._resolve_grid(m, n)
    _require_runnable(m, [(flow, dt, 1)])
    return _rk4_step(m, flow, dt, n)[0]


@dataclass(frozen=True)
class TrajectoryRecord:
    index: int
    time: float
    map: LaurentMap
    moments: MomentVector | None
    diagnostics: StepDiagnostics | None


@dataclass(frozen=True)
class Trajectory:
    records: tuple

    @property
    def final(self) -> LaurentMap:
        return self.records[-1].map


def _fill(records: list, pending: list, order: int):
    """Move the pending ``(index, time, map, diagnostics, grid)`` to ``records``, moments filled."""
    if pending:
        grids = [np.stack(samples) for samples in zip(*(p[4] for p in pending))]
        records.extend(TrajectoryRecord(index, time, m, moments, diag) for
                       (index, time, m, diag, _), moments in zip(pending, _moments(grids, order)))
        pending.clear()


def run(m: LaurentMap, schedule, moment_order: int | None = None,
        n: int | None = None) -> Trajectory:
    """Apply a schedule of ``(flow, duration, steps)`` legs.

    Records the map (with moments and step diagnostics) after every step;
    the initial state is record 0.  Each map is witnessed once: record 0
    here, every later one by the RK4 step that made it, so the moments of
    the records skip the witness of :func:`moment_vector`.  Each map's grid
    samples are built once and serve its witness, its moments and the first
    stage of the next step.  The moments of each ``MOMENT_BLOCK`` records
    take one pass, after which their grids go.  Every leg is checked before
    any step (:func:`_schedule_problems`), and a schedule with a bad leg
    raises one ``ValueError`` naming each.  Step failures are re-raised
    with the failing step and leg in the message and the trajectory up to
    the failure, moments filled, attached as ``exc.partial``; a
    ``ValueError`` from a step (say an RK4 stage that overshoots ``r`` below
    zero) carries the same prefix, with no trajectory.
    """
    n = laurent._resolve_grid(m, n)
    _require_runnable(m, schedule)
    if moment_order is None:
        moment_order = m.order
    grid = laurent._grid_values(m, n)
    _require_univalent(m, n, "run", grid)
    records, pending = [], [(0, 0.0, m, None, grid)]
    current, time, index = m, 0.0, 0
    for leg, (flow, duration, steps) in enumerate(schedule):
        dt = duration / steps
        root = None
        for _ in range(steps):
            index += 1
            try:
                current, diag, grid, root = _rk4_step(current, flow, dt, n, grid, root)
            except (CuspError, NonUnivalentError) as exc:
                wrapped = type(exc)(f"step {index} (leg {leg}): {exc}",
                                    getattr(exc, "theta", None))
                _fill(records, pending, moment_order)
                wrapped.partial = Trajectory(tuple(records))
                raise wrapped from exc
            except ValueError as exc:  # a stage left the maps, e.g. r <= 0
                raise ValueError(f"step {index} (leg {leg}): {exc}") from exc
            time += dt
            pending.append((index, time, current, diag, grid))
            if len(pending) == MOMENT_BLOCK:
                _fill(records, pending, moment_order)
    _fill(records, pending, moment_order)
    return Trajectory(tuple(records))


def string_residual(m: LaurentMap, dt0: float | None = None, n: int | None = None) -> float:
    """Deviation of the map from the non-degenerate string equation.

    Embeds the map in its own source-at-infinity flow to give the bracket a
    t0 axis and returns ``max |{z, zbar} - 1|`` over the grid.  On the
    circle ``w d/dw zbar = -conj(w z')``, so the bracket is
    ``2 Re(w z' conj(dz/dt0))``: ``w z'`` is read off the map's modes and
    ``dz/dt0`` is the central difference of its two t0-neighbours.  Exact
    smooth-growth families give a residual at the central-difference level
    ``O(dt0^2)``; slit-type families instead make the bracket itself vanish.
    ``dt0`` defaults to ``1e-4`` times the map's area clock.
    """
    if dt0 is None:
        dt0 = 1e-4 * moment_vector(m, 1, n).t0
    if dt0 <= 0:
        raise ValueError("dt0 must be positive")
    n = laurent._resolve_grid(m, n)
    flow = FlowSpec.t0_infinity()
    z_minus, _ = laurent._grid_values(step(m, flow, -dt0, n), n)
    z_plus, _ = laurent._grid_values(step(m, flow, dt0, n), n)
    _, wzp = laurent._grid_values(m, n)
    bracket = 2.0 * (wzp * np.conj((z_plus - z_minus) / (2.0 * dt0))).real
    return float(np.max(np.abs(bracket - 1.0)))
