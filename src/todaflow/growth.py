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
Zabrodin.  An RK4 stage reads ``z`` and ``w z'`` from its modes by one
product with the power table, takes ``Phi`` from one real FFT of ``h``,
and ``dz/dt`` from one short convolution of ``p v`` with ``Phi``: its first
``M + 2`` entries are the rates, and the rest is the leakage the truncated
map drops.  ``r``'s rate ``r Phi_0`` is real, so ``r`` stays real.  No stage
builds a map; a source stage inverts ``z0`` on its modes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import laurent
from .errors import CuspError, NonUnivalentError, SeriesBudgetError
from .laurent import LaurentMap, circle_grid

#: boundary |z'| below this is treated as a cusp for smooth flows
CUSP_FLOOR = 1e-8


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
        raise NonUnivalentError(
            f"{context}: univalence witness failed (min separation {min_sep:.3e}, "
            f"min |z'| {min_zp:.3e} near theta={theta:.4f})",
            theta=theta,
        )


def _moments(m: LaurentMap, order: int, n: int | None, grid=None) -> MomentVector:
    """Both moment families over one boundary pass, without the univalence witness.

    With ``core = zbar z' w`` on the grid, ``t0 = mean(core)``,
    ``t_k = mean(z^-k core) / k`` and ``v_k = mean(z^k core)``; ``z^-k`` and
    ``z^k`` are built together as running products, one multiply per k.
    Callers witness the map first.  ``grid`` is the map's ``(z, w z')``
    samples when the caller already has them.
    """
    n = laurent._resolve_grid(m, n)
    z, wzp = laurent._grid_values(m, n) if grid is None else grid
    core = np.conj(z) * wzp
    base = np.stack([1.0 / z, z])
    powers = np.empty((order + 1, 2, n), dtype=complex)
    powers[0] = 1.0
    for k in range(order):
        np.multiply(powers[k], base, out=powers[k + 1])
    t, v = (powers[1:] @ core).T
    return MomentVector(order=order, t0=float(np.mean(core).real),
                        t=t / (n * np.arange(1, order + 1)), v=v / n)


def moment_vector(m: LaurentMap, order: int, n: int | None = None) -> MomentVector:
    """Both moment families of a map from one witness and one boundary pass,
    which share the map's grid samples."""
    n = laurent._resolve_grid(m, n)
    grid = laurent._grid_values(m, n)
    _require_univalent(m, n, "moment_vector", grid)
    return _moments(m, order, n, grid)


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


@functools.lru_cache(maxsize=None)
def _circle_nodes(n: int) -> np.ndarray:
    """The ``n``-point circle grid, built once per ``n`` and read-only."""
    w = circle_grid(n)
    w.setflags(write=False)
    return w


def _velocity_over_speed(v: np.ndarray, flow: FlowSpec, n: int, grid=None):
    """Return (V_n samples, h = V_n/|z'| samples) on the grid.

    ``v`` holds the map's modes (:func:`laurent._modes`), and ``grid`` its
    ``(z, w z')`` samples when the caller already has them.  A source flow
    inverts ``z0`` by :func:`laurent._invert`, the Newton iteration of
    :func:`laurent.inverse_evaluate`, on the modes.
    """
    w = _circle_nodes(n)
    z, wzp = laurent._mode_values(v, n) if grid is None else grid
    azp = np.abs(wzp)
    if azp.min() < CUSP_FLOOR:
        j = int(np.argmin(azp))
        raise CuspError(
            f"|z'| = {azp[j]:.3e} at theta = {2 * np.pi * j / n:.4f}: cusp, smooth flow "
            "undefined (slit-type evolution in todaflow.loewner may still apply)",
            theta=2 * np.pi * j / n,
        )
    if flow.kind == "t0_infinity":
        vn = 1.0 / (2.0 * azp)
    elif flow.kind == "t0_source":
        w0 = laurent._invert(float(v[0].real), v[1:].tolist(), flow.z0)
        wf = w / (w - w0) + w * np.conj(w0) / (1.0 - w * np.conj(w0))
        # outward-positive orientation: reduces to the source-at-infinity flow
        # as |z0| grows, and keeps d t0/dt = +1.
        vn = -wf.real / (2.0 * azp)
    elif flow.kind == "tk_real":
        vn = laurent._phi_values(z, flow.k, w).real / azp
    elif flow.kind == "tk_imag":
        vn = -laurent._phi_values(z, flow.k, w).imag / azp
    else:  # pragma: no cover
        raise ValueError(flow.kind)
    vn = flow.sign * vn
    return vn, vn / azp


def _coefficient_rhs(v: np.ndarray, flow: FlowSpec, n: int, grid=None) -> np.ndarray:
    """The modes of ``dz/dt = w z' Phi`` for a map of modes ``v``.

    ``Phi`` (the Schwarz extension of ``h``) has ``Phi_0 = Re hhat_0`` and
    ``Phi_-k = 2 conj(hhat_k)`` for ``k = 1 .. n/2 - 1``, from one real FFT of
    ``h``.  ``w z'`` has the modes ``p v`` at the powers ``p = 1, 0, .., -M``,
    so ``dz/dt`` is their convolution with ``Phi``: the first ``M + 2``
    entries are the rates of ``r`` and the ``a_j``, and the rest is spectral
    leakage (:func:`_leakage`).  As ``M + 1 <= n/2``, this is the grid's
    circular product with no wrap.  ``r``'s rate, ``r Phi_0``, is real.
    ``grid`` is as in :func:`_velocity_over_speed`.
    """
    _, h = _velocity_over_speed(v, flow, n, grid)
    h_modes = np.fft.rfft(h, norm="forward")
    phi = 2.0 * h_modes[: n // 2].conj()
    phi[0] = h_modes[0].real
    return np.convolve(v * laurent._mode_powers(len(v)), phi)


def _leakage(rates: np.ndarray, count: int) -> float:
    """Energy of the ``dz/dt`` modes past the map's ``count`` modes."""
    tail = rates[count:]
    return float(np.vdot(tail, tail).real)


@dataclass(frozen=True)
class StepDiagnostics:
    leakage: float
    min_abs_zprime: float


def _rk4_step(m: LaurentMap, flow: FlowSpec, dt: float, n: int, grid=None):
    """One RK4 step on the map's modes ``v = (r, a_0 .. a_M)``: the new map, its
    diagnostics and its ``(z, w z')``; ``grid`` is ``m``'s ``(z, w z')`` if known.

    A stage's grid values are one product of its modes with the power table,
    and its rates one real FFT and one convolution (:func:`_coefficient_rhs`);
    no stage builds a map.  The leakage is read from the first stage.
    """
    v = laurent._modes(m.r, m.coeffs if len(m.coeffs) else [0j])
    count = len(v)
    first = _coefficient_rhs(v, flow, n, grid)
    k1 = first[:count]

    def stage(k, h):
        u = v + h * k
        laurent._check_modes(u[0].real, u[1:])
        return _coefficient_rhs(u, flow, n)[:count]

    k2 = stage(k1, 0.5 * dt)
    k3 = stage(k2, 0.5 * dt)
    k4 = stage(k3, dt)
    v_new = v + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    new_map = LaurentMap(v_new[0].real, v_new[1:])
    new_grid = laurent._grid_values(new_map, n)
    ok, _, min_zp, theta = laurent.univalence_witness(new_map, n, new_grid)
    if not ok:
        raise CuspError(
            f"univalence lost after step dt={dt} (min |z'| {min_zp:.3e} near theta={theta:.4f})",
            theta=theta,
        )
    return new_map, StepDiagnostics(leakage=_leakage(first, count), min_abs_zprime=min_zp), new_grid


def step(m: LaurentMap, flow: FlowSpec, dt: float, n: int | None = None) -> LaurentMap:
    """Advance the map by one fixed RK4 step of the chosen flow.

    The leading coefficient's rate is real, so it stays real; losing
    univalence raises :class:`CuspError` with the offending angle.  A harmonic
    flow whose ``z**k`` the grid cannot resolve raises
    :class:`SeriesBudgetError`, as :func:`run` does.  ``dt = 0`` returns the
    map unchanged.
    """
    if dt == 0:
        return m
    n = laurent._resolve_grid(m, n)
    if flow.kind in ("tk_real", "tk_imag"):
        laurent._projection_grid(m, flow.k, n)
    new_map, _, _ = _rk4_step(m, flow, dt, n)
    return new_map


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


def run(m: LaurentMap, schedule, moment_order: int | None = None,
        n: int | None = None) -> Trajectory:
    """Apply a schedule of ``(flow, duration, steps)`` legs.

    Records the map (with moments and step diagnostics) after every step;
    the initial state is record 0.  Each map is witnessed once: record 0
    here, every later one by the RK4 step that made it, so the moments of
    the records skip the witness of :func:`moment_vector`.  Each map's grid
    samples are built once and serve its witness, its moments and the first
    stage of the next step; the later stages read their grids from their
    modes, and the witness settles most maps' nearest pair and critical
    points by bounds (:func:`laurent.univalence_witness`).  Step failures are re-raised with
    the failing step index in the message and the trajectory up to the
    failure attached as ``exc.partial``; a ``ValueError`` from a step (say a
    leading coefficient driven below zero) carries the failing leg's index as
    ``exc.leg``.
    Every leg is checked before any step, and a bad one raises with ``exc.leg``
    set: ``ValueError`` for no steps, :class:`SeriesBudgetError` for a
    harmonic leg whose ``z**k`` the grid cannot resolve.
    """
    n = laurent._resolve_grid(m, n)
    for leg, (flow, _, steps) in enumerate(schedule):
        try:
            if steps < 1:
                raise ValueError(f"leg {leg}: steps must be >= 1")
            if flow.kind in ("tk_real", "tk_imag"):
                laurent._projection_grid(m, flow.k, n)
        except (ValueError, SeriesBudgetError) as exc:
            exc.leg = leg
            raise
    if moment_order is None:
        moment_order = m.order
    grid = laurent._grid_values(m, n)
    _require_univalent(m, n, "run", grid)
    records = [TrajectoryRecord(0, 0.0, m, _moments(m, moment_order, n, grid), None)]
    current = m
    time = 0.0
    index = 0
    for leg, (flow, duration, steps) in enumerate(schedule):
        dt = duration / steps
        for _ in range(steps):
            index += 1
            try:
                current, diag, grid = _rk4_step(current, flow, dt, n, grid)
            except (CuspError, NonUnivalentError) as exc:
                wrapped = type(exc)(f"step {index} (leg {leg}): {exc}",
                                    getattr(exc, "theta", None))
                wrapped.partial = Trajectory(tuple(records))
                raise wrapped from exc
            except ValueError as exc:  # the leg left the maps, e.g. r <= 0
                exc.leg = leg
                raise
            time += dt
            records.append(
                TrajectoryRecord(index, time, current, _moments(current, moment_order, n, grid),
                                 diag)
            )
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
