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
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from . import laurent
from .errors import CuspError, NonUnivalentError
from .laurent import LaurentMap, circle_grid

log = logging.getLogger(__name__)

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

    :func:`harmonic_moments` fills t0 and t, and :func:`moment_vector` fills
    all three.  ``v0`` is deliberately absent:
    only its t0-derivative is ever defined by the flow equations, not the
    quantity itself.
    """

    order: int
    t0: float | None = None
    t: np.ndarray | None = None
    v: np.ndarray | None = None


def _require_univalent(m: LaurentMap, n: int | None, context: str):
    ok, min_sep, min_zp, theta = laurent.univalence_witness(m, n)
    if not ok:
        raise NonUnivalentError(
            f"{context}: univalence witness failed (min separation {min_sep:.3e}, "
            f"min |z'| {min_zp:.3e} near theta={theta:.4f})",
            theta=theta,
        )


def _moments(m: LaurentMap, order: int, n: int | None, grid=None) -> MomentVector:
    """Both moment families over one boundary pass, without the univalence witness.

    With ``core = zbar z' w`` on the grid, ``t0 = mean(core)``,
    ``t_k = mean(z^-k core) / k`` and ``v_k = mean(z^k core)``; the powers of
    ``z`` for all k are built at once as running products.  Callers witness
    the map first.  ``grid`` is the map's ``(z, w z')`` samples when the
    caller already has them.
    """
    n = laurent._resolve_grid(m, n)
    z, wzp = laurent._grid_values(m, n) if grid is None else grid
    core = np.conj(z) * wzp
    inverse_powers = np.cumprod(np.broadcast_to(1.0 / z, (order, n)), axis=0)
    powers = np.cumprod(np.broadcast_to(z, (order, n)), axis=0)
    return MomentVector(order=order, t0=float(np.mean(core).real),
                        t=inverse_powers @ core / (n * np.arange(1, order + 1)),
                        v=powers @ core / n)


def harmonic_moments(m: LaurentMap, order: int, n: int | None = None) -> MomentVector:
    """Exterior harmonic moments ``t_k = (1/2 pi i k) oint z^{-k} zbar dz`` and t0.

    ``t0`` is the enclosed area divided by pi, computed from the same boundary
    quadrature.  The grid quadrature is spectrally accurate for univalent maps.
    """
    _require_univalent(m, n, "harmonic_moments")
    mv = _moments(m, order, n)
    return MomentVector(order=order, t0=mv.t0, t=mv.t)


def moment_vector(m: LaurentMap, order: int, n: int | None = None) -> MomentVector:
    """Both moment families of a map from one witness and one boundary pass."""
    _require_univalent(m, n, "moment_vector")
    return _moments(m, order, n)


def orlov_shulman(m: LaurentMap, moments: MomentVector, w):
    """Truncated moment generating function on the boundary.

    ``M(w) = sum_k k t_k z^k(w) + t0 + sum_k v_k z^{-k}(w)`` with both sums
    cut at ``moments.order``.  It approximates ``|z|^2`` on the contour
    wherever the tail series converges.
    """
    if moments.t0 is None or moments.t is None or moments.v is None:
        raise ValueError("orlov_shulman needs a full MomentVector (t0, t and v parts)")
    K = moments.order
    if len(moments.t) != K or len(moments.v) != K:
        raise ValueError("moment order mismatch")
    w = np.asarray(w, dtype=complex)
    z = laurent.evaluate(m, w)
    out = np.full(z.shape, moments.t0, dtype=complex)
    p = np.ones_like(z)
    zinv = 1.0 / z
    q = np.ones_like(z)
    for k in range(1, K + 1):
        p = p * z
        q = q * zinv
        out = out + k * moments.t[k - 1] * p + moments.v[k - 1] * q
    return out if out.ndim else complex(out)


@functools.lru_cache(maxsize=None)
def _circle_nodes(n: int) -> np.ndarray:
    """The ``n``-point circle grid, built once per ``n`` and read-only."""
    w = circle_grid(n)
    w.setflags(write=False)
    return w


def _velocity_over_speed(m: LaurentMap, flow: FlowSpec, n: int, grid=None):
    """Return (V_n samples, h = V_n/|z'| samples, w z' samples) on the grid.

    ``grid`` is the map's ``(z, w z')`` samples when the caller already has them.
    """
    w = _circle_nodes(n)
    z, wzp = laurent._grid_values(m, n) if grid is None else grid
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
        w0 = laurent.inverse_evaluate(m, flow.z0)
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
    return vn, vn / azp, wzp


def _coefficient_rhs(m: LaurentMap, flow: FlowSpec, n: int, grid=None):
    """Time derivative of (r, a0..aM) plus the spectral-leakage diagnostic.

    All on the grid spectrum: ``Phi`` (the Schwarz extension of ``h``) keeps
    ``Re hhat_0`` at index 0 and ``2 hhat_-k`` at index ``-k`` for
    ``k = 1 .. n/2 - 1``, and ``dz/dt = w z' Phi`` is read off by one FFT.
    """
    _, h, wzp = _velocity_over_speed(m, flow, n, grid)
    h_modes = np.fft.fft(h)
    phi_modes = np.zeros(n, dtype=complex)
    phi_modes[0] = h_modes[0].real
    phi_modes[n // 2 + 1:] = 2.0 * h_modes[n // 2 + 1:]
    modes = np.fft.fft(wzp * np.fft.ifft(phi_modes)) / n
    kept_index = -np.arange(m.order + 1) % n
    r_dot = modes[1]
    a_dot = modes[kept_index]
    kept = np.zeros(n, dtype=bool)
    kept[1] = True
    kept[kept_index] = True
    leakage = float(np.sum(np.abs(modes[~kept]) ** 2))
    return r_dot, a_dot, leakage


@dataclass(frozen=True)
class StepDiagnostics:
    leakage: float
    r_imag_residual: float
    min_abs_zprime: float


def _rk4_step(m: LaurentMap, flow: FlowSpec, dt: float, n: int, grid=None):
    """One RK4 step and its diagnostics; ``grid`` is ``m``'s ``(z, w z')`` if known."""

    def rhs(r, a):
        probe = LaurentMap(r, a)
        return _coefficient_rhs(probe, flow, n)

    r0, a0 = m.r, np.asarray(m.coeffs, dtype=complex)
    k1r, k1a, leak = _coefficient_rhs(m, flow, n, grid)
    k2r, k2a, _ = rhs(r0 + 0.5 * dt * k1r.real, a0 + 0.5 * dt * k1a)
    k3r, k3a, _ = rhs(r0 + 0.5 * dt * k2r.real, a0 + 0.5 * dt * k2a)
    k4r, k4a, _ = rhs(r0 + dt * k3r.real, a0 + dt * k3a)
    r_incr = dt * (k1r + 2 * k2r + 2 * k3r + k4r) / 6.0
    a_new = a0 + dt * (k1a + 2 * k2a + 2 * k3a + k4a) / 6.0
    r_imag = abs(r_incr.imag)
    if r_imag >= 1e-10:
        raise CuspError(
            f"leading coefficient acquired imaginary part {r_imag:.3e}; flow is inconsistent"
        )
    if r_imag > 0:
        log.debug("zeroed imaginary residue %.3e on the leading coefficient", r_imag)
    new_map = LaurentMap(r0 + r_incr.real, a_new)
    ok, _, min_zp, theta = laurent.univalence_witness(new_map, n)
    if not ok:
        raise CuspError(
            f"univalence lost after step dt={dt} (min |z'| {min_zp:.3e} near theta={theta:.4f})",
            theta=theta,
        )
    return new_map, StepDiagnostics(leakage=leak, r_imag_residual=r_imag, min_abs_zprime=min_zp)


def step(m: LaurentMap, flow: FlowSpec, dt: float, n: int | None = None) -> LaurentMap:
    """Advance the map by one fixed RK4 step of the chosen flow.

    The updated leading coefficient is kept real (tiny imaginary residue is
    zeroed); losing univalence raises :class:`CuspError` with the offending
    angle.  ``dt = 0`` returns the map unchanged.
    """
    if dt == 0:
        return m
    n = laurent._resolve_grid(m, n)
    new_map, _ = _rk4_step(m, flow, dt, n)
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
    def maps(self):
        return [rec.map for rec in self.records]

    @property
    def final(self) -> LaurentMap:
        return self.records[-1].map


def run(m: LaurentMap, schedule, moment_order: int | None = None,
        n: int | None = None) -> Trajectory:
    """Apply a schedule of ``(flow, duration, steps)`` legs.

    Records the map (with moments and step diagnostics) after every step;
    the initial state is record 0.  Each map is witnessed once: record 0
    here, every later one by the RK4 step that made it, so the moments of
    the records skip the witness of :func:`moment_vector`, and each map's
    grid samples serve both its moments and the first stage of the next
    step.  Step failures are re-raised with the failing step index in the
    message and the trajectory up to the failure attached as
    ``exc.partial``; a ``ValueError`` from a step (say a leading coefficient
    driven below zero) carries the failing leg's index as ``exc.leg``.
    """
    n = laurent._resolve_grid(m, n)
    if moment_order is None:
        moment_order = m.order
    _require_univalent(m, n, "run")
    grid = laurent._grid_values(m, n)
    records = [TrajectoryRecord(0, 0.0, m, _moments(m, moment_order, n, grid), None)]
    current = m
    time = 0.0
    index = 0
    for leg, (flow, duration, steps) in enumerate(schedule):
        if steps < 1:
            raise ValueError(f"leg {leg}: steps must be >= 1")
        dt = duration / steps
        for _ in range(steps):
            index += 1
            try:
                current, diag = _rk4_step(current, flow, dt, n, grid)
            except (CuspError, NonUnivalentError) as exc:
                wrapped = type(exc)(f"step {index} (leg {leg}): {exc}",
                                    getattr(exc, "theta", None))
                wrapped.partial = Trajectory(tuple(records))
                raise wrapped from exc
            except ValueError as exc:  # the leg left the maps, e.g. r <= 0
                exc.leg = leg
                raise
            time += dt
            grid = laurent._grid_values(current, n)
            records.append(
                TrajectoryRecord(index, time, current, _moments(current, moment_order, n, grid),
                                 diag)
            )
    return Trajectory(tuple(records))


def string_residual(m: LaurentMap, dt0: float | None = None, n: int | None = None) -> float:
    """Deviation of the map from the non-degenerate string equation.

    Embeds the map in its own source-at-infinity flow to give the bracket a
    t0 axis and returns ``max |{z, zbar} - 1|`` over the grid.  Exact
    smooth-growth families give a residual at the central-difference level
    ``O(dt0^2)``; slit-type families instead make the bracket itself vanish.
    ``dt0`` defaults to ``1e-4`` times the map's area clock.
    """
    if dt0 is None:
        dt0 = 1e-4 * harmonic_moments(m, 1, n).t0
    if dt0 <= 0:
        raise ValueError("dt0 must be positive")
    n = laurent._resolve_grid(m, n)
    flow = FlowSpec.t0_infinity()
    snapshots = {
        -1: step(m, flow, -dt0, n),
        0: m,
        1: step(m, flow, dt0, n),
    }

    def z_fn(w, t):
        key = int(round(t / dt0))
        return laurent.evaluate(snapshots[key], w)

    def zbar_fn(w, t):
        return np.conj(z_fn(w, t))

    w = circle_grid(n)
    bracket = laurent.poisson_bracket(z_fn, zbar_fn, w, 0.0, dt0)
    return float(np.max(np.abs(bracket - 1.0)))
