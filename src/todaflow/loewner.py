"""Radial Loewner dynamics: slit growth from a circle.

The inverse map ``w(z, q)`` of a growing slit domain obeys

    dw/dq = w (eta(q) + w) / (eta(q) - w),   |eta(q)| = 1,

with ``q = log r`` the capacity time.  A family starts from the exterior of
the disk of radius ``exp(q0)`` (where ``z = exp(q0) * w``) and grows a slit
whose tip is the image of the driving point ``eta(q)``.  Forward maps are
recovered by integrating the same ODE backward along characteristics.

One routine, :func:`advance_many`, integrates: RK4 with substeps of
``BASE_STEP`` shrunk in proportion to the distance from the driving
singularity; a tracked point that comes within ``ABSORB_TOL`` of ``eta`` has
been swallowed by the slit.  Every point carries its own capacity range
(start and end ``q``, either direction, possibly empty), so each query -- a
slit trace together with snapshots of the tracked points, the far-field
radius, a Poisson-bracket stencil -- is one vectorized integration call.
The driving estimate from tracked points is three chained calls, ``q0`` to
``q - dq`` to ``q`` to ``q + dq``.  Points are integrated independently (no
cross-point state, and each point keeps its own substep count), so results
do not depend on how they are batched.

A substep costs a fixed number of small numpy calls, whatever the batch
size, so the loop keeps that number down: the points still moving stay in
compact arrays, gathered again only when one of them finishes or is
absorbed, and each substep makes one ``eta`` call (its mid and end stages;
the end stage is the next substep's first).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientSamplesError, IntegrationBreakdownError

ABSORB_TOL = 1e-9
BASE_STEP = 1e-3  # the substep far from eta; advance_many reads it at every call
TIP_OFFSET = 1e-4
ETA_DQ = 5e-4  # extract_eta's central-difference step in q
_MAX_SUBSTEPS = 5_000_000  # per integration call; more is a breakdown
# default_family's ring: tracked points, first angle, radius over the initial one
_RING_POINTS, _RING_ANGLE, _RING_RADIUS = 12, 0.37, 3.0
_FAR_FIELD = (1e2, 1e3)  # the two w at which fitted_radius reads z(w, q)
# boundary_bracket's steps in q and theta, nodes, slit mask distance, erosion
_BRACKET_DT0, _BRACKET_DTHETA, _BRACKET_NODES = 1e-3, 1e-4, 128
_BRACKET_SAFETY, _BRACKET_ERODE = 0.05, 3


class DrivingFunction:
    """Unimodular driving ``eta(q) = exp(i theta(q))``.

    Three constructions: a constant angle, linear interpolation through
    knots, and a seeded Brownian path built from fixed-grid increments with
    variance ``kappa * dq`` (reproducible and refinable).  The last two are
    linear between the knots ``_knot_q``, the only places ``theta'`` jumps.
    """

    def __init__(self, kind, theta0=0.0, knots=None, kappa=0.0, seed=0, dq_grid=1e-3,
                 q_range=(0.0, 1.0)):
        self.kind = kind
        self.theta0 = float(theta0)
        if kind == "constant":
            self._knot_q = np.empty(0)
        elif kind == "piecewise_linear":
            knots = sorted((float(q), float(th)) for q, th in knots)
            if len(knots) < 2:
                raise ValueError("piecewise-linear driving needs at least two knots")
            self._knot_q = np.array([q for q, _ in knots])
            self._knot_th = np.array([th for _, th in knots])
        elif kind == "brownian":
            if kappa < 0:
                raise ValueError("kappa must be non-negative")
            lo, hi = float(q_range[0]), float(q_range[1])
            if hi <= lo:
                raise ValueError("empty q range for the Brownian grid")
            kappa, dq_grid = float(kappa), float(dq_grid)
            n = int(np.ceil((hi - lo) / dq_grid)) + 1
            rng = np.random.default_rng(int(seed))
            increments = rng.normal(0.0, np.sqrt(kappa * dq_grid), size=n)
            self._knot_q = lo + dq_grid * np.arange(n + 1)
            self._knot_th = self.theta0 + np.concatenate([[0.0], np.cumsum(increments)])
        else:
            raise ValueError(f"unknown driving kind {kind!r}")

    @classmethod
    def constant(cls, theta0=0.0):
        return cls("constant", theta0=theta0)

    @classmethod
    def piecewise_linear(cls, knots):
        return cls("piecewise_linear", knots=knots)

    @classmethod
    def brownian(cls, kappa, seed, dq_grid=1e-3, q_range=(0.0, 1.0)):
        return cls("brownian", kappa=kappa, seed=seed, dq_grid=dq_grid, q_range=q_range)

    def theta(self, q):
        q = np.asarray(q, dtype=float)
        if self.kind == "constant":
            out = np.full(q.shape, self.theta0)
        else:
            out = np.interp(q, self._knot_q, self._knot_th)
        return out if out.ndim else float(out)

    def eta(self, q):
        return np.exp(1j * np.asarray(self.theta(q)))


@dataclass(frozen=True)
class LoewnerFamily:
    """A driving function plus the capacity interval it acts on."""

    q0: float
    q_max: float
    driving: DrivingFunction
    z_samples: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.q_max <= self.q0:
            raise ValueError("q_max must exceed q0")
        r0 = np.exp(self.q0)
        for z in self.z_samples:
            if abs(z) <= r0:
                raise ValueError(f"tracked point {z} does not start outside radius {r0}")

    @property
    def r0(self) -> float:
        return float(np.exp(self.q0))


def default_family(q0=0.0, q_max=0.5, driving=None) -> LoewnerFamily:
    """Family with a ring of tracked points placed off the likely slit path."""
    if driving is None:
        driving = DrivingFunction.constant(0.0)
    r0 = np.exp(q0)
    angles = _RING_ANGLE + 2.0 * np.pi * np.arange(_RING_POINTS) / _RING_POINTS
    pts = tuple(_RING_RADIUS * r0 * np.exp(1j * angles))
    return LoewnerFamily(q0=q0, q_max=q_max, driving=driving, z_samples=pts)


@dataclass
class AdvanceResult:
    """Batch integration outcome: final points, absorption flags and times,
    each point's closest approach to the driving point, each point's substep
    count, and the call's substep count.

    A point's count is the number of substeps it took part in, which does
    not depend on the batch; the call's count is the largest of them.
    """

    w: np.ndarray
    absorbed: np.ndarray
    q_absorbed: np.ndarray
    min_eta_distance: np.ndarray
    point_substeps: np.ndarray
    substeps: int


def _loewner_rhs(w, eta):
    return w * (eta + w) / (eta - w)


def advance_many(w0, q_from, q_to, driving: DrivingFunction) -> AdvanceResult:
    """Integrate the inverse-map ODE point by point, with per-point adaptive substeps.

    Starting points have ``|w| > 1``.  ``q_from`` and ``q_to`` are scalars
    or per-point arrays, so one call can carry each point over its own
    capacity range, forward, backward or of zero length.  A swallowed point
    is reported in ``absorbed`` and ``q_absorbed``, not raised.  Absorption
    fires when a point enters the ``ABSORB_TOL`` ball around the driving
    point, or when a step carries it inside the unit disk (the step law
    ``h ~ |eta - w|`` decrements the distance by a fixed amount per step
    near the singularity, so a swallowed trajectory crosses rather than
    converges); in the first case the reported absorption ``q`` includes the
    asymptotic time-to-contact ``|eta - w|^2 / 4``.

    The active points (range not yet covered, not absorbed) live in compact
    arrays between substeps.  They are gathered from the full arrays, and
    the compact state written back, only when the set changes: when a
    substep's reductions (min ``|eta - w|``, min and max ``|w_new|``, min
    remaining range) show that a point was absorbed, died or finished.  A
    substep's end-stage ``eta`` is the next substep's first stage, because
    the new ``q`` is the same float ``q + h``; the mid and end stages come
    from one ``eta`` call on the concatenated capacities.  Each point sees
    exactly the arithmetic of a loop that gathers every substep, and its
    substep count is added up at those write-backs.  Every point starts on
    the first substep and the active set only shrinks, so the call's count
    is the largest point count: a subset of a call reports what a call
    holding only that subset would.
    """
    w = np.atleast_1d(np.asarray(w0, dtype=complex)).copy()
    npts = len(w)
    q = np.broadcast_to(np.asarray(q_from, dtype=float), (npts,)).copy()
    q_to = np.broadcast_to(np.asarray(q_to, dtype=float), (npts,))
    direction = np.where(q_to >= q, 1.0, -1.0)
    absorbed = np.zeros(npts, dtype=bool)
    q_abs = np.full(npts, np.nan)
    min_dist = np.full(npts, np.inf)
    point_steps = np.zeros(npts, dtype=np.int64)
    steps = 0
    gather = True
    while True:
        if gather:
            idx = np.flatnonzero((np.abs(q_to - q) > 1e-15) & ~absorbed)
            if len(idx) == 0:
                break
            wi, qi, ti, di, md = w[idx], q[idx], q_to[idx], direction[idx], min_dist[idx]
            gathered_at = steps
            eta_i = driving.eta(qi)
            remaining = np.abs(ti - qi)
            gather = False
        dist = np.abs(eta_i - wi)
        np.minimum(md, dist, out=md)
        # each reduction only screens for the exact test below it; the tests
        # are written so that a NaN also falls through to the exact test
        if not dist.min() >= ABSORB_TOL:
            hit = dist < ABSORB_TOL
            if np.any(hit):
                # the survivors redo this substep from a fresh gather, which
                # recomputes the same eta and distance
                w[idx], q[idx], min_dist[idx] = wi, qi, md
                point_steps[idx] += steps - gathered_at
                absorbed[idx[hit]] = True
                q_abs[idx[hit]] = qi[hit] + di[hit] * dist[hit] ** 2 / 4.0
                gather = True
                continue
        h = np.minimum(BASE_STEP * np.minimum(1.0, dist / 4.0), remaining) * di
        half = 0.5 * h
        q_new = qi + h
        eta_stages = driving.eta(np.concatenate([qi + half, q_new]))
        eta_mid, eta_end = eta_stages[:len(idx)], eta_stages[len(idx):]
        k1 = _loewner_rhs(wi, eta_i)
        k2 = _loewner_rhs(wi + half * k1, eta_mid)
        k3 = _loewner_rhs(wi + half * k2, eta_mid)
        k4 = _loewner_rhs(wi + h * k3, eta_end)
        w_new = wi + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        steps += 1
        if steps > _MAX_SUBSTEPS:
            raise IntegrationBreakdownError(f"integration exceeded {_MAX_SUBSTEPS} substeps")
        modulus = np.abs(w_new)
        remaining = np.abs(ti - q_new)
        if modulus.min() >= 1.0 - 1e-6 and modulus.max() < np.inf and remaining.min() > 1e-15:
            wi, qi, eta_i = w_new, q_new, eta_end
            continue
        dead = ~np.isfinite(w_new) | (modulus < 1.0 - 1e-6)
        w[idx] = np.where(dead, wi, w_new)
        q[idx] = np.where(dead, qi, q_new)
        min_dist[idx] = md
        point_steps[idx] += steps - gathered_at
        if np.any(dead):
            absorbed[idx[dead]] = True
            q_abs[idx[dead]] = qi[dead]
            min_dist[idx[dead]] = 0.0
        gather = True
    return AdvanceResult(w=w, absorbed=absorbed, q_absorbed=q_abs, min_eta_distance=min_dist,
                         point_substeps=point_steps, substeps=steps)


def _check_capacities(q, family: LoewnerFamily):
    q = np.asarray(q, dtype=float)
    outside = ~((family.q0 <= q) & (q <= family.q_max + 1e-12))
    if np.any(outside):
        raise ValueError(f"q = {float(q[outside].flat[0])} outside family range "
                         f"[{family.q0}, {family.q_max}]")


def forward_map(w, q, family: LoewnerFamily):
    """Forward map ``z(w, q)`` for scalar or per-point ``q``, in one integration call.

    ``z(w, q0) = exp(q0) * w``; each point is carried backward along its
    characteristic from its own ``q`` down to ``q0`` (zero length at
    ``q = q0``) and then pushed through the initial map.
    """
    _check_capacities(q, family)
    res = advance_many(w, q, family.q0, family.driving)
    if np.any(res.absorbed):
        raise IntegrationBreakdownError("backward characteristic hit the driving point")
    z = family.r0 * res.w
    return complex(z[0]) if np.ndim(w) == 0 else z


def trace_and_track(family: LoewnerFamily, q_grid, snapshot_q=()):
    """Slit tips along ``q_grid`` and the tracked points at each ``snapshot_q``.

    Returns ``(tips, tracked)``.  The tip at each ``q > q0`` is evaluated at
    two small radial offsets from ``eta(q)``, carried backward to ``q0`` and
    Richardson-extrapolated (the offset enters quadratically at a simple
    critical point).  At ``q = q0`` the map is the linear ``z = exp(q0) w``,
    with no critical point, so the tip is ``exp(q0) eta(q0)``.  ``tracked``
    is the :class:`AdvanceResult` of one copy of ``w = z / exp(q0)`` per
    snapshot and tracked point (snapshot-major), carried forward from ``q0``;
    its ``substeps`` is the copies' own count.  The tip starts and the
    tracked copies share one integration call, and each gets the result a
    call of its own would give.
    """
    q_grid = np.atleast_1d(np.asarray(q_grid, dtype=float))
    snapshot_q = np.atleast_1d(np.asarray(snapshot_q, dtype=float))
    _check_capacities(np.concatenate([q_grid, snapshot_q]), family)
    eta = family.driving.eta(q_grid)
    w0 = np.asarray(family.z_samples, dtype=complex) / family.r0
    n_tips, n_copies = 2 * len(q_grid), len(snapshot_q) * len(w0)
    res = advance_many(
        np.concatenate([eta * (1.0 + TIP_OFFSET), eta * (1.0 + 0.5 * TIP_OFFSET),
                        np.tile(w0, len(snapshot_q))]),
        np.concatenate([np.tile(q_grid, 2), np.full(n_copies, family.q0)]),
        np.concatenate([np.full(n_tips, family.q0), np.repeat(snapshot_q, len(w0))]),
        family.driving)
    if np.any(res.absorbed[:n_tips]):
        raise IntegrationBreakdownError("backward characteristic hit the driving point")
    t1, t2 = np.split(family.r0 * res.w[:n_tips], 2)
    # divide the real and imaginary parts by 3: numpy's complex division
    # multiplies by 1/3 instead, which rounds differently from a scalar tip
    tips = ((4.0 * t2 - t1).view(float) / 3.0).view(complex)
    counts = res.point_substeps[n_tips:]
    tracked = AdvanceResult(w=res.w[n_tips:], absorbed=res.absorbed[n_tips:],
                            q_absorbed=res.q_absorbed[n_tips:],
                            min_eta_distance=res.min_eta_distance[n_tips:],
                            point_substeps=counts, substeps=int(counts.max(initial=0)))
    return np.where(q_grid == family.q0, family.r0 * eta, tips), tracked


def slit_trace(family: LoewnerFamily, q_grid) -> np.ndarray:
    """Tip positions along the run, the images of the driving point:
    :func:`trace_and_track` with no snapshots."""
    return trace_and_track(family, q_grid)[0]


@dataclass(frozen=True)
class EtaEstimate:
    eta: complex
    spread: float


def extract_eta(family: LoewnerFamily, q: float) -> EtaEstimate:
    """Recover the driving value at ``q`` from the tracked exterior points.

    For each surviving tracked point, ``d log w / dq`` is estimated by a
    central difference of step ``ETA_DQ`` and inverted through

        eta = -w (1 + d log w/dq) / (1 - d log w/dq),

    which must come out the same for every point; the spread over points is
    returned as a consistency diagnostic.
    """
    dq = ETA_DQ
    if not family.z_samples:
        raise InsufficientSamplesError("family tracks no points")
    if not (family.q0 < q - dq and q + dq <= family.q_max + 1e-12):
        raise ValueError("q +/- dq must lie inside the family range")
    # three chained integrations q0 -> q - dq -> q -> q + dq, so the
    # difference quotient compares points that share their whole history up
    # to q - dq; a swallowed point stays where it was absorbed
    w = np.asarray(family.z_samples, dtype=complex) / family.r0
    alive, q_from, legs = np.ones(len(w), dtype=bool), family.q0, []
    for q_to in (q - dq, q, q + dq):
        res = advance_many(w, q_from, np.where(alive, q_to, q_from), family.driving)
        w, alive, q_from = res.w, alive & ~res.absorbed, q_to
        legs.append(w)
    if np.count_nonzero(alive) < 2:
        raise InsufficientSamplesError(
            f"only {np.count_nonzero(alive)} tracked points survive at q = {q}"
        )
    lo, mid, hi = (leg[alive] for leg in legs)
    dlogw = np.log(hi / lo) / (2.0 * dq)
    eta_pts = -mid * (1.0 + dlogw) / (1.0 - dlogw)
    eta_hat = complex(np.mean(eta_pts))
    return EtaEstimate(eta=eta_hat, spread=float(np.max(np.abs(eta_pts - eta_hat))))


def fitted_radius(family: LoewnerFamily, q: float) -> float:
    """Leading coefficient of ``z(., q)`` from two far-field evaluations."""
    v1, v2 = forward_map(np.array(_FAR_FIELD, dtype=complex), q, family)
    r = (v2 - v1) / (_FAR_FIELD[1] - _FAR_FIELD[0])
    return float(r.real)


def boundary_bracket(family: LoewnerFamily, q: float):
    """Poisson bracket ``{z, zbar}`` of the family on the unit circle.

    The capacity is used as the t0 axis (``dq/dt0 = 1``).  Boundary nodes
    whose backward characteristics pass within ``_BRACKET_SAFETY`` of the
    driving point are masked out: those are the slit points, where the
    history of the parametrization runs into the tip singularity.  The valid
    set is then eroded by ``_BRACKET_ERODE`` grid slots, because
    finite-difference stencils adjacent to the slit arc straddle the critical
    trajectory and produce junk derivatives.  Returns ``(bracket values,
    valid mask)`` over the ``_BRACKET_NODES``-point grid; masked entries are NaN.
    """
    dt0, dtheta, n = _BRACKET_DT0, _BRACKET_DTHETA, _BRACKET_NODES
    if not (family.q0 < q - dt0 and q + dt0 <= family.q_max + 1e-12):
        raise ValueError("q +/- dt0 must lie inside the family range")
    theta = 2.0 * np.pi * np.arange(n) / n
    # the four stencils (theta +/- dtheta at q, theta at q +/- dt0) as 4n points
    starts = np.exp(1j * np.concatenate([theta + dtheta, theta - dtheta, theta, theta]))
    res = advance_many(starts, np.repeat([q, q, q + dt0, q - dt0], n), family.q0,
                       family.driving)
    z_tp, z_tm, z_qp, z_qm = (family.r0 * res.w).reshape(4, n)
    valid = ~(res.absorbed | (res.min_eta_distance < _BRACKET_SAFETY)).reshape(4, n).any(axis=0)
    for _ in range(_BRACKET_ERODE):
        valid = valid & np.roll(valid, 1) & np.roll(valid, -1)
    dz_dlogw = -1j * (z_tp - z_tm) / (2.0 * dtheta)
    dz_dt = (z_qp - z_qm) / (2.0 * dt0)
    dzbar_dlogw = -1j * (np.conj(z_tp) - np.conj(z_tm)) / (2.0 * dtheta)
    dzbar_dt = (np.conj(z_qp) - np.conj(z_qm)) / (2.0 * dt0)
    bracket = dz_dlogw * dzbar_dt - dz_dt * dzbar_dlogw
    bracket[~valid] = np.nan
    return bracket, valid
