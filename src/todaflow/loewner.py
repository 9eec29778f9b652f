"""Radial Loewner dynamics: slit growth from a circle.

The inverse map ``w(z, q)`` of a growing slit domain obeys

    dw/dq = w (eta(q) + w) / (eta(q) - w),   |eta(q)| = 1,

with ``q = log r`` the capacity time.  A family starts from the exterior of
the disk of radius ``exp(q0)`` (where ``z = exp(q0) * w``) and grows a slit
whose tip is the image of the driving point ``eta(q)``.  Forward maps are
recovered by integrating the same ODE backward along characteristics.

One routine, :func:`advance_many`, integrates, exactly: every driving is
linear in ``theta`` between knots, and on a piece of slope ``kappa`` the point
``u = w exp(-i theta(q))`` obeys ``du/dq = u (a + b u) / (1 - u)``, ``a, b =
1 -+ i kappa``, so ``G(u) = log(u) / a - 2 log(a + b u) / (a b)`` grows by
exactly ``q - q_a`` (Kager, Nienhuis & Kadanoff, J. Stat. Phys. 115, 2004).
Ranges are cut at the knots and into sub-steps of at most ``BASE_STEP``, each
one vectorized piece solve: a predictor, then Newton on ``G`` in principal
logs of ratios, which keeps the branches continuous.  ``G'(1) = 0`` and
``G''(1) = -1/2``: a point is absorbed when ``G(u)`` reaches ``G(1)``, and a
tip leaves the driving point backward as ``u = 1 + 2 sqrt(h) + ...``.  Points
have their own capacity ranges and share no state: results ignore batching.

The forward map itself has Laurent modes, ``z = exp(q) (w + sum_n a_n
w^-n)``, and on each piece they obey a triangular linear ODE;
:func:`slit_modes` solves it exactly, with no points to carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientSamplesError, IntegrationBreakdownError

ABSORB_TOL = 1e-9  # a start this close to eta is absorbed forward, a tip start backward
BASE_STEP = 0.05  # the longest sub-step in q, over max(1, |theta'|) on a piece
ETA_DQ = 5e-4  # extract_eta's central-difference step in q
_NEWTON_STEPS, _NEAR = 3, 4.0  # Newton cap; normal-form predictor where |u - 1|^2 < _NEAR |dq|
# a solve is kept if its last Newton step is below _SETTLED |u - 1| + _ROUNDOFF
# |du/dq|; a sub-step refused down to _MIN_STEP is a breakdown
_SETTLED, _ROUNDOFF, _MIN_STEP = 1e-8, 1e-14, 1e-12
_SERIES_EXACT = 1e-4  # |S| (1 + |kappa|) below which the normal-form series is exact
_TAU_TOL = 1e-14  # |Im (G(1) - G(u))| below which u reaches the driving point
# default_family's ring: tracked points, first angle, radius over the initial one
_RING_POINTS, _RING_ANGLE, _RING_RADIUS = 12, 0.37, 3.0
_TAYLOR_DEGREE = 16  # slit_modes' matrix exponential series, at 1-norm 1/2
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
            self._knot_q = self._knot_th = np.empty(0)
        elif kind == "piecewise_linear":
            # on q alone, and stably, so a repeated q keeps its jump's direction
            knots = sorted(((float(q), float(th)) for q, th in knots), key=lambda knot: knot[0])
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
        self._jumps = bool(np.any(np.diff(self._knot_q) == 0.0))

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

    def _eta_on(self, j, q):
        """``eta`` at ``q`` as piece ``j`` (see :meth:`_slopes`) sees it: :meth:`eta`,
        except at a repeated knot, a jump, where :meth:`eta` is the jump's last
        value and the piece that ends there keeps the first."""
        if not self._jumps:
            return self.eta(q)
        k = np.minimum(j, len(self._knot_q) - 1)
        at_end = (j < len(self._knot_q)) & (q == self._knot_q[k])
        return np.exp(1j * np.where(at_end, self._knot_th[k], self.theta(q)))

    def _slopes(self):
        """``theta'`` on each piece: piece ``j`` lies between knots ``j - 1`` and
        ``j``, and the two unbounded ends are flat.  A repeated knot, a jump,
        gives a zero-length piece of infinite or undefined slope."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.concatenate([[0.0], np.diff(self._knot_th) / np.diff(self._knot_q), [0.0]])


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
    """Batch outcome: final points, absorption flags and times, each point's
    closest sampled approach to the driving point, each point's count of
    piece solves (independent of the batch), and the largest such count."""

    w: np.ndarray
    absorbed: np.ndarray
    q_absorbed: np.ndarray
    min_eta_distance: np.ndarray
    point_substeps: np.ndarray
    substeps: int


def _solve_piece(u0, dq, kappa, coef, dist):
    """``(u, tau, good)`` of carrying ``u0`` by ``dq``; ``coef`` is ``a, b, 1/a, 2/(ab)``.

    Newton on ``G`` from one RK4 step, or near the singularity from the normal
    form ``S^2 = 4 (G(1) - G(u))`` (exactly linear in ``q``, ``u - 1`` a series
    in ``S``).  ``tau = G(1) - G(u0)`` is ``None`` if no point can reach
    ``u = 1`` within its sub-step; ``good`` marks settled solves."""
    a, b, inv_a, c = coef
    base = a + b * u0

    def rhs(u, a=a, b=b):
        return u * (a + b * u) / (1.0 - u)

    with np.errstate(divide="ignore", invalid="ignore"):
        k1 = rhs(u0)
        k2 = rhs(u0 + 0.5 * dq * k1)
        k3 = rhs(u0 + 0.5 * dq * k2)
        guess = u0 + dq * (k1 + 2.0 * k2 + 2.0 * k3 + rhs(u0 + dq * k3)) / 6.0
        tau, reach = None, dist * dist < 2.0 * _NEAR * np.abs(dq) + ABSORB_TOL ** 2
        if reach.any():
            tau = c * np.log(0.5 * base) - inv_a * np.log(u0)
            s0 = (u0 - 1.0) * np.sqrt(4.0 * tau / (u0 - 1.0) ** 2)  # the branch S ~ u - 1
            s1 = np.where(u0 == 1.0, 2.0 * np.sqrt(-dq + 0j), s0 * np.sqrt(1.0 - dq / tau))
            series = 1.0 + s1 * (1.0 + s1 * ((3.0 + 1j * kappa) / 6.0 + s1 * (
                3.0 / 16.0 + 1j * kappa / 6.0 - kappa * kappa / 144.0)))
            near = (dist * dist < _NEAR * np.abs(dq)) & (dist * (1.0 + np.abs(kappa)) < 1.0)
            guess = np.where(near, series, guess)

        def settled(u, step, slope):
            return np.abs(step) <= _SETTLED * np.abs(u - 1.0) + _ROUNDOFF * np.abs(slope)

        def newton(u, u0, a, b, inv_a, c, base, dq):
            slope = rhs(u, a, b)
            step = (inv_a * np.log(u / u0) - c * np.log((a + b * u) / base) - dq) * slope
            return u - step, step, slope

        args = (u0, a, b, inv_a, c, base, dq)  # after one step only unsettled points go on
        u, step, slope = newton(guess, *args)
        for _ in range(_NEWTON_STEPS - 1):
            todo = np.flatnonzero(~settled(u, step, slope))
            if len(todo) == 0:
                break
            u[todo], step[todo], slope[todo] = newton(u[todo], *(x[todo] for x in args))
        good = settled(u, step, slope)
        if tau is not None:
            # so close to 1 the series is exact to roundoff, and G cannot tell
            exact = reach & (np.abs(s1) * (1.0 + np.abs(kappa)) < _SERIES_EXACT)
            u, good, tau = np.where(exact, guess, u), good | exact, np.where(reach, tau, np.inf)
    still = base == 0  # the fixed point -a/b
    return np.where(still, u0, u), tau, good | still


def advance_many(w0, q_from, q_to, driving: DrivingFunction) -> AdvanceResult:
    """Carry points with ``|w| > 1`` from ``q_from`` to ``q_to`` (scalars or per point).

    A start within ``ABSORB_TOL`` of the driving point is absorbed forward
    (at ``q + |eta - w|^2 / 4``) and a tip start backward; a point whose ``G``
    reaches ``G(1)`` is absorbed at ``eta(q_absorbed)``, reported, not raised.
    ``min_eta_distance`` is sampled at every sub-step end.  A solve that does
    not settle is retried on a quarter of its sub-step.  Active points live in
    compact arrays, gathered again when one finishes or is absorbed."""
    w = np.atleast_1d(np.asarray(w0, dtype=complex)).copy()
    npts = len(w)
    q = np.broadcast_to(np.asarray(q_from, dtype=float), (npts,)).copy()
    q_to = np.broadcast_to(np.asarray(q_to, dtype=float), (npts,))
    direction = np.where(q_to >= q, 1.0, -1.0)
    absorbed, q_abs = np.zeros(npts, dtype=bool), np.full(npts, np.nan)
    min_dist, limit = np.full(npts, np.inf), np.full(npts, BASE_STEP)
    point_steps = np.zeros(npts, dtype=np.int64)
    knots, kappa = driving._knot_q, driving._slopes()
    with np.errstate(divide="ignore", invalid="ignore"):  # a repeated knot is a jump
        a, b = 1.0 - 1j * kappa, 1.0 + 1j * kappa
        coef = np.stack([a, b, 1.0 / a, 2.0 / (a * b)])
    piece_step = BASE_STEP / np.maximum(1.0, np.abs(kappa))
    lower, upper = np.append(-np.inf, knots), np.append(knots, np.inf)
    steps, gather = 0, True
    while True:
        if gather:
            idx = np.flatnonzero((np.abs(q_to - q) > 1e-15) & ~absorbed)
            if len(idx) == 0:
                break
            wi, qi, ti, di, md = w[idx], q[idx], q_to[idx], direction[idx], min_dist[idx]
            li, forward, remaining = limit[idx], di > 0, np.abs(ti - qi)
            gathered_at, eta_i, gather = steps, None, False
        j = np.where(forward, np.searchsorted(knots, qi, "right"),
                     np.searchsorted(knots, qi, "left"))
        step = np.minimum(np.minimum(li, piece_step[j]),
                          np.abs(np.where(forward, upper[j], lower[j]) - qi))
        q_new = np.where(step < remaining, qi + di * step, ti)
        dq = q_new - qi
        # both ends in the piece's own frame: past a jump the next piece starts
        # in another frame than the last one ended in
        if eta_i is None or driving._jumps:
            eta_i = driving._eta_on(j, qi)
        eta_end = driving._eta_on(j, q_new)
        u0 = wi * np.conj(eta_i)
        dist = np.abs(u0 - 1.0)
        np.minimum(md, dist, out=md)
        ball = dist < ABSORB_TOL  # absorbed forward, a tip start backward
        u0 = np.where(ball, 1.0 + 0j, u0) if ball.any() else u0
        u, tau, good = _solve_piece(u0, dq, kappa[j], coef[:, j], dist)
        steps += 1
        hit = ball & forward
        if tau is not None:
            hit |= (tau.real / dq > 0.0) & (tau.real / dq <= 1.0) & (np.abs(tau.imag) <= _TAU_TOL)
        good |= hit
        if not good.all():
            q_new, eta_end = np.where(good, q_new, qi), np.where(good, eta_end, eta_i)
            if not np.all(step[~good] >= 4.0 * _MIN_STEP):
                raise IntegrationBreakdownError(f"no piece solve settles at q = {qi[~good][0]}")
        li = np.where(good, np.minimum(2.0 * li, BASE_STEP), 0.25 * step)
        w_new = np.where(good, u * eta_end, wi)
        remaining = np.abs(ti - q_new)
        if remaining.min() > 1e-15 and not hit.any():
            wi, qi, eta_i = w_new, q_new, eta_end
            continue
        np.minimum(md, np.abs(w_new * np.conj(eta_end) - 1.0), out=md)
        w[idx], q[idx], min_dist[idx], limit[idx] = w_new, q_new, md, li
        point_steps[idx] += steps - gathered_at
        if hit.any():
            absorbed[idx[hit]] = True
            q_abs[idx[hit]] = qi[hit] + np.where(ball, dist ** 2 / 4.0, tau.real)[hit]
            w[idx[hit]] = np.where(ball, wi, driving.eta(q_abs[idx]))[hit]
            min_dist[idx[hit]] = np.where(ball, md, 0.0)[hit]
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
    """Forward map ``z(w, q)`` for scalar or per-point ``q``, in one integration call:
    each point is carried back from its own ``q`` to ``q0``, where ``z = exp(q0) w``."""
    _check_capacities(q, family)
    res = advance_many(w, q, family.q0, family.driving)
    if np.any(res.absorbed):
        raise IntegrationBreakdownError("backward characteristic hit the driving point")
    z = family.r0 * res.w
    return complex(z[0]) if np.ndim(w) == 0 else z


def trace_and_track(family: LoewnerFamily, q_grid, snapshot_q=()):
    """Slit tips along ``q_grid`` and the tracked points at each ``snapshot_q``.

    Returns ``(tips, tracked)``: the forward map at ``eta(q)`` itself, from
    the singular start (at a jump of ``theta``, ``eta`` from below: the tip of
    the branch the jump ends), and the :class:`AdvanceResult` (with the copies' own
    ``substeps``) of one copy of ``w = z / exp(q0)`` per snapshot and tracked
    point, snapshot-major.  Both share one call, each part getting what a
    call of its own would give."""
    q_grid = np.atleast_1d(np.asarray(q_grid, dtype=float))
    snapshot_q = np.atleast_1d(np.asarray(snapshot_q, dtype=float))
    _check_capacities(np.concatenate([q_grid, snapshot_q]), family)
    w0 = np.asarray(family.z_samples, dtype=complex) / family.r0
    n_tips, n_copies = len(q_grid), len(snapshot_q) * len(w0)
    driving = family.driving
    eta = driving._eta_on(np.searchsorted(driving._knot_q, q_grid, "left"), q_grid)
    res = advance_many(
        np.concatenate([eta, np.tile(w0, len(snapshot_q))]),
        np.concatenate([q_grid, np.full(n_copies, family.q0)]),
        np.concatenate([np.full(n_tips, family.q0), np.repeat(snapshot_q, len(w0))]),
        driving)
    if np.any(res.absorbed[:n_tips]):
        raise IntegrationBreakdownError("backward characteristic hit the driving point")
    parts = (res.w, res.absorbed, res.q_absorbed, res.min_eta_distance, res.point_substeps)
    tracked = AdvanceResult(*(part[n_tips:] for part in parts),
                            int(res.point_substeps[n_tips:].max(initial=0)))
    return family.r0 * res.w[:n_tips], tracked


def slit_trace(family: LoewnerFamily, q_grid) -> np.ndarray:
    """Tip positions along the run, the images of the driving point:
    :func:`trace_and_track` with no snapshots."""
    return trace_and_track(family, q_grid)[0]


def _expm(a):
    """``exp`` of each matrix in the stack ``a``: the degree-``_TAYLOR_DEGREE``
    Taylor series of ``a / 2^s``, squared ``s`` times, where ``s`` is the least
    that brings every matrix to a 1-norm of 1/2 (series remainder below 1e-19)."""
    norm = float(np.max(np.abs(a).sum(axis=-2), initial=0.0))
    s = max(0, int(np.ceil(np.log2(2.0 * norm)))) if norm > 0.0 else 0
    a = a / 2.0 ** s
    term = out = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape)
    for i in range(1, _TAYLOR_DEGREE + 1):
        term = np.einsum("...ij,...jk->...ik", term, a) / i
        out = out + term
    for _ in range(s):
        out = np.einsum("...ij,...jk->...ik", out, out)
    return out


def slit_modes(family: LoewnerFamily, order: int):
    """The family's Laurent modes as a function of ``q``, exact on every piece.

    Write ``z(w, q) = exp(q) (w + sum_n a_n w^-n)``.  The Loewner equation
    ``dz/dq = w z' (w + eta) / (w - eta)`` makes the rotated modes
    ``alpha_n = a_n eta^-(n+1)`` obey the linear ODE ``alpha' = M alpha + 2``
    on a piece of slope ``kappa``, where ``M`` is lower triangular and
    constant: ``M[n, n] = -(n + 1)(1 + i kappa)`` and ``M[n, j] = -2 j`` for
    ``1 <= j < n``.  A piece of length ``h`` is therefore one ``exp(A h)`` of
    the augmented matrix ``A = [[M, 2], [0, 0]]`` acting on ``(alpha, 1)``.
    The exponential is taken by scaling and squaring, not in ``M``'s
    eigenbasis: that basis is exact in theory, but its sums of exponentials
    cancel, and at 16 modes under constant driving they lose eight digits.

    ``alpha = 0`` at ``q0``; it is carried through the knots once, and
    continuously (a jump in ``theta`` turns it, ``a`` is kept).  The returned
    callable maps ``q`` (any shape, in the family's range) to ``a_0 ..
    a_{order-1}`` along a new last axis, each ``q`` one exponential from the
    last knot below it.  Under constant driving ``alpha`` tends to the fixed
    point ``-M^-1 2 = (2, 1, 0, ...)``, the ray map.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    driving, q0 = family.driving, family.q0
    knots, th = driving._knot_q, driving._knot_th
    inner = np.unique(knots[(knots > q0) & (knots < family.q_max)])
    starts = np.concatenate([[q0], inner])
    kappa = driving._slopes()[np.searchsorted(knots, starts, "right")]
    powers = np.arange(1, order + 1)
    aug = np.zeros((len(starts), order + 1, order + 1), dtype=complex)
    aug[:, :order, order] = 2.0
    aug[:, :order, :order] = np.tril(np.broadcast_to(-2.0 * np.arange(order), (order, order)), -1)
    aug[:, powers - 1, powers - 1] = -powers * (1.0 + 1j * kappa[:, None])
    # theta's jump at each inner knot, 0.0 exactly where it is continuous
    jump = th[np.searchsorted(knots, inner, "right") - 1] - th[np.searchsorted(knots, inner, "left")]
    steps = _expm(aug[:-1] * np.diff(starts)[:, None, None])
    state = np.zeros((len(starts), order + 1), dtype=complex)
    state[0, order] = 1.0
    for j in range(len(inner)):
        state[j + 1] = steps[j] @ state[j]
        state[j + 1, :order] *= np.exp(-1j * jump[j] * powers)

    def modes(q):
        q = np.asarray(q, dtype=float)
        j = np.maximum(np.searchsorted(starts, q, "right") - 1, 0)
        step = _expm(aug[j] * (q - starts[j])[..., None, None])
        alpha = np.einsum("...nm,...m->...n", step, state[j])[..., :order]
        return alpha * driving.eta(q)[..., None] ** powers

    return modes


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


def boundary_bracket(family: LoewnerFamily, q: float):
    """Poisson bracket ``{z, zbar}`` of the family on the unit circle.

    The capacity is the t0 axis (``dq/dt0 = 1``).  Nodes whose backward
    characteristics are absorbed or sampled within ``_BRACKET_SAFETY`` of the
    driving point are the slit's, and are masked out; the valid set is then
    eroded by ``_BRACKET_ERODE`` slots, since stencils beside the slit arc
    straddle the critical trajectory.  Returns ``(bracket values, valid
    mask)`` over the ``_BRACKET_NODES``-point grid; masked entries are NaN.
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
