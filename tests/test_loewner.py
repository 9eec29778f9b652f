import numpy as np
import pytest
from numpy.testing import assert_allclose

from todaflow import laurent, loewner
from todaflow.laurent import LaurentMap
from todaflow.errors import InsufficientSamplesError, IntegrationBreakdownError

CONST = loewner.DrivingFunction.constant(0.0)


def exact_absorption_q(w0):
    """Capacity at which a real point w0 > 1 meets the eta = 1 driving point.

    Separating dw/dq = w(1+w)/(1-w) gives q(w) = log w - 2 log(1+w) + const,
    so the point arrives after log((1 + w0)^2 / (4 w0)).
    """
    return np.log((1.0 + w0) ** 2 / (4.0 * w0))


def test_fixed_point_minus_eta():
    res = loewner.advance_many(-1.0 + 0j, 0.0, 0.3, CONST)
    assert not res.absorbed[0]
    assert_allclose(res.w[0], -1.0, atol=1e-12)


def test_euler_microstep_consistency():
    dq = 1e-6
    res = loewner.advance_many(2.0 + 0j, 0.0, dq, CONST)
    assert abs(res.w[0] - (2.0 - 6e-6)) < 5e-12  # matches one Euler step to O(dq^2)


def test_real_axis_preserved():
    res = loewner.advance_many(6.0 + 0j, 0.0, 0.4, CONST)
    assert not res.absorbed[0]
    assert res.w[0].imag == 0.0
    assert res.w[0].real > 1.0


def test_absorption_time_matches_closed_form():
    # G(u) = log u - 2 log(1 + u) reaches G(1) exactly at the closed-form time
    w0 = 1.5
    res = loewner.advance_many(w0 + 0j, 0.0, 0.2, CONST)
    assert res.absorbed[0] and res.w[0] == 1.0
    assert exact_absorption_q(w0) == pytest.approx(0.0408219945, abs=1e-10)
    assert abs(res.q_absorbed[0] - exact_absorption_q(w0)) < 1e-15


def test_advance_many_reports_per_point():
    res = loewner.advance_many(np.array([1.5 + 0j, 2.0 + 2.0j]), 0.0, 0.2, CONST)
    assert res.absorbed.tolist() == [True, False]
    assert np.isfinite(res.q_absorbed[0])
    assert abs(res.w[1]) > 1.0


def test_forward_map_initial_condition():
    fam = loewner.default_family(0.2, 0.7, CONST)
    z = loewner.forward_map(2.0 + 1.0j, 0.2, fam)
    assert_allclose(z, np.exp(0.2) * (2.0 + 1.0j), atol=1e-12)


def test_forward_map_real_symmetry():
    fam = loewner.default_family(0.0, 0.5, CONST)
    z = loewner.forward_map(1.8 + 0j, 0.4, fam)
    assert z.imag == 0.0


def test_capacity_law():
    fam = loewner.default_family(0.0, 0.5, CONST)
    for q in (0.1, 0.3, 0.5):
        r = loewner.fitted_radius(fam, q)
        assert abs(np.log(r) - q) < 1e-5


def test_slit_trace_constant_driving():
    fam = loewner.default_family(0.0, 0.5, CONST)
    qs = np.linspace(0.0, 0.5, 9)
    tips = loewner.slit_trace(fam, qs)
    assert abs(tips[0] - 1.0) < 1e-4  # starts on the unit circle at angle 0
    assert np.max(np.abs(tips.imag)) < 1e-9
    assert np.all(np.diff(tips.real) > 0)


def test_slit_trace_starts_at_driving_angle():
    drv = loewner.DrivingFunction.constant(0.9)
    fam = loewner.default_family(0.1, 0.4, drv)
    tip0 = loewner.slit_trace(fam, [0.1])[0]
    assert_allclose(np.angle(tip0), 0.9, atol=1e-6)
    assert_allclose(abs(tip0), np.exp(0.1), atol=1e-4)


def test_brownian_zero_variance_reduces_to_constant():
    drv = loewner.DrivingFunction.brownian(0.0, seed=9, dq_grid=1e-3, q_range=(0.0, 0.6))
    fam0 = loewner.default_family(0.0, 0.5, CONST)
    famb = loewner.default_family(0.0, 0.5, drv)
    qs = np.linspace(0.0, 0.5, 6)
    assert_allclose(loewner.slit_trace(famb, qs), loewner.slit_trace(fam0, qs), atol=1e-14)


def test_brownian_reproducible_from_seed():
    a = loewner.DrivingFunction.brownian(1.5, seed=4, dq_grid=1e-3, q_range=(0.0, 1.0))
    b = loewner.DrivingFunction.brownian(1.5, seed=4, dq_grid=1e-3, q_range=(0.0, 1.0))
    qs = np.linspace(0.0, 1.0, 37)
    assert np.array_equal(a.theta(qs), b.theta(qs))
    c = loewner.DrivingFunction.brownian(1.5, seed=5, dq_grid=1e-3, q_range=(0.0, 1.0))
    assert not np.array_equal(a.theta(qs), c.theta(qs))


def test_extract_eta_constant_and_rotating():
    fam = loewner.default_family(0.0, 0.5, CONST)
    est = loewner.extract_eta(fam, 0.25)
    assert abs(est.eta - 1.0) < 1e-4
    assert est.spread < 1e-5

    rot = loewner.DrivingFunction.piecewise_linear([(0.0, 0.0), (1.0, 1.0)])
    fam2 = loewner.default_family(0.0, 0.5, rot)
    est2 = loewner.extract_eta(fam2, 0.25)
    assert abs(est2.eta - np.exp(0.25j)) < 1e-4
    assert abs(abs(est2.eta) - 1.0) < 1e-6


def test_extract_eta_needs_survivors():
    # both tracked points sit on the slit path and get swallowed
    fam = loewner.LoewnerFamily(0.0, 0.5, CONST, z_samples=(1.2 + 0j, 1.3 + 0j))
    with pytest.raises(InsufficientSamplesError):
        loewner.extract_eta(fam, 0.4)


def test_extract_eta_skips_swallowed_points():
    # the two points on the slit's ray are swallowed before q - dq; the
    # estimate is the one the survivors alone give
    survivors = (2.0 + 2.0j, -1.7 + 0.8j, 0.5 - 3.0j)
    fam = loewner.LoewnerFamily(0.0, 0.5, CONST, z_samples=(1.2 + 0j, *survivors, 1.3 + 0j))
    alone = loewner.LoewnerFamily(0.0, 0.5, CONST, z_samples=survivors)
    assert loewner.extract_eta(fam, 0.4) == loewner.extract_eta(alone, 0.4)


def test_tracked_points_never_collide():
    fam = loewner.default_family(0.0, 0.5, CONST)
    w0 = np.asarray(fam.z_samples, dtype=complex) / fam.r0
    res = loewner.advance_many(w0, 0.0, 0.5, CONST)
    alive = res.w[~res.absorbed]
    dist = np.abs(alive[:, None] - alive[None, :])
    np.fill_diagonal(dist, np.inf)
    assert dist.min() > 1e-8


def test_integrator_convergence_order():
    # a point caught beside the tip (at the attracting fixed point -a/b of
    # the fast pieces) winds once around the slit while the driving turns by
    # 8 rad; the reference RK4 loop closes in on the exact flow as h^4, so
    # the gap shrinks about 16-fold per halving of h
    drv = loewner.DrivingFunction.piecewise_linear([(0.0, 0.0), (0.1, 0.3), (0.4, 8.0)])
    w0 = 1.2 + 0.05j
    qs = np.linspace(0.0, 0.4, 401)
    path = loewner.advance_many(np.full(len(qs), w0), 0.0, qs, drv).w
    turns = np.unwrap(np.angle(path)) / (2.0 * np.pi)
    assert turns[-1] - turns[0] > 1.0
    end = path[-1]
    gaps = [abs(integrate_reference(w0, 0.0, 0.4, drv, h)[0][0] - end) for h in (8e-3, 4e-3, 2e-3)]
    assert gaps[0] / gaps[1] == pytest.approx(16.0, rel=0.35)
    assert gaps[1] / gaps[2] == pytest.approx(16.0, rel=0.35)


def test_boundary_bracket_vanishes_for_slit_families():
    for drv in (CONST, loewner.DrivingFunction.piecewise_linear([(0.0, 0.0), (1.0, 1.0)])):
        fam = loewner.LoewnerFamily(0.0, 0.5, drv)
        bracket, valid = loewner.boundary_bracket(fam, 0.25)
        assert np.count_nonzero(valid) > 40
        assert np.max(np.abs(bracket[valid])) < 1e-3


def test_family_validation():
    with pytest.raises(ValueError):
        loewner.LoewnerFamily(0.5, 0.2, CONST)
    with pytest.raises(ValueError):
        loewner.LoewnerFamily(0.0, 0.5, CONST, z_samples=(0.5 + 0j,))


def _one_point(w, q_from, q_to, driving):
    res = loewner.advance_many(w, q_from, q_to, driving)
    return res.w[0], res.absorbed[0], res.q_absorbed[0], res.min_eta_distance[0]


def test_per_point_ranges_match_single_point_calls():
    # forward, backward and zero-length intervals in one batch, plus a point
    # swallowed on its way forward
    drv = loewner.DrivingFunction.piecewise_linear([(0.0, 0.0), (0.2, 0.0), (1.0, 1.0)])
    w0 = np.array([2.0 + 1.0j, -1.5 + 0.5j, 3.0j, 1.8 - 1.8j, 2.5 + 0j, 1.5 + 0j])
    q_from = np.array([0.0, 0.3, 0.1, 0.2, 0.25, 0.0])
    q_to = np.array([0.3, 0.0, 0.1, 0.45, 0.25, 0.4])
    batch = loewner.advance_many(w0, q_from, q_to, drv)
    assert batch.absorbed.tolist() == [False] * 5 + [True]
    assert batch.w[2] == w0[2] and batch.w[4] == w0[4]
    for i in range(len(w0)):
        w, absorbed, q_abs, min_dist = _one_point(w0[i], q_from[i], q_to[i], drv)
        assert abs(batch.w[i] - w) <= 1e-15
        assert batch.absorbed[i] == absorbed
        assert_allclose(batch.q_absorbed[i], q_abs, rtol=0, atol=1e-15)
        assert_allclose(batch.min_eta_distance[i], min_dist, rtol=0, atol=1e-15)


def test_absorbed_point_leaves_its_neighbours_alone():
    others = np.array([2.0 + 2.0j, -1.7 + 0.8j, 0.5 - 3.0j])
    alone = loewner.advance_many(others, 0.0, 0.3, CONST)
    mixed = loewner.advance_many(np.insert(others, 1, 1.5 + 0j), 0.0, 0.3, CONST)
    assert mixed.absorbed.tolist() == [False, True, False, False]
    keep = [0, 2, 3]
    assert np.array_equal(mixed.w[keep], alone.w)
    assert np.array_equal(mixed.min_eta_distance[keep], alone.min_eta_distance)


def test_advance_many_takes_per_point_end_capacities():
    w0 = np.array([2.0 + 2.0j, -1.7 + 0.8j])
    res = loewner.advance_many(np.tile(w0, 2), 0.0, np.repeat([0.1, 0.3], 2), CONST)
    assert np.array_equal(res.w[:2], loewner.advance_many(w0, 0.0, 0.1, CONST).w)
    assert np.array_equal(res.w[2:], loewner.advance_many(w0, 0.0, 0.3, CONST).w)


@pytest.mark.parametrize("driving", [
    CONST,
    loewner.DrivingFunction.piecewise_linear([(0.0, 0.3), (0.15, -0.2), (0.3, 0.4)]),
    loewner.DrivingFunction.brownian(0.5, seed=3, dq_grid=1e-3, q_range=(0.0, 0.3)),
], ids=["constant", "piecewise_linear", "brownian"])
def test_slit_trace_matches_per_point_forward_map(driving):
    # each tip is the forward map at the driving point itself, from the
    # singular start
    fam = loewner.LoewnerFamily(0.0, 0.3, driving)
    qs = np.linspace(0.0, 0.3, 64)
    ref = [loewner.forward_map(driving.eta(q), q, fam) for q in qs]
    assert np.array_equal(loewner.slit_trace(fam, qs), np.array(ref))


def test_extract_eta_matches_chained_integrations():
    # on a rough driving the three copies must follow one step sequence, as
    # three chained integrations q0 -> q - dq -> q -> q + dq do
    drv = loewner.DrivingFunction.brownian(0.5, seed=1, dq_grid=1e-3, q_range=(0.0, 0.5))
    fam = loewner.default_family(0.0, 0.5, drv)
    q, dq = 0.25, loewner.ETA_DQ
    w0 = np.asarray(fam.z_samples, dtype=complex) / fam.r0
    lo = loewner.advance_many(w0, 0.0, q - dq, drv).w
    mid = loewner.advance_many(lo, q - dq, q, drv).w
    hi = loewner.advance_many(mid, q, q + dq, drv).w
    dlogw = np.log(hi / lo) / (2.0 * dq)
    eta_pts = -mid * (1.0 + dlogw) / (1.0 - dlogw)
    est = loewner.extract_eta(fam, q)
    assert abs(est.eta - np.mean(eta_pts)) <= 1e-15
    assert est.spread == pytest.approx(np.max(np.abs(eta_pts - est.eta)), rel=1e-12, abs=1e-15)


def integrate_reference(w0, q_from, q_to, driving, base_step):
    """A plain RK4 loop, gathering every substep, against which the exact
    piece solves of ``advance_many`` are checked: substeps of ``base_step``
    shrunk in proportion to the distance from the driving point, absorption
    in the ``ABSORB_TOL`` ball or on a step into the unit disk.  Returns
    ``(w, absorbed, q_absorbed)``."""
    def rhs(w, eta):
        return w * (eta + w) / (eta - w)

    w = np.atleast_1d(np.asarray(w0, dtype=complex)).copy()
    npts = len(w)
    q = np.broadcast_to(np.asarray(q_from, dtype=float), (npts,)).copy()
    q_to = np.broadcast_to(np.asarray(q_to, dtype=float), (npts,))
    direction = np.where(q_to >= q, 1.0, -1.0)
    absorbed = np.zeros(npts, dtype=bool)
    q_abs = np.full(npts, np.nan)
    while True:
        idx = np.flatnonzero((np.abs(q_to - q) > 1e-15) & ~absorbed)
        if len(idx) == 0:
            break
        wi, qi = w[idx], q[idx]
        eta_i = driving.eta(qi)
        dist = np.abs(eta_i - wi)
        hit = dist < loewner.ABSORB_TOL
        if np.any(hit):
            absorbed[idx[hit]] = True
            q_abs[idx[hit]] = qi[hit] + direction[idx[hit]] * dist[hit] ** 2 / 4.0
            keep = ~hit
            idx, wi, qi, eta_i, dist = idx[keep], wi[keep], qi[keep], eta_i[keep], dist[keep]
            if len(idx) == 0:
                continue
        h = base_step * np.minimum(1.0, dist / 4.0)
        h = np.minimum(h, np.abs(q_to[idx] - qi))
        h = h * direction[idx]
        eta_mid = driving.eta(qi + 0.5 * h)
        k1 = rhs(wi, eta_i)
        k2 = rhs(wi + 0.5 * h * k1, eta_mid)
        k3 = rhs(wi + 0.5 * h * k2, eta_mid)
        k4 = rhs(wi + h * k3, driving.eta(qi + h))
        w_new = wi + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        dead = ~np.isfinite(w_new) | (np.abs(w_new) < 1.0 - 1e-6)
        if np.any(dead):
            absorbed[idx[dead]] = True
            q_abs[idx[dead]] = qi[dead]
        w[idx] = np.where(dead, wi, w_new)
        q[idx] = np.where(dead, qi, qi + h)
    return w, absorbed, q_abs


PL = loewner.DrivingFunction.piecewise_linear([(0.0, 0.0), (0.1, 0.3), (0.2, -0.2), (0.4, 0.5)])
BROWNIAN = loewner.DrivingFunction.brownian(0.5, seed=7, dq_grid=1e-3, q_range=(0.0, 0.4))
# far points, points on the slit's path and points that pass close to the slit
SPREAD = np.array([3.0 + 0j, -2.0 + 1.0j, 1.5 + 0j, 1.2 + 0.05j, 1.05 - 0.02j, 0.3 + 1.4j,
                   1.01 * np.exp(0.25j), 2.0 * np.exp(-2.5j)])
# each case runs the reference at its own base step, and agrees to its own
# tolerance: the reference's RK4 error
REFERENCE_CASES = {
    "constant": (SPREAD, 0.0, 0.4, CONST, 1e-3, 1e-12),
    "piecewise_linear": (SPREAD, 0.0, 0.4, PL, 1e-3, 1e-6),
    "brownian": (SPREAD, 0.0, 0.4, BROWNIAN, 1e-3, 5e-5),
    "mixed_ranges": (np.array([2.0 + 1.0j, -1.5 + 0.5j, 3.0j, 1.8 - 1.8j, 2.5 + 0j, 1.5 + 0j]),
                     np.array([0.0, 0.3, 0.1, 0.2, 0.25, 0.0]),
                     np.array([0.3, 0.0, 0.1, 0.45, 0.25, 0.4]), PL, 1e-3, 1e-6),
    # within ABSORB_TOL of eta at the start, forward and backward, beside a
    # point on the slit's path and points that finish
    "absorbed": (np.array([1 + 5e-10, 2.0 + 2.0j, 1.5 + 0j, 1 + 2e-10j, -1.7 + 0.8j]),
                 np.array([0.0, 0.0, 0.0, 0.3, 0.3]), np.array([0.3, 0.3, 0.3, 0.0, 0.0]),
                 CONST, 2.5e-4, 1e-8),
    # a point that reaches the driving point two reference substeps in, while
    # the others keep going
    "absorbed_mid_run": (np.array([3.0 + 1.0j, 1 + 2e-9, -2.0 + 0.5j]), 0.0, 1e-8, CONST,
                         1e-9, 1e-14),
    "circle_256": (1.3 * np.exp(2j * np.pi * np.arange(256) / 256), 0.0, 0.2, PL, 1e-3, 1e-6),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_integrate_matches_gather_every_substep_reference(case):
    w0, q_from, q_to, driving, base_step, tol = REFERENCE_CASES[case]
    w, absorbed, q_abs = integrate_reference(w0, q_from, q_to, driving, base_step)
    res = loewner.advance_many(w0, q_from, q_to, driving)
    alive = ~absorbed
    if case == "absorbed":
        # the ball and G(1) absorb the forward points as the reference does;
        # a backward start within ABSORB_TOL of eta, which the reference
        # absorbs, is a tip start: it ends on the straight slit's tip
        assert absorbed.tolist() == [True, False, True, True, False]
        assert not res.absorbed[3] and abs(res.w[3] - exact_constant_tip(0.3, 0.0, 0.0)) < 1e-13
        assert res.min_eta_distance[0] < loewner.ABSORB_TOL and res.min_eta_distance[2] == 0.0
        absorbed[3] = False
    if case == "absorbed_mid_run":
        assert absorbed.tolist() == [False, True, False] and res.q_absorbed[1] > 0.0
    assert np.array_equal(res.absorbed, absorbed)
    assert np.max(np.abs(res.w[alive] - w[alive])) <= tol
    assert np.all(np.abs(res.q_absorbed[absorbed] - q_abs[absorbed]) <= max(tol, 1e-5))
    assert np.all(res.min_eta_distance[alive] > 0.0)
    assert res.substeps == res.point_substeps.max(initial=0)


def mixed_batch(case):
    """Backward tip-like starts near the driving point and forward tracked
    copies to two capacities, over the case's own capacity span."""
    w0, q_from, q_to, driving, _, _ = REFERENCE_CASES[case]
    lo = float(min(np.min(q_from), np.min(q_to)))
    hi = float(max(np.max(q_from), np.max(q_to)))
    ring = np.asarray(loewner.default_family().z_samples)[:4]
    w = np.concatenate([driving.eta(hi) * np.array([1.01, 1.05, 1.1]), np.tile(ring, 2),
                        [1.5 * driving.eta(lo)]])
    q_start = np.array([hi] * 3 + [lo] * 9)
    q_end = np.array([lo] * 3 + [0.5 * (lo + hi)] * 4 + [hi] * 5)
    return w, q_start, q_end


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_merged_call_parts_match_their_own_calls(case):
    # the CLI puts backward tip starts and forward tracked copies in one call:
    # each part of it must get what a call holding only that part gets
    w0, q_from, q_to, driving, _, _ = REFERENCE_CASES[case]
    n = len(w0)
    w1, q_from1, q_to1 = mixed_batch(case)
    merged = loewner.advance_many(np.concatenate([w0, w1]),
                                  np.concatenate([np.broadcast_to(q_from, (n,)), q_from1]),
                                  np.concatenate([np.broadcast_to(q_to, (n,)), q_to1]),
                                  driving)
    for part, alone in ((slice(0, n), loewner.advance_many(w0, q_from, q_to, driving)),
                        (slice(n, None), loewner.advance_many(w1, q_from1, q_to1, driving))):
        assert np.array_equal(merged.w[part], alone.w)
        assert np.array_equal(merged.absorbed[part], alone.absorbed)
        assert np.array_equal(merged.q_absorbed[part], alone.q_absorbed, equal_nan=True)
        assert np.array_equal(merged.min_eta_distance[part], alone.min_eta_distance)
        assert np.array_equal(merged.point_substeps[part], alone.point_substeps)
        assert merged.point_substeps[part].max() == alone.substeps
    assert merged.substeps == merged.point_substeps.max()


def slit_trace_reference(family, q_grid):
    """Tips from their own integration call, as the trace was computed
    before the tracked copies joined it."""
    q_grid = np.atleast_1d(np.asarray(q_grid, dtype=float))
    return loewner.forward_map(family.driving.eta(q_grid), q_grid, family)


# tracked points on the straight slit's path are swallowed; a curved slit
# passes beside every point that does not start within ABSORB_TOL of eta(q0)
TRACKED_DRIVINGS = {
    "constant": (CONST, (1.2 + 0j, 1.5 + 0j, 2.0 + 2.0j, -1.7 + 0.8j)),
    "piecewise_linear": (loewner.DrivingFunction.piecewise_linear(
        [(0.0, 0.3), (0.15, -0.2), (0.3, 0.4)]),
        ((1 + 5e-10) * np.exp(0.3j), 1.4 * np.exp(0.25j), 2.0 + 2.0j, -1.7 + 0.8j)),
    "brownian": (loewner.DrivingFunction.brownian(0.5, seed=3, dq_grid=1e-3, q_range=(0.0, 0.3)),
                 (1 + 5e-10, 1.3 + 0j, 2.0 + 2.0j, -1.7 + 0.8j)),
}


@pytest.mark.parametrize("kind", sorted(TRACKED_DRIVINGS))
def test_trace_and_track_matches_separate_calls(kind, monkeypatch):
    driving, tracked = TRACKED_DRIVINGS[kind]
    fam = loewner.LoewnerFamily(0.0, 0.3, driving, tracked)
    qs, snap_q = np.linspace(0.0, 0.3, 7), (0.0, 0.15, 0.3)
    calls, advance_many = [], loewner.advance_many
    monkeypatch.setattr(loewner, "advance_many",
                        lambda *args: calls.append(args) or advance_many(*args))
    tips, res = loewner.trace_and_track(fam, qs, snap_q)
    assert len(calls) == 1
    monkeypatch.setattr(loewner, "advance_many", advance_many)
    assert np.array_equal(tips, slit_trace_reference(fam, qs))
    assert np.array_equal(loewner.slit_trace(fam, qs), tips)
    w0 = np.asarray(tracked) / fam.r0
    alone = loewner.advance_many(np.tile(w0, 3), fam.q0, np.repeat(snap_q, len(w0)), driving)
    assert np.array_equal(res.w, alone.w)
    assert np.array_equal(res.absorbed, alone.absorbed)
    assert np.array_equal(res.q_absorbed, alone.q_absorbed, equal_nan=True)
    assert np.array_equal(res.min_eta_distance, alone.min_eta_distance)
    assert np.array_equal(res.point_substeps, alone.point_substeps)
    assert res.substeps == alone.substeps
    assert 0 < np.count_nonzero(res.absorbed[2 * len(w0):]) < len(w0)


def test_trace_and_track_checks_the_snapshot_range():
    fam = loewner.default_family(0.0, 0.3)
    with pytest.raises(ValueError, match="outside family range"):
        loewner.trace_and_track(fam, [0.1], (0.1, 0.4))
    tips, res = loewner.trace_and_track(fam, [0.0, 0.1])
    assert len(res.w) == 0 and res.substeps == 0


def test_far_point_takes_one_substep_per_base_step():
    res = loewner.advance_many(np.array([50.0 + 0j]), 0.0, 0.1, CONST)
    assert res.substeps == round(0.1 / loewner.BASE_STEP) == 2
    again = loewner.advance_many(np.array([50.0 + 0j]), 0.0, 0.1, CONST)
    assert again.substeps == res.substeps
    assert np.array_equal(again.min_eta_distance, res.min_eta_distance)


def exact_constant_tip(q, q0, theta0):
    """Tip of the straight slit grown from exp(q0) * exp(i theta0)."""
    grow = np.exp(q - q0)
    return np.exp(q0) * np.exp(1j * theta0) * (np.sqrt(grow) + np.sqrt(grow - 1.0)) ** 2


@pytest.mark.parametrize("q0, theta0", [(0.0, 0.0), (0.1, 0.9)])
def test_slit_trace_matches_closed_form_straight_slit(q0, theta0):
    fam = loewner.default_family(q0, q0 + 0.5, loewner.DrivingFunction.constant(theta0))
    qs = np.linspace(q0, q0 + 0.5, 11)
    tips = loewner.slit_trace(fam, qs)
    assert np.max(np.abs(tips - exact_constant_tip(qs, q0, theta0))) <= 1e-13
    assert tips[0] == fam.r0 * fam.driving.eta(q0)


def test_straight_slit_tip_is_exact():
    # the singular start u = 1 + 2 sqrt(h) + ... and Newton on G leave only
    # roundoff: the tip from 1 is (e^(q/2) + sqrt(e^q - 1))^2
    qs = np.array([0.05, 0.2, 0.4])
    tips = loewner.slit_trace(loewner.default_family(0.0, 0.4, CONST), qs)
    exact = (np.exp(qs / 2.0) + np.sqrt(np.exp(qs) - 1.0)) ** 2
    assert np.max(np.abs(tips - exact)) <= 1e-13
    # one piece solve per BASE_STEP, none refused, even on the first sub-step
    assert loewner.advance_many(np.ones(3), qs, 0.0, CONST).substeps == 8


def mode_rhs(a, eta):
    """a_n' = -(n+1) a_n + 2 eta^(n+1) - 2 sum_{j=1}^{n-1} j a_j eta^(n-j), the Loewner
    equation dz/dq = w z' (w + eta)/(w - eta) read off z = e^q (w + sum_n a_n w^-n)."""
    n = np.arange(len(a))
    lag = n[:, None] - n[None, :]
    mix = np.where((n[None, :] >= 1) & (lag >= 1), n[None, :] * eta ** lag, 0.0)
    return -(n + 1) * a + 2.0 * eta ** (n + 1) - 2.0 * mix @ a


def rk4_modes(pieces, order, q_end, steps_per_unit):
    """The modes a_n at q_end by RK4 on each linear piece (q_a, q_b, theta_a, theta_b)."""
    a = np.zeros(order, dtype=complex)
    for q_a, q_b, th_a, th_b in pieces:
        kappa = (th_b - th_a) / (q_b - q_a)
        q_b = min(q_b, q_end)
        if q_b <= q_a:
            break
        steps = int(np.ceil((q_b - q_a) * steps_per_unit))
        h = (q_b - q_a) / steps
        eta = lambda q: np.exp(1j * (th_a + kappa * (q - q_a)))  # noqa: E731
        for i in range(steps):
            q = q_a + i * h
            k1 = mode_rhs(a, eta(q))
            k2 = mode_rhs(a + 0.5 * h * k1, eta(q + 0.5 * h))
            k3 = mode_rhs(a + 0.5 * h * k2, eta(q + 0.5 * h))
            k4 = mode_rhs(a + h * k3, eta(q + h))
            a = a + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return a


MODE_DRIVINGS = {
    # (knots, the same driving as linear pieces (q_a, q_b, theta_a, theta_b))
    "kinks": ([(0.0, 0.0), (0.1, 0.3), (0.25, -0.2), (0.5, 0.1)],
              [(0.0, 0.1, 0.0, 0.3), (0.1, 0.25, 0.3, -0.2), (0.25, 0.5, -0.2, 0.1)]),
    # a repeated knot is a jump of theta from its first value to its last
    "jump": ([(0.0, 0.0), (0.2, 0.6), (0.2, 1.1), (0.5, 0.9)],
             [(0.0, 0.2, 0.0, 0.6), (0.2, 0.5, 1.1, 0.9)]),
}


@pytest.mark.parametrize("knots, pieces", MODE_DRIVINGS.values(), ids=MODE_DRIVINGS)
def test_slit_modes_match_a_fine_rk4(knots, pieces):
    family = loewner.default_family(0.0, 0.5, loewner.DrivingFunction.piecewise_linear(knots))
    modes = loewner.slit_modes(family, 16)
    for q in (0.15, 0.35):
        reference = rk4_modes(pieces, 16, q, 10000)
        assert_allclose(modes(q), reference, rtol=0, atol=1e-12)


def test_slit_modes_under_constant_driving():
    # a_0 = 2 eta (1 - e^-(q - q0)); the fixed point is the ray map w + 2 + 1/w, rotated
    theta0, q0 = 0.7, 0.3
    family = loewner.default_family(q0, 45.0, loewner.DrivingFunction.constant(theta0))
    modes = loewner.slit_modes(family, 6)
    qs = np.array([0.3, 0.5, 2.0])
    eta = np.exp(1j * theta0)
    assert_allclose(modes(qs)[:, 0], 2.0 * eta * (1.0 - np.exp(-(qs - q0))), rtol=1e-14, atol=0)
    assert np.all(modes(q0) == 0.0)
    rotated = modes(45.0) * eta ** -np.arange(1, 7)
    assert_allclose(rotated, [2, 1, 0, 0, 0, 0], rtol=0, atol=1e-12)
    ray = LaurentMap(1.0, [2.0, 1.0])
    assert laurent.phi_k(ray, 1, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert laurent.phi_k(ray, 2, 1.0) == pytest.approx(6.0, abs=1e-14)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_slit_modes_satisfy_the_toda_reduction(k):
    # d/dq A_k(w) = (phi_k(w) - phi_k(eta)) (w + eta) / (w - eta), free term included,
    # with dz/dq from the mode equation itself
    driving = loewner.DrivingFunction.piecewise_linear([(0.0, 0.2), (0.3, -0.4), (0.6, 0.5)])
    family = loewner.default_family(0.0, 0.6, driving)
    q, n = 0.37, 64
    a = loewner.slit_modes(family, k)(q)
    eta = driving.eta(q)
    grid = laurent.circle_grid(n)
    z = np.exp(q) * (grid + sum(a_j * grid ** -j for j, a_j in enumerate(a)))
    dz = z + np.exp(q) * sum(d_j * grid ** -j for j, d_j in enumerate(mode_rhs(a, eta)))
    spectrum = np.fft.fft(k * z ** (k - 1) * dz) / n
    dak = np.concatenate([[0.5 * spectrum[0]], spectrum[1:k + 1]])
    the_map = LaurentMap(np.exp(q), np.exp(q) * a)
    w = np.array([1.7 * np.exp(0.4j), 2.5 * np.exp(-2.0j), 0.6 - 0.9j])
    lhs = np.polynomial.polynomial.polyval(w, dak)
    rhs = ((laurent.phi_k(the_map, k, w) - laurent.phi_k(the_map, k, eta))
           * (w + eta) / (w - eta))
    assert_allclose(lhs, rhs, rtol=1e-13, atol=0)


@pytest.mark.parametrize("knots", [knots for knots, _ in MODE_DRIVINGS.values()],
                         ids=MODE_DRIVINGS)
def test_far_points_follow_the_mode_series(knots):
    # z = e^q (w + sum_n a_n w^-n) both ways: forward_map carries w back to q0,
    # advance_many carries z / r0 forward; each crosses the jump's knot at q = 0.2
    family = loewner.default_family(0.0, 0.5, loewner.DrivingFunction.piecewise_linear(knots))
    modes = loewner.slit_modes(family, 48)
    w = 10.0 * np.exp(2j * np.pi * np.arange(8) / 8 + 0.3j)

    def series(w, q):
        return np.exp(q) * (w + np.polynomial.polynomial.polyval(1.0 / w, modes(q)))

    for q in (0.15, 0.2, 0.35):
        assert_allclose(loewner.forward_map(w, q, family), series(w, q), rtol=1e-13, atol=0)
        forward = loewner.advance_many(w, 0.0, q, family.driving)
        assert_allclose(series(forward.w, q), w, rtol=1e-13, atol=0)


def test_a_jump_grows_a_new_branch_from_the_old_slit():
    # theta jumps from 0.6 to 1.1 at q = 0.2.  The hull at q = 0.2 is still the
    # old slit, whose tip is the trace's left limit; just after the jump a new
    # branch grows from the old slit's side, at the point the old tip passed when
    # it swallowed the circle point exp(1.1 i), a branch of length ~ sqrt(q - 0.2)
    driving = loewner.DrivingFunction.piecewise_linear(MODE_DRIVINGS["jump"][0])
    family = loewner.default_family(0.0, 0.5, driving)
    side = loewner.advance_many(np.exp(1.1j), 0.2, 0.0, driving)
    assert side.absorbed[0] and 0.05 < side.q_absorbed[0] < 0.06
    tips = loewner.slit_trace(family, [side.q_absorbed[0], 0.2 - 1e-12, 0.2, 0.2 + 1e-12])
    assert abs(tips[2] - tips[1]) < 1e-10
    assert abs(tips[3] - tips[0]) < 1e-4 and abs(tips[3] - tips[2]) > 0.5
