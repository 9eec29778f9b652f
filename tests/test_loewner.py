import numpy as np
import pytest
from numpy.testing import assert_allclose

from todaflow import loewner
from todaflow.errors import InsufficientSamplesError, IntegrationBreakdownError

CONST = loewner.DrivingFunction.constant(0.0)


def exact_absorption_q(w0):
    """Capacity at which a real point w0 > 1 meets the eta = 1 driving point.

    Separating dw/dq = w(1+w)/(1-w) gives q(w) = log w - 2 log(1+w) + const.
    """
    return (0.0 - 2 * np.log(2.0)) - (np.log(w0) - 2 * np.log(1.0 + w0))


def test_fixed_point_minus_eta():
    res = loewner.advance_many(-1.0 + 0j, 0.0, 0.3, CONST)
    assert not res.absorbed[0]
    assert_allclose(res.w[0], -1.0, atol=1e-12)


def test_euler_microstep_consistency():
    dq = 1e-6
    res = loewner.advance_many(2.0 + 0j, 0.0, dq, CONST, base_step=dq)
    assert abs(res.w[0] - (2.0 - 6e-6)) < 5e-12  # matches one Euler step to O(dq^2)


def test_real_axis_preserved():
    res = loewner.advance_many(6.0 + 0j, 0.0, 0.4, CONST)
    assert not res.absorbed[0]
    assert res.w[0].imag == 0.0
    assert res.w[0].real > 1.0


def test_absorption_time_matches_closed_form():
    w0 = 1.5
    res = loewner.advance_many(w0 + 0j, 0.0, 0.2, CONST)
    assert res.absorbed[0]
    assert abs(res.q_absorbed[0] - exact_absorption_q(w0)) < 1e-5


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
    est = loewner.extract_eta(fam, 0.25, 5e-4)
    assert abs(est.eta - 1.0) < 1e-4
    assert est.spread < 1e-5

    rot = loewner.DrivingFunction.piecewise_linear([(0.0, 0.0), (1.0, 1.0)])
    fam2 = loewner.default_family(0.0, 0.5, rot)
    est2 = loewner.extract_eta(fam2, 0.25, 5e-4)
    assert abs(est2.eta - np.exp(0.25j)) < 1e-4
    assert abs(abs(est2.eta) - 1.0) < 1e-6


def test_extract_eta_needs_survivors():
    # both tracked points sit on the slit path and get swallowed
    fam = loewner.LoewnerFamily(0.0, 0.5, CONST, z_samples=(1.2 + 0j, 1.3 + 0j))
    with pytest.raises(InsufficientSamplesError):
        loewner.extract_eta(fam, 0.4, 1e-3)


def test_tracked_points_never_collide():
    fam = loewner.default_family(0.0, 0.5, CONST)
    w0 = np.asarray(fam.z_samples, dtype=complex) / fam.r0
    res = loewner.advance_many(w0, 0.0, 0.5, CONST)
    alive = res.w[~res.absorbed]
    dist = np.abs(alive[:, None] - alive[None, :])
    np.fill_diagonal(dist, np.inf)
    assert dist.min() > 1e-8


def test_integrator_convergence_order():
    # halving the base step cuts the endpoint error by about 2^4
    drv = loewner.DrivingFunction.piecewise_linear([(0.0, 0.0), (1.0, 1.0)])
    w0 = np.array([2.0 + 2.0j, -1.7 + 0.8j])
    ref = loewner.advance_many(w0, 0.0, 0.4, drv, base_step=1.25e-3).w
    e1 = np.max(np.abs(loewner.advance_many(w0, 0.0, 0.4, drv, base_step=2e-2).w - ref))
    e2 = np.max(np.abs(loewner.advance_many(w0, 0.0, 0.4, drv, base_step=1e-2).w - ref))
    assert e1 / e2 == pytest.approx(16.0, rel=0.35)


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
    res = loewner._integrate(w, q_from, q_to, driving)
    return res.w[0], res.absorbed[0], res.q_absorbed[0], res.min_eta_distance[0]


def test_per_point_ranges_match_single_point_calls():
    # forward, backward and zero-length intervals in one batch, plus a point
    # swallowed on its way forward
    drv = loewner.DrivingFunction.piecewise_linear([(0.0, 0.0), (0.2, 0.0), (1.0, 1.0)])
    w0 = np.array([2.0 + 1.0j, -1.5 + 0.5j, 3.0j, 1.8 - 1.8j, 2.5 + 0j, 1.5 + 0j])
    q_from = np.array([0.0, 0.3, 0.1, 0.2, 0.25, 0.0])
    q_to = np.array([0.3, 0.0, 0.1, 0.45, 0.25, 0.4])
    batch = loewner._integrate(w0, q_from, q_to, drv)
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
    # a coarse base step keeps the 128 one-point reference integrations cheap
    fam = loewner.LoewnerFamily(0.0, 0.3, driving, base_step=2e-2)
    qs = np.linspace(0.0, 0.3, 64)
    ref = []
    for q in qs:
        eta = driving.eta(q)
        t1 = loewner.forward_map(eta * (1.0 + loewner.TIP_OFFSET), q, fam)
        t2 = loewner.forward_map(eta * (1.0 + 0.5 * loewner.TIP_OFFSET), q, fam)
        ref.append(fam.r0 * eta if q == fam.q0 else (4.0 * t2 - t1) / 3.0)
    assert np.max(np.abs(loewner.slit_trace(fam, qs) - np.array(ref))) <= 1e-14


def test_extract_eta_matches_chained_integrations():
    # on a rough driving the three copies must follow one step sequence, as
    # three chained integrations q0 -> q - dq -> q -> q + dq do
    drv = loewner.DrivingFunction.brownian(0.5, seed=1, dq_grid=1e-3, q_range=(0.0, 0.5))
    fam = loewner.default_family(0.0, 0.5, drv)
    q, dq = 0.25, 1e-3
    w0 = np.asarray(fam.z_samples, dtype=complex) / fam.r0
    lo = loewner._integrate(w0, 0.0, q - dq, drv).w
    mid = loewner._integrate(lo, q - dq, q, drv).w
    hi = loewner._integrate(mid, q, q + dq, drv).w
    dlogw = np.log(hi / lo) / (2.0 * dq)
    eta_pts = -mid * (1.0 + dlogw) / (1.0 - dlogw)
    est = loewner.extract_eta(fam, q, dq)
    assert abs(est.eta - np.mean(eta_pts)) <= 1e-15
    assert est.spread == pytest.approx(np.max(np.abs(eta_pts - est.eta)), rel=1e-12, abs=1e-15)


def integrate_reference(w0, q_from, q_to, driving, base_step=loewner.DEFAULT_BASE_STEP,
                        stops=()):
    """The gather-every-substep loop that ``_integrate`` must reproduce exactly:
    returns ``(w, absorbed, q_absorbed, min_eta_distance, point_substeps,
    substeps)``."""
    ABSORB_TOL, _MAX_SUBSTEPS = loewner.ABSORB_TOL, loewner._MAX_SUBSTEPS
    _loewner_rhs = loewner._loewner_rhs
    w = np.atleast_1d(np.asarray(w0, dtype=complex)).copy()
    npts = len(w)
    q = np.broadcast_to(np.asarray(q_from, dtype=float), (npts,)).copy()
    q_to = np.broadcast_to(np.asarray(q_to, dtype=float), (npts,))
    direction = np.where(q_to >= q, 1.0, -1.0)
    absorbed = np.zeros(npts, dtype=bool)
    q_abs = np.full(npts, np.nan)
    min_dist = np.full(npts, np.inf)
    point_steps = np.zeros(npts, dtype=int)
    steps = 0
    while True:
        idx = np.flatnonzero((np.abs(q_to - q) > 1e-15) & ~absorbed)
        if len(idx) == 0:
            break
        wi, qi = w[idx], q[idx]
        eta_i = driving.eta(qi)
        dist = np.abs(eta_i - wi)
        min_dist[idx] = np.minimum(min_dist[idx], dist)
        hit = dist < ABSORB_TOL
        if np.any(hit):
            absorbed[idx[hit]] = True
            q_abs[idx[hit]] = qi[hit] + direction[idx[hit]] * dist[hit] ** 2 / 4.0
            keep = ~hit
            idx, wi, qi, eta_i, dist = idx[keep], wi[keep], qi[keep], eta_i[keep], dist[keep]
            if len(idx) == 0:
                continue
        h = base_step * np.minimum(1.0, dist / 4.0)
        h = np.minimum(h, np.abs(q_to[idx] - qi))
        for stop in stops:
            ahead = (stop - qi) * direction[idx]
            h = np.where(ahead > 1e-15, np.minimum(h, ahead), h)
        h = h * direction[idx]
        eta_mid = driving.eta(qi + 0.5 * h)
        k1 = _loewner_rhs(wi, eta_i)
        k2 = _loewner_rhs(wi + 0.5 * h * k1, eta_mid)
        k3 = _loewner_rhs(wi + 0.5 * h * k2, eta_mid)
        k4 = _loewner_rhs(wi + h * k3, driving.eta(qi + h))
        w_new = wi + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        dead = ~np.isfinite(w_new) | (np.abs(w_new) < 1.0 - 1e-6)
        if np.any(dead):
            absorbed[idx[dead]] = True
            q_abs[idx[dead]] = qi[dead]
            min_dist[idx[dead]] = 0.0
        w[idx] = np.where(dead, wi, w_new)
        q[idx] = np.where(dead, qi, qi + h)
        point_steps[idx] += 1
        steps += 1
        if steps > _MAX_SUBSTEPS:
            raise IntegrationBreakdownError(f"integration exceeded {_MAX_SUBSTEPS} substeps")
    return w, absorbed, q_abs, min_dist, point_steps, steps


PL = loewner.DrivingFunction.piecewise_linear([(0.0, 0.0), (0.1, 0.3), (0.2, -0.2), (0.4, 0.5)])
BROWNIAN = loewner.DrivingFunction.brownian(0.5, seed=7, dq_grid=1e-3, q_range=(0.0, 0.4))
# far points, points that cross into the disk and points that pass close to the slit
SPREAD = np.array([3.0 + 0j, -2.0 + 1.0j, 1.5 + 0j, 1.2 + 0.05j, 1.05 - 0.02j, 0.3 + 1.4j,
                   1.01 * np.exp(0.25j), 2.0 * np.exp(-2.5j)])
REFERENCE_CASES = {
    "constant": (SPREAD, 0.0, 0.4, CONST, {}),
    "piecewise_linear": (SPREAD, 0.0, 0.4, PL, {}),
    "brownian": (SPREAD, 0.0, 0.4, BROWNIAN, {}),
    "mixed_ranges": (np.array([2.0 + 1.0j, -1.5 + 0.5j, 3.0j, 1.8 - 1.8j, 2.5 + 0j, 1.5 + 0j]),
                     np.array([0.0, 0.3, 0.1, 0.2, 0.25, 0.0]),
                     np.array([0.3, 0.0, 0.1, 0.45, 0.25, 0.4]), PL, {}),
    # within ABSORB_TOL of eta at the start, forward and backward, beside
    # points that step inside the unit disk and points that finish
    "absorbed": (np.array([1 + 5e-10, 2.0 + 2.0j, 1.5 + 0j, 1 + 2e-10j, -1.7 + 0.8j]),
                 np.array([0.0, 0.0, 0.0, 0.3, 0.3]), np.array([0.3, 0.3, 0.3, 0.0, 0.0]),
                 CONST, {}),
    # a base step small enough that a point walks into the ABSORB_TOL ball
    # two substeps in, while the others keep going
    "absorbed_mid_run": (np.array([3.0 + 1.0j, 1 + 2e-9, -2.0 + 0.5j]), 0.0, 1e-8, CONST,
                         {"base_step": 1e-9}),
    "stops": (np.tile(np.asarray(loewner.default_family().z_samples), 3), 0.0,
              np.repeat([0.249, 0.25, 0.251], 12), BROWNIAN, {"stops": (0.249, 0.25)}),
    "circle_256": (1.3 * np.exp(2j * np.pi * np.arange(256) / 256), 0.0, 0.2, PL,
                   {"base_step": 4e-3}),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_integrate_matches_gather_every_substep_reference(case):
    w0, q_from, q_to, driving, kwargs = REFERENCE_CASES[case]
    w, absorbed, q_abs, min_dist, point_steps, steps = integrate_reference(
        w0, q_from, q_to, driving, **kwargs)
    res = loewner._integrate(w0, q_from, q_to, driving, **kwargs)
    assert np.array_equal(res.w, w)
    assert np.array_equal(res.absorbed, absorbed)
    assert np.array_equal(res.q_absorbed, q_abs, equal_nan=True)
    assert np.array_equal(res.min_eta_distance, min_dist)
    assert np.array_equal(res.point_substeps, point_steps)
    assert res.substeps == steps == point_steps.max(initial=0)
    if case == "absorbed":
        # both absorption rules fire: the ABSORB_TOL ball (forward and
        # backward) and a step into the unit disk
        assert absorbed.tolist() == [True, False, True, True, False]
        assert np.all(min_dist[[0, 3]] < loewner.ABSORB_TOL) and min_dist[2] == 0.0
    if case == "absorbed_mid_run":
        assert absorbed.tolist() == [False, True, False] and q_abs[1] > 0.0
        assert min_dist[1] < loewner.ABSORB_TOL


def mixed_batch(case):
    """Backward tip-like starts near the driving point and forward tracked
    copies to two capacities, over the case's own capacity span."""
    w0, q_from, q_to, driving, _ = REFERENCE_CASES[case]
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
    w0, q_from, q_to, driving, kwargs = REFERENCE_CASES[case]
    n = len(w0)
    w1, q_from1, q_to1 = mixed_batch(case)
    merged = loewner._integrate(np.concatenate([w0, w1]),
                                np.concatenate([np.broadcast_to(q_from, (n,)), q_from1]),
                                np.concatenate([np.broadcast_to(q_to, (n,)), q_to1]),
                                driving, **kwargs)
    for part, alone in ((slice(0, n), loewner._integrate(w0, q_from, q_to, driving, **kwargs)),
                        (slice(n, None), loewner._integrate(w1, q_from1, q_to1, driving,
                                                            **kwargs))):
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
    eta = family.driving.eta(q_grid)
    starts = np.concatenate([eta * (1.0 + loewner.TIP_OFFSET),
                             eta * (1.0 + 0.5 * loewner.TIP_OFFSET)])
    t1, t2 = np.split(loewner._pull_back(starts, np.tile(q_grid, 2), family), 2)
    tips = ((4.0 * t2 - t1).view(float) / 3.0).view(complex)
    return np.where(q_grid == family.q0, family.r0 * eta, tips)


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
    calls, integrate = [], loewner._integrate
    monkeypatch.setattr(loewner, "_integrate",
                        lambda *args, **kwargs: calls.append(args) or integrate(*args, **kwargs))
    tips, res = loewner.trace_and_track(fam, qs, snap_q)
    assert len(calls) == 1
    monkeypatch.setattr(loewner, "_integrate", integrate)
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
    assert res.substeps == 100
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
    assert np.max(np.abs(tips - exact_constant_tip(qs, q0, theta0))) <= 1e-7
    assert tips[0] == fam.r0 * fam.driving.eta(q0)
