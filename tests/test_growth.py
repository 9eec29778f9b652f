import numpy as np
import pytest
from numpy.testing import assert_allclose

from todaflow import growth, laurent
from todaflow.errors import CuspError, NonUnivalentError

FLOWS = [growth.FlowSpec.t0_infinity(), growth.FlowSpec.t0_source(3.0 + 1.0j),
         growth.FlowSpec.tk_real(2), growth.FlowSpec.tk_imag(1, sign=-1)]
# boundary crosses itself, with every critical point inside the disk
CROSSING = laurent.LaurentMap(1.0, [0.0, -0.9, -0.2j, -0.2])


def reference_exterior_moment(r, coeffs, k, n=4096):
    """High-resolution trapezoid quadrature of (1/2 pi i k) oint z^-k zbar dz.

    Written directly against the parametrization, independent of the module's
    boundary-state machinery; n = 4096 makes it the ground truth at the tested
    map sizes.
    """
    theta = 2 * np.pi * np.arange(n) / n
    w = np.exp(1j * theta)
    z = r * w + sum(a * w ** (-j) for j, a in enumerate(coeffs))
    zp = r - sum(j * a * w ** (-j - 1) for j, a in enumerate(coeffs) if j > 0)
    return np.mean(z ** (-k) * np.conj(z) * zp * w) / k


def reference_interior_moment(r, coeffs, k, n=4096):
    theta = 2 * np.pi * np.arange(n) / n
    w = np.exp(1j * theta)
    z = r * w + sum(a * w ** (-j) for j, a in enumerate(coeffs))
    zp = r - sum(j * a * w ** (-j - 1) for j, a in enumerate(coeffs) if j > 0)
    return np.mean(z ** k * np.conj(z) * zp * w)


def test_harmonic_moments_centered_disk():
    mv = growth.moment_vector(laurent.LaurentMap(2.0, []), 6)
    assert_allclose(mv.t0, 4.0, atol=1e-13)
    assert_allclose(mv.t, 0.0, atol=1e-13)


def test_harmonic_moments_translated_disk():
    c = 0.3 + 0.1j
    mv = growth.moment_vector(laurent.LaurentMap(1.0, [c]), 5)
    assert_allclose(mv.t0, 1.0, atol=1e-13)
    assert_allclose(mv.t[0], np.conj(c), atol=1e-13)
    assert_allclose(mv.t[1:], 0.0, atol=1e-13)


def test_harmonic_moments_ellipse_against_quadrature_oracle():
    mv = growth.moment_vector(laurent.LaurentMap(1.0, [0.0, 0.3]), 4)
    oracle = reference_exterior_moment(1.0, [0.0, 0.3], 2)
    assert_allclose(mv.t[1], oracle, atol=1e-13)
    assert_allclose(mv.t[1], 0.15, atol=1e-13)  # u / 2 for the r=1 ellipse
    assert_allclose(mv.t0, 0.91, atol=1e-13)  # r^2 - u^2


def test_interior_moments_disk_and_translate():
    assert_allclose(growth.moment_vector(laurent.LaurentMap(1.5, []), 4).v, 0.0, atol=1e-13)
    c = 0.25 - 0.15j
    mv = growth.moment_vector(laurent.LaurentMap(1.0, [c]), 3)
    assert_allclose(mv.v[0], c, atol=1e-13)
    assert_allclose(mv.v[1], c * c, atol=1e-13)


def test_interior_moments_ellipse_against_oracle():
    mv = growth.moment_vector(laurent.LaurentMap(1.0, [0.0, 0.3]), 4)
    oracle = reference_interior_moment(1.0, [0.0, 0.3], 2)
    assert_allclose(mv.v[1], oracle, atol=1e-13)
    assert_allclose(mv.v[1], 0.273, atol=1e-13)  # u - u^3 in closed form


def loop_moments(m, order, n):
    """t0, t_k and v_k by the separate power loops over Horner grid values."""
    w = laurent.circle_grid(n)
    z = laurent.evaluate(m, w)
    core = np.conj(z) * laurent.derivative(m, w) * w
    t, v = np.empty(order, dtype=complex), np.empty(order, dtype=complex)
    p, q = np.ones_like(z), np.ones_like(z)
    for k in range(1, order + 1):
        p, q = p / z, q * z
        t[k - 1] = np.mean(p * core) / k
        v[k - 1] = np.mean(q * core)
    return float(np.mean(core).real), t, v


@pytest.mark.parametrize("m", [
    laurent.LaurentMap(1.0, [0.0, 0.3]),
    laurent.LaurentMap(1.2, [0.1 - 0.05j, 0.04j, 0.03, -0.02]).with_order(16),
    laurent.LaurentMap(0.8, [0.2, 0.0, 0.0, 0.0, 0.05 + 0.05j]),
])
def test_one_pass_moments_match_separate_loops(m):
    n = laurent.default_grid_size(m.order)
    t0, t, v = loop_moments(m, 12, n)
    mv = growth.moment_vector(m, 12, n)
    assert_allclose(mv.t0, t0, rtol=0, atol=1e-13)
    assert_allclose(mv.t, t, rtol=0, atol=1e-13)
    assert_allclose(mv.v, v, rtol=0, atol=1e-13)


def test_moments_reject_self_crossing_boundary():
    # the quadrature alone would report a negative area, t0 = -0.01
    t0, _, _ = loop_moments(CROSSING, 1, 128)
    assert t0 == pytest.approx(-0.01, abs=1e-12)
    with pytest.raises(NonUnivalentError):
        growth.moment_vector(CROSSING, 4)


def test_orlov_shulman_centered_disk():
    m = laurent.LaurentMap(1.4, [])
    mv = growth.moment_vector(m, 8)
    vals = growth.orlov_shulman(m, mv, laurent.circle_grid(32))
    assert_allclose(vals, 1.4 ** 2, atol=1e-12)


def test_orlov_shulman_translated_disk_truncation():
    c = 0.2 + 0.1j
    m = laurent.LaurentMap(1.0, [c])
    mv = growth.moment_vector(m, 1)
    got = growth.orlov_shulman(m, mv, 1.0)
    expected = np.conj(c) * (1 + c) + 1.0 + c / (1 + c)
    assert_allclose(got, expected, atol=1e-13)


def test_orlov_shulman_matches_squared_modulus():
    # quadratic potential: the full function is z zbar on the contour; the
    # truncation error is the series tail, tiny for a mild deformation
    m = laurent.LaurentMap(1.0, [0.0, 0.05]).with_order(4)
    mv = growth.moment_vector(m, 16)
    w = laurent.circle_grid(128)
    vals = growth.orlov_shulman(m, mv, w)
    assert np.max(np.abs(vals - np.abs(laurent.evaluate(m, w)) ** 2)) < 1e-7


def test_orlov_shulman_order_mismatch():
    m = laurent.LaurentMap(1.0, [])
    full = growth.moment_vector(m, 4)
    mv = growth.MomentVector(order=4, t0=full.t0, t=full.t[:3], v=full.v)  # t one short
    with pytest.raises(ValueError, match="moment order mismatch"):
        growth.orlov_shulman(m, mv, 1.0)


def normal_velocity(m, flow, n=128):
    """V_n on the n-point grid, from the modes of the map m."""
    return growth._velocity_over_speed(laurent._modes(m.r, m.coeffs), flow, n)[0]


def test_normal_velocity_circle_darcy():
    m = laurent.LaurentMap(2.0, [])
    v = normal_velocity(m, growth.FlowSpec.t0_infinity())
    assert_allclose(v, 0.25, atol=1e-13)  # 1 / (2 r)


def test_normal_velocity_tk_real_circle():
    m = laurent.LaurentMap(1.0, [])
    v = normal_velocity(m, growth.FlowSpec.tk_real(1))
    theta = 2 * np.pi * np.arange(len(v)) / len(v)
    assert_allclose(v, np.cos(theta), atol=1e-13)


def test_normal_velocity_source_against_fd_oracle():
    # oracle: finite-difference outward normal derivative of the closed-form
    # Green function, with the outward-positive orientation of this module
    m = laurent.LaurentMap(1.0, [])
    z0 = 2.0
    v = normal_velocity(m, growth.FlowSpec.t0_source(z0))

    def g(z):
        return np.log(np.abs((z - z0) / (1 - z * np.conj(z0))))

    h = 1e-6
    for i, theta in enumerate(2 * np.pi * np.arange(len(v)) / len(v)):
        nhat = np.exp(1j * theta)
        dn = (g(nhat * (1 + h)) - g(nhat * (1 - h))) / (2 * h)
        assert abs(v[i] - (-0.5 * dn)) < 1e-7


def test_normal_velocity_source_far_limit():
    m = laurent.LaurentMap(1.2, [0.1, 0.2])
    v_inf = normal_velocity(m, growth.FlowSpec.t0_infinity())
    v_far = normal_velocity(m, growth.FlowSpec.t0_source(1000 * 1.2))
    rel = np.max(np.abs(v_far - v_inf)) / np.max(np.abs(v_inf))
    assert rel < 0.01


def test_normal_velocity_cusp_rejected():
    with pytest.raises(CuspError):
        normal_velocity(laurent.LaurentMap(1.0, [0.0, 0.0, 0.5]), growth.FlowSpec.t0_infinity())


class OuterSeries:
    """Reference series ``c0 + sum_{k>=1} c_k w**(-k)``, summed by Horner off any grid."""

    def __init__(self, c0, tail):
        self.c0 = complex(c0)
        self.tail = np.asarray(tail, dtype=complex).reshape(-1)

    def __call__(self, w):
        w = np.asarray(w, dtype=complex)
        out = np.full(w.shape, self.c0, dtype=complex)
        iw = 1.0 / w
        p = np.ones_like(w)
        for c in self.tail:
            p = p * iw
            out = out + c * p
        return out


def schwarz_extension(h):
    """Reference ``Phi`` analytic in ``|w| > 1`` with ``Re Phi = h`` on the circle.

    ``h`` holds real samples on the grid: ``c0`` is their mean and
    ``c_k = 2 h_{-k}`` picks up the negative Fourier modes.
    """
    h = np.asarray(h)
    if np.iscomplexobj(h) and np.max(np.abs(h.imag)) > 1e-13 * max(1.0, float(np.max(np.abs(h)))):
        raise ValueError("schwarz_extension requires real boundary data")
    n = len(h)
    modes = np.fft.fft(h.real.astype(float)) / n
    return OuterSeries(modes[0].real, 2.0 * modes[n - np.arange(1, n // 2)])


def test_schwarz_extension_examples():
    n = 128
    theta = 2 * np.pi * np.arange(n) / n
    phi = schwarz_extension(np.ones(n))
    assert_allclose(phi.c0, 1.0)
    assert_allclose(phi.tail, 0.0, atol=1e-14)

    phi = schwarz_extension(np.cos(theta))
    assert_allclose(phi.c0, 0.0, atol=1e-14)
    assert_allclose(phi.tail[0], 1.0, atol=1e-13)
    assert_allclose(phi.tail[1:], 0.0, atol=1e-13)

    phi = schwarz_extension(np.cos(2 * theta) + 3.0)
    assert_allclose(phi.c0, 3.0, atol=1e-13)
    assert_allclose(phi.tail[1], 1.0, atol=1e-13)


def test_schwarz_extension_rejects_complex():
    with pytest.raises(ValueError):
        schwarz_extension(np.full(16, 1.0 + 0.5j))


def test_schwarz_roundtrip_random_series():
    # extension of (Re series on circle) recovers the series, K <= 32
    rng = np.random.default_rng(7)
    n = 128
    w = laurent.circle_grid(n)
    for _ in range(20):
        K = int(rng.integers(1, 33))
        tail = rng.normal(size=K) + 1j * rng.normal(size=K)
        series = OuterSeries(rng.normal(), tail)
        h = series(w).real
        back = schwarz_extension(h)
        assert_allclose(back(w), series(w), atol=1e-12)


def reference_rhs(m, flow, n):
    """Coefficient RHS through the Horner derivative and the OuterSeries Phi."""
    w = laurent.circle_grid(n)
    zp = laurent.derivative(m, w)
    h = normal_velocity(m, flow, n) / np.abs(zp)
    modes = np.fft.fft(w * zp * schwarz_extension(h)(w)) / n
    kept = np.zeros(n, dtype=bool)
    kept[[1, *(-np.arange(m.order + 1) % n)]] = True
    return modes[1], modes[-np.arange(m.order + 1) % n], np.sum(np.abs(modes[~kept]) ** 2)


@pytest.mark.parametrize("flow", FLOWS, ids=lambda f: f.kind)
def test_coefficient_rhs_matches_outer_series_reference(flow):
    # order 3 on a 128 grid: the source flow leaks past a3; the other flows keep
    # the polynomial form, so their leakage is roundoff
    m = laurent.LaurentMap(1.1, [0.05j, 0.1, -0.04 + 0.02j, 0.03])
    v = laurent._modes(m.r, m.coeffs)
    rates = growth._coefficient_rhs(v, flow, 128)
    r_dot, a_dot = rates[0], rates[1:len(v)]
    leakage = growth._leakage(rates, len(v))
    ref_r, ref_a, ref_leakage = reference_rhs(m, flow, 128)
    assert_allclose(r_dot, ref_r, rtol=0, atol=1e-14)
    assert_allclose(a_dot, ref_a, rtol=0, atol=1e-14)
    assert_allclose(leakage, ref_leakage, rtol=1e-12, atol=1e-24)
    # the later RK4 stages take only the M + 2 modes of Phi that reach the rates
    cut = growth._coefficient_rhs(v, flow, 128, count=len(v))
    assert_allclose(cut[:len(v)], rates[:len(v)], rtol=0, atol=1e-15)


@pytest.mark.parametrize("flow", FLOWS, ids=lambda f: f.kind)
def test_leading_rate_is_exactly_real(flow):
    # r's rate is r Phi_0 with Phi_0 = Re hhat_0: no imaginary part to round
    rng = np.random.default_rng(11)
    for _ in range(20):
        tail = rng.dirichlet(np.ones(5)) * 0.3 / np.arange(1, 6)
        coeffs = np.concatenate([rng.normal(size=1) * 0.1, tail]) * np.exp(
            2j * np.pi * rng.uniform(size=6))
        m = laurent.LaurentMap(rng.uniform(0.8, 1.2), coeffs)
        rates = growth._coefficient_rhs(laurent._modes(m.r, m.coeffs), flow, 128)
        assert rates[0].imag == 0.0 and rates[0].real != 0.0


@pytest.mark.parametrize("flow", FLOWS, ids=lambda f: f.kind)
def test_order_zero_map_steps_with_its_a0(flow):
    # an empty coefficient list is the order-0 map r w + 0: it steps as that map,
    # and a harmonic flow past k = M + 1 = 1 is refused for both alike
    maps = laurent.LaurentMap(1.0, []), laurent.LaurentMap(1.0, [0j])
    if flow.k > 1:
        messages = []
        for m in maps:
            with pytest.raises(ValueError, match=r"leg 0: needs k <= M \+ 1 = 1") as err:
                growth.step(m, flow, 0.01)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        return
    empty, padded = (growth.step(m, flow, 0.01) for m in maps)
    assert empty.r == padded.r and np.array_equal(empty.coeffs, padded.coeffs)
    assert len(empty.coeffs) == 1


def test_source_stages_invert_as_inverse_evaluate(monkeypatch):
    # a source stage inverts z0 on its modes, with no map: the same Newton
    # iteration as inverse_evaluate of the stage's map, seeded at the previous
    # stage's root from a cold first stage, and polished, so it lands within
    # a few ulps of the cold root
    calls = []
    invert = laurent._invert

    def recorded(r, coeffs, z, seed=None):
        root = invert(r, coeffs, z, seed)
        calls.append((r, coeffs, z, seed, root))
        return root

    monkeypatch.setattr(laurent, "_invert", recorded)
    m = laurent.LaurentMap(1.0, [0.0, 0.1, 0.03j]).with_order(8)
    growth.run(m, [(growth.FlowSpec.t0_source(2.5 - 0.5j), 0.2, 20)])
    monkeypatch.undo()
    assert len(calls) == 4 * 20
    assert calls[0][3] is None
    assert [call[3] for call in calls[1:]] == [call[4] for call in calls[:-1]]
    for r, coeffs, z, _, root in calls:
        cold = laurent.inverse_evaluate(laurent.LaurentMap(r, coeffs), z)
        assert abs(root - cold) <= 4 * np.spacing(abs(cold))


def assert_moments_equal(got, want):
    assert got.order == want.order and got.t0 == want.t0
    assert np.array_equal(got.t, want.t) and np.array_equal(got.v, want.v)


def test_block_moments_equal_moment_vector_to_the_bit():
    # run fills the moments of up to MOMENT_BLOCK records in one pass: the 3
    # legs' 39 records make two full blocks and a part block
    m = laurent.LaurentMap(1.0, [0.02j, 0.1, 0.0, -0.03]).with_order(6)
    schedule = [(growth.FlowSpec.t0_infinity(), 0.05, 20), (growth.FlowSpec.tk_imag(2), 0.01, 7),
                (growth.FlowSpec.t0_source(3.0 + 1.0j), 0.05, 11)]
    records = growth.run(m, schedule, moment_order=6).records
    assert [rec.index for rec in records] == list(range(39))
    for rec in records:
        assert_moments_equal(rec.moments, growth.moment_vector(rec.map, 6))


def test_breakdown_fills_the_pending_block():
    # the harmonic leg cusps at step 65: the partial trajectory's records all
    # carry their moments, those of the block still pending included
    m = laurent.LaurentMap(1.0, [0.0, 0.1, 0.05]).with_order(8)
    schedule = [(growth.FlowSpec.t0_infinity(), 0.05, 5), (growth.FlowSpec.tk_real(2), 0.3, 60)]
    with pytest.raises(CuspError, match="step 65") as err:
        growth.run(m, schedule)
    records = err.value.partial.records
    assert [rec.index for rec in records] == list(range(65))
    assert len(records) % growth.MOMENT_BLOCK != 0
    for rec in records:
        assert_moments_equal(rec.moments, growth.moment_vector(rec.map, 8))


def test_run_calls_no_fft(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the grow path called an FFT")

    monkeypatch.setattr(np.fft, "rfft", refused)
    monkeypatch.setattr(np.fft, "fft", refused)
    m = laurent.LaurentMap(1.0, [0.0, 0.1, 0.03j]).with_order(8)
    traj = growth.run(m, [(flow, 0.01, 3) for flow in FLOWS])
    assert len(traj.records) == 1 + 3 * len(FLOWS)


def test_run_witnesses_each_map_once(monkeypatch):
    calls = []
    witness = laurent.univalence_witness

    def counted(m, n=None, grid=None):
        # every map comes with its own grid samples, built once by the caller
        z, wzp = laurent._grid_values(m, n)
        assert np.array_equal(grid[0], z) and np.array_equal(grid[1], wzp)
        calls.append(m)
        return witness(m, n, grid)

    monkeypatch.setattr(laurent, "univalence_witness", counted)
    m = laurent.LaurentMap(1.0, [0.0, 0.1]).with_order(8)
    schedule = [(growth.FlowSpec.t0_infinity(), 0.05, 4), (growth.FlowSpec.tk_real(2), 0.01, 3)]
    traj = growth.run(m, schedule)
    assert len(calls) == 7 + 1
    assert [c is rec.map for c, rec in zip(calls, traj.records)] == [True] * 8


@pytest.mark.parametrize("flow", [growth.FlowSpec.t0_infinity(-1),
                                  growth.FlowSpec.t0_source(4.0, -1)])
def test_rk4_stage_refuses_a_non_positive_leading_coefficient(flow):
    # the stages build no map (except under a source), yet keep the map's check:
    # either sink takes the unit circle's t0 = r^2 down at unit rate, so dr/dt = -1/2
    # and the half-step stage of dt = 10 has r = -1.5
    m = laurent.LaurentMap(1.0, [0.0]).with_order(4)
    with pytest.raises(ValueError, match="leading coefficient must be positive, got -"):
        growth._rk4_step(m, flow, 10.0, 128)


def test_run_rejects_non_univalent_start():
    with pytest.raises(NonUnivalentError):
        growth.run(CROSSING, [(growth.FlowSpec.t0_infinity(), 0.01, 1)])


def _refuse_steps(monkeypatch):
    steps = []
    monkeypatch.setattr(growth, "_rk4_step", lambda *args: steps.append(args))
    return steps


@pytest.mark.parametrize("m, k", [
    (laurent.LaurentMap(1.0, [0.0, 0.05, 0.02j, 0.01]).with_order(16), 18),
    (laurent.LaurentMap(1.0, [0.0, 0.1]), 3),
    (laurent.LaurentMap(1.0, []), 2),
], ids=["M16-k18", "M1-k3", "M0-k2"])
def test_run_refuses_a_harmonic_leg_past_k_M_plus_1(monkeypatch, m, k):
    # an order-M map keeps t_k = 0 past k = M + 1, so no flow of the map moves
    # it, even where the grid resolves z**k (k M <= n/2 - 1 for the last two):
    # the leg is refused at its k before any step
    steps = _refuse_steps(monkeypatch)
    schedule = [(growth.FlowSpec.t0_infinity(), 0.01, 2), (growth.FlowSpec.tk_imag(k), 1e-4, 4)]
    problems = list(growth._schedule_problems(m, schedule))
    assert [(leg, key) for leg, key, _ in problems] == [(1, "k")]
    with pytest.raises(ValueError, match=rf"^leg 1: needs k <= M \+ 1 = {m.order + 1}: an order-"):
        growth.run(m, schedule, n=128)
    assert steps == []


@pytest.mark.parametrize("bad_steps", [0, -2])
def test_run_refuses_a_leg_without_steps_before_any_step(monkeypatch, bad_steps):
    # a later leg with no steps was refused only after the earlier legs had
    # run, and without its leg index
    m = laurent.LaurentMap(1.0, [0.0, 0.1]).with_order(4)
    steps = _refuse_steps(monkeypatch)
    schedule = [(growth.FlowSpec.t0_infinity(), 0.01, 2), (growth.FlowSpec.tk_real(2), 0.01, 1),
                (growth.FlowSpec.t0_infinity(), 0.01, bad_steps)]
    with pytest.raises(ValueError, match="^leg 2: steps must be >= 1$"):
        growth.run(m, schedule, n=128)
    assert steps == []


def test_step_refuses_a_harmonic_flow_past_k_M_plus_1(monkeypatch):
    # the single step of run's refused leg
    m = laurent.LaurentMap(1.0, [0.0, 0.1]).with_order(16)
    steps = _refuse_steps(monkeypatch)
    for flow in (growth.FlowSpec.tk_real(18), growth.FlowSpec.tk_imag(18)):
        with pytest.raises(ValueError, match=r"needs k <= M \+ 1 = 17"):
            growth.step(m, flow, 0.01, n=128)
    assert steps == []
    monkeypatch.undo()
    # k = M + 1 still steps
    stepped = growth.step(m, growth.FlowSpec.tk_real(17), 1e-4, n=128)
    assert not np.array_equal(stepped.coeffs, m.coeffs)


def test_every_harmonic_leg_up_to_k_M_plus_1_moves_its_time_at_unit_rate():
    # the polynomial reduction: an order-M map runs every t_k flow up to
    # k = M + 1, whatever k M is against the grid, and each moves t_k alone
    m = laurent.LaurentMap(1.0, [0.0, 0.05, 0.02j, 0.01]).with_order(16)
    duration = 1e-4
    for k in range(1, 18):
        for flow, unit in ((growth.FlowSpec.tk_real(k), 1.0), (growth.FlowSpec.tk_imag(k), 1j)):
            traj = growth.run(m, [(flow, duration, 4)], moment_order=18, n=128)
            start, end = traj.records[0].moments, traj.records[-1].moments
            rates = (end.t - start.t) / duration
            rates[k - 1] -= unit
            assert np.abs(rates).max() <= 1e-8, (flow, rates)
            assert abs(end.t0 - start.t0) <= 1e-8 * duration


@pytest.mark.parametrize("sign, durations, bad", [
    (1, [-0.5, -0.6], [1]),  # 1 -> 0.5 -> -0.1
    (-1, [1.0], [0]),  # 1 -> 0 exactly
    (-1, [0.5, -2.0, 2.5], [2]),  # 1 -> 0.5 -> 2.5 -> 0, then the tk leg keeps it
])
def test_an_area_leg_that_ends_the_area_is_refused_at_duration(sign, durations, bad):
    # t0 = r^2 - sum_j j |a_j|^2 moves by exactly sign * duration over an area
    # leg, so a leg that takes it to zero or below is refused before any step
    m = laurent.LaurentMap(1.0, [0.0])
    flows = [growth.FlowSpec.t0_infinity(sign), growth.FlowSpec.t0_source(4.0, sign)]
    schedule = [(flows[i % 2], d, 3) for i, d in enumerate(durations)]
    schedule.append((growth.FlowSpec.tk_real(1), 5.0, 1))
    problems = list(growth._schedule_problems(m, schedule))
    assert [(leg, key) for leg, key, _ in problems] == [(leg, "duration") for leg in bad]
    with pytest.raises(ValueError, match="the area must stay positive"):
        growth.run(m, schedule)


def test_a_start_without_area_is_left_to_the_witness():
    # t0 = 1 - 2 * 0.75^2 < 0: no leg takes a positive t0 to zero, and the
    # start map fails the witness, a breakdown rather than a schedule problem
    m = laurent.LaurentMap(1.0, [0.0, 0.0, 0.75])
    schedule = [(growth.FlowSpec.t0_infinity(-1), 0.1, 1)]
    assert list(growth._schedule_problems(m, schedule)) == []
    with pytest.raises(NonUnivalentError):
        growth.run(m, schedule)


def test_a_stage_that_leaves_the_maps_names_its_step_and_leg():
    # the sink leg keeps t0 = 0.82 + 0.01 - 0.74 > 0, but its single step
    # overshoots: an RK4 stage takes r below zero
    m = laurent.LaurentMap(1.0, [0.0, 0.0, 0.3])
    schedule = [(growth.FlowSpec.t0_infinity(), 0.01, 1),
                (growth.FlowSpec.t0_infinity(-1), 0.74, 1)]
    assert list(growth._schedule_problems(m, schedule)) == []
    with pytest.raises(ValueError, match=r"^step 2 \(leg 1\): leading coefficient must be "):
        growth.run(m, schedule)


def test_step_circle_law_single_step():
    m = laurent.LaurentMap(1.0, [])
    stepped = growth.step(m, growth.FlowSpec.t0_infinity(), 0.01)
    assert_allclose(stepped.r, np.sqrt(1.01), atol=1e-10)
    assert_allclose(stepped.coeffs, 0.0, atol=1e-12)


def test_step_zero_dt_is_identity():
    m = laurent.LaurentMap(1.0, [0.1, 0.2j])
    assert growth.step(m, growth.FlowSpec.t0_infinity(), 0.0) is m


def test_step_conserves_higher_moments():
    # Richardson: d t2/dt = 0 while d t0/dt = 1 under the area flow
    m = laurent.LaurentMap(1.0, [0.0, 0.3]).with_order(8)
    before = growth.moment_vector(m, 8)
    h = 1e-3
    after = growth.moment_vector(growth.step(m, growth.FlowSpec.t0_infinity(), h), 8)
    assert abs((after.t0 - before.t0) / h - 1.0) < 1e-6
    assert np.max(np.abs(after.t - before.t)) < 1e-12


def test_step_moment_response_tk():
    m = laurent.LaurentMap(1.0, [0.0, 0.3]).with_order(8)
    before = growth.moment_vector(m, 8)
    h = 1e-3
    for k in (1, 2):
        after = growth.moment_vector(growth.step(m, growth.FlowSpec.tk_real(k), h), 8)
        rate = (after.t[k - 1] - before.t[k - 1]) / h
        assert abs(rate - 1.0) < 1e-9
        assert abs(after.t0 - before.t0) < 1e-12
    after = growth.moment_vector(growth.step(m, growth.FlowSpec.tk_imag(1), h), 8)
    assert abs((after.t[0] - before.t[0]).imag / h - 1.0) < 1e-9


def test_flow_sign_reverses_velocity():
    m = laurent.LaurentMap(1.0, [0.05])
    fwd = normal_velocity(m, growth.FlowSpec.t0_infinity())
    bwd = normal_velocity(m, growth.FlowSpec.t0_infinity(sign=-1))
    assert_allclose(bwd, -fwd)


def test_run_empty_schedule():
    m = laurent.LaurentMap(1.0, [])
    traj = growth.run(m, [])
    assert len(traj.records) == 1
    assert traj.final is m


def test_run_circle_to_t0_four():
    m = laurent.LaurentMap(1.0, np.zeros(17))
    traj = growth.run(m, [(growth.FlowSpec.t0_infinity(), 3.0, 400)], moment_order=4)
    assert abs(traj.final.r - 2.0) < 1e-6
    assert_allclose(traj.records[-1].moments.t0, 4.0, atol=1e-9)


def test_run_records_diagnostics():
    m = laurent.LaurentMap(1.0, [0.0, 0.2]).with_order(4)
    traj = growth.run(m, [(growth.FlowSpec.t0_infinity(), 0.05, 5)])
    rec = traj.records[-1]
    assert rec.diagnostics is not None
    assert rec.diagnostics.leakage < 1e-20
    assert rec.diagnostics.min_abs_zprime > 0.5


def test_run_reports_cusp_with_step_index():
    # growing a three-fold harmonic: the conserved t3 makes a2 scale as r^2,
    # so the critical points of z' reach the unit circle in finite time
    m = laurent.LaurentMap(1.0, [0.0, 0.0, 0.3]).with_order(4)
    with pytest.raises(CuspError) as err:
        growth.run(m, [(growth.FlowSpec.t0_infinity(), 3.0, 300)])
    assert "step" in str(err.value)


def test_string_residual_default_step():
    m = laurent.LaurentMap(1.0, [0.0, 0.2]).with_order(4)
    assert growth.string_residual(m) < 1e-4


def test_string_residual_circle_family():
    m = laurent.LaurentMap(1.3, np.zeros(3))
    assert growth.string_residual(m, 1e-4) < 1e-9


def test_string_residual_disk_at_default_step():
    # z = sqrt(t0) w brackets to exactly 1; only the t0 difference errs
    assert growth.string_residual(laurent.LaurentMap(1.3, [])) <= 1e-8


def test_string_residual_matches_a_horner_bracket():
    # {z, zbar} = w z_w (zbar)_t0 - z_t0 w (zbar)_w, with z and z' summed by
    # Horner off the modes, and w (zbar)_w = -conj(w z') on |w| = 1
    m = laurent.LaurentMap(1.0, [0.0, 0.3]).with_order(16)
    dt0, n = 2e-3, 128
    w = laurent.circle_grid(n)
    flow = growth.FlowSpec.t0_infinity()
    z_minus, z_plus = (laurent.evaluate(growth.step(m, flow, h, n), w) for h in (-dt0, dt0))
    z_t0 = (z_plus - z_minus) / (2.0 * dt0)
    wz_w = w * laurent.derivative(m, w)
    wzbar_w = -np.conj(wz_w)
    bracket = wz_w * np.conj(z_t0) - z_t0 * wzbar_w
    reference = float(np.max(np.abs(bracket - 1.0)))
    assert abs(growth.string_residual(m, dt0, n) - reference) <= 1e-12


def test_string_residual_fd_convergence():
    m = laurent.LaurentMap(1.0, [0.0, 0.3]).with_order(8)
    r1 = growth.string_residual(m, 2e-3)
    r2 = growth.string_residual(m, 1e-3)
    assert r1 < 1e-4
    assert r1 / r2 == pytest.approx(4.0, abs=1.0)
