import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from todaflow import cli, hydro, loewner
from todaflow.errors import ShockError


def upwind_oracle(q0_fn, c_fn, s_end, lo, hi, nx, ds):
    """First-order upwind marching of dq/ds = c(q) dq/dt0 on a fine grid.

    Plain explicit scheme in the form u_s + a(u) u_x = 0 with a = -c; the
    domain must be wide enough that boundary extrapolation cannot reach the
    comparison window.
    """
    x = np.linspace(lo, hi, nx)
    dx = x[1] - x[0]
    q = q0_fn(x)
    s = 0.0
    while s < s_end - 1e-15:
        step = min(ds, s_end - s)
        a = -c_fn(q)
        dplus = np.empty_like(q)
        dminus = np.empty_like(q)
        dplus[:-1] = (q[1:] - q[:-1]) / dx
        dplus[-1] = dplus[-2]
        dminus[1:] = (q[1:] - q[:-1]) / dx
        dminus[0] = dminus[1]
        q = q - step * np.where(a > 0, a * dminus, a * dplus)
        s += step
    return x, q


def test_profile_validation():
    with pytest.raises(ValueError):
        hydro.Profile([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        hydro.Profile([0.0, 1.0], [1.0, np.inf])


def test_constant_speed_is_translation():
    # rigid translation of the interpolated profile, exact by construction
    grid = np.linspace(0.0, 2.0, 81)
    prof = hydro.Profile(grid, np.sin(grid))
    out = hydro.solve_characteristics(prof, lambda q: 0.4, 0.3)
    assert_allclose(out.q_values, prof.value(grid + 0.4 * 0.3), atol=1e-12)


def test_zero_duration_is_identity():
    grid = np.linspace(0.0, 1.0, 21)
    prof = hydro.Profile(grid, grid ** 2)
    out = hydro.solve_characteristics(prof, lambda q: q, 0.0)
    assert_allclose(out.q_values, prof.q_values)


def test_burgers_exact_solution():
    grid = np.linspace(0.1, 1.0, 46)
    prof = hydro.Profile(grid, grid.copy())
    out = hydro.solve_characteristics(prof, lambda q: q, 0.5)
    assert_allclose(out.q_values, grid / 0.5, atol=1e-10)
    # the solve reports the s* it was bounded by
    assert out.s_star == hydro.shock_time(prof, lambda q: q)


def test_burgers_against_upwind_oracle():
    grid = np.linspace(0.1, 0.9, 41)
    prof = hydro.Profile(grid, grid.copy())
    out = hydro.solve_characteristics(prof, lambda q: q, 0.5)
    x, qo = upwind_oracle(lambda t: t, lambda q: q, 0.5, 0.02, 3.0, 3000, 5e-5)
    assert np.max(np.abs(np.interp(grid, x, qo) - out.q_values)) < 1e-3


def test_characteristic_residual():
    grid = np.linspace(-1.0, 1.0, 61)
    prof = hydro.Profile(grid, 0.3 * np.cos(grid))
    speed = lambda q: q * q + 0.1
    out = hydro.solve_characteristics(prof, speed, 0.4)
    for t0, q in zip(grid, out.q_values):
        assert abs(q - prof.value(t0 + speed(q) * 0.4)) < 1e-10


def test_semigroup_property():
    # composition re-interpolates once; away from the grid edges (where the
    # PCHIP endpoint slopes are lower order) it agrees with the single solve
    grid = np.linspace(-1.0, 1.0, 401)
    prof = hydro.Profile(grid, 0.2 * np.sin(grid))
    speed = lambda q: q
    s1, s2 = 0.2, 0.15
    once = hydro.solve_characteristics(prof, speed, s1 + s2)
    comp = hydro.solve_characteristics(hydro.solve_characteristics(prof, speed, s1), speed, s2)
    interior = slice(8, -8)
    assert np.max(np.abs(once.q_values[interior] - comp.q_values[interior])) < 1e-8


def test_shock_time_cases():
    grid = np.linspace(-2.0, 2.0, 101)
    # constant speed never shocks
    assert hydro.shock_time(hydro.Profile(grid, grid.copy()), lambda q: 1.0) == np.inf
    # c(q) = q with rising initial data: s* = 1
    assert hydro.shock_time(hydro.Profile(grid, grid.copy()), lambda q: q) == pytest.approx(1.0, abs=1e-6)
    # sine data: max slope of the composite speed is 1
    assert hydro.shock_time(hydro.Profile(grid, np.sin(grid)), lambda q: q) == pytest.approx(1.0, abs=1e-4)


def test_solver_refuses_past_shock():
    grid = np.linspace(0.1, 1.0, 31)
    prof = hydro.Profile(grid, grid.copy())
    with pytest.raises(ShockError) as err:
        hydro.solve_characteristics(prof, lambda q: q, 1.0)
    assert err.value.s_star == pytest.approx(1.0, abs=1e-6)


def test_characteristic_speed_k1_closed_form():
    drv = loewner.DrivingFunction.piecewise_linear([(0.0, 0.0), (1.0, 0.6)])
    fam = loewner.default_family(0.0, 0.5, drv)
    for q in (0.1, 0.3, 0.45):
        got = hydro.characteristic_speed(1, fam, q)
        assert got == 2.0 * np.exp(q) * np.cos(drv.theta(q))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("q", [-0.1, 0.6, np.array([0.2, 0.7])])
def test_characteristic_speed_refuses_q_outside_the_family(k, q):
    # k = 1 had its own closed form, which evaluated any q
    fam = loewner.default_family(0.0, 0.5, loewner.DrivingFunction.constant(0.3))
    with pytest.raises(ValueError, match="outside family range"):
        hydro.characteristic_speed(k, fam, q)


def test_characteristic_speed_k1_quarter_turn_vanishes():
    drv = loewner.DrivingFunction.constant(np.pi / 2)
    fam = loewner.default_family(0.0, 0.5, drv)
    assert abs(hydro.characteristic_speed(1, fam, 0.2)) < 1e-15


def test_profile_csv_roundtrip(tmp_path):
    grid = np.linspace(0.0, 1.0, 11)
    prof = hydro.Profile(grid, np.cos(grid))
    path = tmp_path / "profile.csv"
    # the CLI's encoder, as a hydro run writes profile.csv
    path.write_bytes(cli._encode(path.name, (
        ["t0", "q"], [[float(t0), float(q)] for t0, q in zip(prof.grid, prof.q_values)])))
    back = hydro.read_profile_csv(path)
    assert_array_equal(back.grid, prof.grid)  # repr round-trips every float
    assert_array_equal(back.q_values, prof.q_values)


def test_speed_csv_table(tmp_path):
    path = tmp_path / "speed.csv"
    path.write_text("q,c\n0.0,1.0\n1.0,3.0\n")
    speed = hydro.read_speed_csv(path)
    assert speed(0.5) == pytest.approx(2.0)
    # rows in any order are sorted, a repeated q is refused
    path.write_text("q,c\n1.0,3.0\n0.0,1.0\n")
    assert_allclose(hydro.read_speed_csv(path)(np.array([0.25, 0.5])), [1.5, 2.0])
    path.write_text("q,c\n0.0,1.0\n0.5,2.0\n0.5,2.5\n1.0,3.0\n")
    with pytest.raises(ValueError):
        hydro.read_speed_csv(path)


def test_characteristic_speed_k2_generating_oracle():
    # oracle: phi_k(eta)/k are the expansion coefficients of
    # eta / (w(z) - eta) in 1/z on a large circle
    drv = loewner.DrivingFunction.piecewise_linear([(0.0, 0.0), (1.0, 0.6)])
    fam = loewner.default_family(0.0, 0.5, drv)
    q = 0.3
    radius = 3.0 * np.exp(q)
    nfft = 256
    zs = radius * np.exp(2j * np.pi * np.arange(nfft) / nfft)
    res = loewner.advance_many(zs / fam.r0, fam.q0, q, drv)
    eta = drv.eta(q)
    modes = np.fft.fft(eta / (res.w - eta)) / nfft
    for k in range(2, 7):
        phi_k = k * modes[-k % nfft] * radius ** k
        oracle = 2.0 * phi_k.real
        got = hydro.characteristic_speed(k, fam, q)
        assert type(got) is float  # a scalar q gives a float, so a speed table is plain JSON
        assert abs(got - oracle) < 1e-13 * abs(oracle)


def constant_driving_c2(q, theta0, q0=0.0):
    """c_2 of the slit grown from the disk under constant driving: a_0 = 2 eta (1 - e^-(q-q0))."""
    return 2.0 * np.exp(2.0 * q) * np.cos(2.0 * theta0) * (6.0 - 4.0 * np.exp(-(q - q0)))


@pytest.mark.parametrize("theta0", [0.0, 0.7, -2.1])
def test_constant_driving_speed_closed_form(theta0):
    family = loewner.default_family(0.2, 1.5, loewner.DrivingFunction.constant(theta0))
    qs = np.linspace(0.2, 1.5, 14)
    exact = constant_driving_c2(qs, theta0, q0=0.2)
    assert_allclose(hydro.characteristic_speed(2, family, qs), exact, rtol=1e-14, atol=1e-14)
    assert_allclose(hydro.family_speed(2, family)(qs), exact, rtol=1e-14, atol=1e-14)


FAMILY_SPEED_CASES = {
    "constant": (loewner.DrivingFunction.constant(0.7), 0.5),
    "linear": (loewner.DrivingFunction.piecewise_linear([(0.0, 0.0), (1.0, 0.6)]), 0.5),
    "knots": (loewner.DrivingFunction.piecewise_linear([(0.0, 0.0), (0.25, 0.4), (0.5, 0.1)]),
              0.5),
    "brownian": (loewner.DrivingFunction.brownian(0.4, 3, q_range=(0.0, 0.5)), 0.5),
    "q_max_1": (loewner.DrivingFunction.constant(0.0), 1.0),
}


@pytest.mark.parametrize("driving, q_max", FAMILY_SPEED_CASES.values(),
                         ids=FAMILY_SPEED_CASES)
def test_family_speed_matches_characteristic_speed(driving, q_max):
    family = loewner.default_family(0.0, q_max, driving)
    speed = hydro.family_speed(2, family)
    qs = np.random.default_rng(8).uniform(0.0, q_max, 30)
    exact = hydro.characteristic_speed(2, family, qs)
    assert_allclose(speed(qs), exact, rtol=1e-13, atol=0)
    # clamped to the family's range
    assert np.array_equal(speed(np.array([-1.0, q_max + 1.0])), speed(np.array([0.0, q_max])))


def test_family_speed_of_a_long_straight_slit():
    # the tip nears the Koebe bound 4 e^q; the modes need no circle outside it
    family = loewner.default_family(0.0, 2.5, loewner.DrivingFunction.constant(0.0))
    qs = np.array([1.0, 2.0, 2.45])
    assert_allclose(hydro.family_speed(2, family)(qs), constant_driving_c2(qs, 0.0),
                    rtol=1e-14, atol=0)


def test_family_speed_k1_is_the_closed_form_without_a_sweep(monkeypatch):
    driving = loewner.DrivingFunction.piecewise_linear([(0.0, 0.0), (0.25, 0.4), (0.5, 0.1)])
    family = loewner.default_family(0.0, 0.5, driving)

    def no_sweep(*args, **kwargs):
        raise AssertionError("the k = 1 speed swept the Loewner flow")

    monkeypatch.setattr(loewner, "advance_many", no_sweep)
    speed = hydro.family_speed(1, family)
    qs = np.random.default_rng(9).uniform(-0.5, 1.0, 40)
    assert np.any(qs < 0.0) and np.any(qs > 0.5)
    # the mode path at k = 1, phi_1 = r w, gives the closed form's bits
    clamped = np.clip(qs, 0.0, 0.5)
    assert np.array_equal(speed(qs), 2.0 * np.exp(clamped) * np.cos(driving.theta(clamped)))


def _bisect_reference(g, q_seed, g_seed):
    """The scalar expand-and-bisect fallback that ``hydro._bracket`` vectorizes."""
    span = max(1.0, abs(q_seed))
    for _ in range(60):
        lo, hi = q_seed - span, q_seed + span
        glo, ghi = g(lo), g(hi)
        if np.isfinite(glo) and np.isfinite(ghi) and glo * ghi <= 0:
            break
        span *= 2.0
    else:
        return q_seed, g_seed
    for _ in range(8):
        mid = 0.5 * (lo + hi)
        gmid = g(mid)
        if glo * gmid <= 0:
            hi = mid
        else:
            lo, glo = mid, gmid
    mid = 0.5 * (lo + hi)
    return mid, g(mid)


def test_bracket_matches_the_scalar_fallback():
    # roots near, far and very far from their seeds, and one residual without a root
    roots = np.array([0.3, 5.7, -40.2, 3e6, np.nan])

    def g(q, t0):
        r = roots[np.asarray(t0, dtype=int)]
        return np.where(np.isnan(r), q * q + 1.0, (q - r) * (1.0 + 0.01 * q * q))

    t0 = np.arange(len(roots), dtype=float)
    seeds = np.array([0.0, 1.0, 2.0, -0.5, 0.5])
    q, gq = hydro._bracket(g, t0, seeds, g(seeds, t0))
    for i in range(len(roots)):
        expected = _bisect_reference(lambda v: g(v, t0[i]), seeds[i], g(seeds[i], t0[i]))
        assert (q[i], gq[i]) == expected
    assert q[-1] == seeds[-1]
