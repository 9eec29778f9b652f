import numpy as np
import pytest
from numpy.testing import assert_allclose

from todaflow import laurent
from todaflow.errors import RootFindError


def test_evaluate_linear_map():
    m = laurent.LaurentMap(2.0, [])
    assert_allclose(laurent.evaluate(m, 1.0), 2.0)


def test_evaluate_direct_arithmetic():
    m = laurent.LaurentMap(1.0, [0.0, 0.5])
    assert_allclose(laurent.evaluate(m, 1j), 0.5j, atol=1e-15)


def test_evaluate_translated_circle():
    c = 0.2 - 0.1j
    m = laurent.LaurentMap(1.0, [c])
    w = np.exp(1j * np.linspace(0, 2 * np.pi, 17))
    assert_allclose(laurent.evaluate(m, w), w + c)


def test_evaluate_rejects_origin():
    m = laurent.LaurentMap(1.0, [0.1])
    with pytest.raises(ValueError):
        laurent.evaluate(m, 0.0)


def test_boundary_derivative_constant_and_term():
    w = laurent.circle_grid(128)
    assert_allclose(laurent.derivative(laurent.LaurentMap(2.0, []), w), 2.0)
    u = 0.25 + 0.1j
    m = laurent.LaurentMap(1.0, [0.0, u])
    samples = laurent.derivative(m, w)
    assert_allclose(samples, 1.0 - u * w ** -2)


def test_boundary_derivative_ellipse_minimum():
    m = laurent.LaurentMap(1.0, [0.0, 0.5])
    samples = laurent.derivative(m, laurent.circle_grid(128))
    # |1 - 0.5 e^{-2 i theta}| is minimized at theta = 0
    assert_allclose(np.min(np.abs(samples)), 0.5, atol=1e-12)
    assert np.argmin(np.abs(samples)) == 0


def test_phi_k_linear_map():
    # z**2 = 4 w**2, so A_2 = 4 w**2 and phi_2 = 8 w**2
    m = laurent.LaurentMap(2.0, [])
    w = np.array([1.0, 0.7 + 0.2j, 1.5j])
    assert_allclose(laurent.phi_k(m, 2, w), 8.0 * w ** 2, atol=1e-12)


def test_phi_k_joukowski_square():
    u = 0.3
    m = laurent.LaurentMap(1.0, [0.0, u])
    w = np.array([1.0, 0.7 + 0.2j, 1.5j])
    # z^2 = w^2 + 2u + u^2/w^2: A_2 = w^2 + u, whose free term phi_2 drops
    assert_allclose(laurent.phi_k(m, 2, w), 2.0 * w ** 2, atol=1e-12)


def test_phi_k_resolves_every_power_of_z_k():
    # z**8 of an order-16 map spans powers [-128, 8], beyond the map's default
    # 128 grid; phi_k takes a grid that holds them, so a finer one agrees
    m = laurent.LaurentMap(1.0, np.full(17, 0.01))
    w = np.array([1.0, 0.7 + 0.2j, 1.5j])
    z = laurent.evaluate(m, laurent.circle_grid(2048))
    assert_allclose(laurent.phi_k(m, 8, w), laurent._phi_values(z, 8, w), rtol=1e-13)


def test_phi_k_is_the_batched_kernel_of_one_map():
    m = laurent.LaurentMap(1.3, [0.4, 0.1j, -0.05])
    w = np.array([1.0, 0.7 + 0.2j, 1.5j])
    for k in (1, 2, 5):
        many = laurent._phi_k_many(m.r, m.coeffs, k, w)
        assert np.array_equal(laurent.phi_k(m, k, w), many)
        assert laurent.phi_k(m, k, w[1]) == many[1]


def test_phi_k_values():
    m = laurent.LaurentMap(1.3, [0.4, 0.1j])
    # A_1 = r w + a0/2 so phi_1 = r w
    assert_allclose(laurent.phi_k(m, 1, 0.7 + 0.2j), 1.3 * (0.7 + 0.2j), atol=1e-12)
    mj = laurent.LaurentMap(1.0, [0.0, 0.25])
    assert_allclose(laurent.phi_k(mj, 2, 1.0), 2.0, atol=1e-12)
    m3 = laurent.LaurentMap(2.0, [])
    assert_allclose(laurent.phi_k(m3, 3, 1j), 24j * 1j ** 2, atol=1e-11)


def test_phi_k_on_the_line_map():
    # z = w + 1/w maps the exterior disk onto the plane cut along [-2, 2]:
    # A_2 = w^2 + 1, A_3 = w^3 + 3w and A_4 = w^4 + 4w^2 + 3 from
    # z^2 = w^2 + 2 + ..., z^3 = w^3 + 3w + ... and z^4 = w^4 + 4w^2 + 6 + ...;
    # at the slit's ends w = +-1, phi_2, phi_3 and phi_4 are 2, +-6 and 12
    m = laurent.LaurentMap(1.0, [0.0, 1.0])
    w = np.array([1.0, -1.0, 0.7 + 0.2j, 1.5j])
    assert_allclose(laurent.phi_k(m, 2, w), 2 * w ** 2, atol=1e-12)
    assert_allclose(laurent.phi_k(m, 3, w), 3 * w ** 3 + 3 * w, atol=1e-12)
    assert_allclose(laurent.phi_k(m, 4, w), 4 * w ** 4 + 8 * w ** 2, atol=1e-12)


@pytest.mark.parametrize("x", [0.7 - 0.4j, np.array([0.5, -1.2 + 0.3j, 2j])],
                         ids=["python-complex", "array"])
def test_horner_matches_the_power_sum(x):
    coeffs = [0.3, -1.0 + 0.5j, 0.25j, 2.0]
    explicit = sum(c * x ** j for j, c in enumerate(coeffs))
    assert_allclose(laurent._horner(coeffs, x), explicit, rtol=1e-14)
    assert laurent._horner([], x) == 0


def test_horner_broadcasts_batched_coefficients():
    # column i holds the coefficients of the polynomial evaluated at x[i]
    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    x = np.array([0.9, -0.4 + 1.1j, 0.3j])
    explicit = [sum(coeffs[j, i] * x[i] ** j for j in range(5)) for i in range(3)]
    assert_allclose(laurent._horner(coeffs, x), explicit, rtol=1e-14)
    assert laurent._horner(np.zeros((0, 3)), x) == 0


def test_inverse_evaluate_examples():
    assert_allclose(laurent.inverse_evaluate(laurent.LaurentMap(2.0, []), 4.0), 2.0)
    c = 0.3 + 0.2j
    w0 = 1.7 - 0.4j
    m = laurent.LaurentMap(1.0, [c])
    assert_allclose(laurent.inverse_evaluate(m, w0 + c), w0, atol=1e-11)
    # ellipse: w + 0.5/w = 3 has the exterior root (3 + sqrt(7)) / 2
    me = laurent.LaurentMap(1.0, [0.0, 0.5])
    assert_allclose(laurent.inverse_evaluate(me, 3.0), (3.0 + np.sqrt(7.0)) / 2.0, atol=1e-11)


def test_inverse_evaluate_interior_point_fails():
    m = laurent.LaurentMap(1.0, [])
    with pytest.raises(RootFindError):
        laurent.inverse_evaluate(m, 0.2 + 0.1j)


def test_inverse_roundtrip_sampled_annulus():
    rng = np.random.default_rng(3)
    m = laurent.LaurentMap(1.1, [0.2, 0.15 - 0.1j, 0.05j])
    for _ in range(40):
        w = rng.uniform(1.05, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        z = laurent.evaluate(m, w)
        assert abs(laurent.inverse_evaluate(m, z) - w) < 1e-10


def test_univalence_witness_flags_cusp():
    ok, *_ = laurent.univalence_witness(laurent.LaurentMap(1.0, [0.0, 0.3]))
    assert ok
    # z = w + 0.5/w^2 has z'(1) = 0: boundary cusp at theta = 0
    bad, _, min_zp, theta = laurent.univalence_witness(laurent.LaurentMap(1.0, [0.0, 0.0, 0.5]))
    assert not bad
    assert min_zp < 1e-8
    assert theta == 0.0


def test_univalence_witness_flags_escaped_critical_point():
    # z = w + 0.7/w^2 keeps |z'| > 0 on the circle but its critical points
    # sit at |w| = 1.4^(1/3) > 1: the boundary has folded over
    bad, _, min_zp, _ = laurent.univalence_witness(laurent.LaurentMap(1.0, [0.0, 0.0, 0.7]))
    assert not bad
    assert min_zp > 1e-3  # the sampled derivative alone would not catch it
    crit = laurent.critical_points(laurent.LaurentMap(1.0, [0.0, 0.0, 0.7]))
    assert np.max(np.abs(crit)) == pytest.approx(1.4 ** (1 / 3), rel=1e-12)


def test_univalence_witness_flags_self_crossing_boundary():
    # all critical points lie inside the disk (|c| <= 0.955) and the grid
    # images are well separated, yet the boundary crosses itself: the exact
    # area r^2 - sum_j j |a_j|^2 = -0.01 is negative
    m = laurent.LaurentMap(1.0, [0.0, -0.9, -0.2j, -0.2])
    assert np.max(np.abs(laurent.critical_points(m))) < 1.0
    ok, min_sep, min_zp, _ = laurent.univalence_witness(m)
    assert not ok
    assert min_sep > 1e-3 and min_zp > 1e-3


def _critical_points_inside(m):
    return bool(np.all(np.abs(laurent.critical_points(m)) < 1.0 - 1e-9))


def test_schur_cohn_decision_matches_the_roots():
    # order-16 maps with sum_j j |a_j| from 0.5 r to 3 r: below r every
    # critical point is inside, above it about half of the maps have one out
    rng = np.random.default_rng(16)
    j = np.arange(1, 17)
    decisions = []
    for _ in range(1500):
        r = rng.uniform(0.5, 2.0)
        tail = rng.dirichlet(np.ones(16)) * rng.uniform(0.5, 3.0) * r / j
        coeffs = np.concatenate([rng.normal(size=1), tail]) * np.exp(
            2j * np.pi * rng.uniform(size=17))
        m = laurent.LaurentMap(r, coeffs)
        inside = laurent._zeros_inside(laurent._critical_polynomial(m), 1.0 - 1e-9)
        assert inside == _critical_points_inside(m), m
        decisions.append(inside)
    assert 300 < sum(decisions) < 1200  # both outcomes are well represented


@pytest.mark.parametrize("radius, inside", [(1.0 - 1e-6, True), (1.0 + 1e-6, False)])
def test_schur_cohn_decides_critical_points_near_the_circle(radius, inside):
    # z = w + a2/w^2 has its three critical points at |w| = (2 |a2|)^(1/3)
    m = laurent.LaurentMap(1.0, [0.0, 0.0, 0.5 * radius ** 3])
    assert np.abs(laurent.critical_points(m)) == pytest.approx(radius, abs=1e-12)
    assert _critical_points_inside(m) is inside
    assert laurent._zeros_inside(laurent._critical_polynomial(m), 1.0 - 1e-9) is inside
    ok, _, min_zp, _ = laurent.univalence_witness(m)
    assert min_zp > 1e-8  # the grid alone passes both maps
    assert ok == inside


def test_schur_cohn_keeps_the_margin_inside_the_circle():
    # critical points at |w| = 1 - 1e-10 are inside the circle but not
    # inside the witness's radius 1 - 1e-9
    m = laurent.LaurentMap(1.0, [0.0, 0.0, 0.5 * (1.0 - 1e-10) ** 3])
    poly = laurent._critical_polynomial(m)
    assert laurent._zeros_inside(poly, 1.0)
    assert not laurent._zeros_inside(poly, 1.0 - 1e-9)


@pytest.mark.parametrize("order", [1, 2, 3, 8, 16, 33, 64])
def test_critical_bound_implies_the_schur_cohn_decision(order):
    # the witness skips Schur-Cohn wherever r - rho^-(M+1) sum_j j |a_j| > 0;
    # maps with sum_j j |a_j| from 0.2 r to 1.5 r, and maps 1e-11 inside and
    # outside the bound: a lone top term (critical points on a circle) and
    # aligned real terms (a critical point on the real axis), the tight cases
    rho = 1.0 - 1e-9
    limit = rho ** (order + 1) / (1.0 + 1e-12)  # the largest sum_j j |a_j| / r that passes
    rng = np.random.default_rng(order)
    j = np.arange(1, order + 1)
    lone = np.zeros(order)
    lone[-1] = 1.0 / order
    cases = []
    for share in rng.uniform(0.2, 1.5, 200):
        tail = rng.dirichlet(np.ones(order)) / j * np.exp(2j * np.pi * rng.uniform(size=order))
        cases.append((share, tail, None))
    for tail in (lone * np.exp(0.7j), rng.dirichlet(np.ones(order)) / j):
        cases += [(limit * (1.0 - 1e-11), tail, True), (limit * (1.0 + 1e-11), tail, False)]
    held = 0
    for share, tail, expected in cases:
        r = rng.uniform(0.5, 2.0)
        m = laurent.LaurentMap(r, np.concatenate([rng.normal(size=1), share * r * tail]))
        bound = laurent._critical_bound(m, rho, laurent._derivative_weight(m))
        assert expected is None or bound is expected
        if bound:
            held += 1
            assert laurent._zeros_inside(laurent._critical_polynomial(m), rho), m
    assert 40 < held < 180


@pytest.mark.parametrize("n", [128, 256])
def test_witness_separation_is_the_all_pairs_minimum(n):
    # each unordered pair once, |z[i + k] - z[i]| for k = 1 .. n/2, against the
    # full matrix: |a - b| == |b - a| exactly, so the minima agree to the bit;
    # tails up to twice the univalence bound give crossings and near-collisions,
    # and the hourglass w - 0.9/w - 0.099/w^3 has its 0.002 wide waist between
    # opposite nodes (k = n/2)
    rng = np.random.default_rng(n)
    maps = [laurent.LaurentMap(1.0, [0.0, -0.9, 0.0, -0.099])]
    for _ in range(30):
        order = int(rng.integers(0, n // 4))
        r = rng.uniform(0.5, 2.0)
        tail = rng.dirichlet(np.ones(order)) * rng.uniform(0.0, 2.0) * r / np.arange(1, order + 1)
        coeffs = np.concatenate([rng.normal(size=1), tail]) * np.exp(
            2j * np.pi * rng.uniform(size=order + 1))
        maps.append(laurent.LaurentMap(r, coeffs))
    for m in maps:
        z, _ = laurent._grid_values(m, n)
        dist = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(dist, np.inf)
        assert laurent.univalence_witness(m, n)[1] == dist.min()


# ROADMAP item 7's map: its boundary loops, yet the witness passes it
LOOPED = laurent.LaurentMap(1.0, [0, 0.7372 + 0.2204j, -0.2154 - 0.0896j,
                                  -0.0367 + 0.0529j, 0.0668 + 0.0668j])


@pytest.mark.parametrize("n", [128, 256])
def test_witness_neighbour_rule_keeps_the_all_pairs_minimum(n):
    # maps with S = sum_j j |a_j| from 0 to 0.6 r straddle the rule's
    # 2 cos(pi/n) (r - S) > r + S (S < 0.333 r at n = 128); a_0 up to 50 r
    # moves the grid values' rounding but not the separations
    rng = np.random.default_rng(n + 1)
    maps = [LOOPED]
    for _ in range(600):
        order = int(rng.integers(0, 17))
        r = rng.uniform(0.5, 2.0)
        j = np.arange(1, order + 1)
        tail = rng.dirichlet(np.ones(order)) * rng.uniform(0.0, 0.6) * r / j if order else []
        a0 = rng.normal() * rng.choice([0.0, 1.0, 50.0]) * r
        coeffs = np.concatenate([[a0], tail]) * np.exp(2j * np.pi * rng.uniform(size=order + 1))
        maps.append(laurent.LaurentMap(r, coeffs))
    nearest = []
    for m in maps:
        z, _ = laurent._grid_values(m, n)
        dist = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(dist, np.inf)
        assert laurent.univalence_witness(m, n)[1] == dist.min(), m
        nearest.append(laurent._neighbours_nearest(m, n, laurent._derivative_weight(m)))
    assert not nearest[0]  # the looped map takes the pair table
    assert 150 < sum(nearest) < 450  # both sides of the rule are well represented


def test_witness_locates_the_escaped_critical_point_only_on_failure(monkeypatch):
    calls = []
    roots = laurent.critical_points

    def counted(m):
        calls.append(m)
        return roots(m)

    monkeypatch.setattr(laurent, "critical_points", counted)
    ok, *_ = laurent.univalence_witness(laurent.LaurentMap(1.0, [0.0, 0.1, 0.05j]))
    assert ok and calls == []
    # the critical points of w + 0.7 e^(0.3 i)/w^2 are the cube roots of 1.4 e^(0.3 i)
    bad, _, _, theta = laurent.univalence_witness(
        laurent.LaurentMap(1.0, [0.0, 0.0, 0.7 * np.exp(0.3j)]))
    assert not bad and len(calls) == 1
    assert np.exp(3j * theta) == pytest.approx(np.exp(0.3j), abs=1e-12)


@pytest.mark.parametrize("order, n", [(0, 128), (3, 16), (16, 128), (40, 256)])
def test_grid_values_match_horner(order, n):
    # random univalent maps: sum_j j |a_j| <= r / 2 keeps |z'| >= r / 2 > 0
    rng = np.random.default_rng(order + n)
    w = laurent.circle_grid(n)
    j = np.arange(1, order + 1)
    for _ in range(10):
        r = rng.uniform(0.5, 2.0)
        tail = rng.dirichlet(np.ones(order)) * 0.5 * r / j if order else np.zeros(0)
        coeffs = np.concatenate([rng.normal(size=1), tail]) * np.exp(
            2j * np.pi * rng.uniform(size=order + 1))
        m = laurent.LaurentMap(r, coeffs)
        z, wzp = laurent._grid_values(m, n)
        assert_allclose(z, laurent.evaluate(m, w), rtol=0, atol=1e-13)
        assert_allclose(wzp, w * laurent.derivative(m, w), rtol=0, atol=1e-13)


def test_grid_validation():
    with pytest.raises(ValueError):
        laurent.circle_grid(100)  # not a power of two
    m = laurent.LaurentMap(1.0, np.zeros(17))
    with pytest.raises(ValueError):
        laurent.univalence_witness(m, n=32)  # below 4*(M+1)


def test_default_grid_size_scales_with_order():
    assert laurent.default_grid_size(16) == 128
    assert laurent.default_grid_size(40) == 256
