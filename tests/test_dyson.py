import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eigvalsh_tridiagonal

from todaflow import dyson


def hermite_gas_oracle(n_particles, hbar):
    """Exact 1D minimizer: scaled Gauss-Hermite points.

    The stationarity condition sum_{m != j} 1/(x_j - x_m) = x_j / (2 hbar) is
    solved exactly by sqrt(2 hbar) times the roots of the Hermite polynomial,
    i.e. the eigenvalues of its symmetric tridiagonal Jacobi matrix.
    """
    off = np.sqrt(np.arange(1, n_particles) / 2.0)
    return np.sqrt(2.0 * hbar) * eigvalsh_tridiagonal(np.zeros(n_particles), off)


@pytest.mark.parametrize("kwargs", [{"max_iterations": 0}, {"burn_in": -1}])
def test_schedule_rejects_invalid_settings(kwargs):
    with pytest.raises(ValueError):
        dyson.Schedule(**kwargs)


def test_energy_two_charges():
    cfg = dyson.GasConfig(N=2, hbar=1.0, seed=0)
    e = dyson.energy(np.array([1.0 + 0j, -1.0 + 0j]), cfg)
    assert_allclose(e, -2.0 * np.log(2.0) + 2.0, atol=1e-14)


def test_energy_single_particle_completed_square():
    t1 = 0.4 - 0.2j
    cfg = dyson.GasConfig(N=1, hbar=0.7, times=[t1], seed=0)
    z_star = np.conj(t1)
    assert_allclose(dyson.energy(np.array([z_star]), cfg), -abs(t1) ** 2 / 0.7, atol=1e-14)
    # any other point costs more
    assert dyson.energy(np.array([z_star + 0.3]), cfg) > dyson.energy(np.array([z_star]), cfg)


def test_energy_translation_covariance():
    rng = np.random.default_rng(2)
    cfg = dyson.GasConfig(N=5, hbar=0.5, seed=0)
    z = rng.normal(size=5) + 1j * rng.normal(size=5)
    c = 0.3 - 0.7j
    lhs = dyson.energy(z + c, cfg) - dyson.energy(z, cfg)
    rhs = (2.0 * np.real(np.conj(c) * np.sum(z)) + 5 * abs(c) ** 2) / 0.5
    assert_allclose(lhs, rhs, atol=1e-10)


def test_energy_scaling_identity():
    rng = np.random.default_rng(4)
    cfg = dyson.GasConfig(N=6, hbar=0.3, seed=0)
    z = rng.normal(size=6) + 1j * rng.normal(size=6)
    lam = 1.7
    pair0 = dyson.energy(z, cfg) - np.sum(np.abs(z) ** 2) / 0.3
    expected = pair0 - 6 * 5 * np.log(lam) + lam ** 2 * np.sum(np.abs(z) ** 2) / 0.3
    assert_allclose(dyson.energy(lam * z, cfg), expected, atol=1e-9)


def test_energy_coincident_sentinel():
    cfg = dyson.GasConfig(N=2, hbar=1.0, seed=0)
    assert dyson.energy(np.array([0.5 + 0j, 0.5 + 0j]), cfg) == np.inf


def test_forces_vanish_at_single_particle_minimum():
    t1 = 0.25 + 0.1j
    cfg = dyson.GasConfig(N=1, hbar=0.5, times=[t1], seed=0)
    f = dyson.forces(np.array([np.conj(t1)]), cfg)
    assert_allclose(f, 0.0, atol=1e-14)


def test_forces_antisymmetric_pair():
    cfg = dyson.GasConfig(N=2, hbar=0.5, seed=0)
    z = np.array([0.8 + 0j, -0.8 + 0j])
    f = dyson.forces(z, cfg)
    assert_allclose(f[0], -f[1], atol=1e-14)


def test_forces_match_energy_finite_difference():
    rng = np.random.default_rng(11)
    cfg = dyson.GasConfig(N=6, hbar=0.5, times=[0.1, 0.05j], seed=0)
    z = rng.normal(size=6) + 1j * rng.normal(size=6)
    grad = -dyson.forces(z, cfg)
    delta = rng.normal(size=6) + 1j * rng.normal(size=6)
    errs = []
    for eps in (1e-4, 5e-5):
        lhs = dyson.energy(z + eps * delta, cfg) - dyson.energy(z, cfg)
        pred = 2.0 * np.real(eps * np.sum(delta * np.conj(grad)))
        errs.append(abs(lhs - pred))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)  # O(eps^2) remainder


def test_curve_forces_match_energy_finite_difference():
    # a table that is not parametrized by arc length: the force must use
    # dz/ds, not the unit tangent
    table_s = np.linspace(-2.0, 2.0, 81)
    curve = dyson.CurveSpec(kind="parametric", s_table=table_s,
                            z_table=table_s + 0.3j * table_s ** 2)
    hbar = 0.2
    cfg = dyson.GasConfig(N=4, hbar=hbar, times=[0.1j], measure="curve", curve=curve,
                          confine=lambda s: np.asarray(s) ** 2 / (2 * hbar), seed=0)
    s = np.array([-1.21, -0.37, 0.42, 1.13])  # each at least 0.01 from a node
    force = np.real(dyson.forces(dyson.GasState(curve.point(s), s), cfg) * np.conj(curve.tangent(s)))
    eps = 1e-5
    for j in range(4):
        up, down = s.copy(), s.copy()
        up[j] += eps
        down[j] -= eps
        slope = (dyson.energy(dyson.GasState(curve.point(up), up), cfg)
                 - dyson.energy(dyson.GasState(curve.point(down), down), cfg)) / (2 * eps)
        assert slope == pytest.approx(-force[j], rel=1e-5, abs=1e-6)


def test_minimize_single_particle():
    cfg = dyson.GasConfig(N=1, hbar=1.0, times=[0.3], seed=3)
    state = dyson.minimize(cfg)
    assert state.converged
    assert_allclose(state.positions[0], 0.3, atol=1e-9)


def real_line_gas(n_particles, seed, **schedule):
    hbar = 1.0 / n_particles
    return dyson.GasConfig(
        N=n_particles, hbar=hbar, measure="curve", curve=dyson.CurveSpec.real_line(),
        confine=lambda s: s ** 2 / (2 * hbar), seed=seed, schedule=dyson.Schedule(**schedule),
    )


@pytest.mark.parametrize("cfg", [
    dyson.GasConfig(N=32, hbar=1 / 32, seed=7),
    real_line_gas(32, seed=7),
], ids=["plane", "real_line"])
def test_minimize_energy_monotone(cfg):
    state = dyson.minimize(cfg)
    energies = [e for _, e, _ in state.trace]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


def test_minimize_circular_law_small():
    cfg = dyson.GasConfig(N=64, hbar=1 / 64, seed=7)
    state = dyson.minimize(cfg)
    assert state.converged
    assert 0.9 <= np.max(np.abs(state.positions)) <= 1.02


@pytest.mark.parametrize("cfg", [
    dyson.GasConfig(N=24, hbar=1 / 24, seed=6),
    real_line_gas(24, seed=6),
], ids=["plane", "real_line"])
def test_minimize_deterministic(cfg):
    a, b = dyson.minimize(cfg), dyson.minimize(cfg)
    assert np.array_equal(a.positions, b.positions)
    assert a.energy == b.energy and a.iterations == b.iterations


def test_minimize_semicircle_against_tridiagonal_oracle():
    n_particles, hbar = 48, 1.0 / 48
    cfg = dyson.GasConfig(
        N=n_particles, hbar=hbar, measure="curve", curve=dyson.CurveSpec.real_line(),
        confine=lambda s: s ** 2 / (2 * hbar), seed=4,
        schedule=dyson.Schedule(max_iterations=40000),
    )
    state = dyson.minimize(cfg)
    assert state.converged
    oracle = hermite_gas_oracle(n_particles, hbar)
    assert_allclose(np.sort(state.params), oracle, atol=1e-6)


def test_minimize_real_line_iteration_budget():
    # steepest descent needed 585 iterations here; L-BFGS-B needs under 100
    state = dyson.minimize(real_line_gas(128, seed=1))
    assert state.converged
    assert state.iterations <= 400
    assert_allclose(np.sort(state.params), hermite_gas_oracle(128, 1.0 / 128), atol=1e-6)


def test_minimize_curve_reports_non_convergence(caplog):
    with caplog.at_level("WARNING", logger="todaflow.dyson"):
        state = dyson.minimize(real_line_gas(32, seed=2, max_iterations=3))
    assert not state.converged
    assert state.iterations == 3
    assert np.all(np.isfinite(state.positions)) and np.isfinite(state.energy)
    assert "did not converge" in caplog.text


@pytest.mark.filterwarnings("error")
def test_minimize_ray_wall_saturates():
    hbar = 0.05
    cfg = dyson.GasConfig(
        N=16, hbar=hbar, times=[-0.8], measure="curve",
        curve=dyson.CurveSpec.ray(0.5 + 0j, 1.0),
        confine=lambda s: s ** 2 / (2 * hbar), seed=5,
        schedule=dyson.Schedule(max_iterations=30000, tolerance=1e-4 * 16 / hbar),
    )
    # projected quasi-Newton steps put several particles on the wall at once
    # here; such a trial point must cost +inf without a singular force kernel
    state = dyson.minimize(cfg)
    assert state.converged
    gaps = np.abs(state.positions[:, None] - state.positions[None, :])[np.triu_indices(16, 1)]
    assert gaps.min() > dyson.MIN_SEPARATION
    support = dyson.support_boundary(state, cfg)
    assert support.s_min == 0.0
    assert support.s_max > 0.0


@pytest.mark.filterwarnings("error")
def test_minimize_parametric_walls():
    # the table is narrower than the droplet, so particles press against
    # both ends; trial points that stack them on a wall must not stall the run
    table_s = np.linspace(-0.5, 0.5, 11)
    curve = dyson.CurveSpec(kind="parametric", s_table=table_s, z_table=table_s.astype(complex))
    hbar = 1.0 / 20
    cfg = dyson.GasConfig(N=20, hbar=hbar, measure="curve", curve=curve,
                          confine=lambda s: np.asarray(s) ** 2 / (2 * hbar), seed=3)
    state = dyson.minimize(cfg)
    assert state.converged
    s = np.sort(state.params)
    assert s[0] == -0.5 and s[-1] == 0.5
    assert np.all(np.diff(s) > dyson.MIN_SEPARATION)


def test_metropolis_single_particle_variance():
    cfg = dyson.GasConfig(N=1, hbar=0.5, seed=21,
                          schedule=dyson.Schedule(proposal_scale=0.5))
    run = dyson.metropolis(cfg, 6000)
    vals = np.array([abs(s.positions[0]) ** 2 for s in run.samples])
    assert vals.mean() == pytest.approx(0.5, rel=0.1)  # Gaussian oracle: mean = hbar
    assert 0.01 <= run.acceptance <= 0.99


def test_metropolis_reproducible():
    cfg = dyson.GasConfig(N=8, hbar=0.2, seed=9)
    a = dyson.metropolis(cfg, 60)
    b = dyson.metropolis(cfg, 60)
    assert a.acceptance == b.acceptance
    assert all(np.array_equal(x.positions, y.positions) for x, y in zip(a.samples, b.samples))


def test_metropolis_concentrates_at_small_hbar():
    t0 = 1.0
    spreads = {}
    for hbar in (0.1, 0.02):
        n_particles = int(round(t0 / hbar))
        cfg = dyson.GasConfig(N=n_particles, hbar=hbar, seed=13)
        ref = dyson.minimize(cfg)
        run = dyson.metropolis(cfg, 150)
        dists = []
        for sample in run.samples[-30:]:
            d = np.abs(sample.positions[:, None] - ref.positions[None, :])
            dists.append(np.mean(d.min(axis=1)))
        spreads[hbar] = np.mean(dists)
    assert spreads[0.02] < spreads[0.1]


def test_support_boundary_synthetic_ring():
    radius = 1.7
    n_pts = 96
    z = radius * np.exp(2j * np.pi * np.arange(n_pts) / n_pts)
    cfg = dyson.GasConfig(N=n_pts, hbar=1.0 / n_pts, seed=0)
    state = dyson.GasState(z)
    raw = dyson.support_boundary(state, cfg, edge_correction=False)
    # within bin tolerance: the [1,2,1]/4 smoothing of ring points pulls the
    # polyline inward by at most ~(bin angle)^2/4
    assert_allclose(np.abs(raw.boundary), radius, rtol=2e-2)
    corrected = dyson.support_boundary(state, cfg)
    assert_allclose(np.abs(corrected.boundary),
                    np.abs(raw.boundary) + np.mean(np.abs(raw.boundary)) / np.sqrt(n_pts),
                    rtol=1e-12)


def test_support_boundary_bin_reduction():
    # 12 spread-out particles cannot fill 32 bins; the estimator halves the
    # bin count until every bin is occupied
    z = 1.0 * np.exp(2j * np.pi * np.arange(12) / 12)
    cfg = dyson.GasConfig(N=12, hbar=1.0 / 12, seed=0)
    support = dyson.support_boundary(dyson.GasState(z), cfg, bins=32)
    assert support.boundary is not None
    assert len(support.boundary) < 32


def test_parametric_curve_matches_real_line_segment():
    # a parametric table sampling the real axis must reproduce the real-line
    # energy for configurations inside the table's range
    table_s = np.linspace(-3.0, 3.0, 61)
    curve = dyson.CurveSpec(kind="parametric", s_table=table_s, z_table=table_s.astype(complex))
    hbar = 0.25
    confine = lambda s: np.asarray(s) ** 2 / (2 * hbar)
    cfg_par = dyson.GasConfig(N=5, hbar=hbar, measure="curve", curve=curve,
                              confine=confine, seed=0)
    cfg_line = dyson.GasConfig(N=5, hbar=hbar, measure="curve",
                               curve=dyson.CurveSpec.real_line(), confine=confine, seed=0)
    s = np.array([-1.2, -0.4, 0.1, 0.8, 1.5])
    state_par = dyson.GasState(curve.point(s), s)
    state_line = dyson.GasState(s.astype(complex), s)
    assert_allclose(dyson.energy(state_par, cfg_par), dyson.energy(state_line, cfg_line),
                    atol=1e-12)
    assert_allclose(curve.tangent(0.3), 1.0 + 0j, atol=1e-9)


def test_free_energy_single_particle():
    t1 = 0.6
    cfg = dyson.GasConfig(N=2, hbar=0.5, times=[t1], seed=3)
    est = dyson.free_energy_estimate(cfg)
    # N=1 entry: E_min = -|t1|^2 / hbar
    assert_allclose(est.e_min[1], -abs(t1) ** 2 / 0.5, atol=1e-8)


def test_free_energy_curvature_matches_log_t0():
    t0 = 4.0
    n_particles = 64
    cfg = dyson.GasConfig(N=n_particles, hbar=t0 / n_particles, seed=17)
    est = dyson.free_energy_estimate(cfg)
    assert est.d2f_dt02 == pytest.approx(np.log(t0), rel=0.10)


def test_config_validation():
    with pytest.raises(ValueError):
        dyson.GasConfig(N=0, hbar=1.0)
    with pytest.raises(ValueError):
        dyson.GasConfig(N=4, hbar=-1.0)
    with pytest.raises(ValueError):
        dyson.GasConfig(N=4, hbar=1.0, measure="curve")  # missing curve/confine
    with pytest.raises(ValueError):
        # t3 drive beats the quadratic potential at infinity
        dyson.GasConfig(N=4, hbar=1.0, times=[0, 0, 0.5])


def test_gas_state_t0_invariant():
    cfg = dyson.GasConfig(N=10, hbar=0.3, seed=0)
    assert_allclose(cfg.t0, 3.0)
