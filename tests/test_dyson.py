import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eigvalsh_tridiagonal

from todaflow import dyson
from todaflow.errors import InsufficientSamplesError


def energy_gradient(state, cfg, gradient=True):
    """The gas kernel on a state, or on plane positions given as a bare array."""
    if isinstance(state, dyson.GasState):
        return dyson._energy_gradient(state.positions, state.params, cfg, gradient)
    return dyson._energy_gradient(np.asarray(state, dtype=complex), None, cfg, gradient)


def energy(state, cfg):
    return energy_gradient(state, cfg, gradient=False)[0]


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
    e = energy(np.array([1.0 + 0j, -1.0 + 0j]), cfg)
    assert_allclose(e, -2.0 * np.log(2.0) + 2.0, atol=1e-14)


def test_energy_single_particle_completed_square():
    t1 = 0.4 - 0.2j
    cfg = dyson.GasConfig(N=1, hbar=0.7, times=[t1], seed=0)
    z_star = np.conj(t1)
    assert_allclose(energy(np.array([z_star]), cfg), -abs(t1) ** 2 / 0.7, atol=1e-14)
    # any other point costs more
    assert energy(np.array([z_star + 0.3]), cfg) > energy(np.array([z_star]), cfg)


def test_energy_translation_covariance():
    rng = np.random.default_rng(2)
    cfg = dyson.GasConfig(N=5, hbar=0.5, seed=0)
    z = rng.normal(size=5) + 1j * rng.normal(size=5)
    c = 0.3 - 0.7j
    lhs = energy(z + c, cfg) - energy(z, cfg)
    rhs = (2.0 * np.real(np.conj(c) * np.sum(z)) + 5 * abs(c) ** 2) / 0.5
    assert_allclose(lhs, rhs, atol=1e-10)


def test_energy_scaling_identity():
    rng = np.random.default_rng(4)
    cfg = dyson.GasConfig(N=6, hbar=0.3, seed=0)
    z = rng.normal(size=6) + 1j * rng.normal(size=6)
    lam = 1.7
    pair0 = energy(z, cfg) - np.sum(np.abs(z) ** 2) / 0.3
    expected = pair0 - 6 * 5 * np.log(lam) + lam ** 2 * np.sum(np.abs(z) ** 2) / 0.3
    assert_allclose(energy(lam * z, cfg), expected, atol=1e-9)


def test_energy_coincident_sentinel():
    cfg = dyson.GasConfig(N=2, hbar=1.0, seed=0)
    assert energy(np.array([0.5 + 0j, 0.5 + 0j]), cfg) == np.inf


def test_forces_vanish_at_single_particle_minimum():
    t1 = 0.25 + 0.1j
    cfg = dyson.GasConfig(N=1, hbar=0.5, times=[t1], seed=0)
    f = -energy_gradient(np.array([np.conj(t1)]), cfg)[1]
    assert_allclose(f, 0.0, atol=1e-14)


def test_forces_antisymmetric_pair():
    cfg = dyson.GasConfig(N=2, hbar=0.5, seed=0)
    z = np.array([0.8 + 0j, -0.8 + 0j])
    f = -energy_gradient(z, cfg)[1]
    assert_allclose(f[0], -f[1], atol=1e-14)


def test_forces_match_energy_finite_difference():
    rng = np.random.default_rng(11)
    cfg = dyson.GasConfig(N=6, hbar=0.5, times=[0.1, 0.05j], seed=0)
    z = rng.normal(size=6) + 1j * rng.normal(size=6)
    grad = energy_gradient(z, cfg)[1]
    delta = rng.normal(size=6) + 1j * rng.normal(size=6)
    errs = []
    for eps in (1e-4, 5e-5):
        lhs = energy(z + eps * delta, cfg) - energy(z, cfg)
        pred = 2.0 * np.real(eps * np.sum(delta * np.conj(grad)))
        errs.append(abs(lhs - pred))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)  # O(eps^2) remainder


def test_curve_forces_match_energy_finite_difference():
    # an off-axis ray with a complex time: the drive's force must be taken
    # along the curve's direction
    curve = dyson.CurveSpec.ray(0.5 + 0.5j, 1.0 + 1.0j)
    hbar = 0.2
    cfg = dyson.GasConfig(N=4, hbar=hbar, times=[0.1j], curve=curve, seed=0)
    s = np.array([0.21, 0.79, 1.42, 2.13])
    force = dyson._wall_clamped(s, -dyson._energy_gradient(curve.point(s), s, cfg)[1], curve)
    eps = 1e-5
    for j in range(4):
        up, down = s.copy(), s.copy()
        up[j] += eps
        down[j] -= eps
        slope = (energy(dyson.GasState(curve.point(up), up), cfg)
                 - energy(dyson.GasState(curve.point(down), down), cfg)) / (2 * eps)
        assert slope == pytest.approx(-force[j], rel=1e-5, abs=1e-6)


def test_minimize_single_particle():
    cfg = dyson.GasConfig(N=1, hbar=1.0, times=[0.3], seed=3)
    state = dyson.minimize(cfg)
    assert state.converged
    assert_allclose(state.positions[0], 0.3, atol=1e-9)


def real_line_gas(n_particles, seed, **schedule):
    return dyson.GasConfig(
        N=n_particles, hbar=1.0 / n_particles, curve=dyson.CurveSpec.real_line(),
        seed=seed, schedule=dyson.Schedule(**schedule),
    )


@pytest.mark.parametrize("cfg", [
    dyson.GasConfig(N=32, hbar=1 / 32, seed=7),
    real_line_gas(32, seed=7),
], ids=["plane", "real_line"])
def test_minimize_energy_monotone(cfg):
    state = dyson.minimize(cfg)
    energies = [e for _, e, _ in state.trace]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


@pytest.mark.parametrize("seed", [2, 7, 10, 11])
def test_minimize_circular_law_small(seed):
    # a single start ends in a metastable crystal, max|z| < 0.9, on seeds 2, 10 and 11
    cfg = dyson.GasConfig(N=64, hbar=1 / 64, seed=seed)
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
        N=n_particles, hbar=hbar, curve=dyson.CurveSpec.real_line(), seed=4,
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
        N=16, hbar=hbar, times=[-0.8], curve=dyson.CurveSpec.ray(0.5 + 0j, 1.0), seed=5,
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
def test_minimize_segment_walls():
    # the segment is narrower than the droplet, so particles press against
    # both ends; trial points that stack them on a wall must not stall the run
    curve = dyson.CurveSpec.segment(-0.5, 0.5)
    hbar = 1.0 / 20
    cfg = dyson.GasConfig(N=20, hbar=hbar, curve=curve, seed=3)
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


@pytest.mark.parametrize("bins", [1, 2, 3])
def test_support_boundary_plane_needs_four_bins(bins):
    # a plane call with bins < 4 failed with "too few particles to estimate a boundary"
    z = np.exp(2j * np.pi * np.arange(64) / 64)
    cfg = dyson.GasConfig(N=64, hbar=1.0 / 64, seed=0)
    with pytest.raises(ValueError, match="bins >= 4"):
        dyson.support_boundary(dyson.GasState(z), cfg, bins=bins)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_support_boundary_plane_needs_four_particles(n):
    # fewer than four particles can never fill four bins; this failed with
    # "too few particles to estimate a boundary"
    z = np.exp(2j * np.pi * np.arange(n) / n)
    cfg = dyson.GasConfig(N=n, hbar=1.0 / n, seed=0)
    with pytest.raises(ValueError, match="N >= 4"):
        dyson.support_boundary(dyson.GasState(z), cfg, bins=4)


def test_support_boundary_plane_with_an_empty_quadrant_is_insufficient():
    # eight particles in one quadrant leave a bin empty at every count down
    # to 4; this raised a ValueError, which the CLI reported as a bad config
    z = np.exp(1j * np.linspace(0.1, 1.2, 8))
    cfg = dyson.GasConfig(N=8, hbar=1.0 / 8, seed=0)
    with pytest.raises(InsufficientSamplesError, match="empty"):
        dyson.support_boundary(dyson.GasState(z), cfg, bins=32)


def test_support_boundary_curve_takes_one_bin():
    s = np.linspace(-1.0, 1.0, 8)
    support = dyson.support_boundary(dyson.GasState(s.astype(complex), s),
                                     real_line_gas(8, seed=0), bins=1)
    assert support.histogram[0].tolist() == [8]


def test_gas_config_measure_follows_the_curve():
    assert dyson.GasConfig(N=4, hbar=0.25).measure == "plane"
    assert dyson.GasConfig(N=4, hbar=0.25, curve=dyson.CurveSpec.real_line()).measure == "curve"


def test_segment_matches_the_real_line():
    # a real segment must reproduce the real-line energy for configurations
    # inside its range
    curve = dyson.CurveSpec.segment(-3.0, 3.0)
    hbar = 0.25
    cfg_par = dyson.GasConfig(N=5, hbar=hbar, curve=curve, seed=0)
    cfg_line = dyson.GasConfig(N=5, hbar=hbar, curve=dyson.CurveSpec.real_line(), seed=0)
    s = np.array([-1.2, -0.4, 0.1, 0.8, 1.5])
    state_par = dyson.GasState(curve.point(s), s)
    state_line = dyson.GasState(s.astype(complex), s)
    assert_allclose(energy(state_par, cfg_par), energy(state_line, cfg_line),
                    atol=1e-12)
    assert_allclose(curve.direction, 1.0 + 0j, atol=1e-9)


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
    for confine in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            dyson.GasConfig(N=4, hbar=1.0, curve=dyson.CurveSpec.real_line(), confine=confine)
    with pytest.raises(ValueError):
        # t3 drive beats the quadratic potential at infinity
        dyson.GasConfig(N=4, hbar=1.0, times=[0, 0, 0.5])
    with pytest.raises(ValueError, match="t0"):
        dyson.GasConfig(N=20, hbar=1e307)  # t0 = hbar * N overflows


def _curve_gas(curve, coefficient=1.0, times=()):
    return dyson.GasConfig(N=8, hbar=0.1, times=times, curve=curve, confine=coefficient)


@pytest.mark.parametrize("curve, coefficient, times", [
    (dyson.CurveSpec.real_line(), 0.0, ()),
    (dyson.CurveSpec.real_line(), -1.0, ()),
    (dyson.CurveSpec.ray(0j, 1.0), 0.0, ()),
    (dyson.CurveSpec.real_line(), 1.0, (0, 2)),  # t2 beats s^2 / (2 hbar)
    (dyson.CurveSpec.ray(0j, 1.0), 1.0, (0, 0, 0.01)),  # t3 wins at s = +50
], ids=["line-free", "line-repelling", "ray-free", "line-t2", "ray-t3"])
def test_curve_gas_must_be_confining(curve, coefficient, times):
    with pytest.raises(ValueError, match="not confining"):
        _curve_gas(curve, coefficient, times)


def test_curve_confinement_checks_only_infinite_ends():
    # a segment confines any field; a ray needs it only along its direction,
    # where t3 pulls inward
    assert _curve_gas(dyson.CurveSpec.segment(-1.0, 1.0), coefficient=0.0).N == 8
    assert _curve_gas(dyson.CurveSpec.ray(0j, -1.0), times=(0, 0, 0.01)).N == 8


@pytest.mark.parametrize("kwargs", [{"direction": 0j}, {"lo": 1.0, "hi": 1.0},
                                    {"lo": np.nan}])
def test_curve_spec_rejects_invalid_curves(kwargs):
    with pytest.raises(ValueError):
        dyson.CurveSpec(**kwargs)


def test_curve_spec_normalizes_the_direction():
    curve = dyson.CurveSpec.ray(1.0 + 1.0j, 3.0 + 4.0j)
    assert curve.bounds == (0.0, np.inf)
    assert curve.direction == pytest.approx(0.6 + 0.8j, rel=1e-15)
    assert curve.point(2.0) == pytest.approx(2.2 + 2.6j, rel=1e-15)


def test_gas_state_t0_invariant():
    cfg = dyson.GasConfig(N=10, hbar=0.3, seed=0)
    assert_allclose(cfg.t0, 3.0)


# Reference kernels: the N x N forms that the row-wise kernels replaced.
def pair_log_sum_reference(z):
    if len(z) < 2:
        return 0.0
    diff = np.abs(z[:, None] - z[None, :])
    d = diff[np.triu_indices(len(z), k=1)]
    if d.min() < dyson.MIN_SEPARATION:
        return -np.inf
    return 2.0 * float(np.sum(np.log(d)))


def repulsion_reference(z):
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, np.inf)
    return np.sum(1.0 / np.conj(diff), axis=1)


# N = 128 fills one row block exactly and 129 spills into a second; 1024
# splits into whole 16-row blocks and 1025 leaves a short last one
@pytest.mark.parametrize("n_particles", [1, 2, 3, 64, 127, 128, 129, 256, 257, 1024, 1025])
def test_pair_kernels_equal_the_matrix_reference(n_particles):
    rng = np.random.default_rng(n_particles)
    plane = rng.normal(size=n_particles) + 1j * rng.normal(size=n_particles)
    line = rng.normal(size=n_particles).astype(complex)
    real = rng.normal(size=n_particles)
    for z in (plane, line, real):
        pair, repulsion = dyson._pair_pass(z)
        assert pair == pair_log_sum_reference(z)
        assert np.array_equal(repulsion, repulsion_reference(z))
        assert dyson._pair_pass(z, forces=False) == (pair, None)


@pytest.mark.parametrize("forces", [True, False], ids=["forces", "energy"])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_pair_pass_runs_in_bounded_memory(kind, forces):
    # the N x N kernels needed about 0.5 GB here
    rng = np.random.default_rng(0)
    x = rng.normal(size=4096)
    if kind == "complex":
        x = x + 1j * rng.normal(size=4096)
    tracemalloc.start()
    try:
        pair, repulsion = dyson._pair_pass(x, forces=forces)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(pair)
    assert np.all(np.isfinite(repulsion)) if forces else repulsion is None
    assert peak <= 80 * 2 ** 20


@pytest.mark.parametrize("n_particles", [1, 2, 3, 64, 256, 257, 1024])
def test_line_pair_pass_equals_the_complex_kernels(n_particles):
    # the real line's distances in the same buffer order: the same energy
    # bits from real and from complex input
    s = np.random.default_rng(n_particles).normal(size=n_particles)
    pair, repulsion = dyson._pair_pass(s)
    pair_complex, reference = dyson._pair_pass(s.astype(complex))
    assert pair == pair_complex
    assert np.max(np.abs(repulsion - reference)) <= 1e-12 * np.max(np.abs(reference))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("forces", [True, False], ids=["forces", "energy"])
@pytest.mark.parametrize("x", [[0.0, 1.0, 1.0 + 1e-13, 2.0], [0.5, -1.0, 0.5],
                               [0.0, 1.0, 1.0 + 1e-13j, 2.0], [0.5, -1.0j, 0.5]],
                         ids=["real-close", "real-equal", "complex-close", "complex-equal"])
def test_pair_pass_stops_at_coincident_points(x, forces):
    x = np.array(x)
    assert dyson._pair_pass(x, forces=forces) == (-np.inf, None)
    assert pair_log_sum_reference(x) == -np.inf


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("measure", ["plane", "curve"])
def test_forces_of_coincident_points_raise(measure):
    s = np.array([0.5, 0.5, 1.0])
    if measure == "plane":
        cfg, state = dyson.GasConfig(N=3, hbar=0.5), s.astype(complex)
    else:
        cfg = real_line_gas(3, seed=0)
        # GasState checks only its positions, so these parameters reach the kernel
        state = dyson.GasState(np.array([0.0, 1.0, 2.0]), s)
    assert energy(state, cfg) == np.inf
    assert energy_gradient(state, cfg)[1] is None


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("measure", ["plane", "curve"])
def test_forces_of_an_overflowing_field_raise(measure):
    # the field energy overflows to inf while every pair term stays finite,
    # so the gradient must be refused rather than give the finite pair forces
    if measure == "plane":
        cfg, state = dyson.GasConfig(N=4, hbar=1.0), np.array([1e200, -1e200, 1e200j, -1e200j])
    else:
        s = np.array([-1e200, 1e200])
        cfg = dyson.GasConfig(N=2, hbar=1.0, curve=dyson.CurveSpec.real_line())
        state = dyson.GasState(s.astype(complex), s)
    assert energy(state, cfg) == np.inf
    assert energy_gradient(state, cfg)[1] is None


@pytest.mark.parametrize("z, accepted", [
    ([0.0, 1e-12], False),
    ([0.0, 2e-12], True),
    ([1e-12j, 0.0], False),
    ([3.0 - 1j], True),
])
def test_gas_state_distinctness_rule(z, accepted):
    z = np.array(z, dtype=complex)
    if accepted:
        assert dyson.GasState(z).N == len(z)
    else:
        with pytest.raises(ValueError, match="not pairwise distinct"):
            dyson.GasState(z)


def test_gas_state_rejects_duplicates_and_reports_the_separation():
    with pytest.raises(ValueError, match=r"min separation 0\.000e\+00"):
        dyson.GasState(np.array([0.5, 1.0, 0.5], dtype=complex))


def _plane_with_times():
    return dyson.GasConfig(N=12, hbar=0.2, times=[0.1, 0.05j])


def _ray():
    return dyson.GasConfig(N=12, hbar=0.2, times=[-0.3],
                           curve=dyson.CurveSpec.ray(0.5 + 0.5j, 1.0 + 1.0j))


def _segment():
    curve = dyson.CurveSpec.segment(-2.0, 2.0, z0=0.3j, direction=1.0 + 0.2j)
    return dyson.GasConfig(N=12, hbar=0.2, times=[0.1j, 0.02], curve=curve)


def _stiff_ray():
    return dyson.GasConfig(N=12, hbar=0.2, times=[-0.3],
                           curve=dyson.CurveSpec.ray(0.5 + 0.5j, 1.0 + 1.0j), confine=2.5)


@pytest.mark.parametrize("make_config", [_plane_with_times, _ray, _segment, _stiff_ray])
def test_proposal_delta_matches_the_energy_difference(make_config):
    cfg = make_config()
    rng = np.random.default_rng(3)
    delta = dyson._proposal_delta(cfg)
    if cfg.measure == "curve":
        s = np.sort(rng.uniform(0.0, 1.8, cfg.N))
        z = cfg.curve.point(s)
    else:
        s = None
        z = rng.normal(size=cfg.N) + 1j * rng.normal(size=cfg.N)
    before = energy(dyson.GasState(z, s), cfg)
    for j in range(cfg.N):
        z_after = z.copy()
        if s is None:
            s_new, s_after = None, None
            z_after[j] = z[j] + 0.3 * (rng.normal() + 1j * rng.normal())
        else:
            s_after = s.copy()
            s_new = s_after[j] = s[j] + 0.1 * rng.normal()
            z_after[j] = cfg.curve.point(s_new)
        after = energy(dyson.GasState(z_after, s_after), cfg)
        assert delta(z.copy(), s, j, complex(z_after[j]), s_new) == pytest.approx(
            after - before, rel=1e-9)
    # a move onto another particle is never accepted
    assert delta(z.copy(), s, 0, complex(z[1]), None if s is None else s[1]) == np.inf


def curve_energy_gradient_reference(z, s, config):
    """E and dE/ds from the complex reference kernels, as curves used before their real pass."""
    c, hbar = config.confine, config.hbar
    drive = 2.0 * np.real(np.sum(dyson._times_polynomial(config.times, z)))
    e = -pair_log_sum_reference(z) + float(np.sum(c * s ** 2 / (2.0 * hbar))) - drive / hbar
    pull = (repulsion_reference(z)
            + np.conj(dyson._times_polynomial_derivative(config.times, z)) / hbar)
    force = 2.0 * np.real(pull * np.conj(config.curve.direction)) - c * s / hbar
    return e, -force


def plane_energy_gradient_reference(z, config):
    """E and dE/dzbar from the complex reference kernels, in the plane's rounding order."""
    hbar = config.hbar
    drive = 2.0 * np.real(np.sum(dyson._times_polynomial(config.times, z)))
    e = -pair_log_sum_reference(z) + (float(np.sum(np.abs(z) ** 2)) - drive) / hbar
    slope = np.conj(dyson._times_polynomial_derivative(config.times, z))
    return e, (z - slope) / hbar - repulsion_reference(z)


@pytest.mark.parametrize("make_config",
                         [lambda: real_line_gas(40, seed=0), _ray, _segment, _stiff_ray,
                          _plane_with_times],
                         ids=["real_line", "ray", "segment", "stiff_ray", "plane"])
def test_curve_kernel_equals_the_complex_reference(make_config):
    cfg = make_config()
    rng = np.random.default_rng(5)
    if cfg.measure == "plane":
        s, z = None, rng.normal(size=cfg.N) + 1j * rng.normal(size=cfg.N)
    else:
        s = np.sort(rng.uniform(0.0, 1.8, cfg.N))
        z = cfg.curve.point(s)
    e, grad = dyson._energy_gradient(z, s, cfg)
    assert dyson._energy_gradient(z, s, cfg, gradient=False) == (e, None)
    if cfg.measure == "plane":
        e_ref, grad_ref = plane_energy_gradient_reference(z, cfg)
        assert e == e_ref
        assert np.array_equal(grad, grad_ref)
        return
    e_ref, grad_ref = curve_energy_gradient_reference(z, s, cfg)
    assert e == pytest.approx(e_ref, rel=1e-12, abs=0)
    assert np.max(np.abs(grad - grad_ref)) <= 1e-12 * np.max(np.abs(grad_ref))
    if cfg.curve == dyson.CurveSpec.real_line():
        assert e == e_ref


def real_line_minimum_energy(n_particles, hbar, coefficient=1.0):
    """E_min of the real-line gas in c s^2 / (2 hbar): its ground state is the
    Hermite point set scaled by sqrt(2 hbar / c)."""
    return (n_particles * (n_particles - 1) / 2 * (1.0 - math.log(hbar / coefficient))
            - sum(k * math.log(k) for k in range(1, n_particles + 1)))


@pytest.mark.parametrize("n_particles, hbar", [(64, 1 / 64), (256, 1 / 256), (64, 0.05)])
def test_minimize_real_line_energy_equals_the_closed_form(n_particles, hbar):
    cfg = dyson.GasConfig(N=n_particles, hbar=hbar, curve=dyson.CurveSpec.real_line(), seed=1)
    state = dyson.minimize(cfg)
    assert state.converged
    exact = real_line_minimum_energy(n_particles, hbar)
    assert abs(state.energy - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize("coefficient", [2.0, 0.5])
def test_minimize_real_line_energy_with_a_confinement_coefficient(coefficient):
    # c s^2 / (2 hbar) is the c = 1 field at hbar / c
    cfg = dyson.GasConfig(N=64, hbar=1 / 64, curve=dyson.CurveSpec.real_line(),
                          confine=coefficient, seed=1)
    state = dyson.minimize(cfg)
    assert state.converged
    exact = real_line_minimum_energy(64, 1 / 64, coefficient)
    assert abs(state.energy - exact) <= 1e-12 * abs(exact)


def metropolis_reference(config, sweeps):
    """The sampler before its O(N) proposals: np.delete and 1-element field calls."""
    def confinement(s):
        return config.confine * np.asarray(s) ** 2 / (2.0 * config.hbar)

    def potential(z):
        return np.abs(z) ** 2

    rng = np.random.default_rng(config.seed)
    z, s = dyson._initial_configuration(config, rng)
    on_curve = config.measure == "curve"
    scale = config.schedule.proposal_scale
    burn_in = min(max(20, sweeps // 5), sweeps - 1)

    def delta_energy(j, z_new_j, s_new_j):
        others = np.delete(z, j)
        d_new = np.abs(z_new_j - others)
        d_old = np.abs(z[j] - others)
        if len(others) and d_new.min() < dyson.MIN_SEPARATION:
            return np.inf
        pair = -2.0 * (np.sum(np.log(d_new)) - np.sum(np.log(d_old))) if len(others) else 0.0
        drive = 2.0 * np.real(
            dyson._times_polynomial(config.times, np.array([z_new_j]))
            - dyson._times_polynomial(config.times, np.array([z[j]]))
        )[0]
        if on_curve:
            conf = float(confinement(np.array([s_new_j]))[0] - confinement(np.array([s[j]]))[0])
            return pair + conf - drive / config.hbar
        u = float(potential(np.array([z_new_j]))[0] - potential(np.array([z[j]]))[0])
        return pair + (u - drive) / config.hbar

    def energy(z, s):
        drive = 2.0 * np.real(np.sum(dyson._times_polynomial(config.times, z)))
        if on_curve:
            return (-pair_log_sum_reference(z) + float(np.sum(confinement(s)))
                    - drive / config.hbar)
        return -pair_log_sum_reference(z) + (float(np.sum(potential(z)))
                                             - drive) / config.hbar

    samples, accepted, proposed, tune_acc, tune_prop = [], 0, 0, 0, 0
    lo, hi = config.curve.bounds if on_curve else (None, None)
    for sweep in range(1, sweeps + 1):
        for j in range(config.N):
            proposed += 1
            tune_prop += 1
            if on_curve:
                s_new = s[j] + scale * rng.normal()
                if (np.isfinite(lo) and s_new < lo) or (np.isfinite(hi) and s_new > hi):
                    continue
                z_new = complex(config.curve.point(s_new))
            else:
                s_new = None
                z_new = z[j] + scale * (rng.normal() + 1j * rng.normal())
            dE = delta_energy(j, z_new, s_new)
            if dE <= 0 or rng.uniform() < math.exp(-min(dE, 700.0)):
                z[j] = z_new
                if on_curve:
                    s[j] = s_new
                accepted += 1
                tune_acc += 1
        if sweep <= burn_in and sweep % 20 == 0 and tune_prop:
            rate = tune_acc / tune_prop
            if rate < 0.30:
                scale *= 0.7
            elif rate > 0.50:
                scale *= 1.3
            tune_acc = tune_prop = 0
        if sweep > burn_in:
            samples.append((z.copy(), energy(z, s)))
    return samples, accepted / proposed, scale


@pytest.mark.parametrize("cfg, sweeps", [
    (dyson.GasConfig(N=1, hbar=0.5, times=[0.3], seed=21,
                     schedule=dyson.Schedule(proposal_scale=0.5)), 400),
    (dyson.GasConfig(N=24, hbar=1 / 24, times=[0.1, 0.05j], seed=9), 60),
    (real_line_gas(24, seed=2), 60),
], ids=["plane-1", "plane-24", "real_line-24"])
def test_metropolis_chain_equals_the_reference_sampler(cfg, sweeps):
    run = dyson.metropolis(cfg, sweeps)
    samples, acceptance, scale = metropolis_reference(cfg, sweeps)
    assert run.acceptance == acceptance and run.proposal_scale == scale
    assert len(run.samples) == len(samples)
    for sample, (z, e) in zip(run.samples, samples):
        assert np.array_equal(sample.positions, z)
        assert sample.energy == e

