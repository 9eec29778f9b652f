import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose
from scipy.linalg import eigvalsh_tridiagonal

from todaflow import dyson
from todaflow.errors import InsufficientSamplesError


def energy_gradient(state, cfg, gradient=True):
    """The gas kernel on a state's coordinates, or on plane positions given as a bare array."""
    if isinstance(state, dyson.GasState):
        x = state.positions if state.params is None else state.params
        return dyson._energy_gradient(x, cfg, gradient)
    return dyson._energy_gradient(np.asarray(state, dtype=complex), cfg, gradient)


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


@pytest.mark.parametrize("kwargs", [
    {"max_iterations": 0}, {"burn_in": -1},
    {"proposal_scale": 0.0}, {"proposal_scale": -0.1}, {"proposal_scale": float("nan")},
    {"tolerance": 0.0}, {"tolerance": -1.0}, {"tolerance": float("nan")},
])
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
    force = dyson._wall_clamped(s, -dyson._energy_gradient(s, cfg)[1], curve)
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


def driven_real_line_gas(n_particles, times):
    return dyson.GasConfig(N=n_particles, hbar=1.0 / n_particles, times=times,
                           curve=dyson.CurveSpec.real_line(), seed=7)


# W'' = -2 Re sum_k k (k-1) t_k s^(k-2) changes sign under both drives.  A
# cubic drive wins at one end of the line, so it runs on the segment
# [-30, 30], where c + W'' = 1 - 12 t3 s < 0 only on (20.8, 30], far outside
# the gas, and H stays positive definite; the double well's
# -4 t2 + 24 |t4| s^2 makes H indefinite near 0, where the Cholesky
# factorization needs its shift.
CUBIC, DOUBLE_WELL = [0, 0, 0.004], [0, 1.0, 0, -0.01]


def cubic_segment_gas(n_particles):
    return dyson.GasConfig(N=n_particles, hbar=1.0 / n_particles, times=CUBIC,
                           curve=dyson.CurveSpec.segment(-30.0, 30.0), seed=7)


@pytest.mark.parametrize("cfg", [
    dyson.GasConfig(N=32, hbar=1 / 32, seed=7),
    real_line_gas(32, seed=7),
    cubic_segment_gas(32),
    driven_real_line_gas(8, DOUBLE_WELL),
], ids=["plane", "real_line", "segment_cubic", "real_line_double_well"])
def test_minimize_energy_monotone(cfg):
    state = dyson.minimize(cfg)
    energies = [e for _, e, _ in state.trace]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


@pytest.mark.parametrize("cfg, shifted", [
    (cubic_segment_gas(8), False),
    (driven_real_line_gas(8, DOUBLE_WELL), True),
], ids=["cubic", "double_well"])
def test_minimize_converges_under_a_drive_with_negative_curvature(monkeypatch, cfg, shifted):
    factor, failures = scipy.linalg.cho_factor, []

    def counted(*args, **kwargs):
        try:
            return factor(*args, **kwargs)
        except scipy.linalg.LinAlgError:
            failures.append(1)
            raise

    monkeypatch.setattr(scipy.linalg, "cho_factor", counted)
    state = dyson.minimize(cfg)
    assert state.converged
    assert state.trace[-1][2] < 1e-6 * (1e-8 * cfg.N / cfg.hbar)
    assert bool(failures) == shifted
    # a minimum: the Hessian at the final state is positive definite
    hessian = np.empty((8, 8))
    dyson._curve_hessian(state.params, cfg, hessian)
    assert np.linalg.eigvalsh(hessian).min() > 0


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
    # steepest descent needed 585 iterations here and L-BFGS-B 80; Newton
    # takes 7, the last two past convergence, down to its roundoff floor
    state = dyson.minimize(real_line_gas(128, seed=1))
    assert state.converged
    assert state.iterations <= 20
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
    # an unguarded projected step puts several particles on the wall at once
    # here; such a trial point must be rejected without a singular force kernel
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


def test_minimize_ray_reaches_the_default_tolerance():
    # the first particle sits on the ray's end, 0.006 from its neighbour;
    # L-BFGS-B stopped there at residual 1.6e-5 against the tolerance 3.2e-6
    cfg = dyson.GasConfig(N=16, hbar=0.05, times=[-0.8], curve=dyson.CurveSpec.ray(0, 1),
                          seed=5)
    state = dyson.minimize(cfg)
    assert state.converged
    assert state.params[0] == 0.0


def test_minimize_real_line_equals_the_hermite_points():
    # criterion 13's gas: Newton reaches Stieltjes' minimum to roundoff
    n_particles, hbar = 256, 1.0 / 256
    cfg = dyson.GasConfig(N=n_particles, hbar=hbar, curve=dyson.CurveSpec.real_line(), seed=4,
                          schedule=dyson.Schedule(max_iterations=60000))
    state = dyson.minimize(cfg)
    assert state.converged
    assert_allclose(state.params, hermite_gas_oracle(n_particles, hbar), rtol=1e-12, atol=0)


def test_metropolis_single_particle_variance():
    cfg = dyson.GasConfig(N=1, hbar=0.5, seed=21,
                          schedule=dyson.Schedule(proposal_scale=0.5))
    run = dyson.metropolis(cfg, 6000)
    vals = np.abs(run.samples[:, 0]) ** 2
    assert vals.mean() == pytest.approx(0.5, rel=0.1)  # Gaussian oracle: mean = hbar
    assert 0.01 <= run.acceptance <= 0.99


def test_metropolis_reproducible():
    cfg = dyson.GasConfig(N=8, hbar=0.2, seed=9)
    a = dyson.metropolis(cfg, 60)
    b = dyson.metropolis(cfg, 60)
    assert a.acceptance == b.acceptance
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.state.positions, b.state.positions) and a.state.energy == b.state.energy


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
            d = np.abs(sample[:, None] - ref.positions[None, :])
            dists.append(np.mean(d.min(axis=1)))
        spreads[hbar] = np.mean(dists)
    assert spreads[0.02] < spreads[0.1]


def test_support_boundary_synthetic_ring():
    # one point at the centre of each of 32 angular bins at radius R, and one
    # at R / 2 under it: the [1, 2, 1] / 4 smoothing of the outer ring gives
    # R (1 + cos(2 pi / 32)) / 2, and the half-cell push multiplies that by
    # 1 + 1 / sqrt(N)
    radius, bins = 1.7, 32
    ring = np.exp(1j * (-np.pi + 2.0 * np.pi * (np.arange(bins) + 0.5) / bins))
    z = np.concatenate([radius * ring, 0.5 * radius * ring])
    cfg = dyson.GasConfig(N=len(z), hbar=1.0 / len(z), seed=0)
    est = dyson.support_boundary(dyson.GasState(z), cfg, bins=bins)
    expected = radius * (1.0 + np.cos(2.0 * np.pi / bins)) / 2.0 * (1.0 + 1.0 / np.sqrt(len(z)))
    assert_allclose(np.abs(est.boundary), expected, rtol=0, atol=1e-12)


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


def ellipse_droplet(times, t0, points=8192):
    """The exact droplet of a confining plane gas, c + r w + u / w on |w| = 1, with
    r^2 = t0 / (1 - 4 |t2|^2), u = 2 conj(t2) r and the centre
    c = (conj(t1) + 2 conj(t2) t1) / (1 - 4 |t2|^2)."""
    t1, t2 = (complex(t) for t in [*times, 0, 0][:2])
    stretch = 1.0 - 4.0 * abs(t2) ** 2
    r, u = math.sqrt(t0 / stretch), 2.0 * t2.conjugate() * math.sqrt(t0 / stretch)
    w = np.exp(2j * np.pi * np.arange(points) / points)
    return (t1.conjugate() + 2.0 * t2.conjugate() * t1) / stretch + r * w + u / w


def test_support_boundary_lies_near_the_exact_droplet():
    # criterion 12's gas at N = 128: every vertex of the polyline within 0.02 of
    # the ellipse r = 1.00504, u = 0.10050 (0.0176 measured; 0.0625 at N = 64)
    cfg = dyson.GasConfig(N=128, hbar=1 / 128, times=[0.0, 0.05], seed=13)
    state = dyson.minimize(cfg)
    assert state.converged
    boundary = dyson.support_boundary(state, cfg).boundary
    droplet = ellipse_droplet(cfg.times, cfg.t0)
    distance = np.abs(boundary[:, None] - droplet).min(axis=1)
    assert distance.max() <= 0.02


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
    for times in ([np.nan], [0, 1j * np.inf]):
        with pytest.raises(ValueError, match="times must be finite"):
            dyson.GasConfig(N=4, hbar=1.0, times=times)


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


LINE, EAST, WEST = (dyson.CurveSpec.real_line(), dyson.CurveSpec.ray(0j, 1.0),
                    dyson.CurveSpec.ray(0j, -1.0))
# The confinement rule, decided from coefficients: (curve, confine, times) and
# the term that a refusal names, or None where the field confines.
CONFINEMENT_RULE = {
    # a drive of degree 3 wins far out: |z|^2 beats it up to |z| = 55.6, s^2 / 2 up to s = 62.5
    "plane-t3": (None, 1.0, [0, 0, 0.009], "t3 z^3"),
    "line-t3": (LINE, 1.0, [0, 0, 0.004], "s^3"),
    # confining, though the drive wins out to |z| = 600 and s = 1e5
    "plane-far-t1-t2": (None, 1.0, [30, 0.45], None),
    "line-far-t1-t2": (LINE, 1.0, [10, 0.2499], None),
    "plane-t2-below-half": (None, 1.0, [0, 0.5 - 1e-9], None),
    "plane-t2-half": (None, 1.0, [0, 0.5], "t2 z^2"),
    "plane-t2-past-half": (None, 1.0, [0, 0.5j + 1e-9], "t2 z^2"),
    "ray-t3-along": (EAST, 1.0, [0, 0, 0.01], "s^3"),
    "ray-t3-against": (WEST, 1.0, [0, 0, 0.01], None),
    "line-t4": (LINE, 1.0, [0, 0, 0, -0.02], None),
    "line-imaginary-t3": (LINE, 1.0, [0, 0, 0.01j], None),
    "line-free": (LINE, 0.0, [], "no term grows"),
    "segment-free-t3": (dyson.CurveSpec.segment(-1.0, 1.0), 0.0, [0, 0, 5], None),
}


@pytest.mark.parametrize("curve, confine, times, winner", CONFINEMENT_RULE.values(),
                         ids=CONFINEMENT_RULE)
def test_confinement_rule(curve, confine, times, winner):
    def make():
        return dyson.GasConfig(N=8, hbar=0.1, times=times, curve=curve, confine=confine)

    if winner is None:
        assert make().N == 8
    else:
        with pytest.raises(ValueError, match="not confining") as refusal:
            make()
        assert winner in str(refusal.value)


@pytest.mark.parametrize("direction, winner", [
    # Re t3 d^3 = 0 exactly for real t3 and d^3 = +-i, but a float d gives
    # -3.5e-18 and 3.7e-18: rounding, which no longer decides the verdict
    (np.exp(1j * np.pi / 6), None), (np.exp(1j * np.pi / 2), None),
    (1j, None), (1.0, "-0.02 s^3"),
], ids=["pi/6", "pi/2", "exactly-i", "along-t3"])
def test_confinement_is_not_decided_by_rounding(direction, winner):
    def make():
        return dyson.GasConfig(N=8, hbar=0.1, times=[0, 0, 0.01],
                               curve=dyson.CurveSpec(0j, direction))

    if winner is None:
        assert make().potential.tolist() == [0.0, 0.0, 0.5, 0.0]
    else:
        with pytest.raises(ValueError, match="not confining") as refusal:
            make()
        assert winner in str(refusal.value)


def test_real_line_potential_is_exactly_the_quadratic():
    potential = dyson.GasConfig(N=256, hbar=1 / 256, curve=LINE).potential
    assert potential.tobytes() == np.array([0.0, 0.0, 0.5]).tobytes()


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
        cfg, x = dyson.GasConfig(N=3, hbar=0.5), s.astype(complex)
    else:
        # a curve GasState refuses these parameters, so they go to the kernel
        cfg, x = real_line_gas(3, seed=0), s
        with pytest.raises(ValueError, match="not pairwise distinct"):
            dyson.GasState(np.array([0.0, 1.0, 2.0]), s)
    assert dyson._energy_gradient(x, cfg, gradient=False)[0] == np.inf
    assert dyson._energy_gradient(x, cfg) == (np.inf, None)


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


def _log_row(x, j, x_new):
    """log|x - x_new| with entry j masked to 0, the sampler's one distance row."""
    d = np.abs(x - x_new)
    d[j] = 1.0
    return np.log(d)


def _row_potentials(x):
    """Every L_j = sum_{m != j} log|x_m - x_j| as the sum of row j, as the sampler fills its cache."""
    return np.array([_log_row(x, j, x[j]).sum() for j in range(len(x))])


@pytest.mark.parametrize("make_config", [_plane_with_times, _ray, _segment, _stiff_ray])
def test_proposal_delta_matches_the_energy_difference(make_config):
    # the sampler's energy change -2 (S - L_j) + field(new) - field_j from its caches;
    # every move is taken, and the caches follow it by the sampler's accept rule
    cfg = make_config()
    rng = np.random.default_rng(3)
    field = dyson._particle_field(cfg)
    if cfg.measure == "curve":
        x, step = np.sort(rng.uniform(0.0, 1.8, cfg.N)), lambda: 0.1 * rng.normal()
    else:
        x = rng.normal(size=cfg.N) + 1j * rng.normal(size=cfg.N)
        step = lambda: 0.3 * (rng.normal() + 1j * rng.normal())
    potential = _row_potentials(x)
    fields = [field(value) for value in x.tolist()]
    for j in range(cfg.N):
        before = dyson._energy_gradient(x, cfg, gradient=False)[0]
        x_after = x.copy()
        x_after[j] = x[j] + step()
        x_new = x_after.item(j)
        log_new = _log_row(x, j, x_new)
        pair = float(log_new.sum())
        field_new = field(x_new)
        delta = -2.0 * (pair - potential[j]) + field_new - fields[j]
        after = dyson._energy_gradient(x_after, cfg, gradient=False)[0]
        assert delta == pytest.approx(after - before, rel=1e-9)
        potential += log_new - _log_row(x, j, x[j])
        potential[j] = pair
        fields[j] = field_new
        x = x_after
    fresh = _row_potentials(x)
    assert np.max(np.abs(potential - fresh)) <= 1e-13 * np.max(np.abs(fresh))
    # a move onto another particle costs +inf
    with np.errstate(divide="ignore"):
        assert -2.0 * (_log_row(x, 0, x[1]).sum() - potential[0]) == np.inf


@pytest.mark.parametrize("n_particles", [1, 2, 3, 127, 128, 129, 1025])
def test_log_potentials_sum_to_the_pair_energy(n_particles):
    rng = np.random.default_rng(n_particles)
    plane = rng.normal(size=n_particles) + 1j * rng.normal(size=n_particles)
    curve = np.sort(rng.uniform(0.0, 4.0, n_particles))
    for x in (plane, curve):
        potentials = _row_potentials(x)
        pair, _ = dyson._pair_pass(x, forces=False)
        assert abs(float(np.sum(potentials)) - pair) <= 1e-13 * abs(pair)


def drive_reference(times, z):
    """W(z) = sum_k t_k z^k written out as z (t_1 + z (t_2 + ...)), the kernel's rounding order."""
    out = np.zeros_like(z)
    for t in times[::-1]:
        out = (out + t) * z
    return out


def drive_slope_reference(times, z):
    """W'(z) = sum_k k t_k z^(k-1) written out as t_1 + z (2 t_2 + z (3 t_3 + ...))."""
    out = np.zeros_like(z)
    for k in range(len(times), 0, -1):
        out = out * z + k * times[k - 1]
    return out


def curve_energy_gradient_reference(z, s, config):
    """E and dE/ds from the complex reference kernels, as curves used before their real pass."""
    c, hbar = config.confine, config.hbar
    drive = 2.0 * np.real(np.sum(drive_reference(config.times, z)))
    e = -pair_log_sum_reference(z) + float(np.sum(c * s ** 2 / (2.0 * hbar))) - drive / hbar
    pull = (repulsion_reference(z)
            + np.conj(drive_slope_reference(config.times, z)) / hbar)
    force = 2.0 * np.real(pull * np.conj(config.curve.direction)) - c * s / hbar
    return e, -force


def plane_energy_gradient_reference(z, config):
    """E and dE/dzbar from the complex reference kernels, in the plane's rounding order."""
    hbar = config.hbar
    drive = 2.0 * np.real(np.sum(drive_reference(config.times, z)))
    e = -pair_log_sum_reference(z) + (float(np.sum(np.abs(z) ** 2)) - drive) / hbar
    slope = np.conj(drive_slope_reference(config.times, z))
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
    x = z if s is None else s
    e, grad = dyson._energy_gradient(x, cfg)
    assert dyson._energy_gradient(x, cfg, gradient=False) == (e, None)
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


def _quartic_line():
    return driven_real_line_gas(8, [0, 0, 0, -0.02])


def _line_t1_t2():
    return driven_real_line_gas(8, [0.1j, 0.02])


def _cubic_segment():
    curve = dyson.CurveSpec.segment(-3.0, 3.0, z0=0.2 - 0.1j, direction=1.0 + 0.5j)
    return dyson.GasConfig(N=8, hbar=0.1, times=[0.3, -0.1j, 0.05 + 0.02j], curve=curve)


@pytest.mark.parametrize("make_config", [_quartic_line, _ray, _line_t1_t2, _cubic_segment],
                         ids=["quartic_line", "ray", "line_t1_t2", "cubic_segment"])
def test_potential_is_the_curve_field(make_config):
    cfg = make_config()
    s = np.random.default_rng(11).uniform(-3.0, 3.0, 50)
    drive = drive_reference(cfg.times, cfg.curve.point(s))
    exact = cfg.confine * s ** 2 / 2.0 - 2.0 * np.real(drive)
    field = dyson._horner(cfg.potential, s)
    assert np.all(np.abs(field - exact) <= 1e-13 * np.abs(exact))
    assert not cfg.potential.flags.writeable


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


def lobatto_points(n_particles):
    """The Fekete set of [-1, 1]: -1, 1 and the zeros of the Jacobi polynomial
    P^(1,1)_{N-2}, the eigenvalues of its Jacobi matrix."""
    k = np.arange(1.0, n_particles - 2)
    off = np.sqrt(k * (k + 2.0) / ((2.0 * k + 1.0) * (2.0 * k + 3.0)))
    return np.concatenate(([-1.0], eigvalsh_tridiagonal(np.zeros(n_particles - 2), off), [1.0]))


def laguerre_points(m):
    """The zeros of the Laguerre polynomial L^(1)_m, the eigenvalues of its Jacobi matrix."""
    k = np.arange(1.0, m)
    return eigvalsh_tridiagonal(2.0 * np.arange(m) + 2.0, np.sqrt(k * (k + 1.0)))


def laguerre_ray_energy(m, lam):
    """E of the ray gas in the field lam s at the point set {0} and y / lam, y the
    zeros of L^(1)_m: the discriminant of the monic L^(1)_m is
    (m!)^(2m-2) prod_j j^(j-2m+2) (j+1)^(j-1), prod y = (m+1)! and sum y = m (m+1)."""
    log_discriminant = (2 * m - 2) * math.lgamma(m + 1) + math.fsum(
        (j - 2 * m + 2) * math.log(j) + (j - 1) * math.log(j + 1) for j in range(1, m + 1))
    pairs = log_discriminant + 2.0 * math.lgamma(m + 2) - m * (m + 1) * math.log(lam)
    return -pairs + m * (m + 1)


@pytest.mark.parametrize("n_particles", [8, 16, 64, 256])
def test_minimize_free_segment_equals_the_lobatto_points(n_particles):
    # with no field the walls hold the gas, and Stieltjes's minimum is the Fekete set
    cfg = dyson.GasConfig(N=n_particles, hbar=1 / n_particles,
                          curve=dyson.CurveSpec.segment(-1.0, 1.0), confine=0.0, seed=0)
    state = dyson.minimize(cfg)
    assert state.converged
    assert np.max(np.abs(np.sort(state.params) - lobatto_points(n_particles))) <= 1e-14


@pytest.mark.parametrize("n_particles", [8, 16, 64, 256])
def test_minimize_ray_in_a_linear_field_equals_the_laguerre_points(n_particles):
    # the field -2 t1 s / hbar = lam s: one particle sits on the wall, whose charge
    # makes the others the zeros of L^(1)_{N-1} over lam
    t1, hbar = -0.3, 1 / n_particles
    lam = -2.0 * t1 / hbar
    cfg = dyson.GasConfig(N=n_particles, hbar=hbar, times=[t1],
                          curve=dyson.CurveSpec.ray(0j, 1.0), confine=0.0, seed=0)
    state = dyson.minimize(cfg)
    assert state.converged
    exact = np.concatenate(([0.0], laguerre_points(n_particles - 1) / lam))
    # the eigenvalues are accurate to roundoff of the largest, not of each small zero
    assert np.max(np.abs(np.sort(state.params) - exact)) <= 1e-14 * exact[-1]
    expected = laguerre_ray_energy(n_particles - 1, lam)
    assert abs(state.energy - expected) <= 1e-14 * abs(expected)


def metropolis_reference(config, sweeps):
    """The sampler before its O(N) proposals: np.delete and 1-element field calls."""
    def confinement(s):
        return config.confine * np.asarray(s) ** 2 / (2.0 * config.hbar)

    def potential(z):
        return np.abs(z) ** 2

    rng = np.random.default_rng(config.seed)
    on_curve = config.measure == "curve"
    start = dyson._initial_configuration(config, rng)
    z, s = (config.curve.point(start), start) if on_curve else (start, None)
    scale = config.schedule.proposal_scale
    burn_in = min(max(20, sweeps // 5), sweeps - 1)

    def delta_energy(j, z_new_j, s_new_j):
        """The energy change, and whether the move lands closer than MIN_SEPARATION."""
        others = np.delete(z, j)
        d_new = np.abs(z_new_j - others)
        d_old = np.abs(z[j] - others)
        too_close = bool(len(others)) and d_new.min() < dyson.MIN_SEPARATION
        with np.errstate(divide="ignore"):
            pair = (-2.0 * (np.sum(np.log(d_new)) - np.sum(np.log(d_old))) if len(others)
                    else 0.0)
        drive = 2.0 * np.real(
            drive_reference(config.times, np.array([z_new_j]))
            - drive_reference(config.times, np.array([z[j]]))
        )[0]
        if on_curve:
            conf = float(confinement(np.array([s_new_j]))[0] - confinement(np.array([s[j]]))[0])
            return pair + conf - drive / config.hbar, too_close
        u = float(potential(np.array([z_new_j]))[0] - potential(np.array([z[j]]))[0])
        return pair + (u - drive) / config.hbar, too_close

    def energy(z, s):
        drive = 2.0 * np.real(np.sum(drive_reference(config.times, z)))
        if on_curve:
            return (-pair_log_sum_reference(z) + float(np.sum(confinement(s)))
                    - drive / config.hbar)
        return -pair_log_sum_reference(z) + (float(np.sum(potential(z)))
                                             - drive) / config.hbar

    samples, accepted, proposed, tune_acc, tune_prop = [], 0, 0, 0, 0
    # moves rejected for landing too close, by the sign of their energy change
    too_close_hits = {"dE <= 0": 0, "dE > 0": 0}
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
            dE, too_close = delta_energy(j, z_new, s_new)
            if too_close:
                # one uniform per such move, whatever its energy change
                u = rng.uniform()
                if dE <= 0:
                    too_close_hits["dE <= 0"] += 1
                elif u < math.exp(-min(dE, 700.0)):
                    too_close_hits["dE > 0"] += 1
                continue
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
            samples.append((z.copy(), None if s is None else s.copy()))
    return samples, energy(z, s), accepted / proposed, scale, too_close_hits


def assert_chain_equals_the_reference(cfg, sweeps, energy_rel=0.0):
    """Run both samplers; return the reference's too-close counts."""
    run = dyson.metropolis(cfg, sweeps)
    samples, final_energy, acceptance, scale, too_close_hits = metropolis_reference(cfg, sweeps)
    assert run.acceptance == acceptance and run.proposal_scale == scale
    assert run.samples.shape == (len(samples), cfg.N)
    for sample, (z, s) in zip(run.samples, samples):
        if s is None:
            assert np.array_equal(sample, z)
        else:
            assert np.array_equal(sample, s) and np.array_equal(cfg.curve.point(sample), z)
    assert np.array_equal(run.state.positions, samples[-1][0])
    assert run.state.energy == pytest.approx(final_energy, rel=energy_rel, abs=0)
    return too_close_hits


@pytest.mark.parametrize("cfg, sweeps", [
    (dyson.GasConfig(N=1, hbar=0.5, times=[0.3], seed=21,
                     schedule=dyson.Schedule(proposal_scale=0.5)), 400),
    (dyson.GasConfig(N=24, hbar=1 / 24, times=[0.1, 0.05j], seed=9), 60),
    (dyson.GasConfig(N=24, hbar=1 / 24, seed=9), 60),
    (real_line_gas(24, seed=2), 60),
    (replace(_ray(), N=24, seed=4), 60),
    (replace(_segment(), N=24, seed=5), 60),
    # 40 sweeps of 128 particles, so that the cached log potentials drift
    (dyson.GasConfig(N=128, hbar=1 / 128, seed=6), 40),
], ids=["plane-1", "plane-24", "plane-24-no-times", "real_line-24", "ray-24", "segment-24",
        "plane-128"])
def test_metropolis_chain_equals_the_reference_sampler(cfg, sweeps):
    # the reference scores a slanted curve's pairs by |z_m - z_n|, the sampler by
    # |s_m - s_n|: their energies agree to roundoff
    slanted = cfg.curve is not None and cfg.curve.direction != 1
    assert_chain_equals_the_reference(cfg, sweeps, energy_rel=1e-12 if slanted else 0.0)


def test_metropolis_rejects_moves_closer_than_the_separation(monkeypatch):
    # at this separation some too-close moves would be taken at dE <= 0 and some
    # at dE > 0; each draws one uniform and is rejected
    monkeypatch.setattr(dyson, "MIN_SEPARATION", 0.2)
    hits = assert_chain_equals_the_reference(dyson.GasConfig(N=24, hbar=1 / 24, seed=9), 60)
    assert hits["dE <= 0"] > 0 and hits["dE > 0"] > 0



CHAIN_RESULT_CASES = {
    "plane": dyson.GasConfig(N=24, hbar=1 / 24, times=[0.1, 0.05j], seed=9),
    "real_line": real_line_gas(24, seed=2),
    "ray": replace(_ray(), N=24, seed=4),
}


@pytest.mark.parametrize("cfg", CHAIN_RESULT_CASES.values(), ids=CHAIN_RESULT_CASES)
def test_metropolis_makes_one_full_energy_and_one_state(monkeypatch, cfg):
    # each of the 40 kept sweeps used to build a GasState with a full O(N^2) energy
    energies, states = [], []
    kernel = dyson._energy_gradient

    def counted_energy(*args, **kwargs):
        energies.append(args)
        return kernel(*args, **kwargs)

    class CountedState(dyson.GasState):
        def __post_init__(self):
            states.append(self)
            super().__post_init__()

    monkeypatch.setattr(dyson, "_energy_gradient", counted_energy)
    monkeypatch.setattr(dyson, "GasState", CountedState)
    run = dyson.metropolis(cfg, 60)
    assert len(run.samples) == 40
    assert len(energies) == 1 and states == [run.state]


@pytest.mark.parametrize("cfg", CHAIN_RESULT_CASES.values(), ids=CHAIN_RESULT_CASES)
def test_metropolis_samples_are_a_read_only_array_ending_at_the_state(cfg):
    run = dyson.metropolis(cfg, 60)
    assert run.samples.shape == (40, cfg.N)
    assert run.samples.dtype == (complex if cfg.curve is None else float)
    with pytest.raises(ValueError, match="read-only"):
        run.samples[0, 0] = 0.0
    if cfg.curve is None:
        assert np.array_equal(run.samples[-1], run.state.positions)
    else:
        assert np.array_equal(run.samples[-1], run.state.params)
        assert np.array_equal(cfg.curve.point(run.samples[-1]), run.state.positions)
    assert run.state.energy == energy(run.state, cfg)


@pytest.mark.parametrize("burn_in", [30, 45])
def test_metropolis_with_a_burn_in_over_every_sweep_keeps_no_sample(burn_in):
    cfg = dyson.GasConfig(N=24, hbar=1 / 24, seed=9, schedule=dyson.Schedule(burn_in=burn_in))
    run = dyson.metropolis(cfg, 30)
    assert run.samples.shape == (0, 24) and run.samples.dtype == complex
    # tuning stops at sweep 20 under every burn-in from 20 on, so the chain
    # that keeps its last sweep is the same chain and ends in the same state
    kept = dyson.metropolis(replace(cfg, schedule=dyson.Schedule(burn_in=29)), 30)
    assert kept.samples.shape == (1, 24)
    assert np.array_equal(run.state.positions, kept.samples[-1])
    assert run.state.energy == kept.state.energy and np.isfinite(run.state.energy)
    assert run.windows == kept.windows and run.acceptance == kept.acceptance


@pytest.mark.parametrize("sweeps", [0, -3])
def test_metropolis_rejects_fewer_than_one_sweep(sweeps):
    with pytest.raises(ValueError, match="sweeps"):
        dyson.metropolis(dyson.GasConfig(N=4, hbar=0.25), sweeps)


# the start windows [a, b]: 4 sqrt(t0) wide from -2 sqrt(t0) on the real line
# and from the ray's end, and the segment itself when it is narrower
START_CASES = {
    "real_line": (real_line_gas(64, seed=3), -2.0, 2.0),
    "ray": (replace(_ray(), N=40, seed=3), 0.0, 4.0 * math.sqrt(8.0)),
    "segment": (dyson.GasConfig(N=20, hbar=1 / 20, curve=dyson.CurveSpec.segment(-0.5, 0.5),
                                seed=3), -0.5, 0.5),
}


@pytest.mark.parametrize("cfg, a, b", START_CASES.values(), ids=START_CASES)
def test_curve_start_is_stratified(cfg, a, b):
    start = dyson._initial_configuration(cfg, np.random.default_rng(cfg.seed))
    assert start.shape == (cfg.N,) and start.dtype == float
    assert a <= start[0] and start[-1] <= b
    assert np.all(np.diff(start) >= (b - a) / (2 * cfg.N))
    again = dyson._initial_configuration(cfg, np.random.default_rng(cfg.seed))
    other = dyson._initial_configuration(cfg, np.random.default_rng(cfg.seed + 1))
    assert np.array_equal(start, again) and not np.array_equal(start, other)


def test_plane_start_keeps_its_draws():
    # the plane start of seed 0, on which the plane minimizer and sampler depend
    start = dyson._initial_configuration(dyson.GasConfig(N=4, hbar=0.25),
                                         np.random.default_rng(0))
    assert np.array_equal(start, [0.3089840283448992 - 0.7358604198822035j,
                                  0.4433050386779363 - 0.2706794348424418j,
                                  -0.1586589868308847 - 0.1257014313124232j,
                                  -0.016516194629257474 - 0.1274945129936876j])


@pytest.mark.parametrize("seed", range(4))
def test_minimize_gas_ground_iteration_budget(seed):
    # the benchmark's ground state, which Newton reaches in 7
    state = dyson.minimize(real_line_gas(256, seed=seed))
    assert state.converged
    assert state.iterations <= 8


@pytest.mark.parametrize("cfg", [
    dyson.GasConfig(N=64, hbar=1 / 64, curve=dyson.CurveSpec.real_line(), confine=0.2, seed=4),
    dyson.GasConfig(N=64, hbar=1 / 64, curve=dyson.CurveSpec.real_line(), confine=0.2, seed=8),
    # c s^2 / 2 - 2 t2 s^2 is the field of c = 1 - 4 t2 = 0.2
    replace(driven_real_line_gas(64, [0, 0.2]), seed=0),
], ids=["confine-seed4", "confine-seed8", "t2-seed0"])
def test_minimize_stops_when_the_step_rounds_away(cfg):
    # under this weak field the energy's roundoff hides the last decrement,
    # so the line search halves the step to nothing; the run must end there,
    # not repeat that iterate until max_iterations
    state = dyson.minimize(replace(cfg, schedule=dyson.Schedule(max_iterations=200)))
    assert state.converged
    assert state.iterations <= 20
    exact = real_line_minimum_energy(64, 1 / 64, 0.2)
    assert abs(state.energy - exact) <= 1e-12 * abs(exact)


WARD_CASES = {
    "real_line": real_line_gas(256, seed=4),
    "ray": _ray(),
    "quartic": replace(driven_real_line_gas(64, [0, 0, 0, -0.02]), seed=2),
}


@pytest.mark.parametrize("cfg", WARD_CASES.values(), ids=WARD_CASES)
def test_curve_minimum_satisfies_the_ward_identity(cfg):
    # s_j times the stationarity condition V'(s_j) / hbar = 2 sum_{m != j} 1 / (s_j - s_m),
    # summed over j, pairs the repulsions into sum_j s_j V'(s_j) = hbar N (N - 1); a
    # particle on the ray's end sits at s = 0, where its wall force drops out
    state = dyson.minimize(cfg)
    assert state.converged
    s, z = state.params, state.positions
    slope = drive_slope_reference(cfg.times, z)
    v_prime = cfg.confine * s - 2.0 * np.real(slope * cfg.curve.direction)
    exact = cfg.hbar * cfg.N * (cfg.N - 1)
    assert abs(float(np.sum(s * v_prime)) - exact) <= 1e-12 * exact
