"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single summary line with the measured numbers (visible
with ``pytest -s`` or in the -v listing through pass/fail).  Everything is
deterministic: fixed seeds, fixed resolutions, no adaptive tolerances.
"""

import json
import time

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from todaflow import cli, dyson, growth, hydro, laurent, loewner
from todaflow.errors import ShockError


def _report(num, name, detail):
    print(f"[criterion {num:02d}] {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def conservation_trajectory():
    """Criterion-2 run, shared by criteria 2 and 3."""
    m = laurent.LaurentMap(1.0, [0.0, 0.3]).with_order(16)
    t0_start = growth.moment_vector(m, 1).t0
    started = time.perf_counter()
    traj = growth.run(m, [(growth.FlowSpec.t0_infinity(), t0_start, 800)],
                      moment_order=16, n=128)
    return traj, time.perf_counter() - started


def test_criterion_01_circle_law():
    m = laurent.LaurentMap(1.0, np.zeros(17))  # M = 16
    started = time.perf_counter()
    traj = growth.run(m, [(growth.FlowSpec.t0_infinity(), 3.0, 400)],
                      moment_order=16, n=128)
    elapsed = time.perf_counter() - started
    err = abs(traj.final.r - 2.0)
    assert err < 1e-6
    assert elapsed < 5.0
    _report(1, "circle law", f"|r-2| = {err:.2e}, {elapsed:.2f} s")


def test_criterion_02_richardson_conservation(conservation_trajectory):
    traj, elapsed = conservation_trajectory
    first, last = traj.records[0].moments, traj.records[-1].moments
    assert last.t0 == pytest.approx(2.0 * first.t0, abs=1e-9)
    drift = float(np.max(np.abs(last.t - first.t)))
    assert drift < 1e-6
    assert elapsed < 10.0
    _report(2, "Richardson conservation", f"max |dt_k| = {drift:.2e}, {elapsed:.2f} s")


def test_criterion_03_string_equation(conservation_trajectory):
    traj, _ = conservation_trajectory
    snapshots = [traj.records[i].map for i in (0, 200, 400, 600, 800)]
    worst = max(growth.string_residual(m, 2e-3) for m in snapshots)
    assert worst < 1e-4
    mid = snapshots[2]
    ratio = growth.string_residual(mid, 2e-3) / growth.string_residual(mid, 1e-3)
    assert ratio == pytest.approx(4.0, abs=1.0)
    _report(3, "string equation", f"residual = {worst:.2e}, halving ratio = {ratio:.2f}")


def test_criterion_04_moment_response():
    m = laurent.LaurentMap(1.0, [0.0, 0.3]).with_order(16)
    before = growth.moment_vector(m, 16)
    h = 1e-3
    worst_rate, worst_cross, worst_t0 = 0.0, 0.0, 0.0
    for k in (1, 2):
        after = growth.moment_vector(growth.step(m, growth.FlowSpec.tk_real(k), h), 16)
        worst_rate = max(worst_rate, abs((after.t[k - 1] - before.t[k - 1]).real / h - 1.0))
        cross = max(abs(after.t[j] - before.t[j]) for j in range(16) if j != k - 1)
        worst_cross = max(worst_cross, cross)
        worst_t0 = max(worst_t0, abs(after.t0 - before.t0))
    assert worst_rate < 1e-4
    assert worst_cross < 1e-7 * h
    assert worst_t0 < 1e-7 * h
    _report(4, "moment response",
            f"rate err = {worst_rate:.2e}, cross-talk = {worst_cross:.2e}, dt0 = {worst_t0:.2e}")


def test_criterion_05_flow_commutativity():
    # The continuum flows commute exactly (they are translations in moment
    # coordinates), so at full resolution the ordering defect sits at machine
    # noise.  Running at the coarse grid n = 16 gives the velocity fields a
    # small fixed spectral-truncation component whose commutator realizes the
    # expected O(h^2) defect well above roundoff.
    n, order = 16, 1
    m = laurent.LaurentMap(1.0, [0.0, 0.3]).with_order(order)
    flow1, flow2 = growth.FlowSpec.tk_real(1), growth.FlowSpec.tk_real(2)

    def defect(h):
        fwd = growth.run(m, [(flow1, h, 4), (flow2, h, 4)], moment_order=1, n=n).final
        rev = growth.run(m, [(flow2, h, 4), (flow1, h, 4)], moment_order=1, n=n).final
        va = np.concatenate([[fwd.r], fwd.coeffs.real, fwd.coeffs.imag])
        vb = np.concatenate([[rev.r], rev.coeffs.real, rev.coeffs.imag])
        return float(np.linalg.norm(va - vb))

    d1, d2 = defect(1e-2), defect(5e-3)
    assert d1 > 1e-9  # measurably above machine noise
    ratio = d1 / d2
    assert ratio == pytest.approx(4.0, abs=0.8)
    _report(5, "flow commutativity", f"defect({1e-2}) = {d1:.2e}, halving ratio = {ratio:.2f}")


def test_criterion_06_m_identity():
    # The truncated tail series converges on the contour only while the
    # Schwarz-function singularities at +-2 sqrt(r u) stay inside the circle
    # of minimal boundary modulus (u/r < 3 - 2 sqrt(2)); u = 0.1 r is a
    # substantial deformation well inside that class.
    m = laurent.LaurentMap(1.0, [0.0, 0.1]).with_order(4)
    t0_start = growth.moment_vector(m, 1).t0
    traj = growth.run(m, [(growth.FlowSpec.t0_infinity(), t0_start, 100)],
                      moment_order=16, n=128)
    w = laurent.circle_grid(128)
    worst = 0.0
    for rec in traj.records[::10]:
        vals = growth.orlov_shulman(rec.map, rec.moments, w)
        worst = max(worst, float(np.max(np.abs(vals - np.abs(laurent.evaluate(rec.map, w)) ** 2))))
    assert worst < 1e-4
    _report(6, "moment-function identity", f"max boundary error = {worst:.2e} at K = 16")


def test_criterion_07_eta_round_trip():
    started = time.perf_counter()
    drivings = [
        loewner.DrivingFunction.constant(0.0),
        loewner.DrivingFunction.piecewise_linear([(0.0, 0.0), (1.0, 1.0)]),  # theta = q
    ]
    worst_spread, worst_err = 0.0, 0.0
    for drv in drivings:
        family = loewner.default_family(0.0, 0.5, drv)
        for q in np.linspace(0.05, 0.45, 10):
            est = loewner.extract_eta(family, float(q))
            worst_spread = max(worst_spread, est.spread)
            worst_err = max(worst_err, abs(est.eta - np.exp(1j * drv.theta(q))))
    elapsed = time.perf_counter() - started
    assert worst_spread < 1e-5
    assert worst_err < 1e-4
    assert elapsed < 5.0
    _report(7, "Loewner eta round trip",
            f"spread = {worst_spread:.2e}, |eta err| = {worst_err:.2e}, {elapsed:.2f} s")


def test_criterion_08_symmetry_and_capacity():
    family = loewner.default_family(0.0, 0.5, loewner.DrivingFunction.constant(0.0))
    tips = loewner.slit_trace(family, np.linspace(0.0, 0.5, 11))
    imag_worst = float(np.max(np.abs(tips.imag)))
    assert imag_worst < 1e-9
    # the capacity law r = e^q: the forward map far out is e^q (w + sum_n a_n w^-n),
    # the series of the slit's modes
    modes = loewner.slit_modes(family, 14)
    w = 10.0 * np.exp(1j * np.linspace(0.3, 6.0, 7))
    series_worst = 0.0
    for q in (0.1, 0.25, 0.4, 0.5):
        series = np.exp(q) * (w + sum(a_n * w ** -n for n, a_n in enumerate(modes(q))))
        series_worst = max(series_worst,
                           float(np.max(np.abs(loewner.forward_map(w, q, family) - series))))
    assert series_worst < 1e-12
    _report(8, "slit symmetry and capacity",
            f"max |Im tip| = {imag_worst:.2e}, |z - mode series| at |w| = 10: {series_worst:.2e}")


def test_criterion_09_degeneracy_classifier():
    slit_worst = 0.0
    for drv in (loewner.DrivingFunction.constant(0.0),
                loewner.DrivingFunction.piecewise_linear([(0.0, 0.0), (1.0, 1.0)])):
        family = loewner.LoewnerFamily(0.0, 0.5, drv)
        bracket, valid = loewner.boundary_bracket(family, 0.25)
        slit_worst = max(slit_worst, float(np.max(np.abs(bracket[valid]))))
    assert slit_worst < 1e-3

    m = laurent.LaurentMap(1.0, [0.0, 0.3]).with_order(16)
    residual = growth.string_residual(m, 1e-3)
    assert residual < 1e-4
    # the smooth-growth bracket sits at 1/U_zzbar = 1, the slit bracket at ~0
    smooth_magnitude = 1.0 - residual
    separation = smooth_magnitude / slit_worst
    assert separation >= 100.0
    _report(9, "degeneracy classifier",
            f"slit |bracket| = {slit_worst:.2e}, smooth residual = {residual:.2e}, "
            f"separation = {separation:.0f}x")


def test_criterion_10_hydro_characteristics():
    grid = np.linspace(0.1, 0.9, 41)
    profile = hydro.Profile(grid, grid.copy())
    speed = lambda q: q
    solved = hydro.solve_characteristics(profile, speed, 0.5)

    from test_hydro import upwind_oracle
    x, q_oracle = upwind_oracle(lambda t: t, lambda q: q, 0.5, 0.02, 3.0, 3000, 5e-5)
    oracle_err = float(np.max(np.abs(np.interp(grid, x, q_oracle) - solved.q_values)))
    assert oracle_err < 1e-3

    s_star = hydro.shock_time(profile, speed)
    assert s_star == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ShockError):
        hydro.solve_characteristics(profile, speed, 1.0)

    drv = loewner.DrivingFunction.piecewise_linear([(0.0, 0.0), (1.0, 0.8)])
    family = loewner.default_family(0.0, 0.5, drv)
    c1_err = max(abs(hydro.characteristic_speed(1, family, q)
                     - 2.0 * np.exp(q) * np.cos(drv.theta(q))) for q in (0.1, 0.3, 0.45))
    assert c1_err == 0.0
    _report(10, "hydrodynamic characteristics",
            f"upwind mismatch = {oracle_err:.2e}, s* = {s_star:.9f}, c1 exact")


@pytest.fixture(scope="module")
def circular_law_state():
    config = dyson.GasConfig(N=256, hbar=1.0 / 256, seed=11)
    started = time.perf_counter()
    state = dyson.minimize(config)
    return config, state, time.perf_counter() - started


def test_criterion_11_circular_law(circular_law_state):
    config, state, elapsed = circular_law_state
    assert state.converged
    support = dyson.support_boundary(state, config)
    radii = np.abs(support.boundary)
    radial_err = float(np.max(np.abs(radii - 1.0)))
    angular_spread = float(radii.std() / radii.mean())
    assert radial_err < 0.03
    assert angular_spread < 0.02
    assert elapsed < 60.0
    _report(11, "circular law N=256",
            f"boundary err = {radial_err:.3f}, angular spread = {angular_spread:.4f}, "
            f"{elapsed:.1f} s")


def test_criterion_12_gas_growth_agreement():
    t2 = 0.05
    config = dyson.GasConfig(N=256, hbar=1.0 / 256, times=[0.0, t2], seed=13)
    state = dyson.minimize(config)
    assert state.converged
    support = dyson.support_boundary(state, config)

    # growth route to the same moments: switch on t2, then grow the area
    m0 = laurent.LaurentMap(0.9, np.zeros(5))
    traj = growth.run(m0, [(growth.FlowSpec.tk_real(2), t2, 50),
                           (growth.FlowSpec.t0_infinity(), 1.0 - 0.81, 100)],
                      moment_order=4)
    final = traj.final
    moments = traj.records[-1].moments
    assert moments.t0 == pytest.approx(1.0, abs=1e-9)
    assert moments.t[1] == pytest.approx(t2, abs=1e-9)

    contour = laurent.evaluate(final, laurent.circle_grid(512))
    bins = len(support.boundary)
    idx = np.floor((np.angle(contour) + np.pi) / (2 * np.pi) * bins).astype(int) % bins
    contour_profile = np.array([np.abs(contour[idx == b]).mean() for b in range(bins)])
    sup_dist = float(np.max(np.abs(np.abs(support.boundary) - contour_profile)))
    assert sup_dist < 0.05 * final.r
    _report(12, "gas-growth agreement",
            f"sup distance = {sup_dist:.4f} ({sup_dist / final.r * 100:.2f}% of r)")


def test_criterion_13_semicircle_endpoints():
    n_particles = 256
    hbar = 1.0 / n_particles
    config = dyson.GasConfig(
        N=n_particles, hbar=hbar, curve=dyson.CurveSpec.real_line(), seed=4,
        schedule=dyson.Schedule(max_iterations=60000),
    )
    state = dyson.minimize(config)
    assert state.converged
    oracle = np.sqrt(2.0 * hbar) * eigvalsh_tridiagonal(
        np.zeros(n_particles), np.sqrt(np.arange(1, n_particles) / 2.0)
    )
    rel = abs(np.max(state.params) - oracle.max()) / oracle.max()
    assert rel < 0.03
    _report(13, "semicircle endpoints",
            f"extreme = {np.max(state.params):.6f} vs oracle {oracle.max():.6f} "
            f"(rel err {rel:.2e})")


def test_criterion_14_conformal_radius_relation():
    t0 = 4.0
    n_particles = 64
    config = dyson.GasConfig(N=n_particles, hbar=t0 / n_particles, seed=17)
    est = dyson.free_energy_estimate(config)
    rel = abs(est.d2f_dt02 - np.log(t0)) / np.log(t0)
    assert rel < 0.10
    _report(14, "conformal-radius relation",
            f"d2F/dt0^2 = {est.d2f_dt02:.4f} vs log 4 = {np.log(t0):.4f} (rel err {rel:.3f})")


def test_criterion_15_reproducibility(tmp_path):
    scenarios = {
        "grow": {
            "scenario": "grow", "seed": 5,
            "grow": {"map": {"r": 1.0, "coeffs": [[0.0, 0.0], [0.2, 0.1]]},
                     "flows": [{"kind": "t0_infinity", "duration": 0.3, "steps": 30}],
                     "moment_order": 4, "snapshots": 3},
        },
        "loewner": {
            "scenario": "loewner", "seed": 9,
            "loewner": {"driving": {"kind": "brownian", "kappa": 0.5, "dq_grid": 1e-3},
                        "q0": 0.0, "q_max": 0.3, "trace_points": 8},
        },
        "dyson": {
            "scenario": "dyson", "seed": 3,
            "dyson": {"N": 24, "hbar": 1.0 / 24.0, "mode": "metropolis", "sweeps": 40,
                      "bins": 8},
        },
    }
    for name, raw in scenarios.items():
        text = json.dumps(raw)
        paths = []
        for run_idx in (0, 1):
            out = tmp_path / f"{name}{run_idx}"
            cli.run_scenario(cli.parse_config(text), out_dir=out)
            paths.append(out)
        a, b = paths
        names_a = sorted(p.name for p in a.iterdir())
        assert names_a == sorted(p.name for p in b.iterdir())
        for fname in names_a:
            assert (a / fname).read_bytes() == (b / fname).read_bytes(), fname
    _report(15, "reproducibility", "grow/loewner/dyson artifacts byte-identical across reruns")


@pytest.mark.parametrize("t0", [1.0, 4.0])
def test_criterion_16_slit_free_energy_relation(t0):
    # The real-line gas in s^2 / (2 hbar) has the exact ground-state energy
    # E_min(N) = N(N-1)/2 (1 - log hbar) - sum_k k log k, so at fixed hbar the
    # three-point d2F/dt0^2 is log t0 + (N+1) log(1 + 1/N) - 1: the slit
    # picture's 2 log(capacity) = log t0, up to O(1/N).
    n_particles = 64
    config = dyson.GasConfig(N=n_particles, hbar=t0 / n_particles,
                             curve=dyson.CurveSpec.real_line(), seed=0)
    est = dyson.free_energy_estimate(config)
    exact = np.log(t0) + (n_particles + 1) * np.log1p(1.0 / n_particles) - 1.0
    err = abs(est.d2f_dt02 - exact)
    assert err <= 1e-7
    _report(16, "slit free-energy relation",
            f"d2F/dt0^2 = {est.d2f_dt02:.12f} vs exact {exact:.12f} (abs err {err:.1e})")
