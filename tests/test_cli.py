import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from numpy.testing import assert_allclose

from todaflow import cli, growth, hydro, laurent, loewner, svgout
from todaflow.errors import ConfigError, NonFiniteResultError


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def minimal_grow_config(out_dir, steps=40, duration=0.4):
    return {
        "scenario": "grow",
        "seed": 5,
        "output": {"directory": str(out_dir), "formats": ["csv", "json", "svg"]},
        "grow": {
            "map": {"r": 1.0, "coeffs": []},
            "flows": [{"kind": "t0_infinity", "duration": duration, "steps": steps}],
            "moment_order": 4,
            "snapshots": 3,
        },
    }


def test_parse_minimal_grow_config(tmp_path):
    cfg = cli.parse_config(json.dumps(minimal_grow_config(tmp_path)))
    assert cfg.scenario == "grow"
    assert cfg.seed == 5
    assert cfg.params["flows"][0]["kind"] == "t0_infinity"


def test_parse_rejects_two_scenario_sections(tmp_path):
    raw = minimal_grow_config(tmp_path)
    raw["hydro"] = {"profile": {"grid": [0, 1], "q_values": [0, 1]},
                    "speed": {"kind": "identity"}, "s": 0.1}
    with pytest.raises(ConfigError) as err:
        cli.parse_config(json.dumps(raw))
    text = str(err.value)
    assert "grow" in text and "hydro" in text


def test_parse_reports_negative_hbar_pointer():
    raw = {"scenario": "dyson", "dyson": {"N": 8, "hbar": -1.0}}
    with pytest.raises(ConfigError) as err:
        cli.parse_config(json.dumps(raw))
    assert any(ptr == "/dyson/hbar" for ptr, _ in err.value.problems)


def test_parse_rejects_unknown_keys(tmp_path):
    raw = minimal_grow_config(tmp_path)
    raw["grow"]["mystery"] = 1
    raw["typo_key"] = 2
    with pytest.raises(ConfigError) as err:
        cli.parse_config(json.dumps(raw))
    pointers = [ptr for ptr, _ in err.value.problems]
    assert "/grow/mystery" in pointers
    assert "/typo_key" in pointers


def test_parse_collects_all_errors():
    raw = {"scenario": "dyson", "dyson": {"N": 0, "hbar": -1.0, "mode": "wat"}}
    with pytest.raises(ConfigError) as err:
        cli.parse_config(json.dumps(raw))
    assert len(err.value.problems) >= 3


def test_parse_reports_missing_keys_with_pointers():
    with pytest.raises(ConfigError) as err:
        cli.parse_config(json.dumps({"scenario": "loewner", "loewner": {}}))
    pointers = [ptr for ptr, _ in err.value.problems]
    assert "/loewner/driving" in pointers
    assert "/loewner/q_max" in pointers


def test_parse_invalid_json():
    with pytest.raises(ConfigError):
        cli.parse_config("{not json")


def test_grow_scenario_end_to_end(tmp_path):
    text = json.dumps(minimal_grow_config(tmp_path / "out", steps=100, duration=3.0))
    report = cli.run_scenario(cli.parse_config(text))
    assert report.exit_code == 0
    assert abs(report.manifest["summary"]["final_r"] - 2.0) < 1e-5
    names = {f["name"] for f in report.manifest["files"]}
    assert names == {"trajectory.csv", "moments.csv", "contours.json", "contours.svg"}
    header = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("step,time,t0,r,re_a0,im_a0")
    moments_header = (tmp_path / "out" / "moments.csv").read_text().splitlines()[0]
    assert moments_header == "step,k,re_tk,im_tk,re_vk,im_vk"


def test_loewner_scenario_monotone_real_trace(tmp_path):
    raw = {
        "scenario": "loewner",
        "output": {"directory": str(tmp_path / "out")},
        "loewner": {"driving": {"kind": "constant", "theta0": 0.0},
                    "q0": 0.0, "q_max": 0.5, "trace_points": 12},
    }
    report = cli.run_scenario(cli.parse_config(json.dumps(raw)))
    assert report.exit_code == 0
    rows = (tmp_path / "out" / "trace.csv").read_text().splitlines()[1:]
    tips = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.all(np.diff(tips[:, 1]) > 0)  # re_tip increasing
    assert np.max(np.abs(tips[:, 2])) < 1e-9  # im_tip zero by symmetry


def test_loewner_summary_counts_the_tracked_integration(tmp_path):
    # two tracked points on the slit's path get swallowed, two stay clear
    tracked = [[1.2, 0.0], [1.5, 0.0], [2.0, 2.0], [-1.7, 0.8]]
    raw = {
        "scenario": "loewner",
        "output": {"directory": str(tmp_path / "out"), "formats": ["json"]},
        "loewner": {"driving": {"kind": "constant", "theta0": 0.0},
                    "q_max": 0.3, "trace_points": 3, "tracked": tracked},
    }
    summaries = []
    for _ in range(2):
        report = cli.run_scenario(cli.parse_config(json.dumps(raw)))
        assert report.exit_code == 0
        summaries.append(report.manifest["summary"]["tracked"])
    assert summaries[0] == summaries[1]
    w0 = np.array([complex(*z) for z in tracked])
    res = loewner.advance_many(w0, 0.0, 0.3, loewner.DrivingFunction.constant(0.0))
    assert summaries[0]["substeps"] == res.substeps
    assert summaries[0]["absorbed"] == 2 == np.count_nonzero(res.absorbed)
    assert summaries[0]["min_eta_distance"] == 0.0  # a swallowed point's closest approach


LOEWNER_DRIVINGS = {
    "constant": {"kind": "constant", "theta0": 0.0},
    "piecewise_linear": {"kind": "piecewise_linear", "knots": [[0.0, 0.3], [0.15, -0.2],
                                                               [0.3, 0.4]]},
    "brownian": {"kind": "brownian", "kappa": 0.5},
}


@pytest.mark.parametrize("formats", [None, ["csv"], ["json"]], ids=["default", "csv", "json"])
@pytest.mark.parametrize("kind", sorted(LOEWNER_DRIVINGS))
def test_loewner_run_matches_separate_trace_and_snapshot_calls(tmp_path, monkeypatch, kind,
                                                               formats):
    # the straight slit swallows the points on its ray; a point within
    # ABSORB_TOL of eta(q0) is swallowed under every driving
    eta0 = (1 + 5e-10) * np.exp(0.3j if kind == "piecewise_linear" else 0.0)
    tracked = [[1.2, 0.0], [1.5, 0.0], [eta0.real, eta0.imag], [2.0, 2.0], [-1.7, 0.8]]
    raw = {"scenario": "loewner", "seed": 3,
           "loewner": {"driving": LOEWNER_DRIVINGS[kind], "q_max": 0.3, "trace_points": 6,
                       "tracked": tracked}}
    if formats is not None:
        raw["output"] = {"formats": formats}
    trace_and_track, advance_many, calls = loewner.trace_and_track, loewner.advance_many, []
    monkeypatch.setattr(loewner, "advance_many",
                        lambda *args: calls.append(args) or advance_many(*args))
    merged = cli.run_scenario(cli.parse_config(json.dumps(raw)), out_dir=tmp_path / "merged")
    assert merged.exit_code == 0 and len(calls) == 1

    def separate_calls(family, q_grid, snapshot_q=()):
        # the tips alone (slit_trace), then the snapshots in a second call
        tips = trace_and_track(family, q_grid)[0]
        w0 = np.asarray(family.z_samples, dtype=complex) / family.r0
        res = loewner.advance_many(np.tile(w0, len(snapshot_q)), family.q0,
                                   np.repeat(snapshot_q, len(w0)), family.driving)
        return tips, res

    monkeypatch.setattr(loewner, "trace_and_track", separate_calls)
    separate = cli.run_scenario(cli.parse_config(json.dumps(raw)), out_dir=tmp_path / "separate")
    assert len(calls) == 3
    names = sorted(p.name for p in (tmp_path / "merged").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "separate").iterdir())
    for name in names:
        a = (tmp_path / "merged" / name).read_bytes()
        b = (tmp_path / "separate" / name).read_bytes()
        assert a == b, name
    assert merged.manifest["summary"]["tracked"]["absorbed"] == (3 if kind == "constant" else 1)


def test_hydro_scenario_breakdown_exit_code(tmp_path):
    raw = {
        "scenario": "hydro",
        "output": {"directory": str(tmp_path / "out")},
        "hydro": {"profile": {"grid": [0.1, 0.5, 0.9], "q_values": [0.1, 0.5, 0.9]},
                  "speed": {"kind": "identity"}, "s": 2.0},
    }
    report = cli.run_scenario(cli.parse_config(json.dumps(raw)))
    assert report.exit_code == 2
    assert report.manifest["status"] == "breakdown"
    assert report.manifest["breakdown"]["s_star"] == pytest.approx(1.0, abs=1e-6)
    assert not report.manifest["complete"]


@pytest.mark.parametrize("s, status", [(0.5, "ok"), (2.0, "breakdown")])
def test_hydro_run_computes_the_shock_time_once(tmp_path, monkeypatch, s, status):
    shock_time, calls = hydro.shock_time, []
    monkeypatch.setattr(hydro, "shock_time", lambda *args: calls.append(args) or shock_time(*args))
    raw = {"scenario": "hydro",
           "hydro": {"profile": {"grid": [0.1, 0.5, 0.9], "q_values": [0.1, 0.5, 0.9]},
                     "speed": {"kind": "identity"}, "s": s}}
    report = cli.run_scenario(cli.parse_config(json.dumps(raw)), out_dir=str(tmp_path))
    assert report.manifest["status"] == status
    assert len(calls) == 1


def test_dyson_scenario_small_circular_law(tmp_path):
    raw = {
        "scenario": "dyson",
        "seed": 7,
        "output": {"directory": str(tmp_path / "out")},
        "dyson": {"N": 64, "hbar": 1.0 / 64, "times": [], "mode": "minimize"},
    }
    report = cli.run_scenario(cli.parse_config(json.dumps(raw)))
    assert report.exit_code == 0
    support = json.loads((tmp_path / "out" / "support.json").read_text())
    assert sorted(support) == ["boundary", "kind"]
    # the droplet is the disk of radius sqrt(t0) = 1: the polyline's mean radius
    # within 0.05, and each vertex within half a particle cell, 1 / (2 sqrt(N))
    radii = np.abs([complex(*point) for point in support["boundary"]])
    assert abs(np.mean(radii) - 1.0) < 0.05
    assert np.max(np.abs(radii - 1.0)) < 0.5 / math.sqrt(64)
    state_rows = (tmp_path / "out" / "state.csv").read_text().splitlines()
    assert len(state_rows) == 65  # header + N


def test_hydro_csv_inputs(tmp_path):
    profile_csv = tmp_path / "profile_in.csv"
    profile_csv.write_text("t0,q\n0.1,0.1\n0.5,0.5\n0.9,0.9\n")
    speed_csv = tmp_path / "speed_in.csv"
    speed_csv.write_text("q,c\n-2.0,-2.0\n2.0,2.0\n")
    raw = {
        "scenario": "hydro",
        "output": {"directory": str(tmp_path / "out")},
        "hydro": {"profile": {"csv": str(profile_csv)},
                  "speed": {"kind": "table_csv", "path": str(speed_csv)}, "s": 0.25},
    }
    report = cli.run_scenario(cli.parse_config(json.dumps(raw)))
    assert report.exit_code == 0
    rows = (tmp_path / "out" / "profile.csv").read_text().splitlines()[1:]
    q_mid = float(rows[1].split(",")[1])
    assert q_mid == pytest.approx(0.5 / 0.75, abs=1e-9)  # q = t0 / (1 - s)


_CSV_HEADERS = {"profile": "t0,q", "speed": "q,c"}


@pytest.mark.parametrize("kind, text", [
    ("profile", None),
    ("speed", "q,c\n0.0,0.2\n0.5,0.3\n0.5,0.4\n1.0,0.6\n"),
    *[(kind, text) for kind in ("profile", "speed") for text in (
        "", "{header}\n", "\n0.0,0.2\n1.0,0.6\n",
        "{header}\n0.0,nan\n1.0,0.6\n", "{header}\n0.0,0.2\ninf,0.6\n")],
], ids=["profile-missing", "speed-repeated-q",
        *[f"{kind}-{case}" for kind in ("profile", "speed")
          for case in ("empty", "header-only", "blank-first-line", "nan", "inf")]])
def test_missing_csv_is_config_error(tmp_path, kind, text):
    # a missing file, a repeated speed q, no data rows, or a non-finite cell
    path = tmp_path / "table.csv"
    if text is not None:
        path.write_text(text.format(header=_CSV_HEADERS[kind]))
    hydro = {"profile": {"grid": [0, 1], "q_values": [0, 1]},
             "speed": {"kind": "identity"}, "s": 0.1}
    if kind == "profile":
        hydro["profile"] = {"csv": str(path)}
    else:
        hydro["speed"] = {"kind": "table_csv", "path": str(path)}
    raw = {"scenario": "hydro", "output": {"directory": str(tmp_path / "out")}, "hydro": hydro}
    with pytest.raises(ConfigError) as err:
        cli.run_scenario(cli.parse_config(json.dumps(raw)))
    assert [ptr for ptr, _ in err.value.problems] == ["/hydro"]


def _family_hydro(profile, k, q_max, driving, s):
    return {"scenario": "hydro",
            "hydro": {"profile": profile, "s": s,
                      "speed": {"kind": "family", "k": k, "q_max": q_max, "driving": driving}}}


def test_hydro_family_speed_agrees_with_the_per_q_refit(tmp_path):
    # profile and s* of the same run when every speed call refit the map
    raw = _family_hydro({"grid": [0, 0.25, 0.5, 0.75, 1], "q_values": [0.1, 0.15, 0.2, 0.25, 0.3]},
                        2, 0.5, {"kind": "piecewise_linear",
                                 "knots": [[0, 0], [0.25, 0.4], [0.5, 0.1]]}, 0.02)
    report = cli.run_scenario(cli.parse_config(json.dumps(raw)), out_dir=str(tmp_path))
    assert report.exit_code == 0
    rows = (tmp_path / "profile.csv").read_text().splitlines()[1:]
    refit = [0.12344258022841477, 0.17589569974770833, 0.22751196555412898,
             0.28254879029806107, 0.3422345343249162]
    assert_allclose([float(row.split(",")[1]) for row in rows], refit, rtol=0, atol=1e-10)
    assert report.manifest["summary"]["s_star"] == pytest.approx(0.1273245051770218, rel=1e-4)


def test_hydro_family_solution_outside_its_range_is_a_breakdown(tmp_path):
    raw = _family_hydro({"grid": [0, 0.5, 1], "q_values": [0.1, 0.2, 0.3]},
                        2, 0.4, {"kind": "constant", "theta0": math.pi}, 0.05)
    report = cli.run_scenario(cli.parse_config(json.dumps(raw)), out_dir=str(tmp_path))
    assert report.exit_code == 2
    manifest = strict_json((tmp_path / "manifest.json").read_text())
    assert manifest["breakdown"]["type"] == "IntegrationBreakdownError"
    message = manifest["breakdown"]["message"]
    assert "t0 = 1.0" in message and "q = 0.44" in message and "[0.0, 0.4]" in message


def test_moments_scenario(tmp_path):
    raw = {
        "scenario": "moments",
        "output": {"directory": str(tmp_path / "out"), "formats": ["json"]},
        "moments": {"map": {"r": 1.0, "coeffs": [[0, 0], [0.3, 0]]}, "order": 4},
    }
    report = cli.run_scenario(cli.parse_config(json.dumps(raw)))
    data = json.loads((tmp_path / "out" / "moments.json").read_text())
    assert data["t0"] == pytest.approx(0.91)
    assert data["t"][1][0] == pytest.approx(0.15)


def test_moments_scenario_rejects_self_crossing_map(tmp_path):
    raw = {
        "scenario": "moments",
        "output": {"directory": str(tmp_path / "out"), "formats": ["json"]},
        "moments": {"map": {"r": 1.0, "coeffs": [[0, 0], [-0.9, 0], [0, -0.2], [-0.2, 0]]},
                    "order": 4},
    }
    report = cli.run_scenario(cli.parse_config(json.dumps(raw)))
    assert report.exit_code == 2
    assert report.manifest["breakdown"]["type"] == "NonUnivalentError"
    assert not (tmp_path / "out" / "moments.json").exists()


def test_grow_summary_folds_step_diagnostics(tmp_path):
    raw = minimal_grow_config(tmp_path / "out", steps=20, duration=0.2)
    raw["grow"]["map"]["coeffs"] = [[0, 0], [0, 0], [0.1, 0.05]]
    report = cli.run_scenario(cli.parse_config(json.dumps(raw)))
    summary = report.manifest["summary"]
    traj = growth.run(laurent.LaurentMap(1.0, [0, 0, 0.1 + 0.05j]),
                      [(growth.FlowSpec.t0_infinity(), 0.2, 20)], moment_order=4)
    diags = [rec.diagnostics for rec in traj.records[1:]]
    assert summary["rk4_steps"] == 20
    assert summary["max_leakage"] == max(d.leakage for d in diags)
    assert summary["min_abs_zprime"] == min(d.min_abs_zprime for d in diags)
    assert "max_r_imag_residual" not in summary
    assert 0.0 < summary["min_abs_zprime"] < 1.0


def test_grow_csv_rows_equal_the_per_cell_loop():
    # the rows are read off stacked arrays; the old loop converted cell by cell
    m = laurent.LaurentMap(1.0, [0.02j, 0.1, 0.0, -0.03]).with_order(6)
    schedule = [(growth.FlowSpec.t0_infinity(), 0.05, 3), (growth.FlowSpec.tk_imag(2), 0.01, 2)]
    records = growth.run(m, schedule, moment_order=5).records
    trajectory = []
    for rec in records:
        row = [rec.index, float(rec.time), float(rec.moments.t0), float(rec.map.r)]
        for c in rec.map.coeffs:
            row += [float(c.real), float(c.imag)]
        trajectory.append(row)
    moments = []
    for rec in records:
        for k in range(1, 6):
            moments.append([rec.index, k,
                            float(rec.moments.t[k - 1].real), float(rec.moments.t[k - 1].imag),
                            float(rec.moments.v[k - 1].real), float(rec.moments.v[k - 1].imag)])
    for got, want in ((cli._trajectory_rows(records), trajectory),
                      (cli._moment_rows(records), moments)):
        assert got == want
        assert [[type(x) for x in row] for row in got] == [[type(x) for x in row] for row in want]
        assert cli._encode("rows.csv", (["h"], got)) == cli._encode("rows.csv", (["h"], want))


def _grow_legs(flows, coeffs=(), **extra):
    return {"scenario": "grow", **extra,
            "grow": {"map": {"r": 1.0, "coeffs": list(coeffs)}, "flows": flows}}


_T0 = {"kind": "t0_infinity", "duration": 0.1, "steps": 4}
_K70 = {"kind": "tk_real", "k": 70, "duration": 0.01, "steps": 1}


@pytest.mark.parametrize("raw, pointer", [
    # z**k spans powers [-k M, k]; a 128 grid resolves only |m| <= 63
    (_grow_legs([{"kind": "tk_real", "k": 4, "duration": 0.01, "steps": 1}], [[0, 0], [0.1, 0]],
                resolution={"M": 16, "n": 128}), "/grow/flows/0/k"),
    (_grow_legs([_T0, _K70]), "/grow/flows/1/k"),
    # the leading coefficient driven below zero
    (_grow_legs([{**_T0, "duration": -2}]), "/grow/flows/0/duration"),
    (_grow_legs([_T0, {**_T0, "duration": -2}]), "/grow/flows/1/duration"),
    # two legs alias: the first one is reported
    (_grow_legs([_T0, _K70, {**_K70, "k": 80}]), "/grow/flows/1/k"),
])
def test_grow_leg_error_is_reported_at_its_leg(tmp_path, raw, pointer):
    with pytest.raises(ConfigError) as err:
        cli.run_scenario(cli.parse_config(json.dumps(raw)), out_dir=str(tmp_path))
    assert [ptr for ptr, _ in err.value.problems] == [pointer]


def test_reproducibility_byte_identical(tmp_path, caplog):
    text = json.dumps(minimal_grow_config(tmp_path / "a", steps=30))
    cfg1 = cli.parse_config(text)
    with caplog.at_level("INFO", logger=cli.log.name):
        cli.run_scenario(cfg1, out_dir=tmp_path / "a")
    cfg2 = cli.parse_config(text)
    cli.run_scenario(cfg2, out_dir=tmp_path / "b")
    for name in ("trajectory.csv", "moments.csv", "contours.json", "contours.svg",
                 "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # the wall time is logged, not written
    timing = [json.loads(r.getMessage().partition(" ")[2]) for r in caplog.records
              if r.getMessage().startswith("run_scenario ")]
    assert len(timing) == 1 and timing[0]["wall_time_s"] > 0


def test_main_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(minimal_grow_config(tmp_path / "out", steps=5, duration=0.05)))
    assert cli.main([str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "dyson", "dyson": {"N": 4, "hbar": -1}}))
    assert cli.main([str(bad)]) == 1
    assert cli.main([str(tmp_path / "missing.json")]) == 1


def test_main_seed_and_format_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    raw = {
        "scenario": "dyson",
        "seed": 1,
        "output": {"directory": str(tmp_path / "o1")},
        "dyson": {"N": 8, "hbar": 0.125, "mode": "minimize"},
    }
    cfg_path.write_text(json.dumps(raw))
    assert cli.main([str(cfg_path), "--seed", "2", "--format", "csv",
                     "--out", str(tmp_path / "o2")]) == 0
    produced = {p.name for p in (tmp_path / "o2").iterdir()}
    assert "state.csv" in produced
    assert "support.json" not in produced


def test_manifest_lists_every_file_with_hash(tmp_path):
    text = json.dumps(minimal_grow_config(tmp_path / "out", steps=5, duration=0.05))
    report = cli.run_scenario(cli.parse_config(text))
    for entry in report.manifest["files"]:
        data = (tmp_path / "out" / entry["name"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]
        assert entry["bytes"] == len(data)


# a small run of each scenario, and every artifact it writes when every format is on
_SUBSET_RUNS = {
    "grow": (minimal_grow_config("unused", steps=5, duration=0.05),
             ["contours.json", "contours.svg", "moments.csv", "trajectory.csv"]),
    "loewner": ({"scenario": "loewner",
                 "loewner": {"driving": {"kind": "constant", "theta0": 0.0}, "q_max": 0.2,
                             "trace_points": 3}},
                ["family.json", "trace.csv", "trace.svg"]),
    "hydro": ({"scenario": "hydro",
               "hydro": {"profile": {"grid": [0.1, 0.5, 0.9], "q_values": [0.1, 0.5, 0.9]},
                         "speed": {"kind": "identity"}, "s": 0.5}},
              ["profile.csv", "shock.json"]),
    "dyson": ({"scenario": "dyson", "seed": 2, "dyson": {"N": 16, "hbar": 1 / 16, "bins": 8}},
              ["cloud.svg", "energy_trace.csv", "state.csv", "support.json"]),
    "moments": ({"scenario": "moments",
                 "moments": {"map": {"r": 1.0, "coeffs": [[0, 0], [0.2, 0]]}, "order": 4}},
                ["moments.csv", "moments.json"]),
}


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("scenario", cli.SCENARIOS)
def test_format_subset_writes_and_hashes_only_its_artifacts(tmp_path, scenario, fmt):
    raw, every = _SUBSET_RUNS[scenario]
    raw = {**raw, "output": {"formats": [fmt]}}
    assert cli.run_scenario(cli.parse_config(json.dumps(raw)), out_dir=str(tmp_path)).exit_code == 0
    files = strict_json((tmp_path / "manifest.json").read_text())["files"]
    names = [entry["name"] for entry in files]
    assert names == [name for name in every if name.endswith("." + fmt)]
    assert set(names) == {path.name for path in tmp_path.iterdir()} - {"manifest.json"}
    for entry in files:
        data = (tmp_path / entry["name"]).read_bytes()
        assert entry == {"name": entry["name"], "sha256": hashlib.sha256(data).hexdigest(),
                         "bytes": len(data)}


def test_render_svg_square_and_determinism():
    square = [0, 1, 1 + 1j, 1j, 0]
    doc1 = svgout.render_svg([("polyline", square, {})])
    doc2 = svgout.render_svg([("polyline", square, {})])
    assert doc1 == doc2
    assert doc1.count("<path") == 2  # square plus scale bar
    assert "viewBox" in doc1


def test_render_svg_points_and_empty():
    pts = [0.1 + 0.2j, -0.3j, 1.0]
    doc = svgout.render_svg([("points", pts, {})])
    assert doc.count("<circle") == 3
    empty = svgout.render_svg([])
    assert "warning: empty input" in empty
    assert empty.startswith("<svg")


@pytest.mark.parametrize("raw, pointer", [
    ({"scenario": "hydro",
      "hydro": {"profile": {"grid": [0, 1], "q_values": [0, 1]},
                "speed": {"kind": "identity"}, "s": float("nan")}}, "/hydro/s"),
    ({"scenario": "dyson", "dyson": {"N": 8, "hbar": float("inf")}}, "/dyson/hbar"),
    ({"scenario": "loewner",
      "loewner": {"driving": {"kind": "brownian", "kappa": 0.5}, "q_max": float("inf")}},
     "/loewner/q_max"),
    ({"scenario": "grow",
      "grow": {"map": {"r": 1.0},
               "flows": [{"kind": "t0_infinity", "duration": float("nan"), "steps": 5}]}},
     "/grow/flows/0/duration"),
    ({"scenario": "hydro",
      "hydro": {"profile": {"grid": [0, "a", 1], "q_values": [0, 0.5, 1]},
                "speed": {"kind": "identity"}, "s": 0.1}}, "/hydro/profile/grid/1"),
    *[({"scenario": "dyson", "dyson": {"N": 8, "hbar": 0.1, "schedule": {key: value}}},
       f"/dyson/schedule/{key}")
      for key, value in [("max_iterations", -1), ("max_iterations", 0), ("tolerance", -1.0),
                         ("tolerance", 0.0), ("step0", -0.5), ("proposal_scale", -0.1),
                         ("burn_in", -5), ("step0", 0.5)]],
    # t0 = hbar * N overflows
    ({"scenario": "dyson", "dyson": {"N": 20, "hbar": 1e307, "mode": "metropolis"}},
     "/dyson/hbar"),
    ({"scenario": "dyson", "dyson": {"N": 10 ** 400, "hbar": 0.1}}, "/dyson/hbar"),
    ({"scenario": "hydro",
      "hydro": {"profile": {"grid": [0, 1, 1], "q_values": [0, 0.5, 1]},
                "speed": {"kind": "identity"}, "s": 0.1}}, "/hydro/profile/grid"),
    # a speed table must be sorted by q, without repeats
    *[({"scenario": "hydro",
        "hydro": {"profile": {"grid": [0, 1], "q_values": [0, 1]},
                  "speed": {"kind": "table", "q": q, "c": c}, "s": 0.1}}, "/hydro/speed/q")
      for q, c in [([1.0, 0.0], [0.6, 0.2]), ([0, 0.5, 0.5, 1], [0.2, 0.3, 0.4, 0.6])]],
    # the single-value background keys are gone: each is an unknown key
    ({"scenario": "grow",
      "grow": {"map": {"r": 1.0}, "potential": {"kind": "quadratic"},
               "flows": [{"kind": "t0_infinity", "duration": 0.1, "steps": 1}]}},
     "/grow/potential"),
    ({"scenario": "dyson",
      "dyson": {"N": 8, "hbar": 0.1,
                "measure": {"kind": "plane", "potential": {"kind": "quadratic"}}}},
     "/dyson/measure/potential"),
    ({"scenario": "dyson",
      "dyson": {"N": 8, "hbar": 0.1,
                "measure": {"kind": "curve", "curve": {"kind": "real_line"},
                            "confine": {"kind": "quadratic_hbar", "coefficient": 2.0}}}},
     "/dyson/measure/confine/kind"),
])
def test_parse_rejects_non_finite_or_mistyped_number(raw, pointer):
    with pytest.raises(ConfigError) as err:
        cli.parse_config(json.dumps(raw))
    assert [ptr for ptr, _ in err.value.problems] == [pointer]


@pytest.mark.parametrize("text", ["1" * 5000, "[" * 100000], ids=["long-integer", "deep-nesting"])
def test_parse_rejects_unreadable_json(text):
    with pytest.raises(ConfigError) as err:
        cli.parse_config(text)
    assert err.value.problems[0][0] == ""


def test_main_rejects_non_utf8_config(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    assert cli.main([str(path)]) == 1


def test_metropolis_with_few_sweeps_keeps_the_final_state(tmp_path):
    raw = {
        "scenario": "dyson",
        "output": {"directory": str(tmp_path / "out")},
        "dyson": {"N": 8, "hbar": 0.125, "mode": "metropolis", "sweeps": 10},
    }
    report = cli.run_scenario(cli.parse_config(json.dumps(raw)))
    assert report.exit_code == 0
    assert len((tmp_path / "out" / "state.csv").read_text().splitlines()) == 9


def test_parse_rejects_burn_in_not_below_sweeps():
    raw = {"scenario": "dyson",
           "dyson": {"N": 8, "hbar": 0.125, "mode": "metropolis", "sweeps": 40,
                     "schedule": {"burn_in": 40}}}
    with pytest.raises(ConfigError) as err:
        cli.parse_config(json.dumps(raw))
    assert [ptr for ptr, _ in err.value.problems] == ["/dyson/schedule/burn_in"]


def test_parse_rejects_negative_seed():
    raw = {"scenario": "dyson", "seed": -1, "dyson": {"N": 6, "hbar": 0.2}}
    with pytest.raises(ConfigError) as err:
        cli.parse_config(json.dumps(raw))
    assert [ptr for ptr, _ in err.value.problems] == ["/seed"]


@pytest.mark.parametrize("override, errors", [
    (["--seed", "-1"], ["config error at /seed: must be >= 0"]),
    (["--format", "csv,bogus"],
     ["config error at /output/formats/1: must be one of ('csv', 'json', 'svg')"]),
    (["--seed", "-1", "--format", "svg,xml"],
     ["config error at /seed: must be >= 0",
      "config error at /output/formats/1: must be one of ('csv', 'json', 'svg')"]),
], ids=["seed", "format", "both"])
def test_main_rejects_negative_seed_override(tmp_path, capsys, override, errors):
    # both overrides go through the config's schema nodes, in one error
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "dyson", "seed": 1,
                                    "dyson": {"N": 6, "hbar": 0.2}}))
    assert cli.main([str(cfg_path), *override, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == errors
    assert not (tmp_path / "o").exists()


def test_parse_rejects_zero_ray_direction():
    raw = {"scenario": "dyson",
           "dyson": {"N": 6, "hbar": 0.2,
                     "measure": {"kind": "curve",
                                 "curve": {"kind": "ray", "z0": [0.0, 0.0],
                                           "direction": [0.0, 0.0]}}}}
    with pytest.raises(ConfigError) as err:
        cli.parse_config(json.dumps(raw))
    assert [ptr for ptr, _ in err.value.problems] == ["/dyson/measure/curve/direction"]


def _curve_measure(curve, **confine):
    return {"kind": "curve", "curve": curve, "confine": confine}


_REAL_LINE = {"kind": "real_line"}
_RAY = {"kind": "ray", "z0": [0.0, 0.0], "direction": [1.0, 0.0]}


@pytest.mark.parametrize("measure, times, pointer", [
    # unchecked, these ran to status ok: the particles spread until the forces fell below tol
    (_curve_measure(_REAL_LINE, coefficient=0), [], "/dyson/measure/confine/coefficient"),
    (_curve_measure(_REAL_LINE, coefficient=-1), [], "/dyson/measure/confine/coefficient"),
    (_curve_measure(_RAY, coefficient=0), [], "/dyson/measure/confine/coefficient"),
    # t2 beats s^2 / (2 hbar); unchecked, the run stopped unconverged after 0 iterations
    (_curve_measure(_REAL_LINE), [[0, 0], [2, 0]], "/dyson"),
], ids=["line-free", "line-repelling", "ray-free", "line-t2"])
def test_non_confining_curve_gas_is_a_config_error(tmp_path, capsys, measure, times, pointer):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "dyson",
                                    "dyson": {"N": 8, "hbar": 0.1, "times": times,
                                              "measure": measure}}))
    assert cli.main([str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert f"config error at {pointer}: " in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_plane_bins_below_four_is_a_config_error(tmp_path, capsys):
    # unchecked, this ran the whole minimize and then failed at /dyson with
    # "too few particles to estimate a boundary"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "dyson", "seed": 1,
                                    "dyson": {"N": 64, "hbar": 0.015625, "bins": 3}}))
    assert cli.main([str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "config error at /dyson/bins: must be >= 4 for a plane measure" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("bins, measure", [(4, {"kind": "plane"}), (1, _curve_measure(_REAL_LINE))])
def test_bins_rule_takes_four_in_the_plane_and_one_on_a_curve(bins, measure):
    raw = {"scenario": "dyson", "dyson": {"N": 8, "hbar": 0.1, "bins": bins, "measure": measure}}
    assert cli.parse_config(json.dumps(raw)).params["bins"] == bins


@pytest.mark.parametrize("mode", ["minimize", "metropolis"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_plane_gas_below_four_particles_is_a_config_error(tmp_path, capsys, n, mode):
    # unchecked, this ran the whole minimize or chain and then failed at
    # /dyson with "too few particles to estimate a boundary"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "dyson",
                                    "dyson": {"N": n, "hbar": 0.25, "mode": mode, "sweeps": 2}}))
    assert cli.main([str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "config error at /dyson/N: must be >= 4 for a plane measure" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_plane_gas_with_empty_bins_is_a_breakdown(tmp_path, capsys):
    # a short chain at N = 8 leaves an angular bin empty at every count down
    # to 4; this ran the chain and then exited 1 at /dyson with "too few
    # particles to estimate a boundary", writing no manifest
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "dyson",
                                    "dyson": {"N": 8, "hbar": 0.125, "mode": "metropolis",
                                              "sweeps": 3}}))
    assert cli.main([str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "config error" not in capsys.readouterr().err
    manifest = strict_json((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["status"] == "breakdown" and not manifest["complete"]
    assert manifest["breakdown"]["type"] == "InsufficientSamplesError"
    assert "empty" in manifest["breakdown"]["message"]
    # the chain's final state is still written
    assert "state.csv" in [f["name"] for f in manifest["files"]]
    assert len((tmp_path / "o" / "state.csv").read_text().splitlines()) == 9


def test_curve_gas_takes_three_particles(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "dyson",
                                    "dyson": {"N": 3, "hbar": 0.25,
                                              "measure": _curve_measure(_REAL_LINE)}}))
    assert cli.main([str(cfg_path), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("coefficient", [2.0, 0.5])
def test_confine_coefficient_gives_the_closed_form_energy(tmp_path, coefficient):
    # the real-line gas in c s^2 / (2 hbar) is the c = 1 gas at hbar / c
    n, hbar = 64, 1 / 64
    raw = {"scenario": "dyson", "seed": 1,
           "dyson": {"N": n, "hbar": hbar,
                     "measure": _curve_measure(_REAL_LINE, coefficient=coefficient)}}
    report = cli.run_scenario(cli.parse_config(json.dumps(raw)), out_dir=str(tmp_path))
    summary = report.manifest["summary"]
    assert report.exit_code == 0 and summary["converged"]
    exact = (n * (n - 1) / 2 * (1 - math.log(hbar / coefficient))
             - sum(k * math.log(k) for k in range(1, n + 1)))
    assert abs(summary["energy"] - exact) <= 1e-12 * abs(exact)


def test_strict_writers_name_the_first_non_finite_value():
    rows = [[0, 1.0, 2.0], [1, 3.0, float("nan")], [2, float("inf"), 0.5]]
    with pytest.raises(NonFiniteResultError) as err:
        cli._encode("rows.csv", (["i", "a", "b"], rows))
    assert str(err.value) == "rows.csv/1/2 is nan"
    payload = {"b": [[1.0], [2.0, np.float64("-inf"), float("nan")]], "a": float("nan")}
    with pytest.raises(NonFiniteResultError) as err:
        cli._encode("nested.json", payload)
    assert str(err.value) == "nested.json/b/1/1 is np.float64(-inf)"
    with pytest.raises(NonFiniteResultError) as err:
        cli._encode("cloud.svg", [("points", [0j, complex(1.0, float("nan"))], {})])
    assert str(err.value) == "cloud.svg has a non-finite point"


@pytest.mark.parametrize("raw", [
    # t0 = 1e308 is finite, but the field energy of the sampled state overflows
    {"scenario": "dyson",
     "dyson": {"N": 100, "hbar": 1e306, "mode": "metropolis", "sweeps": 2, "bins": 4,
               "schedule": {"burn_in": 1}}},
    # the ray's confinement energy overflows at the start, which has no forces
    {"scenario": "dyson",
     "dyson": {"N": 20, "hbar": 5e306,
               "measure": {"kind": "curve",
                           "curve": {"kind": "ray", "z0": [0.0, 0.0], "direction": [1.0, 0.0]}}}},
    # the map's area r^2 overflows
    {"scenario": "moments", "moments": {"map": {"r": 1e200}, "order": 3}},
], ids=["dyson-metropolis", "dyson-ray", "moments"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_result_is_a_breakdown(tmp_path, raw):
    report = cli.run_scenario(cli.parse_config(json.dumps(raw)), out_dir=str(tmp_path))
    assert report.exit_code == 2
    manifest = strict_json((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "breakdown" and not manifest["complete"]
    assert manifest["breakdown"]["type"] == "NonFiniteResultError"
    for entry in manifest["files"]:
        text = (tmp_path / entry["name"]).read_text()
        assert "nan" not in text.lower() and "inf" not in text.lower(), entry["name"]


def _writes_nan_artifact(cfg, emit):
    emit("bad.json", {"values": [1.0, float("nan")]})
    return {}


def _returns_infinite_summary(cfg, emit):
    return {"energy": float("inf"), "fine": 1.0}


@pytest.mark.parametrize("runner, where", [
    (_writes_nan_artifact, "bad.json/values/1"),
    (_returns_infinite_summary, "summary/energy"),
])
def test_non_finite_values_are_never_written(tmp_path, monkeypatch, runner, where):
    monkeypatch.setitem(cli._RUNNERS, "moments", runner)
    raw = {"scenario": "moments", "moments": {"map": {"r": 1.0}}}
    report = cli.run_scenario(cli.parse_config(json.dumps(raw)), out_dir=str(tmp_path))
    assert report.exit_code == 2
    manifest = strict_json((tmp_path / "manifest.json").read_text())
    assert manifest["breakdown"]["type"] == "NonFiniteResultError"
    assert where in manifest["breakdown"]["message"]
    assert manifest["summary"] == {} and manifest["files"] == []
    assert not (tmp_path / "bad.json").exists()


def test_metropolis_summary_records_tuning_windows(tmp_path):
    raw = {
        "scenario": "dyson", "seed": 4,
        "dyson": {"N": 8, "hbar": 0.125, "mode": "metropolis", "sweeps": 70,
                  "schedule": {"burn_in": 45}},
    }
    first = cli.run_scenario(cli.parse_config(json.dumps(raw)), out_dir=str(tmp_path / "a"))
    again = cli.run_scenario(cli.parse_config(json.dumps(raw)), out_dir=str(tmp_path / "b"))
    summary = first.manifest["summary"]
    assert summary["proposals"] == 8 * 70
    assert summary["accepted"] == round(summary["acceptance"] * summary["proposals"])
    windows = summary["tuning_windows"]
    assert [w["sweep"] for w in windows] == [20, 40]
    assert windows[-1]["proposal_scale"] == summary["proposal_scale"]
    assert all(0.0 <= w["acceptance"] <= 1.0 for w in windows)
    assert again.manifest["summary"] == summary


# The scipy parts that only a plane gas minimization (optimize, which itself
# imports spatial) and hydro (interpolate) compute with; every other scenario,
# a plane gas Metropolis run included, must start without them.
_DEFERRED_SCIPY = ("scipy.optimize", "scipy.interpolate", "scipy.spatial")
_COLD_START = """
import json, sys
import todaflow.cli
deferred = {deferred!r}
result = {{"import": [m for m in deferred if m in sys.modules]}}
if len(sys.argv) > 1:
    result["exit"] = todaflow.cli.main(sys.argv[1:])
    result["run"] = [m for m in deferred if m in sys.modules]
print(json.dumps(result))
""".format(deferred=_DEFERRED_SCIPY)


@pytest.mark.parametrize("raw", [
    None,
    {"scenario": "moments",
     "moments": {"map": {"r": 1.0, "coeffs": [[0, 0], [0.2, 0]]}, "order": 4}},
    minimal_grow_config("unused", steps=5, duration=0.05),
    {"scenario": "loewner",
     "loewner": {"driving": {"kind": "constant", "theta0": 0.0}, "q_max": 0.2,
                 "trace_points": 5}},
    # a curve gas minimizes by Newton and checks its separations by sorting
    {"scenario": "dyson",
     "dyson": {"N": 16, "hbar": 0.0625, "measure": {"kind": "curve", "curve": {"kind": "real_line"}}}},
    # a plane chain checks its separations by distance rows
    {"scenario": "dyson", "dyson": {"N": 16, "hbar": 0.0625, "mode": "metropolis"}},
], ids=["import", "moments", "grow", "loewner", "dyson", "plane-metropolis"])
def test_cold_start_loads_no_deferred_scipy_part(tmp_path, raw):
    argv = []
    if raw is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        argv = [str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _COLD_START, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["import"] == []
    if raw is not None:
        assert (result["exit"], result["run"]) == (0, [])
        manifest = strict_json((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["versions"]["scipy"] == scipy.__version__
