"""Self-tests of the benchmark: seeded inputs, output checks, tracing, runner.

    python3 -m pytest perfbench -q

Each output check must reject a deliberately corrupted artifact, and a
one-op smoke run of every workload must pass its checks.
"""

import csv
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layertrace  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from todaflow import cli, loewner  # noqa: E402


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One op of every workload (slit: its constant-driving op), run once."""
    done = {}
    for workload in workloads.WORKLOADS:
        out_dir = tmp_path_factory.mktemp(workload)
        op = workloads.generate(workload, 7)[0]
        done[workload] = (op, ops.execute(workload, op, out_dir), out_dir)
    return done


def _corrupted(smoke, workload, tmp_path):
    op, result, out_dir = smoke[workload]
    copy = tmp_path / "copy"
    shutil.copytree(out_dir, copy)
    return op, json.loads(json.dumps(result)), copy


def _edit_csv(path, edit):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    path.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")


def _edit_json(path, edit):
    obj = json.loads(path.read_text(encoding="utf-8"))
    edit(obj)
    path.write_text(json.dumps(obj), encoding="utf-8")


# --------------------------------------------------------------------------
# seeded inputs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_seeded_json(workload):
    first = workloads.generate(workload, 3)
    assert first == workloads.generate(workload, 3)
    assert first != workloads.generate(workload, 4)
    assert json.loads(json.dumps(first)) == first
    assert len(first) == workloads.OP_COUNT[workload]


def test_grow_maps_satisfy_the_univalence_bound():
    for seed in range(20):
        for op in workloads.generate("grow", seed):
            the_map = op["grow"]["grow"]["map"]
            total = sum(j * abs(complex(*a)) for j, a in enumerate(the_map["coeffs"]))
            assert total <= workloads.MAP_LOAD * the_map["r"] + 1e-12
            assert op["moments"]["moments"]["map"] == the_map


def test_slit_ops_rotate_the_driving():
    kinds = [op["kind"] for op in workloads.generate("slit", 1)[:3]]
    assert kinds == ["constant", "piecewise_linear", "brownian"]


# --------------------------------------------------------------------------
# smoke runs and corrupted outputs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_op_smoke_run_passes(smoke, workload):
    op, result, out_dir = smoke[workload]
    assert ops.check(workload, op, result, out_dir) == []


def test_rejects_breakdown_status(smoke, tmp_path):
    op, result, copy = _corrupted(smoke, "gas-sample", tmp_path)
    _edit_json(copy / "dyson" / "manifest.json", lambda m: m.update(status="breakdown"))
    assert any("status" in p for p in ops.check("gas-sample", op, result, copy))


def test_rejects_non_finite_artifacts(smoke, tmp_path):
    op, result, copy = _corrupted(smoke, "grow", tmp_path)
    (copy / "grow" / "contours.json").write_text('[{"step": 0, "points": [[NaN, 0.0]]}]')
    svg = copy / "grow" / "contours.svg"
    svg.write_text(svg.read_text().replace("<path d=\"M ", "<path d=\"M nan ", 1))
    problems = ops.check("grow", op, result, copy)
    assert any("contours.json" in p for p in problems)
    assert any("contours.svg" in p for p in problems)


def test_rejects_perturbed_moment_row(smoke, tmp_path):
    op, result, copy = _corrupted(smoke, "grow", tmp_path)

    def bump(rows):  # step 100, k = 3: inside the t0_infinity leg
        row = next(r for r in rows[1:] if r[0] == "100" and r[1] == "3")
        row[2] = repr(float(row[2]) + 1e-5)

    _edit_csv(copy / "grow" / "moments.csv", bump)
    assert any("drift" in p for p in ops.check("grow", op, result, copy))


def test_rejects_wrong_area_clock_and_moment_t0(smoke, tmp_path):
    op, result, copy = _corrupted(smoke, "grow", tmp_path)

    def shift_last(rows):
        rows[-1][2] = repr(float(rows[-1][2]) + 1e-8)

    _edit_csv(copy / "grow" / "trajectory.csv", shift_last)
    _edit_json(copy / "moments" / "moments.json", lambda m: m.update(t0=m["t0"] + 1e-8))
    problems = ops.check("grow", op, result, copy)
    assert any("t0 advanced" in p for p in problems)
    assert any("record 0" in p for p in problems)


def test_rejects_imaginary_tip(smoke, tmp_path):
    op, result, copy = _corrupted(smoke, "slit", tmp_path)
    assert op["kind"] == "constant"
    theta0 = op["loewner"]["loewner"]["driving"]["theta0"]

    def lift(rows):  # move the last tip 1e-6 off the ray at angle theta0
        rows[-1][1] = repr(float(rows[-1][1]) - 1e-6 * math.sin(theta0))
        rows[-1][2] = repr(float(rows[-1][2]) + 1e-6 * math.cos(theta0))

    _edit_csv(copy / "loewner" / "trace.csv", lift)
    assert any("leaves its ray" in p for p in ops.check("slit", op, result, copy))


def test_rejects_characteristic_residual_and_late_shock(smoke, tmp_path):
    op, result, copy = _corrupted(smoke, "slit", tmp_path)

    def nudge(rows):
        rows[200][1] = repr(float(rows[200][1]) + 1e-8)

    _edit_csv(copy / "hydro" / "profile.csv", nudge)
    _edit_json(copy / "hydro" / "shock.json", lambda m: m.update(s_star=0.5 * m["s"]))
    problems = ops.check("slit", op, result, copy)
    assert any("characteristic residual" in p for p in problems)
    assert any("not below s*" in p for p in problems)


def test_rejects_unconverged_or_wrong_ground_state(smoke, tmp_path):
    op, result, copy = _corrupted(smoke, "gas-ground", tmp_path)
    result["manifests"]["dyson"]["summary"]["converged"] = False

    def stretch(rows):
        for row in rows[1:]:
            row[1] = repr(1.1 * float(row[1]))

    _edit_csv(copy / "dyson" / "state.csv", stretch)
    problems = ops.check("gas-ground", op, result, copy)
    assert any("not converged" in p for p in problems)
    assert any("extreme particle" in p for p in problems)


def test_rejects_bad_acceptance_and_spread_cloud(smoke, tmp_path):
    op, result, copy = _corrupted(smoke, "gas-sample", tmp_path)
    result["manifests"]["dyson"]["summary"]["acceptance"] = 0.9

    def spread(rows):
        for row in rows[1:]:
            row[1], row[2] = repr(1.2 * float(row[1])), repr(1.2 * float(row[2]))

    _edit_csv(copy / "dyson" / "state.csv", spread)
    problems = ops.check("gas-sample", op, result, copy)
    assert any("acceptance" in p for p in problems)
    assert any("mean |z|^2" in p for p in problems)


# --------------------------------------------------------------------------
# tracing


def test_tracer_restores_the_program_and_accounts_for_op_time(tmp_path):
    originals = {name: fn for name, fn in layertrace.public_functions(cli).items()}
    eta = loewner.DrivingFunction.eta
    op = workloads.generate("grow", 2)[0]
    tracer = layertrace.Tracer()
    tracer.install()
    assert cli.run_scenario is not originals["run_scenario"]
    try:
        started = time.perf_counter()
        ops.execute("grow", op, tmp_path)
        traced_s = time.perf_counter() - started
    finally:
        tracer.uninstall()
    assert layertrace.public_functions(cli) == originals
    assert loewner.DrivingFunction.eta is eta

    metrics = layertrace.layer_metrics(tracer.spans, tracer.counts, traced_s, traced_s)
    layer_sum = sum(metrics[f"{layer}.self_s"][0] for layer in layertrace.LAYERS)
    assert layer_sum + metrics["bench.self_s"][0] == pytest.approx(traced_s, rel=1e-9)
    assert metrics["growth.rk4_steps"][0] == 400
    # one witness per RK4 step plus two per moment quadrature (harmonic, interior)
    assert metrics["laurent.univalence_witness.calls"][0] == 3 * 400 + 2 + 2
    assert metrics["cli.parse_config.s"][0] > 0
    assert metrics["loewner.eta_calls"][0] == 0


def test_span_times_subtract_only_other_layer_children():
    spans = [
        ("growth.run", 0.0, 10.0, -1),
        ("growth.moment_vector", 1.0, 3.0, 0),       # same layer: stays growth time
        ("laurent.evaluate", 4.0, 6.0, 0),           # other layer: growth caused it
        ("laurent.evaluate", 4.5, 5.0, 2),           # nested same function
        ("svgout.render_svg", 11.0, 12.0, -1),
    ]
    busy, self_s, top = layertrace.span_times(spans)
    assert busy["laurent.evaluate"] == 2.0
    assert self_s["growth"] == 8.0
    assert self_s["laurent"] == 2.0
    assert self_s["svgout"] == 1.0
    assert top == 11.0


# --------------------------------------------------------------------------
# runner


@pytest.mark.parametrize("trace", [0, 1])
def test_runner_prints_the_result_line(monkeypatch, capsys, trace):
    monkeypatch.setitem(workloads.OP_COUNT, "gas-sample", 1)
    monkeypatch.setitem(run.PASSES, "gas-sample", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    assert run.main(["--workload", "gas-sample", "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert result["attempted"] == 2
        assert result["metrics"]["dyson.proposals"]["value"] == 1024 * 30
    else:
        assert result["attempted"] == 1
        env = json.loads(lines[-2])["env"]
        assert env["nproc"] >= 1 and env["passes"] == 1


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grow",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
