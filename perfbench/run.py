"""Scenario time-to-solution benchmark for todaflow.

    python3 perfbench/run.py --workload grow --seed 1 --seconds 20 --trace 0

Run from the repository root.  One process drives one workload closed-loop,
one op at a time: each op is ``cli.parse_config`` + ``cli.run_scenario`` on
configs generated from ``--seed`` (see ``workloads.py``), and every op's
artifacts are checked after it (see ``ops.py``).  The workload's fixed op list
runs a fixed number of passes (``PASSES``), sized so that a run takes about
``--seconds`` on a 2-vCPU x86 host; the count never depends on the program's
speed, so every commit is measured with the same estimator.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the op list
once with every op twice, once plain and once under the layer wrappers of
``layertrace.py``, and reports the per-layer metrics, including the tracing
overhead.  The last stdout line is the result JSON; the line before it records
the environment.  Spans are written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
# Passes over the op list in an untraced run; wall_s is the median pass time.
PASSES = {"grow": 3, "slit": 2, "gas-ground": 1, "gas-sample": 3}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_blas_threads(nproc: int) -> int:
    """Cap BLAS threads at ``nproc``; must run before numpy is imported."""
    for var in BLAS_VARS:
        try:
            value = int(os.environ.get(var, ""))
        except ValueError:
            value = nproc
        os.environ[var] = str(min(max(value, 1), nproc))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _nproc() -> int:
    """CPUs this process may run on, as ``nproc`` counts them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _git_sha() -> str:
    if not (ROOT / ".git").exists():   # a plain checkout: never report an enclosing repo
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_sha256() -> str:
    """Hash of the program sources, which identifies a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "todaflow").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _setup_seconds(workload: str, seed: int) -> float:
    """Median of fresh-process ``import todaflow.cli`` plus input generation."""
    import workloads

    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import todaflow.cli"], env=env, check=True,
                       timeout=120)
        workloads.generate(workload, seed)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _run_op(workload, op, out_dir, tracer=None):
    """Time one op, then check it; returns (seconds, problems, manifests)."""
    import ops

    if tracer is not None:
        tracer.install()
    started = time.perf_counter()
    try:
        result = ops.execute(workload, op, out_dir)
    except Exception as exc:  # a failed op is counted, never retried
        elapsed = time.perf_counter() - started
        problems, result = [f"{type(exc).__name__}: {exc}"], {"manifests": {}}
    else:
        elapsed = time.perf_counter() - started
        problems = None
    finally:
        if tracer is not None:
            tracer.uninstall()
    if problems is None:
        try:
            problems = ops.check(workload, op, result, out_dir)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    shutil.rmtree(out_dir, ignore_errors=True)
    return elapsed, problems, result["manifests"]


def _report(problems, label):
    for p in problems:
        print(f"FAIL {label}: {p}", file=sys.stderr)


def run_plain(workload, op_list, passes, work):
    """``passes`` passes over the fixed op list; returns end-to-end inputs.

    ``iterations`` lists the descent iterations of the first pass's ops where
    the program reports them (gas-ground), so a shift between runs of the same
    seeds can be told apart from a change in work.
    """
    pass_times, op_times, iterations, failed, attempted = [], [], [], 0, 0
    for pass_index in range(passes):
        pass_s = 0.0
        for index, op in enumerate(op_list):
            elapsed, problems, manifests = _run_op(workload, op, work / f"op{index}")
            summary = manifests.get("dyson", {}).get("summary", {})
            if pass_index == 0 and "iterations" in summary:
                iterations.append(summary["iterations"])
            _report(problems, f"{workload} op {index}")
            attempted += 1
            failed += bool(problems)
            pass_s += elapsed
            op_times.append(elapsed)
        pass_times.append(pass_s)
    return pass_times, op_times, iterations, attempted, failed


def run_traced(workload, op_list, work):
    """Each op plain and traced, alternating which goes first."""
    from layertrace import Tracer

    tracer = Tracer()
    plain_s = traced_s = 0.0
    attempted = failed = 0
    for index, op in enumerate(op_list):
        order = (None, tracer) if index % 2 == 0 else (tracer, None)
        for which in order:
            elapsed, problems, _ = _run_op(workload, op, work / f"op{index}", which)
            _report(problems, f"{workload} op {index}{' traced' if which else ''}")
            attempted += 1
            failed += bool(problems)
            if which is None:
                plain_s += elapsed
            else:
                traced_s += elapsed
    return tracer, plain_s, traced_s, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="todaflow scenario benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="the run's nominal length; the op list and PASSES are sized to it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "todaflow" / "cli.py").is_file():
        print(f"todaflow sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = _nproc()
    blas_threads = _cap_blas_threads(nproc)
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    setup_s = _setup_seconds(args.workload, args.seed)
    op_list = workloads.generate(args.workload, args.seed)

    import numpy
    import scipy

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            tracer, plain_s, traced_s, attempted, failed = run_traced(
                args.workload, op_list, work)
            tracer.dump(WORK / f"spans-{args.workload}-{args.seed}.json")
            from layertrace import layer_metrics

            metrics = layer_metrics(tracer.spans, tracer.counts, traced_s, plain_s)
            info = {"op_count": len(op_list)}
        else:
            pass_times, op_times, iterations, attempted, failed = run_plain(
                args.workload, op_list, PASSES[args.workload], work)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (statistics.median(pass_times), "s"),
                "op_s.p50": (statistics.median(op_times), "s"),
                "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            }
            info = {"op_count": len(op_list), "passes": len(pass_times),
                    "pass_s": pass_times, "iterations": iterations}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fail_frac": failed / attempted,
        "git_sha": _git_sha(), "src_sha256": _source_sha256(),
        "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": nproc, "blas_threads": blas_threads,
    })
    print(json.dumps({"env": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
