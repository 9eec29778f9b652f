"""One benchmark op per workload, and the checks that accept its output.

An op is a chain of user-visible scenario calls: ``cli.parse_config`` then
``cli.run_scenario`` on a generated config, writing artifacts under the op's
scratch directory.  ``execute`` is the timed part; ``check`` reads the
artifacts back afterwards and returns the list of problems it found (empty
when the op is correct).  Tolerances are those of the acceptance suite.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.linalg import eigvalsh_tridiagonal

from todaflow import cli, hydro, loewner

T_DRIFT_TOL = 1e-6        # criterion 2: exterior moments conserved by the area flow
T0_CLOCK = 0.7            # t0 gained over the grow legs: 0.5 + 0.0 + 0.2
T0_TOL = 1e-9
TRACE_IMAG_TOL = 1e-9     # criterion 8: constant-driving slit lies on its ray
NODE_TOL = 1e-10          # characteristic identity q = q0(t0 + c(q) s)
SEMICIRCLE_TOL = 0.03     # criterion 13
ACCEPTANCE_RANGE = (0.2, 0.6)
MEAN_R2, MEAN_R2_TOL = 0.5, 0.05
# The transport distance s is capped so that |c| s, the distance from a node
# to its characteristic foot t0 + c s, is at most this share of the profile's
# t0 span.  Feet past the grid's ends see only PCHIP-extrapolated q0 data,
# while hydro.shock_time looks for s* on the grid alone, so there
# solve_characteristics can raise ShockError below the reported s*.
FOOT_SHIFT = 0.05


def _scenario(config: dict, out_dir: Path) -> dict:
    cfg = cli.parse_config(json.dumps(config))
    return cli.run_scenario(cfg, out_dir=str(out_dir)).manifest


def speed_table(spec: dict) -> list:
    """c_k on the spec's q nodes for a piecewise-linear family (library calls)."""
    driving = loewner.DrivingFunction.piecewise_linear(spec["driving"]["knots"])
    family = loewner.default_family(spec["q0"], spec["q_max"], driving)
    return [hydro.characteristic_speed(spec["k"], family, q) for q in spec["q"]]


def shock_estimate(table_q, table_c, grid, q_values) -> float:
    """First gradient catastrophe of the table speed over the profile nodes."""
    q0 = PchipInterpolator(grid, q_values, extrapolate=True)
    dense = np.linspace(grid[0], grid[-1], 8 * len(grid))
    slopes = np.diff(table_c) / np.diff(table_q)
    seg = np.clip(np.searchsorted(table_q, q0(dense)) - 1, 0, len(slopes) - 1)
    peak = float(np.max(slopes[seg] * q0.derivative()(dense)))
    return math.inf if peak <= 0.0 else 1.0 / peak


def execute(workload: str, op: dict, out_dir: Path) -> dict:
    """Run one op; returns the manifests plus what the checks need."""
    if workload == "grow":
        return {"manifests": {"grow": _scenario(op["grow"], out_dir / "grow"),
                              "moments": _scenario(op["moments"], out_dir / "moments")}}
    if workload == "slit":
        manifests = {"loewner": _scenario(op["loewner"], out_dir / "loewner")}
        spec, prof = op["speed"], op["hydro"]["profile"]
        table_c = speed_table(spec)
        s_star = shock_estimate(spec["q"], table_c, prof["grid"], prof["q_values"])
        span = prof["grid"][-1] - prof["grid"][0]
        s = op["hydro"]["s_fraction"] * min(s_star, FOOT_SHIFT * span / max(map(abs, table_c)))
        config = {"scenario": "hydro", "seed": op["hydro"]["seed"],
                  "hydro": {"profile": prof, "speed": {"kind": "table", "q": spec["q"],
                                                       "c": table_c}, "s": s}}
        manifests["hydro"] = _scenario(config, out_dir / "hydro")
        return {"manifests": manifests, "table_c": table_c, "s": s}
    return {"manifests": {"dyson": _scenario(op["dyson"], out_dir / "dyson")}}


# ---------------------------------------------------------------------------
# checks

_SVG_BAD = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)


def _finite_json(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite_json(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_json(v) for v in obj)
    return True


def check_files(directory: Path) -> list:
    """Status ok, and every number in the manifest and its artifacts finite."""
    problems = []
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("status") != "ok":
        problems.append(f"{directory.name}: status {manifest.get('status')!r}")
    if not _finite_json(manifest):
        problems.append(f"{directory.name}/manifest.json: non-finite number")
    for entry in manifest["files"]:
        path = directory / entry["name"]
        if path.suffix == ".csv":
            _, data = _read_csv(path)
            ok = bool(np.all(np.isfinite(data)))
        elif path.suffix == ".json":
            ok = _finite_json(json.loads(path.read_text(encoding="utf-8")))
        else:
            ok = _SVG_BAD.search(path.read_text(encoding="utf-8")) is None
        if not ok:
            problems.append(f"{directory.name}/{entry['name']}: non-finite number")
    return problems


def _check_grow(op: dict, out_dir: Path) -> list:
    problems = []
    legs = op["grow"]["grow"]["flows"]
    first_leg = legs[0]["steps"]
    header, traj = _read_csv(out_dir / "grow" / "trajectory.csv")
    t0 = traj[:, header.index("t0")]
    clock = float(t0[-1] - t0[0])
    if not abs(clock - T0_CLOCK) <= T0_TOL:
        problems.append(f"grow: t0 advanced by {clock!r}, expected {T0_CLOCK}")
    _, mom = _read_csv(out_dir / "grow" / "moments.csv")
    steps, ks = mom[:, 0].astype(int), mom[:, 1].astype(int)
    tk = mom[:, 2] + 1j * mom[:, 3]
    order = int(ks.max())
    leg = tk[steps <= first_leg].reshape(-1, order)
    drift = float(np.max(np.abs(leg - leg[0])))
    if not drift < T_DRIFT_TOL:
        problems.append(f"grow: t_k drift {drift:.3e} over the t0_infinity leg")
    moments = json.loads((out_dir / "moments" / "moments.json").read_text(encoding="utf-8"))
    if not abs(moments["t0"] - float(t0[0])) <= T0_TOL:
        problems.append(f"moments: t0 {moments['t0']!r} differs from grow record 0 {t0[0]!r}")
    return problems


def _check_slit(op: dict, result: dict, out_dir: Path) -> list:
    problems = []
    driving = op["loewner"]["loewner"]["driving"]
    if driving["kind"] == "constant":
        _, trace = _read_csv(out_dir / "loewner" / "trace.csv")
        tips = (trace[:, 1] + 1j * trace[:, 2]) * np.exp(-1j * driving["theta0"])
        off_ray = float(np.max(np.abs(tips.imag)))
        if not off_ray < TRACE_IMAG_TOL:
            problems.append(f"loewner: constant-driving trace leaves its ray by {off_ray:.3e}")
    shock = json.loads((out_dir / "hydro" / "shock.json").read_text(encoding="utf-8"))
    s_star = math.inf if shock["s_star"] is None else shock["s_star"]
    if not shock["s"] < s_star:
        problems.append(f"hydro: s = {shock['s']!r} not below s* = {s_star!r}")
    prof = op["hydro"]["profile"]
    q0 = PchipInterpolator(np.asarray(prof["grid"]), np.asarray(prof["q_values"]),
                           extrapolate=True)
    _, out = _read_csv(out_dir / "hydro" / "profile.csv")
    t0, q = out[:, 0], out[:, 1]
    c = np.interp(q, op["speed"]["q"], result["table_c"])
    residual = float(np.max(np.abs(q - q0(t0 + c * result["s"]))))
    if not residual <= NODE_TOL:
        problems.append(f"hydro: characteristic residual {residual:.3e}")
    return problems


def semicircle_edge(n_particles: int, hbar: float) -> float:
    """Largest scaled Gauss-Hermite node: the real-line ground state's extreme particle."""
    nodes = eigvalsh_tridiagonal(np.zeros(n_particles),
                                 np.sqrt(np.arange(1, n_particles) / 2.0))
    return float(np.sqrt(2.0 * hbar) * nodes.max())


def _check_gas_ground(op: dict, result: dict, out_dir: Path) -> list:
    problems = []
    summary = result["manifests"]["dyson"]["summary"]
    if summary.get("converged") is not True:
        problems.append(f"dyson: not converged after {summary.get('iterations')} iterations")
    params = op["dyson"]["dyson"]
    _, state = _read_csv(out_dir / "dyson" / "state.csv")
    oracle = semicircle_edge(params["N"], params["hbar"])
    rel = abs(float(state[:, 1].max()) - oracle) / oracle
    if not rel < SEMICIRCLE_TOL:
        problems.append(f"dyson: extreme particle rel. error {rel:.4f}")
    return problems


def _check_gas_sample(op: dict, result: dict, out_dir: Path) -> list:
    problems = []
    summary = result["manifests"]["dyson"]["summary"]
    lo, hi = ACCEPTANCE_RANGE
    if not lo <= summary["acceptance"] <= hi:
        problems.append(f"metropolis: acceptance {summary['acceptance']:.3f}")
    _, state = _read_csv(out_dir / "dyson" / "state.csv")
    mean_r2 = float(np.mean(state[:, 1] ** 2 + state[:, 2] ** 2))
    if not abs(mean_r2 - MEAN_R2) <= MEAN_R2_TOL:
        problems.append(f"metropolis: final mean |z|^2 = {mean_r2:.4f}")
    return problems


def check(workload: str, op: dict, result: dict, out_dir: Path) -> list:
    """Every problem with one op's output; an empty list means it passed."""
    problems = []
    for name in result["manifests"]:
        problems += check_files(out_dir / name)
    if problems:
        return problems
    if workload == "grow":
        return _check_grow(op, out_dir)
    if workload == "slit":
        return _check_slit(op, result, out_dir)
    if workload == "gas-ground":
        return _check_gas_ground(op, result, out_dir)
    return _check_gas_sample(op, result, out_dir)
