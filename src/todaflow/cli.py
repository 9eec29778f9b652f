"""Scenario runner: JSON config in, CSV/JSON/SVG artifacts plus manifest out.

Configs follow a strict schema, declared as one table of schema nodes and
checked by walking it generically: unknown keys are errors, every number
must be finite, every validation problem is reported with its JSON pointer,
and numeric preconditions are checked before any computation starts.  Exit
codes: 0 success, 1 config error, 2 numerical breakdown (cusp, shock,
absorption, a non-finite result); partial outputs are kept, with the
manifest marking the run incomplete.  No artifact, summary or manifest ever
holds a NaN or an infinity: a run that computes one ends in a breakdown.

Every file takes one path.  A scenario runner hands each artifact to
``emit(name, content)``, which skips it when the name's suffix is not among
the requested formats; otherwise ``_encode`` turns the content into bytes by
that suffix (refusing a NaN or an infinity), the bytes are written, and the
manifest records the file's name, SHA-256 and size from those same bytes.
The manifest itself is encoded the same way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__, dyson, growth, hydro, laurent, loewner, svgout
from .errors import (
    ConfigError,
    CuspError,
    InsufficientSamplesError,
    IntegrationBreakdownError,
    NonFiniteResultError,
    NonUnivalentError,
    RootFindError,
    SeriesBudgetError,
    ShockError,
)

log = logging.getLogger(__name__)

SCENARIOS = ("grow", "loewner", "hydro", "dyson", "moments")
FORMATS = ("csv", "json", "svg")

_BREAKDOWN_ERRORS = (
    CuspError,
    NonUnivalentError,
    ShockError,
    IntegrationBreakdownError,
    RootFindError,
    NonFiniteResultError,
    InsufficientSamplesError,
)


@dataclass
class ScenarioConfig:
    scenario: str
    seed: int
    out_dir: str
    formats: tuple
    m_order: int | None
    grid_n: int | None
    params: dict
    sha256: str


@dataclass
class ExitReport:
    status: str
    exit_code: int
    out_dir: Path
    manifest: dict


# ---------------------------------------------------------------------------
# validation
#
# A schema node parses one JSON value: ``node(value, ptr, problems)`` returns
# the value in the form the scenario runners read, or None after appending
# (JSON pointer, message) pairs to ``problems``.  Objects parse every field
# even after a problem, so one pass reports them all.

_REQUIRED = object()


class _Node:
    def __init__(self, parse, default=_REQUIRED, checks=()):
        self._parse = parse
        self.default = default
        self._checks = checks

    def opt(self, default=None):
        """Make the key optional; when absent it parses ``default`` (None stays None)."""
        return _Node(self._parse, default, self._checks)

    def where(self, ok, message):
        """Also require ``ok(parsed value)``, reporting ``message`` otherwise."""
        return _Node(self._parse, self.default, self._checks + ((ok, message),))

    def __call__(self, value, ptr, problems):
        before = len(problems)
        value = self._parse(value, ptr, problems)
        if len(problems) > before:
            return None
        for ok, message in self._checks:
            if not ok(value):
                problems.append((ptr, message))
                return None
        return value


def _leaf(accepts, message, convert=None):
    def parse(value, ptr, problems):
        if accepts(value):
            return convert(value) if convert else value
        problems.append((ptr, message))
    return _Node(parse)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value):
    try:
        return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)
    except OverflowError:  # an integer literal beyond the float range
        return False


def _number():
    return _leaf(_is_finite, "must be a finite number", float)


def _integer():
    return _leaf(_is_int, "must be an integer")


def _string():
    return _leaf(lambda v: isinstance(v, str), "must be a string")


def _pair(label="re, im", build=complex):
    """A two-element number array, combined by ``build``."""
    number = _number()

    def parse(value, ptr, problems):
        if not isinstance(value, list) or len(value) != 2:
            problems.append((ptr, f"must be a [{label}] number pair"))
            return None
        parts = [number(v, f"{ptr}/{i}", problems) for i, v in enumerate(value)]
        return None if None in parts else build(*parts)
    return _Node(parse)


def _array(item):
    def parse(value, ptr, problems):
        if not isinstance(value, list):
            problems.append((ptr, "must be an array"))
            return None
        return [item(v, f"{ptr}/{i}", problems) for i, v in enumerate(value)]
    return _Node(parse)


def _object(fields, *checks):
    """An object with exactly the named fields.

    Each check is a cross-field rule: once every field is valid it gets the
    parsed object and yields (pointer relative to the object, message) pairs.
    """
    def parse(value, ptr, problems):
        if not isinstance(value, dict):
            problems.append((ptr, "must be an object"))
            return None
        problems.extend((f"{ptr}/{key}", "unknown key") for key in value if key not in fields)
        before = len(problems)
        out = {}
        for key, node in fields.items():
            if key in value:
                out[key] = node(value[key], f"{ptr}/{key}", problems)
            elif node.default is _REQUIRED:
                problems.append((f"{ptr}/{key}", "missing required key"))
            elif node.default is not None:
                out[key] = node(node.default, f"{ptr}/{key}", problems)  # a fresh copy
            else:
                out[key] = None
        if len(problems) == before:
            for check in checks:
                problems.extend((f"{ptr}/{sub}" if sub else ptr, message)
                                for sub, message in check(out))
        return out
    return _Node(parse)


def _kinded(variants):
    """An object whose ``kind`` string picks the object schema it follows."""
    def parse(value, ptr, problems):
        if not isinstance(value, dict):
            problems.append((ptr, "must be an object"))
        elif "kind" not in value:
            problems.append((f"{ptr}/kind", "missing required key"))
        elif not isinstance(value["kind"], str) or value["kind"] not in variants:
            problems.append((f"{ptr}/kind", f"must be one of {tuple(variants)}"))
        else:
            kind = value["kind"]
            out = variants[kind]({k: v for k, v in value.items() if k != "kind"}, ptr, problems)
            return None if out is None else {"kind": kind, **out}
    return _Node(parse)


def _count():
    return _integer().where(lambda v: v >= 1, "must be >= 1")


def _positive():
    return _number().where(lambda v: v > 0, "must be positive")


def _q_max_above_q0(v):
    if v["q_max"] <= v["q0"]:
        yield "q_max", "must exceed q0"


def _tracked_outside_r0(v):
    r0 = np.exp(v["q0"])
    for i, p in enumerate(v["tracked"] or ()):
        if abs(p) <= r0:
            yield f"tracked/{i}", f"must start outside radius {r0:g}"


def _same_length(a, b):
    def check(v):
        if len(v[a]) != len(v[b]) or len(v[a]) < 2:
            yield "", f"{a} and {b} must match and have >= 2 nodes"
    return check


def _increasing():
    return _array(_number()).where(lambda v: all(a < b for a, b in zip(v, v[1:])),
                                   "must be strictly increasing")


def _grid_resolves_order(v):
    if v["M"] is not None and v["n"] is not None and v["n"] < 4 * (v["M"] + 1):
        yield "n", "must be at least 4*(M+1)"


def _burn_in_below_sweeps(v):
    burn_in = v["schedule"]["burn_in"]
    if burn_in is not None and burn_in >= v["sweeps"]:
        yield "schedule/burn_in", "must be less than sweeps"


def _plane_four(v):
    # a plane boundary needs four occupied angular bins, so four particles
    if v["measure"]["kind"] == "plane":
        for key in ("N", "bins"):
            if v[key] < 4:
                yield key, "must be >= 4 for a plane measure"


def _t0_finite(v):
    try:
        finite = math.isfinite(v["hbar"] * v["N"])
    except OverflowError:  # N beyond the float range
        finite = False
    if not finite:
        yield "hbar", "t0 = hbar * N must be finite"


_MAP = _object({"r": _positive(), "coeffs": _array(_pair()).opt([])})
_DRIVING = _kinded({
    "constant": _object({"theta0": _number().opt(0.0)}),
    "piecewise_linear": _object({
        "knots": _array(_pair("q, theta", lambda q, theta: (q, theta))).where(
            lambda knots: len(knots) >= 2, "needs at least two knots"),
    }),
    "brownian": _object({
        "kappa": _number().where(lambda k: k >= 0, "must be non-negative"),
        "dq_grid": _positive().opt(1e-3),
    }),
})
_LEG = {
    "sign": _integer().opt(1).where(lambda s: s in (1, -1), "must be +1 or -1"),
    "duration": _number(),
    "steps": _count(),
}
_FLOW = _kinded({
    "t0_infinity": _object(_LEG),
    "t0_source": _object({"z0": _pair(), **_LEG}),
    "tk_real": _object({"k": _count(), **_LEG}),
    "tk_imag": _object({"k": _count(), **_LEG}),
})
_PROFILE_CSV = _object({"csv": _string()})
_PROFILE_INLINE = _object({"grid": _increasing(), "q_values": _array(_number())},
                          _same_length("grid", "q_values"))
_SPEED = _kinded({
    "identity": _object({}),
    "constant": _object({"value": _number()}),
    "table": _object({"q": _increasing(), "c": _array(_number())}, _same_length("q", "c")),
    "table_csv": _object({"path": _string()}),
    "family": _object({"k": _count(), "driving": _DRIVING, "q0": _number().opt(0.0),
                       "q_max": _number()}, _q_max_above_q0),
})
_MEASURE = _kinded({
    "plane": _object({}),
    "curve": _object({
        "curve": _kinded({
            "real_line": _object({}),
            "ray": _object({"z0": _pair(),
                            "direction": _pair().where(lambda d: d != 0, "must be nonzero")}),
        }),
        "confine": _object({"coefficient": _positive().opt(1.0)}).opt({}),
    }),
})
_SECTIONS = {
    "grow": _object({
        "map": _MAP,
        "flows": _array(_FLOW).where(bool, "needs at least one leg"),
        "moment_order": _count().opt(),
        "snapshots": _count().opt(5),
    }),
    "loewner": _object({
        "driving": _DRIVING,
        "q0": _number().opt(0.0),
        "q_max": _number(),
        "trace_points": _integer().opt(64).where(lambda n: n >= 2, "must be >= 2"),
        "tracked": _array(_pair()).opt(),
    }, _q_max_above_q0, _tracked_outside_r0),
    "hydro": _object({
        # a profile is read from CSV when it names one, else given inline
        "profile": _Node(lambda v, ptr, problems: (
            _PROFILE_CSV if isinstance(v, dict) and "csv" in v else _PROFILE_INLINE
        )(v, ptr, problems)),
        "speed": _SPEED,
        "s": _number(),
    }),
    "dyson": _object({
        "N": _count(),
        "hbar": _positive(),
        "times": _array(_pair()).opt([]),
        "measure": _MEASURE.opt({"kind": "plane"}),
        "mode": _string().opt("minimize").where(lambda m: m in ("minimize", "metropolis"),
                                                "must be 'minimize' or 'metropolis'"),
        "sweeps": _count().opt(200),
        "bins": _count().opt(32),
        "schedule": _object({
            "max_iterations": _count().opt(),
            "tolerance": _positive().opt(),
            "proposal_scale": _positive().opt(),
            "burn_in": _integer().opt().where(lambda b: b >= 0, "must be >= 0"),
        }).opt({}),
    }, _burn_in_below_sweeps, _plane_four, _t0_finite),
    "moments": _object({"map": _MAP, "order": _count().opt(16)}),
}
_SEED = _integer().opt(0).where(lambda s: s >= 0, "must be >= 0")
_FORMATS = _array(_string().where(lambda f: f in FORMATS, f"must be one of {FORMATS}")).opt(
    list(FORMATS))
_CONFIG = _object({
    "scenario": _string().where(lambda s: s in SCENARIOS, f"must be one of {SCENARIOS}"),
    "seed": _SEED,
    "output": _object({
        "directory": _string().opt("out"),
        "formats": _FORMATS,
    }).opt({}),
    "resolution": _object({
        "M": _integer().opt().where(lambda m: m >= 0, "must be >= 0"),
        "n": _integer().opt().where(lambda n: n >= 8 and not n & (n - 1),
                                    "must be a power of two >= 8"),
    }, _grid_resolves_order).opt({}),
    **{name: section.opt() for name, section in _SECTIONS.items()},
})


def parse_config(text: str) -> ScenarioConfig:
    """Validate UTF-8 JSON scenario text; raises ConfigError listing every problem."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # includes json.JSONDecodeError
        raise ConfigError([("", f"invalid JSON: {exc}")])
    if not isinstance(raw, dict):
        raise ConfigError([("", "top level must be an object")])
    problems = []
    cfg = _CONFIG(raw, "", problems)
    present = [s for s in SCENARIOS if s in raw]
    if len(present) > 1:
        problems.append(("", f"exactly one scenario section allowed, found {present}"))
    scenario = raw.get("scenario")
    if scenario in SCENARIOS:
        if scenario not in raw:
            problems.append((f"/{scenario}", "missing scenario section"))
        problems.extend((f"/{s}", f"section does not match scenario {scenario!r}")
                        for s in present if s != scenario)
    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(
        scenario=scenario,
        seed=cfg["seed"],
        out_dir=cfg["output"]["directory"],
        formats=tuple(cfg["output"]["formats"]),
        m_order=cfg["resolution"]["M"],
        grid_n=cfg["resolution"]["n"],
        params=cfg[scenario],
        sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
    )


# ---------------------------------------------------------------------------
# artifacts


def _first_non_finite(obj):
    """``(*keys, value)`` of the first NaN or infinity in ``obj``, or None.

    ``obj`` nests dicts, lists and tuples; a flat list of numbers is checked
    in one ``math.isfinite`` pass.
    """
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (obj,)
    if isinstance(obj, (list, tuple)):
        try:
            if all(map(math.isfinite, obj)):
                return None
        except (TypeError, OverflowError):
            pass  # not a flat list of numbers
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, (list, tuple)) else ())
    for key, value in items:
        bad = _first_non_finite(value)
        if bad is not None:
            return (key, *bad)
    return None


def _require_finite(obj, where: str):
    """Raise NonFiniteResultError naming the first NaN or infinity in ``obj``.

    The value's path extends ``where`` by its keys and indices.
    """
    bad = _first_non_finite(obj)
    if bad is not None:
        *keys, value = bad
        raise NonFiniteResultError(f"{where}{''.join(f'/{k}' for k in keys)} is {value!r}")


def _encode(name: str, content) -> bytes:
    """The bytes of artifact ``name``, in the format its suffix names.

    CSV content is ``(header, rows)``, with cells (Python ints and floats)
    written by ``repr``; JSON content is any JSON value, written strictly
    with sorted keys; SVG content is a list of ``svgout`` layers.  A NaN or
    an infinity raises NonFiniteResultError naming the first one.
    """
    kind = name.rpartition(".")[2]
    if kind == "csv":
        header, rows = content
        _require_finite(rows, name)
        lines = [",".join(header)]
        lines.extend(",".join(map(repr, row)) for row in rows)
        text = "\n".join(lines) + "\n"
    elif kind == "json":
        try:
            text = json.dumps(content, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError:
            # a NaN or an infinity: name the first one
            _require_finite(content, name)
            raise
    else:
        for _kind, points, _style in content:
            if not np.all(np.isfinite(points)):
                raise NonFiniteResultError(f"{name} has a non-finite point")
        text = svgout.render_svg(content)
    return text.encode("utf-8")


def _complex_list(values) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values, dtype=complex)]


# ---------------------------------------------------------------------------
# scenario pipelines


def _build_driving(spec: dict, seed: int, q_range=(0.0, 1.0)) -> loewner.DrivingFunction:
    if spec["kind"] == "constant":
        return loewner.DrivingFunction.constant(spec["theta0"])
    if spec["kind"] == "piecewise_linear":
        return loewner.DrivingFunction.piecewise_linear(spec["knots"])
    return loewner.DrivingFunction.brownian(spec["kappa"], seed, spec["dq_grid"], q_range)


def _run_grow(cfg: ScenarioConfig, emit):
    p = cfg.params
    m = laurent.LaurentMap(p["map"]["r"], np.array(p["map"]["coeffs"], dtype=complex))
    # every record then holds order + 1 coefficients, a_0 included
    m = m.with_order(m.order if cfg.m_order is None else cfg.m_order)
    schedule = []
    for f in p["flows"]:
        flow = growth.FlowSpec(f["kind"], k=f.get("k", 0), z0=f.get("z0", 0j), sign=f["sign"])
        schedule.append((flow, f["duration"], f["steps"]))
    order = p["moment_order"] if p["moment_order"] is not None else m.order
    n = laurent._resolve_grid(m, cfg.grid_n)
    pending = None
    try:
        traj = growth.run(m, schedule, moment_order=order, n=n)
    except (CuspError, NonUnivalentError) as exc:
        # keep whatever the run produced before the breakdown
        traj = getattr(exc, "partial", None)
        if traj is None or not traj.records:
            raise
        pending = exc
    except SeriesBudgetError as exc:
        raise ConfigError([(f"/grow/flows/{exc.leg}/k", str(exc))]) from exc
    except ValueError as exc:
        if not hasattr(exc, "leg"):
            raise
        raise ConfigError([(f"/grow/flows/{exc.leg}/duration", str(exc))]) from exc
    header = ["step", "time", "t0", "r"]
    for j in range(m.order + 1):
        header += [f"re_a{j}", f"im_a{j}"]
    emit("trajectory.csv", (header, _trajectory_rows(traj.records)))
    emit("moments.csv", (["step", "k", "re_tk", "im_tk", "re_vk", "im_vk"],
                         _moment_rows(traj.records)))
    picks = np.unique(np.linspace(0, len(traj.records) - 1, p["snapshots"]).astype(int))
    snapshots = [(traj.records[i].index, laurent._grid_values(traj.records[i].map, n)[0])
                 for i in picks]
    emit("contours.json", [{"step": int(i), "points": _complex_list(pts)} for i, pts in snapshots])
    emit("contours.svg", [("polyline", pts, {"closed": True}) for _, pts in snapshots])
    if pending is not None:
        raise pending
    final = traj.final
    diags = [rec.diagnostics for rec in traj.records[1:]]
    return {"final_r": final.r, "final_t0": traj.records[-1].moments.t0,
            "steps": traj.records[-1].index,
            "rk4_steps": len(diags),
            "max_leakage": max(d.leakage for d in diags),
            "min_abs_zprime": min(d.min_abs_zprime for d in diags)}


def _trajectory_rows(records) -> list:
    """``trajectory.csv``'s rows (step, time, t0, r, re_a0, im_a0, ...), read off
    one stacked array; every record's map has the same order."""
    coeffs = np.stack([rec.map.coeffs for rec in records])
    values = np.column_stack([[rec.time for rec in records],
                              [rec.moments.t0 for rec in records],
                              [rec.map.r for rec in records], coeffs.view(float)])
    # a concatenated row is allocated at its length; [i, *row] would over-allocate
    return [[rec.index] + row for rec, row in zip(records, values.tolist())]


def _moment_rows(records) -> list:
    """``moments.csv``'s rows (step, k, re_tk, im_tk, re_vk, im_vk), one per
    record and ``k``, read off one stacked array of the ``(t_k, v_k)`` pairs."""
    pairs = np.stack([np.stack([rec.moments.t for rec in records]),
                      np.stack([rec.moments.v for rec in records])], axis=-1)
    return [[rec.index, k] + row for rec, block in zip(records, pairs.view(float).tolist())
            for k, row in enumerate(block, start=1)]


def _run_loewner(cfg: ScenarioConfig, emit):
    p = cfg.params
    driving = _build_driving(p["driving"], cfg.seed, (p["q0"], p["q_max"]))
    if p["tracked"] is not None:
        family = loewner.LoewnerFamily(p["q0"], p["q_max"], driving,
                                       tuple(p["tracked"]))
    else:
        family = loewner.default_family(p["q0"], p["q_max"], driving)
    q_grid = np.linspace(p["q0"], p["q_max"], p["trace_points"])
    # the snapshots ride in the tips' integration, whatever the formats
    snap_q = (p["q0"], 0.5 * (p["q0"] + p["q_max"]), p["q_max"])
    tips, tracked = loewner.trace_and_track(family, q_grid, snap_q)
    emit("trace.csv", (["q", "re_tip", "im_tip"],
                       [[float(q), float(t.real), float(t.imag)] for q, t in zip(q_grid, tips)]))
    z0 = np.asarray(family.z_samples, dtype=complex)
    snaps = []
    for q, ws, dead_at in zip(snap_q, tracked.w.reshape(3, -1), tracked.absorbed.reshape(3, -1)):
        pairs = [
            [[float(z.real), float(z.imag)], [float(w.real), float(w.imag)]]
            for z, w, dead in zip(z0, ws, dead_at) if not dead
        ]
        snaps.append({"q": float(q), "pairs": pairs})
    emit("family.json", snaps)
    emit("trace.svg", [("polyline", family.r0 * laurent.circle_grid(128), {"closed": True}),
                       ("polyline", tips, {"stroke": "#b3402a"})])
    # the tracked copies' own counters: the q_max copy carries every tracked
    # point's whole run, so its flags count the swallowed points
    return {"final_tip": [float(tips[-1].real), float(tips[-1].imag)],
            "capacity_range": [p["q0"], p["q_max"]],
            "tracked": {
                "substeps": tracked.substeps,
                "absorbed": int(np.count_nonzero(tracked.absorbed[2 * len(z0):])),
                "min_eta_distance": float(np.min(tracked.min_eta_distance)) if len(z0) else None}}


def _build_speed(spec: dict, seed: int):
    if spec["kind"] == "identity":
        return lambda q: q
    if spec["kind"] == "constant":
        c0 = spec["value"]
        return lambda q: np.full(np.shape(q), c0)
    if spec["kind"] == "table":
        return hydro._table_speed(spec["q"], spec["c"])
    if spec["kind"] == "table_csv":
        return hydro.read_speed_csv(spec["path"])
    driving = _build_driving(spec["driving"], seed, (spec["q0"], spec["q_max"]))
    family = loewner.default_family(spec["q0"], spec["q_max"], driving)
    return hydro.family_speed(spec["k"], family)


def _run_hydro(cfg: ScenarioConfig, emit):
    p = cfg.params
    if "csv" in p["profile"]:
        profile = hydro.read_profile_csv(p["profile"]["csv"])
    else:
        profile = hydro.Profile(p["profile"]["grid"], p["profile"]["q_values"])
    speed = _build_speed(p["speed"], cfg.seed)
    result = hydro.solve_characteristics(profile, speed, p["s"])
    if p["speed"]["kind"] == "family":  # its speed is clamped, so q must stay in range
        lo, hi = p["speed"]["q0"], p["speed"]["q_max"]
        for t0, q in zip(result.grid, result.q_values):
            if not lo <= q <= hi:
                raise IntegrationBreakdownError(
                    f"node t0 = {t0} solved to q = {q} outside family range [{lo}, {hi}]")
    emit("profile.csv", (["t0", "q"],
                         [[float(a), float(b)] for a, b in zip(result.grid, result.q_values)]))
    summary = {"s": p["s"], "s_star": None if np.isinf(result.s_star) else result.s_star}
    emit("shock.json", summary)
    return summary


def _build_gas_config(cfg: ScenarioConfig) -> dyson.GasConfig:
    p = cfg.params
    sched_kwargs = {k: v for k, v in (p.get("schedule") or {}).items() if v is not None}
    schedule = dyson.Schedule(**sched_kwargs)
    measure = p["measure"]
    curve, confine = None, 1.0
    if measure["kind"] == "curve":
        spec = measure["curve"]
        curve = (dyson.CurveSpec.real_line() if spec["kind"] == "real_line"
                 else dyson.CurveSpec.ray(spec["z0"], spec["direction"]))
        confine = measure["confine"]["coefficient"]
    return dyson.GasConfig(N=p["N"], hbar=p["hbar"], times=np.array(p["times"], dtype=complex),
                           curve=curve, confine=confine, seed=cfg.seed, schedule=schedule)


def _run_dyson(cfg: ScenarioConfig, emit):
    p = cfg.params
    config = _build_gas_config(cfg)
    if p["mode"] == "minimize":
        state = dyson.minimize(config)
        extra = {"converged": bool(state.converged), "iterations": int(state.iterations),
                 "evaluations": int(state.evaluations),
                 "residual_force": float(state.trace[-1][2]), "energy": float(state.energy)}
        trace = state.trace
    else:
        run_result = dyson.metropolis(config, p["sweeps"])
        state = run_result.state
        extra = {"acceptance": run_result.acceptance,
                 "proposal_scale": run_result.proposal_scale,
                 "energy": float(state.energy),
                 "proposals": run_result.proposals,
                 "accepted": run_result.accepted,
                 "tuning_windows": [
                     {"sweep": sweep, "acceptance": rate, "proposal_scale": scale}
                     for sweep, rate, scale in run_result.windows]}
        trace = None
    # the support estimate of a non-finite state is meaningless
    if not (np.all(np.isfinite(state.positions)) and math.isfinite(state.energy)):
        raise NonFiniteResultError("the gas state is not finite")
    emit("state.csv", (["index", "re_z", "im_z"],
                       [[i, float(z.real), float(z.imag)] for i, z in enumerate(state.positions)]))
    if trace:
        emit("energy_trace.csv", (["iteration", "energy", "grad_norm"],
                                  [[i, float(e), float(g)] for i, e, g in trace]))
    # written first, so that a state too sparse for a boundary is still kept
    support = dyson.support_boundary(state, config, bins=p["bins"])
    payload = {"kind": support.kind}
    layers = [("points", state.positions, {})]
    if support.kind == "plane":
        payload["boundary"] = _complex_list(support.boundary)
        layers.append(("polyline", support.boundary, {"closed": True}))
    else:
        payload["s_min"] = extra["s_min"] = support.s_min
        payload["s_max"] = extra["s_max"] = support.s_max
        counts, edges = support.histogram
        payload["histogram"] = {"counts": [int(c) for c in counts],
                                "edges": [float(e) for e in edges]}
    emit("support.json", payload)
    emit("cloud.svg", layers)
    return extra


def _run_moments(cfg: ScenarioConfig, emit):
    p = cfg.params
    m = laurent.LaurentMap(p["map"]["r"], np.array(p["map"]["coeffs"], dtype=complex))
    moments = growth.moment_vector(m, p["order"], n=cfg.grid_n)
    rows = [[k, float(moments.t[k - 1].real), float(moments.t[k - 1].imag),
             float(moments.v[k - 1].real), float(moments.v[k - 1].imag)]
            for k in range(1, p["order"] + 1)]
    emit("moments.csv", (["k", "re_tk", "im_tk", "re_vk", "im_vk"], rows))
    emit("moments.json", {"t0": moments.t0, "t": _complex_list(moments.t),
                          "v": _complex_list(moments.v)})
    return {"t0": moments.t0}


_RUNNERS = {
    "grow": _run_grow,
    "loewner": _run_loewner,
    "hydro": _run_hydro,
    "dyson": _run_dyson,
    "moments": _run_moments,
}


def _breakdown(exc) -> dict:
    """The manifest's record of a breakdown; non-finite attributes are left out."""
    log.error("numerical breakdown: %s", exc)
    breakdown = {"type": type(exc).__name__, "message": str(exc)}
    for attr in ("theta", "s_star"):
        val = getattr(exc, attr, None)
        if val is not None and math.isfinite(val):
            breakdown[attr] = float(val)
    return breakdown


def run_scenario(cfg: ScenarioConfig, out_dir: str | None = None) -> ExitReport:
    """Execute a validated scenario, writing artifacts and a manifest."""
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []

    def emit(name, content):
        if name.rpartition(".")[2] not in cfg.formats:
            return
        data = _encode(name, content)
        (out / name).write_bytes(data)
        files.append({"name": name, "sha256": hashlib.sha256(data).hexdigest(),
                      "bytes": len(data)})

    started = time.perf_counter()
    status, breakdown, summary = "ok", None, {}
    try:
        result = _RUNNERS[cfg.scenario](cfg, emit)
        _require_finite(result, "summary")
        summary = result
    except OverflowError as exc:
        # Python float arithmetic raises where numpy returns an infinity
        status, breakdown = "breakdown", _breakdown(NonFiniteResultError(f"overflow: {exc}"))
    except _BREAKDOWN_ERRORS as exc:
        status, breakdown = "breakdown", _breakdown(exc)
    except (OSError, ValueError) as exc:
        # bad referenced files or precondition violations surfaced at build
        # time count as configuration problems, not numerical breakdown
        raise ConfigError([(f"/{cfg.scenario}", str(exc))]) from exc
    manifest = {
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "config_sha256": cfg.sha256,
        "versions": {"todaflow": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "status": status,
        "complete": status == "ok",
        "breakdown": breakdown,
        "summary": summary,
        "files": sorted(files, key=lambda f: f["name"]),  # by name, not write order
    }
    (out / "manifest.json").write_bytes(_encode("manifest.json", manifest))
    # wall time goes to the log, not the manifest, so that reruns write the same bytes
    log.info("run_scenario %s", json.dumps({"scenario": cfg.scenario, "status": status,
                                            "wall_time_s": time.perf_counter() - started}))
    return ExitReport(status=status, exit_code=0 if status == "ok" else 2,
                      out_dir=out, manifest=manifest)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="todaflow",
        description="Run a growth / slit / transport / gas scenario from a JSON config.",
    )
    parser.add_argument("config", help="path to the scenario JSON")
    parser.add_argument("--out", help="output directory (overrides the config)")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--format", help="comma-separated subset of csv,json,svg")
    args = parser.parse_args(argv)
    level = os.environ.get("TODAFLOW_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
        # overrides go through the schema nodes of the keys they replace
        problems = []
        if args.seed is not None:
            cfg.seed = _SEED(args.seed, "/seed", problems)
        if args.format:
            formats = _FORMATS([f.strip() for f in args.format.split(",")],
                               "/output/formats", problems)
            cfg.formats = tuple(formats or ())
        if problems:
            raise ConfigError(problems)
        report = run_scenario(cfg, out_dir=args.out)
    except ConfigError as exc:
        for ptr, msg in exc.problems:
            print(f"config error at {ptr or '/'}: {msg}", file=sys.stderr)
        return 1
    if report.status != "ok":
        print(f"scenario ended in {report.status}: see manifest.json", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
