"""Property test of the CLI contract over mutated scenario configs.

Every config, valid or not, ends in exactly one of two ways: ``parse_config``
or ``run_scenario`` raises ``ConfigError`` (exit 1), or ``run_scenario``
returns exit 0 or 2 with a strict-JSON ``manifest.json``; every artifact it
lists, at exit 0 or 2, is strict JSON or CSV holding only finite numbers.
"""

import copy
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from todaflow import cli
from todaflow.errors import ConfigError

_PROFILE = {"grid": [0.1, 0.5, 0.9], "q_values": [0.1, 0.3, 0.5]}

# Small valid configs, one per scenario plus every hydro speed kind.
BASES = {
    "grow": {
        "scenario": "grow", "seed": 1, "resolution": {"M": 4, "n": 32},
        "output": {"formats": ["csv", "json", "svg"]},
        "grow": {"map": {"r": 1.0, "coeffs": [[0.0, 0.0], [0.1, 0.0]]},
                 "flows": [{"kind": "t0_source", "z0": [4.0, 0.0], "sign": 1,
                            "duration": 0.05, "steps": 4},
                           {"kind": "tk_real", "k": 2, "duration": 0.01, "steps": 2}],
                 "moment_order": 2, "snapshots": 2},
    },
    "loewner": {
        "scenario": "loewner", "seed": 2,
        "loewner": {"driving": {"kind": "piecewise_linear", "knots": [[0.0, 0.0], [0.1, 0.3]]},
                    "q0": 0.0, "q_max": 0.1, "trace_points": 3, "tracked": [[2.0, 0.0]]},
    },
    "hydro-identity": {
        "scenario": "hydro",
        "hydro": {"profile": _PROFILE, "speed": {"kind": "identity"}, "s": 0.2},
    },
    "hydro-constant": {
        "scenario": "hydro",
        "hydro": {"profile": _PROFILE, "speed": {"kind": "constant", "value": 0.5}, "s": 0.2},
    },
    "hydro-table": {
        "scenario": "hydro",
        "hydro": {"profile": _PROFILE,
                  "speed": {"kind": "table", "q": [0.0, 1.0], "c": [0.2, 0.6]}, "s": 0.2},
    },
    "hydro-family": {
        "scenario": "hydro",
        "hydro": {"profile": {"grid": [0.1, 0.5, 0.9], "q_values": [0.02, 0.04, 0.06]},
                  "speed": {"kind": "family", "k": 2, "q_max": 0.1,
                            "driving": {"kind": "piecewise_linear",
                                        "knots": [[0.0, 0.0], [0.1, 0.3]]}},
                  "s": 0.01},
    },
    "dyson": {
        "scenario": "dyson", "seed": 3,
        "dyson": {"N": 6, "hbar": 1.0 / 6.0, "times": [[0.0, 0.0], [0.05, 0.0]],
                  "measure": {"kind": "curve",
                              "curve": {"kind": "ray", "z0": [0.0, 0.0], "direction": [1.0, 0.0]},
                              "confine": {"coefficient": 1.0}},
                  "mode": "metropolis", "sweeps": 3, "bins": 4, "schedule": {"burn_in": 1}},
    },
    "moments": {
        "scenario": "moments", "resolution": {"n": 64},
        "moments": {"map": {"r": 1.0, "coeffs": [[0.0, 0.0], [0.2, 0.1]]}, "order": 3},
    },
}

# Never a large finite number: that would request unbounded work or memory.
BAD_VALUES = (math.nan, math.inf, -math.inf, "x", True, None, [1.0, 2.0])

def _walk(node, path=()):
    """Yield (path, value) for every node below the root."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _walk(value, path + (key,))


def _at(raw, path):
    for key in path:
        raw = raw[key]
    return raw


@st.composite
def mutated_configs(draw):
    raw = copy.deepcopy(draw(st.sampled_from(list(BASES.values()))))
    nodes = list(_walk(raw))
    how = draw(st.sampled_from(("replace", "delete", "add")))
    if how == "replace":
        path = draw(st.sampled_from([p for p, v in nodes if not isinstance(v, (dict, list))]))
        _at(raw, path[:-1])[path[-1]] = draw(st.sampled_from(BAD_VALUES))
    elif how == "delete":
        path = draw(st.sampled_from([p for p, _ in nodes if isinstance(_at(raw, p[:-1]), dict)]))
        del _at(raw, path[:-1])[path[-1]]
    else:
        path = draw(st.sampled_from([()] + [p for p, v in nodes if isinstance(v, dict)]))
        _at(raw, path)["unexpected"] = 1
    return raw


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def _finite_numbers(obj):
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_numbers(v) for v in obj)
    return not isinstance(obj, float) or math.isfinite(obj)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mutated_configs())
def test_every_config_keeps_the_cli_contract(raw):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            report = cli.run_scenario(cli.parse_config(json.dumps(raw)), out_dir=tmp)
        except ConfigError as err:
            assert err.problems
            return
        assert report.exit_code in (0, 2)
        assert report.exit_code == (0 if report.status == "ok" else 2)
        manifest = _strict_json((Path(tmp) / "manifest.json").read_text())
        assert manifest["status"] == report.status
        # partial artifacts of a breakdown are held to the same standard
        for entry in manifest["files"]:
            text = (Path(tmp) / entry["name"]).read_text()
            if entry["name"].endswith(".json"):
                assert _finite_numbers(_strict_json(text)), entry["name"]
            elif entry["name"].endswith(".csv"):
                cells = [float(c) for row in text.splitlines()[1:] for c in row.split(",")]
                assert all(map(math.isfinite, cells)), entry["name"]
