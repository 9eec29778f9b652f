"""Seeded input generator for the scenario benchmark.

Every op of a workload is derived from ``(workload seed, op index)`` alone,
so the same seed always yields the same inputs, and a prefix of the list is
the shorter list.  The generator emits only JSON scenario configs and the
profile/table data the ops need; it never imports the program.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("grow", "slit", "gas-ground", "gas-sample")

# Distinct ops per workload; run.PASSES says how often the list is timed.  Only
# gas-ground's work depends on the seed (the descent's iteration count varies
# by about 11% from op to op), so it takes more distinct ops and one pass.
OP_COUNT = {"grow": 2, "slit": 3, "gas-ground": 5, "gas-sample": 3}

# Initial grow maps obey sum_j j|a_j| <= MAP_LOAD r.  Area growth is
# Saffman-Taylor unstable, so a large a3 term can cusp within the ops' 0.7 of
# area: at a 0.4 r bound, 1 of 36 sampled maps raised CuspError and one more
# lost the t0 clock to 3e-9.  At 0.2 r none came near.
MAP_LOAD = 0.2

SLIT_Q_MAX = 0.4
SLIT_TRACE_POINTS = 10
SPEED_K = 2
SPEED_Q = [0.05, 0.11, 0.17, 0.23, 0.29, 0.35]
PROFILE_NODES = 401
DRIVINGS = ("constant", "piecewise_linear", "brownian")


def op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def _program_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _univalent_map(rng) -> dict:
    """Map r w + a0 + a1/w + a2/w^2 + a3/w^3 with sum_j j|a_j| <= MAP_LOAD r.

    That bound keeps |z'(w)| >= r - sum_j j|a_j| > 0 on |w| >= 1, a
    sufficient condition for univalence.
    """
    r = float(rng.uniform(0.8, 1.2))
    shares = rng.dirichlet(np.ones(3)) * float(rng.uniform(0.05, MAP_LOAD)) * r
    phases = rng.uniform(0.0, 2.0 * math.pi, 3)
    coeffs = [[0.0, 0.0]]
    for j, (share, phase) in enumerate(zip(shares, phases), start=1):
        a = float(share) / j * complex(math.cos(phase), math.sin(phase))
        coeffs.append([a.real, a.imag])
    return {"r": r, "coeffs": coeffs}


def _grow_op(rng) -> dict:
    seed = _program_seed(rng)
    the_map = _univalent_map(rng)
    grow = {
        "scenario": "grow",
        "seed": seed,
        "output": {"formats": ["csv", "json", "svg"]},
        "resolution": {"M": 16, "n": 128},
        "grow": {
            "map": the_map,
            "flows": [
                {"kind": "t0_infinity", "duration": 0.5, "steps": 200},
                {"kind": "tk_real", "k": 2, "duration": 0.02, "steps": 100},
                {"kind": "t0_source", "z0": [4.0, 0.0], "duration": 0.2, "steps": 100},
            ],
            "moment_order": 16,
            "snapshots": 5,
        },
    }
    moments = {
        "scenario": "moments",
        "seed": seed,
        "output": {"formats": ["csv", "json"]},
        "resolution": {"M": 16, "n": 128},
        "moments": {"map": the_map, "order": 16},
    }
    return {"grow": grow, "moments": moments}


def _driving(kind: str, rng) -> dict:
    if kind == "constant":
        return {"kind": "constant", "theta0": float(rng.uniform(-math.pi, math.pi))}
    if kind == "piecewise_linear":
        qs = np.linspace(0.0, SLIT_Q_MAX, 5)
        thetas = float(rng.uniform(-math.pi, math.pi)) + np.cumsum(rng.uniform(-0.3, 0.3, 5))
        return {"kind": "piecewise_linear",
                "knots": [[float(q), float(t)] for q, t in zip(qs, thetas)]}
    return {"kind": "brownian", "kappa": float(rng.uniform(0.2, 0.6)), "dq_grid": 1e-3}


def _slit_op(rng, index: int) -> dict:
    kind = DRIVINGS[index % len(DRIVINGS)]
    loewner = {
        "scenario": "loewner",
        "seed": _program_seed(rng),
        "output": {"formats": ["csv", "json", "svg"]},
        "loewner": {"driving": _driving(kind, rng), "q0": 0.0, "q_max": SLIT_Q_MAX,
                    "trace_points": SLIT_TRACE_POINTS},
    }
    speed = {"k": SPEED_K, "q0": 0.0, "q_max": SLIT_Q_MAX, "q": SPEED_Q,
             "driving": _driving("piecewise_linear", rng)}
    # q0(t0): increasing ramp inside the table's q range plus a seeded ripple
    grid = np.linspace(0.0, 1.0, PROFILE_NODES)
    lo, span = SPEED_Q[0], SPEED_Q[-1] - SPEED_Q[0]
    ripple = float(rng.uniform(0.0, 0.1)) * span
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    q_values = lo + span * (0.1 + 0.8 * grid) + ripple * np.sin(2.0 * math.pi * grid + phase)
    hydro = {
        "profile": {"grid": grid.tolist(), "q_values": q_values.tolist()},
        "s_fraction": float(rng.uniform(0.3, 0.7)),
        "seed": _program_seed(rng),
    }
    return {"kind": kind, "loewner": loewner, "speed": speed, "hydro": hydro}


def _gas_ground_op(rng) -> dict:
    dyson = {"N": 256, "hbar": 1.0 / 256, "mode": "minimize", "bins": 32,
             "measure": {"kind": "curve", "curve": {"kind": "real_line"}},
             "schedule": {"max_iterations": 60000}}
    return {"dyson": {"scenario": "dyson", "seed": _program_seed(rng), "dyson": dyson}}


def _gas_sample_op(rng) -> dict:
    dyson = {"N": 1024, "hbar": 1.0 / 1024, "mode": "metropolis", "sweeps": 30, "bins": 32}
    return {"dyson": {"scenario": "dyson", "seed": _program_seed(rng), "dyson": dyson}}


def generate(workload: str, seed: int) -> list:
    """The workload's timed op list for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
    ops = []
    for index in range(OP_COUNT[workload]):
        rng = op_rng(seed, index)
        if workload == "grow":
            ops.append(_grow_op(rng))
        elif workload == "slit":
            ops.append(_slit_op(rng, index))
        elif workload == "gas-ground":
            ops.append(_gas_ground_op(rng))
        else:
            ops.append(_gas_sample_op(rng))
    return ops

