"""Hydrodynamic transport of the capacity along the higher flows.

For a rank-1 family, every deformation time enters through the single
function ``q``; its dependence on the harmonic times is a quasilinear
transport equation

    dq/ds = c(q) dq/dt0,    c_k(q) = 2 Re phi_k(eta(q)),

solved here by straight characteristics: the value at ``(t0, s)`` is the
initial value at ``t0 + c(q) s``, found for all nodes by one masked Newton
iteration (speeds are vectorized).  Characteristic crossing (the gradient
catastrophe) ends the classical solution; the solver refuses to run past it.

``scipy.interpolate`` (the profile's PCHIP) is imported where it is used,
so that importing this module, as the CLI does for every scenario, does not
load it.  A Loewner family's speed needs no table: its ``phi_k`` comes from
the slit's Laurent modes, exact on every piece of the driving, at every
``k`` by one path.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import laurent, loewner
from .errors import ShockError

_FD_STEP = 1e-6
_NEWTON_TOL, _NEWTON_ITERATIONS = 1e-12, 50  # solve_characteristics' residual and cap


def _read_two_columns(path, names):
    """Two finite columns of at least one data row, after an optional header."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if any(len(row) < 2 for row in rows):
        raise ValueError(f"every row needs the two columns {names}")
    if rows and not _is_number(rows[0][0]):
        header = [c.strip() for c in rows[0]]
        if header[:2] != list(names):
            raise ValueError(f"expected columns {names}, found {header[:2]}")
        rows = rows[1:]
    if not rows:
        raise ValueError("the table has no data rows")
    data = np.array([[float(a), float(b)] for a, b, *_ in rows])
    if not np.all(np.isfinite(data)):
        raise ValueError("the table has a non-finite cell")
    return data[:, 0], data[:, 1]


def _is_number(text):
    try:
        float(text)
        return True
    except ValueError:
        return False


def read_profile_csv(path) -> "Profile":
    """Load a (t0, q) table, with or without a header row."""
    grid, q_values = _read_two_columns(path, ("t0", "q"))
    return Profile(grid, q_values)


def read_speed_csv(path):
    """Load a (q, c) speed table, rows in any order, as an interpolating callable."""
    return _table_speed(*_read_two_columns(path, ("q", "c")))


def _table_speed(q, c):
    """Piecewise-linear speed through ``(q, c)`` nodes sorted by ``q``; no ``q`` may repeat."""
    order = np.argsort(q)
    q, c = np.asarray(q, dtype=float)[order], np.asarray(c, dtype=float)[order]
    if np.any(np.diff(q) == 0):
        raise ValueError("the speed table repeats a q value")
    return lambda value: np.interp(value, q, c)


@dataclass(frozen=True)
class Profile:
    """Initial data ``q0(t0)`` on a strictly increasing grid, PCHIP-interpolated."""

    grid: np.ndarray
    q_values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float).copy()
        qv = np.asarray(self.q_values, dtype=float).copy()
        if grid.ndim != 1 or grid.shape != qv.shape:
            raise ValueError("grid and q_values must be matching 1-D arrays")
        if len(grid) < 2 or np.any(np.diff(grid) <= 0):
            raise ValueError("profile grid must be strictly increasing")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(qv))):
            raise ValueError("profile data must be finite")
        grid.setflags(write=False)
        qv.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "q_values", qv)
        # imported here, not at module level, so that importing the CLI does
        # not load scipy.interpolate for scenarios that never build a profile
        from scipy.interpolate import PchipInterpolator

        interp = PchipInterpolator(grid, qv, extrapolate=True)
        object.__setattr__(self, "_interp", interp)
        object.__setattr__(self, "_deriv", interp.derivative())

    def value(self, t0):
        return self._interp(t0)

    def derivative(self, t0):
        return self._deriv(t0)


@dataclass(frozen=True)
class Transported(Profile):
    """A profile solved by :func:`solve_characteristics`, with the ``s*`` of its initial data."""

    s_star: float


def _speed_derivative(speed, q, h: float = _FD_STEP):
    return (speed(q + h) - speed(q - h)) / (2.0 * h)


def _mode_speed(k: int, family: loewner.LoewnerFamily):
    """``c_k(q) = 2 Re phi_k(eta(q))``, vectorized over ``q`` in the
    family's range: ``phi_k`` of the map ``exp(q) (w + sum_n a_n w^-n)``, whose
    first ``k - 1`` modes (all that ``phi_k`` reads) :func:`loewner.slit_modes`
    gives exactly, one map per ``q`` in the batched kernel behind
    :func:`laurent.phi_k`.  At ``k = 1`` there are no modes and
    ``phi_1 = r w``, so ``c_1 = 2 e^q cos theta(q)`` to the bit."""
    if k < 1:
        raise ValueError("k must be >= 1")
    modes = loewner.slit_modes(family, k - 1)

    def speed(q):
        q = np.asarray(q, dtype=float)
        r = np.exp(q)
        phi = laurent._phi_k_many(r, r[..., None] * modes(q), k, family.driving.eta(q))
        return 2.0 * phi.real

    return speed


def characteristic_speed(k: int, family: loewner.LoewnerFamily, q):
    """Transport speed ``c_k(q) = 2 Re phi_k(eta(q))`` of the k-th real flow.

    ``phi_k`` is read off the slit's first ``k - 1`` Laurent modes at every
    ``q`` (an array; a float for a scalar ``q``), which at ``k = 1`` is
    ``phi_1 = r w`` with no modes.  A ``q`` outside the family's range is
    refused.
    """
    q = np.asarray(q, dtype=float)
    if np.any((q < family.q0) | (q > family.q_max + 1e-12)):
        raise ValueError(f"q = {q} outside family range [{family.q0}, {family.q_max}]")
    c = _mode_speed(k, family)(q)
    return float(c) if c.ndim == 0 else c


def family_speed(k: int, family: loewner.LoewnerFamily):
    """Vectorized ``c_k(q)`` of a family, ``q`` clamped to ``[q0, q_max]``.

    Exact at every ``q``: the slit's modes are carried through the driving's
    knots once, and each call applies the piece's exponentials from the last
    knot below ``q``; ``k = 1`` reads no mode.
    """
    speed = _mode_speed(k, family)
    return lambda q: speed(np.clip(q, family.q0, family.q_max))


def shock_time(initial: Profile, speed) -> float:
    """First gradient catastrophe ``s* = 1 / max d/dt0 c(q0(t0))`` (inf if none).

    The maximum is taken over a refined sampling of the profile grid.
    """
    lo, hi = initial.grid[0], initial.grid[-1]
    dense = np.linspace(lo, hi, max(8 * len(initial.grid), 256))
    slope = _speed_derivative(speed, initial.value(dense)) * initial.derivative(dense)
    peak = float(np.max(slope))
    if peak <= 0.0:
        return float(np.inf)
    return 1.0 / peak


def _bracket(g, t0, q, gq):
    """Expand a bracket around each Newton seed (60 doublings at most; a seed
    without one is kept), then bisect eight times inside it."""
    spans = np.maximum(1.0, np.abs(q))[:, None] * 2.0 ** np.arange(60)
    ga, gb = g(q[:, None] - spans, t0[:, None]), g(q[:, None] + spans, t0[:, None])
    ok = np.isfinite(ga) & np.isfinite(gb) & (ga * gb <= 0)
    found = ok.any(axis=1)
    j = ok[found].argmax(axis=1)
    span, t0 = spans[found, j], t0[found]
    lo, hi, glo = q[found] - span, q[found] + span, ga[found, j]
    for _ in range(8):
        mid = 0.5 * (lo + hi)
        gmid = g(mid, t0)
        left = glo * gmid <= 0
        lo, glo, hi = np.where(left, lo, mid), np.where(left, glo, gmid), np.where(left, mid, hi)
    mid = 0.5 * (lo + hi)
    q, gq = q.copy(), gq.copy()
    q[found], gq[found] = mid, g(mid, t0)
    return q, gq


def solve_characteristics(initial: Profile, speed, s: float) -> Transported:
    """Transport the profile by ``s`` along straight characteristics.

    One Newton iteration over the unconverged nodes solves
    ``q = q0(t0 + c(q) s)`` to ``_NEWTON_TOL``, bracketing where a step does
    not reduce the residual.  The result carries ``s* = shock_time(initial,
    speed)``.  Raises :class:`ShockError` (reporting the critical ``s*``) if
    ``s`` reaches the gradient catastrophe or characteristics cross.
    """
    s_star = shock_time(initial, speed)
    if s >= s_star:
        raise ShockError(
            f"requested s = {s} is past the gradient catastrophe s* = {s_star}", s_star=s_star
        )

    def g(qv, t0):
        return qv - initial.value(t0 + speed(qv) * s)

    def crossing(qv, t0):
        return 1.0 - initial.derivative(t0 + speed(qv) * s) * _speed_derivative(speed, qv) * s

    grid = initial.grid
    q = initial.value(grid)
    gq = g(q, grid)
    for _ in range(_NEWTON_ITERATIONS):
        idx = np.flatnonzero(~(np.abs(gq) <= _NEWTON_TOL))
        if len(idx) == 0:
            break
        t0, qi, gi = grid[idx], q[idx], gq[idx]
        slope = crossing(qi, t0)
        if np.any(slope <= 0.0):
            raise ShockError(f"characteristic crossing at t0 = {t0[slope <= 0.0][0]}",
                             s_star=s_star)
        q_new = qi - gi / slope
        g_new = g(q_new, t0)
        worse = ~np.isfinite(g_new) | (np.abs(g_new) >= np.abs(gi))
        if np.any(worse):
            q_new[worse], g_new[worse] = _bracket(g, t0[worse], qi[worse], gi[worse])
        q[idx], gq[idx] = q_new, g_new
    stalled = ~(np.abs(gq) <= _NEWTON_TOL)
    if np.any(stalled):
        raise ShockError(f"implicit solve stalled at t0 = {grid[stalled][0]} "
                         f"(residual {np.abs(gq[stalled][0]):.3e})", s_star=s_star)
    crossed = crossing(q, grid) <= 0.0
    if np.any(crossed):
        raise ShockError(f"characteristic crossing detected at node t0 = {grid[crossed][0]}",
                         s_star=s_star)
    return Transported(grid.copy(), q, s_star)
