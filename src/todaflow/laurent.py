"""Truncated Laurent-series algebra on the unit circle.

The central object is the map ``z(w) = r*w + a0 + a1/w + ... + aM/w**M``
from the exterior of the unit disk onto the exterior of a compact planar
domain.  A map is its ``M + 2`` modes ``v = (r, a_0 .. a_M)`` at the powers
``p = 1, 0, -1, .., -M`` (:func:`_modes`).  Boundary functions are samples on
a uniform power-of-two grid of the unit circle, read as Fourier modes through
the FFT.  Grid sizes must satisfy ``n >= 4*(M+1)`` to keep quadratic
nonlinearities alias-free.

Conventions
-----------
* grid nodes are ``theta_j = 2*pi*j/n``, ``w_j = exp(i*theta_j)``, each
  rounded from the first octant (:func:`circle_grid`);
* the Fourier coefficient of ``w**m`` of a sampled function is
  ``fft(samples)[m % n] / n``;
* the angular derivative ``d/d(log w) = w d/dw`` of a map multiplies each
  of its modes by the mode's power, so ``w z'`` is exact on the grid.

A map's grid values (``z`` and ``w z'`` on the circle grid) have one route:
one product of its modes with a cached, read-only table of ``w_j**p`` and
``p w_j**p`` (:func:`_mode_values`).  The growth stages, the string residual,
the univalence witness, the moment quadrature and ``phi_k`` all read them
that way, and a caller that already has a map's grid hands it to the
witness.  The witness compares only the ``n`` neighbour pairs of grid images
when ``2 cos(pi/n) (r - S) > r + S``, with ``S = sum_j j |a_j|``: on the
circle every pair obeys ``(r - S) |dw| <= |dz| <= (r + S) |dw|``, so no
farther pair can be nearer.  Otherwise it compares each unordered pair once.
It settles the critical points without a Schur-Cohn recursion whenever
``r - rho^-(M+1) S``, a lower bound of ``|z'|`` on ``|w| >= rho``, is
positive.  Every truncated series evaluated at given points goes through
one Horner evaluator, :func:`_horner`: the map and its derivative in ``1/w``
(plotting and user queries), the Newton inversion :func:`_invert` (in Python
complex arithmetic), ``phi_k`` in ``w``, the Orlov-Shulman function and the
gas drive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import RootFindError, SeriesBudgetError

DEFAULT_GRID = 128

#: Relative tolerance and iteration cap of the Newton inversion, :func:`_invert`.
INVERSION_TOL = 1e-12
INVERSION_MAX_ITER = 60


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def default_grid_size(order: int) -> int:
    """Smallest admissible power-of-two grid for a map of truncation ``order``."""
    n = DEFAULT_GRID
    while n < 4 * (order + 1):
        n *= 2
    return n


def circle_grid(n: int) -> np.ndarray:
    """Unit-circle nodes ``exp(2*pi*i*j/n)``, ``j = 0..n-1``.

    Each node is the exact rotation by a power of ``i`` of a node in the first
    quadrant, whose cosine and sine are taken at an angle of at most ``pi/4``,
    where they round best: the nodes keep the circle's symmetries exactly."""
    if not _is_power_of_two(n):
        raise ValueError(f"grid size must be a power of two, got {n}")
    if n < 4:
        return np.array([1.0, -1.0][:n], dtype=complex)
    quadrant, j = np.divmod(np.arange(n), n // 4)
    theta = 2.0 * np.pi * np.minimum(j, n // 4 - j) / n
    low = 2 * j <= n // 4
    cos, sin = np.cos(theta), np.sin(theta)
    first = np.where(low, cos, sin) + 1j * np.where(low, sin, cos)
    return first * np.array([1, 1j, -1, -1j])[quadrant]


def _check_modes(r, coeffs):
    """Refuse a non-positive or non-finite ``r`` and non-finite ``a_j``."""
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"leading coefficient must be positive, got {r}")
    if not np.isfinite(coeffs).all():
        raise ValueError("map coefficients must be finite")


@dataclass(frozen=True)
class LaurentMap:
    """Exterior conformal map ``z(w) = r*w + a0 + a1/w + ... + aM/w**M``.

    ``r`` is the (positive, real) exterior conformal radius; ``coeffs`` holds
    ``a0 .. aM``.  Instances are immutable value objects.
    """

    r: float
    coeffs: np.ndarray

    def __post_init__(self):
        r = float(self.r)
        coeffs = np.asarray(self.coeffs, dtype=complex).reshape(-1).copy()
        _check_modes(r, coeffs)
        coeffs.setflags(write=False)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        """Truncation order M (index of the deepest 1/w power)."""
        return max(len(self.coeffs) - 1, 0)

    def with_order(self, order: int) -> "LaurentMap":
        """Zero-pad or truncate the coefficient tail to the given order."""
        padded = np.zeros(order + 1, dtype=complex)
        keep = min(len(self.coeffs), order + 1)
        padded[:keep] = self.coeffs[:keep]
        return LaurentMap(self.r, padded)


def _resolve_grid(m: LaurentMap, n: int | None) -> int:
    if n is None:
        n = default_grid_size(m.order)
    if not _is_power_of_two(n):
        raise ValueError(f"grid size must be a power of two, got {n}")
    if n < 4 * (m.order + 1):
        raise ValueError(f"grid size {n} below the dealiasing floor 4*(M+1)={4 * (m.order + 1)}")
    return n


def _modes(r, coeffs) -> np.ndarray:
    """The modes ``v = (r, a_0 .. a_M)`` of maps ``r w + sum_j coeffs[..., j] w**-j``,
    one per leading index of ``coeffs`` (and of ``r``), at the powers of
    :func:`_mode_powers`."""
    coeffs = np.asarray(coeffs)
    v = np.empty(coeffs.shape[:-1] + (coeffs.shape[-1] + 1,), dtype=complex)
    v[..., 0] = r
    v[..., 1:] = coeffs
    return v


@functools.lru_cache(maxsize=None)
def _mode_powers(count: int) -> np.ndarray:
    """The powers ``1, 0, -1, .., 2 - count`` of the ``count`` modes of :func:`_modes`."""
    powers = 1 - np.arange(count)
    powers.setflags(write=False)
    return powers


@functools.lru_cache(maxsize=None)
def _power_table(n: int, count: int) -> np.ndarray:
    """``[w_j**p | p w_j**p]`` at row ``p``'s slot, for the ``count`` powers of
    :func:`_mode_powers` and the ``n`` grid nodes ``w_j``: a read-only
    ``count x 2n`` table, built once per ``(n, count)``.  Each ``w_j**p`` is a
    grid node, ``w_((j p) % n)``."""
    powers = _mode_powers(count)[:, None]
    nodes = circle_grid(n)[(powers * np.arange(n)) % n]
    table = np.concatenate([nodes, powers * nodes], axis=1)
    table.setflags(write=False)
    return table


def _mode_values(v: np.ndarray, n: int):
    """``z`` and ``w z'`` on the ``n``-point grid from the modes ``v`` of one map
    (or of many, one per leading index), by one product with
    :func:`_power_table`: ``w d/dw`` multiplies each mode by its power."""
    values = v @ _power_table(n, v.shape[-1])
    return values[..., :n], values[..., n:]


def _grid_values(m: LaurentMap, n: int):
    """``z`` and ``w z'`` on the ``n``-point circle grid (:func:`_mode_values`)."""
    return _mode_values(_modes(m.r, m.coeffs), n)


@functools.lru_cache(maxsize=None)
def _pair_offsets(n: int) -> np.ndarray:
    """``(i + k) % n`` at row ``k - 1`` and column ``i``, for ``k = 1 .. n/2``:
    with column ``i`` it names every unordered pair of grid nodes."""
    offsets = (np.arange(n) + np.arange(1, n // 2 + 1)[:, None]) % n
    offsets.setflags(write=False)
    return offsets


def _horner(coeffs, x):
    """``sum_j coeffs[j] x**j`` by Horner's rule over the first axis of ``coeffs``.

    ``x`` may be a Python scalar or an array, and the later axes of
    ``coeffs`` broadcast against it.  Empty ``coeffs`` give 0.
    """
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def evaluate(m: LaurentMap, w):
    """Evaluate ``z(w) = r*w + sum_j a_j w**(-j)``.

    ``w`` may be a scalar or an array; ``w = 0`` is rejected.
    """
    w = np.asarray(w, dtype=complex)
    if np.any(w == 0):
        raise ValueError("the map is not defined at w = 0")
    out = m.r * w + _horner(m.coeffs, 1.0 / w)
    return out if out.ndim else out[()]


def derivative(m: LaurentMap, w):
    """Evaluate ``z'(w) = r - sum_{j>=1} j a_j w**(-j-1)``."""
    w = np.asarray(w, dtype=complex)
    if np.any(w == 0):
        raise ValueError("the map is not defined at w = 0")
    iw = 1.0 / w
    out = m.r - iw * _horner(np.arange(len(m.coeffs)) * m.coeffs, iw)
    return out if out.ndim else out[()]


def _critical_polynomial(m: LaurentMap) -> np.ndarray:
    """Coefficients, in ascending powers of ``w``, of ``w^(M+1) z'(w)``."""
    M = m.order
    coeffs = np.zeros(M + 2, dtype=complex)
    coeffs[M + 1] = m.r
    coeffs[:M] = -np.arange(M, 0, -1) * m.coeffs[M:0:-1]
    return coeffs


def critical_points(m: LaurentMap) -> np.ndarray:
    """All zeros of ``z'``: roots of the degree-(M+1) polynomial ``z'(w) w^(M+1)``."""
    return np.roots(_critical_polynomial(m)[::-1])


def _zeros_inside(coeffs: np.ndarray, radius: float) -> bool:
    """Whether every zero of a polynomial lies in ``|w| < radius`` (Schur-Cohn).

    ``coeffs`` holds ascending powers with a nonzero leading coefficient.
    The polynomial is rescaled to ``|w| < 1`` and made monic; each step of
    the recursion needs ``|a_0| < 1`` and then replaces ``p`` by the monic
    form of ``(p - a_0 p*) / w``, where ``p*`` is the reversed conjugate,
    which lowers the degree by one and keeps the count of zeros inside.
    """
    d = len(coeffs) - 1
    p = (coeffs * (radius ** np.arange(-d, 1) / coeffs[-1])).tolist()
    while len(p) > 1:
        a0 = p[0]
        lead = 1.0 - (a0.real * a0.real + a0.imag * a0.imag)
        if not lead > 0.0:
            return False
        p = [(x - a0 * y.conjugate()) / lead for x, y in zip(p[1:], p[-2::-1])]
    return True


def _derivative_weight(m: LaurentMap) -> float:
    """``S = sum_j j |a_j|``, the weight of the tail in every bound on ``z'``."""
    return float(np.arange(len(m.coeffs)) @ np.abs(m.coeffs))


def _critical_bound(m: LaurentMap, radius: float, weight: float) -> bool:
    """Whether ``r - radius^-(M+1) S``, with ``S`` the :func:`_derivative_weight`,
    a lower bound of ``|z'(w)|`` on ``|w| >= radius`` for ``radius <= 1``, is
    positive, so that every critical point lies in ``|w| < radius``.  The sum
    is held to a relative margin of 1e-12, far above its rounding."""
    return (1.0 + 1e-12) * weight < m.r * radius ** (m.order + 1)


def _neighbours_nearest(m: LaurentMap, n: int, weight: float) -> bool:
    """Whether the nearest pair of the ``n`` grid images is a pair of neighbours.

    On ``|w| = 1``, ``|w1**-j - w2**-j| <= j |w1 - w2|``, so every pair obeys
    ``(r - S) |dw| <= |dz| <= (r + S) |dw|`` with ``S`` the
    :func:`_derivative_weight`.  Neighbours have ``|dw| = 2 sin(pi/n)`` and
    every other pair at least ``2 sin(2 pi/n) = 2 cos(pi/n) 2 sin(pi/n)``, so
    ``2 cos(pi/n) (r - S) > r + S`` puts every other pair farther than every
    neighbour pair.  The inequality is held to a margin of
    ``1e-9 (r + |a_0| + S)``, far above the rounding of the grid values."""
    a0 = abs(m.coeffs[0]) if len(m.coeffs) else 0.0
    gap = 2.0 * math.cos(math.pi / n) * (m.r - weight) - (m.r + weight)
    return gap > 1e-9 * (m.r + a0 + weight)


def univalence_witness(m: LaurentMap, n: int | None = None, grid=None):
    """Check the univalence invariant of the boundary map.

    The exact enclosed area over pi, ``r**2 - sum_j j |a_j|**2``, must be
    positive (Gronwall's area theorem for univalent maps).  It costs no grid
    work, but it is necessary and not sufficient: a boundary that crosses
    itself can still enclose a positive area.  The sampled part requires
    pairwise-distinct boundary images and ``|z'| > 0`` on the grid.  With
    ``S = sum_j j |a_j|``, a map with ``2 cos(pi/n) (r - S) > (r + S)`` (to a
    margin, :func:`_neighbours_nearest`) has its nearest pair of images among
    the ``n`` neighbour pairs, and only those are compared.  Any other map
    compares each unordered pair once, as ``|z[i + k] - z[i]|`` for
    ``k = 1 .. n/2``.  Either way the minimum is the full matrix's to the
    bit.  Since the series is truncated, the critical points of the map are
    also checked exactly: all of them must lie in ``|w| < rho = 1 - 1e-9``.
    On ``|w| >= rho``, ``|z'(w)| >= r - rho^-(M+1) S``, so a map whose bound
    is positive (:func:`_critical_bound`) passes at once.  Any other map runs
    a Schur-Cohn recursion on the coefficients of ``w^(M+1) z'(w)``, and only
    a map that fails it pays for :func:`critical_points` (``np.roots``) to
    locate the escaped point.  ``grid`` is the map's ``(z, w z')`` samples
    when the caller already has them.  Returns ``(ok, min_separation,
    min_derivative, theta_worst)`` with ``theta_worst`` locating the worst
    derivative or the outermost critical point.
    """
    n = _resolve_grid(m, n)
    z, wzp = _grid_values(m, n) if grid is None else grid
    zp = np.abs(wzp)
    imin = int(np.argmin(zp))
    theta_worst = 2.0 * np.pi * imin / n
    weight = _derivative_weight(m)
    if _neighbours_nearest(m, n, weight):
        min_sep = float(np.abs(z[_pair_offsets(n)[0]] - z).min())
    else:
        min_sep = float(np.abs(z[_pair_offsets(n)] - z).min())
    sep_floor = 1e-9 * max(m.r, 1.0)
    area = m.r ** 2 - float(np.sum(np.arange(len(m.coeffs)) * np.abs(m.coeffs) ** 2))
    ok = (area > 0.0) and (min_sep > sep_floor) and (zp[imin] > 1e-8)
    rho = 1.0 - 1e-9
    if ok and not _critical_bound(m, rho, weight) and not _zeros_inside(
            _critical_polynomial(m), rho):
        ok = False
        crit = critical_points(m)
        theta_worst = float(np.angle(crit[np.argmax(np.abs(crit))]))
    return ok, min_sep, float(zp[imin]), theta_worst


def _projection_grid(m: LaurentMap, k: int, n: int):
    """Refuse ``k < 1`` and a ``z**k`` whose powers the ``n``-point grid cannot resolve."""
    if k < 1:
        raise ValueError("phi_k is defined for k >= 1")
    budget = n // 2 - 1
    if k > budget or k * m.order > budget:
        raise SeriesBudgetError(
            f"z**{k} spans powers [{-k * m.order}, {k}] but the grid of size {n} "
            f"resolves only |m| <= {budget}"
        )


def _phi_values(z: np.ndarray, k: int, w) -> np.ndarray:
    """``phi_k`` at ``w`` from the grid samples ``z`` (last axis): Horner on
    ``w d/dw A_k = sum_j j c_j w**j``, with ``c_j`` the modes of ``z**k``.

    ``z`` holds one map per leading index, and ``w`` broadcasts against them."""
    modes = np.fft.fft(z ** k, axis=-1)[..., : k + 1] / z.shape[-1]
    return _horner(np.moveaxis(modes * np.arange(k + 1), -1, 0), w)


def phi_k(m: LaurentMap, k: int, w):
    """Velocity generator ``phi_k(w) = w * d/dw A_k(w)``.

    ``A_k`` is the degree-``k`` polynomial in ``w`` holding the strictly
    positive powers of ``z**k`` plus half its free term.  ``w`` may be a
    scalar or an array; this is :func:`_phi_k_many` of one map.
    """
    out = _phi_k_many(m.r, m.coeffs, k, w)
    return out if out.ndim else complex(out)


def _phi_k_many(r, coeffs, k: int, w):
    """:func:`phi_k` of many maps: the map ``r[i] w + sum_j coeffs[i, j] w**-j``
    at ``w[i]``, for every leading index ``i`` of ``r``, ``coeffs`` and ``w``.

    All maps share the smallest grid that holds ``z**k`` without aliasing.
    """
    if k < 1:
        raise ValueError("phi_k is defined for k >= 1")
    order = np.shape(coeffs)[-1] - 1
    n = 4
    while n < 4 * (order + 1) or n // 2 - 1 < k * max(order, 1):
        n *= 2
    z, _ = _mode_values(_modes(r, coeffs), n)
    return _phi_values(z, k, np.asarray(w, dtype=complex))


def inverse_evaluate(m: LaurentMap, z: complex) -> complex:
    """Invert the map at an exterior point (:func:`_invert`)."""
    return _invert(m.r, m.coeffs.tolist(), complex(z))


def _invert(r: float, coeffs: list, z: complex) -> complex:
    """Solve ``r w + sum_j coeffs[j] w**-j = z`` by damped Newton iteration, in
    Python complex arithmetic on the coefficient list (:func:`_horner`).

    Seeded at ``z / r``; the damping factor halves whenever a full step would
    increase the residual.  Raises :class:`RootFindError` on non-convergence
    or when the solution lands inside the unit disk (``z`` was not exterior).
    """
    slopes = [j * c for j, c in enumerate(coeffs)]

    def residual(w):
        return r * w + _horner(coeffs, 1.0 / w) - z

    w = z / r
    if w == 0:
        w = 1.5 + 0.0j
    resid = residual(w)
    scale = max(1.0, abs(z))
    for _ in range(INVERSION_MAX_ITER):
        if abs(resid) <= INVERSION_TOL * scale:
            break
        iw = 1.0 / w
        dz = r - iw * _horner(slopes, iw)
        if dz == 0:
            raise RootFindError(f"map derivative vanished at w={w}")
        full_step = resid / dz
        lam = 1.0
        while True:
            w_try = w - lam * full_step
            if w_try != 0:
                resid_try = residual(w_try)
                if abs(resid_try) < abs(resid):
                    break
            lam *= 0.5
            if lam < 2.0 ** -20:
                raise RootFindError(
                    f"Newton inversion stalled at w={w} (residual {abs(resid):.3e}); "
                    "the target may be too close to or inside the contour"
                )
        w, resid = w_try, resid_try
    else:
        raise RootFindError(
            f"Newton inversion did not converge in {INVERSION_MAX_ITER} iterations "
            f"(residual {abs(resid):.3e})"
        )
    if abs(w) < 1.0 - 1e-9:
        raise RootFindError(f"inverse landed at |w|={abs(w):.6f} < 1; z={z} is not exterior")
    return w
