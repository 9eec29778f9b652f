"""Truncated Laurent-series algebra on the unit circle.

The central object is the map ``z(w) = r*w + a0 + a1/w + ... + aM/w**M``
from the exterior of the unit disk onto the exterior of a compact planar
domain.  Boundary functions have one representation: samples on a uniform
power-of-two grid of the unit circle, read as Fourier modes through the FFT,
so products never touch an explicit convolution.  Grid sizes must satisfy
``n >= 4*(M+1)`` to keep quadratic nonlinearities alias-free.

Conventions
-----------
* grid nodes are ``theta_j = 2*pi*j/n``, ``w_j = exp(i*theta_j)``;
* the Fourier coefficient of ``w**m`` of a sampled function is
  ``fft(samples)[m % n] / n``;
* the angular derivative ``d/d(log w) = w d/dw`` of a map multiplies each
  of its modes by the mode's index, so ``w z'`` is exact on the grid.

Grid values of a map (``z`` and ``w z'`` on the circle grid) come from two
inverse FFTs of its coefficient vector; the growth step, the string
residual, the univalence witness and the moment quadrature all read them
that way, and a caller that already has a map's grid hands it to the
witness.  The witness compares each unordered pair of grid points once, and
settles the critical points without a Schur-Cohn recursion whenever
``r - rho^-(M+1) sum_j j |a_j|``, a lower bound of ``|z'|`` on ``|w| >= rho``,
is positive.  Horner loops (:func:`evaluate` and :func:`derivative`) serve
points off the grid only: Newton inversion, plotting and user queries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import RootFindError, SeriesBudgetError

DEFAULT_ORDER = 16
DEFAULT_GRID = 128

#: Relative tolerance and iteration cap of the Newton inversion in
#: :func:`inverse_evaluate`.
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
    """Unit-circle nodes ``exp(2*pi*i*j/n)``, ``j = 0..n-1``."""
    if not _is_power_of_two(n):
        raise ValueError(f"grid size must be a power of two, got {n}")
    return np.exp(2j * np.pi * np.arange(n) / n)


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

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs],
        }


def _resolve_grid(m: LaurentMap, n: int | None) -> int:
    if n is None:
        n = default_grid_size(m.order)
    if not _is_power_of_two(n):
        raise ValueError(f"grid size must be a power of two, got {n}")
    if n < 4 * (m.order + 1):
        raise ValueError(f"grid size {n} below the dealiasing floor 4*(M+1)={4 * (m.order + 1)}")
    return n


def _grid_values(m: LaurentMap, n: int):
    """``z`` and ``w z'`` on the ``n``-point circle grid, from two inverse FFTs.

    The map's coefficients are its Fourier modes: ``r`` at index 1 and
    ``a_j`` at index ``-j``.  ``w d/dw`` multiplies each mode by its index.
    Any grid that passes ``_resolve_grid`` (``n >= 4 (M + 1)``) holds every
    mode at its own signed index.
    """
    return _spectrum_values(_spectrum(m.r, m.coeffs, n))


def _spectrum_values(spectrum):
    """``z`` and ``w z'`` on the grid from a map's modes (:func:`_spectrum`),
    by one two-row inverse FFT."""
    modes = np.empty((2, len(spectrum)), dtype=complex)
    modes[0] = spectrum
    modes[1] = spectrum * _mode_index(len(spectrum))
    z, wzp = np.fft.ifft(modes, norm="forward")
    return z, wzp


@functools.lru_cache(maxsize=None)
def _mode_index(n: int) -> np.ndarray:
    """The signed mode index of each FFT slot, ``fftfreq(n, 1/n)``, built once per ``n``."""
    index = np.fft.fftfreq(n, 1.0 / n)
    index.setflags(write=False)
    return index


@functools.lru_cache(maxsize=None)
def _pair_offsets(n: int) -> np.ndarray:
    """``(i + k) % n`` at row ``k - 1`` and column ``i``, for ``k = 1 .. n/2``:
    with column ``i`` it names every unordered pair of grid nodes."""
    offsets = (np.arange(n) + np.arange(1, n // 2 + 1)[:, None]) % n
    offsets.setflags(write=False)
    return offsets


def _spectrum(r, coeffs, n):
    """The ``n`` Fourier modes of maps ``r w + sum_j coeffs[..., j] w**-j``, one
    per leading index of ``coeffs`` (and of ``r``)."""
    coeffs = np.asarray(coeffs)
    modes = np.zeros(coeffs.shape[:-1] + (n,), dtype=complex)
    modes[..., 1] = r
    modes[..., -np.arange(coeffs.shape[-1]) % n] = coeffs
    return modes


def evaluate(m: LaurentMap, w):
    """Evaluate ``z(w) = r*w + sum_j a_j w**(-j)``.

    ``w`` may be a scalar or an array; ``w = 0`` is rejected.
    """
    w = np.asarray(w, dtype=complex)
    if np.any(w == 0):
        raise ValueError("the map is not defined at w = 0")
    out = m.r * w
    if len(m.coeffs):
        iw = 1.0 / w
        p = np.ones_like(w)
        for j, a in enumerate(m.coeffs):
            if j > 0:
                p = p * iw
            out = out + a * p
    return out if out.ndim else out[()]


def derivative(m: LaurentMap, w):
    """Evaluate ``z'(w) = r - sum_{j>=1} j a_j w**(-j-1)``."""
    w = np.asarray(w, dtype=complex)
    if np.any(w == 0):
        raise ValueError("the map is not defined at w = 0")
    out = np.full(w.shape, m.r, dtype=complex)
    iw = 1.0 / w
    p = iw.copy()
    for j, a in enumerate(m.coeffs):
        if j == 0:
            continue
        p = p * iw
        out = out - j * a * p
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


def _critical_bound(m: LaurentMap, radius: float) -> bool:
    """Whether ``r - radius^-(M+1) sum_j j |a_j|``, a lower bound of ``|z'(w)|`` on
    ``|w| >= radius`` for ``radius <= 1``, is positive, so that every critical
    point lies in ``|w| < radius``.  The sum is held to a relative margin of
    1e-12, far above its rounding."""
    weight = float(np.arange(len(m.coeffs)) @ np.abs(m.coeffs))
    return (1.0 + 1e-12) * weight < m.r * radius ** (m.order + 1)


def univalence_witness(m: LaurentMap, n: int | None = None, grid=None):
    """Check the univalence invariant of the boundary map.

    The exact enclosed area over pi, ``r**2 - sum_j j |a_j|**2``, must be
    positive (Gronwall's area theorem for univalent maps).  It costs no grid
    work, but it is necessary and not sufficient: a boundary that crosses
    itself can still enclose a positive area.  The sampled part requires
    pairwise-distinct boundary images and ``|z'| > 0`` on the grid; the
    separations are taken over each unordered pair once, as ``|z[i + k] -
    z[i]|`` for ``k = 1 .. n/2``, whose minimum is the full matrix's to the
    bit.  Since the series is truncated, the critical points of the map are
    also checked exactly: all of them must lie in ``|w| < rho = 1 - 1e-9``.
    On ``|w| >= rho``, ``|z'(w)| >= r - rho^-(M+1) sum_j j |a_j|``, so a map
    whose bound is positive (:func:`_critical_bound`) passes at once.  Any
    other map runs a Schur-Cohn recursion on the coefficients of
    ``w^(M+1) z'(w)``, and only a map that fails it pays for
    :func:`critical_points` (``np.roots``) to locate the escaped point.
    ``grid`` is the map's ``(z, w z')`` samples when the caller already has
    them.  Returns ``(ok, min_separation, min_derivative, theta_worst)`` with
    ``theta_worst`` locating the worst derivative or the outermost critical
    point.
    """
    n = _resolve_grid(m, n)
    z, wzp = _grid_values(m, n) if grid is None else grid
    zp = np.abs(wzp)
    imin = int(np.argmin(zp))
    theta_worst = 2.0 * np.pi * imin / n
    min_sep = float(np.abs(z[_pair_offsets(n)] - z).min())
    sep_floor = 1e-9 * max(m.r, 1.0)
    area = m.r ** 2 - float(np.sum(np.arange(len(m.coeffs)) * np.abs(m.coeffs) ** 2))
    ok = (area > 0.0) and (min_sep > sep_floor) and (zp[imin] > 1e-8)
    rho = 1.0 - 1e-9
    if ok and not _critical_bound(m, rho) and not _zeros_inside(_critical_polynomial(m), rho):
        ok = False
        crit = critical_points(m)
        theta_worst = float(np.angle(crit[np.argmax(np.abs(crit))]))
    return ok, min_sep, float(zp[imin]), theta_worst


def _projection_grid(m: LaurentMap, k: int, n: int | None) -> int:
    """The grid for ``A_k`` of the map; refuses ``k < 1`` and unresolved powers."""
    if k < 1:
        raise ValueError("phi_k is defined for k >= 1")
    n = _resolve_grid(m, n)
    budget = n // 2 - 1
    if k > budget or k * m.order > budget:
        raise SeriesBudgetError(
            f"z**{k} spans powers [{-k * m.order}, {k}] but the grid of size {n} "
            f"resolves only |m| <= {budget}"
        )
    return n


def _ak_coefficients(z: np.ndarray, k: int) -> np.ndarray:
    """``A_k``'s coefficients (ascending powers of ``w``) from the grid samples ``z``
    (last axis), one map per leading index."""
    modes = np.fft.fft(z ** k, axis=-1) / z.shape[-1]
    coeffs = np.zeros(z.shape[:-1] + (k + 1,), dtype=complex)
    coeffs[..., 0] = 0.5 * modes[..., 0]
    coeffs[..., 1 : k + 1] = modes[..., 1 : k + 1]
    return coeffs


def _phi_values(z: np.ndarray, k: int, w) -> np.ndarray:
    """``phi_k`` at ``w`` from the grid samples ``z``: Horner on ``w d/dw A_k``.

    ``z`` holds one map per leading index, and ``w`` broadcasts against them."""
    weighted = np.moveaxis(_ak_coefficients(z, k) * np.arange(k + 1), -1, 0)
    return np.polynomial.polynomial.polyval(w, weighted, tensor=False)


def phi_k(m: LaurentMap, k: int, w, n: int | None = None):
    """Velocity generator ``phi_k(w) = w * d/dw A_k(w)``.

    ``A_k`` is the degree-``k`` polynomial in ``w`` holding the strictly
    positive powers of ``z**k`` plus half its free term.
    """
    z, _ = _grid_values(m, _projection_grid(m, k, n))
    out = _phi_values(z, k, np.asarray(w, dtype=complex))
    return out if out.ndim else complex(out)


def phi_k_many(r, coeffs, k: int, w):
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
    z = np.fft.ifft(_spectrum(r, coeffs, n), norm="forward")
    return _phi_values(z, k, np.asarray(w, dtype=complex))


def inverse_evaluate(m: LaurentMap, z: complex) -> complex:
    """Invert the map at an exterior point by damped Newton iteration.

    Seeded at ``z / r``; the damping factor halves whenever a full step would
    increase the residual.  Raises :class:`RootFindError` on non-convergence
    or when the solution lands inside the unit disk (``z`` was not exterior).
    """
    z = complex(z)
    w = z / m.r
    if w == 0:
        w = 1.5 + 0.0j
    resid = evaluate(m, w) - z
    scale = max(1.0, abs(z))
    for _ in range(INVERSION_MAX_ITER):
        if abs(resid) <= INVERSION_TOL * scale:
            break
        dz = derivative(m, w)
        if dz == 0:
            raise RootFindError(f"map derivative vanished at w={w}")
        full_step = resid / dz
        lam = 1.0
        while True:
            w_try = w - lam * full_step
            if w_try != 0:
                resid_try = evaluate(m, w_try) - z
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
