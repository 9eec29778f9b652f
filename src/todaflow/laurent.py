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
* the angular derivative ``d/d(log w) = w d/dw`` is computed spectrally,
  with a winding correction so that log-type samples differentiate exactly.

Grid values of a map (``z`` and ``w z'`` on the circle grid) come from two
inverse FFTs of its coefficient vector; the growth step, the univalence
witness and the moment quadrature all read them that way.  Horner loops
(:func:`evaluate` and :func:`derivative`) serve points off the grid only:
Newton inversion, plotting and user queries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import RootFindError, SeriesBudgetError

DEFAULT_ORDER = 16
DEFAULT_GRID = 128

#: Relative tolerance of the Newton inversion in :func:`inverse_evaluate`.
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
        if not np.isfinite(r) or r <= 0.0:
            raise ValueError(f"leading coefficient must be positive, got {self.r}")
        coeffs = np.asarray(self.coeffs, dtype=complex).reshape(-1).copy()
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("map coefficients must be finite")
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

    @classmethod
    def from_json(cls, obj: dict) -> "LaurentMap":
        coeffs = np.array([complex(re, im) for re, im in obj.get("coeffs", [])], dtype=complex)
        return cls(float(obj["r"]), coeffs)

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @classmethod
    def loads(cls, text: str) -> "LaurentMap":
        return cls.from_json(json.loads(text))


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
    modes = np.zeros((2, n), dtype=complex)
    modes[0, 1] = m.r
    modes[0, -np.arange(len(m.coeffs)) % n] = m.coeffs
    modes[1] = modes[0] * np.fft.fftfreq(n, 1.0 / n)
    z, wzp = np.fft.ifft(modes, norm="forward")
    return z, wzp


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


def univalence_witness(m: LaurentMap, n: int | None = None):
    """Check the univalence invariant of the boundary map.

    The exact enclosed area over pi, ``r**2 - sum_j j |a_j|**2``, must be
    positive (Gronwall's area theorem for univalent maps); it costs no grid
    work and catches boundaries that cross themselves, which the separation
    test can miss.  The sampled part requires pairwise-distinct boundary
    images and ``|z'| > 0`` on the grid.  Since the series is truncated, the
    critical points of the map are also checked exactly: a Schur-Cohn
    recursion on the coefficients of ``w^(M+1) z'(w)`` decides whether every
    zero of ``z'`` lies in ``|w| < 1 - 1e-9``, and only a map that fails it
    pays for :func:`critical_points` (``np.roots``) to locate the escaped
    point.  Returns ``(ok, min_separation, min_derivative, theta_worst)``
    with ``theta_worst`` locating the worst derivative or the outermost
    critical point.
    """
    n = _resolve_grid(m, n)
    z, wzp = _grid_values(m, n)
    zp = np.abs(wzp)
    imin = int(np.argmin(zp))
    theta_worst = 2.0 * np.pi * imin / n
    dist = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(dist, np.inf)
    min_sep = float(dist.min())
    sep_floor = 1e-9 * max(m.r, 1.0)
    area = m.r ** 2 - float(np.sum(np.arange(len(m.coeffs)) * np.abs(m.coeffs) ** 2))
    ok = (area > 0.0) and (min_sep > sep_floor) and (zp[imin] > 1e-8)
    if ok and m.order > 0 and not _zeros_inside(_critical_polynomial(m), 1.0 - 1e-9):
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
    """``A_k``'s coefficients (ascending powers of ``w``) from the grid samples ``z``."""
    modes = np.fft.fft(z ** k) / len(z)
    coeffs = np.zeros(k + 1, dtype=complex)
    coeffs[0] = 0.5 * modes[0]
    coeffs[1 : k + 1] = modes[1 : k + 1]
    return coeffs


def _phi_values(z: np.ndarray, k: int, w) -> np.ndarray:
    """``phi_k`` at ``w`` from the grid samples ``z``: Horner on ``w d/dw A_k``."""
    return np.polynomial.polynomial.polyval(w, _ak_coefficients(z, k) * np.arange(k + 1))


def phi_k(m: LaurentMap, k: int, w, n: int | None = None):
    """Velocity generator ``phi_k(w) = w * d/dw A_k(w)``.

    ``A_k`` is the degree-``k`` polynomial in ``w`` holding the strictly
    positive powers of ``z**k`` plus half its free term.
    """
    z, _ = _grid_values(m, _projection_grid(m, k, n))
    out = _phi_values(z, k, np.asarray(w, dtype=complex))
    return out if out.ndim else complex(out)


def _winding_number(samples: np.ndarray) -> int:
    """Net winding of the imaginary part, detected from wrapped increments."""
    d = np.diff(np.concatenate([samples, samples[:1]])).imag
    wrapped = (d + np.pi) % (2.0 * np.pi) - np.pi
    return int(np.rint(np.sum(wrapped) / (2.0 * np.pi)))


def log_derivative(samples: np.ndarray) -> np.ndarray:
    """Spectral ``d/d(log w)`` of grid samples, exact for log-type data.

    A sample set whose imaginary part winds ``W`` times around the circle
    (e.g. ``log w`` itself, with ``W = 1``) is split into ``W * log w`` plus a
    single-valued remainder before differentiating.
    """
    samples = np.asarray(samples, dtype=complex)
    n = len(samples)
    winding = _winding_number(samples)
    if winding != 0:
        theta = 2.0 * np.pi * np.arange(n) / n
        ref = 1j * np.angle(np.exp(1j * theta))
        samples = samples - winding * ref
    modes = np.fft.fft(samples)
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    freqs[n // 2] = 0.0
    deriv = np.fft.ifft(modes * freqs)
    return deriv + winding


def poisson_bracket(f_fn, g_fn, w: np.ndarray, t0: float,
                    dt0: float | None = None) -> np.ndarray:
    """Finite-difference Poisson bracket ``{f, g}`` on the circle grid.

    ``f_fn(w, t)`` and ``g_fn(w, t)`` must return boundary samples for the
    grid ``w`` (1-D, power-of-two length) at deformation time ``t``.  The
    angular derivative ``d/d(log w)`` is spectral; the ``t0`` derivative
    uses central differences with step ``dt0`` (default
    ``1e-4 * max(|t0|, 1)``).  Returns the bracket's grid samples.
    """
    if dt0 is None:
        dt0 = 1e-4 * max(abs(t0), 1.0)
    if dt0 <= 0:
        raise ValueError("dt0 must be positive")
    w = np.asarray(w, dtype=complex)
    if w.ndim != 1 or not _is_power_of_two(len(w)):
        raise ValueError(f"the grid must be 1-D with a power-of-two length, got shape {w.shape}")
    f0 = np.asarray(f_fn(w, t0), dtype=complex)
    g0 = np.asarray(g_fn(w, t0), dtype=complex)
    df_dt = (np.asarray(f_fn(w, t0 + dt0), dtype=complex) - np.asarray(f_fn(w, t0 - dt0), dtype=complex)) / (
        2.0 * dt0
    )
    dg_dt = (np.asarray(g_fn(w, t0 + dt0), dtype=complex) - np.asarray(g_fn(w, t0 - dt0), dtype=complex)) / (
        2.0 * dt0
    )
    return log_derivative(f0) * dg_dt - df_dt * log_derivative(g0)


def inverse_evaluate(m: LaurentMap, z: complex, tol: float = INVERSION_TOL,
                     max_iter: int = INVERSION_MAX_ITER) -> complex:
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
    for _ in range(max_iter):
        if abs(resid) <= tol * scale:
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
            f"Newton inversion did not converge in {max_iter} iterations (residual {abs(resid):.3e})"
        )
    if abs(w) < 1.0 - 1e-9:
        raise RootFindError(f"inverse landed at |w|={abs(w):.6f} < 1; z={z} is not exterior")
    return w
