"""Complex-vector arithmetic (transforms, shifts, roots, sampling) and the shared numeric rules.

The discrete Fourier transform convention is fixed package-wide: the forward
transform is unnormalized, X[k] = sum_j x[j] * exp(-2*pi*i*j*k/N), and the
inverse carries the 1/N factor. Every serialized invariant value depends on
this choice, so it must not be changed independently of the file formats.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DEFAULT_GENERICITY_FLOOR",
    "DEFAULT_RECOVERY_TOL",
    "as_complex_vector",
    "dft",
    "idft",
    "dft_matrix",
    "cyclic_shift",
    "principal_nth_root",
    "sample_random_signal",
    "max_relative_deviation",
]

DEFAULT_GENERICITY_FLOOR = 1e-8
DEFAULT_RECOVERY_TOL = 1e-6
# the default tolerance of _consistent, the check that data are those of some vector
CONSISTENCY_TOL = 1e-6
# orders whose per-order plans stay cached (an orbit plan is 2/3 of an n x n complex matrix)
_PLAN_CACHE_ORDERS = 8


def checked_tolerance(tol) -> float:
    """tol as a float if finite and strictly positive: the one tolerance rule.

    Every tolerance the package takes passes it, and so does is_generic's floor.
    A bool or a value that is not a real number raises ValueError too.
    """
    # type(), not isinstance(): a bool is an int, but no tolerance
    if type(tol) is bool or not isinstance(tol, (int, float, np.integer, np.floating)):
        raise ValueError(f"tolerance must be a real number, not {type(tol).__name__}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be finite and strictly positive, got {tol}")
    return float(tol)


def checked_integer(value, minimum=None, name="value") -> int:
    """value as an int: the one integer rule, which every integer argument passes.

    A Python or numpy integer (not a bool) of at least minimum; else ValueError.
    """
    # type(), not isinstance(): a bool is an int, but no integer argument
    if type(value) is not int and not isinstance(value, np.integer):
        raise ValueError(f"{name} must be an integer, not {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}")
    return int(value)


def vanishing_coefficients(V, floor: float = DEFAULT_GENERICITY_FLOOR) -> np.ndarray:
    """Indices k with |V[k]| <= floor: the package's one genericity rule.

    No other code compares a value against the floor: `is_generic`, the
    bispectrum inversion, `recover_orbit` and the weighted cyclic solvers call
    this, so they agree on which values vanish.
    """
    return np.flatnonzero(np.abs(V) <= floor)


def _consistent(p, q, tol: float = CONSISTENCY_TOL) -> bool:
    """|p| and |q| within tol of the larger; a zero against a nonzero, a nan or an inf fails."""
    p, q = float(np.abs(p)), float(np.abs(q))  # abs() raises on a complex past the float range
    return abs(p - q) <= tol * max(p, q) < math.inf


def _unit_scaled(*vectors: np.ndarray) -> tuple[np.ndarray, int]:
    """The vectors joined and divided by 2**e, and e: 2**e puts their largest part in [1/2, 1).

    A part is a real entry or a real or imaginary part (e is 0 if all are zero),
    and the dtype is kept. No sum or norm formed in this unit overflows, and the
    division is exact down to the subnormal range. Callers slice the vectors out.
    """
    joined = np.concatenate(vectors)
    parts = joined.view(np.float64)
    e = math.frexp(np.abs(parts).max())[1]
    return np.ldexp(parts, -e).view(joined.dtype), e


def _scaled_back(value: float, e: int) -> float:
    """value * 2**e, rounded once; inf past the float range."""
    try:
        return math.ldexp(value, e)
    except OverflowError:
        return math.inf


def as_complex_vector(x, dtype=np.complex128) -> np.ndarray:
    """Validate x as a nonempty 1-D vector of finite entries, as dtype (float64 for real data)."""
    arr = np.asarray(x, dtype=dtype)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a nonempty one-dimensional vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    return arr


def dft(x) -> np.ndarray:
    """Forward transform, X[k] = sum_j x[j] exp(-2*pi*i*j*k/N)."""
    return np.fft.fft(as_complex_vector(x))


def idft(X) -> np.ndarray:
    """Inverse transform, x[j] = (1/N) sum_k X[k] exp(+2*pi*i*j*k/N)."""
    return np.fft.ifft(as_complex_vector(X))


def dft_matrix(n: int) -> np.ndarray:
    """Kernel matrix F with F[k, j] = exp(-2*pi*i*j*k/n), so dft(x) = F @ x.

    Used directly in hot loops where per-call FFT overhead dominates at
    desk-scale n; agrees with dft() to machine precision.
    """
    n = checked_integer(n, 1, "dimension")
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n)


def cyclic_shift(v, k: int) -> np.ndarray:
    """w[j] = v[(j + k) mod N], for v a nonempty, finite 1-D vector; keeps the dtype of v."""
    arr = np.asarray(v)
    return np.roll(as_complex_vector(arr, arr.dtype), -checked_integer(k, name="shift"))


def principal_nth_root(c, n: int) -> complex:
    """Return r with r**n = c and arg(r) in [0, 2*pi/n); r = 0 for c = 0.

    Raises ValueError unless n is an integer >= 1. Callers judge c against
    the genericity floor first: the phase fixes take roots of unit-modulus
    ratios, after screens reject a vanishing power sum or coordinate.
    """
    c = complex(c)
    n = checked_integer(n, 1, "root order")
    theta = np.angle(c) % (2.0 * np.pi)
    if theta == 2.0 * np.pi:  # an angle in (-4.4e-16, 0) rounds up to 2*pi
        theta = 0.0
    return complex(abs(c) ** (1.0 / n) * np.exp(1j * theta / n))


def sample_random_signal(n: int, seed: int) -> np.ndarray:
    """I.i.d. standard complex Gaussian entries, deterministic given seed."""
    n = checked_integer(n, 1, "dimension")
    rng = np.random.default_rng(checked_integer(seed, 0, "seed"))
    re = rng.standard_normal(n)
    im = rng.standard_normal(n)
    return (re + 1j * im) / np.sqrt(2.0)


def max_relative_deviation(a, b) -> float:
    """Entrywise max of |a - b| / max(|a|, |b|, 1).

    The unit floor in the denominator keeps the metric stable near zero
    entries; this is the comparison metric shared by the invariant distance,
    inversion residuals, and magnitude-match checks.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("shapes must match")
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / scale))
