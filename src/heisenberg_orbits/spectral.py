"""Complex-vector arithmetic: transforms, shifts, root extraction, sampling.

The discrete Fourier transform convention is fixed package-wide: the forward
transform is unnormalized, X[k] = sum_j x[j] * exp(-2*pi*i*j*k/N), and the
inverse carries the 1/N factor. Every serialized invariant value depends on
this choice, so it must not be changed independently of the file formats.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ZeroInput

__all__ = [
    "DEFAULT_GENERICITY_FLOOR",
    "DEFAULT_RECOVERY_TOL",
    "as_complex_vector",
    "as_real_vector",
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


def checked_tolerance(tol) -> float:
    """tol as a float if finite and strictly positive: the one tolerance rule.

    recover_orbit, the experiment spec and within_orbit_tolerance apply it.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be finite and strictly positive, got {tol}")
    return float(tol)


def vanishing_coefficients(V, floor: float = DEFAULT_GENERICITY_FLOOR) -> np.ndarray:
    """Indices k with |V[k]| <= floor: the package's one genericity rule.

    A spectrum is generic when this is empty. `is_generic` applies it to the
    transforms of the squared-modulus and squared-Fourier-modulus vectors,
    and the bispectrum inversion to the magnitudes it recovers, so the two
    agree on which spectra vanish.
    """
    return np.flatnonzero(np.abs(V) <= floor)


def as_complex_vector(x) -> np.ndarray:
    """Validate x as a nonempty 1-D vector of finite entries, as complex128."""
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a nonempty one-dimensional vector")
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise ValueError("vector entries must be finite")
    return arr


def as_real_vector(x) -> np.ndarray:
    """Validate x as a nonempty 1-D vector of finite entries, as float64."""
    arr = np.asarray(x, dtype=np.float64)
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
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n)


def cyclic_shift(v, k: int) -> np.ndarray:
    """Return w with w[j] = v[(j + k) mod N]; preserves the input dtype."""
    arr = np.asarray(v)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional vector")
    return np.roll(arr, -int(k))


def principal_nth_root(c, n: int) -> complex:
    """Return r with r**n = c and arg(r) in [0, 2*pi/n).

    Raises ZeroInput when |c| is at or below DEFAULT_GENERICITY_FLOOR, since
    the root of a numerically-zero value carries no phase information. The
    phase fixes take roots of unit-modulus ratios, which never raise.
    """
    c = complex(c)
    if not n >= 1:
        raise ValueError("root order must be a positive integer")
    if abs(c) <= DEFAULT_GENERICITY_FLOOR:
        raise ZeroInput(f"cannot take a principal root of near-zero value {c!r}")
    theta = np.angle(c) % (2.0 * np.pi)
    if theta == 2.0 * np.pi:  # an angle in (-4.4e-16, 0) rounds up to 2*pi
        theta = 0.0
    return complex(abs(c) ** (1.0 / n) * np.exp(1j * theta / n))


def sample_random_signal(n: int, seed: int) -> np.ndarray:
    """I.i.d. standard complex Gaussian entries, deterministic given seed."""
    if n < 1:
        raise ValueError("dimension must be a positive integer")
    rng = np.random.default_rng(seed)
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
