"""Invariant features of the Heisenberg action on C^N.

Two bispectra and one power sum. The bispectra are built from the squared
moduli of a vector and of its Fourier transform; both are blind to the whole
group action including arbitrary global phases. The degree-N power sum
x_0^N + ... + x_{N-1}^N is also group-invariant but changes under any phase
that is not an N-th root of unity, which is what lets it pin the phase later.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrderMismatch
from .spectral import (
    DEFAULT_GENERICITY_FLOOR,
    as_complex_vector,
    dft,
    max_relative_deviation,
    vanishing_coefficients,
)

__all__ = [
    "HeisenbergInvariants",
    "GenericityReport",
    "modulus_vector",
    "fourier_modulus_vector",
    "unitary_bispectrum",
    "modulus_bispectrum",
    "fourier_modulus_bispectrum",
    "power_invariant",
    "heisenberg_invariants",
    "is_generic",
    "bispectra_distance",
    "invariant_distance",
]


@dataclass(frozen=True)
class HeisenbergInvariants:
    """Bundle of the three invariant features attached to one signal.

    bm: bispectrum of the squared-modulus vector (N x N complex).
    bfm: bispectrum of the squared-Fourier-modulus vector (N x N complex).
    power_sum: the degree-N power sum of the signal entries.

    Construction raises ValueError on a wrong shape or a non-finite entry.
    """

    n: int
    bm: np.ndarray
    bfm: np.ndarray
    power_sum: complex

    def __post_init__(self):
        if self.bm.shape != (self.n, self.n) or self.bfm.shape != (self.n, self.n):
            raise ValueError("bispectrum matrices must be n x n")
        # a nan would pass every screen's `distance > tol` test unnoticed
        if not all(np.isfinite(v).all() for v in (self.bm, self.bfm, self.power_sum)):
            raise ValueError("bundle entries must be finite")


@dataclass(frozen=True)
class GenericityReport:
    """Outcome of the nonvanishing-coefficients check; truthy iff generic."""

    generic: bool
    floor: float
    modulus_failures: tuple[int, ...]
    fourier_modulus_failures: tuple[int, ...]

    def __bool__(self) -> bool:
        return self.generic


def modulus_vector(x) -> np.ndarray:
    """Squared moduli y[j] = |x[j]|**2."""
    x = as_complex_vector(x)
    return np.abs(x) ** 2


def fourier_modulus_vector(x) -> np.ndarray:
    """Squared Fourier moduli z[k] = |dft(x)[k]|**2."""
    return np.abs(dft(x)) ** 2


def unitary_bispectrum(V) -> np.ndarray:
    """B[i, j] = V[i] * V[j] * conj(V[(i + j) mod N]).

    For V the transform of a real vector this equals
    V[i] * V[j] * V[(N - i - j) mod N] entrywise, by conjugate symmetry,
    so one code path serves both the real and the complex form.
    """
    V = as_complex_vector(V)
    n = len(V)
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    return V[i] * V[j] * np.conj(V[(i + j) % n])


def modulus_bispectrum(x) -> np.ndarray:
    """Bispectrum of the squared-modulus vector of x."""
    return unitary_bispectrum(dft(modulus_vector(x)))


def fourier_modulus_bispectrum(x) -> np.ndarray:
    """Bispectrum of the squared-Fourier-modulus vector of x."""
    return unitary_bispectrum(dft(fourier_modulus_vector(x)))


def power_invariant(x) -> complex:
    """Degree-N power sum: sum_j x[j]**N for x in C^N."""
    x = as_complex_vector(x)
    return complex(np.sum(x ** len(x)))


def heisenberg_invariants(x) -> HeisenbergInvariants:
    """Compute the full invariant bundle (bm, bfm, power sum) of x."""
    x = as_complex_vector(x)
    return HeisenbergInvariants(
        n=len(x),
        bm=modulus_bispectrum(x),
        bfm=fourier_modulus_bispectrum(x),
        power_sum=power_invariant(x),
    )


def is_generic(x, floor: float = DEFAULT_GENERICITY_FLOOR) -> GenericityReport:
    """Check that both derived spectra have all coefficients above floor.

    Recovery is only well posed when the transforms of the squared-modulus
    and squared-Fourier-modulus vectors never vanish; the report lists
    offending indices on each side.
    """
    if not floor > 0:
        raise ValueError("floor must be strictly positive")
    x = as_complex_vector(x)
    y_fail = tuple(vanishing_coefficients(dft(modulus_vector(x)), floor).tolist())
    z_fail = tuple(vanishing_coefficients(dft(fourier_modulus_vector(x)), floor).tolist())
    return GenericityReport(
        generic=not y_fail and not z_fail,
        floor=floor,
        modulus_failures=y_fail,
        fourier_modulus_failures=z_fail,
    )


def bispectra_distance(a: HeisenbergInvariants, b: HeisenbergInvariants) -> float:
    """Max relative deviation over the two bispectra only (power sum excluded)."""
    if a.n != b.n:
        raise OrderMismatch(f"bundle dimensions differ: {a.n} vs {b.n}")
    return max(
        max_relative_deviation(a.bm, b.bm),
        max_relative_deviation(a.bfm, b.bfm),
    )


def invariant_distance(a: HeisenbergInvariants, b: HeisenbergInvariants) -> float:
    """Max relative deviation across bm, bfm and the power sum."""
    return max(
        bispectra_distance(a, b),
        max_relative_deviation(
            np.asarray([a.power_sum]), np.asarray([b.power_sum])
        ),
    )
