"""Cyclic-group counterparts: weighted representations and the regular one.

For the order-3n cyclic group acting on C^n with the generator multiplying
coordinate j (1-based) by zeta**(j), zeta = exp(2*pi*i/(3n)), a short chain
of cubic expressions pins the whole orbit. For the regular representation of
Z_N on C^N the bispectrum of the spectrum does the same up to cyclic shift.
A small combinatorial audit counts monomials that survive the global-phase
weight test, which is what rules out low-degree invariant polynomials of the
Heisenberg action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentInvariants, NonGenericInput
from .inversion import invert_bispectrum
from .invariants import unitary_bispectrum
from .spectral import (
    DEFAULT_GENERICITY_FLOOR,
    as_complex_vector,
    dft,
    principal_nth_root,
)

__all__ = [
    "WeightedCyclicInvariants",
    "apply_weighted_generator",
    "weighted_invariants",
    "recover_weighted",
    "recover_weight12",
    "recover_cyclic_orbit",
    "degree_audit",
]

CONSISTENCY_TOL = 1e-6


@dataclass(frozen=True)
class WeightedCyclicInvariants:
    """Invariant chain of the weight-(1..n) action of the order-3n group.

    r: squared modulus of the first coordinate.
    a: n chain values; a[0] = v1**2 * conj(v2), a[k-1] = v1 * vk * conj(v_{k+1})
       for 2 <= k <= n-1, and a[n-1] = vn**3 (coordinates 1-based).
    """

    n: int
    r: float
    a: tuple[complex, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be a positive integer")
        if self.r < 0:
            raise ValueError("r is a squared modulus and cannot be negative")
        if len(self.a) != self.n:
            raise ValueError("chain must have exactly n values")


def apply_weighted_generator(v, power: int = 1) -> np.ndarray:
    """Generator action: coordinate j (1-based) gains phase zeta**(power*j)."""
    v = as_complex_vector(v)
    n = len(v)
    weights = np.arange(1, n + 1)
    return v * np.exp(2j * np.pi * power * weights / (3 * n))


def weighted_invariants(v) -> WeightedCyclicInvariants:
    """Evaluate the invariant chain on v in C^n."""
    v = as_complex_vector(v)
    n = len(v)
    a = np.empty(n, dtype=np.complex128)
    for k in range(1, n):
        a[k - 1] = v[0] * v[k - 1] * np.conj(v[k])
    a[n - 1] = v[n - 1] ** 3
    return WeightedCyclicInvariants(
        n=n, r=float(np.abs(v[0]) ** 2), a=tuple(complex(t) for t in a)
    )


def recover_weighted(inv: WeightedCyclicInvariants) -> np.ndarray:
    """Solve the chain forward and return an orbit representative.

    The first coordinate is taken real positive, each next one follows
    uniquely from the chain, and the leftover circle freedom is pinned by the
    cube of the last coordinate: the ratio a[n-1] / v_n**3 has unit modulus
    for consistent data, and the principal (3n)-th root theta of its phase
    rephases the solution as (theta * v1, theta**2 * v2, ...), landing in
    the group orbit. A first coordinate or a solved coordinate of modulus
    at or below DEFAULT_GENERICITY_FLOOR raises NonGenericInput.
    """
    n = inv.n
    if inv.r <= DEFAULT_GENERICITY_FLOOR:
        raise NonGenericInput("first coordinate magnitude is numerically zero")
    v = np.zeros(n, dtype=np.complex128)
    v[0] = np.sqrt(inv.r)
    for k in range(1, n):
        v[k] = np.conj(inv.a[k - 1] / (v[0] * v[k - 1]))
        if abs(v[k]) <= DEFAULT_GENERICITY_FLOOR:
            raise NonGenericInput(f"coordinate {k + 1} is numerically zero")
    mu = inv.a[n - 1] / v[n - 1] ** 3
    if abs(abs(mu) - 1.0) > CONSISTENCY_TOL:
        raise InconsistentInvariants(
            f"cube value inconsistent with the chain: |mu| = {abs(mu):.8f}"
        )
    theta = principal_nth_root(mu / abs(mu), 3 * n)
    weights = np.arange(1, n + 1)
    return v * theta ** weights


def recover_weight12(r1: float, r2: float, a) -> np.ndarray:
    """Recover (x1, x2) from |x1|**2, |x2|**2 and x1**2 * conj(x2).

    This is the circle action with weights 1 and 2; the output is one
    representative, every other solution being (e^{i t} x1, e^{2 i t} x2).
    """
    if r1 <= DEFAULT_GENERICITY_FLOOR or r2 <= DEFAULT_GENERICITY_FLOOR:
        raise NonGenericInput("both coordinates must be nonvanishing")
    a = complex(a)
    expected = r1 * r1 * r2
    if abs(abs(a) ** 2 - expected) > CONSISTENCY_TOL * max(abs(a) ** 2, expected):
        raise InconsistentInvariants(
            f"|a|**2 = {abs(a) ** 2:.6e} does not match r1**2 * r2 = {expected:.6e}"
        )
    x1 = complex(np.sqrt(r1))
    x2 = np.conj(a / x1 ** 2)
    return np.array([x1, x2], dtype=np.complex128)


def recover_cyclic_orbit(x) -> np.ndarray:
    """Round-trip x through the bispectrum of its spectrum.

    Demonstrates that the cubic expressions V[i] V[j] conj(V[i+j]) of the
    spectrum V separate translation orbits: the output is some cyclic shift
    of x whenever every Fourier coefficient of x is nonvanishing. The
    inversion raises NonGenericInput when one is at or below
    DEFAULT_GENERICITY_FLOOR.
    """
    return invert_bispectrum(unitary_bispectrum(dft(x))).signal


def degree_audit(order: int, degree: int) -> int:
    """Count degree-`degree` monomials passing the global-phase weight test.

    Every coordinate has weight one under the global phase, so a monomial
    x_0**a_0 * ... * x_{N-1}**a_{N-1} survives iff sum(a) = 0 mod N. The
    count is zero for every degree strictly between 0 and N, which is why
    the Heisenberg action has no low-degree invariant polynomials. Every
    exponent vector of a degree-d monomial sums to d, so the test depends on
    the degree alone: either all C(d + N - 1, N - 1) monomials pass or none.
    """
    if order < 2:
        raise ValueError("group order must be at least 2")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    return math.comb(degree + order - 1, order - 1) if degree % order == 0 else 0
