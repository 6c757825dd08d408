"""Cyclic-group counterparts: weighted representations and the regular one.

For the order-3n cyclic group acting on C^n with the generator multiplying
coordinate j (1-based) by zeta**(j), zeta = exp(2*pi*i/(3n)), a short chain
of cubic expressions pins the whole orbit, and one chain step solves it and
the weight-(1, 2) circle action. Both solvers raise ValueError on a
non-finite value, NonGenericInput on a modulus at or below the genericity
floor, and InconsistentInvariants on data no vector has, at every scale. For
the regular representation of Z_N on C^N the bispectrum of the spectrum does
the same up to cyclic shift. A small combinatorial audit counts monomials
that survive the global-phase weight test, which is what rules out
low-degree invariant polynomials of the Heisenberg action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentInvariants, NonGenericInput
from .inversion import _march
from .invariants import unitary_bispectrum
from .spectral import (
    as_complex_vector,
    checked_integer,
    dft,
    idft,
    principal_nth_root,
    vanishing_coefficients,
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
    a: n = len(a) chain values; a[0] = v1**2 * conj(v2), a[k-1] = v1 * vk *
       conj(v_{k+1}) for 2 <= k <= n-1, and a[n-1] = vn**3 (coordinates 1-based).

    Construction raises ValueError on an empty chain, a negative r or a
    non-finite value.
    """

    r: float
    a: tuple[complex, ...]

    def __post_init__(self):
        checked_integer(self.n, 1, "dimension")
        if not np.all(np.isfinite((self.r, *self.a))):
            raise ValueError("chain values must be finite")
        if self.r < 0:
            raise ValueError("r is a squared modulus and cannot be negative")

    @property
    def n(self) -> int:
        return len(self.a)


def apply_weighted_generator(v, power: int = 1) -> np.ndarray:
    """Generator action: coordinate j (1-based) gains phase zeta**(power*j)."""
    power = checked_integer(power, name="power")
    v = as_complex_vector(v)
    n = len(v)
    weights = np.arange(1, n + 1)
    return v * np.exp(2j * np.pi * power * weights / (3 * n))


def weighted_invariants(v) -> WeightedCyclicInvariants:
    """Evaluate the invariant chain on v in C^n."""
    v = as_complex_vector(v)
    a = np.append(v[0] * v[:-1] * np.conj(v[1:]), v[-1] ** 3)
    return WeightedCyclicInvariants(r=float(np.abs(v[0]) ** 2), a=tuple(a.tolist()))


def _chain(r: float, values) -> np.ndarray:
    """The chain step: v1 = sqrt(r), then v_{k+1} = conj(values[k-1] / (v1 v_k));
    a coordinate at or below the genericity floor raises NonGenericInput."""
    v = np.zeros(len(values) + 1, dtype=np.complex128)
    for k in range(len(v)):
        v[k] = np.conj(values[k - 1] / (v[0] * v[k - 1])) if k else np.sqrt(r)
        if vanishing_coefficients(v[k]).size:
            raise NonGenericInput(f"coordinate {k + 1} is numerically zero")
    return v


def recover_weighted(inv: WeightedCyclicInvariants) -> np.ndarray:
    """Solve the chain forward and return an orbit representative.

    The chain step gives v with v1 real positive (NonGenericInput at a
    coordinate on or below the genericity floor). The cube of the last one
    pins the leftover circle freedom: a[n-1] / v_n**3 has unit modulus for
    consistent data, else InconsistentInvariants is raised before any root
    is taken, and the principal (3n)-th root theta of its phase rephases v
    as (theta * v1, theta**2 * v2, ...), into the group orbit.
    """
    n = inv.n
    v = _chain(inv.r, inv.a[:-1])
    mu = inv.a[-1] / v[-1] ** 3
    if abs(abs(mu) - 1.0) > CONSISTENCY_TOL:
        raise InconsistentInvariants(
            f"cube value inconsistent with the chain: |mu| = {abs(mu):.8f}"
        )
    theta = principal_nth_root(mu / abs(mu), 3 * n)
    return v * theta ** np.arange(1, n + 1)


def recover_weight12(r1: float, r2: float, a) -> np.ndarray:
    """Recover (x1, x2) from |x1|**2, |x2|**2 and x1**2 * conj(x2) by the chain step.

    This is the circle action with weights 1 and 2; the output is one
    representative, every other solution being (e^{i t} x1, e^{2 i t} x2).
    In order: a non-finite value raises ValueError, a negative r1 or r2
    InconsistentInvariants, a modulus sqrt(r1) or sqrt(r2) at or below the
    genericity floor NonGenericInput, and r2 off |a|**2 / r1**2, the |x2|**2
    that a implies, InconsistentInvariants at every scale.
    """
    if not np.all(np.isfinite((r1, r2, a))):
        raise ValueError("r1, r2 and a must be finite")
    if r1 < 0 or r2 < 0:
        raise InconsistentInvariants(f"squared moduli must be nonnegative: r1 = {r1}, r2 = {r2}")
    m1, m2 = math.sqrt(r1), math.sqrt(r2)
    if vanishing_coefficients((m1, m2)).size:
        raise NonGenericInput("both coordinates must be nonvanishing")
    a = complex(a)
    # |a| / (r1 sqrt(r2)) from the parts of a: no step overflows within the tolerance
    ratio = math.hypot(a.real / m1, a.imag / m1) / m1 / m2
    if not 1 - CONSISTENCY_TOL <= ratio * ratio <= 1 / (1 - CONSISTENCY_TOL):
        raise InconsistentInvariants(f"|a|**2 / r1**2 is {ratio * ratio:.6e} times r2")
    return _chain(r1, (a,))


def recover_cyclic_orbit(x) -> np.ndarray:
    """Round-trip x through the bispectrum of its spectrum.

    Demonstrates that the cubic expressions V[i] V[j] conj(V[i+j]) of the
    spectrum V separate translation orbits: the output is some cyclic shift
    of x whenever every Fourier coefficient of x is nonvanishing. The
    inversion raises NonGenericInput when one is at or below
    DEFAULT_GENERICITY_FLOOR.
    """
    return idft(_march(unitary_bispectrum(dft(x))))


def degree_audit(order: int, degree: int) -> int:
    """Count degree-`degree` monomials passing the global-phase weight test.

    Every coordinate has weight one under the global phase, so a monomial
    x_0**a_0 * ... * x_{N-1}**a_{N-1} survives iff sum(a) = 0 mod N. The
    count is zero for every degree strictly between 0 and N, which is why
    the Heisenberg action has no low-degree invariant polynomials. Every
    exponent vector of a degree-d monomial sums to d, so the test depends on
    the degree alone: either all C(d + N - 1, N - 1) monomials pass or none.
    Raises ValueError unless order >= 2 and degree >= 1 are integers.
    """
    order = checked_integer(order, 2, "group order")
    degree = checked_integer(degree, 1, "degree")
    return math.comb(degree + order - 1, order - 1) if degree % order == 0 else 0
