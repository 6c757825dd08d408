"""Invariant features of the Heisenberg action on C^N.

Two bispectra and one power sum. The bispectra are built from the squared
moduli of a vector and of its Fourier transform; both are blind to the whole
group action including arbitrary global phases. The degree-N power sum
x_0^N + ... + x_{N-1}^N is also group-invariant but changes under any phase
that is not an N-th root of unity, which is what lets it pin the phase later.

A bundle stores each bispectrum as one value per symmetry orbit, the values
its file holds, and rebuilds the N x N matrix when one is read;
HeisenbergInvariants.from_matrices is the one way in for a matrix, and it
refuses one that differs within an orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import OrderMismatch
from .spectral import (
    DEFAULT_GENERICITY_FLOOR,
    as_complex_vector,
    checked_integer,
    checked_tolerance,
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

    n: the dimension N.
    bm_values, bfm_values: the bispectra of the squared-modulus and the
        squared-Fourier-modulus vector, one complex value per symmetry
        orbit: B[a, b] for each canonical triple (a, b, c) of order n, in
        the order of _canonical_triples, _orbit_count(n) values each.
    power_sum: the degree-N power sum of the signal entries.

    The bundle keeps read-only complex128 copies of the two values vectors,
    and bm and bfm rebuild the N x N matrices from them. Construction
    raises ValueError unless n is an integer of at least 1 and each values
    vector holds _orbit_count(n) entries, or on a non-finite value;
    from_matrices builds a bundle from two matrices.
    """

    n: int
    bm_values: np.ndarray
    bfm_values: np.ndarray
    power_sum: complex

    def __post_init__(self):
        n = checked_integer(self.n, 1, "bundle order")
        object.__setattr__(self, "n", n)
        # neither the caller's array nor a write to the copy reaches a checked bundle
        for name in ("bm_values", "bfm_values"):
            stored = np.array(getattr(self, name), dtype=np.complex128)
            stored.flags.writeable = False
            object.__setattr__(self, name, stored)
        count = _orbit_count(n)
        if not self.bm_values.shape == self.bfm_values.shape == (count,):
            raise ValueError(f"bispectra of order {n} must hold {count} orbit values each")
        # a nan would pass every screen's `distance > tol` test unnoticed
        values = (self.bm_values, self.bfm_values, self.power_sum)
        if not all(np.isfinite(v).all() for v in values):
            raise ValueError("bundle entries must be finite")

    @classmethod
    def from_matrices(cls, bm, bfm, power_sum) -> HeisenbergInvariants:
        """The bundle of two N x N real bispectra and a power sum.

        Raises ValueError unless bm and bfm are square, nonempty and of one
        shape with finite entries, and each holds one value per symmetry
        orbit, so that the stored values rebuild it exactly.
        """
        shape = bm.shape
        if not (len(shape) == 2 and shape[0] == shape[1] >= 1 and bfm.shape == shape):
            raise ValueError("bispectrum matrices must be n x n with n >= 1")
        if not all(np.isfinite(v).all() for v in (bm, bfm, power_sum)):
            raise ValueError("bundle entries must be finite")
        n = shape[0]
        triples = _canonical_triples(n)
        bm_values, bfm_values = bm[triples[0], triples[1]], bfm[triples[0], triples[1]]
        for name, matrix, values in (("bm", bm, bm_values), ("bfm", bfm, bfm_values)):
            if not np.array_equal(_scatter(values, n), matrix):
                raise ValueError(
                    f"{name} differs within a symmetry orbit, "
                    "so one entry per orbit would lose data"
                )
        return cls(n, bm_values, bfm_values, power_sum)

    @property
    def bm(self) -> np.ndarray:
        """The N x N bispectrum of the squared-modulus vector, a new array."""
        return _scatter(self.bm_values, self.n)

    @property
    def bfm(self) -> np.ndarray:
        """The N x N bispectrum of the squared-Fourier-modulus vector, a new array."""
        return _scatter(self.bfm_values, self.n)


@dataclass(frozen=True)
class GenericityReport:
    """Outcome of the genericity check; generic, and truthy, iff nothing failed."""

    modulus_failures: tuple[int, ...]
    fourier_modulus_failures: tuple[int, ...]
    power_sum_vanishes: bool

    @property
    def generic(self) -> bool:
        return not (
            self.modulus_failures or self.fourier_modulus_failures or self.power_sum_vanishes
        )

    def __bool__(self) -> bool:
        return self.generic


def modulus_vector(x) -> np.ndarray:
    """Squared moduli y[j] = |x[j]|**2."""
    return np.abs(as_complex_vector(x)) ** 2


def fourier_modulus_vector(x) -> np.ndarray:
    """Squared Fourier moduli z[k] = |dft(x)[k]|**2."""
    return np.abs(dft(x)) ** 2


def unitary_bispectrum(V) -> np.ndarray:
    """B[i, j] = V[i] * V[j] * conj(V[(i + j) mod N]).

    For V the transform of a real vector this equals
    V[i] * V[j] * V[(N - i - j) mod N] to rounding, by conjugate symmetry;
    the bundle and the two modulus bispectra take that real form one
    product per symmetry orbit instead (_orbit_values).
    """
    V = as_complex_vector(V)
    n = len(V)
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    return V[i] * V[j] * np.conj(V[(i + j) % n])


def modulus_bispectrum(x) -> np.ndarray:
    """Bispectrum of the squared-modulus vector of x."""
    y = modulus_vector(x)
    return _scatter(_orbit_values(_real_spectrum(y)), len(y))


def fourier_modulus_bispectrum(x) -> np.ndarray:
    """Bispectrum of the squared-Fourier-modulus vector of x."""
    z = fourier_modulus_vector(x)
    return _scatter(_orbit_values(_real_spectrum(z)), len(z))


def power_invariant(x) -> complex:
    """Degree-N power sum: sum_j x[j]**N for x in C^N."""
    return _power_sum(as_complex_vector(x))


def _power_sum(x: np.ndarray) -> complex:
    return complex(np.sum(x ** len(x)))


def _real_spectrum(y: np.ndarray) -> np.ndarray:
    """Transform of the real vector y, made exactly Hermitian.

    V[0] and the Nyquist entry are real and V[N - k] = conj(V[k]) bit for
    bit; numpy's complex transform of a real vector misses the mirror by
    rounding at many N, the first being N = 6.
    """
    half = np.fft.rfft(y)
    half.imag[0] = 0.0
    if len(y) % 2 == 0:
        half.imag[-1] = 0.0
    return np.concatenate((half, np.conj(half[(len(y) - 1) // 2 : 0 : -1])))


def _spectra(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transforms of the squared-modulus and squared-Fourier-modulus vectors of a validated x."""
    return _real_spectrum(np.abs(x) ** 2), _real_spectrum(np.abs(np.fft.fft(x)) ** 2)


# The six ordered pairs (p, q) of distinct positions in a triple, as p and q rows
_FIRST, _SECOND = np.array([(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]).T

# Orders whose orbit plan stays cached; a plan takes about two thirds of the
# memory of an n x n complex matrix, and a run works at a handful of orders
_PLAN_CACHE_ORDERS = 8


def _orbit_count(n: int) -> int:
    """Number of canonical triples at order n, in closed form.

    The sorted triples a <= b <= c with a + b + c = n are the partitions of
    n into at most 3 parts, round((n + 3)**2 / 12) of them. This costs
    nothing even where the triple table would not fit in memory, so a file
    header can be checked against its entry lists before any table exists.
    """
    return ((n + 3) ** 2 + 6) // 12


class _OrbitPlan(NamedTuple):
    """The index tables of one order's real bispectrum, shared read-only.

    triples: the canonical triples, shape (3, M).
    gather: for each flat n x n position, t where it holds the value of
        triple t and M + t where it holds the conjugate, length n * n.
    fixed: the triples (0, b, -b) that negation fixes, a boolean mask of length M.
    """

    triples: np.ndarray
    gather: np.ndarray
    fixed: np.ndarray


@lru_cache(maxsize=_PLAN_CACHE_ORDERS)
def _orbit_plan(n: int) -> _OrbitPlan:
    """The orbit plan of order n, built once and cached with its arrays read-only.

    The canonical triples are one per symmetry orbit of a real bispectrum:
    the sorted triples a <= b <= c with a + b + c = 0 (mod n) that are
    lexicographically no larger than their sorted negation, in
    lexicographic order. For a real vector with spectrum V,
    B[i, j] = V[i] V[j] V[-i - j] is the product over the triple
    (i, j, -i - j), so it is fixed by the 6 permutations of the triple and
    conjugated by negating it: 12 matrix positions share each value.
    """
    # Sorted residues with a + b + c = 0 (mod n) sum to 0, n or 2n. Negation
    # fixes each (0, b, n - b) and maps a triple with a >= 1 summing to n to
    # one summing to 2n that starts with n - c > a. So the smaller of the two
    # is (0, 0, 0) or sums to exactly n: a <= b <= c = n - a - b.
    a = np.arange(n // 3 + 1)[:, None]
    b = np.arange(n // 2 + 1)
    a, b = np.nonzero((a <= b) & (a + 2 * b <= n))
    triples = np.stack((a, b, (n - a - b) % n))
    negated = -triples % n
    index = np.arange(triples.shape[1])
    # every position lies in one such orbit; where a triple is its own
    # negation the forward index is written last, so it holds the value as given
    gather = np.empty(n * n, dtype=np.intp)
    gather[negated[_FIRST] * n + negated[_SECOND]] = index + len(index)
    gather[triples[_FIRST] * n + triples[_SECOND]] = index
    plan = _OrbitPlan(triples=triples, gather=gather, fixed=triples[0] == 0)
    for array in plan:
        array.flags.writeable = False
    return plan


def _canonical_triples(n: int) -> np.ndarray:
    """One frequency triple per symmetry orbit of a real bispectrum, shape (3, M), read-only.

    See _orbit_plan for which triples and in what order.
    """
    return _orbit_plan(n).triples


def _scatter(values: np.ndarray, n: int) -> np.ndarray:
    """The n x n matrix holding values[t] at every position of canonical triple t.

    The 6 permutation positions of a triple get its value and the 6
    positions of its negation the conjugate, in one gather through the
    plan's table.
    """
    return np.concatenate((values, np.conj(values)))[_orbit_plan(n).gather].reshape(n, n)


def _orbit_values(V: np.ndarray) -> np.ndarray:
    """Bispectrum of a real vector from its exactly Hermitian transform V, one value per orbit.

    One product V[a] V[b] V[c] per canonical triple; scattered to its 12
    positions, every symmetry holds bit for bit whatever numpy rounds.
    """
    plan = _orbit_plan(len(V))
    triples = plan.triples
    values = V[triples[0]] * V[triples[1]] * V[triples[2]]
    # V[0] |V[b]|**2 is real for the triples (0, b, -b) that negation fixes
    values[plan.fixed] = values[plan.fixed].real
    return values


def heisenberg_invariants(x) -> HeisenbergInvariants:
    """Compute the full invariant bundle (bm, bfm, power sum) of x."""
    x = as_complex_vector(x)
    y_hat, z_hat = _spectra(x)
    return HeisenbergInvariants(
        n=len(x),
        bm_values=_orbit_values(y_hat),
        bfm_values=_orbit_values(z_hat),
        power_sum=_power_sum(x),
    )


def is_generic(x, floor: float = DEFAULT_GENERICITY_FLOOR) -> GenericityReport:
    """Check that both derived spectra and the power sum are above floor.

    Recovery is only well posed when the transforms of the squared-modulus
    and squared-Fourier-modulus vectors never vanish, and the phase fix only
    when the power sum does not; the report lists offending indices on each
    side and whether the power sum is at or below the floor. At the default
    floor this is the rule `recover_orbit` applies to a bundle. The floor
    must pass checked_tolerance, or ValueError is raised.
    """
    floor = checked_tolerance(floor)
    x = as_complex_vector(x)
    y_hat, z_hat = _spectra(x)
    y_fail = tuple(vanishing_coefficients(y_hat, floor).tolist())
    z_fail = tuple(vanishing_coefficients(z_hat, floor).tolist())
    power_sum_vanishes = bool(vanishing_coefficients(_power_sum(x), floor).size)
    return GenericityReport(y_fail, z_fail, power_sum_vanishes)


def bispectra_distance(a: HeisenbergInvariants, b: HeisenbergInvariants) -> float:
    """Max relative deviation over the two bispectra only (power sum excluded).

    Taken over the orbit values: every matrix entry is an orbit value or
    its conjugate, and conjugating both sides leaves |a - b| and
    max(|a|, |b|, 1) bit for bit, so this is the max over the N x N matrices.
    """
    if a.n != b.n:
        raise OrderMismatch(f"bundle dimensions differ: {a.n} vs {b.n}")
    return max(
        max_relative_deviation(a.bm_values, b.bm_values),
        max_relative_deviation(a.bfm_values, b.bfm_values),
    )


def invariant_distance(a: HeisenbergInvariants, b: HeisenbergInvariants) -> float:
    """Max relative deviation across bm, bfm and the power sum."""
    power = max_relative_deviation(np.asarray([a.power_sum]), np.asarray([b.power_sum]))
    return max(bispectra_distance(a, b), power)
