"""The finite Heisenberg group H_N as data.

Elements are triples (k, n, m) over Z_N with multiplication
(k, n, m)(k', n', m') = (k + k', n + n', m + m' + k*n').  The action on C^N
composes a time shift, a frequency modulation, and a global phase, in that
order; this composition order makes the action a homomorphism for the
multiplication law above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import OrderMismatch
from .spectral import as_complex_vector, checked_integer, checked_tolerance

__all__ = [
    "GroupElement",
    "identity",
    "multiply",
    "inverse",
    "act",
    "enumerate_group",
    "orbit_distance",
    "orbit_equivalent",
]


@dataclass(frozen=True)
class GroupElement:
    """One element (k, n, m) of H_N, as Python ints; indices normalized into [0, N)."""

    order: int
    k: int
    n: int
    m: int

    def __post_init__(self):
        order = checked_integer(self.order, 1, "group order")
        object.__setattr__(self, "order", order)
        for name in ("k", "n", "m"):
            object.__setattr__(self, name, checked_integer(getattr(self, name), name=name) % order)


def identity(order: int) -> GroupElement:
    return GroupElement(order, 0, 0, 0)


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    """Group law: (k, n, m)(k', n', m') = (k + k', n + n', m + m' + k*n')."""
    if g.order != h.order:
        raise OrderMismatch(f"group orders differ: {g.order} vs {h.order}")
    return GroupElement(g.order, g.k + h.k, g.n + h.n, g.m + h.m + g.k * h.n)


def inverse(g: GroupElement) -> GroupElement:
    """Inverse element (-k, -n, -m + k*n), forced by the group law."""
    return GroupElement(g.order, -g.k, -g.n, -g.m + g.k * g.n)


def act(g: GroupElement, x) -> np.ndarray:
    """Apply g = (k, n, m): shift by k, modulate by n, then phase by m.

    Explicitly, out[j] = zeta**(n*j + m) * x[(j + k) mod N] with
    zeta = exp(2*pi*i/N).
    """
    x = as_complex_vector(x)
    if len(x) != g.order:
        raise OrderMismatch(f"vector dimension {len(x)} != group order {g.order}")
    shifted = np.roll(x, -g.k)
    j = np.arange(g.order)
    return shifted * np.exp(2j * np.pi * (g.n * j + g.m) / g.order)


def enumerate_group(order: int) -> list[GroupElement]:
    """All order**3 elements exactly once, lexicographic in (k, n, m)."""
    order = checked_integer(order, 1, "group order")
    return [
        GroupElement(order, k, n, m)
        for k in range(order)
        for n in range(order)
        for m in range(order)
    ]


def _unit_scaled(*vectors: np.ndarray) -> tuple[list[np.ndarray], int]:
    """The vectors divided by 2**e, and e, for the 2**e that puts their largest part in [1/2, 1).

    A part is a real or imaginary part (e is 0 if all are zero). No norm
    formed in this unit overflows, and the division is exact down to the
    subnormal range.
    """
    largest = np.abs(np.concatenate(vectors).view(np.float64)).max()
    e = int(np.frexp(largest)[1])
    return [np.ldexp(v.real, -e) + 1j * np.ldexp(v.imag, -e) for v in vectors], e


def _scaled_back(value: float, e: int) -> float:
    """value * 2**e, rounded once; inf past the float range."""
    try:
        return math.ldexp(value, e)
    except OverflowError:
        return math.inf


def _near_pairs(x: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """The pairs (k, n) that can hold the least orbit distance of x and x2.

    x and x2 come in the unit of _unit_scaled. The squared distance at the
    best m is ||x||**2 + ||x2||**2 - 2 |C[k, n]| cos(angle), the angle at
    most pi / N: never below ||x||**2 + ||x2||**2 - 2 |C|, and at the
    largest |C| at most ||x||**2 + ||x2||**2 - 2 max |C| cos(pi / N). A pair
    is dropped only if its lower bound exceeds that upper bound by more than
    three margins. The margin, relative to (||x|| + ||x2||)**2, covers the
    rounding of the FFT and of the exact norms of `orbit_distance`; as the
    largest part lies in [1/2, 1) it is at least 16 eps, more than all the
    squared terms that flush to zero. So every pair whose exact norm can be
    the least is kept, and so is the pair with the largest |C|; they come as
    k N + n in lexicographic order.
    """
    order = len(x)
    # <act((k, n, m), x), x2> = zeta**m * C[k, n], one inverse FFT per shift
    # k; row k, x[(k + j) mod N], is a view of x followed by x[:-1]
    doubled = np.concatenate((x, x[:-1]))
    rows = as_strided(doubled, (order, order), doubled.strides * 2) * np.conj(x2)[None, :]
    modulus = np.abs(order * np.fft.ifft(rows, axis=1)).ravel()
    sq_x = float(np.vdot(x, x).real)
    sq_x2 = float(np.vdot(x2, x2).real)
    eps = np.finfo(float).eps
    rel = 64 * (order + np.sqrt(order) * (np.log2(order) + 1) + 1) * eps
    margin = rel * (np.sqrt(sq_x) + np.sqrt(sq_x2)) ** 2
    bound = sq_x + sq_x2 - 2 * np.max(modulus) * np.cos(np.pi / order) + margin
    return np.flatnonzero(sq_x + sq_x2 - 2 * modulus <= bound + 2 * margin)


def orbit_distance(x, x2) -> tuple[float, GroupElement]:
    """Exact min over all N**3 elements g of H_N of ||act(g, x) - x2||, and g.

    Ties break to the first minimizer in lexicographic (k, n, m) order, so
    the witness is deterministic.

    Both vectors are divided by one power of two (_unit_scaled) and the
    distance multiplied back, so 2**k x and 2**k x2 give 2**k times the
    distance, rounded once, and the same witness; only a distance past the
    float range reads inf. In that unit, <act((k, n, m), x), x2> =
    zeta**m * C[k, n] takes N inverse FFTs, and |C| bounds the distance of
    every pair (k, n) from below (_near_pairs). The pairs it admits include
    every pair that can hold the minimum, so their exact norms, over all m
    and in lexicographic order, give the minimum and witness of a loop over
    every pair; a pair left out has an exact distance above the minimum.
    """
    x = as_complex_vector(x)
    x2 = as_complex_vector(x2)
    if len(x) != len(x2):
        raise OrderMismatch(f"dimensions differ: {len(x)} vs {len(x2)}")
    order = len(x)
    (x, x2), e = _unit_scaled(x, x2)

    j = np.arange(order)
    phases = np.exp(2j * np.pi * j / order)
    best_dist = np.inf
    for k, n in (divmod(int(pair), order) for pair in _near_pairs(x, x2)):
        # np.roll(x, -k) without its call overhead
        modulated = np.concatenate((x[k:], x[:k])) * np.exp(2j * np.pi * (n * j) / order)
        # all m at once; argmin returns the first minimizer
        diffs = phases[:, None] * modulated[None, :] - x2[None, :]
        dists = np.linalg.norm(diffs, axis=1)
        m = int(np.argmin(dists))
        if dists[m] < best_dist:
            best_dist = float(dists[m])
            best = (k, n, m)
    return _scaled_back(best_dist, e), GroupElement(order, *best)


def within_orbit_tolerance(dist: float, x, tol: float) -> bool:
    """True iff an orbit distance from x is within tol * max(||x||, 1).

    ||x|| is formed in the unit of _unit_scaled, so it is inf only past the
    float range. Raises ValueError unless tol is finite and strictly
    positive, the rule that checked_tolerance applies to every tolerance.
    """
    (x,), e = _unit_scaled(as_complex_vector(x))
    return dist <= checked_tolerance(tol) * max(_scaled_back(float(np.linalg.norm(x)), e), 1.0)


def orbit_equivalent(x, x2, tol: float) -> bool:
    """True iff the orbit distance is within tol * max(||x||, 1)."""
    dist, _ = orbit_distance(x, x2)
    return within_orbit_tolerance(dist, x, tol)
