"""The finite Heisenberg group H_N as data.

Elements are triples (k, n, m) over Z_N with multiplication
(k, n, m)(k', n', m') = (k + k', n + n', m + m' + k*n').  The action on C^N
composes a time shift, a frequency modulation, and a global phase, in that
order; this composition order makes the action a homomorphism for the
multiplication law above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrderMismatch
from .spectral import as_complex_vector


@dataclass(frozen=True)
class GroupElement:
    """One element (k, n, m) of H_N; indices are normalized into [0, N)."""

    order: int
    k: int
    n: int
    m: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("group order must be a positive integer")
        object.__setattr__(self, "k", int(self.k) % self.order)
        object.__setattr__(self, "n", int(self.n) % self.order)
        object.__setattr__(self, "m", int(self.m) % self.order)


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
    if order < 1:
        raise ValueError("group order must be a positive integer")
    return [
        GroupElement(order, k, n, m)
        for k in range(order)
        for n in range(order)
        for m in range(order)
    ]


def orbit_distance(x, x2) -> tuple[float, GroupElement]:
    """Exhaustive min over g in H_N of ||act(g, x) - x2|| and an attaining g.

    Ties break to the first minimizer in lexicographic (k, n, m) order, so
    the witness is deterministic.
    """
    x = as_complex_vector(x)
    x2 = as_complex_vector(x2)
    if len(x) != len(x2):
        raise OrderMismatch(f"dimensions differ: {len(x)} vs {len(x2)}")
    order = len(x)
    j = np.arange(order)
    modulations = np.exp(2j * np.pi * np.outer(np.arange(order), j) / order)
    phases = np.exp(2j * np.pi * np.arange(order) / order)

    best_dist = np.inf
    best_g = identity(order)
    for k in range(order):
        shifted = np.roll(x, -k)
        for n in range(order):
            modulated = shifted * modulations[n]
            # all m at once; argmin returns the first minimizer
            diffs = phases[:, None] * modulated[None, :] - x2[None, :]
            dists = np.linalg.norm(diffs, axis=1)
            m = int(np.argmin(dists))
            if dists[m] < best_dist:
                best_dist = float(dists[m])
                best_g = GroupElement(order, k, n, m)
    return best_dist, best_g


def within_orbit_tolerance(dist: float, x, tol: float) -> bool:
    """True iff an orbit distance from x is within tol * max(||x||, 1)."""
    return dist <= tol * max(float(np.linalg.norm(as_complex_vector(x))), 1.0)


def orbit_equivalent(x, x2, tol: float) -> bool:
    """True iff the orbit distance is within tol * max(||x||, 1)."""
    dist, _ = orbit_distance(x, x2)
    return within_orbit_tolerance(dist, x, tol)
