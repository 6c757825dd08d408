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
from .spectral import as_complex_vector, checked_tolerance

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


def _screen(x: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, float]:
    """Approximate min over m of ||act((k, n, m), x) - x2||**2 for every (k, n).

    Returns the N x N screen and a bound on how far any entry, or the
    squared norm `orbit_distance` computes exactly, can lie from the true
    squared distance. Both are in units of 4**-e, where 2**e bounds the
    largest entry of x and x2, so the screen neither overflows nor
    underflows.
    """
    order = len(x)
    largest = max(np.max(np.abs(x)), np.max(np.abs(x2)))
    e = int(np.frexp(largest)[1]) if largest > 0 else 0
    x = np.ldexp(x.real, -e) + 1j * np.ldexp(x.imag, -e)
    x2 = np.ldexp(x2.real, -e) + 1j * np.ldexp(x2.imag, -e)
    # <act((k, n, m), x), x2> = zeta**m * C[k, n], one inverse FFT per shift k
    j = np.arange(order)
    rows = x[(j[:, None] + j[None, :]) % order] * np.conj(x2)[None, :]
    c = order * np.fft.ifft(rows, axis=1)
    # the best m rounds -arg(C) * N / (2 pi); what is left is the angle to it
    turns = np.angle(c) * order / (2 * np.pi)
    best_re = np.abs(c) * np.cos(2 * np.pi * (turns - np.rint(turns)) / order)
    sq_x = float(np.vdot(x, x).real)
    sq_x2 = float(np.vdot(x2, x2).real)
    screen = sq_x + sq_x2 - 2 * best_re
    # rounding of the FFT screen and of the exact norms, relative to
    # (||x|| + ||x2||)**2, plus every squared term of an exact norm
    # flushing to zero; the second exponent is capped where the margin
    # already exceeds every screen value
    eps = np.finfo(float).eps
    rel = 64 * (order + np.sqrt(order) * (np.log2(order) + 1) + 1) * eps
    floor = np.ldexp(16.0 * (order + 1), min(-1074 - 2 * e, 1000))
    margin = rel * (np.sqrt(sq_x) + np.sqrt(sq_x2)) ** 2 + floor
    return screen, margin


def orbit_distance(x, x2) -> tuple[float, GroupElement]:
    """Exact min over all N**3 elements g of H_N of ||act(g, x) - x2||, and g.

    Ties break to the first minimizer in lexicographic (k, n, m) order, so
    the witness is deterministic.

    The inner products <act((k, n, m), x), x2> = zeta**m * C[k, n] take N
    inverse FFTs, one per shift k, and the best phase m for each (k, n) has
    a closed form; this screens all N**2 pairs (k, n) in O(N**2 log N). The
    expanded ||x||**2 + ||x2||**2 - 2 Re form loses precision near zero, so
    every (k, n) whose screen lies within twice the rounding margin of the
    smallest is recomputed exactly, over all m and in lexicographic order,
    and only exact norms pick the minimum and the witness. The screen is
    scaled by a power of two, so large inputs do not overflow it. For
    inputs so small that the exact squared norms underflow, the margin
    widens by that floor until it admits every (k, n), and the recheck
    becomes the full exhaustive search.
    """
    x = as_complex_vector(x)
    x2 = as_complex_vector(x2)
    if len(x) != len(x2):
        raise OrderMismatch(f"dimensions differ: {len(x)} vs {len(x2)}")
    order = len(x)
    screen, margin = _screen(x, x2)
    near = np.argwhere(screen <= np.min(screen) + 2 * margin)

    j = np.arange(order)
    modulations = np.exp(2j * np.pi * np.outer(np.arange(order), j) / order)
    phases = np.exp(2j * np.pi * np.arange(order) / order)
    best_dist = np.inf
    best_g = identity(order)
    for k, n in near:
        modulated = np.roll(x, -k) * modulations[n]
        # all m at once; argmin returns the first minimizer
        diffs = phases[:, None] * modulated[None, :] - x2[None, :]
        dists = np.linalg.norm(diffs, axis=1)
        m = int(np.argmin(dists))
        if dists[m] < best_dist:
            best_dist = float(dists[m])
            best_g = GroupElement(order, k, n, m)
    return best_dist, best_g


def within_orbit_tolerance(dist: float, x, tol: float) -> bool:
    """True iff an orbit distance from x is within tol * max(||x||, 1).

    Raises ValueError unless tol is finite and strictly positive, the rule
    that checked_tolerance applies to every tolerance.
    """
    return dist <= checked_tolerance(tol) * max(float(np.linalg.norm(as_complex_vector(x))), 1.0)


def orbit_equivalent(x, x2, tol: float) -> bool:
    """True iff the orbit distance is within tol * max(||x||, 1)."""
    dist, _ = orbit_distance(x, x2)
    return within_orbit_tolerance(dist, x, tol)
