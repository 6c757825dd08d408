"""Shared test helpers: generic sampling, zero padding and enumeration oracles."""

import numpy as np

from heisenberg_orbits import (
    GroupElement,
    OrderMismatch,
    identity,
    is_generic,
    sample_random_signal,
)
from heisenberg_orbits.spectral import as_complex_vector


def generic_signal(n, seed, floor=1e-8):
    """Deterministically find a seed at or after `seed` whose sample is generic."""
    for attempt in range(64):
        x = sample_random_signal(n, seed + 1_000_003 * attempt)
        if is_generic(x, floor):
            return x
    raise AssertionError(f"no generic sample near seed {seed} for n={n}")


def generic_real_signal(n, seed, floor=1e-8):
    """Real Gaussian vector whose spectrum stays above the floor."""
    for attempt in range(64):
        rng = np.random.default_rng(seed + 1_000_003 * attempt)
        y = rng.standard_normal(n)
        if np.min(np.abs(np.fft.fft(y))) > floor:
            return y
    raise AssertionError(f"no generic real sample near seed {seed} for n={n}")


def zero_padded(x):
    """x followed by len(x) - 1 zeros.

    The N-point transform magnitudes of the padded vector carry the aperiodic
    autocorrelation of x, so together with |x|**2 they determine a generic x
    up to a global phase (Beinert & Plonka, ACHA 2018). Unpadded N-point
    magnitudes admit several solution classes.
    """
    x = np.asarray(x, dtype=complex)
    return np.concatenate([x, np.zeros(len(x) - 1, dtype=complex)])


def min_shift_distance(reference, candidate):
    """Min over cyclic shifts s of ||candidate - roll(reference, -s)||."""
    reference = np.asarray(reference)
    candidate = np.asarray(candidate)
    return min(
        float(np.linalg.norm(candidate - np.roll(reference, -s)))
        for s in range(len(reference))
    )


def exhaustive_orbit_distance(x, x2):
    """Reference oracle: the loop over all N**2 pairs (k, n), every m at once.

    `orbit_distance` must return the same distance float and witness.
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
