"""Shared test helpers: sampling, zero padding, oracles and reference loops."""

import numpy as np

from heisenberg_orbits import (
    GroupElement,
    HeisenbergInvariants,
    OrderMismatch,
    heisenberg_invariants,
    identity,
    is_generic,
    sample_random_signal,
)
from heisenberg_orbits.spectral import as_complex_vector, dft_matrix, max_relative_deviation


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


def inconsistent_bm_bundle():
    """Bundle of generic_signal(6, 11) with bm[2, 3] and bm[3, 2] scaled by 1.1.

    Its bm differs from the bispectrum of its own inversion by 0.091, so no
    magnitude fit can match the bundle within the recovery tolerance.
    """
    inv = heisenberg_invariants(generic_signal(6, 11))
    bm = inv.bm.copy()
    bm[2, 3] *= 1.1
    bm[3, 2] *= 1.1
    return HeisenbergInvariants(n=inv.n, bm=bm, bfm=inv.bfm, power_sum=inv.power_sum)


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


def _reference_residual(x, X, y, z):
    # each side's worst deviation, combined so that a nan on either side is kept
    time = max_relative_deviation(np.abs(x) ** 2, y)
    freq = max_relative_deviation(np.abs(X) ** 2, z)
    return float(np.max([time, freq]))


def _reference_projection(values, target_mags):
    # nearest point with prescribed magnitudes; zero values get phase 0
    mags = np.abs(values)
    unit = np.where(mags > 0, values / np.where(mags > 0, mags, 1.0), 1.0)
    return target_mags * unit


def reference_error_reduction(y, z, initial_phases, max_iterations, residual_target):
    """Reference loop: error reduction with the residual checked every iteration.

    `error_reduction` must return the same candidate bytes, residual and
    iteration count.
    """
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    n = len(y)
    forward = dft_matrix(n)
    backward = np.conj(forward) / n
    sqrt_y = np.sqrt(y)
    sqrt_z = np.sqrt(z)

    x = sqrt_y * np.exp(1j * np.asarray(initial_phases, dtype=np.float64))
    X = forward @ x
    residual = _reference_residual(x, X, y, z)
    iterations = 0
    while residual > residual_target and iterations < max_iterations:
        X = _reference_projection(X, sqrt_z)
        x = backward @ X
        x = _reference_projection(x, sqrt_y)
        X = forward @ x
        residual = _reference_residual(x, X, y, z)
        iterations += 1
    return x, residual, iterations


def reference_newton_magnitude_solve(
    y, z, initial_phases, max_iterations=60, residual_target=1e-10, _forward=None
):
    """Reference loop: Gauss-Newton with the normal equations rebuilt and the
    residual checked every iteration, one line-search trial at a time.

    `newton_magnitude_solve` must return the same candidate bytes, residual
    and iteration count.
    """
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    n = len(y)
    forward = dft_matrix(n) if _forward is None else _forward
    sqrt_y = np.sqrt(y)

    phi = np.asarray(initial_phases, dtype=np.float64).copy()
    damping = 1e-6
    x = sqrt_y * np.exp(1j * phi)
    X = forward @ x
    r = np.abs(X) ** 2 - z
    cost = float(np.linalg.norm(r))
    eye = np.eye(n)
    iterations = 0
    stalls = 0
    for iterations in range(1, max_iterations + 1):
        jac = -2.0 * (np.conj(X)[:, None] * forward * x[None, :]).imag
        lhs = jac.T @ jac + damping * eye
        rhs = -(jac.T @ r)
        try:
            delta = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError:
            break
        step = 1.0
        improved = False
        for _ in range(6):
            cand_phi = phi + step * delta
            cand_x = sqrt_y * np.exp(1j * cand_phi)
            cand_X = forward @ cand_x
            cand_r = np.abs(cand_X) ** 2 - z
            cand_cost = float(np.linalg.norm(cand_r))
            if cand_cost < cost:
                phi, x, X, r, cost = cand_phi, cand_x, cand_X, cand_r, cand_cost
                damping = max(damping * 0.3, 1e-12)
                improved = True
                break
            step *= 0.5
        if not improved:
            damping *= 10.0
            stalls += 1
            if damping > 1e8 or stalls > 8:
                break
        residual = _reference_residual(x, X, y, z)
        if residual <= residual_target:
            return x, residual, iterations
    return x, _reference_residual(x, X, y, z), iterations
