"""Shared test helpers: sampling, zero padding, oracles and reference loops."""

import base64
import dataclasses
import itertools
import math

import numpy as np

from heisenberg_orbits import (
    GroupElement,
    HeisenbergInvariants,
    InconsistentInvariants,
    NonGenericInput,
    OrderMismatch,
    heisenberg_invariants,
    identity,
    is_generic,
    sample_random_signal,
)
from heisenberg_orbits.invariants import _canonical_triples
from heisenberg_orbits.spectral import (
    as_complex_vector,
    dft_matrix,
    max_relative_deviation,
    vanishing_coefficients,
)


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
    """Bundle of generic_signal(6, 11) with the whole orbit of bm[2, 3] scaled by 1.1.

    The orbit is the 12 positions of the frequency triple (1, 2, 3) and its
    negation (3, 4, 5), so a bundle file still holds the change. Its bm
    differs from the bispectrum of its own inversion by 0.091 (9.091e-02,
    about 1 - 1/1.1), so no magnitude fit can match the bundle within the
    recovery tolerance.
    """
    inv = heisenberg_invariants(generic_signal(6, 11))
    bm = inv.bm.copy()
    for i, j in itertools.permutations((1, 2, 3), 2):
        bm[i, j] *= 1.1
        bm[-i, -j] *= 1.1
    return HeisenbergInvariants.from_matrices(bm, inv.bfm, inv.power_sum)


def with_bm_entries(inv, matrix):
    """inv with bm_values read off matrix at the canonical triples.

    This is what a bundle file carries when it is edited to hold a matrix
    that no real bispectrum is, such as that of a complex vector, which
    from_matrices refuses because it differs within a symmetry orbit.
    """
    triples = _canonical_triples(inv.n)
    return dataclasses.replace(inv, bm_values=matrix[triples[0], triples[1]])


def bundle_orbit_values(obj, field):
    """The orbit values that field "bm" or "bfm" of a bundle object packs, as a new array."""
    return np.frombuffer(base64.b64decode(obj[field]["data"]), dtype="<c16").astype(complex)


def set_bundle_orbit_values(obj, field, values):
    """Pack values into field "bm" or "bfm" of a bundle object as little-endian complex128."""
    data = base64.b64encode(np.asarray(values, dtype="<c16").tobytes()).decode("ascii")
    obj[field] = {"dtype": "<c16", "data": data}


def _set_key(key, value):
    return lambda obj, field: obj[field].update({key: value})


def _edit_data(edit):
    return lambda obj, field: obj[field].update(data=edit(obj[field]["data"]))


def _edit_values(edit):
    return lambda obj, field: set_bundle_orbit_values(
        obj, field, edit(bundle_orbit_values(obj, field))
    )


# Ways a packed bispectrum field can be malformed: name -> edit(obj, field) of
# a valid bundle object in place. Each makes the bundle an input error.
MALFORMED_PACKED_FIELDS = {
    "missing-dtype": lambda obj, field: obj[field].pop("dtype"),
    "dtype-complex64": _set_key("dtype", "<c8"),
    "dtype-big-endian": _set_key("dtype", ">c16"),
    "data-list": _set_key("data", [0.0, 1.0]),
    "data-number": _set_key("data", 80),
    "data-null": _set_key("data", None),
    "non-alphabet": _edit_data(lambda data: "*" + data[1:]),
    "url-safe-alphabet": _edit_data(lambda data: "-" + data[1:]),
    "non-ascii": _edit_data(lambda data: "\u00e9" + data[1:]),
    "bad-padding": _edit_data(lambda data: data[:-1]),
    "one-value-short": _edit_values(lambda values: values[:-1]),
    "one-value-over": _edit_values(lambda values: np.append(values, values[0])),
    "half-value-over": _edit_data(
        lambda data: base64.b64encode(base64.b64decode(data) + bytes(8)).decode("ascii")
    ),
    "nan": _edit_values(lambda values: np.append(values[:-1], complex(np.nan, 0.0))),
    "inf": _edit_values(lambda values: np.append(values[:-1], complex(0.0, np.inf))),
    "minus-inf": _edit_values(lambda values: np.append(values[:-1], complex(-np.inf, 0.0))),
}


def reference_scatter(values, n):
    """Reference loop: the two-assignment scatter of canonical-triple values.

    The 6 ordered pairs of each negated triple get the conjugate, then the
    6 of each triple the value, so a triple that is its own negation holds
    the value as given. `invariants._scatter` must return the same bytes.
    """
    triples = _canonical_triples(n)
    out = np.empty((n, n), dtype=complex)
    for t, value in ((-triples % n, np.conj(values)), (triples, values)):
        for p, q in itertools.permutations(range(3), 2):
            out[t[p], t[q]] = value
    return out


# the realness threshold of the reference march, relative to a modulus
_REL_EQ = 1e-9


def reference_march(B) -> np.ndarray:
    """Reference march: steps 1-3 of `inversion`, frozen with its concatenations.

    `invert_bispectrum(B).spectrum` must hold the same bytes, and
    `invert_real_bispectrum(B)` those of `np.fft.ifft` of it, real part;
    every rejection but a non-finite squared magnitude raises the same
    class and message.
    """
    B = np.asarray(B, dtype=np.complex128)
    if B.ndim != 2 or B.shape[0] != B.shape[1] or not B.size or not np.isfinite(B).all():
        raise ValueError("expected a nonempty square matrix of finite entries")
    n = B.shape[0]

    b00 = complex(B[0, 0])
    if vanishing_coefficients(abs(b00) ** (1.0 / 3.0)).size:
        raise NonGenericInput("leading bispectrum entry is numerically zero")
    v0 = b00 / abs(b00) ** (2.0 / 3.0)

    power = B[:, 0] / v0
    mags = np.sqrt(np.maximum(power.real, 0.0))
    low = vanishing_coefficients(mags)
    if low.size:
        raise NonGenericInput(
            f"spectrum magnitudes at or below floor at indices {low.tolist()}"
        )
    not_real = np.flatnonzero(np.abs(power.imag) > _REL_EQ * np.abs(power))
    if not_real.size:
        raise InconsistentInvariants(
            f"squared-magnitude estimates are not real at indices {not_real.tolist()}"
        )

    # Bispectra of real vectors have structurally real entries (for example
    # row-one entries proportional to the zero-frequency coefficient), which
    # sit exactly on the +-pi branch cut when negative. Snapping near-real
    # values onto the axis keeps the canonical shift choice stable under
    # roundoff, so equal-up-to-shift inputs invert to the same representative.
    row = np.concatenate(([b00], B[1, 1:] if n > 1 else []))
    angles = np.where(
        np.abs(row.imag) <= _REL_EQ * np.abs(row),
        np.where(row.real >= 0, 0.0, np.pi),
        np.angle(row),
    )
    # d[j] holds d_{j+1} of step 3: d_1 = 0 and d_{k+1} = d_k - arg B[1, k]
    d = np.subtract.accumulate(np.concatenate(([0.0], angles[1:])))
    t = (angles[0] - d[-1]) / n

    spectrum = np.empty(n, dtype=np.complex128)
    spectrum[0] = v0
    spectrum[1:] = mags[1:] * np.exp(1j * (np.arange(1, n) * t + d[:-1]))
    return spectrum


def near_max_power_sum_signal(seed):
    """A generic N=8 vector of entries about 3e38 whose power sum is about 1e307.

    Five entries have 8th powers near the positive axis and three near the
    negative one, so the power sum partly cancels; the magnitude solutions
    of other classes mostly have power sums past the float range.
    """
    rng = np.random.default_rng(seed)
    signs = rng.permutation([0] * 5 + [1] * 3)
    phase = (np.pi * signs + rng.uniform(-0.05, 0.05, 8)) / 8 + 2 * np.pi * rng.integers(0, 8, 8) / 8
    return 3e38 * np.exp(1j * phase) * (1 + 0.05 * rng.standard_normal(8))


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

    The loop runs on x and x2 divided by 2**e, where the largest real or
    imaginary part of either lies in [2**(e-1), 2**e), and the distance is
    multiplied back by 2**e, so no norm overflows or flushes to zero short
    of the float range. `orbit_distance` must return the same distance float
    and witness.
    """
    x = as_complex_vector(x)
    x2 = as_complex_vector(x2)
    if len(x) != len(x2):
        raise OrderMismatch(f"dimensions differ: {len(x)} vs {len(x2)}")
    order = len(x)
    parts = np.concatenate((x.real, x.imag, x2.real, x2.imag))
    e = math.frexp(float(np.max(np.abs(parts))))[1]
    x, x2 = (np.ldexp(v.real, -e) + 1j * np.ldexp(v.imag, -e) for v in (x, x2))
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
    # a distance past the float range reads inf
    with np.errstate(over="ignore"):
        return float(np.ldexp(best_dist, e)), best_g


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
