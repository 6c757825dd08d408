"""Recovery of a vector, up to cyclic shift, from its bispectrum.

The inversion marches along frequencies. Writing B for the input matrix and
V for the unknown spectrum:

1. B[0, 0] = |V[0]|**2 * V[0], so |V[0]| = |B[0, 0]|**(1/3) and
   V[0] = B[0, 0] / |B[0, 0]|**(2/3); the magnitude and phase are separated
   here on purpose, avoiding the branch ambiguity of a complex cube root.
2. B[k, 0] = |V[k]|**2 * V[0] gives every magnitude as
   |V[k]| = sqrt(B[k, 0] / V[0]). The magnitudes must pass the genericity rule
   of `is_generic` (a non-positive quotient counts as a vanishing magnitude),
   and each quotient must be real, or no spectrum has this bispectrum.
3. arg B[1, k] = phi_1 + phi_k - phi_{k+1} turns every phase into
   phi_k = k * t + d_k with d_k accumulated from row B[1, .] and t = phi_1
   unknown; the wrap-around constraint phi_N = phi_0 (mod 2*pi) restricts t
   to N candidates that differ by 2*pi/N, exactly the cyclic-shift freedom.
   The canonical choice takes the m = 0 candidate.
4. Only row B[1, .] is consumed as data; `invert_bispectrum` replays every
   other entry into its residual. `invert_real_bispectrum` returns the
   signal alone and never computes that replay, since `recover_orbit`
   replays the inverted vectors itself, after clipping them at 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentInvariants, NonGenericInput
from .invariants import unitary_bispectrum
from .spectral import idft, max_relative_deviation, vanishing_coefficients

__all__ = [
    "InversionResult",
    "invert_bispectrum",
    "invert_real_bispectrum",
]

# a value whose imaginary part is at most this fraction of its modulus (of
# the signal's norm, for a recovered signal) counts as real
_REL_EQ = 1e-9


@dataclass(frozen=True)
class InversionResult:
    """Recovered spectrum, its inverse transform, and the replay residual."""

    spectrum: np.ndarray
    signal: np.ndarray
    residual: float


def _march(B) -> np.ndarray:
    """Steps 1-3 of the module docstring: the canonical spectrum with bispectrum B.

    Raises the errors that invert_bispectrum documents.
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


def invert_bispectrum(B) -> InversionResult:
    """Invert a bispectrum matrix to a canonical cyclic-shift representative.

    Parameters
    ----------
    B : (N, N) complex array
        Bispectrum of some spectrum with nonvanishing entries.

    Returns
    -------
    InversionResult
        The recovered signal is cyclic-shift-equivalent to any vector whose
        bispectrum equals B.

    Raises
    ------
    ValueError
        If B is not a nonempty square matrix of finite entries.
    NonGenericInput
        If |V[0]| or any magnitude estimate is at or below
        DEFAULT_GENERICITY_FLOOR.
    InconsistentInvariants
        If a squared-magnitude estimate is not real within 1e-9 of its modulus.
    """
    B = np.asarray(B, dtype=np.complex128)
    spectrum = _march(B)
    residual = max_relative_deviation(B, unitary_bispectrum(spectrum))
    return InversionResult(spectrum=spectrum, signal=idft(spectrum), residual=residual)


def invert_real_bispectrum(B) -> np.ndarray:
    """Invert the bispectrum of a real vector; returns the real signal.

    The signal is invert_bispectrum(B).signal.real bit for bit, but the
    replay residual is never computed: callers that want one replay the
    signal they keep. Raises InconsistentInvariants when the recovered
    signal carries an imaginary residue above 1e-9 * ||signal||, which
    means the input was not the bispectrum of any real vector. Every error
    of invert_bispectrum is raised on the same inputs, with the same message.
    """
    signal = idft(_march(B))
    residue = float(np.max(np.abs(signal.imag)))
    if residue > _REL_EQ * float(np.linalg.norm(signal)):
        raise InconsistentInvariants(
            f"imaginary residue {residue:.3e} too large for a real-vector bispectrum"
        )
    return signal.real
