"""End-to-end orbit recovery from an invariant bundle alone.

Stages:

1. Invert both bispectra, giving the squared-modulus vector and the
   squared-Fourier-modulus vector, each as some cyclic-shift representative.
   Any pair of representatives is jointly realized by an orbit element
   (a time shift permutes one vector, a modulation the other), so no
   shift-alignment search is needed.
2. Search for a vector realizing both squared-magnitude vectors. The
   two-sided magnitude data admits several isolated solution classes (each
   a circle of global phases), of which exactly one is the orbit class;
   the search therefore runs a seeded Gauss-Newton multistart and screens
   every converged candidate: its power-sum magnitude must match the
   bundle's (one that vanishes or overflows fails), and after the phase fix
   below the full recomputed bundle must match within the recovery
   tolerance. The first accepted candidate is returned. The screen does
   not reject every spurious class: a scan of 12,800 seeded recoveries at
   N 6 and 8 accepted an exact magnitude solution from another class twice
   (both at N=6); selecting the class by mixed invariants is an open
   ROADMAP item.
3. Fix the remaining global phase with the power-sum invariant: the ratio
   mu = bundle.power_sum / power_sum(candidate) has unit modulus for the
   orbit class, and multiplying by any N-th root of mu lands the candidate
   in the orbit. The root is taken of mu / |mu|, so it only rotates the
   candidate: a root of modulus |mu|**(1/N) would rescale a wrong class
   until its power sum matched the bundle. The principal root keeps the
   choice deterministic.
4. The final verification values (recomputed bundle against the input) are
   reported; success means the accepted candidate passed them. Every search
   ends in a report: one that accepts no start returns its lowest-residual
   start with success=False, and its counts say whether starts converged
   and which screen rejected them. Only stage 1 raises: without its
   magnitude vectors no search can run, and it also rejects a bundle that
   no start could pass, one whose bispectra disagree with their own
   inversions beyond the recovery tolerance or whose power sum vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import InconsistentInvariants, NonGenericInput
from .group import GroupElement, orbit_distance, within_orbit_tolerance
from .invariants import (
    HeisenbergInvariants,
    heisenberg_invariants,
    invariant_distance,
    power_invariant,
    unitary_bispectrum,
)
from .inversion import invert_real_bispectrum
from .phase_retrieval import (
    PhaseRetrievalConfig,
    check_energy_balance,
    newton_magnitude_solve,
)
from .spectral import (
    DEFAULT_GENERICITY_FLOOR,
    DEFAULT_RECOVERY_TOL,
    _consistent,
    checked_tolerance,
    dft,
    dft_matrix,
    max_relative_deviation,
    principal_nth_root,
    vanishing_coefficients,
)

__all__ = [
    "StageResiduals",
    "OrbitRecoveryReport",
    "recover_orbit",
    "verify_against_truth",
]

PHASE_RATIO_BAND = 1e-3


@dataclass(frozen=True)
class StageResiduals:
    """Per-stage residuals of one recovery attempt; nan marks a skipped stage."""

    bm_inversion: float
    bfm_inversion: float
    phase_retrieval: float
    phase_fix: float
    invariant_match: float


@dataclass(frozen=True)
class OrbitRecoveryReport:
    """Recovery outcome: candidate vector, residual trail, and diagnostics."""

    candidate: np.ndarray
    stage_residuals: StageResiduals
    success: bool
    diagnostics: dict[str, Any]

    def __post_init__(self):
        if self.success and not math.isfinite(self.stage_residuals.invariant_match):
            raise ValueError("successful report must carry a finite verification residual")


def recover_orbit(
    inv: HeisenbergInvariants,
    pr_cfg: PhaseRetrievalConfig | None = None,
    recovery_tol: float = DEFAULT_RECOVERY_TOL,
) -> OrbitRecoveryReport:
    """Reconstruct an orbit element from its invariant bundle.

    The magnitude search is a seeded multistart: start r draws its phases
    from seed pr_cfg.seed + r and runs newton_magnitude_solve under its
    default iteration cap. A converged start must pass two screens to be
    accepted: its power sum matches the bundle's in modulus within the
    relative band PHASE_RATIO_BAND of the larger (spectral's consistency
    rule, so one that vanishes or overflows fails), and after the
    global-phase fix the fully recomputed bundle matches within
    recovery_tol. The first accepted start wins. The phase fix takes the
    principal N-th root of the unit-modulus ratio mu / |mu|, so it cannot
    raise whatever the tolerance is.

    The report keeps each number once. stage_residuals holds one residual
    per stage (nan for a phase fix that never ran) and success says whether
    a start was accepted. diagnostics holds the rest: "phase_retrieval"
    counts the starts used and the rejections per screen, so callers can
    tell an exhausted budget from unsolvable or tampered data, and gives the
    iteration count of the candidate's start; "phase_fix" gives the accepted
    start's |power-sum ratio| (None when no start was accepted);
    "verification" gives the recovery tolerance.

    Success is guaranteed only for bundles of generic vectors, and only with
    the probability that the multistart budget reaches the bundle-consistent
    solution class. At N = 2 success does not place the candidate in the
    source orbit: reversal is then the identity, so x and
    exp(i arg power_sum) * conj(x) share the whole bundle yet lie in
    different orbits (half of 40 seeded recoveries landed in the other
    one). A search that accepts no start returns a best-effort
    report with success=False: the lowest-residual start as candidate, a nan
    phase fix, ratio_modulus None, and an infinite invariant_match if the
    candidate's power sum is past the float range. Its counts tell the
    failures apart: converged_starts 0 means no start converged, and otherwise
    power_rejected and verify_rejected say which screen rejected the
    converged starts, which is how a budget too small for the orbit class
    and a tampered bundle (power sum with the wrong magnitude) surface.
    A recovery_tol that is not finite and strictly positive raises
    ValueError on entry (checked_tolerance). Otherwise only stage 1 raises,
    before the first start, and with one class per cause. NonGenericInput:
    a magnitude in a bispectrum inversion, or |power_sum|, is at or below
    DEFAULT_GENERICITY_FLOOR, so no inversion or phase fix exists.
    InconsistentInvariants: no signal has the bundle, because a bispectrum
    is not that of a real vector, the inverted vectors clipped at 0 break
    the energy balance, or res_bm or res_bfm exceeds recovery_tol (every
    start's bispectra would then miss the bundle's in the final match).
    """
    pr_cfg = pr_cfg if pr_cfg is not None else PhaseRetrievalConfig()
    recovery_tol = checked_tolerance(recovery_tol)

    # an exact zero of |x_j|**2 or |dft(x)_k|**2 can invert to about -1e-16;
    # the replays judge the clipped vectors that the search uses
    bm, bfm = inv.bm, inv.bfm
    y = np.maximum(invert_real_bispectrum(bm), 0.0)
    res_bm = max_relative_deviation(bm, unitary_bispectrum(dft(y)))
    z = np.maximum(invert_real_bispectrum(bfm), 0.0)
    res_bfm = max_relative_deviation(bfm, unitary_bispectrum(dft(z)))

    y, z = check_energy_balance(y, z)
    if max(res_bm, res_bfm) > recovery_tol:
        raise InconsistentInvariants(
            f"bispectra differ from those of their inversions by "
            f"{max(res_bm, res_bfm):.3e}, above the recovery tolerance {recovery_tol:.3e}"
        )
    if vanishing_coefficients(inv.power_sum).size:
        raise NonGenericInput(
            f"power sum {abs(inv.power_sum):.3e} in modulus is at or below the "
            f"genericity floor {DEFAULT_GENERICITY_FLOOR:.3e}"
        )
    n = len(y)
    forward = dft_matrix(n)
    best: tuple[float, np.ndarray, int] | None = None
    converged = power_rejected = verify_rejected = 0
    for start in range(pr_cfg.max_restarts):
        rng = np.random.default_rng(pr_cfg.seed + start)
        phases = rng.uniform(0.0, 2.0 * np.pi, n)
        candidate, residual, iterations = newton_magnitude_solve(
            y, z, phases, residual_target=pr_cfg.residual_target, _forward=forward
        )
        if best is None or residual < best[0]:
            best = (residual, candidate, iterations)
        if residual > pr_cfg.residual_target:
            continue
        converged += 1
        base = power_invariant(candidate)
        if not _consistent(inv.power_sum, base, PHASE_RATIO_BAND):
            power_rejected += 1
            continue
        ratio = inv.power_sum / base
        lam = principal_nth_root(ratio / abs(ratio), n)
        fixed = lam * candidate
        fix_residual = abs(power_invariant(fixed) - inv.power_sum) / max(abs(inv.power_sum), 1.0)
        match = invariant_distance(heisenberg_invariants(fixed), inv)
        if match > recovery_tol:
            verify_rejected += 1
            continue
        accepted, candidate, ratio_modulus = True, fixed, abs(ratio)
        break
    else:
        accepted, fix_residual, ratio_modulus = False, math.nan, None
        residual, candidate, iterations = best
        try:
            match = invariant_distance(heisenberg_invariants(candidate), inv)
        except ValueError:  # the candidate's power sum is past the float range
            match = math.inf

    # a number that stage_residuals or success already holds stays out of here
    diagnostics: dict[str, Any] = {
        "phase_retrieval": {
            "restarts_used": start + 1,
            "iterations_last": iterations,
            "converged_starts": converged,
            "power_rejected": power_rejected,
            "verify_rejected": verify_rejected,
        },
        "phase_fix": {"ratio_modulus": ratio_modulus},
        "verification": {"tolerance": recovery_tol},
    }
    return OrbitRecoveryReport(
        candidate=candidate,
        stage_residuals=StageResiduals(
            bm_inversion=res_bm,
            bfm_inversion=res_bfm,
            phase_retrieval=residual,
            phase_fix=fix_residual,
            invariant_match=match,
        ),
        success=accepted,
        diagnostics=diagnostics,
    )


def verify_against_truth(
    report: OrbitRecoveryReport, x_true, tol: float
) -> tuple[bool, float, GroupElement]:
    """Check a recovery against a known ground truth with the orbit oracle."""
    dist, witness = orbit_distance(x_true, report.candidate)
    return within_orbit_tolerance(dist, x_true, tol), dist, witness
