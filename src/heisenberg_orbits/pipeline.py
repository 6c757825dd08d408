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
   bundle, and after the phase fix below the full recomputed bundle must
   match within the recovery tolerance. Spurious classes almost surely
   fail the screen, so the first accepted candidate is the orbit class.
3. Fix the remaining global phase with the power-sum invariant: the ratio
   mu = bundle.power_sum / power_sum(candidate) has unit modulus for the
   orbit class, and multiplying by any N-th root of mu lands the candidate
   in the orbit. The principal root keeps the choice deterministic.
4. The final verification values (recomputed bundle against the input) are
   reported; success means the accepted candidate passed them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import PhaseUnresolvable
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
    ToleranceConfig,
    dft,
    dft_matrix,
    max_relative_deviation,
    principal_nth_root,
)

PHASE_RATIO_BAND = 1e-3
_NEWTON_ITERATIONS = 60


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
    tol: ToleranceConfig | None = None,
) -> OrbitRecoveryReport:
    """Reconstruct an orbit element from its invariant bundle.

    The magnitude search is a seeded multistart: start r draws its phases
    from seed pr_cfg.seed + r and runs at most 60 Gauss-Newton iterations.
    A converged start must pass two screens to be accepted: its power-sum
    magnitude matches the bundle within the consistency band, and after the
    global-phase fix the fully recomputed bundle matches within the recovery
    tolerance. The first accepted start wins. Rejections are counted per
    screen in diagnostics["phase_retrieval"], so callers can tell an
    exhausted budget from unsolvable or tampered data.

    Success is guaranteed only for bundles of generic vectors, and only with
    the probability that the multistart budget reaches the bundle-consistent
    solution class. When no start converges at all, a best-effort report
    with success=False is returned so batch experiments can record failure
    rates. PhaseUnresolvable is raised when starts converged but none passed
    the consistency screens within the budget, which is also how tampered
    bundles (power sum with the wrong magnitude) surface.
    """
    pr_cfg = pr_cfg if pr_cfg is not None else PhaseRetrievalConfig()
    tol = tol if tol is not None else ToleranceConfig()

    y = invert_real_bispectrum(inv.bm, floor=tol.genericity_floor, rel_eq=tol.rel_eq)
    res_bm = max_relative_deviation(inv.bm, unitary_bispectrum(dft(y)))
    z = invert_real_bispectrum(inv.bfm, floor=tol.genericity_floor, rel_eq=tol.rel_eq)
    res_bfm = max_relative_deviation(inv.bfm, unitary_bispectrum(dft(z)))

    y, z = check_energy_balance(y, z)
    n = len(y)
    forward = dft_matrix(n)
    best: tuple[float, np.ndarray, int] | None = None
    converged = power_rejected = verify_rejected = 0
    for start in range(pr_cfg.max_restarts):
        rng = np.random.default_rng(pr_cfg.seed + start)
        phases = rng.uniform(0.0, 2.0 * np.pi, n)
        candidate, residual, iterations = newton_magnitude_solve(
            y,
            z,
            phases,
            max_iterations=_NEWTON_ITERATIONS,
            residual_target=pr_cfg.residual_target,
            _forward=forward,
        )
        if best is None or residual < best[0]:
            best = (residual, candidate, iterations)
        if residual > pr_cfg.residual_target:
            continue
        converged += 1
        base = power_invariant(candidate)
        if abs(base) <= tol.genericity_floor:
            power_rejected += 1
            continue
        ratio = inv.power_sum / base
        if abs(abs(ratio) - 1.0) > PHASE_RATIO_BAND:
            power_rejected += 1
            continue
        lam = principal_nth_root(ratio, n, floor=tol.genericity_floor)
        fixed = lam * candidate
        fix_residual = abs(power_invariant(fixed) - inv.power_sum) / max(
            abs(inv.power_sum), 1.0
        )
        match = invariant_distance(heisenberg_invariants(fixed), inv)
        if match > tol.recovery_tol:
            verify_rejected += 1
            continue
        accepted, candidate = True, fixed
        phase_fix = {"ratio_modulus": abs(ratio), "residual": fix_residual}
        break
    else:
        if converged > 0:
            raise PhaseUnresolvable(
                f"{converged} magnitude solutions found in "
                f"{pr_cfg.max_restarts} starts, none consistent with the invariant "
                "bundle; the bundle is inconsistent or the budget too small"
            )
        accepted, fix_residual, phase_fix = False, math.nan, {"skipped": True}
        residual, candidate, iterations = best
        match = invariant_distance(heisenberg_invariants(candidate), inv)

    diagnostics: dict[str, Any] = {
        "bm_inversion": {"residual": res_bm},
        "bfm_inversion": {"residual": res_bfm},
        "phase_retrieval": {
            "method": "newton-multistart",
            "converged": accepted,
            "residual": residual,
            "restarts_used": start + 1,
            "iterations_last": iterations,
            "converged_starts": converged,
            "power_rejected": power_rejected,
            "verify_rejected": verify_rejected,
        },
        "phase_fix": phase_fix,
        "verification": {"invariant_distance": match, "tolerance": tol.recovery_tol},
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
