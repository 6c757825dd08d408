"""Recover a vector from its entry magnitudes and Fourier magnitudes.

Both magnitude inputs carry squared moduli. Two local solvers share one
contract, (y_mag, z_mag, initial_phases, max_iterations, residual_target) ->
(candidate, residual, iterations): classical error reduction (alternating
projections between the two magnitude constraint sets) behind retrieve_phase,
and a damped Gauss-Newton solve on the phase torus whose multistart basins
are far better balanced across the several exact solution classes this data
admits. A magnitude fit determines the vector only up to a global unimodular
factor within its class; callers quotient that out with best_global_phase or
fix it with a phase-sensitive invariant, and must screen classes themselves
when the class matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentMagnitudes, OrderMismatch
from .spectral import (
    as_complex_vector,
    as_real_vector,
    dft,
    dft_matrix,
    max_relative_deviation,
)

__all__ = [
    "PhaseRetrievalConfig",
    "RecoveryReport",
    "check_energy_balance",
    "magnitudes_match",
    "best_global_phase",
    "error_reduction",
    "newton_magnitude_solve",
    "retrieve_phase",
]

ENERGY_BALANCE_TOL = 1e-6

# Gauss-Newton line search: step lengths 1, 1/2, ..., 1/32, tried in order
LINE_SEARCH_STEPS = 0.5 ** np.arange(6.0)


@dataclass(frozen=True)
class PhaseRetrievalConfig:
    """Search budget and seeding for the restarted magnitude searches.

    retrieve_phase reads every field: each restart runs error_reduction for
    at most max_iterations projections. recover_orbit reads max_restarts,
    residual_target and seed, and caps each of its Gauss-Newton starts at
    newton_magnitude_solve's default.
    """

    max_restarts: int = 50
    max_iterations: int = 2000
    residual_target: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.max_restarts < 1 or self.max_iterations < 1:
            raise ValueError("restart and iteration counts must be positive")
        if not self.residual_target > 0:
            raise ValueError("residual_target must be strictly positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of one retrieval: candidate, residual, and search effort."""

    candidate: np.ndarray
    residual: float
    restarts_used: int
    success: bool

    def __post_init__(self):
        if self.success and not np.isfinite(self.residual):
            raise ValueError("successful report must carry a finite residual")


def _validated_magnitudes(y_mag, z_mag):
    y = as_real_vector(y_mag)
    z = as_real_vector(z_mag)
    if len(y) != len(z):
        raise OrderMismatch(f"magnitude lengths differ: {len(y)} vs {len(z)}")
    if np.any(y < 0) or np.any(z < 0):
        raise InconsistentMagnitudes("squared magnitudes must be nonnegative")
    return y, z


def check_energy_balance(y_mag, z_mag):
    """Validate magnitude inputs and enforce sum(y) = sum(z)/N.

    Returns the validated pair; raises InconsistentMagnitudes when no signal
    can realize the data.
    """
    y, z = _validated_magnitudes(y_mag, z_mag)
    energy_time = float(np.sum(y))
    energy_freq = float(np.sum(z)) / len(y)
    scale = max(energy_time, energy_freq)
    if scale > 0 and abs(energy_time - energy_freq) > ENERGY_BALANCE_TOL * scale:
        raise InconsistentMagnitudes(
            f"energy balance violated: sum(y)={energy_time:.6e} vs sum(z)/N={energy_freq:.6e}"
        )
    return y, z


def magnitudes_match(x, y_mag, z_mag, tol: float) -> bool:
    """True iff |x|**2 matches y_mag and |dft(x)|**2 matches z_mag within tol.

    Deviations are relative with scale max(value, 1), the shared metric.
    """
    x = as_complex_vector(x)
    y, z = _validated_magnitudes(y_mag, z_mag)
    if len(x) != len(y):
        raise OrderMismatch(f"dimensions differ: {len(x)} vs {len(y)}")
    return _magnitude_residual(x, dft(x), y, z) <= tol


def _magnitude_residual(x, X, y, z) -> float:
    # worst relative mismatch of |x|**2 against y and of |X|**2 against z,
    # taken over both at once so that a nan on either side is kept
    return max_relative_deviation(
        np.concatenate((np.abs(x) ** 2, np.abs(X) ** 2)), np.concatenate((y, z))
    )


def best_global_phase(a, b) -> tuple[complex, float]:
    """Unimodular lam minimizing ||lam * a - b|| and the aligned distance.

    lam = <b, a> / |<b, a>| with <b, a> = sum_j b[j] * conj(a[j]); when the
    inner product vanishes any phase is optimal and lam = 1 is returned.
    """
    a = as_complex_vector(a)
    b = as_complex_vector(b)
    if len(a) != len(b):
        raise OrderMismatch(f"dimensions differ: {len(a)} vs {len(b)}")
    ip = complex(np.vdot(a, b))
    lam = ip / abs(ip) if abs(ip) > 0 else complex(1.0)
    return lam, float(np.linalg.norm(lam * a - b))


def _project_phases(values, target_mags):
    # nearest point with prescribed magnitudes; zero values get phase 0
    mags = np.abs(values)
    return target_mags * np.divide(values, mags, out=np.ones_like(values), where=mags > 0)


def _validated_start(y_mag, z_mag, initial_phases):
    y, z = _validated_magnitudes(y_mag, z_mag)
    phases = as_real_vector(initial_phases)
    if len(phases) != len(y):
        raise OrderMismatch(f"phase count differs from dimension: {len(phases)} vs {len(y)}")
    return y, z, phases


def _norm(v) -> float:
    # what np.linalg.norm computes for a real 1-D array, without its overhead
    return math.sqrt(v.dot(v))


def _residual_gate(z, t) -> float:
    # Both solvers skip the residual of an iterate with gate < ||r|| < inf,
    # r = |dft(x)|**2 - z, and no result changes, since its residual exceeds
    # t and is not nan. residual <= t < 1 bounds every |r_k| by
    # t / (1 - t) * max(z_k, 1), so past twice the norm of that bound (the
    # factor covers rounding) the frequency side alone exceeds t. Neither
    # side can be nan: a finite ||r|| keeps every |X_k|**2 finite, an
    # overflowing |x_j|**2 forces some |X_k|**2 (Parseval), and so ||r||, to
    # overflow, and a z that large makes the gate inf; a nan in x makes ||r||
    # nan. For t >= 1 or nan every iterate is checked.
    if t < 1:
        return 2.0 * t / (1.0 - t) * _norm(np.maximum(z, 1.0))
    return math.inf


def error_reduction(
    y_mag,
    z_mag,
    initial_phases,
    max_iterations: int,
    residual_target: float,
):
    """One projection run from given starting phases.

    Returns (candidate, residual, iterations) with residual in the shared
    max-relative metric, as newton_magnitude_solve does. The frequency-domain
    mismatch || |dft(x)| - sqrt(z_mag) || of successive iterates is
    non-increasing: each step projects onto the nearest point of one
    constraint set, so the distance to the other set cannot grow.

    The run stops at the first iterate whose residual is not above
    residual_target, and evaluates the residual only where _residual_gate
    allows that. On all-zero data the start already fits, so the run returns
    it at iteration 0 with residual 0.

    Raises OrderMismatch when the lengths of y_mag, z_mag and initial_phases
    differ and InconsistentMagnitudes on a negative magnitude.
    """
    y, z, phases = _validated_start(y_mag, z_mag, initial_phases)
    n = len(y)
    forward = dft_matrix(n)
    backward = np.conj(forward) / n
    sqrt_y = np.sqrt(y)
    sqrt_z = np.sqrt(z)
    gate = _residual_gate(z, residual_target)

    x = sqrt_y * np.exp(1j * phases)
    X = forward @ x
    iterations = 0
    while iterations < max_iterations:
        if not gate < _norm(np.abs(X) ** 2 - z) < math.inf:
            residual = _magnitude_residual(x, X, y, z)
            if not residual > residual_target:
                return x, residual, iterations
        X = _project_phases(X, sqrt_z)
        x = backward @ X
        x = _project_phases(x, sqrt_y)
        X = forward @ x
        iterations += 1
    return x, _magnitude_residual(x, X, y, z), iterations


def newton_magnitude_solve(
    y_mag,
    z_mag,
    initial_phases,
    max_iterations: int = 60,
    residual_target: float = 1e-10,
    _forward=None,
):
    """Damped Gauss-Newton solve for phases matching the frequency magnitudes.

    Parametrizes x = sqrt(y_mag) * exp(i*phi) (time magnitudes hold by
    construction) and drives |dft(x)|**2 - z_mag to zero. Multistart basins
    of this solver are far better balanced across the solution classes of
    the two-sided magnitude problem than those of the projection iteration,
    which can starve some classes almost completely; the pipeline relies on
    that balance to find the class consistent with the power-sum invariant.

    Returns (candidate, residual, iterations) with residual in the shared
    max-relative metric.

    The solve stops at the first iteration whose iterate has residual at
    most residual_target, and evaluates the residual only for an iterate not
    judged before (the start, or one a step has just reached) where
    _residual_gate allows that.

    Raises OrderMismatch when the lengths of y_mag, z_mag and initial_phases
    differ and InconsistentMagnitudes on a negative magnitude.
    """
    y, z, phi = _validated_start(y_mag, z_mag, initial_phases)
    n = len(y)
    forward = dft_matrix(n) if _forward is None else _forward
    sqrt_y = np.sqrt(y)
    gate = _residual_gate(z, residual_target)

    damping = 1e-6
    x = sqrt_y * np.exp(1j * phi)
    X = forward @ x
    r = np.abs(X) ** 2 - z
    cost = _norm(r)
    eye = np.eye(n)
    normal = None
    unchecked = True
    iterations = 0
    stalls = 0
    for iterations in range(1, max_iterations + 1):
        if normal is None:
            # d|X_k|^2 / d phi_j = 2*Re(conj(X_k) * i * F_kj * x_j)
            jac = -2.0 * (np.conj(X)[:, None] * forward * x[None, :]).imag
            normal = (jac.T @ jac, -(jac.T @ r))
        jtj, rhs = normal
        try:
            delta = np.linalg.solve(jtj + damping * eye, rhs)
        except np.linalg.LinAlgError:
            break
        # all trial phases and exponentials at once, elementwise as one trial
        # alone; one matvec per trial, since a matmul would round differently
        cand_phis = phi + LINE_SEARCH_STEPS[:, None] * delta
        cand_xs = sqrt_y * np.exp(1j * cand_phis)
        for cand_phi, cand_x in zip(cand_phis, cand_xs):
            cand_X = forward @ cand_x
            cand_r = np.abs(cand_X) ** 2 - z
            cand_cost = _norm(cand_r)
            if cand_cost < cost:
                phi, x, X, r, cost = cand_phi, cand_x, cand_X, cand_r, cand_cost
                damping = max(damping * 0.3, 1e-12)
                normal = None
                unchecked = True
                break
        else:
            damping *= 10.0
            stalls += 1
            if stalls > 8:
                break
        if unchecked and not gate < cost < math.inf:
            unchecked = False
            residual = _magnitude_residual(x, X, y, z)
            if residual <= residual_target:
                return x, residual, iterations
    return x, _magnitude_residual(x, X, y, z), iterations


def retrieve_phase(y_mag, z_mag, cfg: PhaseRetrievalConfig | None = None) -> RecoveryReport:
    """Search for a vector realizing both squared-magnitude vectors.

    Restart r draws fresh uniform phases from seed cfg.seed + r, so the whole
    search is reproducible. On success the candidate satisfies both
    constraints to cfg.residual_target; on exhaustion the best candidate is
    returned with success=False rather than raising. Success certifies a
    magnitude fit only: alignment with the source is expected only when the
    data determine the signal, e.g. magnitudes of a vector zero-padded to
    length at least 2N-1.

    Raises InconsistentMagnitudes when the energy balance
    sum(y_mag) = (1/N) * sum(z_mag) fails, since then no signal exists.
    """
    cfg = cfg if cfg is not None else PhaseRetrievalConfig()
    y, z = check_energy_balance(y_mag, z_mag)
    best = None
    for restart in range(cfg.max_restarts):
        rng = np.random.default_rng(cfg.seed + restart)
        phases = rng.uniform(0.0, 2.0 * np.pi, len(y))
        candidate, residual, _ = error_reduction(
            y, z, phases, cfg.max_iterations, cfg.residual_target
        )
        if residual <= cfg.residual_target:
            return RecoveryReport(candidate, residual, restart + 1, True)
        if best is None or residual < best[0]:
            best = (residual, candidate)
    residual, candidate = best
    return RecoveryReport(candidate, residual, cfg.max_restarts, False)
