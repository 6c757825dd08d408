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
from typing import ClassVar

import numpy as np

from .errors import InconsistentInvariants, OrderMismatch
from .spectral import (
    _consistent,
    _scaled_back,
    _unit_scaled,
    as_complex_vector,
    checked_integer,
    checked_tolerance,
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

# Gauss-Newton line search: step lengths 1, 1/2, ..., 1/32 as a column, tried in order
LINE_SEARCH_STEPS = 0.5 ** np.arange(6.0)[:, None]


@dataclass(frozen=True)
class PhaseRetrievalConfig:
    """Search budget and seeding for the restarted magnitude searches.

    retrieve_phase reads every field: each restart runs error_reduction for
    at most max_iterations projections. recover_orbit reads max_restarts
    and seed, and caps each of its Gauss-Newton starts at
    newton_magnitude_solve's default. residual_target is a class constant,
    not a field: both searches accept a start whose magnitude residual is at
    most it, and newton_magnitude_solve takes it as its default.

    Each field is an integer, else ValueError: max_restarts, max_iterations >= 1, seed >= 0.
    """

    residual_target: ClassVar[float] = 1e-10

    max_restarts: int = 50
    max_iterations: int = 2000
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("max_restarts", 1), ("max_iterations", 1), ("seed", 0)):
            object.__setattr__(self, name, checked_integer(getattr(self, name), minimum, name))


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of one retrieval; success means residual <= residual_target."""

    candidate: np.ndarray
    residual: float
    restarts_used: int

    @property
    def success(self) -> bool:
        return self.residual <= PhaseRetrievalConfig.residual_target


def _validated_magnitudes(y_mag, z_mag):
    y = as_complex_vector(y_mag, np.float64)
    z = as_complex_vector(z_mag, np.float64)
    if len(y) != len(z):
        raise OrderMismatch(f"magnitude lengths differ: {len(y)} vs {len(z)}")
    if np.any(y < 0) or np.any(z < 0):
        raise InconsistentInvariants("squared magnitudes must be nonnegative")
    return y, z


def check_energy_balance(y_mag, z_mag):
    """Validate magnitude inputs and enforce sum(y) = sum(z)/N.

    Returns the validated pair; raises InconsistentInvariants when no signal
    can realize the data. Both sums are taken in the power-of-two unit of
    _unit_scaled, with the largest entry in [1/2, 1), so neither overflows.
    """
    y, z = _validated_magnitudes(y_mag, z_mag)
    both, e = _unit_scaled(y, z)
    energy_time = float(np.sum(both[: len(y)]))
    energy_freq = float(np.sum(both[len(y) :])) / len(y)
    if not _consistent(energy_time, energy_freq):
        raise InconsistentInvariants(
            f"energy balance violated: sum(y)={_scaled_back(energy_time, e):.6e}"
            f" vs sum(z)/N={_scaled_back(energy_freq, e):.6e}"
        )
    return y, z


def magnitudes_match(x, y_mag, z_mag, tol: float) -> bool:
    """True iff |x|**2 matches y_mag and |dft(x)|**2 matches z_mag within tol.

    Deviations are relative with scale max(value, 1), the shared metric. A
    tol that fails checked_tolerance raises ValueError.
    """
    tol = checked_tolerance(tol)
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


def _validated_start(y_mag, z_mag, initial_phases, max_iterations):
    y, z = _validated_magnitudes(y_mag, z_mag)
    phases = as_complex_vector(initial_phases, np.float64)
    if len(phases) != len(y):
        raise OrderMismatch(f"phase count differs from dimension: {len(phases)} vs {len(y)}")
    return y, z, phases, checked_integer(max_iterations, 0, "max_iterations")


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
    differ, InconsistentInvariants on a negative magnitude, and ValueError
    unless max_iterations is an integer of at least 0.
    """
    y, z, phases, max_iterations = _validated_start(y_mag, z_mag, initial_phases, max_iterations)
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
    residual_target: float = PhaseRetrievalConfig.residual_target,
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
    _residual_gate allows that. The line-search trials of a step, and those of
    the rest of a run of rejected steps, are evaluated as one block each, with
    the results of the loop that tries one step length at a time.

    Raises OrderMismatch when the lengths of y_mag, z_mag and initial_phases
    differ, InconsistentInvariants on a negative magnitude, and ValueError
    unless max_iterations is an integer of at least 0.
    """
    y, z, phi, max_iterations = _validated_start(y_mag, z_mag, initial_phases, max_iterations)
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
    levels = 1
    while iterations < max_iterations:
        if normal is None:
            # d|X_k|^2 / d phi_j = 2*Re(conj(X_k) * i * F_kj * x_j)
            jac = -2.0 * (np.conj(X)[:, None] * forward * x[None, :]).imag
            normal = (jac.T @ jac, -(jac.T @ r))
        jtj, rhs = normal
        dampings = [damping]
        while len(dampings) < levels:
            dampings.append(dampings[-1] * 10.0)
        try:
            if levels == 1:
                deltas = np.linalg.solve(jtj + damping * eye, rhs)[None]
            else:
                # a (1, n, 1) view: with b.ndim == a.ndim both numpy 1.x and 2.x take
                # the matrix solve, which broadcasts it over the levels
                lhs = jtj + np.array(dampings)[:, None, None] * eye
                deltas = np.linalg.solve(lhs, rhs[None, :, None])[..., 0]
        except np.linalg.LinAlgError:
            if levels == 1:
                iterations += 1
                break
            # solve the ladder one level at a time, as the one-step loop does
            levels = 1
            continue
        # Every trial of the block at once, each rounding as it would alone: numpy
        # runs a stacked matrix @ column as one gemv per column (the 2-D matrix
        # product is one gemm, which rounds differently), a stacked row @ column
        # as one dot, and a stacked solve as one LU solve per matrix.
        cand_phis = phi + LINE_SEARCH_STEPS * deltas[:, None]
        cand_xs = sqrt_y * np.exp(1j * cand_phis)
        cand_Xs = (forward @ cand_xs[..., None])[..., 0]
        cand_rs = np.abs(cand_Xs) ** 2 - z
        cand_costs = np.sqrt((cand_rs[..., None, :] @ cand_rs[..., :, None])[..., 0, 0])
        # the first improving (level, step) in loop order; the levels before it were rejected
        level, step = divmod(int((cand_costs < cost).argmax()), len(LINE_SEARCH_STEPS))
        if cand_costs[level, step] < cost:
            phi, x, X = cand_phis[level, step], cand_xs[level, step], cand_Xs[level, step]
            r, cost = cand_rs[level, step], float(cand_costs[level, step])
            damping = max(dampings[level] * 0.3, 1e-12)
            stalls += level
            iterations += level + 1
            normal = None
            unchecked = True
            levels = 1
        else:
            damping = dampings[-1] * 10.0
            stalls += levels
            iterations += levels
            if stalls > 8:
                break
            # a rejection keeps the iterate, so the rest of the damping ladder is one block
            levels = min(9 - stalls, max_iterations - iterations)
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

    Raises InconsistentInvariants when the energy balance
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
            return RecoveryReport(candidate, residual, restart + 1)
        if best is None or residual < best[0]:
            best = (residual, candidate)
    residual, candidate = best
    return RecoveryReport(candidate, residual, cfg.max_restarts)
