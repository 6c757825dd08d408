"""Benchmark workloads: seeded inputs, one timed op each, and the op's check.

Every op calls the library through module attributes (``pipeline.recover_orbit``
rather than a name bound at import time), so the tracer can wrap the same
lookup sites the library's own callers use.

A check returns True for a solved op and False for an unsolved one (the
recovery budget ran out, or the solver reported failure). A result that the
check proves wrong raises CorrectnessError: a false accept must stop the run,
never be scored as a slow op.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from heisenberg_orbits import (
    errors,
    group,
    invariants,
    inversion,
    phase_retrieval,
    pipeline,
    serialization,
    spectral,
)

# The acceptance suite's bounds: c03/c04 for inversion round trips up to a
# cyclic shift, c06 for the orbit oracle. None is loosened here.
INVERSION_TOL = 1e-8
ORBIT_TOL = 1e-6


class CorrectnessError(Exception):
    """A result the workload's check proves wrong."""


def generic_signal(n: int, seed: int) -> np.ndarray:
    """First generic sample at or after ``seed``, drawn as the test suite draws."""
    for attempt in range(64):
        x = spectral.sample_random_signal(n, seed + 1_000_003 * attempt)
        if invariants.is_generic(x, spectral.DEFAULT_GENERICITY_FLOOR):
            return x
    raise RuntimeError(f"no generic sample near seed {seed} for n={n}")


def min_shift_distance(reference, candidate) -> float:
    """Min over cyclic shifts s of ||candidate - roll(reference, -s)||."""
    return min(
        float(np.linalg.norm(candidate - np.roll(reference, -s)))
        for s in range(len(reference))
    )


@dataclass(frozen=True)
class Outcome:
    solved: bool
    bundle_bytes: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: tuple[int, ...]  # N cycles through these in input order
    pool: int  # inputs made per run; the loop wraps round if it runs out
    tail_percentile: float  # leaves at least ten ops beyond it at run_seconds
    make_input: Callable[[int, np.random.Generator], Any]
    run: Callable[[Any], Any]  # the timed op
    check: Callable[[Any, Any], Outcome]  # untimed


def make_inputs(workload: Workload, seed: int, count: int | None = None) -> list:
    """The workload's inputs for ``seed``; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, sum(map(ord, workload.name))])
    count = workload.pool if count is None else count
    sizes = workload.sizes
    return [workload.make_input(sizes[i % len(sizes)], rng) for i in range(count)]


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


# -- recovery: recover_orbit on a bundle, then verify_against_truth ----------


def _recovery_input(n, rng):
    x = generic_signal(n, _seed(rng))
    return x, invariants.heisenberg_invariants(x), _seed(rng)


def _recover(budget):
    def run(inp):
        x, bundle, start_seed = inp
        cfg = phase_retrieval.PhaseRetrievalConfig(seed=start_seed, max_restarts=budget)
        try:
            report = pipeline.recover_orbit(bundle, cfg)
        except errors.HeisenbergOrbitError:
            return None
        if not report.success:
            return None
        return pipeline.verify_against_truth(report, x, ORBIT_TOL)

    return run


def _check_recovery(inp, verdict) -> Outcome:
    if verdict is None:
        return Outcome(False)
    equivalent, dist, _ = verdict
    if not equivalent:
        raise CorrectnessError(
            f"false accept at N={len(inp[0])}: success=True but orbit distance {dist:.3e}"
        )
    return Outcome(True)


# -- magnitude-fit: restarted error reduction on |x|^2 and |dft(x)|^2 ---------

_FIT_CFG = dict(max_restarts=50, max_iterations=2000)  # the c05 budgets


def _fit_input(n, rng):
    x = generic_signal(n, _seed(rng))
    return (
        invariants.modulus_vector(x),
        invariants.fourier_modulus_vector(x),
        _seed(rng),
    )


def _fit(inp):
    y, z, start_seed = inp
    return phase_retrieval.retrieve_phase(
        y, z, phase_retrieval.PhaseRetrievalConfig(seed=start_seed, **_FIT_CFG)
    )


def _check_fit(inp, report) -> Outcome:
    # Alignment with the source is not asked for: c05 fails by design.
    y, z, _ = inp
    target = phase_retrieval.PhaseRetrievalConfig().residual_target
    return Outcome(
        report.success and phase_retrieval.magnitudes_match(report.candidate, y, z, target)
    )


# -- newton-start: one seeded Gauss-Newton start, the unit a recovery repeats --

# Slack between the solver's reported residual and the one recomputed here
# with the FFT; both are max-relative deviations of the same candidate.
RESIDUAL_AGREEMENT = 1e-12


def _start_input(n, rng):
    x = generic_signal(n, _seed(rng))
    phases = rng.uniform(0.0, 2.0 * np.pi, n)  # as recover_orbit draws a start
    return invariants.modulus_vector(x), invariants.fourier_modulus_vector(x), phases


def _newton_start(inp):
    y, z, phases = inp
    return phase_retrieval.newton_magnitude_solve(y, z, phases)


def _check_start(inp, result) -> Outcome:
    # A start that stalls is an expected outcome, not a failed op; a start
    # whose reported residual is not its candidate's is a wrong result.
    y, z, _ = inp
    candidate, residual = result[0], result[1]
    actual = max(
        spectral.max_relative_deviation(np.abs(candidate) ** 2, y),
        spectral.max_relative_deviation(np.abs(np.fft.fft(candidate)) ** 2, z),
    )
    if not abs(residual - actual) <= RESIDUAL_AGREEMENT:
        raise CorrectnessError(
            f"Newton start at N={len(y)} reports residual {residual:.3e}, "
            f"its candidate has {actual:.3e}"
        )
    return Outcome(True)


# -- bundle-oracle: bundle, JSON round trip, both inversions, orbit oracle ----


def _oracle_input(n, rng):
    x = generic_signal(n, _seed(rng))
    k, mod, m = (int(v) for v in rng.integers(0, n, 3))
    return x, group.GroupElement(n, k, mod, m)


def _bundle_oracle(inp):
    x, g = inp
    bundle = invariants.heisenberg_invariants(x)
    text = json.dumps(serialization.invariants_to_json(bundle))
    decoded = serialization.invariants_from_json(json.loads(text))
    try:
        y = inversion.invert_real_bispectrum(decoded.bm)
        z = inversion.invert_real_bispectrum(decoded.bfm)
    except errors.HeisenbergOrbitError:
        y = z = None
    dist, _ = group.orbit_distance(x, group.act(g, x))
    return bundle, decoded, len(text.encode()), y, z, dist


def _check_bundle_oracle(inp, result) -> Outcome:
    x, g = inp
    bundle, decoded, nbytes, y, z, dist = result
    n = len(x)
    if dist > ORBIT_TOL * max(float(np.linalg.norm(x)), 1.0):
        raise CorrectnessError(f"orbit oracle misses c06 at N={n}: distance {dist:.3e} to {g}")
    if y is None:
        return Outcome(False, nbytes)
    for name, truth, recovered in (
        ("bm", invariants.modulus_vector(x), y),
        ("bfm", invariants.fourier_modulus_vector(x), z),
    ):
        err = min_shift_distance(truth, recovered) / float(np.linalg.norm(truth))
        if err > INVERSION_TOL:
            raise CorrectnessError(f"{name} inversion misses c03/c04 at N={n}: {err:.3e}")
    exact = (
        np.array_equal(decoded.bm, bundle.bm)
        and np.array_equal(decoded.bfm, bundle.bfm)
        and decoded.power_sum == bundle.power_sum
    )
    return Outcome(exact, nbytes)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="recover-small",
            sizes=(4, 5, 6, 8),
            pool=1500,
            tail_percentile=98.0,
            make_input=_recovery_input,
            run=_recover(4000),  # the c06 budget
            check=_check_recovery,
        ),
        Workload(
            name="recover-large",
            sizes=(10, 12),
            pool=200,
            tail_percentile=75.0,
            make_input=_recovery_input,
            run=_recover(1000),
            check=_check_recovery,
        ),
        Workload(
            name="bundle-oracle",
            sizes=(16, 32, 64),
            pool=1500,
            tail_percentile=97.0,
            make_input=_oracle_input,
            run=_bundle_oracle,
            check=_check_bundle_oracle,
        ),
        Workload(
            name="newton-start",
            sizes=(8, 10, 12),
            pool=1500,
            tail_percentile=99.0,
            make_input=_start_input,
            run=_newton_start,
            check=_check_start,
        ),
        Workload(
            name="magnitude-fit",
            sizes=(4, 6, 8),
            pool=200,
            tail_percentile=75.0,
            make_input=_fit_input,
            run=_fit,
            check=_check_fit,
        ),
    )
}
