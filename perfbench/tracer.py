"""Spans around the calls into each layer, recorded from outside the library.

The pipeline binds its helpers at import time (``from .phase_retrieval import
newton_magnitude_solve``), so a helper is wrapped where its caller looks it up
and restored afterwards. A span records its name, start, end, parent span and
op id; spans stay in memory until the run ends. A site that no longer exists
(after a refactor renames or batches a helper) is skipped with a warning, and
the metrics that need it are reported as absent instead of crashing the run.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

from heisenberg_orbits import (
    group,
    invariants,
    inversion,
    phase_retrieval,
    pipeline,
    serialization,
)


def _solver_attrs(fn) -> Callable:
    """Iterations and whether the call ended above its residual target.

    Both magnitude solvers return (candidate, residual, iterations, ...).
    """
    signature = inspect.signature(fn)

    def observe(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        target = bound.arguments["residual_target"]
        return {"iterations": int(result[2]), "stalled": bool(result[1] > target)}

    return observe


def _success_attrs(fn) -> Callable:
    return lambda args, kwargs, report: {"success": bool(report.success)}


# (module, attribute, span name, observer factory or None). The first group are
# the benchmark's own entry points, the rest the lookup sites inside the
# library. A span is named after the home module of the function it wraps.
NEWTON = "phase_retrieval.newton_magnitude_solve"
ER = "phase_retrieval.error_reduction"
RECOVER = "pipeline.recover_orbit"
POWER = "invariants.power_invariant"

SITES: tuple[tuple[Any, str, str, Callable | None], ...] = (
    (pipeline, "recover_orbit", RECOVER, _success_attrs),
    (pipeline, "verify_against_truth", "pipeline.verify_against_truth", None),
    (phase_retrieval, "retrieve_phase", "phase_retrieval.retrieve_phase", None),
    (phase_retrieval, "newton_magnitude_solve", NEWTON, _solver_attrs),
    (invariants, "heisenberg_invariants", "invariants.heisenberg_invariants", None),
    (serialization, "invariants_to_json", "serialization.invariants_to_json", None),
    (serialization, "invariants_from_json", "serialization.invariants_from_json", None),
    (inversion, "invert_real_bispectrum", "inversion.invert_real_bispectrum", None),
    (group, "orbit_distance", "group.orbit_distance", None),
    (pipeline, "newton_magnitude_solve", NEWTON, _solver_attrs),
    (pipeline, "invert_real_bispectrum", "inversion.invert_real_bispectrum", None),
    (pipeline, "heisenberg_invariants", "invariants.heisenberg_invariants", None),
    (pipeline, "power_invariant", POWER, None),
    (pipeline, "unitary_bispectrum", "invariants.unitary_bispectrum", None),
    (pipeline, "orbit_distance", "group.orbit_distance", None),
    (pipeline, "dft_matrix", "spectral.dft_matrix", None),
    (inversion, "unitary_bispectrum", "invariants.unitary_bispectrum", None),
    (phase_retrieval, "error_reduction", ER, _solver_attrs),
    (phase_retrieval, "dft_matrix", "spectral.dft_matrix", None),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int | None
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Installs span-recording wrappers at SITES; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self.missing: set[str] = set()  # span names with a site that no longer exists
        self.unobserved: set[str] = set()  # span names whose results could not be read
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self):
        for module, attr, name, attrs in SITES:
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.add(name)
                print(f"perfbench: warning: {module.__name__}.{attr} not found; "
                      f"metrics of {name} are absent", file=sys.stderr)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, attrs(fn) if attrs else None))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        return False

    def _wrap(self, fn, name, observe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if observe is not None:
                try:
                    span.attrs = observe(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    if name not in self.unobserved:
                        self.unobserved.add(name)
                        print(f"perfbench: warning: cannot read results of {name}; "
                              "its derived metrics are absent", file=sys.stderr)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def records(self) -> list[dict]:
        return [
            {
                "id": i,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                "error": s.error,
                **s.attrs,
            }
            for i, s in enumerate(self.spans)
        ]


# Per-layer metrics and units. Counts and times are per op of the traced pass;
# fractions are ratios over the whole pass.
PER_LAYER = (
    ("pipeline.recover_orbit.ms", "ms"),
    ("pipeline.recover_orbit.self_ms", "ms"),
    ("pipeline.starts", "count"),
    ("pipeline.converged", "count"),
    ("pipeline.converged_frac", "ratio"),
    ("pipeline.accept_frac", "ratio"),
    ("pipeline.power_rejected", "count"),
    ("pipeline.verify_rejected", "count"),
    ("pipeline.verify_against_truth.ms", "ms"),
    (f"{NEWTON}.calls", "count"),
    (f"{NEWTON}.ms", "ms"),
    (f"{NEWTON}.iterations", "count"),
    (f"{NEWTON}.stalled_ms", "ms"),
    (f"{ER}.calls", "count"),
    (f"{ER}.ms", "ms"),
    (f"{ER}.iterations", "count"),
    ("phase_retrieval.retrieve_phase.self_ms", "ms"),
    ("inversion.invert_real_bispectrum.calls", "count"),
    ("inversion.invert_real_bispectrum.ms", "ms"),
    ("inversion.invert_real_bispectrum.errors", "count"),
    ("invariants.heisenberg_invariants.calls", "count"),
    ("invariants.heisenberg_invariants.ms", "ms"),
    (f"{POWER}.calls", "count"),
    (f"{POWER}.ms", "ms"),
    ("invariants.unitary_bispectrum.calls", "count"),
    ("group.orbit_distance.calls", "count"),
    ("group.orbit_distance.ms", "ms"),
    ("serialization.invariants_to_json.ms", "ms"),
    ("serialization.invariants_from_json.ms", "ms"),
    ("serialization.bundle_bytes", "bytes"),
    ("spectral.dft_matrix.calls", "count"),
    ("trace.overhead_frac", "ratio"),
)

# Metrics that are exact counts: equal on every run of the same ops.
EXACT_COUNTS = (
    "pipeline.starts",
    "pipeline.converged",
    "pipeline.power_rejected",
    "pipeline.verify_rejected",
    f"{NEWTON}.iterations",
    f"{ER}.iterations",
    "invariants.unitary_bispectrum.calls",
    "serialization.bundle_bytes",
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, ops: int, bundle_bytes: float, overhead: float) -> dict:
    """Per-layer metric name -> value, or None when a needed site is missing."""
    spans = tracer.spans
    own = tracer.self_times()
    missing = tracer.missing | tracer.unobserved

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def of(name):
        return by_name.get(name, [])

    def per_op(value):
        return _ratio(value, ops)

    def ms(idx):
        return per_op(1e3 * sum(spans[i].end - spans[i].start for i in idx))

    def self_ms(idx):
        return per_op(1e3 * sum(own[i] for i in idx))

    newton, er, recover, power = of(NEWTON), of(ER), of(RECOVER), of(POWER)
    # The pipeline's counts cover only the starts made inside recover_orbit.
    in_recovery = set(recover)
    search = [i for i in newton if spans[i].parent in in_recovery]
    starts = len(search)
    converged = sum(1 for i in search if not spans[i].attrs.get("stalled", True))
    accepted = sum(1 for i in recover if spans[i].attrs.get("success"))
    # A converged start costs one power_invariant call when the power-sum
    # screen rejects it and two (candidate, then phase-fixed) when it passes.
    power_rejected = 2 * converged - len(power)
    verify_rejected = converged - power_rejected - accepted
    values = {
        "pipeline.recover_orbit.ms": ms(recover),
        "pipeline.recover_orbit.self_ms": self_ms(recover),
        "pipeline.starts": per_op(starts),
        "pipeline.converged": per_op(converged),
        "pipeline.converged_frac": _ratio(converged, starts),
        "pipeline.accept_frac": _ratio(accepted, converged),
        "pipeline.power_rejected": per_op(power_rejected),
        "pipeline.verify_rejected": per_op(verify_rejected),
        "pipeline.verify_against_truth.ms": ms(of("pipeline.verify_against_truth")),
        f"{NEWTON}.calls": per_op(len(newton)),
        f"{NEWTON}.ms": ms(newton),
        f"{NEWTON}.iterations": per_op(sum(spans[i].attrs.get("iterations", 0) for i in newton)),
        f"{NEWTON}.stalled_ms": ms([i for i in newton if spans[i].attrs.get("stalled")]),
        f"{ER}.calls": per_op(len(er)),
        f"{ER}.ms": ms(er),
        f"{ER}.iterations": per_op(sum(spans[i].attrs.get("iterations", 0) for i in er)),
        "phase_retrieval.retrieve_phase.self_ms": self_ms(of("phase_retrieval.retrieve_phase")),
        "inversion.invert_real_bispectrum.calls": per_op(len(of("inversion.invert_real_bispectrum"))),
        "inversion.invert_real_bispectrum.ms": ms(of("inversion.invert_real_bispectrum")),
        "inversion.invert_real_bispectrum.errors": per_op(
            sum(1 for i in of("inversion.invert_real_bispectrum") if spans[i].error)
        ),
        "invariants.heisenberg_invariants.calls": per_op(len(of("invariants.heisenberg_invariants"))),
        "invariants.heisenberg_invariants.ms": ms(of("invariants.heisenberg_invariants")),
        f"{POWER}.calls": per_op(len(power)),
        f"{POWER}.ms": ms(power),
        "invariants.unitary_bispectrum.calls": per_op(len(of("invariants.unitary_bispectrum"))),
        "group.orbit_distance.calls": per_op(len(of("group.orbit_distance"))),
        "group.orbit_distance.ms": ms(of("group.orbit_distance")),
        "serialization.invariants_to_json.ms": ms(of("serialization.invariants_to_json")),
        "serialization.invariants_from_json.ms": ms(of("serialization.invariants_from_json")),
        "serialization.bundle_bytes": bundle_bytes,
        "spectral.dft_matrix.calls": per_op(len(of("spectral.dft_matrix"))),
        "trace.overhead_frac": overhead,
    }
    needs = {
        "pipeline.starts": {NEWTON},
        "pipeline.converged": {NEWTON},
        "pipeline.converged_frac": {NEWTON},
        "pipeline.accept_frac": {NEWTON, RECOVER},
        "pipeline.power_rejected": {NEWTON, POWER},
        "pipeline.verify_rejected": {NEWTON, POWER, RECOVER},
    }
    return {
        name: None if needs.get(name, {name.rsplit(".", 1)[0]}) & missing else values[name]
        for name, _ in PER_LAYER
    }
