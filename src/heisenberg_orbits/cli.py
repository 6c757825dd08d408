"""Command-line interface.

Exit codes: 0 success, 1 verification negative, 2 input or format error,
3 any other package error (non-generic, degenerate or inconsistent input,
such as a bundle that no recovery start could pass, rejected before any
search), 4 a recovery search that accepted no start, whose report is still
written. All randomness flows from explicit seeds; outputs are
byte-identical across repeated runs unless --timing is requested. An
experiment trial counts as a success only when its recovery accepted a
candidate and the orbit oracle places it in the sampled truth's orbit.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import astuple
from functools import partial

import numpy as np

from .errors import HeisenbergOrbitError, InputFormatError, NonGenericInput, OrderMismatch
from .cyclic import degree_audit, recover_cyclic_orbit, recover_weighted, weighted_invariants
from .group import orbit_distance, within_orbit_tolerance
from .invariants import heisenberg_invariants, is_generic
from .phase_retrieval import PhaseRetrievalConfig
from .pipeline import recover_orbit, verify_against_truth
from .serialization import (
    ExperimentSpec,
    complex_vector_from_json,
    complex_vector_to_json,
    dump_json,
    experiment_spec_from_json,
    group_element_to_json,
    invariants_from_json,
    invariants_to_json,
    load_json,
    recovery_report_to_json,
    weighted_invariants_from_json,
    weighted_invariants_to_json,
)
from .spectral import DEFAULT_RECOVERY_TOL, sample_random_signal

EXIT_OK = 0
EXIT_VERIFY_NEGATIVE = 1
EXIT_INPUT_ERROR = 2
EXIT_DEGENERATE = 3
EXIT_NO_CONVERGENCE = 4

CSV_HEADER = [
    "n", "trial", "seed", "success", "orbit_distance", "restarts_used",
    "res_bm", "res_bfm", "res_pr", "res_phase", "res_final", "wall_ms",
]

_GENERIC_ATTEMPTS = 64


def _derived_seed(*entropy: int) -> int:
    # stable derivation for per-trial seeds; recorded in the CSV seed column
    return int(np.random.SeedSequence(list(entropy)).generate_state(1, np.uint64)[0])


def _sample_generic(n: int, base_seed: int, trial: int):
    for attempt in range(_GENERIC_ATTEMPTS):
        seed = _derived_seed(base_seed, n, trial, attempt)
        x = sample_random_signal(n, seed)
        if is_generic(x):
            return x, seed
    raise NonGenericInput(
        f"no generic sample found for n={n}, trial={trial} "
        f"after {_GENERIC_ATTEMPTS} attempts"
    )


def cmd_invariants(args) -> int:
    x = complex_vector_from_json(load_json(args.input))
    report = is_generic(x)
    if report.generic:
        print("generic: true", file=sys.stderr)
    else:
        print(
            "generic: false"
            f" (modulus side failures: {list(report.modulus_failures)},"
            f" fourier side failures: {list(report.fourier_modulus_failures)},"
            f" power sum vanishes: {str(report.power_sum_vanishes).lower()})",
            file=sys.stderr,
        )
    if args.require_generic and not report.generic:
        return EXIT_DEGENERATE
    dump_json(invariants_to_json(heisenberg_invariants(x)), args.output)
    return EXIT_OK


def cmd_recover(args) -> int:
    inv = invariants_from_json(load_json(args.input))
    pr_cfg = PhaseRetrievalConfig(max_restarts=args.max_restarts, seed=args.seed)
    report = recover_orbit(inv, pr_cfg, args.tol)
    dump_json(recovery_report_to_json(report), args.output)
    return EXIT_OK if report.success else EXIT_NO_CONVERGENCE


def cmd_verify(args) -> int:
    x = complex_vector_from_json(load_json(args.input))
    x2 = complex_vector_from_json(load_json(args.input2))
    dist, witness = orbit_distance(x, x2)
    equivalent = within_orbit_tolerance(dist, x, args.tol)
    print(f"distance: {dist:.12e}")
    print(f"witness: {group_element_to_json(witness)}")
    print(f"equivalent: {str(equivalent).lower()}")
    return EXIT_OK if equivalent else EXIT_VERIFY_NEGATIVE


def _format_cell(value) -> str:
    if isinstance(value, float):
        return "nan" if not np.isfinite(value) else f"{value:.12e}"
    return str(value)


def _experiment_row(spec: ExperimentSpec, n: int, trial: int) -> tuple[list, bool]:
    """One trial's CSV cells up to wall_ms, and whether it succeeded.

    A trial succeeds when its recovery accepted a candidate and that
    candidate lies in the sampled truth's orbit within the recovery tolerance.
    """
    try:
        x, seed = _sample_generic(n, spec.seed, trial)
        pr_cfg = PhaseRetrievalConfig(
            max_restarts=spec.max_restarts, seed=_derived_seed(spec.seed, n, trial, 7919)
        )
        report = recover_orbit(heisenberg_invariants(x), pr_cfg, spec.recovery_tol)
        in_orbit, dist, _ = verify_against_truth(report, x, spec.recovery_tol)
    except HeisenbergOrbitError as exc:
        print(f"trial n={n} t={trial} failed: {exc}", file=sys.stderr)
        nan = float("nan")
        return [n, trial, "", 0, nan, "", nan, nan, nan, nan, nan], False
    success = report.success and in_orbit
    return [
        n, trial, seed, int(success), dist,
        report.diagnostics["phase_retrieval"]["restarts_used"],
        *astuple(report.stage_residuals),  # in the order of the res_* columns
    ], success


def cmd_experiment(args) -> int:
    spec = experiment_spec_from_json(load_json(args.spec))
    summaries = []
    # opened before the first trial, so an unwritable path fails at once
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for n in spec.n_values:
            successes = 0
            for trial in range(spec.trials):
                start = time.perf_counter()
                row, success = _experiment_row(spec, n, trial)
                row.append((time.perf_counter() - start) * 1e3 if args.timing else 0)
                writer.writerow([_format_cell(v) for v in row])
                successes += success
            summaries.append(
                [n, "summary", "", f"{successes / spec.trials:.4f}", *[""] * 8]
            )
        for row in summaries:
            writer.writerow([_format_cell(v) for v in row])
    return EXIT_OK


def cmd_degree_audit(args) -> int:
    if args.max_n < 2:
        raise InputFormatError("--max-n must be at least 2")
    print("N\td\tcount")
    for order in range(2, args.max_n + 1):
        top = order + 1 if args.include_boundary else order
        for degree in range(1, top):
            print(f"{order}\t{degree}\t{degree_audit(order, degree)}")
    return EXIT_OK


def _convert_file(read, run, write, args) -> int:
    """Decode args.input with read, apply run, and encode to args.output with write."""
    dump_json(write(run(read(load_json(args.input)))), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heisenberg-orbits",
        description="Invariants and orbit recovery for the finite Heisenberg action on C^N.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="compute the invariant bundle of a vector")
    p.add_argument("input", help="ComplexVector JSON file")
    p.add_argument("output", help="invariant bundle JSON file to write")
    p.add_argument("--require-generic", action="store_true",
                   help="exit 3 instead of writing output for non-generic input")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("recover", help="reconstruct an orbit element from a bundle")
    p.add_argument("input", help="invariant bundle JSON file")
    p.add_argument("output", help="recovery report JSON file to write")
    p.add_argument("--seed", type=int, default=PhaseRetrievalConfig.seed)
    p.add_argument("--max-restarts", type=int, default=PhaseRetrievalConfig.max_restarts)
    p.add_argument("--tol", type=float, default=DEFAULT_RECOVERY_TOL,
                   help="recovery tolerance for the final invariant match")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("verify", help="test two vectors for orbit equivalence")
    p.add_argument("input", help="first ComplexVector JSON file")
    p.add_argument("input2", help="second ComplexVector JSON file")
    p.add_argument("--tol", type=float, default=DEFAULT_RECOVERY_TOL)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", help="Monte-Carlo recovery experiment to CSV")
    p.add_argument("spec", help="experiment spec JSON file")
    p.add_argument("output", help="CSV file to write")
    p.add_argument("--timing", action="store_true",
                   help="record real wall time per trial (breaks byte-identical reruns)")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("degree-audit", help="count weight-zero monomials by degree")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--include-boundary", action="store_true",
                   help="also print the degree = N column")
    p.set_defaults(func=cmd_degree_audit)

    p = sub.add_parser("cyclic", help="cyclic-group invariants and recovery")
    cyc = p.add_subparsers(dest="cyclic_command", required=True)
    for name, help_text, read, run, write in (
        ("weighted-invariants", "invariant chain of a weighted cyclic action",
         complex_vector_from_json, weighted_invariants, weighted_invariants_to_json),
        ("recover-weighted", "recover a vector from its invariant chain",
         weighted_invariants_from_json, recover_weighted, complex_vector_to_json),
        ("recover-regular", "recover a vector up to cyclic shift",
         complex_vector_from_json, recover_cyclic_orbit, complex_vector_to_json),
    ):
        q = cyc.add_parser(name, help=help_text)
        q.add_argument("input")
        q.add_argument("output")
        q.set_defaults(func=partial(_convert_file, read, run, write))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputFormatError, OrderMismatch, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except HeisenbergOrbitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
