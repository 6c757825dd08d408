"""Command-line interface.

Exit codes: 0 success, 1 verification negative, 2 input or format error,
3 non-generic or degenerate input, 4 convergence failure. All randomness
flows from explicit seeds; outputs are byte-identical across repeated runs
unless --timing is requested.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    HeisenbergOrbitError,
    InconsistentInvariants,
    InconsistentMagnitudes,
    InputFormatError,
    NonGenericInput,
    NotRealSignal,
    OrderMismatch,
    PhaseUnresolvable,
    ZeroInput,
)
from .cyclic import degree_audit, recover_cyclic_orbit, recover_weighted, weighted_invariants
from .group import orbit_distance, within_orbit_tolerance
from .invariants import heisenberg_invariants, is_generic
from .phase_retrieval import PhaseRetrievalConfig
from .pipeline import recover_orbit, verify_against_truth
from .serialization import (
    complex_vector_from_json,
    complex_vector_to_json,
    dump_json,
    group_element_to_json,
    invariants_from_json,
    invariants_to_json,
    load_json,
    recovery_report_to_json,
    weighted_invariants_from_json,
    weighted_invariants_to_json,
)
from .spectral import (
    DEFAULT_GENERICITY_FLOOR,
    DEFAULT_RECOVERY_TOL,
    ToleranceConfig,
    sample_random_signal,
)

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

# Keys an experiment spec may set, each with its type; omitted keys take the
# config defaults, and pr_config's seed defaults to the spec seed.
_PR_CONFIG_KEYS = {"max_restarts": int, "residual_target": float, "seed": int}
_TOLERANCE_KEYS = {"rel_eq": float, "genericity_floor": float, "recovery_tol": float}


@dataclass(frozen=True)
class ExperimentSpec:
    """Monte-Carlo run description: dimensions, trial counts, seeds, budgets."""

    n_values: tuple[int, ...]
    trials: int
    seed: int
    pr_config: PhaseRetrievalConfig
    tolerances: ToleranceConfig

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.n_values or any(n < 2 for n in self.n_values):
            raise ValueError("n_values must be nonempty with every entry >= 2")


def _spec_section(obj, kinds: dict, where: str) -> dict:
    unknown = sorted(set(obj) - set(kinds))
    if unknown:
        raise InputFormatError(f"experiment spec: unknown {where} keys {unknown}")
    return {key: kinds[key](value) for key, value in obj.items()}


def experiment_spec_from_json(obj) -> ExperimentSpec:
    if not isinstance(obj, dict):
        raise InputFormatError("experiment spec: expected a JSON object")
    try:
        n_values = tuple(int(v) for v in obj["n_values"])
        trials = int(obj["trials"])
        seed = int(obj["seed"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"experiment spec: {exc}") from exc
    pr_obj = obj.get("pr_config", {})
    tol_obj = obj.get("tolerances", {})
    if not isinstance(pr_obj, dict) or not isinstance(tol_obj, dict):
        raise InputFormatError("experiment spec: pr_config/tolerances must be objects")
    try:
        return ExperimentSpec(
            n_values=n_values,
            trials=trials,
            seed=seed,
            pr_config=PhaseRetrievalConfig(
                **{"seed": seed, **_spec_section(pr_obj, _PR_CONFIG_KEYS, "pr_config")}
            ),
            tolerances=ToleranceConfig(**_spec_section(tol_obj, _TOLERANCE_KEYS, "tolerances")),
        )
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"experiment spec: {exc}") from exc


def _derived_seed(*entropy: int) -> int:
    # stable derivation for per-trial seeds; recorded in the CSV seed column
    return int(np.random.SeedSequence(list(entropy)).generate_state(1, np.uint64)[0])


def _sample_generic(n: int, base_seed: int, trial: int, floor: float):
    for attempt in range(_GENERIC_ATTEMPTS):
        seed = _derived_seed(base_seed, n, trial, attempt)
        x = sample_random_signal(n, seed)
        if is_generic(x, floor):
            return x, seed
    raise NonGenericInput(
        f"no generic sample found for n={n}, trial={trial} "
        f"after {_GENERIC_ATTEMPTS} attempts"
    )


def cmd_invariants(args) -> int:
    x = complex_vector_from_json(load_json(args.input))
    report = is_generic(x, args.floor)
    if report.generic:
        print("generic: true", file=sys.stderr)
    else:
        print(
            "generic: false"
            f" (modulus side failures: {list(report.modulus_failures)},"
            f" fourier side failures: {list(report.fourier_modulus_failures)})",
            file=sys.stderr,
        )
    if args.require_generic and not report.generic:
        return EXIT_DEGENERATE
    dump_json(invariants_to_json(heisenberg_invariants(x)), args.output)
    return EXIT_OK


def cmd_recover(args) -> int:
    inv = invariants_from_json(load_json(args.input))
    pr_cfg = PhaseRetrievalConfig(
        max_restarts=args.max_restarts,
        residual_target=args.residual_target,
        seed=args.seed,
    )
    tol = ToleranceConfig(recovery_tol=args.tol)
    report = recover_orbit(inv, pr_cfg, tol)
    dump_json(recovery_report_to_json(report), args.output)
    # recover_orbit raises when starts converged but failed the screens, so an
    # unsuccessful report means no start converged
    return EXIT_OK if report.success else EXIT_NO_CONVERGENCE


def cmd_verify(args) -> int:
    x = complex_vector_from_json(load_json(args.input))
    x2 = complex_vector_from_json(load_json(args.input2))
    if len(x) != len(x2):
        raise OrderMismatch(f"dimensions differ: {len(x)} vs {len(x2)}")
    dist, witness = orbit_distance(x, x2)
    equivalent = within_orbit_tolerance(dist, x, args.tol)
    print(f"distance: {dist:.12e}")
    print(f"witness: {group_element_to_json(witness)}")
    print(f"equivalent: {str(equivalent).lower()}")
    return EXIT_OK if equivalent else EXIT_VERIFY_NEGATIVE


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "nan" if not np.isfinite(value) else f"{value:.12e}"
    return str(value)


def cmd_experiment(args) -> int:
    spec = experiment_spec_from_json(load_json(args.spec))
    rows = []
    summaries = []
    for n in spec.n_values:
        successes = 0
        for trial in range(spec.trials):
            start = time.perf_counter()
            try:
                x, seed = _sample_generic(
                    n, spec.seed, trial, spec.tolerances.genericity_floor
                )
                inv = heisenberg_invariants(x)
                pr_cfg = replace(
                    spec.pr_config, seed=_derived_seed(spec.pr_config.seed, n, trial, 7919)
                )
                report = recover_orbit(inv, pr_cfg, spec.tolerances)
                _, dist, _ = verify_against_truth(
                    report, x, spec.tolerances.recovery_tol
                )
                residuals = report.stage_residuals
                success = report.success
                row = [
                    n, trial, seed, int(success), dist,
                    report.diagnostics["phase_retrieval"]["restarts_used"],
                    residuals.bm_inversion, residuals.bfm_inversion,
                    residuals.phase_retrieval, residuals.phase_fix,
                    residuals.invariant_match,
                ]
            except HeisenbergOrbitError as exc:
                print(f"trial n={n} t={trial} failed: {exc}", file=sys.stderr)
                success = False
                row = [n, trial, "", 0, float("nan"), "", float("nan"),
                       float("nan"), float("nan"), float("nan"), float("nan")]
            wall_ms = (time.perf_counter() - start) * 1e3 if args.timing else 0.0
            row.append(wall_ms if args.timing else 0)
            rows.append(row)
            successes += int(success)
        summaries.append(
            [n, "summary", "", f"{successes / spec.trials:.4f}",
             "", "", "", "", "", "", "", ""]
        )
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])
        for row in summaries:
            writer.writerow([_format_cell(v) for v in row])
    return EXIT_OK


def cmd_degree_audit(args) -> int:
    if args.max_n < 2:
        raise InputFormatError("--max-n must be at least 2")
    all_zero = True
    print("N\td\tcount")
    for order in range(2, args.max_n + 1):
        top = order + 1 if args.include_boundary else order
        for degree in range(1, top):
            count = degree_audit(order, degree)
            if degree < order and count != 0:
                all_zero = False
            print(f"{order}\t{degree}\t{count}")
    return EXIT_OK if all_zero else EXIT_VERIFY_NEGATIVE


def cmd_cyclic(args) -> int:
    if args.cyclic_command == "weighted-invariants":
        v = complex_vector_from_json(load_json(args.input))
        dump_json(weighted_invariants_to_json(weighted_invariants(v)), args.output)
    elif args.cyclic_command == "recover-weighted":
        inv = weighted_invariants_from_json(load_json(args.input))
        dump_json(complex_vector_to_json(recover_weighted(inv)), args.output)
    elif args.cyclic_command == "recover-regular":
        x = complex_vector_from_json(load_json(args.input))
        dump_json(complex_vector_to_json(recover_cyclic_orbit(x)), args.output)
    else:  # pragma: no cover - argparse enforces the choices
        raise InputFormatError(f"unknown cyclic command {args.cyclic_command!r}")
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
    p.add_argument("--floor", type=float, default=DEFAULT_GENERICITY_FLOOR,
                   help="genericity floor for the nonvanishing check")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("recover", help="reconstruct an orbit element from a bundle")
    p.add_argument("input", help="invariant bundle JSON file")
    p.add_argument("output", help="recovery report JSON file to write")
    p.add_argument("--seed", type=int, default=PhaseRetrievalConfig.seed)
    p.add_argument("--max-restarts", type=int, default=PhaseRetrievalConfig.max_restarts)
    p.add_argument("--residual-target", type=float,
                   default=PhaseRetrievalConfig.residual_target)
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
    for name, help_text in (
        ("weighted-invariants", "invariant chain of a weighted cyclic action"),
        ("recover-weighted", "recover a vector from its invariant chain"),
        ("recover-regular", "recover a vector up to cyclic shift"),
    ):
        q = cyc.add_parser(name, help=help_text)
        q.add_argument("input")
        q.add_argument("output")
    p.set_defaults(func=cmd_cyclic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputFormatError, OrderMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (
        NonGenericInput,
        NotRealSignal,
        ZeroInput,
        PhaseUnresolvable,
        InconsistentInvariants,
        InconsistentMagnitudes,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
