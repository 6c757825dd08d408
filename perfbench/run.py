"""Benchmark entry point for heisenberg-orbits.

Run from the root of a checkout:

    python3 perfbench/run.py --workload recover-small --seed 1 --seconds 45 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Exit codes: 0 done, 2 bad arguments
or no library to measure, 3 a result failed its correctness check (no result
is printed then). See README.md in this directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# BLAS threads are pinned before numpy is first imported.
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="heisenberg-orbits benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "heisenberg_orbits" / "__init__.py").is_file():
        print(f"perfbench: no heisenberg_orbits package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench
    from workloads import WORKLOADS, CorrectnessError

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    try:
        return bench.main(args, Path(__file__).resolve(), ROOT, BLAS_VARS)
    except CorrectnessError as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
