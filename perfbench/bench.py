"""Closed-loop runs, the set-up probe, metrics and output.

One client in one process sends the next op only after the previous one
returned. End-to-end metrics come from an untraced run; ``--trace 1`` runs a
traced pass and then replays the same ops untraced, so the difference is the
tracing overhead.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import tracer
from workloads import WORKLOADS, make_inputs

SETUP_PROBES = 5
OUT_DIR = Path(__file__).resolve().parent / "out"

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("solved_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Loop:
    latencies: list[float] = field(default_factory=list)
    solved: int = 0
    bundle_bytes: list[int] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.latencies)


def closed_loop(workload, inputs, seconds=None, ops=None, trace=None) -> Loop:
    """Run ops back to back until ``seconds`` pass or ``ops`` ops are done.

    Only the op is timed; its check runs after the clock stops and raises
    CorrectnessError on a result it proves wrong.
    """
    loop = Loop()
    deadline = None if seconds is None else perf_counter() + seconds
    i = 0
    while (ops is None or i < ops) and (deadline is None or perf_counter() < deadline):
        inp = inputs[i % len(inputs)]
        if trace is not None:
            trace.op = i
        start = perf_counter()
        result = workload.run(inp)
        loop.latencies.append(perf_counter() - start)
        outcome = workload.check(inp, result)
        loop.solved += outcome.solved
        if outcome.bundle_bytes:
            loop.bundle_bytes.append(outcome.bundle_bytes)
        i += 1
    return loop


def setup(workload, seed):
    """Input generation and one untimed warm-up op; returns the inputs."""
    inputs = make_inputs(workload, seed)
    closed_loop(workload, inputs, ops=1)
    return inputs


def probe_setup(run_py: Path, workload: str, seed: int) -> float:
    """Seconds from starting a fresh process until it could time its first op."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(run_py), "--workload", workload, "--seed", str(seed),
         "--setup-probe"],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def ref_kernel_ms() -> float:
    """Median time of a fixed numpy kernel, to tell a slower host from a slower program."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((48, 48)) + 48.0 * np.eye(48)
    f = np.exp(-2j * np.pi * np.outer(np.arange(48), np.arange(48)) / 48)
    v = rng.standard_normal(48) + 0j
    times = []
    for _ in range(7):
        start = perf_counter()
        for _ in range(400):
            w = f @ v
            np.linalg.solve(a, np.abs(w) ** 2)
        times.append(1e3 * (perf_counter() - start))
    return statistics.median(times)


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    return done.stdout.strip() or "unknown"


def environment(root: Path, seed: int, blas_vars) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in blas_vars},
        "seed": seed,
        "commit": _git_commit(root),
    }


def end_to_end(workload, loop: Loop, setup_s: float) -> dict:
    lat_ms = 1e3 * np.asarray(loop.latencies)
    beyond = int(np.sum(lat_ms > np.percentile(lat_ms, workload.tail_percentile)))
    if beyond < 10:
        print(f"perfbench: warning: only {beyond} ops beyond p{workload.tail_percentile:g}",
              file=sys.stderr)
    return {
        "setup_s": setup_s,
        "ops_per_s": loop.ops / float(np.sum(loop.latencies)),
        "op_p50_ms": float(np.median(lat_ms)),
        "op_tail_ms": float(np.percentile(lat_ms, workload.tail_percentile)),
        "solved_frac": loop.solved / loop.ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(workload, inputs, seconds=None, ops=None):
    """Traced pass for half the time (or ``ops`` ops), then the same ops untraced."""
    with tracer.Tracer() as trace:
        half = None if seconds is None else seconds / 2
        traced = closed_loop(workload, inputs, seconds=half, ops=ops, trace=trace)
    plain = closed_loop(workload, inputs, ops=traced.ops)
    overhead = 1.0 - sum(plain.latencies) / sum(traced.latencies)
    bundle_bytes = statistics.fmean(traced.bundle_bytes) if traced.bundle_bytes else 0.0
    return trace, traced, tracer.layer_metrics(trace, traced.ops, bundle_bytes, overhead)


def write_spans(trace, name, seed) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for record in trace.records():
            fh.write(json.dumps(record) + "\n")
    return path


def main(args, run_py: Path, root: Path, blas_vars) -> int:
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup(workload, args.seed)
        print("ready", flush=True)
        return 0

    env = environment(root, args.seed, blas_vars)
    env["ref_kernel_ms_before"] = ref_kernel_ms()
    probes = [] if args.trace else [
        probe_setup(run_py, args.workload, args.seed) for _ in range(SETUP_PROBES)
    ]
    inputs = setup(workload, args.seed)

    if args.trace:
        trace, loop, values = traced_run(workload, inputs, args.seconds)
        units = dict(tracer.PER_LAYER)
        print(f"spans: {write_spans(trace, args.workload, args.seed)}")
    else:
        loop = closed_loop(workload, inputs, seconds=args.seconds)
        values = end_to_end(workload, loop, statistics.median(probes))
        units = dict(END_TO_END)
    env["ref_kernel_ms_after"] = ref_kernel_ms()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{loop.ops} ops, {loop.solved} solved, tail p{workload.tail_percentile:g}")
    print("env " + json.dumps(env, sort_keys=True))
    absent = [name for name, value in values.items() if value is None]
    for name, value in values.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:<48} {shown:>14} {units[name]}")
    print(f"  {'failed_frac (1 - solved_frac)':<48} {(loop.ops - loop.solved) / loop.ops:>14.6g} ratio")
    if absent:
        print(f"perfbench: warning: absent metrics reported as 0: {', '.join(absent)}",
              file=sys.stderr)
    result = {
        "correct": True,
        "attempted": loop.ops,
        "failed": loop.ops - loop.solved,
        "metrics": {
            name: {"value": 0.0 if value is None else value, "unit": units[name]}
            for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0
