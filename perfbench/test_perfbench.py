"""Tests of the benchmark itself: exact counts, seeding, tracing and the gates.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench
import run
import tracer
import workloads
from heisenberg_orbits import group, inversion, phase_retrieval, pipeline

HERE = Path(__file__).resolve().parent


def traced(name, seed, ops):
    w = workloads.WORKLOADS[name]
    return bench.traced_run(w, workloads.make_inputs(w, seed, count=ops), ops=ops)


@pytest.mark.parametrize(
    "name, ops, nonzero",
    [
        ("recover-small", 6, "pipeline.starts"),
        ("bundle-oracle", 3, "serialization.bundle_bytes"),
        ("newton-start", 12, "phase_retrieval.newton_magnitude_solve.iterations"),
        ("magnitude-fit", 2, "phase_retrieval.error_reduction.iterations"),
    ],
)
def test_counts_repeat_exactly(name, ops, nonzero):
    runs = [traced(name, 5, ops)[2] for _ in range(2)]
    first, second = ({k: m[k] for k in tracer.EXACT_COUNTS} for m in runs)
    assert first == second
    assert first[nonzero] > 0


def test_seed_fixes_inputs():
    w = workloads.WORKLOADS["recover-small"]
    a, b, c = (workloads.make_inputs(w, seed, count=4) for seed in (1, 1, 2))
    assert all(np.array_equal(p[0], q[0]) and p[2] == q[2] for p, q in zip(a, b))
    assert not any(np.array_equal(p[0], q[0]) for p, q in zip(a, c))


def test_self_times_add_up_to_recover_orbit():
    trace, _, values = traced("recover-small", 3, 4)
    own = trace.self_times()
    children = {}
    for i, s in enumerate(trace.spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)

    def subtree_self(i):
        return own[i] + sum(subtree_self(c) for c in children.get(i, []))

    roots = [i for i, s in enumerate(trace.spans) if s.name == tracer.RECOVER]
    assert roots
    for i in roots:
        span = trace.spans[i]
        assert subtree_self(i) == pytest.approx(span.end - span.start, abs=1e-9)
    assert values["pipeline.recover_orbit.self_ms"] < values["pipeline.recover_orbit.ms"]


def test_span_counts_match_pipeline_diagnostics():
    x, bundle, start_seed = workloads.make_inputs(
        workloads.WORKLOADS["recover-small"], 7, count=4
    )[3]
    with tracer.Tracer() as trace:
        report = pipeline.recover_orbit(
            bundle, pipeline.PhaseRetrievalConfig(seed=start_seed, max_restarts=4000)
        )
    values = tracer.layer_metrics(trace, 1, 0.0, 0.0)
    search = report.diagnostics["phase_retrieval"]
    assert report.success
    assert values["pipeline.starts"] == search["restarts_used"]
    assert values["pipeline.converged"] == search["converged_starts"]
    assert values["pipeline.power_rejected"] == search["power_rejected"]
    assert values["pipeline.verify_rejected"] == search["verify_rejected"]


def test_newton_start_is_not_counted_as_a_recovery():
    _, _, values = traced("newton-start", 4, 6)
    assert values[f"{tracer.NEWTON}.calls"] == 1
    assert values[f"{tracer.NEWTON}.ms"] > 0
    assert values["pipeline.starts"] == 0
    assert values["pipeline.power_rejected"] == values["pipeline.verify_rejected"] == 0


def test_missing_site_is_reported_absent(monkeypatch, capsys):
    monkeypatch.delattr(pipeline, "newton_magnitude_solve")
    _, loop, values = traced("bundle-oracle", 2, 1)
    assert loop.ops == 1
    assert "pipeline.newton_magnitude_solve not found" in capsys.readouterr().err
    assert values["pipeline.starts"] is None
    assert values[f"{tracer.NEWTON}.ms"] is None
    assert values["group.orbit_distance.ms"] > 0
    assert callable(pipeline.recover_orbit) and not hasattr(pipeline.recover_orbit, "__wrapped__")


def test_false_accept_stops_the_run(monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "verify_against_truth", lambda rep, x, tol: (False, 1.0, None))
    code = run.main(["--workload", "recover-small", "--seed", "1", "--seconds", "1", "--trace", "1"])
    out, err = capsys.readouterr()
    assert code == 3
    assert "false accept" in err
    assert '"correct"' not in out


def test_misreported_residual_stops_the_run(monkeypatch):
    real = phase_retrieval.newton_magnitude_solve

    def stale(*args, **kwargs):
        x, residual, iterations = real(*args, **kwargs)
        return x, 0.5 * residual, iterations

    monkeypatch.setattr(phase_retrieval, "newton_magnitude_solve", stale)
    w = workloads.WORKLOADS["newton-start"]
    with pytest.raises(workloads.CorrectnessError, match="reports residual"):
        bench.closed_loop(w, workloads.make_inputs(w, 1, count=4), ops=4)


def test_inversion_miss_stops_the_run(monkeypatch):
    real = inversion.invert_real_bispectrum
    monkeypatch.setattr(inversion, "invert_real_bispectrum", lambda b: 1.01 * real(b))
    w = workloads.WORKLOADS["bundle-oracle"]
    with pytest.raises(workloads.CorrectnessError, match="c03/c04"):
        bench.closed_loop(w, workloads.make_inputs(w, 1, count=1), ops=1)


def test_oracle_miss_stops_the_run(monkeypatch):
    monkeypatch.setattr(group, "orbit_distance", lambda x, y: (1.0, None))
    w = workloads.WORKLOADS["bundle-oracle"]
    with pytest.raises(workloads.CorrectnessError, match="c06"):
        bench.closed_loop(w, workloads.make_inputs(w, 1, count=1), ops=1)


def test_command_prints_every_end_to_end_metric():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "bundle-oracle", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in bench.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    if (HERE.parent / "BENCHMARK.json").exists():
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "bundle-oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
