"""Command-line interface: exit codes, file outputs, determinism."""

import csv
import json

import numpy as np
import pytest

from heisenberg_orbits import (
    GroupElement,
    act,
    apply_weighted_generator,
    heisenberg_invariants,
    orbit_distance,
    sample_random_signal,
)
from heisenberg_orbits import errors
from heisenberg_orbits.cli import CSV_HEADER, main
from heisenberg_orbits.invariants import _canonical_triples
from heisenberg_orbits.serialization import (
    complex_vector_from_json,
    complex_vector_to_json,
    dump_json,
    invariants_from_json,
    invariants_to_json,
    load_json,
)

from helpers import (
    MALFORMED_PACKED_FIELDS,
    bundle_orbit_values,
    generic_signal,
    inconsistent_bm_bundle,
    min_shift_distance,
    set_bundle_orbit_values,
    zero_padded,
)


def write_vector(path, x):
    dump_json(complex_vector_to_json(x), path)


REPORT_KEYS = {"candidate", "success", "stage_residuals", "diagnostics"}
STAGE_KEYS = {"bm_inversion", "bfm_inversion", "phase_retrieval", "phase_fix", "invariant_match"}
SEARCH_KEYS = {
    "restarts_used", "iterations_last", "converged_starts", "power_rejected", "verify_rejected",
}

PACKAGE_ERROR_EXITS = [
    (errors.InputFormatError, 2),
    (errors.OrderMismatch, 2),
    (errors.NonGenericInput, 3),
    (errors.InconsistentInvariants, 5),
]


def assert_report_layout(report):
    # diagnostics holds no copy of a stage residual or of success
    assert set(report) == REPORT_KEYS
    assert set(report["stage_residuals"]) == STAGE_KEYS
    diagnostics = report["diagnostics"]
    assert set(diagnostics) == {"phase_retrieval", "phase_fix", "verification"}
    assert set(diagnostics["phase_retrieval"]) == SEARCH_KEYS
    assert set(diagnostics["phase_fix"]) == {"ratio_modulus"}
    assert set(diagnostics["verification"]) == {"tolerance"}


class TestInvariantsCommand:
    def test_writes_bundle(self, tmp_path):
        x = generic_signal(4, 2)
        src = tmp_path / "x.json"
        out = tmp_path / "inv.json"
        write_vector(src, x)
        assert main(["invariants", str(src), str(out)]) == 0
        loaded = invariants_from_json(load_json(out))
        assert loaded.n == 4
        np.testing.assert_allclose(loaded.bm, heisenberg_invariants(x).bm)

    def test_truncated_input(self, tmp_path):
        src = tmp_path / "x.json"
        src.write_text('{"n": 4, "re": [1.0')
        assert main(["invariants", str(src), str(tmp_path / "o.json")]) == 2

    def test_deeply_nested_input(self, tmp_path):
        src = tmp_path / "x.json"
        src.write_text("[" * 200_000 + "]" * 200_000)
        assert main(["invariants", str(src), str(tmp_path / "o.json")]) == 2

    def test_unwritable_output(self, tmp_path):
        src = tmp_path / "x.json"
        write_vector(src, generic_signal(4, 2))
        assert main(["invariants", str(src), str(tmp_path / "missing" / "o.json")]) == 2

    def test_require_generic_refuses(self, tmp_path):
        src = tmp_path / "x.json"
        out = tmp_path / "inv.json"
        write_vector(src, np.ones(4, dtype=complex))
        assert main(["invariants", str(src), str(out), "--require-generic"]) == 3
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_bundle_rejected(self, tmp_path):
        # finite entries whose bispectra overflow: no bundle with nan is written
        src = tmp_path / "x.json"
        out = tmp_path / "inv.json"
        write_vector(src, np.array([1e100, 1.0, 2.0], dtype=complex))
        assert main(["invariants", str(src), str(out)]) == 2
        assert not out.exists()

    def test_vanishing_power_sum_refused(self, tmp_path, capsys):
        # both spectra clear the floor but the power sum (1.2e-19) does not,
        # so `recover` would reject the bundle; --require-generic agrees
        src = tmp_path / "x.json"
        out = tmp_path / "inv.json"
        write_vector(src, 1e-4 * generic_signal(5, 205))
        assert main(["invariants", str(src), str(out), "--require-generic"]) == 3
        assert "power sum vanishes: true" in capsys.readouterr().err
        assert not out.exists()

    def test_floor_flag_rejected(self, tmp_path):
        # genericity is judged at the one floor that `recover` uses
        with pytest.raises(SystemExit) as exc:
            main(["invariants", str(tmp_path / "x.json"), str(tmp_path / "inv.json"),
                  "--floor", "1e-3"])
        assert exc.value.code == 2

    def test_non_generic_without_flag_still_writes(self, tmp_path):
        src = tmp_path / "x.json"
        out = tmp_path / "inv.json"
        write_vector(src, np.ones(4, dtype=complex))
        assert main(["invariants", str(src), str(out)]) == 0
        assert out.exists()


class TestRecoverCommand:
    def test_recover_then_verify_chain(self, tmp_path):
        x = generic_signal(5, 3)
        src = tmp_path / "x.json"
        inv_path = tmp_path / "inv.json"
        rec_path = tmp_path / "rec.json"
        cand_path = tmp_path / "cand.json"
        write_vector(src, x)
        assert main(["invariants", str(src), str(inv_path)]) == 0
        assert (
            main(
                ["recover", str(inv_path), str(rec_path), "--seed", "4",
                 "--max-restarts", "4000"]
            )
            == 0
        )
        report = load_json(rec_path)
        assert report["success"] is True
        assert_report_layout(report)
        assert abs(report["diagnostics"]["phase_fix"]["ratio_modulus"] - 1.0) <= 1e-3
        write_vector(cand_path, complex_vector_from_json(report["candidate"]))
        assert main(["verify", str(src), str(cand_path), "--tol", "1e-6"]) == 0

    def test_zero_entry_bundle_recovers(self, tmp_path):
        # the zero entry inverts to a tiny negative, which stage 1 clips at 0
        inv_path = tmp_path / "inv.json"
        rec_path = tmp_path / "rec.json"
        dump_json(invariants_to_json(heisenberg_invariants(zero_padded(generic_signal(3, 505)))),
                  inv_path)
        args = ["recover", str(inv_path), str(rec_path), "--seed", "5", "--max-restarts", "100"]
        assert main(args) == 0
        assert load_json(rec_path)["success"] is True

    def test_tampered_power_sum(self, tmp_path):
        x = generic_signal(5, 5)
        inv = heisenberg_invariants(x)
        obj = invariants_to_json(inv)
        obj["iN"]["re"] *= 1.6
        obj["iN"]["im"] *= 1.6
        inv_path = tmp_path / "inv.json"
        rec_path = tmp_path / "rec.json"
        dump_json(obj, inv_path)
        code = main(
            ["recover", str(inv_path), str(rec_path), "--seed", "1", "--max-restarts", "60"]
        )
        # the search ran and rejected every converged start, so its report is written
        assert code == 4
        report = load_json(rec_path)
        assert_report_layout(report)
        assert report["success"] is False
        search = report["diagnostics"]["phase_retrieval"]
        assert search["converged_starts"] > 0
        assert search["power_rejected"] == search["converged_starts"]

    def test_complex_bispectrum_rejected(self, tmp_path):
        obj = invariants_to_json(heisenberg_invariants(generic_signal(5, 6)))
        # turn the stored B[0, 1], the entry of triple (0, 1, 4), by a phase:
        # V[0] |V[1]|**2 is real for every real vector
        values = bundle_orbit_values(obj, "bm")
        values[1] *= np.exp(0.3j)
        set_bundle_orbit_values(obj, "bm", values)
        inv_path = tmp_path / "inv.json"
        dump_json(obj, inv_path)
        # no real vector has it: inconsistent data, exit 5
        assert main(["recover", str(inv_path), str(tmp_path / "rec.json")]) == 5

    def test_full_layout_bundle_rejected(self, tmp_path, capsys):
        # a bundle written with the whole N x N matrices, with the upper
        # triangles or with the {"re": [...], "im": [...]} orbit lists of
        # older files is an input error
        inv = heisenberg_invariants(generic_signal(5, 6))
        orbit_layout = _canonical_triples(5)[:2]
        for layout in (np.indices((5, 5)), np.triu_indices(5), orbit_layout):
            obj = invariants_to_json(inv)
            for field in ("bm", "bfm"):
                packed = getattr(inv, field)[tuple(layout)]
                obj[field] = {"re": packed.real.tolist(), "im": packed.imag.tolist()}
            inv_path = tmp_path / "inv.json"
            dump_json(obj, inv_path)
            assert main(["recover", str(inv_path), str(tmp_path / "rec.json")]) == 2
            assert "missing field 'dtype'" in capsys.readouterr().err

    @pytest.mark.parametrize("case", MALFORMED_PACKED_FIELDS)
    def test_malformed_packed_bundle_rejected(self, tmp_path, capsys, case):
        obj = invariants_to_json(heisenberg_invariants(generic_signal(5, 6)))
        MALFORMED_PACKED_FIELDS[case](obj, "bm")
        inv_path, rec_path = tmp_path / "inv.json", tmp_path / "rec.json"
        dump_json(obj, inv_path)
        assert main(["recover", str(inv_path), str(rec_path)]) == 2
        assert "(bm), one entry per symmetry orbit" in capsys.readouterr().err
        assert not rec_path.exists()

    def test_header_order_beyond_the_entries(self, tmp_path, capsys):
        # a 5-entry N = 5 bundle claiming N = 1e6 is an input error, not an
        # attempt to build the N = 1e6 tables
        obj = invariants_to_json(heisenberg_invariants(generic_signal(5, 6)))
        obj["n"] = 10**6
        inv_path, rec_path = tmp_path / "inv.json", tmp_path / "rec.json"
        dump_json(obj, inv_path)
        assert main(["recover", str(inv_path), str(rec_path)]) == 2
        assert "one entry per symmetry orbit" in capsys.readouterr().err
        assert not rec_path.exists()

    def test_malformed_bundle(self, tmp_path):
        inv_path = tmp_path / "inv.json"
        dump_json({"n": 3, "bm": {}}, inv_path)
        assert main(["recover", str(inv_path), str(tmp_path / "rec.json")]) == 2

    def test_no_convergence_exit_code(self, tmp_path):
        x = generic_signal(6, 802)
        inv_path = tmp_path / "inv.json"
        rec_path = tmp_path / "rec.json"
        dump_json(invariants_to_json(heisenberg_invariants(x)), inv_path)
        code = main(
            ["recover", str(inv_path), str(rec_path), "--seed", "2",
             "--max-restarts", "1"]
        )
        assert code == 4
        report = load_json(rec_path)
        assert report["success"] is False
        assert report["stage_residuals"]["phase_fix"] is None
        assert_report_layout(report)
        assert report["diagnostics"]["phase_fix"] == {"ratio_modulus": None}

    @pytest.mark.parametrize("error,code", PACKAGE_ERROR_EXITS)
    def test_exit_code_per_package_error(self, tmp_path, monkeypatch, capsys, error, code):
        # every package error has a pinned exit code; a new one fails here first
        assert {e for e, _ in PACKAGE_ERROR_EXITS} == set(
            errors.HeisenbergOrbitError.__subclasses__()
        )

        def fail(*args, **kwargs):
            raise error("stage failed")

        monkeypatch.setattr("heisenberg_orbits.cli.recover_orbit", fail)
        inv_path = tmp_path / "inv.json"
        dump_json(invariants_to_json(heisenberg_invariants(generic_signal(4, 11))), inv_path)
        assert main(["recover", str(inv_path), str(tmp_path / "rec.json")]) == code
        assert capsys.readouterr().err == "error: stage failed\n"

    @pytest.mark.parametrize(
        "bundle, args, code",
        [
            (inconsistent_bm_bundle, ["--seed", "3", "--max-restarts", "2000"], 5),
            (lambda: heisenberg_invariants(0.05 * generic_signal(6, 5024)),
             ["--seed", "24", "--max-restarts", "4000"], 3),
        ],
        ids=["inconsistent-bm", "vanishing-power-sum"],
    )
    def test_bundle_no_start_can_pass(self, tmp_path, capsys, bundle, args, code):
        # rejected before the first start, so no report is written; an
        # inconsistent bundle exits 5 and a non-generic one 3
        inv_path = tmp_path / "inv.json"
        rec_path = tmp_path / "rec.json"
        dump_json(invariants_to_json(bundle()), inv_path)
        assert main(["recover", str(inv_path), str(rec_path), *args]) == code
        assert capsys.readouterr().err.startswith("error: ")
        assert not rec_path.exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        # a negative seed fails before the inversions, not at the first start
        inv_path = tmp_path / "inv.json"
        rec_path = tmp_path / "rec.json"
        dump_json(invariants_to_json(heisenberg_invariants(generic_signal(4, 11))), inv_path)
        assert main(["recover", str(inv_path), str(rec_path), "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err
        assert not rec_path.exists()

    def test_max_iterations_flag_rejected(self, tmp_path):
        # Newton starts have a fixed iteration cap, so recover takes no budget for it
        with pytest.raises(SystemExit) as exc:
            main(["recover", str(tmp_path / "inv.json"), str(tmp_path / "rec.json"),
                  "--max-iterations", "5"])
        assert exc.value.code == 2

    def test_residual_target_flag_rejected(self, tmp_path):
        # the magnitude-fit target is a constant of PhaseRetrievalConfig
        with pytest.raises(SystemExit) as exc:
            main(["recover", str(tmp_path / "inv.json"), str(tmp_path / "rec.json"),
                  "--residual-target", "1e-12"])
        assert exc.value.code == 2


class TestVerifyCommand:
    def test_orbit_member(self, tmp_path, capsys):
        x = generic_signal(4, 8)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_vector(a, x)
        write_vector(b, act(GroupElement(4, 1, 2, 3), x))
        assert main(["verify", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "distance" in out and "witness" in out

    def test_scaled_vector_rejected(self, tmp_path):
        x = generic_signal(4, 9)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_vector(a, x)
        write_vector(b, 2 * x)
        assert main(["verify", str(a), str(b)]) == 1

    def test_offbeat_phase_rejected(self, tmp_path):
        x = generic_signal(4, 10)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_vector(a, x)
        write_vector(b, np.exp(1j * np.pi / 8) * x)
        assert main(["verify", str(a), str(b)]) == 1

    def test_verdict_holds_at_large_scale(self, tmp_path, capsys):
        # unscaled, the squared norms overflow at 2**600, and an unrelated pair passes
        x = 2.0**600 * generic_signal(4, 8)
        a, b, c = (tmp_path / f"{name}.json" for name in "abc")
        write_vector(a, x)
        write_vector(b, act(GroupElement(4, 1, 2, 3), x))
        write_vector(c, 2.0**600 * generic_signal(4, 9))
        assert main(["verify", str(a), str(b)]) == 0
        capsys.readouterr()
        assert main(["verify", str(a), str(c)]) == 1
        distance = capsys.readouterr().out.splitlines()[0]
        assert distance.startswith("distance: ") and np.isfinite(float(distance[10:]))

    def test_infinite_distance_rejected(self, tmp_path):
        # the distance and ||x|| both read inf; an infinite distance never passes
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_vector(a, 1.5e308 * np.ones(4))
        write_vector(b, np.zeros(4))
        assert main(["verify", str(a), str(b)]) == 1

    def test_dimension_mismatch(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_vector(a, sample_random_signal(4, 11))
        write_vector(b, sample_random_signal(5, 11))
        assert main(["verify", str(a), str(b)]) == 2
        assert "dimensions differ: 4 vs 5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, tol",
        [
            pytest.param("verify", "-1", id="-1"),
            pytest.param("verify", "0", id="0"),
            pytest.param("verify", "nan", id="nan"),
            pytest.param("verify", "inf", id="inf"),
            pytest.param("recover", "inf", id="recover-inf"),
        ],
    )
    def test_non_positive_tolerance_rejected(self, tmp_path, capsys, command, tol):
        # verify printed "equivalent: false" at -1 and nan, and true at 0 for
        # identical vectors and at inf for any two; recover searched at inf
        a = tmp_path / "a.json"
        rec_path = tmp_path / "rec.json"
        if command == "verify":
            write_vector(a, generic_signal(4, 8))
            files = [str(a), str(a)]
        else:
            dump_json(invariants_to_json(heisenberg_invariants(generic_signal(4, 11))), a)
            files = [str(a), str(rec_path)]
        assert main([command, *files, "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "strictly positive" in captured.err
        assert not rec_path.exists()

    def test_oversized_integer_entry(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_vector(a, sample_random_signal(2, 11))
        dump_json({"n": 2, "re": [10**400, 1.0], "im": [0.0, 0.0]}, b)
        # exit 1 would claim the vectors lie in different orbits
        assert main(["verify", str(a), str(b)]) == 2

    def test_header_beyond_the_entries(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_vector(a, sample_random_signal(2, 11))
        dump_json({"n": 10**12, "re": [1.0], "im": [0.0]}, b)
        # rejected as input before any array is sized from the header
        assert main(["verify", str(a), str(b)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestExperimentCommand:
    def test_spec_example_run(self, tmp_path):
        spec = {
            "n_values": [3, 4, 5],
            "trials": 20,
            "seed": 7,
            "pr_config": {"max_restarts": 4000},
        }
        spec_path = tmp_path / "spec.json"
        out_path = tmp_path / "out.csv"
        dump_json(spec, spec_path)
        assert main(["experiment", str(spec_path), str(out_path)]) == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header == [
            "n", "trial", "seed", "success", "orbit_distance", "restarts_used",
            "res_bm", "res_bfm", "res_pr", "res_phase", "res_final", "wall_ms",
        ]
        data = [r for r in body if r[1] != "summary"]
        summaries = [r for r in body if r[1] == "summary"]
        assert len(data) == 60
        assert len(summaries) == 3
        for row in summaries:
            assert float(row[3]) >= 0.95

    def test_single_trial(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        out_path = tmp_path / "out.csv"
        dump_json({"n_values": [3], "trials": 1, "seed": 1}, spec_path)
        assert main(["experiment", str(spec_path), str(out_path)]) == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3  # header + one trial + one summary

    def test_byte_identical_reruns(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        dump_json({"n_values": [3, 4], "trials": 2, "seed": 5}, spec_path)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["experiment", str(spec_path), str(first)]) == 0
        assert main(["experiment", str(spec_path), str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        # every default spelled out gives the same bytes as the minimal spec
        explicit_path = tmp_path / "explicit.json"
        dump_json(
            {
                "n_values": [3, 4], "trials": 2, "seed": 5,
                "pr_config": {"max_restarts": 50},
                "tolerances": {"recovery_tol": 1e-6},
            },
            explicit_path,
        )
        third = tmp_path / "c.csv"
        assert main(["experiment", str(explicit_path), str(third)]) == 0
        assert third.read_bytes() == first.read_bytes()

    def test_failed_trial_row(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise errors.NonGenericInput("no consistent start")

        spec_path = tmp_path / "spec.json"
        out_path = tmp_path / "out.csv"
        dump_json({"n_values": [3], "trials": 1, "seed": 1}, spec_path)
        for target, replacement, message in (
            ("recover_orbit", fail, "no consistent start"),
            # a sampler that never draws a generic vector gives up
            ("is_generic", lambda x: False,
             "no generic sample found for n=3, trial=0 after 64 attempts"),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(f"heisenberg_orbits.cli.{target}", replacement)
                assert main(["experiment", str(spec_path), str(out_path)]) == 0
            assert out_path.read_text().splitlines()[1:] == [
                "3,0,,0,nan,,nan,nan,nan,nan,nan,0",
                "3,summary,,0.0000,,,,,,,,",
            ]
            assert capsys.readouterr().err == f"trial n=3 t=0 failed: {message}\n"

    def test_false_accept_is_not_a_success(self, tmp_path):
        # at N = 2 an accepted candidate can lie in another orbit with the same
        # bundle; such a trial keeps its distance but does not count
        spec_path = tmp_path / "spec.json"
        out_path = tmp_path / "out.csv"
        dump_json(
            {"n_values": [2], "trials": 10, "seed": 3, "pr_config": {"max_restarts": 200}},
            spec_path,
        )
        assert main(["experiment", str(spec_path), str(out_path)]) == 0
        with open(out_path, newline="") as fh:
            body = list(csv.reader(fh))[1:]
        data, summary = body[:-1], body[-1]
        off_orbit = {0, 1, 3, 5, 9}
        for row in data:
            assert row[3] == ("0" if int(row[1]) in off_orbit else "1")
            assert (float(row[4]) > 0.02) == (int(row[1]) in off_orbit)
        assert summary[3] == "0.5000"

    def test_unwritable_output_fails_before_any_trial(self, tmp_path, monkeypatch):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran before the output was opened")

        monkeypatch.setattr("heisenberg_orbits.cli.recover_orbit", no_trial)
        spec_path = tmp_path / "spec.json"
        dump_json({"n_values": [3], "trials": 1, "seed": 1}, spec_path)
        out_path = tmp_path / "missing" / "o.csv"
        assert main(["experiment", str(spec_path), str(out_path)]) == 2

    def test_input_too_large_to_hold(self, tmp_path, monkeypatch, capsys):
        # every array is sized by the input, so a dimension the machine cannot
        # hold is an input error, not exit 1 ("not in the same orbit")
        def no_memory(n, seed):
            raise MemoryError(f"cannot allocate {n} entries")

        monkeypatch.setattr("heisenberg_orbits.cli.sample_random_signal", no_memory)
        spec_path = tmp_path / "spec.json"
        out_path = tmp_path / "o.csv"
        dump_json({"n_values": [10**12], "trials": 1, "seed": 1}, spec_path)
        assert main(["experiment", str(spec_path), str(out_path)]) == 2
        assert capsys.readouterr().err == "error: cannot allocate 1000000000000 entries\n"
        # the output is opened before the first trial, so the header stays
        assert out_path.read_text() == ",".join(CSV_HEADER) + "\n"

    def test_malformed_spec(self, tmp_path, capsys):
        base = {"n_values": [3], "trials": 1, "seed": 1}
        for spec in (
            {"trials": 2},
            # a misspelled section would otherwise run with the defaults
            {**base, "tolerance": {"recovery_tol": 1e-3}},
            {**base, "pr_cfg": {"max_restarts": 5}},
            # max_iterations bounds no stage of recover_orbit
            {**base, "pr_config": {"max_iterations": 5}},
            {**base, "tolerances": {"recovery_tl": 1e-3}},
            # genericity and realness are judged at fixed constants
            {**base, "tolerances": {"rel_eq": 1e-9}},
            {**base, "tolerances": {"genericity_floor": 1e-8}},
            # spec values are read as typed JSON, never coerced
            {"n_values": [3], "trials": 2.7, "seed": 1, "pr_config": {"max_restarts": True}},
            {"n_values": [3.9], "trials": 1, "seed": "5", "tolerances": {"recovery_tol": "1e-3"}},
            # spec values must be finite; Python's JSON writer emits NaN and Infinity
            {**base, "tolerances": {"recovery_tol": float("nan")}},
            {**base, "tolerances": {"recovery_tol": float("inf")}},
            # budgets and tolerances must be positive
            {**base, "tolerances": {"recovery_tol": 0}},
            {**base, "tolerances": {"recovery_tol": -1e-6}},
            {**base, "pr_config": {"max_restarts": 0}},
            {**base, "n_values": []},
            {**base, "n_values": 3},
            # negative seeds fail at decode, not at the first trial
            {"n_values": [3], "trials": 1, "seed": -1},
            # the spec seed alone seeds the starts, and their target is fixed
            {**base, "pr_config": {"seed": -5}},
            {**base, "pr_config": {"seed": 5}},
            {**base, "pr_config": {"residual_target": 1e-10}},
        ):
            spec_path = tmp_path / "spec.json"
            out_path = tmp_path / "o.csv"
            dump_json(spec, spec_path)
            assert main(["experiment", str(spec_path), str(out_path)]) == 2
            assert not out_path.exists()
            err = capsys.readouterr().err
            assert err.startswith("error: experiment spec")
            unknown = set(spec) - {"n_values", "trials", "seed", "pr_config", "tolerances"}
            assert all(repr(key) in err for key in unknown)


class TestDegreeAuditCommand:
    def test_all_zero_up_to_ten(self, capsys):
        # every row below d = N reads 0, and each N's block ends at d = N
        assert main(["degree-audit", "--max-n", "10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        cells = [[int(v) for v in line.split("\t")] for line in lines[1:]]
        assert [(n, d) for n, d, _ in cells] == [
            (n, d) for n in range(2, 11) for d in range(1, n + 1)
        ]
        assert all(count == 0 for n, d, count in cells if d < n)

    def test_minimal_table(self, capsys):
        assert main(["degree-audit", "--max-n", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1:] == ["2\t1\t0", "2\t2\t3"]

    def test_boundary_column(self, capsys):
        # the d = N row is the first nonzero count: C(2N - 1, N - 1)
        assert main(["degree-audit", "--max-n", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        table = {(int(a), int(b)): int(c) for a, b, c in (l.split("\t") for l in lines[1:])}
        assert table[(2, 2)] == 3
        assert table[(3, 3)] == 10

    def test_include_boundary_flag_removed(self):
        # degree-audit takes no flag for the d = N row: it always prints it
        with pytest.raises(SystemExit) as exc:
            main(["degree-audit", "--max-n", "3", "--include-boundary"])
        assert exc.value.code == 2

    def test_max_n_below_two_rejected(self, capsys):
        assert main(["degree-audit", "--max-n", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max-n must be at least 2\n"


class TestCyclicCommand:
    def test_recover_weighted_fixture(self, tmp_path):
        inv_path = tmp_path / "wi.json"
        out_path = tmp_path / "v.json"
        dump_json(
            {"n": 2, "r": 1.0, "a": [{"re": 2.0, "im": 0.0}, {"re": 8.0, "im": 0.0}]},
            inv_path,
        )
        assert main(["cyclic", "recover-weighted", str(inv_path), str(out_path)]) == 0
        v = complex_vector_from_json(load_json(out_path))
        target = np.array([1.0, 2.0], dtype=complex)
        best = min(
            np.linalg.norm(v - apply_weighted_generator(target, j)) for j in range(6)
        )
        assert best <= 1e-9

    def test_recover_weighted_degenerate(self, tmp_path):
        inv_path = tmp_path / "wi.json"
        dump_json(
            {"n": 2, "r": 0.0, "a": [{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}]},
            inv_path,
        )
        assert main(["cyclic", "recover-weighted", str(inv_path), str(tmp_path / "v.json")]) == 3

    def test_recover_regular(self, tmp_path):
        x = np.array([2, 1j, 1])
        src = tmp_path / "x.json"
        out = tmp_path / "rec.json"
        write_vector(src, x)
        assert main(["cyclic", "recover-regular", str(src), str(out)]) == 0
        rec = complex_vector_from_json(load_json(out))
        assert min_shift_distance(x, rec) <= 1e-8

    def test_weighted_invariants_round_trip(self, tmp_path):
        v = np.array([1.0 + 0.5j, -0.75 + 0.25j, 0.5 - 1.0j])
        src = tmp_path / "v.json"
        wi = tmp_path / "wi.json"
        out = tmp_path / "back.json"
        write_vector(src, v)
        assert main(["cyclic", "weighted-invariants", str(src), str(wi)]) == 0
        assert main(["cyclic", "recover-weighted", str(wi), str(out)]) == 0
        back = complex_vector_from_json(load_json(out))
        best = min(
            np.linalg.norm(back - apply_weighted_generator(v, j)) for j in range(9)
        )
        assert best <= 1e-8


class TestVerifyOrbitWitness:
    def test_candidate_distance_matches_library(self, tmp_path, capsys):
        x = generic_signal(4, 12)
        moved = act(GroupElement(4, 2, 1, 3), x)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_vector(a, x)
        write_vector(b, moved)
        main(["verify", str(a), str(b)])
        printed = capsys.readouterr().out
        dist, _ = orbit_distance(x, moved)
        assert f"{dist:.12e}" in printed

    @pytest.mark.parametrize(
        "kind,code,expected",
        [
            (
                "member",
                0,
                "distance: 1.299648206042e-14\n"
                "witness: {'N': 16, 'k': 5, 'n': 11, 'm': 3}\n"
                "equivalent: true\n",
            ),
            (
                "non-member",
                1,
                "distance: 2.966676679605e+00\n"
                "witness: {'N': 16, 'k': 10, 'n': 4, 'm': 5}\n"
                "equivalent: false\n",
            ),
        ],
    )
    def test_pinned_output(self, tmp_path, capsys, kind, code, expected):
        # captured from the exhaustive N**3 loop; a changed distance digit,
        # witness or tie-break shows here
        x = generic_signal(16, 41)
        if kind == "member":
            x2 = act(GroupElement(16, 5, 11, 3), x)
        else:
            x2 = generic_signal(16, 42)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_vector(a, x)
        write_vector(b, x2)
        assert main(["verify", str(a), str(b)]) == code
        assert capsys.readouterr().out == expected
