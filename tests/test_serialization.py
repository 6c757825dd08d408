"""JSON round trips and format validation for the shared types."""

import base64
import hashlib
import json

import numpy as np
import pytest

from heisenberg_orbits import (
    GroupElement,
    HeisenbergInvariants,
    InputFormatError,
    heisenberg_invariants,
    sample_random_signal,
    weighted_invariants,
)
from heisenberg_orbits.invariants import _orbit_count, _orbit_plan
from heisenberg_orbits.serialization import (
    complex_vector_from_json,
    complex_vector_to_json,
    dump_json,
    group_element_to_json,
    invariants_from_json,
    invariants_to_json,
    load_json,
    weighted_invariants_from_json,
    weighted_invariants_to_json,
)

from helpers import MALFORMED_PACKED_FIELDS, bundle_orbit_values, reference_scatter


class TestComplexVector:
    def test_round_trip(self):
        x = sample_random_signal(6, 1)
        obj = complex_vector_to_json(x)
        assert obj["n"] == 6
        np.testing.assert_array_equal(complex_vector_from_json(obj), x)

    def test_real_vector_uses_zero_imag(self):
        obj = complex_vector_to_json(np.array([1.0, 2.0]))
        assert obj["im"] == [0.0, 0.0]

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": 2, "re": [1.0], "im": [0.0, 0.0]},
            {"n": 2, "re": [1.0, 2.0]},
            {"n": 0, "re": [], "im": []},
            {"n": 2, "re": [1.0, "x"], "im": [0.0, 0.0]},
            [1, 2, 3],
            # too large for a float
            {"n": 2, "re": [10**400, 1.0], "im": [0.0, 0.0]},
            # JSON numbers only: no strings, nulls or bools
            {"n": 2, "re": ["1.5", 2.0], "im": [0.0, 0.0]},
            {"n": 2, "re": [None, 1.0], "im": [0.0, 0.0]},
            {"n": 2, "re": [True, False], "im": [0.0, 0.0]},
            # Python's JSON reader accepts these literals; the decoder must not
            json.loads('{"n": 2, "re": [NaN, 1.0], "im": [0.0, 0.0]}'),
            json.loads('{"n": 2, "re": [1.0, -Infinity], "im": [0.0, 0.0]}'),
        ],
    )
    def test_rejects_malformed(self, obj):
        with pytest.raises(InputFormatError):
            complex_vector_from_json(obj)


class TestGroupElement:
    def test_encoding(self):
        # written by `verify` only; no command reads a group element back
        obj = group_element_to_json(GroupElement(5, 1, 2, 3))
        assert obj == {"N": 5, "k": 1, "n": 2, "m": 3}


class TestInvariantBundle:
    def test_round_trip(self):
        inv = heisenberg_invariants(sample_random_signal(5, 3))
        obj = invariants_to_json(inv)
        back = invariants_from_json(obj)
        assert back.n == inv.n
        np.testing.assert_allclose(back.bm, inv.bm, rtol=0, atol=0)
        np.testing.assert_allclose(back.bfm, inv.bfm, rtol=0, atol=0)
        assert back.power_sum == inv.power_sum

    def test_schema_keys(self):
        inv = heisenberg_invariants(sample_random_signal(3, 4))
        obj = invariants_to_json(inv)
        assert set(obj) == {"n", "bm", "bfm", "iN"}
        assert set(obj["iN"]) == {"re", "im"}
        assert set(obj["bm"]) == set(obj["bfm"]) == {"dtype", "data"}
        assert obj["bm"]["dtype"] == obj["bfm"]["dtype"] == "<c16"
        # one entry B[a, b] per canonical triple (a, b, c), in lexicographic
        # order: (0, 0, 0), (0, 1, 2) and (1, 1, 1) at N = 3, as the bytes
        # of little-endian complex128 values
        rows, cols = [0, 0, 1], [0, 1, 1]
        for field in ("bm", "bfm"):
            expected = getattr(inv, field)[rows, cols].astype("<c16").tobytes()
            assert base64.b64decode(obj[field]["data"]) == expected
        assert len(bundle_orbit_values(obj, "bm")) == 3

    def test_packed_round_trip_is_exact(self):
        sizes = [*range(1, 129), 129, 256]
        bundles = [heisenberg_invariants(sample_random_signal(n, 700 + n)) for n in sizes]
        # a bundle whose orbit values are the four signed-zero complex numbers
        zeros = np.array([complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)])
        assert _orbit_count(4) == len(zeros)
        bm, bfm = reference_scatter(zeros, 4), reference_scatter(zeros[::-1], 4)
        bundles.append(HeisenbergInvariants.from_matrices(bm, bfm, complex(-0.0, -0.0)))
        for inv in bundles:
            back = invariants_from_json(json.loads(json.dumps(invariants_to_json(inv))))
            for field in ("bm", "bfm"):
                assert getattr(back, field).tobytes() == getattr(inv, field).tobytes(), inv.n
            assert np.array([back.power_sum]).tobytes() == np.array([inv.power_sum]).tobytes()

    def test_bundle_text_is_pinned(self):
        # the JSON text of 64 bundles, byte for byte as the N x N matrix
        # storage wrote it before the bundle held orbit values
        digest = hashlib.sha256()
        for n in range(1, 65):
            inv = heisenberg_invariants(sample_random_signal(n, 700 + n))
            digest.update(json.dumps(invariants_to_json(inv)).encode())
        assert digest.hexdigest() == (
            "7aa0ac049e7ad82e12ae92a4cc4eaf7fcd8b1b3eade06551bc3f31c989d370af"
        )

    def test_full_layout_rejected(self):
        # the whole N x N matrix, the upper triangle and the orbit lists of
        # {"re": [...], "im": [...]} that older bundles stored are input errors
        inv = heisenberg_invariants(sample_random_signal(5, 4))
        orbit = bundle_orbit_values(invariants_to_json(inv), "bm")
        for packed in (inv.bm, inv.bm[np.triu_indices(5)], orbit):
            obj = invariants_to_json(inv)
            obj["bm"] = {"re": packed.real.tolist(), "im": packed.imag.tolist()}
            with pytest.raises(InputFormatError, match=r"symmetry orbit: missing field 'dtype'"):
                invariants_from_json(obj)

    @pytest.mark.parametrize("field", ["bm", "bfm"])
    def test_asymmetric_matrix_not_written(self, field):
        # not a real bispectrum: B[2, 1] leaves the value of its transpose,
        # or B[2, 2] the conjugate of B[1, 1], the entry of the negated
        # triple; such a matrix cannot enter a bundle, so no file holds it
        inv = heisenberg_invariants(sample_random_signal(3, 4))
        off_transpose, off_conjugate = (getattr(inv, field).copy() for _ in range(2))
        off_transpose[2, 1] *= 1.5
        off_conjugate[2, 2] = off_conjugate[1, 1]
        for matrix in (off_transpose, off_conjugate):
            matrices = {"bm": inv.bm, "bfm": inv.bfm, field: matrix}
            with pytest.raises(ValueError, match=f"{field} differs within a symmetry orbit"):
                HeisenbergInvariants.from_matrices(**matrices, power_sum=inv.power_sum)

    def test_header_order_beyond_the_entries(self):
        # the entry count is checked against the header before any table of
        # that order is built: an N = 1e6 table would take about 155 GiB
        obj = invariants_to_json(heisenberg_invariants(sample_random_signal(5, 4)))
        obj["n"] = 10**6
        before = _orbit_plan.cache_info()
        with pytest.raises(InputFormatError, match=r"\(bm\), one entry per symmetry orbit"):
            invariants_from_json(obj)
        assert _orbit_plan.cache_info() == before

    def test_rejects_ragged_matrix(self):
        # the packed bytes stop halfway through the last value
        obj = invariants_to_json(heisenberg_invariants(sample_random_signal(3, 4)))
        raw = base64.b64decode(obj["bm"]["data"])
        obj["bm"]["data"] = base64.b64encode(raw[:-8]).decode("ascii")
        with pytest.raises(InputFormatError, match=r"3 complex128 values \(48 bytes\), not 40"):
            invariants_from_json(obj)

    @pytest.mark.parametrize("field", ["bm", "bfm"])
    @pytest.mark.parametrize("case", MALFORMED_PACKED_FIELDS)
    def test_rejects_malformed_packed_field(self, case, field):
        obj = invariants_to_json(heisenberg_invariants(sample_random_signal(5, 4)))
        MALFORMED_PACKED_FIELDS[case](obj, field)
        with pytest.raises(InputFormatError, match=rf"\({field}\), one entry per symmetry orbit"):
            invariants_from_json(obj)

    @pytest.mark.parametrize("value", [True, 10**400], ids=["bool", "huge-int"])
    def test_rejects_non_number_power_sum(self, value):
        obj = invariants_to_json(heisenberg_invariants(sample_random_signal(3, 4)))
        obj["iN"]["re"] = value
        with pytest.raises(InputFormatError):
            invariants_from_json(obj)

    @pytest.mark.parametrize("value", [3, -2.5, -0.0], ids=["int", "float", "minus-zero"])
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_power_sum_part_decodes_exactly(self, part, value):
        obj = invariants_to_json(heisenberg_invariants(sample_random_signal(3, 4)))
        obj["iN"][part] = value
        power = invariants_from_json(json.loads(json.dumps(obj))).power_sum
        decoded = power.real if part == "re" else power.imag
        assert type(power) is complex
        assert np.array([decoded]).tobytes() == np.array([float(value)]).tobytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("true", " must hold numbers of shape ()"),
            ('"1.0"', " must hold numbers of shape ()"),
            ("null", " must hold numbers of shape ()"),
            ("[1.0]", " must hold numbers of shape ()"),
            ("1" + "0" * 400, ": int too large to convert to float"),
            ("NaN", " must be finite"),
            ("Infinity", " must be finite"),
            ("-Infinity", " must be finite"),
        ],
        ids=["bool", "string", "null", "list", "huge-int", "nan", "infinity", "minus-infinity"],
    )
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_power_sum_part_messages(self, part, text, message):
        # Python's json reads the NaN and Infinity tokens as floats
        obj = invariants_to_json(heisenberg_invariants(sample_random_signal(3, 4)))
        obj["iN"][part] = json.loads(text)
        with pytest.raises(InputFormatError) as error:
            invariants_from_json(obj)
        assert str(error.value) == f"invariant bundle (iN): field {part!r}{message}"


class TestWeightedInvariants:
    def test_round_trip(self):
        inv = weighted_invariants(np.array([1.0, 2.0], dtype=complex))
        obj = weighted_invariants_to_json(inv)
        assert set(obj) == {"n", "r", "a"}
        back = weighted_invariants_from_json(obj)
        assert back == inv

    def test_rejects_wrong_chain_length(self):
        with pytest.raises(InputFormatError):
            weighted_invariants_from_json({"n": 2, "r": 1.0, "a": [{"re": 1, "im": 0}]})

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": 1, "r": "1.0", "a": [{"re": 1.0, "im": 0.0}]},
            {"n": 1, "r": True, "a": [{"re": 1.0, "im": 0.0}]},
            {"n": 1, "r": 1.0, "a": [{"re": True, "im": 0.0}]},
        ],
    )
    def test_rejects_non_number_values(self, obj):
        with pytest.raises(InputFormatError):
            weighted_invariants_from_json(obj)

    def test_rejects_negative_weight(self):
        # the dataclass's ValueError surfaces as a format error
        obj = {"n": 1, "r": -1.0, "a": [{"re": 1.0, "im": 0.0}]}
        with pytest.raises(InputFormatError, match="squared modulus"):
            weighted_invariants_from_json(obj)


class TestFiles:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "x.json"
        x = sample_random_signal(4, 9)
        dump_json(complex_vector_to_json(x), path)
        np.testing.assert_array_equal(complex_vector_from_json(load_json(path)), x)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 4, "re": [1.0')
        with pytest.raises(InputFormatError):
            load_json(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputFormatError):
            load_json(tmp_path / "absent.json")
