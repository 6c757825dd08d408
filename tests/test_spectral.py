"""Transforms, shifts, roots, and sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenberg_orbits import (
    DEFAULT_RECOVERY_TOL,
    cyclic_shift,
    dft,
    dft_matrix,
    idft,
    max_relative_deviation,
    principal_nth_root,
    sample_random_signal,
)
from heisenberg_orbits.spectral import CONSISTENCY_TOL, _consistent, _unit_scaled, checked_tolerance


def kernel_dft(x):
    """Independent oracle: direct evaluation of the transform kernel."""
    x = np.asarray(x, dtype=complex)
    n = len(x)
    return np.array(
        [sum(x[j] * np.exp(-2j * np.pi * j * k / n) for j in range(n)) for k in range(n)]
    )


class TestDft:
    def test_delta_to_constant(self):
        np.testing.assert_allclose(dft([1, 0, 0, 0]), np.ones(4), atol=1e-12)

    def test_constant_to_delta(self):
        np.testing.assert_allclose(dft([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-12)

    def test_n2_values_and_modulation_law(self):
        # direct kernel evaluation gives (3, -1); modulating by the primitive
        # root (-1)**j then transforms to a cyclic shift of the spectrum
        np.testing.assert_allclose(dft([1, 2]), [3, -1], atol=1e-12)
        np.testing.assert_allclose(dft([1, -2]), [-1, 3], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    def test_matches_direct_kernel(self, n):
        x = sample_random_signal(n, 17 + n)
        np.testing.assert_allclose(dft(x), kernel_dft(x), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 7, 12])
    def test_real_input_conjugate_symmetry(self, n):
        y = np.random.default_rng(n).standard_normal(n)
        Y = dft(y)
        for k in range(1, n):
            assert abs(Y[(n - k) % n] - np.conj(Y[k])) < 1e-12

    def test_dft_matrix_agrees(self):
        x = sample_random_signal(9, 5)
        np.testing.assert_allclose(dft_matrix(9) @ x, dft(x), rtol=1e-12, atol=1e-12)


class TestIdft:
    def test_trivial_cases(self):
        np.testing.assert_allclose(idft([4, 0, 0, 0]), np.ones(4), atol=1e-12)
        np.testing.assert_allclose(idft([1, 1, 1, 1]), [1, 0, 0, 0], atol=1e-12)

    def test_round_trip(self):
        x = sample_random_signal(7, 3)
        rel = np.linalg.norm(idft(dft(x)) - x) / np.linalg.norm(x)
        assert rel < 1e-12

    @pytest.mark.parametrize("n", range(2, 17))
    def test_parseval(self, n):
        x = sample_random_signal(n, n + 100)
        lhs = np.sum(np.abs(x) ** 2)
        rhs = np.sum(np.abs(dft(x)) ** 2) / n
        assert abs(lhs - rhs) <= 1e-9 * lhs


class TestCyclicShift:
    def test_basic(self):
        np.testing.assert_array_equal(
            cyclic_shift(np.array([1, 2, 3, 4]), 1), [2, 3, 4, 1]
        )

    def test_identity_and_inverse(self):
        v = sample_random_signal(6, 0)
        np.testing.assert_array_equal(cyclic_shift(v, 0), v)
        np.testing.assert_array_equal(cyclic_shift(cyclic_shift(v, 2), 4), v)

    def test_preserves_real_dtype(self):
        v = np.arange(5.0)
        assert cyclic_shift(v, 3).dtype == np.float64

    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_shift_modulation_duality_all_shifts(self, n):
        x = sample_random_signal(n, n)
        m = np.arange(n)
        for k in range(n):
            lhs = dft(cyclic_shift(x, k))
            rhs = np.exp(2j * np.pi * k * m / n) * dft(x)
            assert max_relative_deviation(lhs, rhs) < 1e-9


class TestPrincipalNthRoot:
    def test_examples(self):
        assert abs(principal_nth_root(1, 4) - 1) < 1e-12
        assert abs(principal_nth_root(-1, 2) - 1j) < 1e-12
        assert abs(principal_nth_root(8, 3) - 2) < 1e-12

    def test_angle_just_below_zero(self):
        # np.angle(c) % (2*pi) rounds these up to 2*pi, whose root 1j has
        # argument 2*pi/4, outside [0, 2*pi/4)
        assert abs(principal_nth_root(1 - 1e-17j, 4) - 1) < 1e-12
        assert abs(principal_nth_root(1 - 1e-300j, 4) - 1) < 1e-12

    def test_zero_input(self):
        # callers judge c against the genericity floor; the root itself is
        # taken of any c, so r = 0 for c = 0 and a tiny c keeps its branch
        assert principal_nth_root(0, 3) == 0
        r = principal_nth_root(1e-12, 5)
        assert abs(r ** 5 - 1e-12) <= 1e-12 * 1e-12
        assert 0 <= np.angle(r) % (2 * np.pi) < 2 * np.pi / 5

    @given(
        st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_root_property_and_branch(self, c, n):
        r = principal_nth_root(c, n)
        assert abs(r ** n - c) <= 1e-9 * abs(c)
        assert 0 <= np.angle(r) % (2 * np.pi) < 2 * np.pi / n + 1e-12


class TestSampler:
    def test_deterministic(self):
        np.testing.assert_array_equal(
            sample_random_signal(5, 42), sample_random_signal(5, 42)
        )

    def test_seed_sensitivity(self):
        assert not np.allclose(sample_random_signal(5, 42), sample_random_signal(5, 43))


class TestUnitScaled:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("scale", [2.0**-600, 1e-300, 1.0, 3.7, 2.0**600, 1e300])
    def test_exact_unit_in_the_input_dtype(self, dtype, scale):
        rng = np.random.default_rng(7)
        # an odd total length, which a float64 result viewed as complex cannot have
        vectors = [scale * rng.standard_normal(n) for n in (3, 4)]
        if dtype is np.complex128:
            vectors = [v + 1j * scale * rng.standard_normal(len(v)) for v in vectors]
        scaled, e = _unit_scaled(*vectors)
        assert scaled.dtype == dtype and len(scaled) == 7
        parts = scaled.view(np.float64)
        assert 0.5 <= np.abs(parts).max() < 1.0
        joined = np.concatenate(vectors)
        assert np.ldexp(parts, e).tobytes() == joined.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_zero_vector(self, dtype):
        scaled, e = _unit_scaled(np.zeros(3, dtype))
        assert e == 0 and scaled.dtype == dtype and not scaled.any()


# (p, q, verdict) at tol 2**-10, where both band edges are exact in floats
CONSISTENCY_TABLE = {
    "equal": (3.0, 3.0, True),
    "both-zero": (0.0, 0.0, True),
    "modulus-of-complex": (1024j, -1023.0, True),
    "lower-edge": (1024.0, 1023.0, True),
    "below-lower-edge": (1024.0, np.nextafter(1023.0, 0.0), False),
    "upper-edge": (1023.0, 1024.0, True),
    "above-upper-edge": (1023.0, np.nextafter(1024.0, math.inf), False),
    "nan": (math.nan, 1.0, False),
    "nan-both": (math.nan, math.nan, False),
    "inf": (math.inf, 1.0, False),
    "inf-both": (math.inf, math.inf, False),
    "zero-against-one": (0.0, 1.0, False),
    # abs() of this value raises OverflowError; np.abs gives inf
    "complex-past-float-range": (complex(1.5e308, 1.5e308), complex(1.5e308, 1.5e308), False),
    "complex-past-float-range-against-max": (complex(1.5e308, 1.5e308), 1.7e308, False),
}


class TestConsistent:
    @pytest.mark.parametrize("p, q, verdict", CONSISTENCY_TABLE.values(), ids=CONSISTENCY_TABLE)
    def test_table_both_ways(self, p, q, verdict):
        assert _consistent(p, q, 2.0**-10) is verdict
        assert _consistent(q, p, 2.0**-10) is verdict

    def test_default_tolerance(self):
        assert CONSISTENCY_TOL == 1e-6
        assert _consistent(1.0, 1.0 + 0.5e-6)
        assert not _consistent(1.0, 1.0 + 2e-6)


class TestCheckedTolerance:
    def test_default(self):
        # the recovery tolerance is the one knob; genericity is a constant
        assert checked_tolerance(DEFAULT_RECOVERY_TOL) == 1e-6
        assert type(checked_tolerance(1)) is float

    @pytest.mark.parametrize(
        "tol", [0.0, -1.0, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"]
    )
    def test_rejects(self, tol):
        # nan and inf would accept any distance
        with pytest.raises(ValueError, match="finite and strictly positive"):
            checked_tolerance(tol)
