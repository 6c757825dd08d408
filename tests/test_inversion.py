"""Bispectrum inversion round trips and failure modes."""

import numpy as np
import pytest

from heisenberg_orbits import (
    InconsistentInvariants,
    NonGenericInput,
    dft,
    fourier_modulus_bispectrum,
    invert_bispectrum,
    invert_real_bispectrum,
    is_generic,
    modulus_bispectrum,
    modulus_vector,
    recover_cyclic_orbit,
    sample_random_signal,
    unitary_bispectrum,
)

from helpers import generic_real_signal, generic_signal, min_shift_distance

FLOOR = 1e-8


def with_small_pair(modulus):
    """A real vector whose one conjugate pair of coefficients has the given modulus."""
    spectrum = dft(generic_real_signal(9, 74))
    spectrum[2] *= modulus / abs(spectrum[2])
    spectrum[7] = np.conj(spectrum[2])
    return np.fft.ifft(spectrum).real


def turned_magnitude_entry():
    """A real-vector bispectrum with B[1, 0], a squared magnitude, turned off the real axis."""
    B = unitary_bispectrum(dft(generic_real_signal(5, 70)))
    B[1, 0] *= np.exp(0.01j)
    return B


class TestInvertBispectrum:
    def test_all_ones_delta(self):
        result = invert_bispectrum(np.ones((4, 4), dtype=complex))
        np.testing.assert_allclose(result.spectrum, np.ones(4), atol=1e-12)
        np.testing.assert_allclose(result.signal, [1, 0, 0, 0], atol=1e-12)

    def test_real_round_trip_up_to_shift(self):
        y = generic_real_signal(7, 70)
        B = unitary_bispectrum(dft(y))
        result = invert_bispectrum(B)
        assert min_shift_distance(y, result.signal.real) <= 1e-8 * np.linalg.norm(y)

    def test_flat_signal_rejected(self):
        # constant vectors have vanishing spectrum away from zero frequency
        B = unitary_bispectrum(dft(np.ones(5, dtype=complex)))
        with pytest.raises(NonGenericInput):
            invert_bispectrum(B)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_complex_round_trip_up_to_modulation(self, n):
        V = dft(sample_random_signal(n, 200 + n))
        assert np.min(np.abs(V)) > 1e-3
        result = invert_bispectrum(unitary_bispectrum(V))
        k = np.arange(n)
        best = min(
            np.linalg.norm(result.spectrum - V * np.exp(2j * np.pi * k * m / n))
            for m in range(n)
        )
        assert best <= 1e-8 * np.linalg.norm(V)

    def test_residual_self_consistency(self):
        y = generic_real_signal(9, 71)
        result = invert_bispectrum(unitary_bispectrum(dft(y)))
        assert result.residual <= 1e-9

    def test_residual_bound_enforced(self):
        B = unitary_bispectrum(dft(generic_real_signal(5, 72)))
        corrupted = B.copy()
        corrupted[3, 2] *= np.exp(0.5j)  # off the consumed row and column
        assert invert_bispectrum(corrupted).residual > 1e-6

    def test_complex_squared_magnitude_rejected(self):
        # B[k, 0] / V[0] estimates |V[k]|**2, which must be real
        with pytest.raises(InconsistentInvariants, match=r"not real at indices \[1\]"):
            invert_bispectrum(turned_magnitude_entry())

    def test_zero_leading_entry(self):
        B = np.zeros((4, 4), dtype=complex)
        with pytest.raises(NonGenericInput):
            invert_bispectrum(B)


class TestGenericityFloor:
    """The inversion floors |V[k]| exactly as is_generic does."""

    def test_generic_input_inverts(self):
        # |dft(y)[16]| = 3.2e-5: above the floor, but its square is not
        x = generic_signal(32, 1916962712)
        assert is_generic(x, FLOOR)
        y = invert_real_bispectrum(modulus_bispectrum(x))
        truth = modulus_vector(x)
        assert min_shift_distance(truth, y) <= 1e-8 * np.linalg.norm(truth)

    @pytest.mark.parametrize(
        "invert",
        [
            lambda y: invert_real_bispectrum(unitary_bispectrum(dft(y))),
            recover_cyclic_orbit,
        ],
        ids=["invert_real_bispectrum", "recover_cyclic_orbit"],
    )
    def test_pair_at_the_floor(self, invert):
        y = with_small_pair(10 * FLOOR)
        assert min_shift_distance(y, invert(y)) <= 1e-8 * np.linalg.norm(y)
        with pytest.raises(NonGenericInput):
            invert(with_small_pair(FLOOR / 10))


class TestInvertRealBispectrum:
    def test_modulus_bispectrum_of_fixture(self):
        x = np.array([2, 1j, 1])
        y = invert_real_bispectrum(modulus_bispectrum(x))
        assert min_shift_distance(modulus_vector(x), y) <= 1e-9

    @pytest.mark.parametrize("n", [3, 6, 11])
    def test_round_trip(self, n):
        y = generic_real_signal(n, 300 + n)
        recovered = invert_real_bispectrum(unitary_bispectrum(dft(y)))
        assert min_shift_distance(y, recovered) <= 1e-8 * np.linalg.norm(y)

    def test_rejects_complex_signal_bispectrum(self):
        # a spectrum without conjugate symmetry comes from a complex signal
        V = dft(sample_random_signal(5, 88))
        with pytest.raises(InconsistentInvariants):
            invert_real_bispectrum(unitary_bispectrum(V))

    def test_shift_covariance(self):
        y = generic_real_signal(8, 73)
        base = invert_real_bispectrum(unitary_bispectrum(dft(y)))
        shifted = invert_real_bispectrum(
            unitary_bispectrum(dft(np.roll(y, -3)))
        )
        assert np.linalg.norm(base - shifted) <= 1e-9 * np.linalg.norm(y)


class TestRealInversionSkipsTheReplay:
    """invert_real_bispectrum is the march of invert_bispectrum without its replay."""

    def test_signal_is_the_full_inversion(self):
        for n in range(1, 41):
            y = generic_real_signal(n, 400 + n)
            x = generic_signal(n, 500 + n)
            bispectra = (
                unitary_bispectrum(dft(y)), modulus_bispectrum(x), fourier_modulus_bispectrum(x)
            )
            for B in bispectra:
                full = invert_bispectrum(B).signal.real
                assert invert_real_bispectrum(B).tobytes() == full.tobytes(), n

    @pytest.mark.parametrize(
        "make, error",
        [
            (lambda: np.ones((2, 3), complex), ValueError),
            (lambda: np.ones((0, 0), complex), ValueError),
            (lambda: [[np.nan]], ValueError),
            (lambda: [[np.inf]], ValueError),
            (lambda: np.zeros((4, 4), complex), NonGenericInput),
            (lambda: unitary_bispectrum(dft(np.ones(5, dtype=complex))), NonGenericInput),
            (lambda: unitary_bispectrum(dft(with_small_pair(FLOOR / 10))), NonGenericInput),
            (turned_magnitude_entry, InconsistentInvariants),
        ],
        ids=[
            "non-square", "empty", "nan", "inf", "zero-leading", "flat", "below-floor",
            "complex-magnitude",
        ],
    )
    def test_same_rejections(self, make, error):
        with pytest.raises(error) as full:
            invert_bispectrum(make())
        with pytest.raises(error) as real:
            invert_real_bispectrum(make())
        assert type(real.value) is type(full.value) and str(real.value) == str(full.value)
