"""Invariant features: bispectra, power sum, genericity, distances."""

import numpy as np
import pytest

from heisenberg_orbits import (
    HeisenbergInvariants,
    OrderMismatch,
    act,
    bispectra_distance,
    dft,
    enumerate_group,
    fourier_modulus_bispectrum,
    fourier_modulus_vector,
    heisenberg_invariants,
    invariant_distance,
    is_generic,
    modulus_bispectrum,
    modulus_vector,
    power_invariant,
    sample_random_signal,
    unitary_bispectrum,
)

from helpers import generic_signal


class TestMagnitudeVectors:
    def test_modulus_examples(self):
        np.testing.assert_allclose(modulus_vector([1, 1j, -1]), [1, 1, 1])
        np.testing.assert_allclose(modulus_vector([2, 1j, 1]), [4, 1, 1])
        np.testing.assert_allclose(modulus_vector([0, 0, 0, 0]), np.zeros(4))

    def test_fourier_modulus_examples(self):
        np.testing.assert_allclose(fourier_modulus_vector([1, 0, 0, 0]), np.ones(4))
        np.testing.assert_allclose(
            fourier_modulus_vector([1, 1, 1, 1]), [16, 0, 0, 0], atol=1e-12
        )

    def test_fourier_modulus_permutes_under_modulation(self):
        # modulating by n cyclically permutes the squared Fourier moduli
        x = sample_random_signal(6, 4)
        z = fourier_modulus_vector(x)
        from heisenberg_orbits import GroupElement

        for n in range(6):
            zn = fourier_modulus_vector(act(GroupElement(6, 0, n, 0), x))
            np.testing.assert_allclose(zn, np.roll(z, n), rtol=1e-9, atol=1e-12)


class TestUnitaryBispectrum:
    def test_all_ones(self):
        B = unitary_bispectrum(np.ones(5, dtype=complex))
        np.testing.assert_allclose(B, np.ones((5, 5)))

    def test_single_tone(self):
        c = 2.0 + 1.0j
        V = np.zeros(4, dtype=complex)
        V[0] = c
        B = unitary_bispectrum(V)
        assert abs(B[0, 0] - abs(c) ** 2 * c) < 1e-12
        assert np.max(np.abs(B.flatten()[1:])) == 0

    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_real_vector_form(self, n):
        # for spectra of real vectors the conjugate form equals the
        # index-reflection form entrywise
        y = np.random.default_rng(n).standard_normal(n)
        V = dft(y)
        B = unitary_bispectrum(V)
        for i in range(n):
            for j in range(n):
                expected = V[i] * V[j] * V[(n - i - j) % n]
                assert abs(B[i, j] - expected) < 1e-9 * max(abs(expected), 1.0)

    def test_symmetry_for_real_inputs(self):
        y = np.random.default_rng(9).standard_normal(7)
        B = unitary_bispectrum(dft(y))
        np.testing.assert_allclose(B, B.T, rtol=1e-12, atol=1e-12)


class TestModulusBispectrum:
    def test_worked_entry(self):
        # x = (2, i, 1) has squared moduli (4, 1, 1) with spectrum (6, 3, 3)
        B = modulus_bispectrum(np.array([2, 1j, 1]))
        assert abs(B[1, 1] - 27) < 1e-12

    def test_single_tone_flat(self):
        c = 3.0
        x = np.zeros(5, dtype=complex)
        x[0] = c
        B = modulus_bispectrum(x)
        np.testing.assert_allclose(B, np.full((5, 5), abs(c) ** 6), rtol=1e-12)

    def test_invariance_h3(self):
        x = np.array([2, 1j, 1])
        B = modulus_bispectrum(x)
        for g in enumerate_group(3):
            Bg = modulus_bispectrum(act(g, x))
            assert np.max(np.abs(Bg - B)) < 1e-9


class TestFourierModulusBispectrum:
    def test_delta_case(self):
        B = fourier_modulus_bispectrum(np.array([1, 0, 0, 0], dtype=complex))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 64
        np.testing.assert_allclose(B, expected, atol=1e-9)

    def test_invariance_h4(self):
        x = sample_random_signal(4, 6)
        B = fourier_modulus_bispectrum(x)
        scale = np.max(np.abs(B))
        for g in enumerate_group(4):
            Bg = fourier_modulus_bispectrum(act(g, x))
            assert np.max(np.abs(Bg - B)) < 1e-9 * scale

    def test_equals_modulus_bispectrum_of_spectrum(self):
        # under the fixed transform convention the identity is exact
        x = sample_random_signal(6, 7)
        lhs = fourier_modulus_bispectrum(x)
        rhs = modulus_bispectrum(dft(x))
        scale = np.max(np.abs(lhs))
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


class TestPowerInvariant:
    def test_delta(self):
        assert abs(power_invariant([1, 0, 0, 0]) - 1) < 1e-15

    def test_cube_roots(self):
        omega = np.exp(2j * np.pi / 3)
        assert abs(power_invariant([1, 1, omega]) - 3) < 1e-12

    @pytest.mark.parametrize("n", range(2, 7))
    def test_group_invariance(self, n):
        x = sample_random_signal(n, 40 + n)
        value = power_invariant(x)
        for g in enumerate_group(n):
            assert abs(power_invariant(act(g, x)) - value) < 1e-9 * max(abs(value), 1.0)


class TestBundle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_full_invariance(self, n):
        for s in range(5):
            x = sample_random_signal(n, 1000 * n + s)
            inv = heisenberg_invariants(x)
            for g in enumerate_group(n):
                assert invariant_distance(inv, heisenberg_invariants(act(g, x))) <= 1e-9

    def test_bispectra_blind_to_any_phase(self):
        x = generic_signal(5, 71)
        inv = heisenberg_invariants(x)
        rotated = heisenberg_invariants(np.exp(0.7j) * x)
        assert bispectra_distance(inv, rotated) <= 1e-9

    def test_power_sum_sees_offbeat_phase(self):
        x = generic_signal(5, 72)
        inv = heisenberg_invariants(x)
        rotated = heisenberg_invariants(np.exp(1j * np.pi / 10) * x)
        assert abs(rotated.power_sum - inv.power_sum) > 1e-3 * abs(inv.power_sum)

    @pytest.mark.parametrize("field", ["bm", "bfm", "power_sum"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, field, bad):
        # a nan would slip past every `distance > tol` screen of a recovery
        inv = heisenberg_invariants(generic_signal(5, 205))
        values = {"bm": inv.bm.copy(), "bfm": inv.bfm.copy(), "power_sum": inv.power_sum}
        if field == "power_sum":
            values[field] = complex(bad)
        else:
            values[field][2, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            HeisenbergInvariants(n=5, **values)

    @pytest.mark.parametrize("n", [3, 5])
    def test_degree_homogeneity(self, n):
        x = sample_random_signal(n, 50 + n)
        c = 1.7
        inv = heisenberg_invariants(x)
        scaled = heisenberg_invariants(c * x)
        np.testing.assert_allclose(scaled.bm, c ** 6 * inv.bm, rtol=1e-9)
        np.testing.assert_allclose(scaled.bfm, c ** 6 * inv.bfm, rtol=1e-9)
        assert abs(scaled.power_sum - c ** n * inv.power_sum) < 1e-9 * abs(
            c ** n * inv.power_sum
        )


class TestGenericity:
    def test_all_ones_fails(self):
        report = is_generic(np.ones(4, dtype=complex))
        assert not report
        assert report.modulus_failures  # flat squared moduli kill the spectrum

    def test_delta_fails(self):
        report = is_generic(np.array([1, 0, 0, 0], dtype=complex))
        assert not report
        assert report.fourier_modulus_failures

    def test_monte_carlo(self):
        hits = sum(
            bool(is_generic(sample_random_signal(8, seed), 1e-8))
            for seed in range(100)
        )
        assert hits >= 99


class TestInvariantDistance:
    def test_zero_on_self(self):
        inv = heisenberg_invariants(sample_random_signal(4, 9))
        assert invariant_distance(inv, inv) == 0.0

    def test_small_on_orbit(self):
        x = sample_random_signal(5, 60)
        inv = heisenberg_invariants(x)
        from heisenberg_orbits import GroupElement

        moved = heisenberg_invariants(act(GroupElement(5, 1, 2, 3), x))
        assert invariant_distance(inv, moved) <= 1e-9

    def test_positive_on_scaling(self):
        x = sample_random_signal(5, 61)
        assert invariant_distance(
            heisenberg_invariants(x), heisenberg_invariants(2 * x)
        ) > 0

    def test_dimension_mismatch(self):
        a = heisenberg_invariants(sample_random_signal(4, 1))
        b = heisenberg_invariants(sample_random_signal(5, 1))
        with pytest.raises(OrderMismatch):
            invariant_distance(a, b)


class TestWorkedExampleN3:
    """The printed cubic expressions match the transform-side quantities."""

    def test_expressions(self):
        x = generic_signal(3, 123)
        zeta = np.exp(-2j * np.pi / 3)
        y = x * np.conj(x)
        X = dft(x)
        zvec = X * np.conj(X)

        yhat = dft(modulus_vector(x))
        zhat = dft(fourier_modulus_vector(x))

        f1 = y[0] + zeta * y[1] + zeta ** 2 * y[2]
        f2 = y[0] + zeta ** 2 * y[1] + zeta * y[2]
        h1 = zvec[0] + zeta * zvec[1] + zeta ** 2 * zvec[2]
        h2 = zvec[0] + zeta ** 2 * zvec[1] + zeta * zvec[2]

        checks = [
            (y[0] + y[1] + y[2], yhat[0]),
            (f1 * f2, yhat[1] * yhat[2]),
            (f1 ** 3, yhat[1] ** 3),
            (zvec[0] + zvec[1] + zvec[2], zhat[0]),
            (h1 * h2, zhat[1] * zhat[2]),
            (h1 ** 3, zhat[1] ** 3),
        ]
        for printed, computed in checks:
            assert abs(printed - computed) <= 1e-12 * max(abs(computed), 1.0)

        assert abs(modulus_bispectrum(x)[1, 1] - yhat[1] ** 3) <= 1e-12 * abs(
            yhat[1] ** 3
        )
        assert abs(fourier_modulus_bispectrum(x)[1, 1] - zhat[1] ** 3) <= 1e-12 * abs(
            zhat[1] ** 3
        )
