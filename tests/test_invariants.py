"""Invariant features: bispectra, power sum, genericity, distances."""

import dataclasses
import itertools

import numpy as np
import pytest

from heisenberg_orbits import (
    HeisenbergInvariants,
    NonGenericInput,
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
    recover_orbit,
    sample_random_signal,
    unitary_bispectrum,
)
from heisenberg_orbits.invariants import (
    _PLAN_CACHE_ORDERS,
    _canonical_triples,
    _orbit_count,
    _orbit_plan,
    _scatter,
)
from heisenberg_orbits.serialization import invariants_from_json, invariants_to_json
from heisenberg_orbits.spectral import max_relative_deviation

from helpers import bundle_orbit_values, generic_signal, reference_scatter


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

    @pytest.mark.parametrize("scale", [2.0 ** e for e in range(-2, 3)])
    def test_symmetric_to_rounding(self, scale):
        # B[i, j] = B[j, i] to rounding, for complex and real-transform
        # spectra alike; only the bundle's real form is exactly symmetric
        rng = np.random.default_rng(int(4 * scale))
        for n in range(1, 65):
            for V in (
                scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
                scale * dft(rng.standard_normal(n)),
            ):
                B = unitary_bispectrum(V)
                np.testing.assert_allclose(B, B.T, rtol=1e-12, err_msg=str(n))


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


# sizes past 128 too, where numpy's transform rounds differently
REAL_BISPECTRUM_SIZES = [*range(1, 65), 100, 128, 129, 256]


def canonical_triples(n):
    """Sorted triples a <= b <= c, a + b + c = 0 (mod n), no larger than
    their sorted negation, in lexicographic order: the loop as written."""
    triples = []
    for a in range(n):
        for b in range(a, n):
            c = (-a - b) % n
            negated = sorted((-a % n, -b % n, -c % n))
            if c >= b and [a, b, c] <= negated:
                triples.append((a, b, c))
    return triples


def hermitian_spectrum(y):
    """numpy's half transform of the real y, mirrored: V[N - k] = conj(V[k])
    exactly, with V[0] and the Nyquist entry real."""
    n = len(y)
    half = np.fft.rfft(y)
    V = np.array([half[k] if k <= n // 2 else np.conj(half[n - k]) for k in range(n)])
    V[0] = V[0].real
    if n % 2 == 0:
        V[n // 2] = V[n // 2].real
    return V


class TestRealBispectrum:
    """bm and bfm hold one product per symmetry orbit of a real bispectrum."""

    def test_canonical_triple_is_the_formula(self):
        # the bundle stores, in triple order, V[a] * V[b] * V[c] bit for bit,
        # and its real part for the triples (0, b, -b) that negation fixes
        for n in REAL_BISPECTRUM_SIZES:
            x = sample_random_signal(n, 300 + n)
            obj = invariants_to_json(heisenberg_invariants(x))
            a, b, c = np.array(canonical_triples(n)).T
            for field, y in (("bm", modulus_vector(x)), ("bfm", fourier_modulus_vector(x))):
                V = hermitian_spectrum(y)
                # numpy's array product, whose rounding can differ from a
                # product of complex scalars
                values = V[a] * V[b] * V[c]
                values = np.where(a == 0, values.real, values)
                stored = bundle_orbit_values(obj, field)
                assert stored.tobytes() == values.tobytes(), (n, field)

    def test_twelve_symmetries_exact(self):
        # B[i, j] is the product over the triple (i, j, -i - j): every
        # ordered pair of the triple holds it, and every pair of the negated
        # triple its conjugate
        for n in REAL_BISPECTRUM_SIZES:
            inv = heisenberg_invariants(sample_random_signal(n, 900 + n))
            i = np.arange(n)[:, None]
            j = np.arange(n)[None, :]
            k = (-i - j) % n
            for B in (inv.bm, inv.bfm):
                for p, q in itertools.permutations((i, j, k), 2):
                    assert np.array_equal(B[p, q], B), n
                    assert np.array_equal(np.conj(B[-p % n, -q % n]), B), n

    def test_public_bispectra_are_the_bundle(self):
        for n in range(1, 65):
            x = sample_random_signal(n, 500 + n)
            inv = heisenberg_invariants(x)
            for public, stored in (
                (modulus_bispectrum(x), inv.bm),
                (fourier_modulus_bispectrum(x), inv.bfm),
            ):
                assert np.array_equal(public.view(np.int64), stored.view(np.int64)), n

    def test_matches_the_complex_formula(self):
        # the conjugate form of unitary_bispectrum agrees to rounding of the
        # two transforms (measured at most 2.8e-13, at N = 26)
        for n in REAL_BISPECTRUM_SIZES:
            x = sample_random_signal(n, 100 + n)
            inv = heisenberg_invariants(x)
            for B, y in ((inv.bm, modulus_vector(x)), (inv.bfm, fourier_modulus_vector(x))):
                assert max_relative_deviation(B, unitary_bispectrum(dft(y))) <= 1e-11, n


class TestOrbitPlan:
    """Each order's triple and index tables are built once and shared read-only."""

    def test_cached_plan_is_a_fresh_construction(self):
        for n in range(1, 71):
            plan, fresh = _orbit_plan(n), _orbit_plan.__wrapped__(n)
            for cached, built in zip(plan, fresh):
                assert np.array_equal(cached, built) and cached.dtype == built.dtype, n
            triples = np.array(canonical_triples(n)).T
            assert np.array_equal(plan.triples, triples) and len(triples[0]) == _orbit_count(n), n
            # position (i, j) holds the value of the canonical triple that
            # sorts (i, j, -i - j), else the conjugate of the one that sorts
            # its negation
            index = {tuple(t): k for k, t in enumerate(triples.T.tolist())}
            gather = []
            for i, j in itertools.product(range(n), repeat=2):
                t = tuple(sorted((i, j, (-i - j) % n)))
                negated = tuple(sorted(-v % n for v in t))
                gather.append(index[t] if t in index else len(index) + index[negated])
            assert np.array_equal(plan.gather, gather), n
            assert np.array_equal(plan.fixed, triples[0] == 0), n
    def test_tables_are_read_only(self):
        plan = _orbit_plan(12)
        for array in (*plan, _canonical_triples(12), _canonical_triples(12)[0]):
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = array.flat[0]

    def test_one_build_per_order(self):
        assert _orbit_plan(9) is _orbit_plan(9)
        assert _canonical_triples(9) is _canonical_triples(9)
        assert _orbit_plan(9).gather is _orbit_plan(9).gather

    def test_gather_is_the_two_assignment_scatter(self):
        # one gather through the plan's table, byte for byte the scatter
        # that writes the negated positions and then the forward ones
        for n in [*range(1, 71), 128]:
            rng = np.random.default_rng(n)
            count = _orbit_count(n)
            values = rng.standard_normal(count) + 1j * rng.standard_normal(count)
            assert _scatter(values, n).tobytes() == reference_scatter(values, n).tobytes(), n

    def test_cache_size_is_fixed(self):
        for n in range(1, 3 * _PLAN_CACHE_ORDERS):
            heisenberg_invariants(sample_random_signal(n, n))
        info = _orbit_plan.cache_info()
        assert info.maxsize == _PLAN_CACHE_ORDERS and info.currsize <= _PLAN_CACHE_ORDERS


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
            HeisenbergInvariants.from_matrices(**values)

    @pytest.mark.parametrize("field", ["bm_values", "bfm_values", "power_sum"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_rejected(self, field, bad):
        inv = heisenberg_invariants(generic_signal(5, 205))
        value = complex(bad) if field == "power_sum" else np.append(getattr(inv, field)[1:], bad)
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(inv, **{field: value})

    @pytest.mark.parametrize("field", ["bm_values", "bfm_values"])
    def test_values_of_the_wrong_length_rejected(self, field):
        inv = heisenberg_invariants(generic_signal(5, 205))
        values = getattr(inv, field)
        assert len(values) == _orbit_count(5) == 5
        for wrong in (values[:-1], np.append(values, values[0]), values.reshape(1, -1)):
            with pytest.raises(ValueError, match="must hold 5 orbit values each"):
                dataclasses.replace(inv, **{field: wrong})
        # 6 has 7 canonical triples, so the values of order 5 do not fit it
        with pytest.raises(ValueError, match="order 6 must hold 7 orbit values"):
            dataclasses.replace(inv, n=6)

    @pytest.mark.parametrize("n", [0, 5.0, True])
    def test_order_is_an_integer_of_at_least_one(self, n):
        inv = heisenberg_invariants(generic_signal(5, 205))
        with pytest.raises(ValueError, match="bundle order"):
            dataclasses.replace(inv, n=n)

    def test_matrices_are_the_scatter_of_the_values(self):
        for n in [*range(1, 65), 128]:
            inv = heisenberg_invariants(sample_random_signal(n, 600 + n))
            assert inv.n == n and len(inv.bm_values) == len(inv.bfm_values) == _orbit_count(n)
            assert inv.bm.tobytes() == reference_scatter(inv.bm_values, n).tobytes(), n
            assert inv.bfm.tobytes() == reference_scatter(inv.bfm_values, n).tobytes(), n

    def test_from_matrices_keeps_every_bit(self):
        for n in range(1, 33):
            inv = heisenberg_invariants(sample_random_signal(n, 600 + n))
            back = HeisenbergInvariants.from_matrices(inv.bm, inv.bfm, inv.power_sum)
            assert back.bm_values.tobytes() == inv.bm_values.tobytes(), n
            assert back.bfm_values.tobytes() == inv.bfm_values.tobytes(), n
            assert back.power_sum == inv.power_sum

    @pytest.mark.parametrize("way", ["heisenberg_invariants", "from_matrices", "file", "replace"])
    def test_stored_values_are_read_only_copies(self, way):
        # a nan written into a stored vector would pass every `distance > tol` screen
        x = generic_signal(5, 205)
        honest = heisenberg_invariants(x)
        bm_values = honest.bm_values.copy()
        inv = {
            "heisenberg_invariants": lambda: heisenberg_invariants(x),
            "from_matrices": lambda: HeisenbergInvariants.from_matrices(
                honest.bm, honest.bfm, honest.power_sum
            ),
            "file": lambda: invariants_from_json(invariants_to_json(honest)),
            "replace": lambda: dataclasses.replace(honest, bm_values=bm_values),
        }[way]()
        for field in ("bm_values", "bfm_values"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(inv, field)[1] = np.nan
        bm_values[1] = np.nan
        assert inv.bm_values.tobytes() == honest.bm_values.tobytes()
        assert invariant_distance(inv, honest) == 0.0

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

    def test_verdict_composes_the_public_functions(self):
        # is_generic reads x once; its verdict is the one the three public
        # features give, on generic and non-generic vectors alike
        rng = np.random.default_rng(17)
        signals = [sample_random_signal(n, 40 + n) for n in range(1, 33)]
        signals += [np.ones(4), np.array([1, 0, 0, 0]), 1e-4 * generic_signal(5, 205)]
        signals += [np.round(rng.standard_normal(n)) for n in range(1, 33)]
        for x in signals:
            report = is_generic(x)
            assert report.modulus_failures == tuple(
                np.flatnonzero(np.abs(dft(modulus_vector(x))) <= 1e-8).tolist()
            )
            assert report.fourier_modulus_failures == tuple(
                np.flatnonzero(np.abs(dft(fourier_modulus_vector(x))) <= 1e-8).tolist()
            )
            assert report.power_sum_vanishes == (abs(power_invariant(x)) <= 1e-8)

    def test_vanishing_power_sum_fails(self):
        # both spectra clear the floor, but |power sum| is 1.2e-19, and
        # recover_orbit rejects the bundle for it: the two rules agree
        x = 1e-4 * generic_signal(5, 205)
        report = is_generic(x)
        assert not report
        assert report.power_sum_vanishes
        assert report.modulus_failures == report.fourier_modulus_failures == ()
        with pytest.raises(NonGenericInput, match="power sum"):
            recover_orbit(heisenberg_invariants(x))


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

    def test_orbit_values_give_the_matrix_maximum(self):
        # the distances compare orbit values; the max over the N x N
        # matrices, where every entry is a value or its conjugate, is the
        # same float, for nearby, unrelated and tampered bundles
        def reference(a, b):
            bispectra = max(
                max_relative_deviation(a.bm, b.bm), max_relative_deviation(a.bfm, b.bfm)
            )
            power = max_relative_deviation(np.asarray([a.power_sum]), np.asarray([b.power_sum]))
            return bispectra, max(bispectra, power)

        rng = np.random.default_rng(5)
        for n in [*range(1, 33), 64]:
            x = sample_random_signal(n, 800 + n)
            inv = heisenberg_invariants(x)
            values = inv.bm_values.copy()
            values[rng.integers(len(values))] *= 1 + 1e-3j
            others = (
                heisenberg_invariants(x + 1e-7 * sample_random_signal(n, 1)),
                heisenberg_invariants(sample_random_signal(n, 900 + n)),
                heisenberg_invariants(np.conj(x)),
                dataclasses.replace(inv, bm_values=values),
                dataclasses.replace(inv, bfm_values=-inv.bfm_values, power_sum=3.0),
                inv,
            )
            for other in others:
                for a, b in ((inv, other), (other, inv)):
                    assert (bispectra_distance(a, b), invariant_distance(a, b)) == reference(a, b)

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
