"""Weighted cyclic actions, regular-representation recovery, degree audit."""

import itertools
import math

import numpy as np
import pytest

from heisenberg_orbits import (
    InconsistentInvariants,
    NonGenericInput,
    apply_weighted_generator,
    degree_audit,
    recover_cyclic_orbit,
    recover_weight12,
    recover_weighted,
    sample_random_signal,
    weighted_invariants,
)

from helpers import min_shift_distance


def weighted_orbit(v):
    """All 3n images of v under the order-3n weighted action."""
    n = len(v)
    return [apply_weighted_generator(v, j) for j in range(3 * n)]


def weighted_orbit_distance(v, w):
    return min(float(np.linalg.norm(w - u)) for u in weighted_orbit(v))


def generic_weighted_vector(n, seed):
    for attempt in range(32):
        v = sample_random_signal(n, seed + 7919 * attempt)
        if np.min(np.abs(v)) > 1e-3:
            return v
    raise AssertionError("no vector with well-separated coordinates found")


class TestWeightedInvariants:
    def test_fixture_values(self):
        inv = weighted_invariants(np.array([1.0, 2.0], dtype=complex))
        assert inv.n == 2
        assert abs(inv.r - 1.0) < 1e-15
        assert abs(inv.a[0] - 2.0) < 1e-15
        assert abs(inv.a[1] - 8.0) < 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_invariance_under_group(self, n):
        v = generic_weighted_vector(n, 500 + n)
        inv = weighted_invariants(v)
        for j in range(3 * n):
            moved = weighted_invariants(apply_weighted_generator(v, j))
            assert abs(moved.r - inv.r) < 1e-9
            for a, b in zip(moved.a, inv.a):
                assert abs(a - b) < 1e-9 * max(abs(b), 1.0)

    @pytest.mark.parametrize("n", [1, 2, 5, 39])
    def test_matches_the_loop(self, n):
        # one array expression in place of the per-entry loop; numpy's array
        # complex multiply rounds differently, by a few ulp at most
        rng = np.random.default_rng(n)
        v = 10.0 ** rng.uniform(-3, 3) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        loop = [v[0] * v[k - 1] * np.conj(v[k]) for k in range(1, n)] + [v[-1] ** 3]
        eps = np.finfo(float).eps
        np.testing.assert_allclose(weighted_invariants(v).a, loop, rtol=4 * eps, atol=0)

    def test_zero_first_coordinate(self):
        inv = weighted_invariants(np.array([0.0, 3.0], dtype=complex))
        assert inv.r == 0.0


class TestRecoverWeighted:
    def test_fixture_orbit(self):
        inv = weighted_invariants(np.array([1.0, 2.0], dtype=complex))
        candidate = recover_weighted(inv)
        assert weighted_orbit_distance(np.array([1.0, 2.0]), candidate) <= 1e-9

    def test_zero_r_rejected(self):
        from heisenberg_orbits import WeightedCyclicInvariants

        inv = WeightedCyclicInvariants(r=0.0, a=(0j, 1j))
        with pytest.raises(NonGenericInput):
            recover_weighted(inv)

    @pytest.mark.parametrize(
        "v",
        [[1e-5, 1 + 0.5j, 0.7 - 0.2j], [1 + 0.5j, 1e-5, 0.7 - 0.2j]],
        ids=["first", "middle"],
    )
    def test_small_coordinate_recovered(self, v):
        # the floor applies to moduli: r = 1e-10 is below it, but |v1| = 1e-5
        # is not, so a small first coordinate is recovered like a middle one
        candidate = recover_weighted(weighted_invariants(v))
        assert weighted_orbit_distance(np.array(v), candidate) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_round_trip_lands_in_orbit(self, n):
        for s in range(20):
            v = generic_weighted_vector(n, 1000 * n + s)
            candidate = recover_weighted(weighted_invariants(v))
            assert weighted_orbit_distance(v, candidate) <= 1e-8 * np.linalg.norm(v)

    def test_inconsistent_cube_rejected(self):
        from heisenberg_orbits import WeightedCyclicInvariants

        v = generic_weighted_vector(3, 77)
        inv = weighted_invariants(v)
        tampered = WeightedCyclicInvariants(r=inv.r, a=inv.a[:-1] + (inv.a[-1] * 1.5,))
        with pytest.raises(InconsistentInvariants):
            recover_weighted(tampered)


class TestRecoverWeight12:
    def test_real_example(self):
        np.testing.assert_allclose(recover_weight12(1.0, 4.0, 2.0), [1.0, 2.0])

    def test_complex_example(self):
        np.testing.assert_allclose(recover_weight12(1.0, 4.0, 2.0j), [1.0, -2.0j])

    def test_vanishing_coordinate_rejected(self):
        with pytest.raises(NonGenericInput):
            recover_weight12(0.0, 1.0, 0.0)

    def test_negative_squared_modulus_is_inconsistent(self):
        # no signal has a negative squared modulus; a zero one is non-generic
        with pytest.raises(InconsistentInvariants, match="nonnegative"):
            recover_weight12(-1.0, 1.0, 1j)
        with pytest.raises(InconsistentInvariants, match="nonnegative"):
            recover_weight12(1.0, -1e-300, 1j)
        with pytest.raises(NonGenericInput):
            recover_weight12(0.0, 1.0, 0j)

    def test_inconsistent_data_rejected(self):
        with pytest.raises(InconsistentInvariants):
            recover_weight12(1.0, 4.0, 3.0)

    def test_small_coordinate_recovered(self):
        # r1 = 1e-10 is below the floor, but the modulus |x1| = 1e-5 is not
        x1, x2 = 1e-5, 0.8 + 0.3j
        cand = recover_weight12(x1 ** 2, abs(x2) ** 2, x1 ** 2 * np.conj(x2))
        np.testing.assert_allclose(cand, [x1, x2], rtol=1e-12)

    def test_large_scale_recovered(self):
        # the invariants of (1e100, 1e100): |a|**2 = 1e600 is past the float
        # range, but the check of r2 never forms it
        cand = recover_weight12(1e200, 1e200, 1e300)
        np.testing.assert_allclose(cand, [1e100, 1e100], rtol=1e-15)

    def test_separation_up_to_circle_weighting(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            if min(abs(v[0]), abs(v[1])) < 1e-3:
                continue
            r1, r2 = abs(v[0]) ** 2, abs(v[1]) ** 2
            a = v[0] ** 2 * np.conj(v[1])
            cand = recover_weight12(r1, r2, a)
            theta = np.angle(v[0] / cand[0])
            np.testing.assert_allclose(
                cand * np.exp(1j * theta * np.array([1, 2])), v, rtol=1e-8, atol=1e-10
            )


class TestRecoverCyclicOrbit:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_round_trip_up_to_shift(self, n):
        x = sample_random_signal(n, 600 + n)
        if np.min(np.abs(np.fft.fft(x))) < 1e-6:
            pytest.skip("non-generic draw")
        candidate = recover_cyclic_orbit(x)
        assert min_shift_distance(x, candidate) <= 1e-8 * np.linalg.norm(x)

    def test_constant_vector_rejected(self):
        with pytest.raises(NonGenericInput):
            recover_cyclic_orbit(np.ones(4, dtype=complex))

    def test_small_fixture(self):
        x = np.array([2, 1j, 1])
        candidate = recover_cyclic_orbit(x)
        assert min_shift_distance(x, candidate) <= 1e-8


class TestDegreeAudit:
    def test_examples(self):
        assert degree_audit(5, 3) == 0
        assert degree_audit(3, 3) == 10
        assert degree_audit(2, 1) == 0

    def test_no_low_degree_monomials(self):
        for order in range(2, 11):
            for degree in range(1, order):
                assert degree_audit(order, degree) == 0

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_boundary_matches_binomial(self, order):
        # at degree N the weight test passes for every monomial
        expected = math.comb(2 * order - 1, order - 1)
        assert degree_audit(order, order) == expected

    def test_multiples_of_order(self):
        assert degree_audit(3, 6) == math.comb(6 + 2, 2)
        assert degree_audit(4, 8) == math.comb(8 + 3, 3)

    def test_matches_monomial_enumeration(self):
        # reference: list every degree-d monomial as a multiset of coordinate
        # indices and apply the weight test to its exponent sum
        for order in range(2, 5):
            for degree in range(1, 9):
                count = sum(
                    1
                    for monomial in itertools.combinations_with_replacement(
                        range(order), degree
                    )
                    if len(monomial) % order == 0
                )
                assert degree_audit(order, degree) == count
