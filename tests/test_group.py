"""Group law, action, and the exact orbit oracle."""

import math

import numpy as np
import pytest

from heisenberg_orbits import (
    GroupElement,
    OrderMismatch,
    act,
    enumerate_group,
    identity,
    inverse,
    multiply,
    orbit_distance,
    orbit_equivalent,
    sample_random_signal,
)
from heisenberg_orbits.group import _near_pairs, _oracle_plan
from heisenberg_orbits.invariants import _orbit_plan
from heisenberg_orbits.spectral import _PLAN_CACHE_ORDERS

from helpers import exhaustive_orbit_distance, generic_signal


class TestGroupLaw:
    def test_generator_product(self):
        g = GroupElement(4, 1, 0, 0)
        h = GroupElement(4, 0, 1, 0)
        assert multiply(g, h) == GroupElement(4, 1, 1, 1)
        assert multiply(h, g) == GroupElement(4, 1, 1, 0)

    def test_identity(self):
        g = GroupElement(5, 2, 3, 4)
        assert multiply(identity(5), g) == g
        assert multiply(g, identity(5)) == g

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            multiply(GroupElement(4, 0, 0, 0), GroupElement(5, 0, 0, 0))

    def test_normalization(self):
        g = GroupElement(4, -1, 6, -5)
        assert (g.k, g.n, g.m) == (3, 2, 3)

    def test_inverse_examples(self):
        assert inverse(GroupElement(3, 0, 0, 0)) == GroupElement(3, 0, 0, 0)
        assert inverse(GroupElement(4, 1, 1, 0)) == GroupElement(4, 3, 3, 1)

    def test_inverse_exhaustive_h4(self):
        for g in enumerate_group(4):
            assert multiply(g, inverse(g)) == identity(4)
            assert multiply(inverse(g), g) == identity(4)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(2, 8), (4, 64)])
    def test_counts(self, n, count):
        elems = enumerate_group(n)
        assert len(elems) == count
        assert elems[0] == identity(n)

    def test_distinct(self):
        elems = enumerate_group(3)
        assert len({(g.k, g.n, g.m) for g in elems}) == 27


class TestAction:
    def test_global_phase(self):
        x = sample_random_signal(5, 1)
        out = act(GroupElement(5, 0, 0, 1), x)
        np.testing.assert_allclose(out, np.exp(2j * np.pi / 5) * x, rtol=1e-12)

    def test_time_shift(self):
        x = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        np.testing.assert_allclose(act(GroupElement(4, 1, 0, 0), x), [2, 3, 4, 1])

    @pytest.mark.parametrize("n", range(2, 9))
    def test_commutation_relation(self, n):
        x = sample_random_signal(n, n)
        t1m1 = act(GroupElement(n, 1, 0, 0), act(GroupElement(n, 0, 1, 0), x))
        m1t1 = act(GroupElement(n, 0, 1, 0), act(GroupElement(n, 1, 0, 0), x))
        np.testing.assert_allclose(t1m1, np.exp(2j * np.pi / n) * m1t1, rtol=1e-10)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_commutation_on_basis_vectors(self, n):
        zeta = np.exp(2j * np.pi / n)
        for j in range(n):
            e = np.zeros(n, dtype=complex)
            e[j] = 1.0
            lhs = act(GroupElement(n, 1, 0, 0), act(GroupElement(n, 0, 1, 0), e))
            rhs = zeta * act(GroupElement(n, 0, 1, 0), act(GroupElement(n, 1, 0, 0), e))
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_homomorphism_exhaustive(self, n):
        x = sample_random_signal(n, 2 * n)
        elems = enumerate_group(n)
        for g in elems:
            for h in elems:
                lhs = act(multiply(g, h), x)
                rhs = act(g, act(h, x))
                assert np.max(np.abs(lhs - rhs)) < 1e-11

    def test_homomorphism_sampled_n5(self):
        x = sample_random_signal(5, 10)
        elems = enumerate_group(5)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            g = elems[rng.integers(len(elems))]
            h = elems[rng.integers(len(elems))]
            lhs = act(multiply(g, h), x)
            rhs = act(g, act(h, x))
            assert np.max(np.abs(lhs - rhs)) < 1e-11

    def test_unitarity(self):
        x = sample_random_signal(6, 3)
        norm = np.linalg.norm(x)
        for g in enumerate_group(6):
            assert abs(np.linalg.norm(act(g, x)) - norm) < 1e-9 * norm

    def test_dimension_mismatch(self):
        with pytest.raises(OrderMismatch):
            act(GroupElement(4, 0, 0, 0), np.ones(5, dtype=complex))


def _oracle_pair(kind, n, scale):
    """One input pair for the oracle reference test, x scaled before acting."""
    x = scale * generic_signal(n, 100 + n)
    if kind == "random":
        return x, scale * generic_signal(n, 200 + n)
    if kind == "member":
        return x, act(GroupElement(n, 2, 3, 4), x)
    if kind == "noisy-member":
        noise = 1e-9 * scale * sample_random_signal(n, 300 + n)
        return x, act(GroupElement(n, 2, 3, 4), x) + noise
    if kind in ("spike-member", "mild-spike-member"):
        # one entry 1e200 times the rest: in the oracle's unit the squares of
        # the others flush to zero; at 1e6 every entry stays a normal float
        # after scaling by 2**-1000 or 2**1000
        x[0] *= 1e200 if kind == "spike-member" else 1e6
        return x, act(GroupElement(n, 2, 3, 4), x)
    zeros = np.zeros(n, dtype=complex)
    ones = np.ones(n, dtype=complex)
    basis = np.eye(n, dtype=complex)
    if kind == "worst-phase-tie":
        # against basis[0], C[k, n] = x[k]: row 0, at its best phase, ties
        # the largest |C|, row 1, at the worst phase pi / N, so only the
        # margin keeps the first minimizer in the recheck
        zeros[:2] = np.cos(np.pi / n), np.exp(1j * np.pi / n)
        return zeros, basis[0]
    return {
        "constant": (ones, ones),
        "constant-scaled": (ones, 2 * ones),
        # |C[k, n]| = 1 for every pair, so every pair reaches the recheck
        "constant-basis": (ones, basis[0]),
        "basis": (basis[0], basis[1 % n]),
        "zero-x": (zeros, x),
        "zero-x2": (x, zeros),
        "zero-both": (zeros, zeros),
        # the distance 1.5e308 sqrt(N) is past the float range from N = 2
        "near-float-max": (1.5e308 * ones, zeros),
    }[kind]


ORACLE_CASES = (
    [
        (kind, n, 1.0)
        for n in (1, 2, 3, 4, 5, 6, 8, 12, 16, 32)
        for kind in ("random", "member", "noisy-member")
    ]
    + [
        (kind, n, 1.0)
        for n in (1, 4, 6, 8)
        for kind in (
            "constant", "constant-scaled", "constant-basis", "basis", "spike-member",
            "zero-x", "zero-x2", "zero-both", "near-float-max",
        )
    ]
    + [("worst-phase-tie", n, 1.0) for n in (2, 3, 13, 17)]
    + [
        (kind, n, scale)
        for n in (6, 16)
        for scale in (2.0**-1000, 1e-200, 1e-160, 1e150, 1e155, 2.0**1000)
        for kind in ("random", "member", "noisy-member")
    ]
)


class TestOrbitOracle:
    @pytest.mark.parametrize(
        "kind,n,scale", ORACLE_CASES, ids=[f"{k}-N{n}-{s:g}" for k, n, s in ORACLE_CASES]
    )
    def test_matches_exhaustive_reference(self, kind, n, scale):
        # the same float and witness, ties and the ends of the float range included
        x, x2 = _oracle_pair(kind, n, scale)
        assert orbit_distance(x, x2) == exhaustive_orbit_distance(x, x2)

    @pytest.mark.parametrize("kind", ["random", "member", "noisy-member", "mild-spike-member"])
    def test_power_of_two_scaling_is_exact(self, kind):
        # scaling both vectors by 2**k scales the distance by 2**k, rounded
        # once, and keeps the witness
        for n in range(1, 17):
            x, x2 = _oracle_pair(kind, n, 1.0)
            dist, witness = orbit_distance(x, x2)
            for k in (-1000, -600, -300, 300, 600, 1000):
                scaled = orbit_distance(2.0**k * x, 2.0**k * x2)
                assert scaled == (math.ldexp(dist, k), witness), (n, k)

    @pytest.mark.parametrize("n", [1, 4, 7, 16])
    def test_tied_moduli_recheck_every_pair(self, n):
        # every screen entry ties, so no pair can be left out of the recheck
        ones = np.ones(n, dtype=complex)
        assert np.array_equal(_near_pairs(ones, np.eye(n, dtype=complex)[0]), np.arange(n * n))

    def test_self_distance(self):
        x = sample_random_signal(4, 8)
        dist, witness = orbit_distance(x, x)
        assert dist < 1e-12
        assert witness == identity(4)

    def test_zero_on_orbit_n5(self):
        x = sample_random_signal(5, 12)
        norm = np.linalg.norm(x)
        for g in enumerate_group(5):
            dist, witness = orbit_distance(x, act(g, x))
            assert dist <= 1e-9 * norm
            assert witness == g  # lexicographic tie-break finds the mover itself

    def test_offbeat_phase_leaves_orbit(self):
        x = sample_random_signal(4, 21)
        shifted = np.exp(1j * np.pi / 8) * x
        dist, _ = orbit_distance(x, shifted)
        assert dist > 0.01 * np.linalg.norm(x)

    def test_dimension_mismatch(self):
        with pytest.raises(OrderMismatch):
            orbit_distance(np.ones(3, dtype=complex), np.ones(4, dtype=complex))


class TestOraclePlan:
    """Each order's oracle constants are built once, O(N) of them, and shared read-only."""

    def test_cached_plan_is_a_fresh_construction(self):
        for n in range(1, 71):
            plan, fresh = _oracle_plan(n), _oracle_plan.__wrapped__(n)
            for cached, built in zip(plan, fresh):
                assert np.array_equal(cached, built) and type(cached) is type(built), n
            ramp, phases, _, cos_step = plan
            assert np.array_equal(ramp, np.arange(n)), n
            assert np.array_equal(phases, np.exp(2j * np.pi * np.arange(n) / n)[:, None]), n
            assert cos_step == pytest.approx(math.cos(math.pi / n), rel=1e-15), n

    def test_arrays_are_read_only_and_at_most_n_long(self):
        for n in (1, 2, 12, 64):
            arrays = [value for value in _oracle_plan(n) if isinstance(value, np.ndarray)]
            assert len(arrays) == 2
            for array in arrays:
                assert array.size <= n
                with pytest.raises(ValueError, match="read-only"):
                    array.flat[0] = array.flat[0]

    def test_one_build_per_order(self):
        assert _oracle_plan(9) is _oracle_plan(9)

    def test_cache_size_is_the_shared_constant(self):
        for n in range(1, 3 * _PLAN_CACHE_ORDERS):
            orbit_distance(sample_random_signal(n, n), sample_random_signal(n, n + 1))
        info = _oracle_plan.cache_info()
        assert info.maxsize == _orbit_plan.cache_info().maxsize == _PLAN_CACHE_ORDERS
        assert info.currsize <= _PLAN_CACHE_ORDERS


class TestOrbitEquivalent:
    def test_orbit_members(self):
        x = sample_random_signal(5, 31)
        g = GroupElement(5, 2, 4, 1)
        assert orbit_equivalent(x, act(g, x), 1e-6)

    def test_scaling_leaves_orbit(self):
        x = sample_random_signal(5, 32)
        assert not orbit_equivalent(x, 2 * x, 1e-6)

    @pytest.mark.parametrize("scale", [1e155, 2.0**600], ids=["1e155", "2**600"])
    def test_verdict_holds_at_large_scale(self, scale):
        # ||x|| formed from unscaled squares is inf there, and any distance passes it
        x = scale * sample_random_signal(16, 1)
        assert not orbit_equivalent(x, scale * sample_random_signal(16, 2), 1e-6)
        assert orbit_equivalent(x, act(GroupElement(16, 2, 3, 4), x), 1e-6)

    def test_infinite_distance_never_passes(self):
        # the distance and ||x|| both read inf, so only a comparison in x's unit rejects it
        assert not orbit_equivalent(1.5e308 * np.ones(4), np.zeros(4), 1e-6)

    @pytest.mark.filterwarnings("error")
    def test_verdict_holds_at_subnormal_scale(self):
        # in x's own unit the bound max(||x||, 1) overflows, so it is taken in the plain unit
        x = 5e-324 * np.array([1.0, 2.0, 3.0, 4.0])
        assert orbit_equivalent(x, np.roll(x, 1), 1e-6)
        assert not orbit_equivalent(x, np.ones(4), 1e-6)

    def test_root_of_unity_phase_is_orbit(self):
        x = sample_random_signal(6, 33)
        assert orbit_equivalent(x, np.exp(2j * np.pi / 6) * x, 1e-6)
