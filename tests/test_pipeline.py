"""End-to-end orbit recovery from invariant bundles."""

import math

import numpy as np
import pytest

from heisenberg_orbits import (
    GroupElement,
    HeisenbergInvariants,
    InconsistentInvariants,
    InconsistentMagnitudes,
    NonGenericInput,
    NotRealSignal,
    PhaseRetrievalConfig,
    act,
    dft,
    heisenberg_invariants,
    invariant_distance,
    modulus_vector,
    orbit_distance,
    power_invariant,
    recover_orbit,
    sample_random_signal,
    unitary_bispectrum,
    verify_against_truth,
)

from helpers import generic_signal, inconsistent_bm_bundle, zero_padded

BIG_BUDGET = PhaseRetrievalConfig(seed=9, max_restarts=4000)


def assert_all_converged_rejected(report, restarts):
    """A search that converged some starts, rejected each and ran out of budget."""
    search = report.diagnostics["phase_retrieval"]
    assert not report.success
    assert search["restarts_used"] == restarts
    assert search["converged_starts"] > 0
    assert search["power_rejected"] + search["verify_rejected"] == search["converged_starts"]
    assert math.isnan(report.stage_residuals.phase_fix)
    assert report.diagnostics["phase_fix"] == {"ratio_modulus": None}


class TestRecoverOrbit:
    def test_generic_n5_lands_in_orbit(self):
        x = generic_signal(5, 205)
        report = recover_orbit(heisenberg_invariants(x), BIG_BUDGET)
        assert report.success
        equivalent, dist, _ = verify_against_truth(report, x, 1e-6)
        assert equivalent
        assert dist <= 1e-6 * np.linalg.norm(x)

    def test_bundle_of_rotated_vector_is_identical(self):
        # a root-of-unity phase is a group element, so the bundle is the same
        # and the recovery targets the same orbit
        x = generic_signal(4, 206)
        rotated = np.exp(2j * np.pi / 4) * x
        inv = heisenberg_invariants(x)
        inv_rot = heisenberg_invariants(rotated)
        assert invariant_distance(inv, inv_rot) <= 1e-9
        report = recover_orbit(inv_rot, BIG_BUDGET)
        assert report.success
        equivalent, _, _ = verify_against_truth(report, x, 1e-6)
        assert equivalent

    def test_magnitude_tampered_power_sum_rejected(self):
        x = generic_signal(5, 207)
        inv = heisenberg_invariants(x)
        tampered = HeisenbergInvariants(
            n=inv.n, bm=inv.bm, bfm=inv.bfm, power_sum=1.5 * inv.power_sum
        )
        report = recover_orbit(tampered, PhaseRetrievalConfig(seed=1, max_restarts=60))
        assert_all_converged_rejected(report, restarts=60)
        search = report.diagnostics["phase_retrieval"]
        assert search["power_rejected"] == search["converged_starts"]
        assert search["verify_rejected"] == 0

    def test_budget_too_small_for_the_orbit_class(self):
        # the common failure: starts converge to other magnitude classes and
        # the budget runs out before one lands in the orbit class
        x = generic_signal(6, 304)
        inv = heisenberg_invariants(x)
        report = recover_orbit(inv, PhaseRetrievalConfig(seed=1, max_restarts=8))
        assert_all_converged_rejected(report, restarts=8)
        # the lowest-residual start is a magnitude fit, returned unphased
        assert report.stage_residuals.phase_retrieval <= 1e-10
        assert report.stage_residuals.invariant_match > 1e-6
        larger = recover_orbit(inv, PhaseRetrievalConfig(seed=1, max_restarts=100))
        assert larger.success
        assert larger.diagnostics["phase_retrieval"]["restarts_used"] > 8
        assert verify_against_truth(larger, x, 1e-6)[0]

    def test_phase_tampered_power_sum_recovers_rotated_orbit(self):
        # multiplying the power sum by a unit factor produces the valid
        # bundle of a rotated vector, so recovery succeeds and lands in the
        # rotated orbit, not the original one
        x = generic_signal(5, 208)
        inv = heisenberg_invariants(x)
        tampered = HeisenbergInvariants(
            n=inv.n, bm=inv.bm, bfm=inv.bfm, power_sum=np.exp(0.5j * np.pi) * inv.power_sum
        )
        report = recover_orbit(tampered, BIG_BUDGET)
        assert report.success
        rotated = np.exp(0.5j * np.pi / 5) * x
        eq_rotated, _, _ = verify_against_truth(report, rotated, 1e-6)
        eq_original, _, _ = verify_against_truth(report, x, 1e-6)
        assert eq_rotated
        assert not eq_original

    @pytest.mark.parametrize(
        "signal_seed, start_seed",
        [(1144027673, 684183551), (261968285, 1052588021)],
    )
    def test_phase_fix_does_not_rescale_a_wrong_class(self, signal_seed, start_seed):
        # a root of the power-sum ratio with modulus |ratio|**(1/N) rescaled
        # wrong classes until their power sum matched, and these two passed
        x = generic_signal(8, signal_seed)
        report = recover_orbit(
            heisenberg_invariants(x),
            PhaseRetrievalConfig(seed=start_seed, max_restarts=4000),
        )
        assert report.success
        assert verify_against_truth(report, x, 1e-6)[0]

    def test_no_convergence_returns_best_effort_report(self):
        x = generic_signal(6, 802)
        inv = heisenberg_invariants(x)
        report = recover_orbit(inv, PhaseRetrievalConfig(seed=2, max_restarts=1))
        assert not report.success
        assert report.diagnostics["phase_retrieval"]["converged_starts"] == 0
        assert report.diagnostics["phase_fix"] == {"ratio_modulus": None}
        assert math.isnan(report.stage_residuals.phase_fix)
        assert len(report.candidate) == 6

    @pytest.mark.parametrize(
        "x, seed, orbit_tol",
        [
            # |x_3|**2 = 0 inverts to -1.1e-16
            (zero_padded(generic_signal(3, 505)), 5, 1e-6),
            # a zero |dft(x)_k|**2 inverts to -3.2e-17; fitting it to the
            # residual target 1e-10 leaves |dft(x)_k| near 1e-5, and the
            # candidate lies 4.1e-6 from the orbit
            (np.fft.ifft(zero_padded(generic_signal(4, 575))), 75, 1e-5),
        ],
        ids=["time", "frequency"],
    )
    def test_zero_entry_inverts_to_a_tiny_negative(self, x, seed, orbit_tol):
        # stage 1 clips it rather than rejecting the bundle as having a
        # negative squared magnitude
        inv = heisenberg_invariants(x)
        report = recover_orbit(inv, PhaseRetrievalConfig(seed=seed, max_restarts=100))
        assert report.success
        assert invariant_distance(heisenberg_invariants(report.candidate), inv) <= 1e-6
        equivalent, _, _ = verify_against_truth(report, x, orbit_tol)
        assert equivalent

    def test_non_generic_bundle_rejected(self):
        inv = heisenberg_invariants(np.ones(4, dtype=complex))
        with pytest.raises(NonGenericInput):
            recover_orbit(inv)

    def test_complex_signal_bispectrum_rejected(self):
        # a bm slot holding the bispectrum of a complex vector cannot come
        # from squared moduli
        x = sample_random_signal(5, 209)
        bogus = unitary_bispectrum(dft(x))
        inv = heisenberg_invariants(generic_signal(5, 210))
        broken = HeisenbergInvariants(
            n=5, bm=bogus, bfm=inv.bfm, power_sum=inv.power_sum
        )
        with pytest.raises(NotRealSignal):
            recover_orbit(broken)

    def test_invariant_faithfulness_without_ground_truth(self):
        x = generic_signal(6, 211)
        inv = heisenberg_invariants(x)
        report = recover_orbit(inv, BIG_BUDGET)
        assert report.success
        assert invariant_distance(heisenberg_invariants(report.candidate), inv) <= 1e-6
        assert report.stage_residuals.invariant_match <= 1e-6

    def test_phase_fix_residual_small(self):
        x = generic_signal(5, 212)
        inv = heisenberg_invariants(x)
        report = recover_orbit(inv, BIG_BUDGET)
        assert report.success
        assert report.stage_residuals.phase_fix <= 1e-6
        assert abs(power_invariant(report.candidate) - inv.power_sum) <= 1e-6 * max(
            abs(inv.power_sum), 1.0
        )

    def test_deterministic_given_config(self):
        inv = heisenberg_invariants(generic_signal(5, 213))
        cfg = PhaseRetrievalConfig(seed=5, max_restarts=500)
        a = recover_orbit(inv, cfg)
        b = recover_orbit(inv, cfg)
        np.testing.assert_array_equal(a.candidate, b.candidate)
        assert a.diagnostics == b.diagnostics

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
    def test_end_to_end_sample(self, n):
        hits = 0
        for s in range(5):
            x = generic_signal(n, 1300 + 13 * s)
            report = recover_orbit(
                heisenberg_invariants(x),
                PhaseRetrievalConfig(seed=100 + s, max_restarts=4000),
            )
            equivalent, _, _ = verify_against_truth(report, x, 1e-6)
            if report.success:
                assert equivalent  # a success must never fail the oracle
                hits += 1
        assert hits >= 4


class TestStageOneRejects:
    # bundles that no start can pass raise before the first start; with these
    # seeds and budgets the search used to run all 2000 and 4000 starts
    @pytest.fixture(autouse=True)
    def no_start(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a start ran")

        monkeypatch.setattr("heisenberg_orbits.pipeline.newton_magnitude_solve", fail)

    def test_bispectrum_off_its_own_inversion(self):
        inv = inconsistent_bm_bundle()
        cfg = PhaseRetrievalConfig(seed=3, max_restarts=2000)
        with pytest.raises(InconsistentInvariants, match="9.091e-02"):
            recover_orbit(inv, cfg)
        # the bound is the recovery tolerance
        with pytest.raises(AssertionError, match="a start ran"):
            recover_orbit(inv, cfg, 0.1)

    @pytest.mark.parametrize("tol", [0.0, math.inf], ids=["zero", "inf"])
    def test_tolerance_not_finite_and_positive(self, tol):
        # inf would accept every converged start that passes the power screen
        inv = heisenberg_invariants(generic_signal(4, 11))
        with pytest.raises(ValueError, match="finite and strictly positive"):
            recover_orbit(inv, PhaseRetrievalConfig(seed=0, max_restarts=10), tol)

    def test_vanishing_power_sum(self):
        inv = heisenberg_invariants(0.05 * generic_signal(6, 5024))
        assert abs(inv.power_sum) < 1e-8  # 6.5e-9
        cfg = PhaseRetrievalConfig(seed=24, max_restarts=4000)
        with pytest.raises(NonGenericInput, match="power sum"):
            recover_orbit(inv, cfg)


    @pytest.mark.parametrize(
        "clipped_sum, error, message",
        [(False, InconsistentMagnitudes, "energy balance"),
         (True, InconsistentInvariants, "bispectra differ")],
    )
    def test_clearly_negative_inversion(self, clipped_sum, error, message):
        # bm of a real vector with an entry of -|x_1|**2: the clip at 0 either
        # breaks the energy balance, or, where another entry makes up for it,
        # moves the bispectrum of the inversion far off bm
        inv = heisenberg_invariants(generic_signal(4, 11))
        y = modulus_vector(generic_signal(4, 11))
        v = np.array([y[0] + (1.0 if clipped_sum else 2.0) * y[1], -y[1], y[2], y[3]])
        bad = HeisenbergInvariants(
            n=4, bm=unitary_bispectrum(dft(v)), bfm=inv.bfm, power_sum=inv.power_sum
        )
        with pytest.raises(error, match=message):
            recover_orbit(bad)


class TestVerifyAgainstTruth:
    def test_group_moved_candidate(self):
        x = generic_signal(4, 214)
        report = recover_orbit(heisenberg_invariants(x), BIG_BUDGET)
        equivalent, dist, witness = verify_against_truth(report, x, 1e-6)
        assert equivalent
        moved = act(witness, x)
        assert np.linalg.norm(moved - report.candidate) == pytest.approx(dist, abs=1e-12)

    def test_offbeat_phase_is_not_equivalent(self):
        x = generic_signal(4, 215)
        fake = type("R", (), {"candidate": np.exp(1j * np.pi / 8) * x})()
        equivalent, dist, _ = verify_against_truth(fake, x, 1e-6)
        assert not equivalent
        assert dist > 0.01 * np.linalg.norm(x)

    def test_exact_orbit_member(self):
        x = generic_signal(4, 216)
        g = GroupElement(4, 1, 2, 3)
        fake = type("R", (), {"candidate": act(g, x)})()
        equivalent, dist, witness = verify_against_truth(fake, x, 1e-6)
        assert equivalent
        assert dist <= 1e-12
        assert witness == g


class TestToleranceThreading:
    def test_tight_recovery_tolerance_still_met(self):
        x = generic_signal(4, 217)
        report = recover_orbit(heisenberg_invariants(x), BIG_BUDGET, 1e-9)
        assert report.success
        assert report.stage_residuals.invariant_match <= 1e-9

    def test_orbit_distance_of_candidate(self):
        x = generic_signal(5, 218)
        report = recover_orbit(heisenberg_invariants(x), BIG_BUDGET)
        dist, _ = orbit_distance(x, report.candidate)
        assert dist <= 1e-6 * np.linalg.norm(x)
