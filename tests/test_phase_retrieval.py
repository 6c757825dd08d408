"""Magnitude-constraint projections, restarts, and reports."""

import inspect

import numpy as np
import pytest

from heisenberg_orbits import (
    InconsistentInvariants,
    OrderMismatch,
    PhaseRetrievalConfig,
    best_global_phase,
    error_reduction,
    fourier_modulus_vector,
    magnitudes_match,
    modulus_vector,
    newton_magnitude_solve,
    retrieve_phase,
    sample_random_signal,
)
from heisenberg_orbits.phase_retrieval import check_energy_balance
from heisenberg_orbits.spectral import dft_matrix, max_relative_deviation

from helpers import (
    generic_signal,
    reference_error_reduction,
    reference_newton_magnitude_solve,
    zero_padded,
)


class TestMagnitudesMatch:
    def test_own_magnitudes(self):
        x = sample_random_signal(5, 2)
        assert magnitudes_match(x, modulus_vector(x), fourier_modulus_vector(x), 1e-9)

    def test_any_global_phase(self):
        x = sample_random_signal(5, 3)
        y, z = modulus_vector(x), fourier_modulus_vector(x)
        assert magnitudes_match(np.exp(0.93j) * x, y, z, 1e-9)

    def test_scaling_breaks_match(self):
        x = sample_random_signal(5, 4)
        y, z = modulus_vector(x), fourier_modulus_vector(x)
        assert not magnitudes_match(2 * x, y, z, 1e-9)


class TestBestGlobalPhase:
    def test_identical(self):
        x = sample_random_signal(4, 5)
        lam, dist = best_global_phase(x, x)
        assert abs(lam - 1) < 1e-12
        assert dist < 1e-12

    def test_pure_phase(self):
        x = sample_random_signal(4, 6)
        lam, dist = best_global_phase(x, np.exp(0.4j) * x)
        assert abs(lam - np.exp(0.4j)) < 1e-12
        assert dist < 1e-10

    def test_independent_vectors(self):
        a = sample_random_signal(4, 7)
        b = sample_random_signal(4, 8)
        _, dist = best_global_phase(a, b)
        assert dist > 0

    def test_alignment_is_optimal(self):
        a = sample_random_signal(6, 9)
        b = sample_random_signal(6, 10)
        lam, dist = best_global_phase(a, b)
        for theta in np.linspace(0, 2 * np.pi, 37):
            assert dist <= np.linalg.norm(np.exp(1j * theta) * a - b) + 1e-12


class TestRetrievePhase:
    def test_single_tone_forces_solution(self):
        report = retrieve_phase(
            np.array([1.0, 0, 0, 0]), np.ones(4), PhaseRetrievalConfig(seed=1)
        )
        assert report.success
        assert report.restarts_used == 1
        lam, dist = best_global_phase(report.candidate, np.array([1, 0, 0, 0], dtype=complex))
        assert dist < 1e-6

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_known_signal_recovery_on_fixture(self, n):
        # zero padding to 2N-1 makes the magnitudes determine x up to a
        # global phase, so any magnitude fit aligns with the padded source
        x_pad = zero_padded(generic_signal(n, 300))
        y, z = modulus_vector(x_pad), fourier_modulus_vector(x_pad)
        report = retrieve_phase(y, z, PhaseRetrievalConfig(seed=11))
        assert report.success
        _, dist = best_global_phase(report.candidate, x_pad)
        assert dist <= 1e-6 * np.linalg.norm(x_pad)

    def test_zero_data(self):
        # the first restart's start already fits, at iteration 0
        report = retrieve_phase(np.zeros(4), np.zeros(4))
        assert report.success
        assert report.residual == 0.0
        assert report.restarts_used == 1
        np.testing.assert_array_equal(report.candidate, np.zeros(4))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_frequency_side_fails(self):
        # sqrt(4e307) * (1, 1, 1, -1) has these magnitudes, but |X_3|**2 of
        # the first start overflows, so its frequency deviation is inf / inf;
        # the residual keeps that nan, and no start succeeds
        y, z = [4e307] * 4, [1.6e308] * 4
        report = retrieve_phase(y, z)
        assert not report.success
        assert np.isnan(report.residual)
        assert not magnitudes_match(report.candidate, y, z, 1e-6)

    def test_parseval_violation(self):
        with pytest.raises(InconsistentInvariants):
            retrieve_phase(np.array([1.0, 1.0]), np.array([1.0, 1.0]))

    def test_overflowing_energy_is_compared(self):
        # sum(y) is past the float range; in one power-of-two unit the two
        # energies are still compared, without an overflow warning
        with pytest.raises(InconsistentInvariants, match="energy balance"):
            check_energy_balance([1e308, 1e308], [1.0, 1.0])

    def test_consistent_energy_past_the_float_range(self):
        # a scaled delta: sum(z) = 4e308 overflows, but the energies balance
        y, z = check_energy_balance([1e308, 0.0, 0.0, 0.0], [1e308] * 4)
        np.testing.assert_array_equal(y, [1e308, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(z, [1e308] * 4)

    def test_negative_magnitudes_rejected(self):
        with pytest.raises(InconsistentInvariants):
            retrieve_phase(np.array([1.0, -0.5]), np.array([0.5, 0.5]))

    def test_success_certificate(self):
        # a success report never overclaims: the candidate matches the inputs
        x = generic_signal(5, 33)
        y, z = modulus_vector(x), fourier_modulus_vector(x)
        cfg = PhaseRetrievalConfig(seed=7)
        report = retrieve_phase(y, z, cfg)
        assert report.success
        assert magnitudes_match(report.candidate, y, z, 10 * cfg.residual_target)

    def test_failure_still_reports_best_candidate(self):
        x = generic_signal(6, 34)
        y, z = modulus_vector(x), fourier_modulus_vector(x)
        report = retrieve_phase(
            y, z, PhaseRetrievalConfig(seed=1, max_restarts=2, max_iterations=3)
        )
        assert not report.success
        assert report.restarts_used == 2
        assert np.isfinite(report.residual)
        assert len(report.candidate) == 6

    def test_deterministic_given_seed(self):
        x = generic_signal(5, 35)
        y, z = modulus_vector(x), fourier_modulus_vector(x)
        a = retrieve_phase(y, z, PhaseRetrievalConfig(seed=3))
        b = retrieve_phase(y, z, PhaseRetrievalConfig(seed=3))
        np.testing.assert_array_equal(a.candidate, b.candidate)
        assert a.restarts_used == b.restarts_used

    def test_negative_seed_rejected(self):
        # rejected at construction, not by numpy at the first restart
        with pytest.raises(ValueError, match="seed"):
            PhaseRetrievalConfig(seed=-1)

    def test_residual_target_is_fixed(self):
        # one constant, which the Gauss-Newton solve also takes as its default
        default = inspect.signature(newton_magnitude_solve).parameters["residual_target"]
        assert PhaseRetrievalConfig().residual_target == 1e-10 == default.default
        with pytest.raises(TypeError):
            PhaseRetrievalConfig(residual_target=1e-12)


class TestErrorReductionMonotonicity:
    @pytest.mark.parametrize("n,seed", [(4, 0), (6, 1), (8, 2)])
    def test_frequency_mismatch_never_increases(self, n, seed):
        x = generic_signal(n, 40 + seed)
        y, z = modulus_vector(x), fourier_modulus_vector(x)
        rng = np.random.default_rng(seed)
        # 300 one-projection runs, each from the previous iterate's phases
        iterates = [np.sqrt(y) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))]
        for _ in range(300):
            iterates.append(error_reduction(y, z, np.angle(iterates[-1]), 1, 1e-14)[0])
        errs = [np.linalg.norm(np.abs(np.fft.fft(v)) - np.sqrt(z)) for v in iterates]
        assert np.all(np.diff(errs) <= 1e-12)


class TestNewtonMagnitudeSolve:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_converged_solutions_satisfy_magnitudes(self, n):
        x = generic_signal(n, 50 + n)
        y, z = modulus_vector(x), fourier_modulus_vector(x)
        converged = 0
        for r in range(40):
            rng = np.random.default_rng(777 + r)
            cand, res, _ = newton_magnitude_solve(y, z, rng.uniform(0, 2 * np.pi, n))
            if res <= 1e-10:
                converged += 1
                assert magnitudes_match(cand, y, z, 1e-9)
        assert converged > 0

    def test_polishes_near_solution(self):
        x = generic_signal(5, 54)
        y, z = modulus_vector(x), fourier_modulus_vector(x)
        phases = np.angle(x) + 1e-3 * np.random.default_rng(0).standard_normal(5)
        cand, res, iters = newton_magnitude_solve(y, z, phases)
        assert res <= 1e-10
        assert iters < 20
        _, dist = best_global_phase(cand, x)
        assert dist <= 1e-6 * np.linalg.norm(x)


def _newton(y, z, phases):
    return newton_magnitude_solve(y, z, phases)


def _projections(y, z, phases):
    return error_reduction(y, z, phases, 10, 1e-10)


@pytest.mark.parametrize("solve", [_newton, _projections], ids=["newton", "error_reduction"])
class TestSolverInputValidation:
    y = np.array([1.0, 2.0, 0.5])
    z = np.array([4.0, 3.0, 3.5])

    def test_single_phase_is_not_broadcast(self, solve):
        with pytest.raises(OrderMismatch):
            solve(self.y, self.z, np.zeros(1))

    def test_phase_count_mismatch(self, solve):
        with pytest.raises(OrderMismatch):
            solve(self.y, self.z, np.zeros(4))

    def test_magnitude_length_mismatch(self, solve):
        with pytest.raises(OrderMismatch):
            solve(self.y, self.z[:2], np.zeros(3))

    @pytest.mark.parametrize("side", [0, 1])
    def test_negative_magnitude(self, solve, side):
        data = [self.y.copy(), self.z.copy()]
        data[side][1] = -0.5
        with pytest.raises(InconsistentInvariants):
            solve(*data, np.zeros(3))


GRID_TARGETS = [0.0, 1e-14, 1e-10, 1e-2, 1.0, np.inf, np.nan]
GRID_ITERATIONS = [0, 1, 2, 60]


def _grid_signal(n):
    # n > 16 stands for zero-padded data of length n
    if n > 16:
        return zero_padded(generic_signal((n + 1) // 2, 70 + n))
    return generic_signal(n, 70 + n)


def _assert_same(result, reference):
    # candidate bytes, residual (nan equal to nan), iterations
    assert len(result) == len(reference) == 3
    assert result[0].tobytes() == reference[0].tobytes()
    np.testing.assert_array_equal(result[1:], reference[1:])


class TestSolversMatchReferenceLoops:
    # the residual gate, the reused normal equations, the stacked line-search
    # trials and the damping ladder solved as one block skip or group work
    # only: every return value must equal the plain loop's exactly
    @pytest.mark.parametrize("n", list(range(1, 17)) + [17, 21, 25])
    def test_grid(self, n):
        x = _grid_signal(n)
        n = len(x)
        y, z = modulus_vector(x), fourier_modulus_vector(x)
        forward = dft_matrix(n)
        rng = np.random.default_rng(n)
        starts = [
            rng.uniform(0, 2 * np.pi, n),
            np.angle(x),
            np.angle(x) + 1e-3 * rng.standard_normal(n),
        ]
        case = 0
        for phases in starts:
            for target in GRID_TARGETS:
                for cap in GRID_ITERATIONS:
                    case += 1
                    given = case % 2 == 0  # alternate the caller-supplied kernel
                    args = (y, z, phases, cap, target)
                    fwd = {"_forward": forward} if given else {}
                    _assert_same(
                        newton_magnitude_solve(*args, **fwd),
                        reference_newton_magnitude_solve(*args, **fwd),
                    )
                    _assert_same(error_reduction(*args), reference_error_reduction(*args))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_squares_are_still_checked(self):
        # r = 4e154 overflows ||r|| past a finite gate, yet residual 0.8
        # passes t = 0.9, for both solvers. In the last case |X_0|**2
        # overflows, so ||r|| is inf and the start is checked; its residual
        # is nan, which ends the run at once.
        overflow = ([5e154], [1e154], [0.0], 60, 0.9)
        cases = [
            (newton_magnitude_solve, reference_newton_magnitude_solve, overflow),
            (error_reduction, reference_error_reduction, overflow),
            (error_reduction, reference_error_reduction,
             ([1e308, 1e308], [1.79e308, 0.0], [0.0, 0.0], 60, 1e-10)),
        ]
        for solve, reference, args in cases:
            found = solve(*args)
            _assert_same(found, reference(*args))
            assert found[2] <= 1
        assert np.isnan(found[1])

    def test_gate_admits_every_passing_misfit(self):
        # residual <= t allows |r_k| up to t / (1 - t) * max(z_k, 1): r = 4 at
        # z = 1 passes t = 0.9 (residual 0.8), and r = 0.4 at z = 0.1 passes
        # t = 0.5 (residual 0.4), so neither start may be skipped
        for args in (([5.0], [1.0], [0.0], 60, 0.9), ([0.5], [0.1], [0.0], 60, 0.5)):
            for solve, reference in (
                (newton_magnitude_solve, reference_newton_magnitude_solve),
                (error_reduction, reference_error_reduction),
            ):
                found = solve(*args)
                _assert_same(found, reference(*args))
                assert found[2] <= 1

    def test_singular_normal_equations_return_the_start(self, monkeypatch):
        # a LinAlgError from the step solve ends the run after one iteration
        # with the start iterate and its residual, and raises nothing
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        x = generic_signal(5, 54)
        y, z = modulus_vector(x), fourier_modulus_vector(x)
        phases = np.random.default_rng(3).uniform(0, 2 * np.pi, 5)
        start = np.sqrt(y) * np.exp(1j * phases)
        start_residual = max(
            max_relative_deviation(np.abs(start) ** 2, y),
            max_relative_deviation(np.abs(dft_matrix(5) @ start) ** 2, z),
        )
        monkeypatch.setattr(np.linalg, "solve", singular)
        found = newton_magnitude_solve(y, z, phases)
        assert found[0].tobytes() == start.tobytes()
        assert found[1] == start_residual > 1e-10
        assert found[2] == 1
        _assert_same(found, reference_newton_magnitude_solve(y, z, phases))

    def test_damping_ladder_on_benchmark_starts(self, monkeypatch):
        # starts drawn as the newton-start benchmark draws them; after a
        # rejected step the rest of the damping ladder is one stacked solve,
        # and caps 3, 9 and 14 end runs inside such a ladder. Ladders that
        # end in an acceptance (a solve follows) and at the stall cap must
        # both occur, and every return must equal the one-step loop's.
        real_solve = np.linalg.solve
        shapes = []

        def recording(a, b):
            shapes.append(np.shape(a))
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording)
        rng = np.random.default_rng(30)
        ladders = accepted = stalled = 0
        for n in (8, 10, 12):
            for s in range(40):
                x = generic_signal(n, 3000 + 101 * s + n)
                y, z = modulus_vector(x), fourier_modulus_vector(x)
                phases = rng.uniform(0, 2 * np.pi, n)
                for cap in (60, 3, 9, 14):
                    shapes.clear()
                    found = newton_magnitude_solve(y, z, phases, cap)
                    stacked = [i for i, shape in enumerate(shapes) if len(shape) == 3]
                    assert all(shapes[i][0] >= 2 for i in stacked)
                    ladders += len(stacked)
                    accepted += sum(i < len(shapes) - 1 for i in stacked)
                    stalled += stacked[-1:] == [len(shapes) - 1] and found[2] < cap
                    _assert_same(found, reference_newton_magnitude_solve(y, z, phases, cap))
        assert ladders and accepted and stalled

    def test_failed_stacked_solve_falls_back_level_by_level(self, monkeypatch):
        # when the stacked solve of a ladder fails, its levels are solved one
        # at a time, as the one-step loop solves them
        real_solve = np.linalg.solve
        failed = []

        def no_stacks(a, b):
            if np.ndim(a) == 3:
                failed.append(len(a))
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", no_stacks)
        rng = np.random.default_rng(31)
        for n in (5, 8, 12):
            x = generic_signal(n, 310 + n)
            y, z = modulus_vector(x), fourier_modulus_vector(x)
            for cap in (60, 9):
                args = (y, z, rng.uniform(0, 2 * np.pi, n), cap)
                _assert_same(newton_magnitude_solve(*args), reference_newton_magnitude_solve(*args))
        assert failed

    def test_long_projection_run_on_padded_data(self):
        # the c05 budget on data that determine the signal: residuals are
        # skipped far from the solution set, and one run converges after 57
        # iterations, so the gate must let its first passing iterate stop it
        x = zero_padded(generic_signal(4, 90))
        y, z = modulus_vector(x), fourier_modulus_vector(x)
        rng = np.random.default_rng(9)
        for _ in range(2):
            args = (y, z, rng.uniform(0, 2 * np.pi, len(x)), 2000, 1e-10)
            _assert_same(error_reduction(*args), reference_error_reduction(*args))


class TestUniquenessSpotCheck:
    # independent retrievals agree on data that determine the signal; on the
    # unpadded N-point data they may land in different solution classes
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_two_retrievals_agree_up_to_phase(self, n):
        for s in range(20):
            x_pad = zero_padded(generic_signal(n, 900 + 31 * s))
            y, z = modulus_vector(x_pad), fourier_modulus_vector(x_pad)
            first = retrieve_phase(y, z, PhaseRetrievalConfig(seed=5000 + s))
            second = retrieve_phase(y, z, PhaseRetrievalConfig(seed=6000 + s))
            assert first.success and second.success
            _, dist = best_global_phase(first.candidate, second.candidate)
            assert dist <= 1e-6 * np.linalg.norm(x_pad)
