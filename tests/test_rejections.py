"""Input checks at the public entry points: one row per rejected input."""

import math
from dataclasses import astuple
from functools import partial

import numpy as np
import pytest

from heisenberg_orbits import (
    GroupElement,
    HeisenbergInvariants,
    InconsistentInvariants,
    OrbitRecoveryReport,
    OrderMismatch,
    PhaseRetrievalConfig,
    StageResiduals,
    WeightedCyclicInvariants,
    act,
    apply_weighted_generator,
    as_complex_vector,
    best_global_phase,
    cyclic_shift,
    degree_audit,
    dft,
    dft_matrix,
    enumerate_group,
    error_reduction,
    invert_bispectrum,
    is_generic,
    magnitudes_match,
    max_relative_deviation,
    newton_magnitude_solve,
    orbit_distance,
    orbit_equivalent,
    principal_nth_root,
    recover_weight12,
    sample_random_signal,
)

X = sample_random_signal(4, 1)
ONES3 = np.ones(3)
ONES4 = np.ones(4)
# a nan or infinite tolerance would accept any distance, and an infinite
# genericity floor would call every vector non-generic
BAD_TOLERANCES = {"zero": 0.0, "negative": -1.0, "nan": math.nan, "inf": math.inf}


def integer_rows(row_id, call, name, below=None):
    """Rows for one integer argument, call(value): a float and a bool are no
    integer, and `below` (when given) is under the argument's minimum.

    Each message names the argument, so the match pins which check fired.
    """
    cases = {"float": (2.5, "an integer"), "bool": (True, "an integer")}
    if below is not None:
        cases["below"] = (below, "at least")
    return [
        pytest.param(call, (value,), ValueError, f"^{name} must be {rule}", id=f"{row_id}-{kind}")
        for kind, (value, rule) in cases.items()
    ]


# Every integer argument goes through one rule. A below-minimum row is added
# here only where no row further down already covers it.
INTEGER_REJECTIONS = [
    *integer_rows("group-element-order", lambda v: GroupElement(v, 1, 1, 1), "group order"),
    *integer_rows("group-element-k", lambda v: GroupElement(3, v, 0, 0), "k"),
    *integer_rows("group-element-n", lambda v: GroupElement(3, 0, v, 0), "n"),
    *integer_rows("group-element-m", lambda v: GroupElement(3, 0, 0, v), "m"),
    *integer_rows("enumerate_group-order", enumerate_group, "group order"),
    *integer_rows("sample-dimension", lambda v: sample_random_signal(v, 1), "dimension"),
    *integer_rows("sample-seed", lambda v: sample_random_signal(3, v), "seed", below=-1),
    *integer_rows("root-order", lambda v: principal_nth_root(4.0, v), "root order"),
    *integer_rows("shift-k", lambda v: cyclic_shift(ONES3, v), "shift"),
    *integer_rows("dft_matrix-n", dft_matrix, "dimension", below=0),
    *integer_rows("generator-power", lambda v: apply_weighted_generator(ONES3, v), "power"),
    *integer_rows("degree_audit-order", lambda v: degree_audit(v, 3), "group order"),
    *integer_rows("degree_audit-degree", lambda v: degree_audit(2, v), "degree"),
    *integer_rows(
        "config-max-restarts", lambda v: PhaseRetrievalConfig(max_restarts=v), "max_restarts"
    ),
    *integer_rows(
        "config-max-iterations", lambda v: PhaseRetrievalConfig(max_iterations=v),
        "max_iterations", below=0,
    ),
    *integer_rows("config-seed", lambda v: PhaseRetrievalConfig(seed=v), "seed", below=-1),
    *integer_rows(
        "error_reduction-max-iterations",
        lambda v: error_reduction(ONES4, 4 * ONES4, np.zeros(4), v, 1e-10),
        "max_iterations", below=-1,
    ),
    *integer_rows(
        "newton-max-iterations",
        lambda v: newton_magnitude_solve(ONES4, 4 * ONES4, np.zeros(4), v),
        "max_iterations", below=-1,
    ),
]

REJECTIONS = [
    *INTEGER_REJECTIONS,
    *(
        pytest.param(
            is_generic, (X, floor), ValueError, "strictly positive", id=f"is_generic-{name}-floor"
        )
        for name, floor in BAD_TOLERANCES.items()
    ),
    *(
        pytest.param(
            magnitudes_match, (X, ONES4, ONES4, tol), ValueError, "strictly positive",
            id=f"match-{name}-tol",
        )
        for name, tol in BAD_TOLERANCES.items()
    ),
    pytest.param(
        invert_bispectrum, (np.ones((2, 3), complex),), ValueError, "square",
        id="invert-non-square",
    ),
    # a non-finite entry fails the shape check, before any division can warn
    pytest.param(invert_bispectrum, ([[math.nan]],), ValueError, "finite", id="invert-nan"),
    pytest.param(invert_bispectrum, ([[math.inf]],), ValueError, "finite", id="invert-inf"),
    pytest.param(
        HeisenbergInvariants.from_matrices,
        (np.ones((3, 3), complex), np.ones((4, 4), complex), 1.0 + 0j),
        ValueError,
        "n x n",
        id="bundle-bm-shape",
    ),
    pytest.param(
        HeisenbergInvariants.from_matrices,
        (np.ones((3, 4), complex), np.ones((3, 4), complex), 1.0 + 0j),
        ValueError,
        "n x n",
        id="bundle-not-square",
    ),
    pytest.param(
        HeisenbergInvariants.from_matrices,
        (np.zeros((0, 0), complex), np.zeros((0, 0), complex), 0j),
        ValueError,
        "n >= 1",
        id="bundle-n-0",
    ),
    pytest.param(
        partial(WeightedCyclicInvariants, r=1.0, a=()), (), ValueError, "dimension",
        id="weighted-n-0",
    ),
    # a non-finite chain value would recover to nan coordinates
    pytest.param(
        partial(WeightedCyclicInvariants, r=math.nan, a=(1j,)), (), ValueError, "finite",
        id="weighted-r-nan",
    ),
    pytest.param(
        partial(WeightedCyclicInvariants, r=1.0, a=(1j, complex(math.inf, 0))), (), ValueError,
        "finite", id="weighted-a-inf",
    ),
    pytest.param(recover_weight12, (math.nan, 1.0, 1j), ValueError, "finite", id="weight12-r1-nan"),
    pytest.param(recover_weight12, (1.0, math.inf, 1j), ValueError, "finite", id="weight12-r2-inf"),
    pytest.param(
        recover_weight12, (1.0, 1.0, complex(0, math.nan)), ValueError, "finite",
        id="weight12-a-nan",
    ),
    # r2 is checked against the |a|**2 / r1**2 that a implies at any scale,
    # here where |a|**2 or r1**2 * r2 lies past the float range
    pytest.param(
        recover_weight12, (1e200, 1e200, 1e305), InconsistentInvariants, "times r2",
        id="weight12-r2-off-at-large-scale",
    ),
    pytest.param(
        recover_weight12, (1e150, 1e10, 1.0), InconsistentInvariants, "times r2",
        id="weight12-r1-squared-overflows",
    ),
    pytest.param(degree_audit, (1, 1), ValueError, "order", id="degree_audit-order-1"),
    pytest.param(degree_audit, (3, 0), ValueError, "degree", id="degree_audit-degree-0"),
    pytest.param(enumerate_group, (0,), ValueError, "order", id="enumerate_group-order-0"),
    pytest.param(GroupElement, (0, 0, 0, 0), ValueError, "order", id="group-element-order-0"),
    pytest.param(
        max_relative_deviation, (ONES3, np.ones(4)), ValueError, "shapes", id="deviation-shapes"
    ),
    pytest.param(principal_nth_root, (1, 0), ValueError, "root order", id="root-order-0"),
    pytest.param(sample_random_signal, (0, 1), ValueError, "dimension", id="sample-dimension-0"),
    pytest.param(dft, ([],), ValueError, "nonempty", id="dft-empty"),
    pytest.param(dft, ([math.nan],), ValueError, "finite", id="dft-nan"),
    pytest.param(
        as_complex_vector, ([], np.float64), ValueError, "nonempty", id="real-vector-empty"
    ),
    pytest.param(
        as_complex_vector, ([math.inf], np.float64), ValueError, "finite", id="real-vector-inf"
    ),
    pytest.param(
        cyclic_shift, (np.ones((2, 2)), 1), ValueError, "one-dimensional", id="shift-matrix"
    ),
    pytest.param(cyclic_shift, (np.ones(0), 1), ValueError, "nonempty", id="shift-empty"),
    pytest.param(cyclic_shift, ([1.0, math.nan], 1), ValueError, "finite", id="shift-nan"),
    pytest.param(
        magnitudes_match, (X, ONES3, ONES3, 1e-6), OrderMismatch, "4 vs 3", id="match-lengths"
    ),
    pytest.param(best_global_phase, (X, ONES3), OrderMismatch, "4 vs 3", id="phase-lengths"),
    pytest.param(
        partial(PhaseRetrievalConfig, max_restarts=0), (), ValueError, "restart",
        id="config-no-restarts",
    ),
    pytest.param(
        OrbitRecoveryReport,
        (X, StageResiduals(0.0, 0.0, 0.0, 0.0, math.nan), True, {}),
        ValueError,
        "finite",
        id="orbit-report-nan-success",
    ),
]


@pytest.mark.parametrize("call, args, error, message", REJECTIONS)
def test_input_rejected(call, args, error, message):
    with pytest.raises(error, match=message):
        call(*args)


@pytest.mark.parametrize(
    "value", [True, "1e-3", None, 1e-3 + 0j], ids=["bool", "string", "none", "complex"]
)
@pytest.mark.parametrize(
    "call",
    [
        lambda tol: is_generic(X, tol),
        lambda tol: magnitudes_match(X, ONES4, ONES4, tol),
        lambda tol: orbit_equivalent(X, X, tol),
    ],
    ids=["is_generic", "magnitudes_match", "orbit_equivalent"],
)
def test_tolerance_must_be_a_number(call, value):
    # a bool would pass as 1 or 0 and a string failed with a TypeError; the
    # tolerance rule rejects both before any comparison
    with pytest.raises(ValueError, match="^tolerance must be a real number"):
        call(value)


def test_numpy_integers_accepted():
    # numpy integers pass the integer rule and give what Python ints give;
    # GroupElement stores Python ints, also for the witness orbit_distance
    # builds from np.argwhere indices
    i = np.int64
    g = GroupElement(i(5), i(7), i(-1), i(12))
    assert astuple(g) == (5, 2, 4, 2)
    _, witness = orbit_distance(X, act(GroupElement(4, 1, 2, 3), X))
    assert all(type(v) is int for v in (*astuple(g), *astuple(witness)))
    assert enumerate_group(i(2)) == enumerate_group(2)
    np.testing.assert_array_equal(sample_random_signal(i(4), i(1)), X)
    assert principal_nth_root(2j, i(3)) == principal_nth_root(2j, 3)
    np.testing.assert_array_equal(cyclic_shift(X, i(-3)), cyclic_shift(X, -3))
    np.testing.assert_array_equal(dft_matrix(i(4)), dft_matrix(4))
    np.testing.assert_array_equal(
        apply_weighted_generator(X, i(2)), apply_weighted_generator(X, 2)
    )
    assert degree_audit(i(3), i(3)) == 10
    cfg = PhaseRetrievalConfig(max_restarts=i(3), max_iterations=i(4), seed=i(5))
    assert astuple(cfg) == (3, 4, 5) and all(type(v) is int for v in astuple(cfg))
    y, z = np.abs(X) ** 2, np.abs(dft(X)) ** 2
    phases = np.linspace(0.0, 1.0, 4)
    for solve in (partial(error_reduction, residual_target=1e-10), newton_magnitude_solve):
        numpy_run, int_run = solve(y, z, phases, i(7)), solve(y, z, phases, 7)
        np.testing.assert_array_equal(numpy_run[0], int_run[0])
        assert numpy_run[1:] == int_run[1:]
