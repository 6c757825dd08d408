"""Input checks at the public entry points: one row per rejected input."""

import math
from functools import partial

import numpy as np
import pytest

from heisenberg_orbits import (
    GroupElement,
    HeisenbergInvariants,
    OrbitRecoveryReport,
    OrderMismatch,
    PhaseRetrievalConfig,
    StageResiduals,
    WeightedCyclicInvariants,
    as_complex_vector,
    best_global_phase,
    cyclic_shift,
    degree_audit,
    dft,
    enumerate_group,
    invert_bispectrum,
    is_generic,
    magnitudes_match,
    max_relative_deviation,
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

REJECTIONS = [
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
        HeisenbergInvariants,
        (np.ones((3, 3), complex), np.ones((4, 4), complex), 1.0 + 0j),
        ValueError,
        "n x n",
        id="bundle-bm-shape",
    ),
    pytest.param(
        HeisenbergInvariants,
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
