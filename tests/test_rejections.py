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
    RecoveryReport,
    StageResiduals,
    best_global_phase,
    degree_audit,
    dft,
    enumerate_group,
    invert_bispectrum,
    is_generic,
    magnitudes_match,
    max_relative_deviation,
    principal_nth_root,
    sample_random_signal,
)

X = sample_random_signal(4, 1)
ONES3 = np.ones(3)

REJECTIONS = [
    pytest.param(is_generic, (X, 0.0), ValueError, "floor", id="is_generic-zero-floor"),
    pytest.param(
        invert_bispectrum, (np.ones((2, 3), complex),), ValueError, "square",
        id="invert-non-square",
    ),
    pytest.param(
        HeisenbergInvariants,
        (4, np.ones((3, 3), complex), np.ones((4, 4), complex), 1.0 + 0j),
        ValueError,
        "n x n",
        id="bundle-bm-shape",
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
        magnitudes_match, (X, ONES3, ONES3, 1e-6), OrderMismatch, "4 vs 3", id="match-lengths"
    ),
    pytest.param(best_global_phase, (X, ONES3), OrderMismatch, "4 vs 3", id="phase-lengths"),
    pytest.param(
        partial(PhaseRetrievalConfig, max_restarts=0), (), ValueError, "restart",
        id="config-no-restarts",
    ),
    pytest.param(
        RecoveryReport, (X, math.nan, 1, True), ValueError, "finite", id="report-nan-success"
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
