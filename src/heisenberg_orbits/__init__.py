"""Invariants and orbit recovery for the finite Heisenberg action on C^N.

The group of time shifts, frequency modulations, and global phases acts on
complex vectors. This package computes invariant features of that action
(bispectra of the squared-modulus and squared-Fourier-modulus vectors plus
the degree-N power sum), inverts them back to an orbit element, and checks
the result against an exact orbit oracle. Cyclic-group counterparts
and a CLI for file-based workflows are included.
"""

from .errors import (
    HeisenbergOrbitError,
    InconsistentInvariants,
    InconsistentMagnitudes,
    InputFormatError,
    NonGenericInput,
    NotRealSignal,
    OrderMismatch,
    ZeroInput,
)
from .spectral import (
    DEFAULT_GENERICITY_FLOOR,
    DEFAULT_REL_EQ,
    DEFAULT_RECOVERY_TOL,
    ToleranceConfig,
    as_complex_vector,
    as_real_vector,
    cyclic_shift,
    dft,
    dft_matrix,
    idft,
    max_relative_deviation,
    principal_nth_root,
    sample_random_signal,
)
from .group import (
    GroupElement,
    act,
    enumerate_group,
    identity,
    inverse,
    multiply,
    orbit_distance,
    orbit_equivalent,
)
from .invariants import (
    GenericityReport,
    HeisenbergInvariants,
    bispectra_distance,
    fourier_modulus_bispectrum,
    fourier_modulus_vector,
    heisenberg_invariants,
    invariant_distance,
    is_generic,
    modulus_bispectrum,
    modulus_vector,
    power_invariant,
    unitary_bispectrum,
)
from .inversion import InversionResult, invert_bispectrum, invert_real_bispectrum
from .phase_retrieval import (
    PhaseRetrievalConfig,
    RecoveryReport,
    best_global_phase,
    check_energy_balance,
    error_reduction,
    magnitudes_match,
    newton_magnitude_solve,
    retrieve_phase,
)
from .pipeline import (
    OrbitRecoveryReport,
    StageResiduals,
    recover_orbit,
    verify_against_truth,
)
from .cyclic import (
    WeightedCyclicInvariants,
    apply_weighted_generator,
    degree_audit,
    recover_cyclic_orbit,
    recover_weight12,
    recover_weighted,
    weighted_invariants,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_GENERICITY_FLOOR",
    "DEFAULT_RECOVERY_TOL",
    "DEFAULT_REL_EQ",
    "GenericityReport",
    "GroupElement",
    "HeisenbergInvariants",
    "HeisenbergOrbitError",
    "InconsistentInvariants",
    "InconsistentMagnitudes",
    "InputFormatError",
    "InversionResult",
    "NonGenericInput",
    "NotRealSignal",
    "OrbitRecoveryReport",
    "OrderMismatch",
    "PhaseRetrievalConfig",
    "RecoveryReport",
    "StageResiduals",
    "ToleranceConfig",
    "WeightedCyclicInvariants",
    "ZeroInput",
    "act",
    "apply_weighted_generator",
    "as_complex_vector",
    "as_real_vector",
    "best_global_phase",
    "bispectra_distance",
    "cyclic_shift",
    "degree_audit",
    "dft",
    "dft_matrix",
    "enumerate_group",
    "error_reduction",
    "fourier_modulus_bispectrum",
    "fourier_modulus_vector",
    "heisenberg_invariants",
    "identity",
    "idft",
    "invariant_distance",
    "inverse",
    "invert_bispectrum",
    "invert_real_bispectrum",
    "is_generic",
    "check_energy_balance",
    "magnitudes_match",
    "max_relative_deviation",
    "modulus_bispectrum",
    "modulus_vector",
    "multiply",
    "newton_magnitude_solve",
    "orbit_distance",
    "orbit_equivalent",
    "power_invariant",
    "principal_nth_root",
    "recover_cyclic_orbit",
    "recover_orbit",
    "recover_weight12",
    "recover_weighted",
    "retrieve_phase",
    "sample_random_signal",
    "unitary_bispectrum",
    "verify_against_truth",
    "weighted_invariants",
]
