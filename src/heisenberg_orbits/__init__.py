"""Invariants and orbit recovery for the finite Heisenberg action on C^N.

The group of time shifts, frequency modulations, and global phases acts on
complex vectors. This package computes invariant features of that action
(bispectra of the squared-modulus and squared-Fourier-modulus vectors plus
the degree-N power sum), inverts them back to an orbit element, and checks
the result against an exact orbit oracle. Cyclic-group counterparts
and a CLI for file-based workflows are included.
"""

# each module's __all__ lists the public names it defines; the package
# republishes them all
from . import cyclic, errors, group, invariants, inversion, phase_retrieval, pipeline, spectral
from .errors import *
from .spectral import *
from .group import *
from .invariants import *
from .inversion import *
from .phase_retrieval import *
from .pipeline import *
from .cyclic import *

__version__ = "0.1.0"

__all__ = [
    name
    for mod in (errors, spectral, group, invariants, inversion, phase_retrieval, pipeline, cyclic)
    for name in mod.__all__
]
