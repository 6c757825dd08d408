"""Exception types shared across the package, one class per failure cause."""

__all__ = [
    "HeisenbergOrbitError",
    "OrderMismatch",
    "NonGenericInput",
    "InconsistentInvariants",
    "InputFormatError",
]


class HeisenbergOrbitError(Exception):
    """Base class for every error raised by this package."""


class OrderMismatch(HeisenbergOrbitError):
    """Operands live in groups or spaces of different dimension."""


class NonGenericInput(HeisenbergOrbitError):
    """Input violates the nonvanishing conditions recovery relies on."""


class InconsistentInvariants(HeisenbergOrbitError):
    """Data that no signal has: invariants, bispectra or magnitudes."""


class InputFormatError(HeisenbergOrbitError):
    """Malformed serialized input."""
