"""Exception types shared across the package."""

__all__ = [
    "HeisenbergOrbitError",
    "OrderMismatch",
    "ZeroInput",
    "NonGenericInput",
    "NotRealSignal",
    "InconsistentMagnitudes",
    "InconsistentInvariants",
    "InputFormatError",
]


class HeisenbergOrbitError(Exception):
    """Base class for every error raised by this package."""


class OrderMismatch(HeisenbergOrbitError):
    """Operands live in groups or spaces of different dimension."""


class ZeroInput(HeisenbergOrbitError):
    """An input that must be bounded away from zero was numerically zero."""


class NonGenericInput(HeisenbergOrbitError):
    """Input violates the nonvanishing conditions recovery relies on."""


class NotRealSignal(HeisenbergOrbitError):
    """A bispectrum expected to come from a real vector did not."""


class InconsistentMagnitudes(HeisenbergOrbitError):
    """Magnitude data cannot come from any signal (energy balance broken)."""


class InconsistentInvariants(HeisenbergOrbitError):
    """An invariant bundle is internally inconsistent."""


class InputFormatError(HeisenbergOrbitError):
    """Malformed serialized input."""
