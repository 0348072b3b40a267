"""Exception types shared across the package."""


class EllTError(Exception):
    """Base class for all package-specific errors."""


class ZeroSeries(EllTError, ArithmeticError):
    """A series known only to be zero to its stated precision was used
    where a nonzero leading coefficient is required."""


class PrecisionExhausted(EllTError, ArithmeticError):
    """Cancellation ate every retained coefficient of a truncated series;
    the caller must restart the computation with more terms."""


class UnsupportedPoles(EllTError, ValueError):
    """A function has a pole off the recognised torsion-order classes
    (or beyond the validated order bound), so divisor-window operations
    cannot place it."""


class DepthExceeded(EllTError, ValueError):
    """A principal-part request asked for a depth below 1; poles deeper
    than the requested depth are truncated, not refused."""


class CapTooSmall(EllTError):
    """Window caps are too small to certify kernel/cokernel dimensions.

    Raised instead of returning a number that might be wrong.
    """

    def __init__(self, message, caps=None):
        super().__init__(message)
        self.caps = dict(caps) if caps else None


class ValidationFailed(EllTError, ValueError):
    """An input failed a structural validation (singular curve, bad
    coordinate, malformed divisor, ...)."""
