"""Exception hierarchy shared across the package."""


class DiffOpsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDimensionError(DiffOpsError, ValueError):
    """Dimension outside the supported range (n >= 3, plus per-check base cases)."""


class InvalidOperationError(DiffOpsError, ValueError):
    """Operation index not valid for the requested family."""


class InvalidOrderError(DiffOpsError, ValueError):
    """Composition order k must be >= 1."""


class InvalidDirectionError(DiffOpsError, ValueError):
    """Direction vector rejected (zero, or not unit length in strict mode)."""


class InvalidArgumentError(DiffOpsError, ValueError):
    """Any other parameter outside its valid range (cap, range, trials, ...)."""


class CompositionTypeError(DiffOpsError, TypeError):
    """Field kind (scalar vs vector) does not match the chain being applied."""


class EnumerationCapError(DiffOpsError):
    """Requested enumeration would exceed the configured chain cap."""

    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"enumeration of {count} chains exceeds cap {cap}")


class ComputationError(DiffOpsError):
    """Internal exactness violation; indicates a bug, never user input."""


class InsufficientTermsError(DiffOpsError, ValueError):
    """A sequence record does not hold enough terms for the requested check."""


class FixtureError(DiffOpsError):
    """Unknown sequence id or malformed fixture file."""
