"""Exception hierarchy shared across the package."""


class DiffOpsError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(DiffOpsError, ValueError):
    """Invalid input from the caller; the CLI reports it with exit code 2."""


class InvalidDimensionError(UsageError):
    """Dimension outside the supported range (n >= 3, plus per-check base cases)."""


class InvalidOperationError(UsageError):
    """Operation index not valid for the requested family."""


class InvalidOrderError(UsageError):
    """Composition order k must be >= 1."""


class InvalidDirectionError(UsageError):
    """Direction vector rejected (zero, or not unit length in strict mode)."""


class InvalidArgumentError(UsageError):
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


class InsufficientTermsError(UsageError):
    """A sequence record does not hold enough terms for the requested check."""


class FixtureError(DiffOpsError):
    """Unknown sequence id or malformed fixture file."""
