"""Shared exception types."""


class KkfreeError(Exception):
    """Base class for all library errors."""


class InvalidInputError(KkfreeError):
    """Malformed or out-of-contract input."""


class DimensionMismatchError(InvalidInputError):
    """A point and a range (or two objects) disagree on ambient dimension."""


class UnsupportedInputError(KkfreeError):
    """Input outside the supported class (e.g. a vertical hyperplane)."""


class NotApplicableError(KkfreeError):
    """Operation precondition failed; carries a witness when one exists."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class UnknownVerdictError(KkfreeError):
    """A bounded search ran out of budget; the answer is genuinely unknown."""
