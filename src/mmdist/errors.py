"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input fails a structural or metric requirement of the operation."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations) if violations else []


class SizeError(RuntimeError):
    """Instance exceeds a size or work limit of the requested routine.

    The message names the limit and, where one exists, the routine to use
    instead.
    """
