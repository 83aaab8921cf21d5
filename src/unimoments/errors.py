"""Exception types shared across the package."""

__all__ = ["ScaleLimitError", "InternalCheckError"]


class ScaleLimitError(ValueError):
    """A requested computation exceeds the scale an operation is willing to run at."""


class InternalCheckError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""
