"""Exception types shared across the package."""

from __future__ import annotations


class ArbiterError(Exception):
    """Base class for all package-specific errors."""


class DataError(ArbiterError):
    """Input data violates a documented contract (bad file, bad value)."""


class ParseError(DataError):
    """A line of an input file could not be parsed."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(where + message)


class ConvergenceError(ArbiterError):
    """A numeric routine failed to converge."""
