"""Exception hierarchy for the scalevar toolkit, and how messages echo user text."""


class ScaleVarError(Exception):
    """Base class for all scalevar errors."""


class ValidationError(ScaleVarError):
    """Invalid arguments, configuration, or contract violations detected up front."""


class GridError(ValidationError):
    """Grid geometry violations: off-node times, step mismatches, padding deficits."""


class DomainError(ValidationError):
    """Evaluation requested outside a path's represented time interval."""


class ExpressionError(ValidationError):
    """Expression parsing or differentiation failure, with a 1-based source column."""

    def __init__(self, message: str, column: int | None = None):
        if column is not None:
            message = f"{message} (column {column})"
        super().__init__(message)
        self.column = column


class NumericalError(ScaleVarError):
    """Numerical breakdown at run time: NaN, divergence, degenerate data."""


def clipped(text: str) -> str:
    """text echoed in a message, cut to at most 80 characters."""
    return text if len(text) <= 80 else text[:77] + "..."


def shown(value) -> str:
    """repr of a value echoed in a message, cut to at most 80 characters."""
    return clipped(repr(value))
