"""Exception types shared across the package.

Subclasses of ValueError signal bad input (malformed files, walks that do
not fit the graph, preconditions the caller failed to meet).  NumericalError
signals that a numeric routine failed one of its internal consistency
checks and the result cannot be trusted.
"""

__all__ = [
    "GraphFormatError",
    "InvalidWalkError",
    "NotMonographError",
    "ScaleLimitError",
    "NumericalError",
]


class GraphFormatError(ValueError):
    """A graph file could not be parsed; the message carries the line number."""


class InvalidWalkError(ValueError):
    """A walk does not fit the graph it is evaluated against."""


class NotMonographError(ValueError):
    """An operation required a monograph and the graph is not one."""


class ScaleLimitError(ValueError):
    """An exponential-time routine was asked for a graph beyond its size guard."""


class NumericalError(RuntimeError):
    """A numeric computation failed its internal consistency checks."""
