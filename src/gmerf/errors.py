"""Exception types shared across the solvers.

Argument validation raises plain ValueError; these classes mark failures of
the numerical machinery itself so callers (and the CLI) can tell a bad input
from a solve that did not finish.
"""

from __future__ import annotations

__all__ = [
    "GmerfError",
    "BracketError",
    "RootConvergenceError",
    "ContractionError",
    "FixedPointError",
]


class GmerfError(Exception):
    """Base class for solver failures."""


class BracketError(GmerfError):
    """A root bracket is invalid or could not be established, or a root lies outside the searched range."""


class RootConvergenceError(GmerfError):
    """Root finding hit the iteration cap.

    Attributes
    ----------
    best : float
        Best root estimate at abort time.
    """

    def __init__(self, message: str, best: float):
        super().__init__(message)
        self.best = best


class ContractionError(GmerfError):
    """Requested slope parameter lies outside the certified contraction range."""


class FixedPointError(GmerfError):
    """Picard iteration did not reach the requested tolerance.

    Attributes
    ----------
    residual : float
        Final sup-norm update size.
    iterations : int
        Number of iterations performed.
    """

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
