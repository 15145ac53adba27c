"""Error types and the linear-space underflow floor shared across the
library.

Argument and domain violations raise plain ValueError; the classes here
cover failures of the numerical machinery itself.
"""

UNDERFLOW_LIMIT = 1e-300           # probabilities below this exist only in log space


class SolverError(RuntimeError):
    """An iterative solver stopped without reaching its tolerance.

    Carries the iteration count, the last iterate, and the residuals at
    that iterate so callers can diagnose or restart.
    """

    def __init__(self, message, iterations=None, last_iterate=None, residuals=None):
        super().__init__(message)
        self.iterations = iterations
        self.last_iterate = last_iterate
        self.residuals = residuals


class NumericalError(RuntimeError):
    """A computed quantity failed a validity check (positivity, spectral
    bounds, consistency gates, quadrature termination)."""
