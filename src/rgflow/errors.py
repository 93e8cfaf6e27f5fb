"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised when an experiment configuration fails validation."""


class NonConvergenceError(RuntimeError):
    """Raised when an iterative solver or estimator fails its convergence contract."""


class QuadratureOverflowError(NonConvergenceError):
    """Raised when a quadrature overflows or a grid weight underflows."""
