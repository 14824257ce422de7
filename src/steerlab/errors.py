"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid or unsupported parameter/reservoir combination."""


class PhaseBoundaryError(ConfigurationError):
    """Coupling sits on (or numerically too close to) the level-crossing
    kappa = 2*sqrt(eps_a*eps_b), where the lower transition energy vanishes."""


class PositivityError(RuntimeError):
    """A steady state that a result needs (a threshold margin) is not positive."""


class DegenerateSteadyStateError(RuntimeError):
    """Null space of the evolution matrix is not numerically one-dimensional."""


class InternalConsistencyError(RuntimeError):
    """Two independent routes disagreed, or a result's accuracy is not assured; never masked."""
