"""Exception types shared across the package."""


class VbPoissonError(Exception):
    """Base class for all package-specific failures."""


class IntegrationError(VbPoissonError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the best partial estimate in ``estimate``.
    """

    def __init__(self, message, estimate):
        super().__init__(message)
        self.estimate = estimate


class DivergenceError(VbPoissonError):
    """The linear predictor ran away (exp overflow); the fit diverged."""


class NumericalError(VbPoissonError):
    """A linear-algebra or expectation update produced an unusable value."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class TruncationError(VbPoissonError):
    """A predictive pmf cannot reach its mass target within the enumeration cap.

    ``accumulated_mass`` is the summed mass of the evaluated counts: 0.0 when
    the row's rate law was refused before any count was evaluated.
    """

    def __init__(self, message, accumulated_mass):
        super().__init__(message)
        self.accumulated_mass = accumulated_mass


class GenerationError(VbPoissonError):
    """Synthetic data generation kept producing degenerate Poisson rates."""


class TuningError(VbPoissonError):
    """MCMC step-size adaptation could not reach a workable acceptance rate."""
