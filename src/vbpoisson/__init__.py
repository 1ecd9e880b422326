"""Variational Bayes methods for sparse Poisson regression.

Three mean-field coordinate-ascent engines (Laplace, continuous
spike-and-slab, Bernoulli-Gaussian priors) with sparsity thresholds,
posterior predictive mass functions, a simulation harness and a small
Metropolis-within-Gibbs sampler for posterior validation.
"""

from .bernoulli import fit_bernoulli
from .core import (
    Dataset,
    FitResult,
    GaussianPosterior,
    Hyperparameters,
    Method,
    rho2_for_inclusion,
    validate,
)
from .errors import (
    DivergenceError,
    GenerationError,
    IntegrationError,
    NumericalError,
    TruncationError,
    TuningError,
    VbPoissonError,
)
from .harness import HIGH_DIM, LOW_DIM, MetricsReport, ScenarioConfig, generate, run_study
from .laplace import fit_laplace
from .mcmc import Chain, McmcConfig, accuracy, accuracy_discrete, sample
from .predict import (
    PredictiveDistribution,
    hpd_coefficients,
    ppmf_gaussian,
    predictive_distribution,
    predictive_modes,
)
from .sparsify import SparseCoefficients, poisson_loglik, threshold_bernoulli, threshold_hard
from .spike_slab import fit_cs

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "FitResult",
    "GaussianPosterior",
    "Hyperparameters",
    "Method",
    "rho2_for_inclusion",
    "validate",
    "fit_laplace",
    "fit_cs",
    "fit_bernoulli",
    "SparseCoefficients",
    "poisson_loglik",
    "threshold_bernoulli",
    "threshold_hard",
    "PredictiveDistribution",
    "ppmf_gaussian",
    "predictive_distribution",
    "predictive_modes",
    "hpd_coefficients",
    "ScenarioConfig",
    "MetricsReport",
    "LOW_DIM",
    "HIGH_DIM",
    "generate",
    "run_study",
    "McmcConfig",
    "Chain",
    "sample",
    "accuracy",
    "accuracy_discrete",
    "VbPoissonError",
    "IntegrationError",
    "DivergenceError",
    "NumericalError",
    "TruncationError",
    "GenerationError",
    "TuningError",
]
