"""NPML estimation for the Cox model with a missing time-dependent covariate.

The package fits a joint model for right-censored survival times and a
grid-timed longitudinal covariate whose value at the exit time was never
measured: a Gaussian first-order transition model for the covariate, a
proportional-hazards model with a step cumulative baseline hazard jumping at
the observed event times, EM maximization, and an information-operator
variance estimator.  A simulator and a Monte Carlo study harness validate
consistency, normality and confidence-interval coverage empirically.
"""

from .baseline import BaselineFit, breslow, nelson_aalen, partial_lik_fit
from .data import Dataset, MeasurementGrid, SieveHazard, Theta, validate_dataset
from .exceptions import (
    AscentError,
    CoxjmError,
    DegenerateRiskSetError,
    InsufficientDataError,
    ModeSearchError,
    NonConvergenceError,
    SingularOperatorError,
    ValidationError,
)
from .fit import (
    FitConfig,
    FitResult,
    Posterior,
    QuadratureCheck,
    em_fit,
    estep_atoms,
    lambda_update,
    observed_loglik,
    score_full,
    weighted_mle_alpha,
)
from .simulate import SimConfig, SimTruth, fullinfo_dataset, gen_dataset
from .transition import AlphaBox, TransitionParams
from .variance import (
    DiscretizedOperator,
    build_sigma_hat,
    ci,
    var_beta_simple,
    var_estimate,
    variance_report,
)

__version__ = "0.1.0"
