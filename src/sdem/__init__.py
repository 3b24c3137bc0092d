"""sdem: mollified stochastic-flow simulation and estimator harness.

Simulates elliptic SDEs whose coefficients are merely Hoelder continuous by
smoothing them at a scale eps, integrates the coupled state/derivative-flow
system under common random numbers across smoothing levels, and provides
estimators for transition-kernel bounds, semigroup gradients, and the
path-space integration by parts identity.
"""

from .fields import (FieldError, DerivativeUnavailableError, VectorFieldSet, builtin_field,
                     g_function, condition_g_estimate, field_from_json)
from .mollify import MollifiedFieldSet, mollify_field
from .flow import (BLOCK, TimeGrid, BrownianBatch, EnsembleResult, run_ensemble,
                   coupled_family, moment_sup, exp_g_functional)
from .kernel import (DensityQuery, silverman_bandwidth,
                     density_estimate, kernel_bound_fit)
from .malliavin import (CameronMartinPath, right_inverse, RightInverseError,
                        gradient_routes, divergence, ibp_check)
from .report import EstimatorReport
from .harness import ExperimentConfig, run_command, STUDIES

__version__ = "0.1.0"
