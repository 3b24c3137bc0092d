"""sdem: mollified stochastic-flow simulation and estimator harness.

Simulates elliptic SDEs whose coefficients are merely Hoelder continuous by
smoothing them at a scale eps, integrates the coupled state/derivative-flow
system under common random numbers across smoothing levels, and provides
estimators for transition-kernel bounds, semigroup gradients, and the
path-space integration by parts identity.
"""

from .fields import (FieldError, DerivativeUnavailableError, FieldMeta,
                     GrowthProfile, VectorFieldSet, builtin_field,
                     ellipticity_margin, hoelder_estimate, g_function,
                     check_growth_profile,
                     condition_g_estimate, radial_cutoff,
                     field_to_json, field_from_json)
from .mollify import (QuadSpec, QuadratureError, MollifiedFieldSet, eta,
                      eta_grad, mollify_field, mollify_scalar, sup_error)
from .flow import (BLOCK, TimeGrid, BrownianBatch, FlowPath, EnsembleResult,
                   integrate, run_ensemble, coupled_family, sup_distance,
                   moment_sup, exp_g_functional, spatial_derivative_check)
from .kernel import (DensityQuery, gaussian_kernel, silverman_bandwidth,
                     density_estimate, kernel_bound_fit)
from .malliavin import (MCConfig, CameronMartinPath, right_inverse,
                        RightInverseError, bismut_gradient,
                        intertwine_gradient, fd_gradient, divergence, ibp_check)
from .serialize import save_ensemble, load_ensemble, ensemble_csv_summary
from .report import EstimatorReport
from .harness import ExperimentConfig, run_command, COMMANDS

__version__ = "0.1.0"
