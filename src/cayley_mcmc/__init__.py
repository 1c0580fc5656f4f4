"""Euclidean-coordinate parametrization of orthogonal-frame manifolds.

The package maps p x k orthonormal frames (and their subspace
representatives) to unconstrained Euclidean coordinates through the Cayley
transform, evaluates the change-of-variables Jacobian in log scale, and runs
Metropolis-Hastings samplers for densities defined directly on the
manifolds. Three end-to-end studies (uniform sampling, a spiked-covariance
posterior, and a Gaussian coupling-error study) are included, along with a
command-line interface.
"""

from .cayley import (
    GrassmannCoords,
    GrassmannPoint,
    ManifoldDims,
    StiefelCoords,
    StiefelPoint,
    canonicalize_grassmann,
    cayley_forward_grassmann,
    cayley_forward_stiefel,
    cayley_inverse_grassmann,
    cayley_inverse_stiefel,
    grassmann_domain_margin,
)
from .densities import (
    BinghamParams,
    EntryMarginal,
    LogDensity,
    PullbackTarget,
    bingham_log_density,
    pullback_log_density,
    uniform_log_density,
)
from .diagnostics import (
    acf_ess,
    coupling_epsilon,
    haar_stiefel,
    ks_statistic,
    principal_angles,
)
from .errors import CayleyError, ConditioningError, DomainError
from .experiments import (
    ExperimentReport,
    SpikedDataSpec,
    run_bingham_experiment,
    run_normal_approx_experiment,
    run_uniform_experiment,
    simulate_spiked_data,
)
from .jacobian import (
    derivative_grassmann,
    derivative_stiefel,
    log_jacobian_block_grassmann,
    log_jacobian_block_stiefel,
    log_jacobian_naive,
)
from .sampler import ProposalConfig, RunConfig, run_chain, run_chains
from .special_matrices import commutation_matrix, dtilde_matrix, gamma_grassmann, gamma_stiefel

__version__ = "0.1.0"

__all__ = [
    "BinghamParams",
    "CayleyError",
    "ConditioningError",
    "DomainError",
    "EntryMarginal",
    "ExperimentReport",
    "GrassmannCoords",
    "GrassmannPoint",
    "LogDensity",
    "ManifoldDims",
    "ProposalConfig",
    "PullbackTarget",
    "RunConfig",
    "SpikedDataSpec",
    "StiefelCoords",
    "StiefelPoint",
    "acf_ess",
    "bingham_log_density",
    "canonicalize_grassmann",
    "cayley_forward_grassmann",
    "cayley_forward_stiefel",
    "cayley_inverse_grassmann",
    "cayley_inverse_stiefel",
    "commutation_matrix",
    "coupling_epsilon",
    "derivative_grassmann",
    "derivative_stiefel",
    "dtilde_matrix",
    "gamma_grassmann",
    "gamma_stiefel",
    "grassmann_domain_margin",
    "haar_stiefel",
    "ks_statistic",
    "log_jacobian_block_grassmann",
    "log_jacobian_block_stiefel",
    "log_jacobian_naive",
    "principal_angles",
    "pullback_log_density",
    "run_bingham_experiment",
    "run_chain",
    "run_chains",
    "run_normal_approx_experiment",
    "run_uniform_experiment",
    "simulate_spiked_data",
    "uniform_log_density",
]
