"""Bayesian Hilbert space numerics: element algebra, orthonormal bases,
KL-projection machinery, and sparse Gaussian variational inference."""

from .elements import (BayesElement, add, constant_element, divergence, equivalent,
                       gaussian_element, information, inner_product, normalize,
                       scale, stochastic_derivative, subtract)
from .errors import (BayesSpaceError, ConfigError, DimensionMismatch,
                     EvaluationFailure, MeasureInvalid, NonSPD, NotNormalizable,
                     SingularGram, SingularInformation)
from .gaussian import (GaussianBasis, IndefGaussian, expected_derivatives, gaussian_basis,
                       gaussian_coordinates, gaussian_from_coordinates, project_to_gaussian)
from .gvi import (Factor, FactorGraph, GaussianState, GviOptions, assemble,
                  factor_expectations, gvi_sparse_solve, marginals_for_factors,
                  odom_factor, prior_factor, range_factor, stereo_factor)
from .hermite import HermiteBasis1D, HermiteBasisND, hermite_poly, multivariate_basis, reconstruct
from .matrixops import DuplicationOps, build_duplication, vec, vech, vech_weights, unvech
from .measures import GaussianMeasure
from .oracles import (coordinates, coordinates_via_derivatives, fim, gaussian_coordinates_direct,
                      gaussian_information, gvi_dense_solve, gvi_step_dense, iterate_newton,
                      joint_element, kernel_apply, kl_gradient, kl_hessian, kl_hessian_fim,
                      measure_derivative_ip, reconstruct_in_basis, scale_by_function, stein_check)
from .quadrature import QuadratureSpec, expect, gauss_hermite_rule, gh_spec, grid_spec
from .variational import (BasisSet, GaussianSubspace, HermiteSubspace, IterateOptions,
                          IterationTrace, gram, iterate, kl, project, reporting_grid)

__all__ = [name for name in dir() if not name.startswith("_")]
