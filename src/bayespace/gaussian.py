"""The indefinite-Gaussian subspace: basis, coordinates, projection, information.

The subspace is spanned by N(N+3)/2 exponentiated functions of the
standardized state: the N linear ones and the N(N+1)/2 scaled quadratic
monomials, orthonormal under the Gaussian measure that standardizes them.
Members are exponentiated quadratics whose "covariance" may be
sign-indefinite; only the positive-definite ones are valid PDFs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .elements import BayesElement, _quadratic_element, _row_elements, element_grad, element_hess
from .errors import EvaluationFailure, SingularInformation
from .matrixops import unvech, vech, vech_indices, vech_weights
from .measures import GaussianMeasure
from .quadrature import QuadratureSpec, measure_nodes

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class GaussianBasis:
    """Orthonormal basis for the indefinite-Gaussian subspace under ``measure``."""

    measure: GaussianMeasure
    elements: List[BayesElement] = field(init=False, repr=False)

    def __post_init__(self):
        n = self.measure.dim
        object.__setattr__(self, "elements", _row_elements(self.phi_matrix, n, len(self)))

    def phi_matrix(self, x: np.ndarray) -> np.ndarray:
        """The basis at the states ``x`` as a (K, m) matrix: the N standardized
        coordinates, then their vech products scaled by ``vech_weights``."""
        n = self.measure.dim
        xi = self.measure.standardize(x)
        rows, cols = vech_indices(n)
        return np.vstack([xi.T, vech_weights(n)[:, None] * (xi[:, rows] * xi[:, cols]).T])

    def __len__(self) -> int:
        n = self.measure.dim
        return n * (n + 3) // 2


def gaussian_basis(measure: GaussianMeasure) -> GaussianBasis:
    return GaussianBasis(measure=measure)


@dataclass(frozen=True)
class IndefGaussian:
    """Exponentiated quadratic in information form; ``spd`` marks a valid PDF."""

    mean_like: np.ndarray
    info: np.ndarray
    spd: bool

    def covariance(self) -> np.ndarray:
        if not self.spd:
            raise SingularInformation("info is not positive-definite")
        return np.linalg.inv(self.info)

    def to_element(self) -> BayesElement:
        return _quadratic_element(self.mean_like, self.info)

    def to_measure(self) -> GaussianMeasure:
        return GaussianMeasure(self.mean_like, self.covariance())


def _is_spd(a: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(a)
        return True
    except np.linalg.LinAlgError:
        return False


def expected_derivatives(p: BayesElement, measure: GaussianMeasure,
                         spec: QuadratureSpec) -> Tuple[np.ndarray, np.ndarray]:
    """E_nu[d phi/dx] and E_nu[d^2 phi/dx dx] under the Gaussian measure.

    Raises :class:`EvaluationFailure` when either is not finite.
    """
    points, w = measure_nodes(measure, spec)
    gv, hv = element_grad(p, points), element_hess(p, points)
    with np.errstate(all="ignore"):  # a non-finite sum raises below
        g = w @ gv
        h = np.einsum("i,ijk->jk", w, hv)
    if not (np.isfinite(g).all() and np.isfinite(h).all()):
        raise EvaluationFailure("expected derivatives are not finite")
    return g, 0.5 * (h + h.T)


def gaussian_coordinates(p: BayesElement, measure: GaussianMeasure,
                         spec: QuadratureSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Coordinates of p in the Gaussian basis, via expected derivatives.

    alpha_1 = L^T E[d phi], alpha_2 = sqrt(0.5 D^T D) vech(L^T E[d^2 phi] L),
    where sqrt(0.5 D^T D) is the diagonal ``vech_weights``; Stein's lemma makes
    these equal to the direct inner products <g, p>.
    """
    g, h = expected_derivatives(p, measure, spec)
    chol = measure.cholesky
    alpha1 = chol.T @ g
    alpha2 = vech_weights(measure.dim) * vech(chol.T @ h @ chol)
    return alpha1, alpha2


def project_to_gaussian(p: BayesElement, measure: GaussianMeasure,
                        spec: QuadratureSpec) -> IndefGaussian:
    """Orthogonal projection of p onto the indefinite-Gaussian subspace.

    The projected information is E_nu[d^2 phi]; the mean-like point solves
    info (mu+ - mu) = -E_nu[d phi].  Raises :class:`SingularInformation`
    when the information is numerically singular.
    """
    g, h = expected_derivatives(p, measure, spec)
    if np.linalg.cond(h) > _COND_LIMIT:
        raise SingularInformation("projected information matrix is numerically singular")
    mean_like = measure.mean + np.linalg.solve(h, -g)
    return IndefGaussian(mean_like=mean_like, info=h, spd=_is_spd(h))


def gaussian_from_coordinates(alpha1: np.ndarray, alpha2: np.ndarray,
                              measure: GaussianMeasure) -> IndefGaussian:
    """Rebuild the subspace member with the given coordinates.

    With S the symmetric matrix encoded by alpha_2, the member has mean
    mu - L S^{-1} alpha_1 and covariance L S^{-1} L^T.
    """
    s = unvech(np.asarray(alpha2, dtype=float) / vech_weights(measure.dim))
    chol = measure.cholesky
    if np.linalg.cond(s) > _COND_LIMIT:
        raise SingularInformation("coordinate matrix S is numerically singular")
    linv = np.linalg.inv(chol)
    info = linv.T @ s @ linv
    info = 0.5 * (info + info.T)
    mean_like = measure.mean - chol @ np.linalg.solve(s, np.asarray(alpha1, dtype=float))
    return IndefGaussian(mean_like=mean_like, info=info, spd=_is_spd(info))

