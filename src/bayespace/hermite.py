"""Orthonormal exponentiated-Hermite bases on R and R^N.

Basis functions are h_n = exp(-H_n(xi)/sqrt(n!)) with xi the standardized
state, using the probabilist's Hermite polynomials.  They are orthonormal
under the Gaussian measure that standardizes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import List, Optional, Sequence

import numpy as np

from .elements import BayesElement, _row_elements
from .measures import GaussianMeasure

_MAX_ND_ORDER = 3
_MAX_ND_DIM = 3


def _sqrt_factorial(n: int) -> float:
    # exact up to 20!, log-gamma beyond (not reachable at desk scale)
    if n <= 20:
        return math.sqrt(float(math.factorial(n)))
    return math.exp(0.5 * math.lgamma(n + 1))


def hermite_poly(n: int, xi) -> np.ndarray:
    """Probabilist's Hermite polynomial H_n, shaped like ``xi``."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    xi = np.asarray(xi, dtype=float)
    return hermite_design(n, xi.ravel())[n].reshape(xi.shape)


def hermite_design(max_n: int, xi: np.ndarray) -> np.ndarray:
    """Rows H_0..H_max_n by H_{k+1} = xi H_k - k H_{k-1}: (max_n + 1, len(xi))."""
    xi = np.asarray(xi, dtype=float)
    out = np.empty((max_n + 1, xi.size))
    out[0] = 1.0
    if max_n >= 1:
        out[1] = xi
    for k in range(1, max_n):
        out[k + 1] = xi * out[k] - k * out[k - 1]
    return out


def _element_1d(basis: "HermiteBasis1D", n: int) -> BayesElement:
    """Row n of the basis matrix (1-based), with the analytic derivatives of
    the member whose coordinates are the n-th unit vector."""
    member = _series(np.eye(basis.order)[n - 1] / basis.roots, basis)
    return BayesElement(1, lambda x: basis.phi_matrix(x)[n - 1], member.grad, member.hess)


@dataclass(frozen=True)
class HermiteBasis1D:
    """First M exponentiated-Hermite functions, standardized by ``measure``."""

    order: int
    measure: GaussianMeasure
    elements: List[BayesElement] = field(init=False, repr=False)
    mean: float = field(init=False, repr=False)
    sigma: float = field(init=False, repr=False)
    roots: np.ndarray = field(init=False, repr=False)  # sqrt(n!) for n = 1..order

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("basis needs at least one function")
        if self.measure.dim != 1:
            raise ValueError("HermiteBasis1D requires a one-dimensional measure")
        object.__setattr__(self, "mean", float(self.measure.mean[0]))
        object.__setattr__(self, "sigma", float(np.sqrt(self.measure.covariance[0, 0])))
        object.__setattr__(self, "roots", np.array(
            [_sqrt_factorial(n) for n in range(1, self.order + 1)]))
        object.__setattr__(self, "elements",
                           [_element_1d(self, n) for n in range(1, self.order + 1)])

    def unit(self, x: np.ndarray) -> np.ndarray:
        """Standardized states u = (x - mean) / sigma of a batch ``x`` (m, 1)."""
        return (np.asarray(x, dtype=float)[:, 0] - self.mean) / self.sigma

    def phi_matrix(self, x: np.ndarray) -> np.ndarray:
        """The basis at the states ``x`` as an (order, m) matrix: H_n(u)/sqrt(n!)."""
        return hermite_design(self.order, self.unit(x))[1:] / self.roots[:, None]

    def __len__(self) -> int:
        return self.order


def reconstruct(alpha: Sequence[float], basis: HermiteBasis1D) -> BayesElement:
    """The element with the given coordinates: phi = sum alpha_n H_n(u)/sqrt(n!)."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.size != basis.order:
        raise ValueError(f"{alpha.size} coordinates for an order-{basis.order} basis")
    return _series(alpha / basis.roots, basis)


def _series(coeff: np.ndarray, basis: HermiteBasis1D) -> BayesElement:
    """phi = sum coeff_n H_n(u) over n = 1..order, with analytic derivatives."""
    orders = np.arange(1, basis.order + 1)
    sigma = basis.sigma

    def phi(x):
        return coeff @ hermite_design(basis.order, basis.unit(x))[1:]

    def grad(x):
        design = hermite_design(basis.order, basis.unit(x))
        val = (coeff * orders) @ design[:-1] / sigma
        return val[:, None]

    def hess(x):
        u = basis.unit(x)
        if basis.order < 2:
            return np.zeros((u.size, 1, 1))
        design = hermite_design(basis.order - 2, u)
        c2 = coeff[1:] * orders[1:] * (orders[1:] - 1)
        val = c2 @ design / sigma**2
        return val[:, None, None]

    return BayesElement(dim=1, phi=phi, grad=grad, hess=hess)


@dataclass(frozen=True)
class HermiteBasisND:
    """Tensor Hermite basis on R^N, Kronecker-ordered, all-H_0 term removed."""

    order: int
    measure: GaussianMeasure
    index_sets: List[tuple] = field(init=False, repr=False)
    elements: List[BayesElement] = field(init=False, repr=False)
    _design_rows: np.ndarray = field(init=False, repr=False)  # (N, K) index_sets
    _roots: np.ndarray = field(init=False, repr=False)  # prod of sqrt(n!) per set

    def __post_init__(self):
        n = self.measure.dim
        if not (1 <= self.order <= _MAX_ND_ORDER and n <= _MAX_ND_DIM):
            raise ValueError(
                f"multivariate basis capped at order {_MAX_ND_ORDER}, dim {_MAX_ND_DIM}")
        combos = [c for c in product(range(self.order + 1), repeat=n) if any(c)]
        object.__setattr__(self, "index_sets", combos)
        object.__setattr__(self, "_design_rows", np.array(combos).T)
        object.__setattr__(self, "_roots", np.array(
            [math.prod(_sqrt_factorial(k) for k in c) for c in combos]))
        object.__setattr__(self, "elements", _row_elements(self.phi_matrix, n, len(combos)))

    def phi_matrix(self, x: np.ndarray) -> np.ndarray:
        """The basis at the states ``x`` as a (K, m) matrix, rows in
        ``index_sets`` order: products of per-dimension Hermite designs."""
        xi = self.measure.standardize(x)
        out = np.ones((len(self.index_sets), xi.shape[0]))
        for k, rows in enumerate(self._design_rows):
            out *= hermite_design(self.order, xi[:, k])[rows]
        return out / self._roots[:, None]

    def __len__(self) -> int:
        return len(self.elements)


def multivariate_basis(order: int, dim: int, measure: Optional[GaussianMeasure] = None,
                       ) -> HermiteBasisND:
    """(order+1)^dim - 1 orthonormal functions under the given Gaussian measure."""
    if measure is None:
        measure = GaussianMeasure(np.zeros(dim), np.eye(dim))
    if measure.dim != dim:
        raise ValueError(f"measure dimension {measure.dim} != requested {dim}")
    return HermiteBasisND(order=order, measure=measure)
