"""Bayes-space elements and their vector algebra.

An element is a strictly positive function represented by its negative-log
``phi``; the multiplicative constant of the underlying density is never
tracked because the space's equivalence relation makes it meaningless.
Vector addition is pointwise multiplication of densities (phi's add),
scalar multiplication is powering (phi scales), and the zero vector is any
constant function.

``phi`` is batch-vectorized: it maps an (m, N) array of states to an (m,)
array.  Optional ``grad`` (m, N) -> (m, N) and ``hess`` (m, N) -> (m, N, N)
callbacks carry analytic derivatives; central finite differences substitute
when they are absent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .errors import DimensionMismatch, EvaluationFailure, NotNormalizable
from .measures import GaussianMeasure
from .quadrature import (GRID, QuadratureSpec, bounded_grid, grid_faces, measure_nodes,
                         trapezoid_points)

_FD_STEP = np.finfo(float).eps ** (1.0 / 3.0)      # first derivatives
_FD_STEP2 = np.finfo(float).eps ** 0.25            # direct second differences
_EDGE_DECAY_GRID = 1e-6
_EDGE_SHARE_GH = 1e-3


@dataclass(frozen=True)
class BayesElement:
    """One member of Bayes space, held as its negative-log function."""

    dim: int
    phi: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")


def constant_element(dim: int = 1) -> BayesElement:
    """The zero vector of Bayes space (any constant function)."""
    return BayesElement(
        dim=dim,
        phi=lambda x: np.zeros(np.asarray(x).shape[0]),
        grad=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        hess=lambda x: np.zeros((np.asarray(x).shape[0], dim, dim)),
    )


def gaussian_element(mean, covariance) -> BayesElement:
    """Element with phi(x) = 0.5 (x-mean)^T covariance^{-1} (x-mean)."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(covariance, dtype=float))
    info = np.linalg.inv(cov)
    return _quadratic_element(mean, 0.5 * (info + info.T))


def _quadratic_element(mean: np.ndarray, info: np.ndarray) -> BayesElement:
    """Element with phi(x) = 0.5 (x-mean)^T info (x-mean) and its exact
    derivatives; ``info`` may be indefinite."""
    dim = mean.size

    def phi(x):
        d = np.asarray(x, dtype=float) - mean
        return 0.5 * np.einsum("...i,ij,...j->...", d, info, d)

    def grad(x):
        return (np.asarray(x, dtype=float) - mean) @ info

    def hess(x):
        return np.broadcast_to(info, (np.asarray(x).shape[0], dim, dim)).copy()

    return BayesElement(dim=dim, phi=phi, grad=grad, hess=hess)


def _row_elements(phi_matrix: Callable[[np.ndarray], np.ndarray], dim: int,
                  count: int) -> List[BayesElement]:
    """One element per row of a basis matrix ``phi_matrix(x)`` of shape (count, m)."""
    return [BayesElement(dim, lambda x, k=k: phi_matrix(x)[k]) for k in range(count)]


def _check_dims(p: BayesElement, q: BayesElement):
    if p.dim != q.dim:
        raise DimensionMismatch(f"elements live on R^{p.dim} and R^{q.dim}")


def add(p: BayesElement, q: BayesElement) -> BayesElement:
    """Vector addition: densities multiply, so the phi's add."""
    _check_dims(p, q)
    grad = None
    if p.grad is not None and q.grad is not None:
        grad = lambda x, pg=p.grad, qg=q.grad: pg(x) + qg(x)
    hess = None
    if p.hess is not None and q.hess is not None:
        hess = lambda x, ph=p.hess, qh=q.hess: ph(x) + qh(x)
    return BayesElement(p.dim, lambda x, pp=p.phi, qp=q.phi: pp(x) + qp(x), grad, hess)


def scale(a: float, p: BayesElement) -> BayesElement:
    """Scalar multiplication: the density is powered, so phi scales."""
    a = float(a)
    grad = None if p.grad is None else (lambda x, g=p.grad: a * g(x))
    hess = None if p.hess is None else (lambda x, h=p.hess: a * h(x))
    return BayesElement(p.dim, lambda x, pp=p.phi: a * pp(x), grad, hess)


def subtract(p: BayesElement, q: BayesElement) -> BayesElement:
    """p minus q, i.e. p plus (-1) times q."""
    return add(p, scale(-1.0, q))


def element_grad(p: BayesElement, x: np.ndarray) -> np.ndarray:
    """Gradient of phi at the batch ``x``; finite differences if needed."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if p.grad is not None:
        return np.asarray(p.grad(x), dtype=float)
    out = np.empty_like(x)
    for j in range(p.dim):
        h = _FD_STEP * np.maximum(1.0, np.abs(x[:, j]))
        xp, xm = x.copy(), x.copy()
        xp[:, j] += h
        xm[:, j] -= h
        out[:, j] = (p.phi(xp) - p.phi(xm)) / (2 * h)
    return out


def element_hess(p: BayesElement, x: np.ndarray) -> np.ndarray:
    """Hessian of phi at the batch ``x``; differentiates grad or phi as available."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    m, n = x.shape
    if p.hess is not None:
        return np.asarray(p.hess(x), dtype=float)
    out = np.empty((m, n, n))
    if p.grad is not None:
        for j in range(n):
            h = _FD_STEP * np.maximum(1.0, np.abs(x[:, j]))
            xp, xm = x.copy(), x.copy()
            xp[:, j] += h
            xm[:, j] -= h
            out[:, :, j] = (p.grad(xp) - p.grad(xm)) / (2 * h)[:, None]
        return 0.5 * (out + np.transpose(out, (0, 2, 1)))
    f0 = p.phi(x)
    steps = _FD_STEP2 * np.maximum(1.0, np.abs(x))
    for i in range(n):
        hi = steps[:, i]
        xp, xm = x.copy(), x.copy()
        xp[:, i] += hi
        xm[:, i] -= hi
        out[:, i, i] = (p.phi(xp) - 2 * f0 + p.phi(xm)) / hi**2
        for j in range(i + 1, n):
            hj = steps[:, j]
            xpp, xpm, xmp, xmm = x.copy(), x.copy(), x.copy(), x.copy()
            xpp[:, i] += hi; xpp[:, j] += hj
            xpm[:, i] += hi; xpm[:, j] -= hj
            xmp[:, i] -= hi; xmp[:, j] += hj
            xmm[:, i] -= hi; xmm[:, j] -= hj
            val = (p.phi(xpp) - p.phi(xpm) - p.phi(xmp) + p.phi(xmm)) / (4 * hi * hj)
            out[:, i, j] = val
            out[:, j, i] = val
    return out


def equivalent(p: BayesElement, q: BayesElement,
               points: Optional[np.ndarray] = None, rtol: float = 1e-8) -> bool:
    """Equality up to the additive constant in phi.

    The spread of phi_p - phi_q over a 64-point sample must vanish relative
    to the size of the (possibly constant) difference.
    """
    _check_dims(p, q)
    if points is None:
        points = np.random.default_rng(2408).standard_normal((64, p.dim))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    diff = p.phi(points) - q.phi(points)
    return float(np.std(diff)) < rtol * (1.0 + float(np.mean(np.abs(diff))))


def stochastic_derivative(family: Callable[[float], BayesElement],
                          theta: float, step: float = 1e-5) -> BayesElement:
    """Central-difference realization of the derivative of a curve in Bayes space."""
    lam = float(step)
    return scale(1.0 / (2.0 * lam), subtract(family(theta + lam), family(theta - lam)))


# ---------------------------------------------------------------------------
# Normalization and inner products
# ---------------------------------------------------------------------------

def _grid_density(p: BayesElement, spec: QuadratureSpec,
                  measure: Optional[GaussianMeasure] = None):
    """p normalized on a trapezoid grid: (points, phi, weights, log Z).

    ``weights`` are the probability weights exp(-phi) dx / Z of the grid
    nodes.  Raises :class:`EvaluationFailure` when phi is NaN and
    :class:`NotNormalizable` when the density does not decay at the grid's
    faces or its integral is not finite.  A grid without bounds takes the
    default bounds of ``measure``.
    """
    if spec.grid_bounds is None and measure is None:
        raise ValueError("grid quadrature needs explicit bounds or a measure hint")
    spec = bounded_grid(spec, measure)
    points, dx = trapezoid_points(spec, p.dim)
    with np.errstate(divide="ignore"):  # a pole's +inf phi is zero density below
        phi = np.asarray(p.phi(points), dtype=float)
    if np.isnan(phi).any():
        raise EvaluationFailure("phi returned NaN on the normalization grid")
    shift = phi.min()
    if not np.isfinite(shift):  # -inf somewhere, or +inf everywhere
        raise NotNormalizable("normalization integral is not finite")
    dens = np.exp(-(phi - shift))
    edge = grid_faces(spec.nodes_per_dim, p.dim)
    if dens[edge].max() > _EDGE_DECAY_GRID * dens.max():
        raise NotNormalizable("density does not decay at the domain boundary")
    total = float(dx @ dens)
    if not np.isfinite(total) or total <= 0.0:
        raise NotNormalizable("normalization integral is not finite")
    w = dx * dens
    return points, phi, w / w.sum(), float(np.log(total) - shift)


def log_partition(p: BayesElement, spec: QuadratureSpec,
                  measure: Optional[GaussianMeasure] = None) -> float:
    """log of integral exp(-phi) dx, computed stably.

    Raises :class:`NotNormalizable` when the integrand fails to decay on the
    configured domain, which signals the element has no valid PDF there.
    """
    if spec.kind == GRID:
        return _grid_density(p, spec, measure)[3]
    if measure is None:
        raise ValueError("Gauss-Hermite normalization needs a reference measure")
    points, w = measure_nodes(measure, spec)
    exponents = -np.asarray(p.phi(points), dtype=float) - measure.log_density(points)
    if np.isnan(exponents).any():
        raise EvaluationFailure("phi returned NaN at a quadrature node")
    shift = exponents.max()
    contrib = w * np.exp(exponents - shift)
    total = contrib.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise NotNormalizable("normalization integral is not finite")
    if contrib[grid_faces(spec.nodes_per_dim, measure.dim)].sum() > _EDGE_SHARE_GH * total:
        raise NotNormalizable("extreme quadrature nodes dominate the integral")
    return float(np.log(total) + shift)


def normalize(p: BayesElement, spec: QuadratureSpec,
              measure: Optional[GaussianMeasure] = None,
              ) -> Tuple[float, Callable[[np.ndarray], np.ndarray]]:
    """Normalizing constant c (1/c = integral of exp(-phi)) and the PDF callable."""
    log_z = log_partition(p, spec, measure)
    c = float(np.exp(-log_z))

    def density(x, _phi=p.phi, _lz=log_z):
        return np.exp(-np.asarray(_phi(np.atleast_2d(x)), dtype=float) - _lz)

    return c, density


MeasureLike = Union[GaussianMeasure, BayesElement]


def moment_nodes(nu: MeasureLike, spec: QuadratureSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Probability-weighted nodes for E_nu[.]; nu may be a normalized element.

    Element measures are realized on a trapezoid grid (explicit bounds
    required) with weights proportional to exp(-phi_nu); an element that
    does not decay at the grid's edge raises :class:`NotNormalizable`.
    """
    if isinstance(nu, GaussianMeasure):
        return measure_nodes(nu, spec)
    if spec.kind != GRID:
        raise ValueError("element-valued measures require a grid quadrature")
    points, _, w, _ = _grid_density(nu, spec)
    return points, w


def _phi_at(p: BayesElement, points: np.ndarray) -> np.ndarray:
    values = np.asarray(p.phi(points), dtype=float)
    bad = ~np.isfinite(values)
    if bad.any():
        where = points[np.argmax(bad)]
        raise EvaluationFailure(f"phi not finite at node {where}", node=where)
    return values


def inner_product(p: BayesElement, q: BayesElement, nu: MeasureLike,
                  spec: QuadratureSpec) -> float:
    """E_nu[ln p ln q] - E_nu[ln p] E_nu[ln q].

    Computed on centered phi values, which makes additive constants in phi
    exactly irrelevant.
    """
    _check_dims(p, q)
    points, w = moment_nodes(nu, spec)
    a, b = _phi_at(p, points), _phi_at(q, points)
    with np.errstate(all="ignore"):  # a non-finite value raises below
        value = float(w @ ((a - w @ a) * (b - w @ b)))
    if not np.isfinite(value):
        raise EvaluationFailure(f"inner product is not finite: {value}")
    return value


def information(p: BayesElement, nu: MeasureLike, spec: QuadratureSpec) -> float:
    """Half the squared Bayes-space norm of p under nu."""
    return 0.5 * inner_product(p, p, nu, spec)


def divergence(p: BayesElement, q: BayesElement, nu: MeasureLike,
               spec: QuadratureSpec) -> float:
    """Information in p minus q: a symmetric, quadratic divergence."""
    return information(subtract(p, q), nu, spec)
