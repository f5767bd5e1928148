"""Numerical expectation engine.

Gauss-Hermite rules (probabilist convention, weights absorb the standard
normal density) with the reparameterization x = mu + L*xi for Gaussian
measures, tensor-product rules for small state dimensions, and truncated
trapezoid grids as the fallback for integrands that misbehave near the
Gauss-Hermite tail (e.g. inverse-distance poles).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import EvaluationFailure, NotNormalizable
from .measures import GaussianMeasure

GAUSS_HERMITE = "gauss-hermite"
GRID = "grid"

_MAX_GH_ORDER = 64
_MAX_DIM = 8
_MAX_TOTAL_NODES = 2_000_000
_GRID_SPAN_SIGMAS = 8.0


@dataclass(frozen=True)
class QuadratureSpec:
    """How to realize an expectation numerically.

    ``grid_bounds`` is a per-dimension sequence of (lo, hi) intervals; when
    omitted for a grid rule, bounds default to measure mean +/- 8 sigma.
    """

    kind: str = GAUSS_HERMITE
    nodes_per_dim: int = 20
    grid_bounds: Optional[Tuple[Tuple[float, float], ...]] = None

    def __post_init__(self):
        if self.kind not in (GAUSS_HERMITE, GRID):
            raise ValueError(f"unknown quadrature kind {self.kind!r}")
        if self.nodes_per_dim < 1:
            raise ValueError("nodes_per_dim must be positive")
        if self.kind == GAUSS_HERMITE and self.nodes_per_dim > _MAX_GH_ORDER:
            raise ValueError(f"Gauss-Hermite order capped at {_MAX_GH_ORDER}")
        if self.grid_bounds is not None:
            bounds = tuple((float(lo), float(hi)) for lo, hi in self.grid_bounds)
            for lo, hi in bounds:
                if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                    raise ValueError(f"grid bounds ({lo}, {hi}) must be finite and ordered")
            object.__setattr__(self, "grid_bounds", bounds)


def gh_spec(nodes: int = 20) -> QuadratureSpec:
    return QuadratureSpec(kind=GAUSS_HERMITE, nodes_per_dim=nodes)


def grid_spec(nodes: int, bounds: Optional[Sequence[Tuple[float, float]]] = None) -> QuadratureSpec:
    b = None if bounds is None else tuple(tuple(x) for x in bounds)
    return QuadratureSpec(kind=GRID, nodes_per_dim=nodes, grid_bounds=b)


@functools.lru_cache(maxsize=None)
def gauss_hermite_rule(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights integrating exactly against N(0,1) up to degree 2n-1.

    Weights sum to one (the standard normal density is absorbed).
    """
    if not 1 <= n <= _MAX_GH_ORDER:
        raise ValueError(f"Gauss-Hermite order must be in [1, {_MAX_GH_ORDER}], got {n}")
    nodes, weights = np.polynomial.hermite_e.hermegauss(n)
    weights = weights / np.sqrt(2.0 * np.pi)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=None)
def tensor_rule(n: int, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss-Hermite rule on R^dim: ((m, dim) nodes, (m,) weights)."""
    _check_budget(n, dim)
    nodes1, w1 = gauss_hermite_rule(n)
    return _tensor_product([nodes1] * dim, [w1] * dim)


def _tensor_product(axes: Sequence[np.ndarray], weights: Sequence[np.ndarray]):
    """Read-only (m, dim) nodes and (m,) weights of the product of 1-D rules."""
    grids = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    product = functools.reduce(np.multiply.outer, weights).ravel()
    nodes.flags.writeable = False
    product.flags.writeable = False
    return nodes, product


@functools.lru_cache(maxsize=16)
def grid_faces(n: int, dim: int) -> np.ndarray:
    """The nodes of an n^dim tensor grid whose index along some axis is 0 or
    n - 1, as a read-only mask in ``_tensor_product`` order."""
    _check_budget(n, dim)
    ends = np.zeros(n, dtype=bool)
    ends[[0, -1]] = True
    mask = functools.reduce(np.logical_or.outer, [ends] * dim).ravel()
    mask.flags.writeable = False
    return mask


def _check_budget(n: int, dim: int):
    if dim > _MAX_DIM:
        raise ValueError(f"full-rule expectations capped at {_MAX_DIM} dimensions, got {dim}")
    if n ** dim > _MAX_TOTAL_NODES:
        raise ValueError(f"{n}^{dim} tensor nodes exceed the {_MAX_TOTAL_NODES} budget")


def default_grid_bounds(nu: GaussianMeasure) -> Tuple[Tuple[float, float], ...]:
    """A grid's default bounds: mean +/- 8 sigma in each dimension."""
    span = _GRID_SPAN_SIGMAS
    return tuple((float(m - span * s), float(m + span * s))
                 for m, s in zip(nu.mean, nu.stddevs()))


def bounded_grid(spec: QuadratureSpec, nu: GaussianMeasure) -> QuadratureSpec:
    """``spec`` itself when it has bounds, else the same grid over nu's default bounds."""
    if spec.grid_bounds is not None:
        return spec
    return grid_spec(spec.nodes_per_dim, default_grid_bounds(nu))


@functools.lru_cache(maxsize=16)
def trapezoid_points(spec: QuadratureSpec, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """Tensor trapezoid abscissae and dx-weights for explicit grid bounds (read-only)."""
    if spec.grid_bounds is None:
        raise ValueError("trapezoid grid requires explicit bounds")
    if len(spec.grid_bounds) != dim:
        raise ValueError(f"{len(spec.grid_bounds)} grid bounds for dimension {dim}")
    _check_budget(spec.nodes_per_dim, dim)
    axes = [np.linspace(lo, hi, spec.nodes_per_dim) for lo, hi in spec.grid_bounds]
    ws = []
    for ax in axes:
        w = np.full(ax.size, ax[1] - ax[0]) if ax.size > 1 else np.ones(1)
        if ax.size > 1:
            w[0] *= 0.5
            w[-1] *= 0.5
        ws.append(w)
    return _tensor_product(axes, ws)


def measure_nodes(nu: GaussianMeasure, spec: QuadratureSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Points (m, N) and probability weights (m,) realizing E_nu[.].

    Gauss-Hermite reparameterizes through the cached Cholesky factor; the
    grid rule weights trapezoid cells by the measure's density and
    self-normalizes so that E[1] = 1 exactly (:class:`NotNormalizable` if
    the density underflows on every node).
    """
    if spec.kind == GAUSS_HERMITE:
        xi, w = tensor_rule(spec.nodes_per_dim, nu.dim)
        return nu.mean + xi @ nu.cholesky.T, w
    points, dx = trapezoid_points(bounded_grid(spec, nu), nu.dim)
    with np.errstate(all="ignore"):  # a density that underflows everywhere raises below
        w = dx * np.exp(nu.log_density(points))
    total = w.sum()
    if not (np.isfinite(total) and total > 0.0):
        raise NotNormalizable("the measure has no mass on the grid")
    return points, w / total


def expect(f: Callable[[np.ndarray], np.ndarray], nu: GaussianMeasure,
           spec: QuadratureSpec) -> float:
    """E_nu[f] for a batch-vectorized integrand f: (m, N) -> (m,)."""
    points, w = measure_nodes(nu, spec)
    values = np.asarray(f(points), dtype=float)
    if values.shape != (points.shape[0],):
        raise ValueError(f"integrand returned shape {values.shape}, expected ({points.shape[0]},)")
    bad = ~np.isfinite(values)
    if bad.any():
        where = points[np.argmax(bad)]
        raise EvaluationFailure(f"integrand not finite at node {where}", node=where)
    return float(w @ values)

