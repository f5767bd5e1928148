"""Subspace projection, the KL divergence, and the iterative-projection
optimizer.

Minimizing KL(q || p) over the coordinates of q in a subspace is a Newton
iteration whose Hessian, near the optimum, is the Gram matrix of the basis
under q; each step with that approximation is an orthogonal projection of p
onto the subspace under the current estimate-as-measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

import numpy as np

from .elements import (BayesElement, MeasureLike, _grid_density, _phi_at, gaussian_element,
                       information, log_partition, moment_nodes, subtract)
from .errors import (BayesSpaceError, EvaluationFailure, MeasureInvalid, NotNormalizable,
                     SingularGram, SingularInformation)
from .gaussian import (_COND_LIMIT, GaussianBasis, IndefGaussian, gaussian_basis,
                       gaussian_coordinates, gaussian_from_coordinates,
                       project_to_gaussian)
from .hermite import HermiteBasis1D, reconstruct as hermite_reconstruct
from .measures import GaussianMeasure
from .quadrature import GRID, QuadratureSpec, default_grid_bounds, gh_spec, grid_spec

Coordinates = np.ndarray


@dataclass(frozen=True)
class BasisSet:
    """An ordered basis plus the measure it is (possibly) orthonormal against."""

    elements: List[BayesElement]
    measure: GaussianMeasure

    def phi_matrix(self, x: np.ndarray) -> np.ndarray:
        """The elements at the states ``x`` as a (K, m) matrix."""
        return np.stack([np.asarray(b.phi(x), dtype=float) for b in self.elements])


def _solve_gram(g: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Cholesky solve; raises :class:`SingularGram` when Cholesky rejects ``g``."""
    try:
        low = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise SingularGram("Gram matrix is not positive-definite") from None
    return np.linalg.solve(low.T, np.linalg.solve(low, rhs))


def gram(basis, nu: MeasureLike, spec: QuadratureSpec) -> np.ndarray:
    """Matrix of pairwise basis inner products under nu (the FIM in coordinates)."""
    points, w = moment_nodes(nu, spec)
    phi = basis.phi_matrix(points)
    phi = phi - (phi @ w)[:, None]
    g = (phi * w) @ phi.T
    return 0.5 * (g + g.T)


def basis_projections(basis, p: BayesElement, nu: MeasureLike,
                      spec: QuadratureSpec) -> np.ndarray:
    """Vector of inner products <b_m, p> under nu (shared quadrature nodes)."""
    points, w = moment_nodes(nu, spec)
    phi = basis.phi_matrix(points)
    phi = phi - (phi @ w)[:, None]
    target = _phi_at(p, points)
    target = target - w @ target
    return phi @ (w * target)


def project(p: BayesElement, basis, nu: MeasureLike, spec: QuadratureSpec) -> Coordinates:
    """Coordinates of the closest subspace member: Gram^{-1} <b, p>."""
    g = gram(basis, nu, spec)
    cond = np.linalg.cond(g)
    if cond > _COND_LIMIT:
        raise SingularGram(f"Gram matrix condition {cond:.3g} exceeds {_COND_LIMIT:.0e}")
    return _solve_gram(g, basis_projections(basis, p, nu, spec))


# ---------------------------------------------------------------------------
# KL divergence
# ---------------------------------------------------------------------------

def reporting_grid(measure: GaussianMeasure) -> QuadratureSpec:
    """Grid of 2001 nodes over the measure's default bounds (mean +/- 8 sigma),
    on which :func:`iterate` reads absolute KL values."""
    return grid_spec(2001, default_grid_bounds(measure))


def kl(q: BayesElement, p: BayesElement, spec: QuadratureSpec,
       log_zp: Optional[float] = None) -> float:
    """KL(q || p) between the two PDFs, with both normalized on the grid.

    ``log_zp`` is p's log-partition on the grid, computed when not given.
    Raises :class:`EvaluationFailure` when the divergence is not finite.
    """
    if spec.kind != GRID:
        raise ValueError("KL evaluation requires a grid quadrature")
    points, phi_q, w, log_zq = _grid_density(q, spec)
    if log_zp is None:  # one read of p's phi gives its log-partition and the integrand
        _, phi_p, _, log_zp = _grid_density(p, spec)
    else:
        with np.errstate(divide="ignore"):  # a pole's +inf phi is dropped below
            phi_p = np.asarray(p.phi(points), dtype=float)
    t = phi_p - phi_q
    # Isolated +inf target values carry no mass where qhat has underflowed.
    bad = ~np.isfinite(t)
    if bad.any():
        keep = ~(bad & (w < 1e-12 * w.max()))
        t = t[keep]
        w = w[keep] / w[keep].sum()
    value = float(w @ t) - log_zq + log_zp
    if not np.isfinite(value):
        raise EvaluationFailure(f"KL is not finite: {value}")
    return value


# ---------------------------------------------------------------------------
# Iterative projection
# ---------------------------------------------------------------------------

class GaussianSubspace:
    """The indefinite-Gaussian subspace; coordinates via expected derivatives
    (the step's ``basis`` is not needed)."""

    def basis_for(self, measure: GaussianMeasure) -> GaussianBasis:
        return gaussian_basis(measure)

    def coordinates(self, p, measure, spec, basis) -> Coordinates:
        a1, a2 = gaussian_coordinates(p, measure, spec)
        return np.concatenate([a1, a2])

    def estimate(self, alpha, measure, spec, basis):
        n = measure.dim
        ig = gaussian_from_coordinates(alpha[:n], alpha[n:], measure)
        return ig.to_element(), ig


@dataclass(frozen=True)
class HermiteSubspace:
    """Span of the first ``order`` Hermite functions (one-dimensional states)."""

    order: int

    def basis_for(self, measure: GaussianMeasure) -> HermiteBasis1D:
        return HermiteBasis1D(self.order, measure)

    def coordinates(self, p, measure, spec, basis) -> Coordinates:
        return project(p, basis, measure, spec)

    def estimate(self, alpha, measure, spec, basis):
        elem = hermite_reconstruct(alpha, basis)
        return elem, project_to_gaussian(elem, measure, spec)


SubspaceSpec = Union[GaussianSubspace, HermiteSubspace]


@dataclass(frozen=True)
class IterateOptions:
    tol: float = 1e-8
    max_iters: int = 50
    quad: QuadratureSpec = field(default_factory=gh_spec)


@dataclass
class IterationTrace:
    """Per-iteration record of :func:`iterate` and of the ``gvi`` solvers.

    Iteration k projects under estimate k-1 (the initial measure for k = 0)
    and produces estimate k; entry k of each list belongs to iteration k.
    ``measures`` is rebuilt from ``gaussians`` and ``covariances`` on each access.
    A :class:`BayesSpaceError` that ends a run carries the trace as ``err.trace``.
    """

    coordinates: List[np.ndarray] = field(default_factory=list)  # estimate k; gvi: its mean
    estimates: List[BayesElement] = field(default_factory=list)  # estimate k (iterate only)
    gaussians: List[IndefGaussian] = field(default_factory=list)  # estimate k, information form
    covariances: List[np.ndarray] = field(default_factory=list)  # estimate k's covariance
    # KL(estimate k || p); gvi: E[phi] minus entropy of estimate k-1 (with record_loss)
    kl: List[float] = field(default_factory=list)
    # half the squared norm of p - estimate k under estimate k-1 (iterate only)
    divergence: List[float] = field(default_factory=list)
    step_norm: List[float] = field(default_factory=list)  # norm of iteration k's step
    converged: bool = False  # the last step norm fell below tol
    iterations: int = 0
    non_monotone_kl: bool = False  # some kl entry exceeds the one before it
    aborted: Optional[str] = None  # message of the error that ended the run

    @property
    def measures(self) -> List[GaussianMeasure]:
        """Estimate k as a :class:`GaussianMeasure`, rebuilt on every access."""
        return [GaussianMeasure(g.mean_like, c) for g, c in zip(self.gaussians, self.covariances)]


def _drive(step: Callable, state, tol: float, max_iters: int) -> IterationTrace:
    """Repeat ``step(state) -> (state, record)``, at most ``max_iters`` times,
    until the recorded ``step_norm`` falls below ``tol``.  ``record`` maps
    trace list names to this iteration's entries."""
    trace = IterationTrace()
    for _ in range(max_iters):
        try:
            state, record = step(state)
        except BayesSpaceError as err:
            trace.aborted = str(err)
            err.trace = trace
            raise
        kl_value = record.get("kl")
        if kl_value is not None and trace.kl and kl_value > trace.kl[-1] + 1e-12:
            trace.non_monotone_kl = True
        for name, value in record.items():
            getattr(trace, name).append(value)
        trace.iterations += 1
        if record["step_norm"] < tol:
            trace.converged = True
            break
    return trace


def iterate(p: BayesElement, subspace: SubspaceSpec, init_measure: GaussianMeasure,
            opts: Optional[IterateOptions] = None) -> IterationTrace:
    """Run the iterative projection of p onto the subspace.

    Each step projects p under the current estimate-as-measure (re-building
    the basis so it stays orthonormal), normalizes, and promotes the
    estimate's Gaussian part to the next measure.  Stops when the coordinate
    step falls below tolerance.  Raises :class:`MeasureInvalid` when that
    Gaussian part stops being positive-definite and :class:`NotNormalizable`
    when the target or the estimate has no density on the KL grid,
    ``reporting_grid(init_measure)``, each with the partial trace as
    ``err.trace``.
    """
    opts = opts or IterateOptions()

    def projection(measure, current, basis, g, residual):
        return subspace.coordinates(p, measure, opts.quad, basis), _solve_gram(g, residual)

    return _iterate(p, subspace, init_measure, opts, projection)


def _iterate(p: BayesElement, subspace: SubspaceSpec, init_measure: GaussianMeasure,
             opts: IterateOptions, update: Callable) -> IterationTrace:
    """:func:`iterate` with ``update(measure, current, basis, gram, residual)
    -> (alpha, delta)`` giving each step's coordinates and their change."""
    quad = opts.quad
    kl_grid = reporting_grid(init_measure)

    def step(state):
        # log_zp is the target's log-partition on kl_grid, computed once
        measure, current, log_zp = state
        basis = subspace.basis_for(measure)
        g = gram(basis, measure, quad)
        residual = basis_projections(basis, subtract(p, current), measure, quad)
        alpha, delta = update(measure, current, basis, g, residual)
        try:
            estimate, ig = subspace.estimate(alpha, measure, quad, basis)
        except SingularInformation as exc:
            raise MeasureInvalid(f"estimate reconstruction failed: {exc}") from exc
        if not ig.spd:
            raise MeasureInvalid("estimate's Gaussian part is not positive-definite")
        density = "target"
        try:
            if log_zp is None:
                log_zp = log_partition(p, kl_grid)
            density = "estimate"
            kl_value = kl(estimate, p, kl_grid, log_zp)
        except NotNormalizable as exc:
            raise NotNormalizable(f"{density} not normalizable: {exc}") from None
        with np.errstate(all="ignore"):  # a norm that overflows raises below
            step_norm = float(np.linalg.norm(delta))
        if not np.isfinite(step_norm):
            raise EvaluationFailure(f"step norm is not finite: {step_norm}")
        next_measure = ig.to_measure()
        record = {
            "coordinates": np.asarray(alpha, dtype=float),
            "estimates": estimate,
            "gaussians": ig,
            "covariances": next_measure.covariance,
            "step_norm": step_norm,
            "divergence": information(subtract(p, estimate), measure, quad),
            "kl": kl_value,
        }
        return (next_measure, estimate, log_zp), record

    current = gaussian_element(init_measure.mean, init_measure.covariance)
    return _drive(step, (init_measure, current, None), opts.tol, opts.max_iters)
