"""Subspace projection, KL gradient/Hessian in coordinates, and the
iterative-projection optimizer.

Minimizing KL(q || p) over the coordinates of q in a subspace is a Newton
iteration whose Hessian, near the optimum, is the Gram matrix of the basis
under q; each step with that approximation is an orthogonal projection of p
onto the subspace under the current estimate-as-measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from .elements import (BayesElement, MeasureLike, inner_product, log_partition,
                       moment_nodes, subtract)
from .errors import MeasureInvalid, NotNormalizable, SingularGram, SingularInformation
from .gaussian import (_COND_LIMIT, GaussianBasis, IndefGaussian, gaussian_basis,
                       gaussian_coordinates, gaussian_from_coordinates,
                       project_to_gaussian)
from .hermite import HermiteBasis1D
from .hermite import reconstruct as hermite_reconstruct
from .measures import GaussianMeasure
from .quadrature import GRID, QuadratureSpec, gh_spec, grid_spec

Coordinates = np.ndarray


@dataclass(frozen=True)
class BasisSet:
    """An ordered basis plus the measure it is (possibly) orthonormal against."""

    elements: List[BayesElement]
    measure: GaussianMeasure


def _phi_matrix(basis, points: np.ndarray) -> np.ndarray:
    return np.stack([np.asarray(b.phi(points), dtype=float) for b in basis.elements])


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
    phi = _phi_matrix(basis, points)
    phi = phi - (phi @ w)[:, None]
    g = (phi * w) @ phi.T
    return 0.5 * (g + g.T)


def basis_projections(basis, p: BayesElement, nu: MeasureLike,
                      spec: QuadratureSpec) -> np.ndarray:
    """Vector of inner products <b_m, p> under nu (shared quadrature nodes)."""
    points, w = moment_nodes(nu, spec)
    phi = _phi_matrix(basis, points)
    phi = phi - (phi @ w)[:, None]
    target = np.asarray(p.phi(points), dtype=float)
    target = target - w @ target
    return phi @ (w * target)


def project(p: BayesElement, basis, nu: MeasureLike, spec: QuadratureSpec) -> Coordinates:
    """Coordinates of the closest subspace member: Gram^{-1} <b, p>."""
    g = gram(basis, nu, spec)
    cond = np.linalg.cond(g)
    if cond > _COND_LIMIT:
        raise SingularGram(f"Gram matrix condition {cond:.3g} exceeds {_COND_LIMIT:.0e}")
    return _solve_gram(g, basis_projections(basis, p, nu, spec))


def reconstruct_in_basis(alpha: Sequence[float], basis) -> BayesElement:
    """The subspace member with the given coordinates."""
    if isinstance(basis, HermiteBasis1D):
        return hermite_reconstruct(alpha, basis)
    alpha = np.asarray(alpha, dtype=float)
    elems = basis.elements
    if alpha.size != len(elems):
        raise ValueError(f"{alpha.size} coordinates for a {len(elems)}-element basis")
    dim = elems[0].dim

    def phi(x, _elems=elems, _a=alpha):
        out = np.zeros(np.asarray(x).shape[0])
        for a, b in zip(_a, _elems):
            out = out + a * b.phi(x)
        return out

    grad = None
    if all(b.grad is not None for b in elems):
        def grad(x, _elems=elems, _a=alpha):
            out = np.zeros_like(np.asarray(x, dtype=float))
            for a, b in zip(_a, _elems):
                out = out + a * b.grad(x)
            return out

    hess = None
    if all(b.hess is not None for b in elems):
        def hess(x, _elems=elems, _a=alpha):
            x = np.asarray(x, dtype=float)
            out = np.zeros((x.shape[0], x.shape[1], x.shape[1]))
            for a, b in zip(_a, _elems):
                out = out + a * b.hess(x)
            return out

    return BayesElement(dim=dim, phi=phi, grad=grad, hess=hess)


def kernel_apply(basis, nu: MeasureLike, p: BayesElement,
                 spec: QuadratureSpec) -> BayesElement:
    """Apply the subspace kernel b > <b,b>^{-1} < b to p.

    The outer-product route: identical element to reconstructing the
    projected coordinates.
    """
    return reconstruct_in_basis(project(p, basis, nu, spec), basis)


# ---------------------------------------------------------------------------
# KL divergence and its derivatives in coordinates
# ---------------------------------------------------------------------------

def reporting_grid(measure: GaussianMeasure, points: int = 2001,
                   span: float = 8.0) -> QuadratureSpec:
    """Grid covering measure mean +/- span sigma, used for absolute KL values."""
    sig = measure.stddevs()
    bounds = [(float(m - span * s), float(m + span * s))
              for m, s in zip(measure.mean, sig)]
    return grid_spec(points, bounds)


def _kl_terms(q: BayesElement, p: BayesElement, spec: QuadratureSpec,
              normalize_target: bool = True):
    """(E_qhat[phi_p - phi_q], log Z_q, log Z_p or None) on a shared grid."""
    if spec.kind != GRID or spec.grid_bounds is None:
        raise ValueError("KL evaluation requires a grid quadrature with bounds")
    log_zq = log_partition(q, spec)
    log_zp = log_partition(p, spec) if normalize_target else None
    points, w = moment_nodes(q, spec)
    t = np.asarray(p.phi(points), dtype=float) - np.asarray(q.phi(points), dtype=float)
    # Isolated +inf target values carry no mass where qhat has underflowed.
    bad = ~np.isfinite(t)
    if bad.any():
        keep = ~(bad & (w < 1e-12 * w.max()))
        if not np.isfinite(t[keep]).all():
            return float("inf"), log_zq, log_zp
        t = t[keep]
        w = w[keep] / w[keep].sum()
    return float(w @ t), log_zq, log_zp


def kl(q: BayesElement, p: BayesElement, spec: QuadratureSpec,
       normalize_target: bool = True) -> float:
    """KL(q || p) with q normalized numerically on the grid.

    With ``normalize_target`` the target's log-partition is included so the
    value is the absolute divergence between the two PDFs; without it, the
    target enters through its raw phi (the form the coordinate Hessian uses).
    """
    mean_t, log_zq, log_zp = _kl_terms(q, p, spec, normalize_target)
    value = mean_t - log_zq
    return value + log_zp if normalize_target else value


def _qhat_context(alpha, basis, spec):
    q = reconstruct_in_basis(alpha, basis)
    log_partition(q, spec)  # normalizability gate (raises NotNormalizable)
    points, w = moment_nodes(q, spec)
    phi = _phi_matrix(basis, points)
    means = phi @ w
    return q, points, w, phi, means


def kl_gradient(alpha: Coordinates, basis, p: BayesElement,
                spec: QuadratureSpec) -> np.ndarray:
    """Gradient of KL over the coordinates: -<b, p (-) q>_q."""
    q, points, w, phi, means = _qhat_context(alpha, basis, spec)
    centered = phi - means[:, None]
    t = np.asarray(p.phi(points), dtype=float) - np.asarray(q.phi(points), dtype=float)
    t = t - w @ t
    return -(centered @ (w * t))


def kl_hessian(alpha: Coordinates, basis, p: BayesElement, spec: QuadratureSpec,
               form: str = "explicit") -> np.ndarray:
    """Hessian of KL over the coordinates; two algebraic forms are exposed.

    "explicit" assembles Gram + <-b_mn + E[ln b_n] b_m + E[ln b_m] b_n, p(-)q>
    with b_mn = exp(ln b_m ln b_n); "fim" assembles (1 - KL) Gram minus the
    measure-derivative term.  Both are exactly symmetric.
    """
    q, points, w, phi, means = _qhat_context(alpha, basis, spec)
    centered = phi - means[:, None]
    g = (centered * w) @ centered.T
    g = 0.5 * (g + g.T)
    t = np.asarray(p.phi(points), dtype=float) - np.asarray(q.phi(points), dtype=float)
    if form == "explicit":
        tc = t - w @ t
        m1 = (phi * (w * tc)) @ phi.T
        v = phi @ (w * tc)
        h = g + m1 - np.outer(v, means) - np.outer(means, v)
        return 0.5 * (h + h.T)
    if form == "fim":
        log_zq = log_partition(q, spec)
        kl_raw = float(w @ t) - log_zq
        t_norm = t - log_zq  # p (-) q with q's phi normalized
        s = -((centered * (w * t_norm)) @ centered.T)
        h = (1.0 - kl_raw) * g - s
        return 0.5 * (h + h.T)
    raise ValueError(f"unknown Hessian form {form!r}")


def measure_derivative_ip(p: BayesElement, q: BayesElement, basis,
                          alpha: Coordinates, n: int,
                          spec: QuadratureSpec) -> float:
    """d/d alpha_n of <p, q>_nu with nu the normalized element at ``alpha``.

    Equals <p, (d ln nu/d alpha_n) . q>_nu - E_nu[ln q] <b_n, p>_nu; the
    coefficient is a state function and cannot be moved across the inner
    product.
    """
    _, points, w, phi, means = _qhat_context(alpha, basis, spec)
    c = -(phi[n] - means[n])
    phi_p = np.asarray(p.phi(points), dtype=float)
    phi_q = np.asarray(q.phi(points), dtype=float)

    def cov(a, b):
        return float(((a - w @ a) * w) @ (b - w @ b))

    term1 = cov(phi_p, c * phi_q)
    term2 = (-(w @ phi_q)) * cov(phi[n], phi_p)
    return term1 - term2


def fim(basis, nu: MeasureLike, dalpha_dtheta: np.ndarray,
        spec: QuadratureSpec) -> np.ndarray:
    """Fisher information for parameters theta: J^T <b,b> J."""
    j = np.atleast_2d(np.asarray(dalpha_dtheta, dtype=float))
    return j.T @ gram(basis, nu, spec) @ j


# ---------------------------------------------------------------------------
# Iterative projection
# ---------------------------------------------------------------------------

class GaussianSubspace:
    """The indefinite-Gaussian subspace; coordinates via expected derivatives."""

    def basis_for(self, measure: GaussianMeasure) -> GaussianBasis:
        return gaussian_basis(measure)

    def coordinates(self, p, measure, spec) -> Coordinates:
        a1, a2 = gaussian_coordinates(p, measure, spec)
        return np.concatenate([a1, a2])

    def estimate(self, alpha, measure, spec):
        n = measure.dim
        ig = gaussian_from_coordinates(alpha[:n], alpha[n:], measure)
        return ig.to_element(), ig


@dataclass(frozen=True)
class HermiteSubspace:
    """Span of the first ``order`` Hermite functions (one-dimensional states)."""

    order: int

    def basis_for(self, measure: GaussianMeasure) -> HermiteBasis1D:
        return HermiteBasis1D(self.order, measure)

    def coordinates(self, p, measure, spec) -> Coordinates:
        return project(p, self.basis_for(measure), measure, spec)

    def estimate(self, alpha, measure, spec):
        elem = hermite_reconstruct(alpha, self.basis_for(measure))
        return elem, project_to_gaussian(elem, measure, spec)


SubspaceSpec = Union[GaussianSubspace, HermiteSubspace]


@dataclass(frozen=True)
class IterateOptions:
    tol: float = 1e-8
    max_iters: int = 50
    quad: QuadratureSpec = field(default_factory=gh_spec)
    kl_grid: Optional[QuadratureSpec] = None
    newton: bool = False


@dataclass
class IterationTrace:
    """Per-iteration record of an iterative-projection run."""

    coordinates: List[np.ndarray] = field(default_factory=list)
    measures: List[GaussianMeasure] = field(default_factory=list)
    estimates: List[BayesElement] = field(default_factory=list)
    gaussians: List[IndefGaussian] = field(default_factory=list)
    kl: List[float] = field(default_factory=list)
    divergence: List[float] = field(default_factory=list)
    divergence_before: List[float] = field(default_factory=list)
    step_norm: List[float] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    non_monotone_kl: bool = False
    aborted: Optional[str] = None
    notes: List[str] = field(default_factory=list)


def iterate(p: BayesElement, subspace: SubspaceSpec, init_measure: GaussianMeasure,
            opts: Optional[IterateOptions] = None) -> IterationTrace:
    """Run the iterative projection of p onto the subspace.

    Each step projects p under the current estimate-as-measure (re-building
    the basis so it stays orthonormal), normalizes, and promotes the
    estimate's Gaussian part to the next measure.  Stops when the coordinate
    step falls below tolerance.  Raises :class:`MeasureInvalid` (trace
    attached) when that Gaussian part stops being positive-definite.
    """
    opts = opts or IterateOptions()
    kl_grid = opts.kl_grid or reporting_grid(init_measure)
    trace = IterationTrace()
    log_zp = None  # the target's log-partition on kl_grid, computed once
    measure = init_measure
    from .elements import gaussian_element
    current = gaussian_element(measure.mean, measure.covariance)

    for _ in range(opts.max_iters):
        basis = subspace.basis_for(measure)
        g = gram(basis, measure, opts.quad)
        residual = basis_projections(basis, subtract(p, current), measure, opts.quad)
        if opts.newton:
            grid = _newton_grid(measure, opts)
            alpha_self = _solve_gram(g, basis_projections(basis, current, measure, opts.quad))
            h = kl_hessian(alpha_self, basis, p, grid)
            alpha = alpha_self + _solve_gram(h, residual)
            delta = alpha - alpha_self
        else:
            alpha = subspace.coordinates(p, measure, opts.quad)
            delta = _solve_gram(g, residual)
        try:
            estimate, ig = subspace.estimate(alpha, measure, opts.quad)
        except SingularInformation as exc:
            trace.aborted = f"estimate reconstruction failed: {exc}"
            err = MeasureInvalid(trace.aborted)
            err.trace = trace
            raise err from exc
        if not ig.spd:
            trace.aborted = "estimate's Gaussian part is not positive-definite"
            err = MeasureInvalid(trace.aborted)
            err.trace = trace
            raise err
        try:
            kl_value = kl(estimate, p, kl_grid, normalize_target=False)
            if log_zp is None:
                log_zp = log_partition(p, kl_grid)
            kl_value = kl_value + log_zp
        except NotNormalizable as exc:
            trace.aborted = f"estimate not normalizable: {exc}"
            err = NotNormalizable(trace.aborted)
            err.trace = trace
            raise err

        trace.coordinates.append(np.asarray(alpha, dtype=float))
        trace.measures.append(measure)
        trace.estimates.append(estimate)
        trace.gaussians.append(ig)
        trace.step_norm.append(float(np.linalg.norm(delta)))
        trace.divergence_before.append(
            0.5 * inner_product(subtract(p, current), subtract(p, current),
                                measure, opts.quad))
        diff = subtract(p, estimate)
        trace.divergence.append(
            0.5 * inner_product(diff, diff, measure, opts.quad))
        if trace.kl and kl_value > trace.kl[-1] + 1e-12:
            trace.non_monotone_kl = True
        trace.kl.append(kl_value)
        trace.iterations += 1

        if trace.step_norm[-1] < opts.tol:
            trace.converged = True
            break
        measure = ig.to_measure()
        current = estimate
    return trace


def _newton_grid(measure: GaussianMeasure, opts: IterateOptions) -> QuadratureSpec:
    if measure.dim != 1:
        raise ValueError("full-Newton mode is implemented for one-dimensional states")
    return opts.kl_grid or reporting_grid(measure, points=1001)
