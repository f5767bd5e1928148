"""The paper's alternative algebraic routes, kept as test oracles: each equals
a production route, and a test or acceptance criterion checks the two against
each other.  No production module imports this module."""

import functools
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .elements import (BayesElement, MeasureLike, _grid_density, element_grad, element_hess,
                       inner_product)
from .errors import SingularInformation
from .gaussian import IndefGaussian, expected_derivatives, gaussian_basis
from .gvi import (FactorGraph, GaussianState, GviOptions, _gvi_loop, _marginals, assemble,
                  factor_expectations)
from .hermite import HermiteBasis1D, hermite_poly, reconstruct as hermite_reconstruct
from .matrixops import build_duplication, vec, vech_weights
from .measures import GaussianMeasure, cholesky_or_raise
from .quadrature import QuadratureSpec, default_grid_bounds, expect, grid_spec, measure_nodes
from .variational import (Coordinates, IterateOptions, IterationTrace, SubspaceSpec, _iterate,
                          _solve_gram, basis_projections, gram, project)


def gaussian_coordinates_direct(p: BayesElement, measure: GaussianMeasure,
                                spec: QuadratureSpec) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`gaussian.gaussian_coordinates` by explicit inner products with the basis."""
    basis = gaussian_basis(measure)
    n = measure.dim
    coords = np.array([inner_product(b, p, measure, spec) for b in basis.elements])
    return coords[:n], coords[n:]


def gaussian_information(g: IndefGaussian, measure: GaussianMeasure,
                         route: str = "coordinates") -> float:
    """Information in a positive-definite Gaussian, conditioned on the measure.

    Three algebraically identical routes are exposed: "coordinates" (half
    the squared coordinate norm), "trace" (mean/trace quadratic forms), and
    "natural" (quadratic form in the natural parameters).
    """
    if not g.spd:
        raise SingularInformation("information requires a positive-definite Gaussian")
    cholesky_or_raise(measure.covariance, "measure covariance")
    mu, sigma = measure.mean, measure.covariance
    info_p = g.info           # Sigma'^{-1}
    dmu = mu - g.mean_like    # mu - mu'
    if route == "coordinates":
        chol = measure.cholesky
        ops = build_duplication(measure.dim)
        alpha1 = chol.T @ info_p @ dmu
        alpha2 = vech_weights(measure.dim) * (ops.d_dagger @ vec(chol.T @ info_p @ chol))
        return 0.5 * float(alpha1 @ alpha1 + alpha2 @ alpha2)
    if route == "trace":
        a = info_p @ sigma @ info_p
        return 0.5 * float(dmu @ a @ dmu + 0.5 * np.trace(a @ sigma))
    if route == "natural":
        n = measure.dim
        eye = np.eye(n)
        theta = np.concatenate([info_p @ g.mean_like, vec(info_p)])
        mu_kron = np.kron(mu[:, None], eye)          # (mu x 1): n^2 by n
        top = np.hstack([sigma, -sigma @ mu_kron.T])
        bottom = np.hstack([-mu_kron @ sigma,
                            0.5 * np.kron(sigma, sigma) + mu_kron @ sigma @ mu_kron.T])
        block = np.vstack([top, bottom])
        return 0.5 * float(theta @ block @ theta)
    raise ValueError(f"unknown route {route!r}")


def coordinates(p: BayesElement, basis: HermiteBasis1D, spec: QuadratureSpec) -> np.ndarray:
    """Fourier coefficients alpha_n = <h_n, p> under the basis measure.

    The basis is orthonormal so no Gram solve is needed; this is the
    derivative-free route.
    """
    if p.dim != 1:
        raise ValueError("Hermite coordinates are one-dimensional here")
    points, w = measure_nodes(basis.measure, spec)
    phi = np.asarray(p.phi(points), dtype=float)
    # centering phi makes the covariance exact under the discrete rule even
    # if the quadrature means of H_n are not identically zero
    phi = phi - w @ phi
    return basis.phi_matrix(points) @ (w * phi)


def coordinates_via_derivatives(p: BayesElement, basis: HermiteBasis1D,
                                spec: QuadratureSpec) -> np.ndarray:
    """Cross-check route: alpha_n = sigma^n/sqrt(n!) E[d^n phi / dx^n].

    Orders three and four difference the (analytic or fallback) Hessian;
    higher orders are not supported.
    """
    if basis.order > 4:
        raise ValueError("derivative route supported for orders up to 4")
    points, w = measure_nodes(basis.measure, spec)
    sigma, roots = basis.sigma, basis.roots
    out = np.empty(basis.order)
    g = element_grad(p, points)[:, 0]
    out[0] = sigma * (w @ g)
    if basis.order >= 2:
        h = element_hess(p, points)[:, 0, 0]
        out[1] = sigma**2 / roots[1] * (w @ h)
    if basis.order >= 3:
        step = np.finfo(float).eps ** (1.0 / 3.0) * np.maximum(1.0, np.abs(points))
        d3 = (element_hess(p, points + step)[:, 0, 0]
              - element_hess(p, points - step)[:, 0, 0]) / (2 * step[:, 0])
        out[2] = sigma**3 / roots[2] * (w @ d3)
    if basis.order >= 4:
        step = np.finfo(float).eps ** 0.25 * np.maximum(1.0, np.abs(points))
        h0 = element_hess(p, points)[:, 0, 0]
        d4 = (element_hess(p, points + step)[:, 0, 0] - 2 * h0
              + element_hess(p, points - step)[:, 0, 0]) / step[:, 0]**2
        out[3] = sigma**4 / roots[3] * (w @ d4)
    return out


def _fd_nth_derivative(f, n: int):
    """Central-difference n-th derivative of a scalar vectorized function."""
    # Step tuned per order so truncation and roundoff errors balance.
    h = np.finfo(float).eps ** (1.0 / (n + 2))

    def deriv(x):
        x = np.asarray(x, dtype=float)
        if n == 1:
            return (f(x + h) - f(x - h)) / (2 * h)
        if n == 2:
            return (f(x + h) - 2 * f(x) + f(x - h)) / h**2
        if n == 3:
            return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (2 * h**3)
        if n == 4:
            return (f(x + 2 * h) - 4 * f(x + h) + 6 * f(x) - 4 * f(x - h) + f(x - 2 * h)) / h**4
        raise ValueError("finite-difference derivatives supported up to order 4")

    return deriv


def stein_check(f: Callable[[np.ndarray], np.ndarray], n: int,
                spec: QuadratureSpec,
                deriv: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                ) -> Tuple[float, float]:
    """Both sides of E[H_n(xi) f(xi)] = E[d^n f / d xi^n] under N(0,1).

    Returns (lhs, rhs) for the caller to compare.  ``deriv`` may supply the
    exact n-th derivative; otherwise central differences are used (n <= 4).
    """
    nu = GaussianMeasure(np.zeros(1), np.eye(1))
    lhs = expect(lambda x: hermite_poly(n, x[:, 0]) * f(x[:, 0]), nu, spec)
    dn = deriv if deriv is not None else _fd_nth_derivative(f, n)
    rhs = expect(lambda x: dn(x[:, 0]), nu, spec)
    return lhs, rhs


def scale_by_function(c: Callable[[np.ndarray], np.ndarray], p: BayesElement) -> BayesElement:
    """Pointwise powering by a state-dependent coefficient: phi -> c(x) phi(x).

    No derivative callbacks are composed; the result is only ever integrated.
    """
    return BayesElement(p.dim, lambda x, pp=p.phi: np.asarray(c(x)) * pp(x))


def reconstruct_in_basis(alpha: Sequence[float], basis) -> BayesElement:
    """The subspace member with the given coordinates (with analytic
    derivatives for a Hermite basis, finite differences otherwise)."""
    if isinstance(basis, HermiteBasis1D):
        return hermite_reconstruct(alpha, basis)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.size != len(basis.elements):
        raise ValueError(f"{alpha.size} coordinates for a {len(basis.elements)}-element basis")
    return BayesElement(dim=basis.measure.dim, phi=lambda x: alpha @ basis.phi_matrix(x))


def kernel_apply(basis, nu: MeasureLike, p: BayesElement,
                 spec: QuadratureSpec) -> BayesElement:
    """Apply the subspace kernel b > <b,b>^{-1} < b to p.

    The outer-product route: identical element to reconstructing the
    projected coordinates.
    """
    return reconstruct_in_basis(project(p, basis, nu, spec), basis)


def _qhat_context(alpha, basis, spec):
    """Grid nodes, phi, weights and log Z of the normalized element at
    ``alpha``, with the basis phi matrix and its means at those nodes."""
    points, phi_q, w, log_zq = _grid_density(reconstruct_in_basis(alpha, basis), spec)
    phi = basis.phi_matrix(points)
    return points, phi_q, w, log_zq, phi, phi @ w


def kl_gradient(alpha: Coordinates, basis, p: BayesElement,
                spec: QuadratureSpec) -> np.ndarray:
    """Gradient of KL over the coordinates: -<b, p (-) q>_q."""
    points, phi_q, w, _, phi, means = _qhat_context(alpha, basis, spec)
    centered = phi - means[:, None]
    t = np.asarray(p.phi(points), dtype=float) - phi_q
    t = t - w @ t
    return -(centered @ (w * t))


def kl_hessian(alpha: Coordinates, basis, p: BayesElement, spec: QuadratureSpec) -> np.ndarray:
    """Hessian of KL over the coordinates, exactly symmetric: Gram +
    <-b_mn + E[ln b_n] b_m + E[ln b_m] b_n, p(-)q> with b_mn = exp(ln b_m ln b_n)."""
    points, phi_q, w, _, phi, means = _qhat_context(alpha, basis, spec)
    centered = phi - means[:, None]
    g = (centered * w) @ centered.T
    g = 0.5 * (g + g.T)
    t = np.asarray(p.phi(points), dtype=float) - phi_q
    tc = t - w @ t
    m1 = (phi * (w * tc)) @ phi.T
    v = phi @ (w * tc)
    h = g + m1 - np.outer(v, means) - np.outer(means, v)
    return 0.5 * (h + h.T)


def kl_hessian_fim(alpha: Coordinates, basis, p: BayesElement,
                   spec: QuadratureSpec) -> np.ndarray:
    """Hessian of KL over the coordinates in its FIM form: (1 - KL) Gram
    minus the measure-derivative term; equals :func:`kl_hessian`."""
    points, phi_q, w, log_zq, phi, means = _qhat_context(alpha, basis, spec)
    centered = phi - means[:, None]
    g = (centered * w) @ centered.T
    g = 0.5 * (g + g.T)
    t = np.asarray(p.phi(points), dtype=float) - phi_q
    kl_raw = float(w @ t) - log_zq
    t_norm = t - log_zq  # p (-) q with q's phi normalized
    s = -((centered * (w * t_norm)) @ centered.T)
    h = (1.0 - kl_raw) * g - s
    return 0.5 * (h + h.T)


def iterate_newton(p: BayesElement, subspace: SubspaceSpec, init_measure: GaussianMeasure,
                   opts: Optional[IterateOptions] = None) -> IterationTrace:
    """:func:`variational.iterate` with full Newton steps: the exact :func:`kl_hessian`
    at the current estimate's coordinates replaces the Gram matrix (1-D states)."""
    opts = opts or IterateOptions()
    if init_measure.dim != 1:
        raise ValueError("full-Newton mode is implemented for one-dimensional states")

    def newton(measure, current, basis, g, residual):
        grid = opts.kl_grid or grid_spec(1001, default_grid_bounds(measure))
        alpha_self = _solve_gram(g, basis_projections(basis, current, measure, opts.quad))
        h = kl_hessian(alpha_self, basis, p, grid)
        alpha = alpha_self + _solve_gram(h, residual)
        return alpha, alpha - alpha_self

    return _iterate(p, subspace, init_measure, opts, newton)


def measure_derivative_ip(p: BayesElement, q: BayesElement, basis,
                          alpha: Coordinates, n: int,
                          spec: QuadratureSpec) -> float:
    """d/d alpha_n of <p, q>_nu with nu the normalized element at ``alpha``.

    Equals <p, (d ln nu/d alpha_n) . q>_nu - E_nu[ln q] <b_n, p>_nu; the
    coefficient is a state function and cannot be moved across the inner
    product.
    """
    points, _, w, _, phi, means = _qhat_context(alpha, basis, spec)
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


def joint_element(graph: FactorGraph) -> BayesElement:
    """The full-dimensional sum of the factors (dense-route oracle)."""
    n, factors = graph.num_vars, graph.factors

    def phi(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[0])
        for f in factors:
            out = out + f.phi(x[:, f.indices])
        return out

    # Entry-column adds: a factor's indices are distinct, so each entry
    # takes one addition per factor, as a fancy-indexed add would give.
    def grad(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for f in factors:
            gk = element_grad(f.as_element(), x[:, f.indices])
            for a, i in enumerate(f.indices):
                out[:, i] += gk[:, a]
        return out

    def hess(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros((x.shape[0], n, n))
        for f in factors:
            hk = element_hess(f.as_element(), x[:, f.indices])
            for a, i in enumerate(f.indices):
                for b, j in enumerate(f.indices):
                    out[:, i, j] += hk[:, a, b]
        return out

    return BayesElement(dim=n, phi=phi, grad=grad, hess=hess)


def _per_factor_expectations(graph: FactorGraph, mean: np.ndarray, sigma: np.ndarray,
                             spec: QuadratureSpec, with_value: bool):
    """The oracle for :meth:`FactorGraph._expectations`: each factor's marginal,
    :func:`factor_expectations`, then :func:`assemble`."""
    outs = [factor_expectations(f, marginal, spec, with_value)
            for f, marginal in zip(graph.factors, _marginals(graph, mean, sigma))]
    g, h = assemble(graph, [out[:2] for out in outs])
    return g, h, (sum(out[2] for out in outs) if with_value else None)


def gvi_dense_solve(graph: FactorGraph, init: GaussianState,
                    opts: Optional[GviOptions] = None) -> IterationTrace:
    """Same iteration with per-factor expectations; oracle for the batches."""
    return _gvi_loop(graph, init, opts or GviOptions(),
                     functools.partial(_per_factor_expectations, graph))


def gvi_step_dense(p: BayesElement, state: GaussianState,
                   spec: QuadratureSpec) -> GaussianState:
    """One Gaussian update from full-dimensional expectations of the joint phi.

    info+ = E_q[d^2 phi], info+ (mean+ - mean) = -E_q[d phi].
    """
    measure = state.to_measure()
    g, h = expected_derivatives(p, measure, spec)
    low = cholesky_or_raise(h, "updated information")
    dmu = np.linalg.solve(low.T, np.linalg.solve(low, -g))
    return GaussianState(state.mean + dmu, h)
