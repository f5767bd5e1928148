"""Projection, KL derivatives in coordinates, FIM, and iterative projection."""

import dataclasses
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayespace.elements import (BayesElement, constant_element, equivalent,
                                gaussian_element, information, inner_product,
                                log_partition, moment_nodes, subtract)
from bayespace import variational
from bayespace.errors import EvaluationFailure, MeasureInvalid, NotNormalizable, SingularGram
from bayespace.gaussian import gaussian_basis, project_to_gaussian
from bayespace.hermite import HermiteBasis1D, hermite_poly, multivariate_basis, reconstruct
from bayespace.measures import GaussianMeasure
from bayespace.oracles import (fim, iterate_newton, kernel_apply, kl_gradient, kl_hessian,
                               kl_hessian_fim, measure_derivative_ip, reconstruct_in_basis,
                               scale_by_function)
from bayespace.quadrature import gh_spec, grid_spec, trapezoid_points
from bayespace.variational import (BasisSet, GaussianSubspace, HermiteSubspace,
                                   IterateOptions, IterationTrace, basis_projections,
                                   gram, iterate, kl, project, reporting_grid, _solve_gram)

SPEC = gh_spec(20)
KL_GRID = grid_spec(4001, [(-12.0, 12.0)])


def quartic_target():
    """A smooth non-Gaussian normalizable target with analytic derivatives."""

    def phi(x):
        t = x[:, 0]
        return 0.3 * t + 0.6 * t**2 + 0.05 * t**4

    def grad(x):
        t = x[:, 0]
        return (0.3 + 1.2 * t + 0.2 * t**3)[:, None]

    def hess(x):
        t = x[:, 0]
        return (1.2 + 0.6 * t**2)[:, None, None]

    return BayesElement(1, phi, grad, hess)


class TestGram:
    def test_orthonormal_hermite(self, std_normal_1d):
        basis = HermiteBasis1D(5, std_normal_1d)
        assert np.abs(gram(basis, std_normal_1d, gh_spec(40)) - np.eye(5)).max() < 1e-8

    def test_gaussian_basis_identity(self):
        nu = GaussianMeasure([1.0, 2.0], [[2.0, 0.5], [0.5, 1.0]])
        basis = gaussian_basis(nu)
        assert np.abs(gram(basis, nu, gh_spec(10)) - np.eye(5)).max() < 1e-8

    def test_non_orthogonal_pair(self, std_normal_1d):
        b1 = BayesElement(1, lambda x: x[:, 0])
        b2 = BayesElement(1, lambda x: x[:, 0] + x[:, 0] ** 2)
        basis = BasisSet([b1, b2], std_normal_1d)
        g = gram(basis, std_normal_1d, SPEC)
        assert np.allclose(g, [[1.0, 1.0], [1.0, 3.0]], atol=1e-10)


_NU2 = GaussianMeasure([1.0, -0.5], [[2.0, 0.5], [0.5, 1.0]])
_NU3 = GaussianMeasure([0.3, 1.0, -2.0], [[1.5, 0.2, 0.1], [0.2, 0.8, -0.3], [0.1, -0.3, 2.0]])
_BASES = {
    "gaussian-1d": lambda: gaussian_basis(GaussianMeasure([20.0], [[9.0]])),
    "gaussian-2d": lambda: gaussian_basis(_NU2),
    "gaussian-3d": lambda: gaussian_basis(_NU3),
    "hermite-1d": lambda: HermiteBasis1D(5, GaussianMeasure([20.0], [[9.0]])),
    "hermite-2d": lambda: multivariate_basis(2, 2, _NU2),
    "hermite-3d": lambda: multivariate_basis(3, 3, _NU3),
    "set": lambda: BasisSet([BayesElement(1, lambda x: x[:, 0]),
                             BayesElement(1, lambda x: np.sin(x[:, 0]))],
                            GaussianMeasure([0.0], [[1.0]])),
}


class TestPhiMatrix:
    @pytest.mark.parametrize("name", sorted(_BASES))
    def test_rows_are_the_elements_bitwise(self, name):
        basis = _BASES[name]()
        x = np.random.default_rng(5).normal(0.5, 2.0, (37, basis.measure.dim))
        phi = basis.phi_matrix(x)
        assert phi.shape == (len(basis.elements), 37)
        for k, b in enumerate(basis.elements):
            assert np.array_equal(phi[k], b.phi(x)), k

    def test_gaussian_rows_match_the_closed_form(self):
        basis = gaussian_basis(_NU3)
        x = np.random.default_rng(6).normal(0.0, 2.0, (29, 3))
        xi = np.linalg.solve(_NU3.cholesky, (x - _NU3.mean).T).T
        expected = [xi[:, i] for i in range(3)]
        for j in range(3):  # vech order: column by column, on and below the diagonal
            for i in range(j, 3):
                expected.append(xi[:, i] * xi[:, j] * (1.0 if i != j else np.sqrt(0.5)))
        assert np.allclose(basis.phi_matrix(x), expected, rtol=1e-12, atol=1e-12)

    def test_hermite_rows_follow_the_index_sets(self):
        basis = multivariate_basis(3, 3, _NU3)
        x = np.random.default_rng(7).normal(0.0, 2.0, (23, 3))
        xi = np.linalg.solve(_NU3.cholesky, (x - _NU3.mean).T).T
        phi = basis.phi_matrix(x)
        for row, orders in zip(phi, basis.index_sets):
            expected = np.prod([hermite_poly(n, xi[:, d]) / np.sqrt(float(np.prod(
                np.arange(1, n + 1)))) for d, n in enumerate(orders)], axis=0)
            assert np.allclose(row, expected, rtol=1e-12, atol=1e-12), orders

    def test_gaussian_basis_standardizes_once_per_matrix(self, monkeypatch):
        calls = []
        standardize = GaussianMeasure.standardize

        def counted(measure, x):
            calls.append(1)
            return standardize(measure, x)

        monkeypatch.setattr(GaussianMeasure, "standardize", counted)
        basis = gaussian_basis(_NU3)
        basis.phi_matrix(np.zeros((4, 3)))
        assert len(calls) == 1
        gram(basis, _NU3, gh_spec(5))
        assert len(calls) == 2


class TestProject:
    def test_exact_recovery_in_span(self, std_normal_1d):
        basis = HermiteBasis1D(4, std_normal_1d)
        alpha = np.array([0.4, 0.9, -0.1, 0.05])
        got = project(reconstruct(alpha, basis), basis, std_normal_1d, gh_spec(40))
        assert np.allclose(got, alpha, atol=1e-12)

    def test_residual_orthogonality(self, stereo):
        basis = HermiteBasis1D(3, stereo.prior_measure)
        quad = stereo.sweep_grid()
        alpha = project(stereo.posterior, basis, stereo.prior_measure, quad)
        residual = subtract(stereo.posterior, reconstruct(alpha, basis))
        r = basis_projections(basis, residual, stereo.prior_measure, quad)
        assert np.abs(r).max() < 1e-6

    def test_singular_gram_detected(self, std_normal_1d):
        b1 = BayesElement(1, lambda x: x[:, 0])
        dup = BayesElement(1, lambda x: x[:, 0] * (1 + 1e-15))
        basis = BasisSet([b1, dup], std_normal_1d)
        with pytest.raises(SingularGram):
            project(b1, basis, std_normal_1d, SPEC)

    def test_gram_rejected_by_cholesky_raises(self):
        with pytest.raises(SingularGram):
            _solve_gram(np.diag([1.0, 0.0]), np.ones(2))


class TestKernelApply:
    def test_fixed_point_on_subspace_members(self, std_normal_1d):
        basis = HermiteBasis1D(3, std_normal_1d)
        s = reconstruct([0.5, 0.7, -0.2], basis)
        out = kernel_apply(basis, std_normal_1d, s, gh_spec(40))
        pts = np.random.default_rng(0).standard_normal((64, 1))
        assert equivalent(out, s, points=pts, rtol=1e-8)

    def test_zero_maps_to_zero(self, std_normal_1d):
        basis = HermiteBasis1D(3, std_normal_1d)
        out = kernel_apply(basis, std_normal_1d, constant_element(1), gh_spec(40))
        assert equivalent(out, constant_element(1))

    def test_matches_project_then_reconstruct(self, stereo):
        basis = HermiteBasis1D(4, stereo.prior_measure)
        quad = stereo.sweep_grid()
        via_kernel = kernel_apply(basis, stereo.prior_measure, stereo.posterior, quad)
        via_proj = reconstruct(
            project(stereo.posterior, basis, stereo.prior_measure, quad), basis)
        pts = np.linspace(10, 30, 64)[:, None]
        assert equivalent(via_kernel, via_proj, points=pts, rtol=1e-8)


class TestKL:
    def test_self_divergence_zero(self):
        p = gaussian_element([0.3], [[1.5]])
        assert kl(p, p, KL_GRID) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_closed_form(self):
        q = gaussian_element([0.0], [[1.0]])
        p = gaussian_element([0.0], [[2.0]])
        expected = 0.5 * (0.5 - 1.0 + np.log(2.0))
        assert kl(q, p, KL_GRID) == pytest.approx(expected, rel=1e-8)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            q = gaussian_element([rng.normal()], [[rng.uniform(0.5, 2)]])
            p = gaussian_element([rng.normal()], [[rng.uniform(0.5, 2)]])
            assert kl(q, p, KL_GRID) >= -1e-9


    def test_requires_a_bounded_grid(self):
        p = gaussian_element([0.3], [[1.5]])
        with pytest.raises(ValueError, match="^KL evaluation requires a grid quadrature"):
            kl(p, p, SPEC)

    def test_mass_on_a_pole_node_is_an_evaluation_failure(self):
        """p is |x| exp(-x^2 / 2): its phi is +inf at the grid node x = 0,
        where q has mass, so the grid's KL is not finite."""
        grid = grid_spec(101, [(-8.0, 8.0)])
        assert 0.0 in trapezoid_points(grid, 1)[0]
        p = BayesElement(1, lambda x: 0.5 * x[:, 0] ** 2 - np.log(np.abs(x[:, 0])))
        q = gaussian_element([0.0], [[1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationFailure, match="^KL is not finite: inf$"):
                kl(q, p, grid)


class TestKLDerivatives:
    def setup_method(self):
        self.nu = GaussianMeasure([0.0], [[1.0]])
        self.basis = HermiteBasis1D(3, self.nu)
        self.p = quartic_target()
        self.alpha = np.array([0.2, 0.9, 0.1])

    def test_gradient_matches_finite_differences(self):
        grad = kl_gradient(self.alpha, self.basis, self.p, KL_GRID)
        fd = np.zeros(3)
        delta = 1e-5
        for n in range(3):
            up, dn = self.alpha.copy(), self.alpha.copy()
            up[n] += delta
            dn[n] -= delta
            fd[n] = (kl(reconstruct(up, self.basis), self.p, KL_GRID)
                     - kl(reconstruct(dn, self.basis), self.p, KL_GRID)) / (2 * delta)
        assert np.allclose(grad, fd, rtol=1e-5, atol=1e-8)

    def test_gradient_zero_at_projection_fixed_point(self, std_normal_1d):
        basis = HermiteBasis1D(3, std_normal_1d)
        target = reconstruct([0.3, 0.8, -0.05], basis)
        alpha = project(target, basis, std_normal_1d, gh_spec(40))
        grad = kl_gradient(alpha, basis, target, KL_GRID)
        assert np.abs(grad).max() < 1e-6

    def test_hessian_is_gram_when_target_in_span(self):
        q = reconstruct(self.alpha, self.basis)
        h = kl_hessian(self.alpha, self.basis, q, KL_GRID)
        g = gram(self.basis, q, KL_GRID)
        assert np.abs(h - g).max() < 1e-12

    def test_hessian_forms_agree(self):
        h1 = kl_hessian(self.alpha, self.basis, self.p, KL_GRID)
        h2 = kl_hessian_fim(self.alpha, self.basis, self.p, KL_GRID)
        assert np.abs(h1 - h1.T).max() < 1e-10
        assert np.abs(h2 - h2.T).max() < 1e-10
        assert np.allclose(h1, h2, rtol=1e-6, atol=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(mean=st.floats(-1.0, 1.0), var=st.floats(0.5, 1.5),
           alpha=st.tuples(st.floats(-0.5, 0.5), st.floats(0.5, 1.5), st.floats(-0.02, 0.02)),
           coeffs=st.tuples(st.floats(-1.0, 1.0), st.floats(0.2, 1.0), st.floats(0.01, 0.1)))
    def test_hessian_forms_agree_on_random_inputs(self, mean, var, alpha, coeffs):
        a, b, c = coeffs
        target = BayesElement(1, lambda x: a * x[:, 0] + b * x[:, 0]**2 + c * x[:, 0]**4)
        basis = HermiteBasis1D(3, GaussianMeasure([mean], [[var]]))
        alpha = np.array(alpha)
        h1 = kl_hessian(alpha, basis, target, KL_GRID)
        h2 = kl_hessian_fim(alpha, basis, target, KL_GRID)
        assert np.abs(h1 - h1.T).max() < 1e-10
        assert np.abs(h2 - h2.T).max() < 1e-10
        assert np.allclose(h1, h2, rtol=1e-6, atol=1e-10)

    def test_hessian_matches_fd_of_gradient(self):
        h = kl_hessian(self.alpha, self.basis, self.p, KL_GRID)
        delta = 1e-5
        fd = np.zeros((3, 3))
        for n in range(3):
            up, dn = self.alpha.copy(), self.alpha.copy()
            up[n] += delta
            dn[n] -= delta
            fd[:, n] = (kl_gradient(up, self.basis, self.p, KL_GRID)
                        - kl_gradient(dn, self.basis, self.p, KL_GRID)) / (2 * delta)
        scale = max(1.0, np.abs(h).max())
        assert np.abs(h - fd).max() < 1e-4 * scale

    def test_hessian_shift_invariance_in_target(self):
        shifted = BayesElement(1, lambda x, f=self.p.phi: f(x) + 25.0,
                               grad=self.p.grad, hess=self.p.hess)
        h1 = kl_hessian_fim(self.alpha, self.basis, self.p, KL_GRID)
        h2 = kl_hessian_fim(self.alpha, self.basis, shifted, KL_GRID)
        assert np.allclose(h1, h2, atol=1e-10)


class TestMeasureDerivative:
    def setup_method(self):
        self.nu_basis = HermiteBasis1D(3, GaussianMeasure([0.0], [[1.0]]))
        self.alpha = np.array([0.1, 0.8, 0.05])
        self.p = gaussian_element([0.4], [[1.3]])
        self.q = gaussian_element([-0.2], [[0.9]])

    def test_zero_elements(self):
        zero = constant_element(1)
        val = measure_derivative_ip(zero, zero, self.nu_basis, self.alpha, 1, KL_GRID)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences(self):
        delta = 1e-5
        for n in range(3):
            got = measure_derivative_ip(self.p, self.q, self.nu_basis, self.alpha, n, KL_GRID)
            up, dn = self.alpha.copy(), self.alpha.copy()
            up[n] += delta
            dn[n] -= delta
            f_up = inner_product(self.p, self.q, reconstruct(up, self.nu_basis), KL_GRID)
            f_dn = inner_product(self.p, self.q, reconstruct(dn, self.nu_basis), KL_GRID)
            fd = (f_up - f_dn) / (2 * delta)
            assert got == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_transfer_identity(self):
        # swapping which argument carries the coefficient changes the value by
        # E[ln p] <b_n, q> - E[ln q] <b_n, p>
        nu = reconstruct(self.alpha, self.nu_basis)
        points, w = moment_nodes(nu, KL_GRID)
        for n in range(3):
            b_n = self.nu_basis.elements[n]
            c = -(b_n.phi(points) - w @ b_n.phi(points))
            coeff = lambda x, cvals=c, pts=points: np.interp(x[:, 0], pts[:, 0], cvals)
            lhs = inner_product(self.q, scale_by_function(coeff, self.p), nu, KL_GRID)
            rhs = (inner_product(self.p, scale_by_function(coeff, self.q), nu, KL_GRID)
                   + (-(w @ self.p.phi(points))) * inner_product(b_n, self.q, nu, KL_GRID)
                   - (-(w @ self.q.phi(points))) * inner_product(b_n, self.p, nu, KL_GRID))
            assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-8)


class TestFIM:
    def test_identity_jacobian_reduces_to_gram(self, std_normal_1d):
        basis = HermiteBasis1D(3, std_normal_1d)
        g = gram(basis, std_normal_1d, SPEC)
        assert np.allclose(fim(basis, std_normal_1d, np.eye(3), SPEC), g)

    def test_zero_jacobian(self, std_normal_1d):
        basis = HermiteBasis1D(3, std_normal_1d)
        out = fim(basis, std_normal_1d, np.zeros((3, 2)), SPEC)
        assert np.abs(out).max() == 0.0

    def test_gaussian_mean_family_classical_value(self):
        # N(m, s2) parameterized by its mean, measured under itself
        mu, s2 = 1.5, 2.0
        nu = GaussianMeasure([mu], [[s2]])
        basis = HermiteBasis1D(2, nu)
        jac = np.array([[-1.0 / np.sqrt(s2)], [0.0]])
        got = fim(basis, nu, jac, gh_spec(40))
        assert got[0, 0] == pytest.approx(1.0 / s2, rel=1e-10)
        # score-covariance oracle: Var_nu[(x - m)/s2] = 1/s2
        score = lambda x: (x[:, 0] - mu) / s2
        points, w = moment_nodes(nu, gh_spec(40))
        sc = score(points)
        oracle = w @ (sc - w @ sc) ** 2
        assert got[0, 0] == pytest.approx(oracle, rel=1e-10)

    def _score_covariance(self, basis, nu, alpha, spec, zgrid):
        """FD score-covariance oracle for the FIM in coordinates."""
        points, w = moment_nodes(nu, spec)
        m = len(basis.elements)
        scores = np.zeros((m, points.shape[0]))
        delta = 1e-5
        for n in range(m):
            up, dn = np.array(alpha, dtype=float), np.array(alpha, dtype=float)
            up[n] += delta
            dn[n] -= delta
            q_up = reconstruct_in_basis(up, basis)
            q_dn = reconstruct_in_basis(dn, basis)
            ln_up = -q_up.phi(points) - log_partition(q_up, zgrid)
            ln_dn = -q_dn.phi(points) - log_partition(q_dn, zgrid)
            scores[n] = (ln_up - ln_dn) / (2 * delta)
        centered = scores - (scores @ w)[:, None]
        return (centered * w) @ centered.T

    def test_score_covariance_oracle_hermite(self, std_normal_1d):
        basis = HermiteBasis1D(3, std_normal_1d)
        oracle = self._score_covariance(basis, std_normal_1d, [0.2, 0.9, 0.1],
                                        gh_spec(40), KL_GRID)
        g = gram(basis, std_normal_1d, gh_spec(40))
        assert np.allclose(oracle, g, rtol=1e-6, atol=1e-8)

    def test_score_covariance_oracle_gaussian_basis(self):
        nu = GaussianMeasure([0.5], [[1.2]])
        basis = gaussian_basis(nu)
        oracle = self._score_covariance(basis, nu, [0.3, 0.9], gh_spec(40),
                                        grid_spec(4001, [(-14.0, 15.0)]))
        g = gram(basis, nu, gh_spec(40))
        assert np.allclose(oracle, g, rtol=1e-6, atol=1e-8)


class TestDrive:
    @pytest.mark.parametrize("series, flagged", [
        ([1.0, 1.0 + 5e-13], False),  # inside the 1e-12 slack
        ([1.0, 1.0 + 2e-12], True),
        ([1.0, 0.5, 0.25], False)])
    def test_non_monotone_kl_flags_a_rise_past_its_slack(self, series, flagged):
        def step(k):
            return k + 1, {"kl": series[k], "step_norm": 1.0}

        trace = variational._drive(step, 0, tol=0.0, max_iters=len(series))
        assert trace.kl == series
        assert trace.non_monotone_kl is flagged

    def test_a_step_norm_equal_to_tol_does_not_converge(self, stereo):
        opts = IterateOptions(tol=0.0, max_iters=4, kl_grid=reporting_grid(stereo.prior_measure))
        run = lambda tol: iterate(stereo.posterior, GaussianSubspace(), stereo.prior_measure,
                                  dataclasses.replace(opts, tol=tol))
        norms = run(0.0).step_norm
        assert norms[2] < norms[1]
        trace = run(norms[1])
        assert trace.step_norm == norms[:3]
        assert trace.converged


class TestIterate:
    def test_target_in_subspace_converges_first_step(self):
        target = gaussian_element([1.5], [[0.8]])
        init = GaussianMeasure([0.0], [[2.0]])
        trace = iterate(target, GaussianSubspace(), init,
                        IterateOptions(kl_grid=grid_spec(2001, [(-12.0, 12.0)])))
        assert trace.converged
        assert equivalent(trace.estimates[0], target, rtol=1e-8)
        assert trace.kl[0] == pytest.approx(0.0, abs=1e-10)

    def test_target_log_partition_computed_once_per_run(self, stereo, monkeypatch):
        calls = []
        real = variational.log_partition

        def counting(p, *args, **kwargs):
            calls.append(p)
            return real(p, *args, **kwargs)

        monkeypatch.setattr(variational, "log_partition", counting)
        grid = reporting_grid(stereo.prior_measure)
        trace = iterate(stereo.posterior, GaussianSubspace(), stereo.prior_measure,
                        IterateOptions(tol=0.0, max_iters=4, kl_grid=grid))
        assert trace.iterations == 4
        assert sum(p is stereo.posterior for p in calls) == 1
        # The same bits as the absolute KL computed from scratch.
        assert trace.kl == [kl(q, stereo.posterior, grid) for q in trace.estimates]

    @pytest.mark.parametrize("steps", [1, 3])
    def test_hermite_basis_built_once_per_step(self, stereo, monkeypatch, steps):
        builds = []
        real = HermiteBasis1D.__post_init__

        def counting(self):
            builds.append(self.order)
            real(self)

        monkeypatch.setattr(HermiteBasis1D, "__post_init__", counting)
        trace = iterate(stereo.posterior, HermiteSubspace(4), stereo.prior_measure,
                        IterateOptions(tol=0.0, max_iters=steps,
                                       kl_grid=reporting_grid(stereo.prior_measure)))
        assert trace.iterations == steps
        assert builds == [4] * steps

    def test_default_kl_grid_is_the_initial_measures_reporting_grid(self, stereo):
        trace = iterate(stereo.posterior, GaussianSubspace(), stereo.prior_measure,
                        IterateOptions(tol=0.0, max_iters=2))
        grid = reporting_grid(stereo.prior_measure)
        assert trace.kl == [kl(q, stereo.posterior, grid) for q in trace.estimates]

    @pytest.mark.parametrize("given_log_zp", [False, True])
    def test_kl_evaluates_the_target_once(self, stereo, given_log_zp):
        p, calls = stereo.posterior, []
        counted = BayesElement(1, lambda x: calls.append(len(x)) or p.phi(x))
        grid = reporting_grid(stereo.prior_measure)
        log_zp = log_partition(p, grid) if given_log_zp else None
        q = gaussian_element([21.0], [[4.0]])
        assert kl(q, counted, grid, log_zp) == kl(q, p, grid)
        assert calls == [grid.nodes_per_dim]

    def test_kl_evaluates_the_estimate_once(self, stereo):
        q = gaussian_element([21.0], [[4.0]])
        calls = []
        counted = BayesElement(1, lambda x: calls.append(len(x)) or q.phi(x))
        grid = reporting_grid(stereo.prior_measure)
        value = kl(counted, stereo.posterior, grid)
        assert calls == [grid.nodes_per_dim]
        assert value == kl(q, stereo.posterior, grid)

    def test_trace_records_each_estimate_once(self):
        stored = {f.name for f in dataclasses.fields(IterationTrace)}
        assert {"coordinates", "gaussians", "covariances"} <= stored
        assert not stored & {"measures", "divergence_before"}
        assert isinstance(IterationTrace.measures, property)

    def test_measures_hold_each_estimate_as_a_measure(self, stereo):
        trace = iterate(stereo.posterior, GaussianSubspace(), stereo.prior_measure,
                        IterateOptions(tol=0.0, max_iters=3,
                                       kl_grid=reporting_grid(stereo.prior_measure)))
        assert len(trace.measures) == trace.iterations == 3
        for measure, ig in zip(trace.measures, trace.gaussians):
            assert np.array_equal(measure.mean, ig.mean_like)
            assert np.array_equal(measure.covariance, ig.covariance())

    @pytest.mark.parametrize("subspace", [GaussianSubspace(), HermiteSubspace(4)])
    def test_one_inner_product_per_step(self, stereo, monkeypatch, subspace):
        calls = []

        def counting(*args):
            calls.append(1)
            return inner_product(*args)

        # replaced wherever a module looked the name up, as the bench tracer does
        for name, module in list(sys.modules.items()):
            if name.startswith("bayespace") and hasattr(module, "inner_product"):
                monkeypatch.setattr(module, "inner_product", counting)
        trace = iterate(stereo.posterior, subspace, stereo.prior_measure,
                        IterateOptions(tol=0.0, max_iters=3,
                                       kl_grid=reporting_grid(stereo.prior_measure)))
        assert trace.iterations == 3
        assert len(calls) == 3

    def test_non_normalizable_target_raises_with_trace(self):
        # A Cauchy-like target: its Gaussian projection is fine, but it does
        # not decay on the KL grid, so the first KL evaluation raises.
        target = BayesElement(1, lambda x: np.log1p(x[:, 0] ** 2),
                              lambda x: 2.0 * x / (1.0 + x**2),
                              lambda x: (2.0 * (1.0 - x**2) / (1.0 + x**2) ** 2)[:, :, None])
        with pytest.raises(NotNormalizable) as err:
            iterate(target, GaussianSubspace(), GaussianMeasure([0.0], [[1.0]]),
                    IterateOptions(max_iters=3, kl_grid=grid_spec(2001, [(-8.0, 8.0)])))
        assert err.value.trace.aborted.startswith("estimate not normalizable")
        assert err.value.trace.iterations == 0

    def test_stereo_converges_in_about_five_iterations(self, stereo):
        trace = iterate(stereo.posterior, GaussianSubspace(), stereo.prior_measure,
                        IterateOptions(tol=0.0, max_iters=10,
                                       kl_grid=reporting_grid(stereo.prior_measure)))
        # the KL series has plateaued by the fifth iterate
        assert abs(trace.kl[4] - trace.kl[-1]) <= 0.01 * trace.kl[-1]
        assert not trace.non_monotone_kl

    def test_near_fixed_point_init_converges_immediately(self, stereo):
        full = iterate(stereo.posterior, GaussianSubspace(), stereo.prior_measure,
                       IterateOptions(tol=1e-10, max_iters=40,
                                      kl_grid=reporting_grid(stereo.prior_measure)))
        start = full.gaussians[-1].to_measure()
        trace = iterate(stereo.posterior, GaussianSubspace(), start,
                        IterateOptions(tol=1e-6, max_iters=10,
                                       kl_grid=reporting_grid(stereo.prior_measure)))
        assert trace.converged and trace.iterations <= 2

    def test_single_iteration_is_plain_projection(self, stereo):
        nu = GaussianMeasure([24.0], [[4.0]])
        trace = iterate(stereo.posterior, GaussianSubspace(), nu,
                        IterateOptions(tol=0.0, max_iters=1,
                                       kl_grid=reporting_grid(stereo.prior_measure)))
        direct = project_to_gaussian(stereo.posterior, nu, gh_spec(20))
        assert np.allclose(trace.gaussians[0].mean_like, direct.mean_like, rtol=1e-12)
        assert np.allclose(trace.gaussians[0].info, direct.info, rtol=1e-12)

    def test_newton_option_reaches_same_optimum(self, stereo):
        # The raw Newton step overshoots from the wide prior (the reason the
        # FIM-approximated step is the default); start it nearer the optimum.
        start = GaussianMeasure([22.0], [[4.0]])
        base = iterate(stereo.posterior, GaussianSubspace(), start,
                       IterateOptions(tol=1e-9, max_iters=30,
                                      kl_grid=reporting_grid(stereo.prior_measure)))
        newton = iterate_newton(stereo.posterior, GaussianSubspace(), start,
                                IterateOptions(tol=1e-9, max_iters=30,
                                               kl_grid=reporting_grid(stereo.prior_measure)))
        assert newton.converged
        assert newton.kl[-1] == pytest.approx(base.kl[-1], rel=1e-5)

    def test_divergence_not_increased_by_any_step(self, stereo):
        # step k moves from estimate k-1 to estimate k, both measured under estimate k-1
        nu = stereo.prior_measure
        for subspace in (GaussianSubspace(), HermiteSubspace(4)):
            opts = IterateOptions(tol=0.0, max_iters=8, kl_grid=reporting_grid(nu))
            trace = iterate(stereo.posterior, subspace, nu, opts)
            currents = [gaussian_element(nu.mean, nu.covariance), *trace.estimates[:-1]]
            for current, measure, after in zip(currents, [nu, *trace.measures[:-1]],
                                               trace.divergence):
                before = information(subtract(stereo.posterior, current), measure, opts.quad)
                assert after <= before + 1e-9

    def test_projection_update_routes_agree(self, stereo):
        # alpha_self + Gram^{-1} <b, p (-) q> equals Gram^{-1} <b, p>
        nu = stereo.prior_measure
        q = gaussian_element(nu.mean, nu.covariance)
        for basis in (HermiteBasis1D(4, nu), gaussian_basis(nu)):
            quad = stereo.sweep_grid()
            g = gram(basis, nu, quad)
            full = np.linalg.solve(g, basis_projections(basis, stereo.posterior, nu, quad))
            alpha_self = np.linalg.solve(g, basis_projections(basis, q, nu, quad))
            step = np.linalg.solve(
                g, basis_projections(basis, subtract(stereo.posterior, q), nu, quad))
            assert np.abs(alpha_self + step - full).max() < 1e-10

    def test_projection_optimality_under_perturbations(self, stereo):
        nu = stereo.prior_measure
        quad = stereo.sweep_grid()
        basis = HermiteBasis1D(3, nu)
        alpha = project(stereo.posterior, basis, nu, quad)
        best = information(subtract(stereo.posterior, reconstruct(alpha, basis)), nu, quad)
        rng = np.random.default_rng(41)
        for _ in range(200):
            delta = rng.standard_normal(3)
            delta *= rng.uniform(0, 0.1) / np.linalg.norm(delta)
            perturbed = information(
                subtract(stereo.posterior, reconstruct(alpha + delta, basis)), nu, quad)
            assert perturbed >= best - 1e-9

    def test_hessian_approaches_gram_as_residual_shrinks(self):
        # Away from the Gram term, every Hessian contribution is first order
        # in p (-) q, so the deviation scales down with the residual.
        init = GaussianMeasure([0.0], [[1.0]])
        deviations = []
        for eps in (0.1, 0.003):
            p = BayesElement(
                1,
                lambda x, e=eps: 0.5 * x[:, 0] ** 2 + e * x[:, 0] ** 4,
                grad=lambda x, e=eps: (x[:, 0] + 4 * e * x[:, 0] ** 3)[:, None],
                hess=lambda x, e=eps: (1.0 + 12 * e * x[:, 0] ** 2)[:, None, None])
            trace = iterate(p, GaussianSubspace(), init,
                            IterateOptions(tol=1e-10, max_iters=40,
                                           kl_grid=grid_spec(2001, [(-9.0, 9.0)])))
            final_measure = trace.gaussians[-1].to_measure()
            basis = HermiteBasis1D(2, final_measure)
            grid = reporting_grid(final_measure)
            alpha = project(trace.estimates[-1], basis, final_measure, gh_spec(20))
            h = kl_hessian(alpha, basis, p, grid)
            g = gram(basis, reconstruct(alpha, basis), grid)
            deviations.append(np.linalg.norm(h - g) / np.linalg.norm(g))
        assert deviations[1] < deviations[0]
        assert deviations[1] < 0.05

    def test_non_spd_estimate_aborts_with_trace(self):
        # concave target: its Gaussian part has negative information
        concave = BayesElement(
            1, lambda x: -0.5 * x[:, 0] ** 2,
            grad=lambda x: -x,
            hess=lambda x: np.full((x.shape[0], 1, 1), -1.0))
        with pytest.raises(MeasureInvalid) as err:
            iterate(concave, GaussianSubspace(), GaussianMeasure([0.0], [[1.0]]),
                    IterateOptions(kl_grid=grid_spec(1001, [(-8.0, 8.0)])))
        trace = err.value.trace
        assert trace.aborted is not None
        assert trace.iterations == len(trace.kl) == len(trace.coordinates)
