"""Hermite polynomial bases on R and R^N: orthonormality and coordinates."""

import numpy as np
import pytest

from bayespace.elements import equivalent, gaussian_element, information, normalize, subtract
from bayespace.hermite import HermiteBasis1D, hermite_poly, multivariate_basis, reconstruct
from bayespace.measures import GaussianMeasure
from bayespace.oracles import coordinates, coordinates_via_derivatives
from bayespace.quadrature import gh_spec, grid_spec
from bayespace.variational import gram


class TestHermitePolynomials:
    def test_tabulated_values(self):
        assert hermite_poly(2, 2.0) == pytest.approx(3.0)
        assert hermite_poly(4, 1.0) == pytest.approx(-2.0)  # 1 - 6 + 3
        assert np.all(hermite_poly(0, np.linspace(-5, 5, 11)) == 1.0)

    def test_recurrence_against_numpy(self):
        xs = np.linspace(-3.0, 3.0, 13)
        for n in range(9):
            coeff = np.zeros(n + 1)
            coeff[n] = 1.0
            expected = np.polynomial.hermite_e.hermeval(xs, coeff)
            assert np.allclose(hermite_poly(n, xs), expected, rtol=1e-12, atol=1e-12)


class TestBasis1D:
    def test_first_two_elements(self, std_normal_1d):
        basis = HermiteBasis1D(2, std_normal_1d)
        x = np.linspace(-2, 2, 9)[:, None]
        assert np.allclose(basis.elements[0].phi(x), x[:, 0])
        assert np.allclose(basis.elements[1].phi(x), (x[:, 0] ** 2 - 1) / np.sqrt(2))

    def test_orthonormality_order_six(self, std_normal_1d):
        basis = HermiteBasis1D(6, std_normal_1d)
        g = gram(basis, std_normal_1d, gh_spec(40))
        assert np.abs(g - np.eye(6)).max() < 1e-8

    def test_orthonormality_shifted_measure(self):
        nu = GaussianMeasure([20.0], [[9.0]])
        basis = HermiteBasis1D(6, nu)
        g = gram(basis, nu, gh_spec(40))
        assert np.abs(g - np.eye(6)).max() < 1e-8


class TestCoordinates:
    def test_gaussian_closed_form(self, std_normal_1d):
        mu, s2 = 1.3, 0.7
        alpha = coordinates(gaussian_element([mu], [[s2]]),
                            HermiteBasis1D(5, std_normal_1d), gh_spec(40))
        expected = np.array([-mu / s2, 1 / (np.sqrt(2) * s2), 0, 0, 0])
        assert np.allclose(alpha, expected, atol=1e-10)

    def test_measure_itself(self, std_normal_1d):
        alpha = coordinates(gaussian_element([0.0], [[1.0]]),
                            HermiteBasis1D(4, std_normal_1d), gh_spec(40))
        assert np.allclose(alpha, [0, 1 / np.sqrt(2), 0, 0], atol=1e-12)

    def test_zero_vector(self, std_normal_1d):
        from bayespace.elements import constant_element
        alpha = coordinates(constant_element(1), HermiteBasis1D(4, std_normal_1d), gh_spec(40))
        assert np.allclose(alpha, 0.0, atol=1e-14)

    def test_derivative_route_agreement_gaussian(self, std_normal_1d):
        p = gaussian_element([0.9], [[1.8]])
        basis = HermiteBasis1D(4, std_normal_1d)
        a_ip = coordinates(p, basis, gh_spec(40))
        a_dr = coordinates_via_derivatives(p, basis, gh_spec(40))
        assert np.allclose(a_dr[:2], a_ip[:2], rtol=1e-6, atol=1e-6)
        assert np.allclose(a_dr[2:], a_ip[2:], atol=1e-5)

    def test_derivative_route_agreement_stereo(self, stereo):
        # Integration by parts pushes mass toward the inverse-distance pole,
        # so the identity needs a measure whose support is well clear of it;
        # under the wide prior the boundary term alone is ~2e-5.
        nu = GaussianMeasure([24.0], [[4.0]])
        basis = HermiteBasis1D(4, nu)
        a_ip = coordinates(stereo.posterior, basis, gh_spec(40))
        a_dr = coordinates_via_derivatives(stereo.posterior, basis, gh_spec(40))
        assert np.allclose(a_dr, a_ip, rtol=1e-5, atol=1e-7)


class TestReconstruct:
    def test_round_trip(self):
        basis = HermiteBasis1D(4, GaussianMeasure([0.7], [[2.0]]))
        alpha = np.array([0.3, 0.9, -0.05, 0.08])
        back = coordinates(reconstruct(alpha, basis), basis, gh_spec(40))
        assert np.abs(back - alpha).max() < 1e-8

    def test_gaussian_coordinates_round_trip(self, std_normal_1d):
        basis = HermiteBasis1D(2, std_normal_1d)
        mu, s2 = 0.5, 1.4
        q = reconstruct([-mu / s2, 1 / (np.sqrt(2) * s2)], basis)
        assert equivalent(q, gaussian_element([mu], [[s2]]))

    def test_random_alpha_with_positive_quadratic_is_normalizable(self, std_normal_1d):
        rng = np.random.default_rng(29)
        basis = HermiteBasis1D(2, std_normal_1d)
        for _ in range(5):
            alpha = np.array([rng.normal(0, 1), rng.uniform(0.5, 2.0)])
            q = reconstruct(alpha, basis)
            c, dens = normalize(q, grid_spec(2001, [(-12.0, 12.0)]))
            xs = np.linspace(-12, 12, 100001)
            oracle = np.trapezoid(np.exp(-q.phi(xs[:, None])), xs)
            assert c == pytest.approx(1.0 / oracle, rel=1e-6)

    def test_length_mismatch(self, std_normal_1d):
        with pytest.raises(ValueError):
            reconstruct([1.0, 2.0], HermiteBasis1D(3, std_normal_1d))

    def test_reconstruct_derivatives_match_fd(self, std_normal_1d):
        from bayespace.elements import BayesElement, element_grad, element_hess
        basis = HermiteBasis1D(4, GaussianMeasure([1.0], [[2.5]]))
        q = reconstruct([0.2, 0.8, -0.1, 0.05], basis)
        x = np.linspace(-2, 4, 9)[:, None]
        bare = BayesElement(1, q.phi)
        assert np.allclose(q.grad(x), element_grad(bare, x), rtol=1e-6, atol=1e-7)
        assert np.allclose(q.hess(x), element_hess(bare, x), rtol=1e-5, atol=1e-5)


class TestTruncationMonotonicity:
    def test_stereo_divergence_nonincreasing(self, stereo):
        from bayespace.variational import project
        quad = stereo.sweep_grid()
        values = []
        for m in range(2, 7):
            basis = HermiteBasis1D(m, stereo.prior_measure)
            alpha = project(stereo.posterior, basis, stereo.prior_measure, quad)
            q = reconstruct(alpha, basis)
            values.append(information(subtract(stereo.posterior, q),
                                      stereo.prior_measure, quad))
        assert np.all(np.diff(values) <= 0)


class TestMultivariateBasis:
    def test_kronecker_order_m1_n2(self):
        nd = multivariate_basis(1, 2)
        assert nd.index_sets == [(0, 1), (1, 0), (1, 1)]
        x = np.array([[0.5, 2.0]])
        values = [float(b.phi(x)[0]) for b in nd.elements]
        assert values == pytest.approx([2.0, 0.5, 1.0])

    def test_count_formula(self):
        assert len(multivariate_basis(2, 2)) == 8
        assert len(multivariate_basis(2, 3)) == 26

    def test_gram_identity(self):
        for dim in (2, 3):
            nu = GaussianMeasure(np.zeros(dim), np.eye(dim))
            nd = multivariate_basis(2, dim, nu)
            g = gram(nd, nu, gh_spec(10))
            assert np.abs(g - np.eye(len(nd))).max() < 1e-8

    def test_gram_identity_correlated_measure(self):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        nu = GaussianMeasure([1.0, -2.0], cov)
        nd = multivariate_basis(2, 2, nu)
        g = gram(nd, nu, gh_spec(10))
        assert np.abs(g - np.eye(8)).max() < 1e-8

    def test_size_caps(self):
        with pytest.raises(ValueError):
            multivariate_basis(4, 2)
        with pytest.raises(ValueError):
            multivariate_basis(2, 4)
