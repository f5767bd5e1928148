"""The indefinite-Gaussian subspace: basis, projection, information."""

import numpy as np
import pytest

from bayespace.elements import BayesElement, constant_element, equivalent, gaussian_element
from bayespace.errors import SingularInformation
from bayespace.gaussian import (IndefGaussian, gaussian_basis, gaussian_coordinates,
                                gaussian_from_coordinates, project_to_gaussian)
from bayespace.hermite import HermiteBasis1D
from bayespace.matrixops import vech, vech_weights
from bayespace.measures import GaussianMeasure
from bayespace.oracles import gaussian_coordinates_direct, gaussian_information
from bayespace.quadrature import gh_spec
from bayespace.variational import gram

SPEC = gh_spec(10)


def random_spd(rng, n, jitter=0.5):
    a = rng.standard_normal((n, n))
    return a @ a.T + jitter * np.eye(n)


def random_measure(rng, n):
    return GaussianMeasure(rng.standard_normal(n), random_spd(rng, n))


class TestBasis:
    def test_size(self):
        for n in (1, 2, 3):
            nu = GaussianMeasure(np.zeros(n), np.eye(n))
            assert len(gaussian_basis(nu).elements) == n * (n + 3) // 2

    def test_orthonormality(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3):
            nu = random_measure(rng, n)
            basis = gaussian_basis(nu)
            g = gram(basis, nu, SPEC)
            assert np.abs(g - np.eye(len(basis.elements))).max() < 1e-8

    def test_one_dimensional_matches_hermite_pair(self, std_normal_1d):
        basis = gaussian_basis(std_normal_1d)
        hermite = HermiteBasis1D(2, std_normal_1d)
        assert equivalent(basis.elements[0], hermite.elements[0])
        # second functions differ by the constant 1/sqrt(2) only
        assert equivalent(basis.elements[1], hermite.elements[1])


class TestCoordinates:
    def test_measure_itself(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            nu = random_measure(rng, n)
            p = gaussian_element(nu.mean, nu.covariance)
            a1, a2 = gaussian_coordinates(p, nu, SPEC)
            assert np.abs(a1).max() < 1e-10
            assert np.allclose(a2, vech_weights(n) * vech(np.eye(n)), atol=1e-10)
        # one-dimensional special case: alpha_2 = 1/sqrt(2)
        nu1 = GaussianMeasure([0.0], [[1.0]])
        _, a2 = gaussian_coordinates(gaussian_element([0.0], [[1.0]]), nu1, SPEC)
        assert a2[0] == pytest.approx(1 / np.sqrt(2))

    def test_alpha1_closed_form(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 3):
            nu = random_measure(rng, n)
            mu_p = rng.standard_normal(n)
            cov_p = random_spd(rng, n)
            a1, _ = gaussian_coordinates(gaussian_element(mu_p, cov_p), nu, SPEC)
            expected = nu.cholesky.T @ np.linalg.inv(cov_p) @ (nu.mean - mu_p)
            assert np.allclose(a1, expected, rtol=1e-8, atol=1e-8)

    def test_zero_vector(self):
        nu = GaussianMeasure(np.zeros(2), np.eye(2))
        a1, a2 = gaussian_coordinates(constant_element(2), nu, SPEC)
        assert np.abs(a1).max() < 1e-14 and np.abs(a2).max() < 1e-14

    def test_direct_inner_products_agree(self, stereo):
        nu = GaussianMeasure([24.0], [[4.0]])
        a1, a2 = gaussian_coordinates(stereo.posterior, nu, gh_spec(20))
        b1, b2 = gaussian_coordinates_direct(stereo.posterior, nu, gh_spec(20))
        assert np.allclose(a1, b1, rtol=1e-6, atol=1e-8)
        assert np.allclose(a2, b2, rtol=1e-6, atol=1e-8)


class TestProjection:
    def test_gaussian_fixed_point(self):
        rng = np.random.default_rng(7)
        nu = random_measure(rng, 2)
        mu_p = rng.standard_normal(2)
        cov_p = random_spd(rng, 2)
        proj = project_to_gaussian(gaussian_element(mu_p, cov_p), nu, SPEC)
        assert proj.spd
        assert np.allclose(proj.mean_like, mu_p, rtol=1e-12, atol=1e-12)
        assert np.allclose(proj.info, np.linalg.inv(cov_p), rtol=1e-12, atol=1e-12)

    def test_idempotence(self, stereo):
        nu = stereo.prior_measure
        first = project_to_gaussian(stereo.posterior, nu, gh_spec(20))
        second = project_to_gaussian(first.to_element(), nu, gh_spec(20))
        assert np.allclose(first.mean_like, second.mean_like, rtol=1e-14)
        assert np.allclose(first.info, second.info, rtol=1e-14)

    def test_stereo_measures(self, stereo):
        proj_prior = project_to_gaussian(stereo.posterior, stereo.prior_measure, gh_spec(20))
        proj_inf = project_to_gaussian(stereo.posterior, GaussianMeasure([24.0], [[4.0]]),
                                       gh_spec(20))
        assert proj_prior.spd and proj_inf.spd
        assert proj_prior.mean_like[0] != pytest.approx(proj_inf.mean_like[0], abs=1e-3)

    def test_singular_information(self):
        nu = GaussianMeasure([0.0], [[1.0]])
        linear = BayesElement(1, lambda x: x[:, 0],
                              grad=lambda x: np.ones_like(x),
                              hess=lambda x: np.zeros((x.shape[0], 1, 1)))
        with pytest.raises(SingularInformation):
            project_to_gaussian(linear, nu, SPEC)

    @pytest.mark.parametrize("cond, singular", [(1e11, False), (1e13, True)])
    def test_information_condition_limit_is_1e12(self, cond, singular):
        nu = GaussianMeasure([0.0, 0.0], np.eye(2))
        target = gaussian_element([0.0, 0.0], np.diag([1.0, cond]))  # info diag(1, 1/cond)
        if singular:
            with pytest.raises(SingularInformation, match="numerically singular$"):
                project_to_gaussian(target, nu, SPEC)
        else:
            assert project_to_gaussian(target, nu, SPEC).info[1, 1] == pytest.approx(1 / cond)


class TestReconstruction:
    def test_from_coordinates_round_trip(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3):
            nu = random_measure(rng, n)
            mu_p = rng.standard_normal(n)
            cov_p = random_spd(rng, n)
            a1, a2 = gaussian_coordinates(gaussian_element(mu_p, cov_p), nu, SPEC)
            back = gaussian_from_coordinates(a1, a2, nu)
            assert back.spd
            assert np.allclose(back.mean_like, mu_p, rtol=1e-9, atol=1e-9)
            assert np.allclose(np.linalg.inv(back.info), cov_p, rtol=1e-9, atol=1e-9)

    def test_mean_covariance_formula(self):
        # mean = mu - L S^{-1} alpha_1, covariance = L S^{-1} L^T
        rng = np.random.default_rng(9)
        nu = random_measure(rng, 2)
        s = random_spd(rng, 2)
        alpha1 = rng.standard_normal(2)
        alpha2 = vech_weights(2) * vech(s)
        got = gaussian_from_coordinates(alpha1, alpha2, nu)
        chol = nu.cholesky
        expected_mean = nu.mean - chol @ np.linalg.solve(s, alpha1)
        expected_cov = chol @ np.linalg.inv(s) @ chol.T
        assert np.allclose(got.mean_like, expected_mean, rtol=1e-12)
        assert np.allclose(np.linalg.inv(got.info), expected_cov, rtol=1e-10)


    def test_zero_second_coordinates_are_singular(self):
        nu = GaussianMeasure([0.0, 1.0], [[2.0, 0.5], [0.5, 1.0]])
        with pytest.raises(SingularInformation,
                           match="^coordinate matrix S is numerically singular$"):
            gaussian_from_coordinates(np.ones(2), np.zeros(3), nu)


class TestInformation:
    def test_three_routes_agree(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            nu = random_measure(rng, n)
            g = IndefGaussian(mean_like=rng.standard_normal(n),
                              info=np.linalg.inv(random_spd(rng, n)), spd=True)
            values = [gaussian_information(g, nu, route)
                      for route in ("coordinates", "trace", "natural")]
            assert values[0] == pytest.approx(values[1], rel=1e-8)
            assert values[0] == pytest.approx(values[2], rel=1e-8)

    def test_one_dimensional_closed_form(self, std_normal_1d):
        for mu, s2 in [(0.0, 1.0), (1.0, 2.0), (-3.0, 0.5)]:
            g = IndefGaussian(mean_like=np.array([mu]), info=np.array([[1.0 / s2]]), spd=True)
            expected = (1 + 2 * mu**2) / (4 * s2**2)
            assert gaussian_information(g, std_normal_1d, "trace") == pytest.approx(expected,
                                                                                    rel=1e-12)

    def test_measure_itself_quarter(self, std_normal_1d):
        g = IndefGaussian(mean_like=np.zeros(1), info=np.eye(1), spd=True)
        assert gaussian_information(g, std_normal_1d) == pytest.approx(0.25)

    def test_vanishing_information_limit(self, std_normal_1d):
        values = []
        for scale in (1.0, 1e-2, 1e-4, 1e-6):
            g = IndefGaussian(mean_like=np.array([0.5]), info=np.array([[scale]]), spd=True)
            values.append(gaussian_information(g, std_normal_1d))
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-10

    def test_rejects_indefinite(self, std_normal_1d):
        g = IndefGaussian(mean_like=np.zeros(1), info=-np.eye(1), spd=False)
        with pytest.raises(SingularInformation):
            gaussian_information(g, std_normal_1d)
