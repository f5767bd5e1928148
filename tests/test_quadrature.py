"""Gauss-Hermite rules, reparameterized expectations, and the Stein identities."""

import numpy as np
import pytest

from bayespace.errors import EvaluationFailure, NotNormalizable
from bayespace.hermite import hermite_poly
from bayespace.measures import GaussianMeasure
from bayespace.oracles import stein_check
from bayespace.quadrature import (expect, gauss_hermite_rule, gh_spec, grid_faces, grid_spec,
                                  measure_nodes, tensor_rule, trapezoid_points)


def std_normal_moment(k: int) -> float:
    """E[xi^k] under N(0,1): odd -> 0, even -> (k-1)!!."""
    if k % 2 == 1:
        return 0.0
    out = 1.0
    for j in range(k - 1, 0, -2):
        out *= j
    return out


class TestGaussHermiteRule:
    def test_single_node(self):
        nodes, weights = gauss_hermite_rule(1)
        assert np.allclose(nodes, [0.0]) and np.allclose(weights, [1.0])

    def test_weights_sum_to_one(self):
        for n in (2, 5, 20, 64):
            _, w = gauss_hermite_rule(n)
            assert abs(w.sum() - 1.0) < 1e-12

    def test_moment_exactness_up_to_degree(self):
        for n in (3, 7, 12):
            nodes, w = gauss_hermite_rule(n)
            for k in range(2 * n):
                assert w @ nodes**k == pytest.approx(std_normal_moment(k),
                                                     rel=1e-10, abs=1e-10 * 2**k)

    def test_second_moment_three_points(self):
        nodes, w = gauss_hermite_rule(3)
        assert w @ nodes**2 == pytest.approx(1.0, abs=1e-12)

    def test_hermite_norm_via_rule(self):
        nodes, w = gauss_hermite_rule(10)
        h3 = hermite_poly(3, nodes)
        assert w @ (h3 * h3) == pytest.approx(6.0, rel=1e-12)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            gauss_hermite_rule(0)
        with pytest.raises(ValueError):
            gauss_hermite_rule(65)

    def test_grid_bounds_must_be_finite_and_ordered(self):
        with pytest.raises(ValueError):
            grid_spec(100, [(0.0, np.inf)])
        with pytest.raises(ValueError):
            grid_spec(100, [(3.0, 1.0)])


class TestExpect:
    def test_constant(self):
        nu = GaussianMeasure([3.0, -1.0], [[2.0, 0.3], [0.3, 1.0]])
        assert expect(lambda x: np.ones(x.shape[0]), nu, gh_spec(5)) == pytest.approx(1.0)

    def test_covariance_recovered(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        cov = a @ a.T + np.eye(3)
        mu = rng.standard_normal(3)
        nu = GaussianMeasure(mu, cov)
        for i in range(3):
            for j in range(3):
                val = expect(lambda x: (x[:, i] - mu[i]) * (x[:, j] - mu[j]), nu, gh_spec(6))
                assert val == pytest.approx(cov[i, j], rel=1e-10, abs=1e-10)

    def test_tensor_orthogonality(self):
        for dim in (2, 3, 4):
            nu = GaussianMeasure(np.zeros(dim), np.eye(dim))
            for i in range(dim):
                for j in range(dim):
                    val = expect(lambda x: x[:, i] * x[:, j], nu, gh_spec(4))
                    assert val == pytest.approx(float(i == j), abs=1e-10)

    def test_square_root_invariance_for_polynomials(self):
        # the expectation must not depend on which square root realizes Sigma
        rng = np.random.default_rng(5)
        a = rng.standard_normal((2, 2))
        cov = a @ a.T + np.eye(2)
        mu = np.array([0.4, -0.2])
        nu = GaussianMeasure(mu, cov)
        poly = lambda x: x[:, 0] ** 3 - 2 * x[:, 0] * x[:, 1] + x[:, 1] ** 2
        via_cholesky = expect(poly, nu, gh_spec(8))
        # rotate the factor: (L Q)(L Q)^T = Sigma for any orthogonal Q
        theta = 0.9
        q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        xi, w = tensor_rule(8, 2)
        via_rotated = w @ poly(mu + xi @ (nu.cholesky @ q).T)
        assert via_rotated == pytest.approx(via_cholesky, abs=1e-9)

    def test_grid_rule_default_bounds(self):
        # without explicit bounds the grid covers mean +/- 8 sigma
        nu = GaussianMeasure([2.0], [[1.5]])
        got = expect(lambda x: (x[:, 0] - 2.0) ** 2, nu, grid_spec(4001))
        assert got == pytest.approx(1.5, rel=1e-9)

    def test_grid_rule_reuses_the_trapezoid_points(self):
        nu = GaussianMeasure([2.0], [[1.5]])
        spec = grid_spec(101, [(0.0, 4.0)])
        points, w = measure_nodes(nu, spec)
        assert points is trapezoid_points(spec, 1)[0]
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_grid_without_mass_raises(self):
        # the measure's density underflows on every node of a grid far from it
        far = GaussianMeasure([1000.0], [[1.0]])
        with pytest.raises(NotNormalizable):
            measure_nodes(far, grid_spec(101, [(0.0, 40.0)]))
        with pytest.raises(NotNormalizable):
            expect(lambda x: x[:, 0], far, grid_spec(101, [(0.0, 40.0)]))

    def test_evaluation_failure_carries_node(self):
        nu = GaussianMeasure([0.0], [[1.0]])

        def bad(x):
            out = np.ones(x.shape[0])
            out[x[:, 0] > 1.0] = np.nan
            return out

        with pytest.raises(EvaluationFailure) as err:
            expect(bad, nu, gh_spec(9))
        assert err.value.node is not None and err.value.node[0] > 1.0

    def test_stereo_integrand_grid_matches_trapezoid_oracle(self, stereo):
        # Pole-adjacent integrand: the grid rule reproduces an independent
        # high-resolution trapezoid on the same truncated support; the
        # Gauss-Hermite value is finite and close but tail-regularized
        # differently, so it only agrees loosely.
        nu = stereo.prior_measure
        f = lambda x: hermite_poly(2, (x[:, 0] - 20.0) / 3.0) * stereo.posterior.phi(x)
        xs = np.linspace(2.0, 38.0, 100000)
        num = np.trapezoid(f(xs[:, None]) * np.exp(nu.log_density(xs[:, None])), xs)
        den = np.trapezoid(np.exp(nu.log_density(xs[:, None])), xs)
        oracle = num / den
        grid_val = expect(f, nu, grid_spec(4001, [(2.0, 38.0)]))
        assert grid_val == pytest.approx(oracle, rel=1e-5)
        gh_val = expect(f, nu, gh_spec(20))
        assert np.isfinite(gh_val)
        assert gh_val == pytest.approx(oracle, rel=1e-3)


class TestTrapezoidPoints:
    def test_repeated_call_returns_the_same_read_only_arrays(self):
        points, dx = trapezoid_points(grid_spec(101, [(-2.0, 3.0)]), 1)
        again = trapezoid_points(grid_spec(101, [(-2.0, 3.0)]), 1)
        assert again[0] is points and again[1] is dx
        assert np.array_equal(points[:, 0], np.linspace(-2.0, 3.0, 101))
        for array in (points, dx):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_weights_are_the_trapezoid_rule(self):
        # half the spacing at each axis's two ends; a 2-D weight is the product
        _, dx = trapezoid_points(grid_spec(5, [(0.0, 2.0)]), 1)
        assert dx.tolist() == [0.25, 0.5, 0.5, 0.5, 0.25]
        points, dx = trapezoid_points(grid_spec(3, [(0.0, 2.0), (0.0, 4.0)]), 2)
        assert points.tolist() == [[x, y] for x in (0.0, 1.0, 2.0) for y in (0.0, 2.0, 4.0)]
        assert dx.tolist() == [0.5, 1.0, 0.5, 1.0, 2.0, 1.0, 0.5, 1.0, 0.5]

    def test_invalid_requests_still_raise(self):
        with pytest.raises(ValueError):
            trapezoid_points(grid_spec(11), 1)
        with pytest.raises(ValueError):
            trapezoid_points(grid_spec(11, [(0.0, 1.0)]), 2)


class TestGridFaces:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_marks_the_first_and_last_index_on_some_axis(self, n, dim):
        index = np.indices((n,) * dim).reshape(dim, -1).T  # _tensor_product order
        expected = ((index == 0) | (index == n - 1)).any(axis=1)
        assert np.array_equal(grid_faces(n, dim), expected)
        if n > 1:  # the same nodes sit on the bounds of a trapezoid grid
            points, _ = trapezoid_points(grid_spec(n, [(0.0, 1.0)] * dim), dim)
            assert np.array_equal(grid_faces(n, dim), ((points == 0) | (points == 1)).any(axis=1))

    @pytest.mark.parametrize("n, dim", [(1, 1), (2, 2), (5, 3), (20, 1), (20, 2), (64, 1),
                                        (64, 2), (64, 3)])
    def test_equals_the_extreme_gauss_hermite_nodes(self, n, dim):
        xi, _ = tensor_rule(n, dim)
        extreme = np.any(np.abs(xi) >= np.abs(xi).max(), axis=1)
        assert np.array_equal(grid_faces(n, dim), extreme)

    def test_is_cached_and_read_only(self):
        mask = grid_faces(5, 2)
        assert grid_faces(5, 2) is mask and not mask.flags.writeable


class TestSteinIdentities:
    def test_odd_symmetry_case(self):
        lhs, rhs = stein_check(lambda t: t**2, 1, gh_spec(20), deriv=lambda t: 2 * t)
        assert lhs == pytest.approx(0.0, abs=1e-10)
        assert rhs == pytest.approx(0.0, abs=1e-10)

    def test_cubic_second_order(self):
        lhs, rhs = stein_check(lambda t: t**3, 2, gh_spec(20), deriv=lambda t: 6 * t)
        assert lhs == pytest.approx(0.0, abs=1e-10)
        assert rhs == pytest.approx(0.0, abs=1e-10)

    def test_quartic_second_order(self):
        lhs, rhs = stein_check(lambda t: t**4, 2, gh_spec(20),
                               deriv=lambda t: 12 * t**2)
        assert lhs == pytest.approx(12.0, rel=1e-12)
        assert rhs == pytest.approx(12.0, rel=1e-12)

    def test_finite_difference_derivative_route(self):
        lhs, rhs = stein_check(lambda t: np.sin(t), 2, gh_spec(30))
        assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_single_step_lemma_polynomials(self):
        # E[H_{n+1} f] = E[H_n f'] for polynomial f up to degree 6
        rng = np.random.default_rng(23)
        nu = GaussianMeasure([0.0], [[1.0]])
        spec = gh_spec(20)
        for _ in range(10):
            coeffs = rng.standard_normal(7)
            dcoeffs = coeffs[1:] * np.arange(1, 7)
            f = lambda x, c=coeffs: np.polynomial.polynomial.polyval(x[:, 0], c)
            df = lambda x, c=dcoeffs: np.polynomial.polynomial.polyval(x[:, 0], c)
            for n in range(4):
                lhs = expect(lambda x: hermite_poly(n + 1, x[:, 0]) * f(x), nu, spec)
                rhs = expect(lambda x: hermite_poly(n, x[:, 0]) * df(x), nu, spec)
                assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_multivariate_lemma_two_dims(self):
        # E[H_a(xi1) H_b(xi2) f] = E[d^{a+b} f / d xi1^a d xi2^b], orders <= 2
        nu = GaussianMeasure(np.zeros(2), np.eye(2))
        spec = gh_spec(10)

        def f(x):
            return x[:, 0] ** 3 * x[:, 1] ** 2 + 2.0 * x[:, 0] * x[:, 1] ** 3

        partials = {
            (1, 1): lambda x: 3 * x[:, 0] ** 2 * 2 * x[:, 1] + 2 * 3 * x[:, 1] ** 2,
            (2, 1): lambda x: 6 * x[:, 0] * 2 * x[:, 1],
            (1, 2): lambda x: 3 * x[:, 0] ** 2 * 2 + 2 * 6 * x[:, 1],
            (2, 2): lambda x: 12 * x[:, 0],
        }
        for (a, b), dfn in partials.items():
            lhs = expect(lambda x: hermite_poly(a, x[:, 0]) * hermite_poly(b, x[:, 1]) * f(x),
                         nu, spec)
            rhs = expect(dfn, nu, spec)
            assert lhs == pytest.approx(rhs, abs=1e-8)
