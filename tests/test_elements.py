"""Element algebra: vector operations, normalization, inner products."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayespace.elements import (BayesElement, add, constant_element, divergence,
                                element_grad, element_hess, equivalent,
                                gaussian_element, information, inner_product,
                                log_partition, moment_nodes, normalize, scale,
                                stochastic_derivative, subtract)
from bayespace.errors import DimensionMismatch, EvaluationFailure, NotNormalizable
from bayespace.hermite import HermiteBasis1D
from bayespace.measures import GaussianMeasure
from bayespace.quadrature import gh_spec, grid_spec

SPEC = gh_spec(20)
GRID8 = grid_spec(2001, [(-8.0, 8.0)])


def random_gaussian_elements(rng, count):
    for _ in range(count):
        yield gaussian_element([rng.normal(0, 1)], [[rng.uniform(0.5, 3.0)]])


class TestGaussianMeasure:
    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError):
            GaussianMeasure([0.0, 0.0], [[1.0, 0.3], [0.1, 1.0]])

    @pytest.mark.parametrize("skew, symmetric", [(1e-13, True), (1e-11, False)])
    def test_symmetry_tolerance_is_1e_12_of_the_largest_entry(self, skew, symmetric):
        cov = [[2.0, 0.5 + skew], [0.5, 1.0]]  # tolerance 2e-12
        if symmetric:
            assert GaussianMeasure([0.0, 0.0], cov).covariance[0, 1] == 0.5 + 0.5 * skew
        else:
            with pytest.raises(ValueError, match="^covariance is not symmetric$"):
                GaussianMeasure([0.0, 0.0], cov)

    def test_rejects_non_positive_definite(self):
        from bayespace.errors import NonSPD
        with pytest.raises(NonSPD) as err:
            GaussianMeasure([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
        assert err.value.minor == 2

    def test_rejects_mean_and_covariance_of_different_sizes(self):
        with pytest.raises(ValueError, match=r"^mean \(2,\) and covariance \(1, 1\) disagree$"):
            GaussianMeasure([0.0, 0.0], [[1.0]])

    def test_cholesky_cached_and_consistent(self):
        nu = GaussianMeasure([1.0, -1.0], [[2.0, 0.5], [0.5, 1.0]])
        assert np.allclose(nu.cholesky @ nu.cholesky.T, nu.covariance)

    def test_density_normalized(self):
        nu = GaussianMeasure([0.5], [[2.0]])
        xs = np.linspace(-12, 13, 20001)[:, None]
        assert np.trapezoid(np.exp(nu.log_density(xs)), xs[:, 0]) == pytest.approx(1.0, abs=1e-9)


class TestVectorOperations:
    def test_add_halves_variance(self):
        # phi's add: x^2/2 + x^2/2 = x^2 / (2 * 1/2)
        p = gaussian_element([0.0], [[1.0]])
        assert equivalent(add(p, p), gaussian_element([0.0], [[0.5]]))

    def test_add_identity(self):
        p = gaussian_element([1.0], [[2.0]])
        assert equivalent(add(p, constant_element(1)), p)

    def test_add_prior_and_measurement_is_posterior(self, stereo):
        combined = add(stereo.prior, stereo.measurement)
        points = np.linspace(5.0, 35.0, 64)[:, None]
        assert equivalent(combined, stereo.posterior, points=points)

    def test_scale_powers_the_density(self):
        p = gaussian_element([0.7], [[2.0]])
        assert equivalent(scale(2.0, p), gaussian_element([0.7], [[1.0]]))

    def test_scale_zero_gives_zero_vector(self):
        p = gaussian_element([0.7], [[2.0]])
        assert equivalent(scale(0.0, p), constant_element(1))

    def test_additive_inverse(self):
        p = gaussian_element([0.2], [[1.3]])
        assert equivalent(add(scale(-1.0, p), p), constant_element(1))

    def test_subtract_self(self):
        p = gaussian_element([0.2], [[1.3]])
        assert equivalent(subtract(p, p), constant_element(1))

    def test_subtract_gaussians(self):
        # x^2/2 - x^2/4 = x^2/4
        got = subtract(gaussian_element([0.0], [[1.0]]), gaussian_element([0.0], [[2.0]]))
        assert equivalent(got, gaussian_element([0.0], [[2.0]]))

    def test_subtract_recovers_measurement(self, stereo):
        got = subtract(stereo.posterior, stereo.prior)
        points = np.linspace(5.0, 35.0, 64)[:, None]
        assert equivalent(got, stereo.measurement, points=points)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            add(gaussian_element([0.0], [[1.0]]),
                gaussian_element([0.0, 0.0], np.eye(2)))

    def test_commutative_associative_distributive(self):
        rng = np.random.default_rng(7)
        p, q, r = random_gaussian_elements(rng, 3)
        pts = rng.standard_normal((64, 1))
        assert equivalent(add(p, q), add(q, p), points=pts)
        assert equivalent(add(add(p, q), r), add(p, add(q, r)), points=pts)
        a, b = 0.7, -1.3
        assert equivalent(scale(a, add(p, q)), add(scale(a, p), scale(a, q)), points=pts)
        assert equivalent(scale(a + b, p), add(scale(a, p), scale(b, p)), points=pts)

    def test_equivalence_ignores_constants(self):
        p = gaussian_element([0.0], [[1.0]])
        shifted = BayesElement(1, lambda x, f=p.phi: f(x) + 12.5)
        assert equivalent(p, shifted)
        assert not equivalent(p, gaussian_element([0.1], [[1.0]]))


class TestDerivativeFallbacks:
    def test_analytic_grad_matches_finite_differences(self, stereo):
        p = stereo.posterior
        x = np.linspace(10.0, 30.0, 7)[:, None]
        bare = BayesElement(1, p.phi)
        assert np.allclose(element_grad(p, x), element_grad(bare, x), rtol=1e-5)
        assert np.allclose(element_hess(p, x), element_hess(bare, x), rtol=1e-4)

    def test_hess_from_grad_matches(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 2))
        p = gaussian_element(rng.standard_normal(2), a @ a.T + np.eye(2))
        x = rng.standard_normal((5, 2))
        with_grad = BayesElement(2, p.phi, grad=p.grad)
        assert np.allclose(element_hess(with_grad, x), p.hess(x), rtol=1e-6, atol=1e-8)


class TestNormalize:
    def test_gaussian_constant_on_grid(self):
        c, dens = normalize(gaussian_element([0.0], [[1.0]]), GRID8)
        assert c == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-9)
        xs = np.linspace(-8, 8, 2001)
        assert np.trapezoid(dens(xs[:, None]), xs) == pytest.approx(1.0, abs=1e-6)

    def test_gaussian_constant_under_gh(self, std_normal_1d):
        c, _ = normalize(gaussian_element([0.0], [[1.0]]), SPEC, measure=std_normal_1d)
        assert c == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-10)

    @pytest.mark.parametrize("var, normalizable", [(1.5, True), (2.0, False)])
    def test_extreme_gh_nodes_may_carry_a_thousandth(self, std_normal_1d, var, normalizable):
        # Under 10 Gauss-Hermite nodes of N(0, 1), the first and last node carry
        # 3.6e-4 of the integral of N(0, 1.5)'s density and 2.2e-3 of N(0, 2)'s.
        p = gaussian_element([0.0], [[var]])
        if normalizable:
            log_z = log_partition(p, gh_spec(10), std_normal_1d)
            assert log_z == pytest.approx(0.5 * np.log(2 * np.pi * var), abs=1e-6)
        else:
            with pytest.raises(NotNormalizable,
                               match="^extreme quadrature nodes dominate the integral$"):
                log_partition(p, gh_spec(10), std_normal_1d)

    def test_linear_exponent_not_normalizable(self, std_normal_1d):
        b1 = BayesElement(1, lambda x: x[:, 0])
        with pytest.raises(NotNormalizable):
            normalize(b1, GRID8)
        with pytest.raises(NotNormalizable):
            normalize(b1, SPEC, measure=std_normal_1d)

    def test_stereo_posterior_matches_trapezoid_oracle(self, stereo):
        grid = grid_spec(2001, [(0.05, 60.0)])
        c, dens = normalize(stereo.posterior, grid)
        xs = np.linspace(0.05, 60.0, 200001)
        oracle = np.trapezoid(np.exp(-stereo.posterior.phi(xs[:, None])), xs)
        assert c == pytest.approx(1.0 / oracle, rel=1e-6)
        probe = np.array([[18.0], [22.0], [26.0]])
        expected = np.exp(-stereo.posterior.phi(probe)) / oracle
        assert np.allclose(dens(probe), expected, rtol=1e-6)


    @pytest.mark.parametrize("mean, var, bounds", [
        (1000.99, 1e-6, [(1000.0, 1001.0)]),  # 10 sigma inside the upper face
        (1000.5, 1e-4, [(1000.0, 1001.0)]),
        (1000.0, 1e-6, None),                  # the default +/- 8 sigma grids, whose
        (20.0, 1e-9, None),                    # spacing is far below 1e-5 of the bound
    ])
    def test_narrow_density_far_from_the_origin_normalizes(self, mean, var, bounds):
        # Only a grid's first and last node on each axis are its faces, however
        # fine the spacing is next to the size of the bound.
        spec = grid_spec(4001 if bounds else 2001, bounds)
        log_z = log_partition(gaussian_element([mean], [[var]]), spec,
                              GaussianMeasure([mean], [[var]]))
        assert abs(log_z - 0.5 * np.log(2 * np.pi * var)) < 1e-7

    @pytest.mark.parametrize("mean, cov, bounds", [
        ([1000.999], [[1e-6]], [(1000.0, 1001.0)]),  # one sigma from the upper face
        ([0.0, 3.5], np.eye(2), [(-8.0, 8.0), (-4.0, 4.0)]),  # a face of the second axis
    ])
    def test_density_that_has_not_decayed_at_a_face_raises(self, mean, cov, bounds):
        with pytest.raises(NotNormalizable, match="decay"):
            log_partition(gaussian_element(mean, cov), grid_spec(41, bounds))

    def test_negative_infinite_phi_raises_without_a_warning(self):
        p = BayesElement(1, lambda x: np.where(np.abs(x[:, 0]) > 1, -np.inf, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotNormalizable, match="not finite"):
                log_partition(p, grid_spec(101, [(-3.0, 3.0)]))

    def test_moment_nodes_reject_an_element_that_does_not_decay(self):
        # a constant element keeps its full density out to the grid's edge
        with pytest.raises(NotNormalizable):
            moment_nodes(constant_element(), GRID8)
        _, w = moment_nodes(gaussian_element([0.0], [[1.0]]), GRID8)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


    def test_nan_phi_on_the_grid_is_an_evaluation_failure(self):
        p = BayesElement(1, lambda x: np.where(x[:, 0] > 1.0, np.nan, 0.5 * x[:, 0] ** 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationFailure,
                               match="^phi returned NaN on the normalization grid$"):
                log_partition(p, GRID8)


class TestInnerProduct:
    def test_zero_vector_orthogonal_to_everything(self, std_normal_1d):
        p = gaussian_element([0.4], [[1.7]])
        assert inner_product(p, constant_element(1), std_normal_1d, SPEC) == pytest.approx(0.0, abs=1e-12)

    def test_hermite_orthogonality(self, std_normal_1d):
        basis = HermiteBasis1D(2, std_normal_1d)
        h1, h2 = basis.elements[0], basis.elements[1]
        assert inner_product(h1, h2, std_normal_1d, SPEC) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_self_inner_product_value(self, std_normal_1d):
        p = gaussian_element([1.0], [[2.0]])
        assert inner_product(p, p, std_normal_1d, SPEC) == pytest.approx(0.375, rel=1e-10)

    def test_symmetry_and_bilinearity(self, std_normal_1d):
        rng = np.random.default_rng(11)
        p, q, r = random_gaussian_elements(rng, 3)
        ip = lambda a, b: inner_product(a, b, std_normal_1d, SPEC)
        assert ip(p, q) == pytest.approx(ip(q, p), abs=1e-8)
        assert ip(scale(2.5, p), q) == pytest.approx(2.5 * ip(p, q), abs=1e-8)
        assert ip(add(p, r), q) == pytest.approx(ip(p, q) + ip(r, q), abs=1e-8)

    def test_constant_shift_invariance(self, std_normal_1d):
        rng = np.random.default_rng(13)
        p, q = random_gaussian_elements(rng, 2)
        shifted = BayesElement(1, lambda x, f=p.phi: f(x) + 1e4)
        a = inner_product(p, q, std_normal_1d, SPEC)
        b = inner_product(shifted, q, std_normal_1d, SPEC)
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))

    def test_propagates_quadrature_failure(self, std_normal_1d):
        from bayespace.errors import EvaluationFailure
        bad = BayesElement(1, lambda x: np.where(x[:, 0] > 1.0, np.nan, x[:, 0]))
        good = gaussian_element([0.0], [[1.0]])
        with pytest.raises(EvaluationFailure):
            inner_product(bad, good, std_normal_1d, SPEC)

    def test_cauchy_schwarz(self, std_normal_1d):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p, q = random_gaussian_elements(rng, 2)
            pq = inner_product(p, q, std_normal_1d, SPEC)
            pp = inner_product(p, p, std_normal_1d, SPEC)
            qq = inner_product(q, q, std_normal_1d, SPEC)
            assert pq**2 <= pp * qq + 1e-10


class TestInformationAndDivergence:
    def test_zero_information(self, std_normal_1d):
        assert information(constant_element(1), std_normal_1d, SPEC) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_information_closed_form(self, std_normal_1d):
        for mu in (0.0, 1.0, -3.0):
            for s2 in (0.5, 1.0, 4.0):
                p = gaussian_element([mu], [[s2]])
                expected = (1 + 2 * mu**2) / (4 * s2**2)
                assert information(p, std_normal_1d, SPEC) == pytest.approx(expected, rel=1e-10)

    def test_divergence_zero_iff_equal(self, std_normal_1d):
        p = gaussian_element([0.3], [[1.2]])
        assert divergence(p, p, std_normal_1d, SPEC) == pytest.approx(0.0, abs=1e-12)
        q = gaussian_element([0.4], [[1.2]])
        assert divergence(p, q, std_normal_1d, SPEC) > 1e-4

    def test_divergence_symmetry(self, std_normal_1d):
        rng = np.random.default_rng(19)
        for _ in range(10):
            p, q = random_gaussian_elements(rng, 2)
            d1 = divergence(p, q, std_normal_1d, SPEC)
            d2 = divergence(q, p, std_normal_1d, SPEC)
            assert d1 == pytest.approx(d2, rel=1e-10)


class TestStochasticDerivative:
    def test_gaussian_mean_family(self):
        family = lambda t: gaussian_element([t], [[1.0]])
        d = stochastic_derivative(family, theta=0.8, step=1e-5)
        # d phi / d mu = -(x - mu); constants are quotiented out
        target = BayesElement(1, lambda x: -x[:, 0])
        assert equivalent(d, target, rtol=1e-6)

    def test_constant_family(self):
        p = gaussian_element([0.0], [[1.0]])
        d = stochastic_derivative(lambda t: p, theta=0.0)
        assert equivalent(d, constant_element(1))

    def test_linear_family(self):
        p = gaussian_element([0.5], [[1.5]])
        d = stochastic_derivative(lambda t: scale(t, p), theta=2.0)
        assert equivalent(d, p, rtol=1e-6)


# Elements with polynomial phi of degree <= 4 on R^dim: not normalizable in
# general, which the vector-space algebra does not need.
_coeffs = st.floats(-5.0, 5.0, allow_nan=False)
_scalars = st.floats(-5.0, 5.0, allow_nan=False)


@st.composite
def _poly_elements(draw, dim):
    c = np.array(draw(st.lists(_coeffs, min_size=4 * dim + 1, max_size=4 * dim + 1)))
    powers = np.arange(1, 5)

    def phi(x, c=c):
        x = np.asarray(x, dtype=float)
        terms = x[:, :, None] ** powers  # (m, dim, 4)
        return c[0] + terms.reshape(x.shape[0], -1) @ c[1:]

    return BayesElement(dim, phi)


class TestVectorSpaceProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([1, 2]), a=_scalars, b=_scalars)
    def test_axioms_hold_up_to_equivalence(self, data, dim, a, b):
        p, q, r = (data.draw(_poly_elements(dim)) for _ in range(3))
        zero = constant_element(dim)
        assert equivalent(add(p, q), add(q, p))
        assert equivalent(add(add(p, q), r), add(p, add(q, r)))
        assert equivalent(add(p, zero), p)
        assert equivalent(add(p, scale(-1.0, p)), zero)
        assert equivalent(subtract(p, p), zero)
        assert equivalent(scale(1.0, p), p)
        assert equivalent(scale(a, scale(b, p)), scale(a * b, p))
        assert equivalent(scale(a, add(p, q)), add(scale(a, p), scale(a, q)))
        assert equivalent(scale(a + b, p), add(scale(a, p), scale(b, p)))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([1, 2]),
           shift=st.floats(-1e3, 1e3, allow_nan=False),
           mean=st.floats(-2.0, 2.0), log_var=st.floats(-1.0, 1.0))
    def test_inner_product_ignores_an_added_constant(self, data, dim, shift, mean, log_var):
        p, q = data.draw(_poly_elements(dim)), data.draw(_poly_elements(dim))
        nu = GaussianMeasure(np.full(dim, mean), np.exp(log_var) * np.eye(dim))
        shifted = add(p, BayesElement(dim, lambda x: np.full(np.asarray(x).shape[0], shift)))
        before = inner_product(p, q, nu, SPEC)
        after = inner_product(shifted, q, nu, SPEC)
        assert abs(after - before) <= 1e-9 * (1.0 + abs(before))
