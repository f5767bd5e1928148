"""Factor-graph Gaussian variational inference: expectations, assembly,
marginal extraction, and the sparse/dense route equivalence."""

import functools
import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayespace.elements import BayesElement
from bayespace.errors import EvaluationFailure, NonSPD
from bayespace import gvi
from bayespace.experiments import ExperimentConfig, make_chain, run_gvi_demo
from bayespace.gaussian import expected_derivatives
from bayespace.graphio import dumps_graph, loads_graph
from bayespace.gvi import (Factor, FactorGraph, GaussianState, GviOptions, assemble,
                           factor_expectations, fill_pattern, gvi_sparse_solve,
                           marginals_for_factors, odom_factor, prior_factor, range_factor,
                           stereo_factor)
from bayespace.measures import GaussianMeasure, cholesky_or_raise
from bayespace import oracles
from bayespace.oracles import gvi_dense_solve, gvi_step_dense, joint_element
from bayespace.quadrature import gh_spec, grid_spec
from bayespace.variational import GaussianSubspace, IterateOptions, iterate, reporting_grid

SPEC = gh_spec(10)


def quartic_factor(i: int, center: float, c4: float, c2: float) -> Factor:
    """Convex single-variable factor c4 (x-a)^4 + c2 (x-a)^2."""

    def phi(x):
        d = x[:, 0] - center
        return c4 * d**4 + c2 * d**2

    def grad(x):
        d = x[:, 0] - center
        return (4 * c4 * d**3 + 2 * c2 * d)[:, None]

    def hess(x):
        d = x[:, 0] - center
        return (12 * c4 * d**2 + 2 * c2)[:, None, None]

    return Factor(indices=(i,), phi=phi, grad=grad, hess=hess, kind="custom")


def polynomial_test_graph(n_vars: int, rng) -> FactorGraph:
    """Random convex polynomial graph: quartic unaries plus quadratic pairs."""
    factors = []
    for i in range(n_vars):
        factors.append(quartic_factor(i, rng.normal(0, 0.5),
                                      rng.uniform(0.02, 0.1), rng.uniform(0.3, 1.0)))
    for i in range(n_vars - 1):
        factors.append(odom_factor(i, i + 1, rng.normal(0, 0.5), rng.uniform(0.5, 2.0)))
    if n_vars > 3:
        factors.append(odom_factor(0, n_vars - 1, rng.normal(0, 0.5), 1.5))
    return FactorGraph(n_vars, tuple(factors))


# Each builder's docstring formula as a residual e of s = x @ jac, with its
# first two derivatives: phi = e^2 / (2 var), so d1 = e e' / var and
# d2 = (e'^2 + e e'') / var.  Entries: builder, jac, and (s, **params) -> (e, e', e''),
# whose parameter names are the builder's.
KIND_RESIDUALS = {
    "prior": (prior_factor, [1.0], lambda s, mean, var: (s - mean, 1.0, 0.0)),
    "odom": (odom_factor, [-1.0, 1.0], lambda s, u, var: (s - u, 1.0, 0.0)),
    "range": (range_factor, [-1.0, 1.0], lambda s, z, var, offset: (
        z - np.hypot(s, offset), -s / np.hypot(s, offset), -offset**2 / np.hypot(s, offset)**3)),
    "stereo": (stereo_factor, [1.0], lambda s, z, f, b, var: (
        z - f * b / s, f * b / s**2, -2.0 * f * b / s**3)),
}


class TestFactorBasics:
    def test_indices_must_increase(self):
        with pytest.raises(ValueError):
            odom_factor(3, 3, 0.0, 1.0)

    def test_graph_requires_coverage(self):
        with pytest.raises(ValueError):
            FactorGraph(3, (prior_factor(0, 0.0, 1.0), odom_factor(0, 1, 1.0, 1.0)))

    @pytest.mark.parametrize("indices, params, got", [
        ((0, 1, 2), (1.0, 0.5, 2.0), "got 3 and 3"),  # one index too many
        ((0, 1), (1.0, 0.5), "got 2 and 2"),          # one parameter short
    ])
    def test_graph_rejects_a_built_in_kind_of_the_wrong_shape(self, indices, params, got):
        # filed as a custom factor, it would dump as text that loads_graph rejects
        factor = Factor(indices=indices, phi=lambda x: x[:, 0], kind="range", params=params)
        with pytest.raises(ValueError) as err:
            FactorGraph(3, (factor,))
        assert str(err.value) == f"'range' factor: expected 2 indices and 3 params, {got}"

    def test_graph_rejects_a_negative_variable_count(self):
        with pytest.raises(ValueError, match="^num_vars must be nonnegative, got -1$"):
            FactorGraph.from_blocks(-1, [])

    def test_state_rejects_mean_and_info_of_different_sizes(self):
        with pytest.raises(ValueError, match=r"^mean \(2,\) and info \(3, 3\) disagree$"):
            GaussianState(np.zeros(2), np.eye(3))

    def test_odometry_hessian_structure(self):
        f = odom_factor(0, 1, 0.7, 0.25)
        h = f.hess(np.zeros((1, 2)))[0]
        assert np.allclose(h, np.array([[1, -1], [-1, 1]]) / 0.25)

    def test_factor_derivatives_match_finite_differences(self, stereo):
        rng = np.random.default_rng(2)
        for f in (prior_factor(0, 1.0, 2.0),
                  odom_factor(0, 1, 0.5, 0.3),
                  range_factor(0, 1, 5.0, 0.25, 2.0),
                  stereo_factor(0, stereo.z, 400.0, 0.1, 0.09)):
            x = rng.uniform(1.0, 10.0, size=(6, f.arity))
            elem = BayesElement(f.arity, f.phi)
            from bayespace.elements import element_grad, element_hess
            assert np.allclose(f.grad(x), element_grad(elem, x), rtol=1e-5, atol=1e-6)
            assert np.allclose(f.hess(x), element_hess(elem, x), rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("kind", sorted(KIND_RESIDUALS))
    def test_kind_formulas_at_random_states(self, kind):
        builder, jac, residual = KIND_RESIDUALS[kind]
        jac = np.array(jac)
        names = list(inspect.signature(residual).parameters)[1:]
        rng = np.random.default_rng(11)
        for _ in range(20):
            params = dict(zip(names, rng.uniform(0.1, 4.0, len(names))))
            f = builder(*range(jac.size), **params)
            x = rng.uniform(0.5, 6.0, (7, jac.size))
            s = x @ jac
            e, de, d2e = residual(s, **params)
            var = params["var"]
            d1, d2 = e * de / var, (de**2 + e * d2e) / var
            assert np.allclose(f.phi(x), 0.5 * e**2 / var, rtol=1e-10, atol=1e-12)
            assert np.allclose(f.grad(x), d1[:, None] * jac, rtol=1e-10, atol=1e-12)
            assert np.allclose(f.hess(x), d2[:, None, None] * np.outer(jac, jac),
                               rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("num_vars, kind, indices, params", [
        (2, "prior", (0,), (float("nan"), 1.0)),
        (2, "prior", (0,), (0.0, 0.0)),
        (2, "odom", (0, 1), (1.0, -0.5)),
        (2, "range", (0, 1), (float("inf"), 0.25, 2.0)),
        (2, "range", (0, 1), (3.0, 0.25, float("nan"))),
        (2, "stereo", (0,), (2.0, 400.0, 0.1, -0.09)),
        (2, "odom", (1, 1), (1.0, 0.5)),         # indices not increasing
        (2, "range", (1, 0), (3.0, 0.25, 2.0)),
        (2, "prior", (2,), (0.0, 1.0)),          # index out of range
        (2, "odom", (-1, 1), (1.0, 0.5)),
        (4, "odom", (0, 1), (1.0, 0.5)),         # variables 2 and 3 uncovered
    ])
    def test_builders_reject_invalid_parameters(self, num_vars, kind, indices, params):
        # A graph of two valid priors and the factor under test: the
        # builders, the graph's blocks and the text format raise the same
        # ValueError; the text names the line of a factor's own error.
        builder = {"prior": prior_factor, "odom": odom_factor, "range": range_factor,
                   "stereo": stereo_factor}[kind]
        priors = (prior_factor(0, 0.0, 1.0), prior_factor(1, 0.0, 1.0))
        try:
            factor = builder(*indices, *params)
        except ValueError as err:
            expected, line = str(err), "line 4: "
        else:
            with pytest.raises(ValueError) as err:
                FactorGraph(num_vars, priors + (factor,))
            expected, line = str(err.value), ""
        with pytest.raises(ValueError) as blocked:
            FactorGraph.from_blocks(num_vars, [("prior", [[0], [1]], [[0.0, 1.0]] * 2),
                                               (kind, [indices], [params])])
        assert str(blocked.value) == expected
        fields = " ".join([*map(str, indices), *map(repr, params)])
        with pytest.raises(ValueError) as loaded:
            loads_graph(f"VAR {num_vars}\nFACTOR prior 0 0.0 1.0\nFACTOR prior 1 0.0 1.0\n"
                        f"FACTOR {kind} {fields}\n")
        assert str(loaded.value) == line + expected

    @pytest.mark.parametrize("kind, indices, params", [
        ("pose", [[0], [1]], [[0.0, 1.0]] * 2),         # unknown kind
        ("prior", [[0], [1]], [[0.0]] * 2),             # a parameter column missing
        ("prior", [0, 1], [[0.0, 1.0]] * 2),            # 1-D indices
        ("prior", [[0], [2**70]], [[0.0, 1.0]] * 2),    # an index past 64 bits
        ("prior", [[0], [1]], [[0.0, 1.0]]),            # fewer parameter rows than factors
        ("prior", [[0.7], [1.2]], [[0.0, 1.0]] * 2),    # float indices
        ("odom", [[0], [1]], [[1.0, 1.0]] * 2),         # one index for a two-variable kind
    ])
    def test_from_blocks_rejects_malformed_arrays(self, kind, indices, params):
        with pytest.raises(ValueError) as err:
            FactorGraph.from_blocks(2, [(kind, indices, params)])
        message = str(err.value)
        assert repr(kind) in message
        assert str(np.shape(indices)) in message and str(np.shape(params)) in message


class TestFactorExpectations:
    def test_unary_quadratic_exact(self):
        f = prior_factor(0, 2.0, 4.0)
        g, h = factor_expectations(f, (np.array([3.0]), np.array([[0.5]])), SPEC)
        assert g[0] == pytest.approx((3.0 - 2.0) / 4.0, rel=1e-12)
        assert h[0, 0] == pytest.approx(0.25, rel=1e-12)

    def test_binary_odometry_constant_hessian(self):
        f = odom_factor(0, 1, 1.0, 0.5)
        marg = (np.array([0.0, 1.2]), np.array([[0.3, 0.1], [0.1, 0.4]]))
        g, h = factor_expectations(f, marg, SPEC)
        assert np.allclose(h, np.array([[1, -1], [-1, 1]]) / 0.5, rtol=1e-12)
        assert g[1] == pytest.approx((1.2 - 0.0 - 1.0) / 0.5, rel=1e-10)

    def test_stereo_factor_matches_joint_route(self, stereo):
        f = stereo_factor(0, stereo.z, 400.0, 0.1, 0.09)
        nu = GaussianMeasure([21.0], [[3.0]])
        g_f, h_f = factor_expectations(f, (nu.mean, nu.covariance), gh_spec(20))
        g_e, h_e = expected_derivatives(f.as_element(), nu, gh_spec(20))
        assert np.allclose(g_f, g_e, rtol=1e-12)
        assert np.allclose(h_f, h_e, rtol=1e-12)


    def test_support_above_the_cap_is_rejected(self):
        f = Factor(indices=(0, 1, 2, 3, 4), phi=lambda x: x.sum(axis=1))
        with pytest.raises(ValueError, match="^factor support 5 exceeds the quadrature cap 4$"):
            factor_expectations(f, (np.zeros(5), np.eye(5)), SPEC)

    def test_grid_rule_is_rejected_on_both_routes(self):
        """GVI's expectations are Gauss-Hermite; a grid spec raises, not runs as one."""
        spec = grid_spec(10, [(-100.0, 100.0)])
        graph = FactorGraph(2, (prior_factor(0, 0.0, 1.0), range_factor(0, 1, 5.0, 0.25, 2.0)))
        match = "^GVI expectations need a Gauss-Hermite rule, got kind 'grid'$"
        with pytest.raises(ValueError, match=match):
            factor_expectations(graph.factors[0], (np.zeros(1), np.eye(1)), spec)
        with pytest.raises(ValueError, match=match):
            gvi_sparse_solve(graph, GaussianState(np.array([0.0, 3.0]), np.eye(2)),
                             GviOptions(quad=spec))


class TestAssemble:
    def test_single_full_support_factor(self):
        f = Factor(indices=(0, 1), phi=lambda x: np.zeros(x.shape[0]))
        graph = FactorGraph(2, (f,))
        gk = np.array([1.0, 2.0])
        hk = np.array([[3.0, 0.5], [0.5, 4.0]])
        g, h = assemble(graph, [(gk, hk)])
        assert np.array_equal(g, gk) and np.array_equal(h, hk)

    def test_chain_pattern_is_tridiagonal(self):
        factors = [prior_factor(0, 0.0, 1.0)]
        factors += [odom_factor(i, i + 1, 1.0, 0.1) for i in range(4)]
        pattern = fill_pattern(FactorGraph(5, tuple(factors)))
        expected = np.abs(np.subtract.outer(range(5), range(5))) <= 1
        assert np.array_equal(pattern, expected)

    def test_dense_oracle_on_random_graph(self):
        rng = np.random.default_rng(3)
        graph = polynomial_test_graph(6, rng)
        expectations = []
        for f in graph.factors:
            k = f.arity
            mean = rng.standard_normal(k)
            a = rng.standard_normal((k, k))
            expectations.append(factor_expectations(f, (mean, a @ a.T + np.eye(k)), SPEC))
        g, h = assemble(graph, expectations)
        # dense scatter with explicit projection matrices
        g_dense = np.zeros(6)
        h_dense = np.zeros((6, 6))
        for f, (gk, hk) in zip(graph.factors, expectations):
            p = np.zeros((f.arity, 6))
            for row, idx in enumerate(f.indices):
                p[row, idx] = 1.0
            g_dense += p.T @ gk
            h_dense += p.T @ hk @ p
        assert np.abs(g - g_dense).max() < 1e-12
        assert np.abs(h - h_dense).max() < 1e-12

    @pytest.mark.parametrize("edit, message", [
        (lambda ex: ex[:1], "1 expectations for 2 factors"),
        (lambda ex: ex * 3, "6 expectations for 2 factors"),
        (lambda ex: [ex[0], (ex[1][0][:1], ex[1][1])], r"factor odom\(0, 1\): expected"),
        (lambda ex: [ex[0], (ex[1][0], ex[1][1][:1])], r"factor odom\(0, 1\): expected"),
    ], ids=["too-few", "too-many", "short-gradient", "short-hessian"])
    def test_rejects_expectations_that_do_not_fit_the_factors(self, edit, message):
        graph = FactorGraph(2, (prior_factor(0, 0.0, 1.0), odom_factor(0, 1, 1.0, 0.5)))
        ex = [factor_expectations(f, (np.zeros(f.arity), np.eye(f.arity)), SPEC)
              for f in graph.factors]
        with pytest.raises(ValueError, match=message):
            assemble(graph, edit(ex))


class TestMarginals:
    def test_diagonal_information(self):
        factors = tuple(prior_factor(i, 0.0, 1.0) for i in range(4))
        graph = FactorGraph(4, factors)
        info = np.diag([2.0, 4.0, 8.0, 16.0])
        state = GaussianState(np.zeros(4), info)
        for i, (mean_k, cov_k) in enumerate(marginals_for_factors(state, graph)):
            assert cov_k[0, 0] == pytest.approx(1.0 / info[i, i], rel=1e-12)

    def test_three_variable_chain_blocks(self):
        factors = (prior_factor(0, 0.0, 1.0), odom_factor(0, 1, 0, 1), odom_factor(1, 2, 0, 1))
        graph = FactorGraph(3, factors)
        info = np.array([[2.0, -0.5, 0.0], [-0.5, 3.0, -0.8], [0.0, -0.8, 1.5]])
        state = GaussianState(np.arange(3.0), info)
        sigma = np.linalg.inv(info)
        for f, (mean_k, cov_k) in zip(graph.factors, marginals_for_factors(state, graph)):
            idx = list(f.indices)
            assert np.allclose(mean_k, state.mean[idx])
            assert np.allclose(cov_k, sigma[np.ix_(idx, idx)], rtol=1e-12, atol=1e-14)

    def test_fifty_variable_chain_sweep_equals_dense(self):
        rng = np.random.default_rng(4)
        n = 50
        factors = [prior_factor(0, 0.0, 1.0)]
        factors += [odom_factor(i, i + 1, 0.0, 1.0) for i in range(n - 1)]
        graph = FactorGraph(n, tuple(factors))
        diag = rng.uniform(2.0, 5.0, n)
        off = rng.uniform(-0.8, 0.8, n - 1)
        info = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        state = GaussianState(rng.standard_normal(n), info)
        sigma = np.linalg.inv(info)
        for f, (mean_k, cov_k) in zip(graph.factors, marginals_for_factors(state, graph)):
            idx = list(f.indices)
            assert np.abs(mean_k - state.mean[idx]).max() == 0.0
            assert np.abs(cov_k - sigma[np.ix_(idx, idx)]).max() < 1e-10

    def test_non_spd_raises_with_minor(self):
        factors = (prior_factor(0, 0.0, 1.0), odom_factor(0, 1, 0, 1))
        graph = FactorGraph(2, factors)
        with pytest.raises(NonSPD) as err:
            GaussianState(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert err.value.minor == 2


def spd_factor(n: int, rng, spread: float = 0.0) -> np.ndarray:
    """Factor of a random SPD matrix; row and column scales up to e**spread
    make the general solve pivot, and round above the diagonal."""
    a = rng.standard_normal((n, n))
    d = np.exp(rng.uniform(0.0, spread, n))
    return np.linalg.cholesky(d[:, None] * (a @ a.T + n * np.eye(n)) * d)


def chain_factor(n: int, rng) -> np.ndarray:
    """Factor of an information in a chain's fill: a tridiagonal block of poses
    and a dense border of landmarks give a bidiagonal block and a dense border."""
    poses = n - n // 5
    info = np.diag(rng.uniform(-1.0, 1.0, n - 1), -1)
    info[poses:] = np.tril(rng.uniform(-1.0, 1.0, (n - poses, n)), poses - 1)
    info += info.T
    info[np.diag_indices(n)] = np.abs(info).sum(axis=1) + 1.0
    return np.linalg.cholesky(info)


class TestInverseLower:
    SIZES = [1, 2, 31, 32, 33, 64, 100, 120]

    @pytest.mark.parametrize("make", [spd_factor, functools.partial(spd_factor, spread=4.0),
                                      chain_factor], ids=["spd", "scaled-spd", "chain"])
    def test_matches_the_dense_inverse(self, make):
        rng = np.random.default_rng(21)
        for n in self.SIZES:
            low = make(n, rng)
            inv = gvi._inverse_lower(low)
            expected = np.linalg.inv(low)
            assert np.abs(inv - expected).max() <= 1e-12 * np.abs(expected).max(), n
            assert not np.triu(inv, 1).any(), n
            if n <= gvi._INV_BLOCK:
                # one block: the general solve itself, less its rounding above the diagonal
                assert np.array_equal(inv, np.tril(np.linalg.solve(low, np.eye(n)))), n

    def test_drops_the_general_solves_rounding_above_the_diagonal(self):
        low = spd_factor(31, np.random.default_rng(0), spread=4.0)
        solved = np.linalg.solve(low, np.eye(31))
        assert np.triu(solved, 1).any()  # the general solve pivots on this factor
        assert np.array_equal(gvi._inverse_lower(low), np.tril(solved))

    def test_one_block_is_the_general_solve_on_a_chain(self):
        # the chain-mc shape: no rounding above the diagonal to drop, so the
        # covariance is the one the general solve gives, bit for bit
        graph, truth, init = make_chain(ExperimentConfig(seed=11))
        trace = gvi_sparse_solve(graph, init, GviOptions(record_loss=False))
        for ig in trace.gaussians:
            low = np.linalg.cholesky(ig.info)
            assert np.array_equal(gvi._inverse_lower(low),
                                  np.linalg.solve(low, np.eye(graph.num_vars)))

    def test_state_factor_and_covariance_are_read_only(self):
        graph, truth, init = make_chain(ExperimentConfig(seed=11))
        assert np.array_equal(init.low, np.linalg.cholesky(init.info))
        assert init.covariance() is init.covariance()
        for array in (init.low, init.covariance()):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0


class TestDenseStep:
    def test_quadratic_single_step_exact(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3))
        info_true = a @ a.T + np.eye(3)
        mean_true = rng.standard_normal(3)
        p = BayesElement(
            3,
            phi=lambda x: 0.5 * np.einsum("...i,ij,...j->...", x - mean_true, info_true,
                                          x - mean_true),
            grad=lambda x: (x - mean_true) @ info_true,
            hess=lambda x: np.broadcast_to(info_true, (x.shape[0], 3, 3)).copy())
        state = GaussianState(np.zeros(3), np.eye(3))
        new = gvi_step_dense(p, state, gh_spec(4))
        assert np.abs(new.mean - mean_true).max() < 1e-12
        assert np.abs(new.info - info_true).max() < 1e-12

    def test_stereo_matches_subspace_iteration(self, stereo):
        opts = IterateOptions(tol=0.0, max_iters=6, quad=gh_spec(20),
                              kl_grid=reporting_grid(stereo.prior_measure))
        trace = iterate(stereo.posterior, GaussianSubspace(), stereo.prior_measure, opts)
        state = GaussianState(stereo.prior_measure.mean, np.array([[1.0 / 9.0]]))
        for ig in trace.gaussians:
            state = gvi_step_dense(stereo.posterior, state, gh_spec(20))
            assert np.abs(state.mean - ig.mean_like).max() < 1e-10
            assert np.abs(state.info - ig.info).max() < 1e-10

    def test_two_dimensional_toy_matches_fd_oracle(self):
        def residual(x):
            return np.stack([x[:, 0] + 0.2 * np.sin(x[:, 1]), 0.8 * x[:, 1] - 0.5], axis=-1)

        p = BayesElement(2, phi=lambda x: 0.5 * np.sum(residual(x) ** 2, axis=-1))
        nu = GaussianMeasure([0.3, -0.2], [[0.5, 0.1], [0.1, 0.4]])
        g, h = expected_derivatives(p, nu, gh_spec(10))
        # finite-difference oracle on a dense lattice of the same measure
        from bayespace.quadrature import measure_nodes
        points, w = measure_nodes(nu, gh_spec(10))
        eps = 1e-6
        g_fd = np.zeros(2)
        for j in range(2):
            up, dn = points.copy(), points.copy()
            up[:, j] += eps
            dn[:, j] -= eps
            g_fd[j] = w @ (p.phi(up) - p.phi(dn)) / (2 * eps)
        assert np.allclose(g, g_fd, rtol=1e-4, atol=1e-6)
        assert np.abs(h - h.T).max() < 1e-8


class TestSolverEquivalence:
    def test_sparse_equals_dense_six_variables(self):
        rng = np.random.default_rng(6)
        graph = polynomial_test_graph(6, rng)
        init = GaussianState(rng.standard_normal(6) * 0.3,
                             np.diag(np.full(6, 0.5)))
        opts = GviOptions(tol=0.0, max_iters=8, quad=gh_spec(6), record_loss=False)
        sparse = gvi_sparse_solve(graph, init, opts)
        dense = gvi_dense_solve(graph, init, opts)
        for a, b in zip(sparse.coordinates, dense.coordinates):
            assert np.abs(a - b).max() < 1e-10
        for a, b in zip(sparse.gaussians, dense.gaussians):
            assert np.abs(a.info - b.info).max() < 1e-10

    def test_sparse_equals_joint_dense_step(self):
        # polynomial factors keep both quadrature routes exact, isolating the
        # factorization/assembly path from quadrature error
        rng = np.random.default_rng(7)
        graph = polynomial_test_graph(6, rng)
        joint = joint_element(graph)
        init_mean = rng.standard_normal(6) * 0.3
        init = GaussianState(init_mean, np.diag(np.full(6, 0.5)))
        opts = GviOptions(tol=0.0, max_iters=5, quad=gh_spec(6), record_loss=False)
        sparse = gvi_sparse_solve(graph, init, opts)
        state = GaussianState(init_mean, np.diag(np.full(6, 0.5)))
        for step in range(5):
            state = gvi_step_dense(joint, state, gh_spec(6))
            assert np.abs(state.mean - sparse.coordinates[step]).max() < 1e-10
            assert np.abs(state.info - sparse.gaussians[step].info).max() < 1e-10

    def test_stereo_as_one_variable_graph(self, stereo):
        cfg = stereo.config
        graph = FactorGraph(1, (prior_factor(0, cfg.mu_p, cfg.s2_p),
                                stereo_factor(0, stereo.z, cfg.f, cfg.b, cfg.s2_r)))
        init = GaussianState(np.array([cfg.mu_p]), np.array([[1.0 / cfg.s2_p]]))
        opts = GviOptions(tol=0.0, max_iters=6, quad=gh_spec(20), record_loss=False)
        trace = gvi_sparse_solve(graph, init, opts)
        state = GaussianState(np.array([cfg.mu_p]), np.array([[1.0 / cfg.s2_p]]))
        for step in range(6):
            state = gvi_step_dense(stereo.posterior, state, gh_spec(20))
            assert np.abs(state.mean - trace.coordinates[step]).max() < 1e-10
            assert np.abs(state.info - trace.gaussians[step].info).max() < 1e-10


class TestSumOfProjections:
    def test_joint_projection_equals_factor_accumulation(self):
        # the projection of the sum is the sum of the (marginal) projections
        rng = np.random.default_rng(8)
        for trial in range(20):
            n = int(rng.integers(2, 9))
            graph = polynomial_test_graph(n, rng)
            a = rng.standard_normal((n, n)) * 0.2
            cov = a @ a.T + np.eye(n) * rng.uniform(0.3, 1.0)
            nu = GaussianMeasure(rng.standard_normal(n) * 0.5, cov)
            g_joint, h_joint = expected_derivatives(joint_element(graph), nu, gh_spec(5))
            expectations = []
            for f in graph.factors:
                idx = list(f.indices)
                marg = (nu.mean[idx], nu.covariance[np.ix_(idx, idx)])
                expectations.append(factor_expectations(f, marg, gh_spec(5)))
            g_acc, h_acc = assemble(graph, expectations)
            scale = max(1.0, np.abs(h_joint).max())
            assert np.abs(g_joint - g_acc).max() < 1e-10 * scale
            assert np.abs(h_joint - h_acc).max() < 1e-10 * scale


class TestChainSolves:
    def test_linear_chain_single_step_matches_exact_smoother(self):
        cfg = ExperimentConfig(seed=7, linear=True, n_poses=12, n_landmarks=3)
        graph, truth, init = make_chain(cfg)
        opts = GviOptions(tol=1e-10, max_iters=5, quad=gh_spec(10), record_loss=False)
        trace = gvi_sparse_solve(graph, init, opts)
        # normal-equations oracle: every factor is 0.5 (a^T x - b)^2 / w
        n = graph.num_vars
        a_rows, b_vals, w_vals = [], [], []
        for f in graph.factors:
            row = np.zeros(n)
            if f.kind == "prior":
                row[f.indices[0]] = 1.0
                b_vals.append(f.params[0])
                w_vals.append(f.params[1])
            else:
                row[f.indices[0]] = -1.0
                row[f.indices[1]] = 1.0
                b_vals.append(f.params[0])
                w_vals.append(f.params[1])
            a_rows.append(row)
        a = np.array(a_rows)
        w_inv = np.diag(1.0 / np.array(w_vals))
        info = a.T @ w_inv @ a
        mean = np.linalg.solve(info, a.T @ w_inv @ np.array(b_vals))
        assert np.abs(trace.coordinates[0] - mean).max() < 1e-10
        assert np.abs(trace.gaussians[0].info - info).max() < 1e-10
        assert trace.converged and trace.iterations <= 2

    def test_nonlinear_chain_sparse_equals_dense(self):
        cfg = ExperimentConfig(seed=3)
        graph, truth, init = make_chain(cfg)
        opts = GviOptions(quad=gh_spec(10), record_loss=False)
        sparse = gvi_sparse_solve(graph, init, opts)
        dense = gvi_dense_solve(graph, init, opts)
        assert sparse.iterations == dense.iterations
        for a, b in zip(sparse.coordinates, dense.coordinates):
            assert np.abs(a - b).max() < 1e-10

    def test_trace_covariance_mean_and_loss_come_from_the_information(self):
        # the chain-mc shape: 20 poses, 5 landmarks, nonlinear range factors
        graph, truth, init = make_chain(ExperimentConfig(seed=11))
        spec = gh_spec(10)
        trace = gvi_sparse_solve(graph, init, GviOptions(quad=spec))
        assert trace.iterations > 2
        n = graph.num_vars
        prev = GaussianMeasure(init.mean, np.linalg.inv(init.info))
        prev_info = init.info
        for k in range(trace.iterations):
            measure = trace.measures[k]
            sigma = np.linalg.inv(trace.gaussians[k].info)
            assert np.abs(measure.covariance - sigma).max() <= 1e-12 * np.abs(sigma).max()
            # the loop's route: the inverse of the information's Cholesky factor
            low = np.linalg.cholesky(trace.gaussians[k].info)
            assert np.array_equal(trace.covariances[k], gvi._covariance(low))
            assert np.array_equal(measure.mean, trace.coordinates[k])
            # loss = E[phi] under the previous estimate minus its entropy
            _, _, expected_phi = graph._expectations(prev.mean, prev.covariance, spec,
                                                     with_value=True)
            entropy = 0.5 * n * (1.0 + np.log(2.0 * np.pi)) - 0.5 * np.linalg.slogdet(prev_info)[1]
            assert trace.kl[k] == pytest.approx(expected_phi - entropy, rel=1e-12)
            prev, prev_info = measure, trace.gaussians[k].info

    @pytest.mark.parametrize("solve", [gvi_sparse_solve, gvi_dense_solve])
    def test_solvers_build_no_measure(self, monkeypatch, solve):
        # the chain-mc shape: 20 poses, 5 landmarks, nonlinear range factors
        graph, truth, init = make_chain(ExperimentConfig(seed=11))
        built = []
        post_init = GaussianMeasure.__post_init__
        monkeypatch.setattr(GaussianMeasure, "__post_init__",
                            lambda self: built.append(1) or post_init(self))
        trace = solve(graph, init, GviOptions())
        assert built == []
        assert trace.iterations > 2

    def test_one_information_factorization_per_trial_and_iteration(self, monkeypatch,
                                                                   tmp_path):
        calls, inverses = [], []

        def counting(matrix, what="matrix"):
            calls.append(what)
            return cholesky_or_raise(matrix, what)

        inverse_lower = gvi._inverse_lower
        monkeypatch.setattr(gvi, "cholesky_or_raise", counting)
        monkeypatch.setattr(gvi, "_inverse_lower", lambda low: inverses.append(1) or
                            inverse_lower(low))
        # one trial: make_chain's initial state, then the VI and the MAP solve from it
        summary = run_gvi_demo(ExperimentConfig(seed=11, out_dir=str(tmp_path)))
        # the initial information once, when the state is built, then each
        # iteration's new information; each factor is inverted once
        count = 1 + summary["esgvi_iterations"] + summary["map_iterations"]
        assert calls == ["information matrix"] * count
        assert len(inverses) == count

    def test_pattern_never_grows(self):
        cfg = ExperimentConfig(seed=5)
        graph, truth, init = make_chain(cfg)
        pattern = fill_pattern(graph)
        trace = gvi_sparse_solve(graph, init, GviOptions(record_loss=False))
        for ig in trace.gaussians:
            assert np.abs(ig.info[~pattern]).max() == 0.0

    def test_monte_carlo_consistency_linear_chain(self):
        inside = 0
        total = 0
        for trial in range(500):
            cfg = ExperimentConfig(seed=1234, linear=True)
            graph, truth, init = make_chain(cfg, trial)
            trace = gvi_sparse_solve(graph, init,
                                     GviOptions(max_iters=5, record_loss=False))
            est = trace.coordinates[-1]
            sig = np.sqrt(np.diag(trace.measures[-1].covariance))
            inside += int(np.sum(np.abs(est - truth) <= 3.0 * sig))
            total += truth.size
        assert 0.985 <= inside / total <= 0.999

    @pytest.mark.parametrize("solve", [gvi_sparse_solve, gvi_dense_solve])
    def test_start_outside_the_graph_fill_is_rejected(self, solve):
        # the chain 0-1-2 fills (0, 1) and (1, 2), not (0, 2)
        graph = FactorGraph(3, (prior_factor(0, 0.0, 1.0), odom_factor(0, 1, 1.0, 1.0),
                                odom_factor(1, 2, 1.0, 1.0)))
        outside, inside = np.eye(3), np.eye(3)
        outside[0, 2] = outside[2, 0] = inside[0, 1] = inside[1, 0] = 0.1
        with pytest.raises(ValueError, match="outside the graph fill"):
            solve(graph, GaussianState(np.zeros(3), outside))
        trace = solve(graph, GaussianState(np.zeros(3), inside), GviOptions(max_iters=1))
        assert trace.iterations == 1

    def test_non_spd_mid_run_aborts_with_partial_trace(self):
        concave = Factor(
            indices=(0,),
            phi=lambda x: -0.5 * x[:, 0] ** 2,
            grad=lambda x: -x,
            hess=lambda x: np.full((x.shape[0], 1, 1), -1.0))
        graph = FactorGraph(1, (concave,))
        init = GaussianState(np.zeros(1), np.eye(1))
        with pytest.raises(NonSPD) as err:
            gvi_sparse_solve(graph, init, GviOptions(record_loss=False))
        trace = err.value.trace
        assert trace.aborted is not None
        assert trace.iterations == 0

    @pytest.mark.parametrize("solve", [gvi_sparse_solve, gvi_dense_solve])
    def test_evaluation_failure_mid_run_carries_the_trace(self, solve):
        # With f b = 0 the stereo factor adds nothing away from its pole, so
        # the one-node rule's first step lands exactly on the prior mean 0
        # and the second iteration evaluates the factor at x = 0.
        graph = FactorGraph(1, (prior_factor(0, 0.0, 1.0),
                                stereo_factor(0, 1.0, 0.0, 0.1, 0.09)))
        init = GaussianState(np.array([5.0]), np.eye(1))
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(EvaluationFailure, match=r"stereo\(0,\)") as err:
                solve(graph, init, GviOptions(quad=gh_spec(1)))
        trace = err.value.trace
        assert trace.iterations == 1 and trace.coordinates == [np.zeros(1)]
        assert trace.aborted == str(err.value)
        assert len(trace.kl) == len(trace.measures) == 1


@pytest.mark.parametrize("linear", [False, True])
def test_chain_path_builds_no_factor_objects(monkeypatch, linear):
    built = []
    real = Factor.__post_init__
    monkeypatch.setattr(Factor, "__post_init__", lambda self: built.append(self) or real(self))
    cfg = ExperimentConfig(seed=7, n_poses=6, n_landmarks=3, linear=linear)
    graph, _, init = make_chain(cfg)
    gvi_sparse_solve(graph, init, GviOptions(max_iters=3))
    dumps_graph(graph)
    assert built == []

    # The same factors as the public builders give from the chain's draws.
    rng = np.random.default_rng((cfg.seed, 0))
    np_, nl, h = cfg.n_poses, cfg.n_landmarks, cfg.range_offset
    poses = rng.normal(0.0, cfg.prior_sigma) + np.arange(np_, dtype=float)
    odometry = 1.0 + rng.normal(0.0, cfg.odom_sigma, np_ - 1)
    d = np_ + 2.0 + 2.0 * np.arange(nl)[None, :] - poses[:, None]
    ranges = (d if linear else np.sqrt(d * d + h * h)) + rng.normal(0.0, cfg.range_sigma,
                                                                    (np_, nl))
    sr2 = cfg.range_sigma**2
    expected = [prior_factor(0, 0.0, cfg.prior_sigma**2)]
    expected += [odom_factor(t, t + 1, u, cfg.odom_sigma**2)
                 for t, u in enumerate(odometry.tolist())]
    expected += [odom_factor(t, np_ + j, z, sr2) if linear else range_factor(t, np_ + j, z, sr2, h)
                 for t, row in enumerate(ranges.tolist()) for j, z in enumerate(row)]
    factors = graph.factors
    assert len(built) == len(expected) + len(factors) and graph.factors is factors
    assert ([(f.kind, f.indices, f.params) for f in factors]
            == [(f.kind, f.indices, f.params) for f in expected])
    x = np.random.default_rng(1).uniform(1.0, 10.0, (5, 2))
    for f, g in zip(factors, expected):
        assert np.array_equal(f.phi(x[:, :f.arity]), g.phi(x[:, :g.arity]))


@pytest.mark.parametrize("linear", [False, True])
def test_constructors_give_the_same_graph(linear):
    # make_chain's array-built graph, its factors through FactorGraph and
    # its text read back: the same fill, batched outputs and text.
    graph, _, _ = make_chain(ExperimentConfig(seed=3, linear=linear))
    n, text = graph.num_vars, dumps_graph(graph)
    rng = np.random.default_rng(4)
    mean = rng.uniform(0.0, 30.0, n)
    a = rng.standard_normal((n, n)) * 0.1
    sigma = a @ a.T + np.diag(rng.uniform(0.05, 0.3, n))
    expected = graph._expectations(mean, sigma, SPEC, with_value=True)
    for other in (FactorGraph(n, graph.factors), loads_graph(text)):
        assert np.array_equal(fill_pattern(other), fill_pattern(graph))
        g, h, loss = other._expectations(mean, sigma, SPEC, with_value=True)
        assert (g.tobytes(), h.tobytes()) == (expected[0].tobytes(), expected[1].tobytes())
        assert loss == expected[2]
        assert dumps_graph(other) == text


def mixed_kind_graph(rng, n_vars: int = 12, n_range: int = 400) -> FactorGraph:
    """Every built-in kind plus a custom one, interleaved, with more range
    factors than one batch chunk holds at 10 nodes per dimension."""
    factors = [prior_factor(0, 20.0, 4.0)]
    for i in range(n_vars - 1):
        factors.append(odom_factor(i, i + 1, rng.normal(0.0, 1.0), rng.uniform(0.1, 1.0)))
        factors.append(stereo_factor(i + 1, rng.uniform(1.5, 2.5), 400.0, 0.1,
                                     rng.uniform(0.05, 0.2)))
        factors.append(quartic_factor(i, rng.normal(20.0, 1.0), 0.01, 0.5))
    for _ in range(n_range):
        i, j = sorted(rng.choice(n_vars, size=2, replace=False))
        factors.append(range_factor(i, j, rng.uniform(1.0, 6.0), rng.uniform(0.1, 1.0),
                                    rng.uniform(0.5, 3.0)))
    return FactorGraph(n_vars, tuple(factors))


class TestBatchedExpectations:
    """The per-kind batches against the per-factor oracle."""

    def test_matches_per_factor_oracle(self):
        rng = np.random.default_rng(21)
        graph = mixed_kind_graph(rng)
        n = graph.num_vars
        spec = gh_spec(10)
        ranges = [f for f in graph.factors if f.kind == "range"]
        assert len(ranges) * spec.nodes_per_dim ** 2 > gvi._CHUNK_NODES
        for _ in range(3):
            mean = rng.uniform(15.0, 25.0, n)
            a = rng.standard_normal((n, n)) * 0.15
            sigma = a @ a.T + np.diag(rng.uniform(0.05, 0.3, n))
            g, h, loss = graph._expectations(mean, sigma, spec, with_value=True)
            expectations, loss_ref = [], 0.0
            for f in graph.factors:
                idx = list(f.indices)
                gk, hk, vk = factor_expectations(f, (mean[idx], sigma[np.ix_(idx, idx)]),
                                                 spec, with_value=True)
                expectations.append((gk, hk))
                loss_ref += vk
            g_ref, h_ref = assemble(graph, expectations)
            assert np.abs(g - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
            assert np.abs(h - h_ref).max() <= 1e-12 * np.abs(h_ref).max()
            assert loss == pytest.approx(loss_ref, rel=1e-12)

    def test_fill_pattern_built_once_and_read_only(self):
        graph = mixed_kind_graph(np.random.default_rng(22), n_vars=5, n_range=6)
        pattern = fill_pattern(graph)
        assert fill_pattern(graph) is pattern
        assert not pattern.flags.writeable
        expected = np.eye(5, dtype=bool)
        for f in graph.factors:
            expected[np.ix_(f.indices, f.indices)] = True
        assert np.array_equal(pattern, expected)

    def test_stereo_node_at_zero_names_the_factor(self):
        # an odd Gauss-Hermite rule puts a node on the mean; the pole at x = 0
        graph = FactorGraph(2, (prior_factor(0, 20.0, 1.0), prior_factor(1, 0.0, 1.0),
                                stereo_factor(0, 2.0, 400.0, 0.1, 0.09),
                                stereo_factor(1, 2.0, 400.0, 0.1, 0.09)))
        init = GaussianState(np.array([20.0, 0.0]), np.eye(2))
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(EvaluationFailure, match=r"stereo\(1,\)"):
                gvi_sparse_solve(graph, init, GviOptions(quad=gh_spec(5), record_loss=False))

    @pytest.mark.parametrize("sigma, minor", [
        (np.array([[1.0, 2.0], [2.0, 1.0]]), 2),
        (np.array([[-1.0, 0.0], [0.0, 1.0]]), 1),
    ])
    def test_non_spd_block_raises(self, sigma, minor):
        graph = FactorGraph(2, (prior_factor(0, 0.0, 1.0), odom_factor(0, 1, 1.0, 0.5)))
        with pytest.raises(NonSPD) as err:
            graph._expectations(np.zeros(2), sigma, SPEC, with_value=False)
        assert err.value.minor == minor

    def test_non_spd_block_of_three_variable_factor(self):
        f = Factor(indices=(0, 1, 2), phi=lambda x: np.sum(x**2, axis=1))
        cov = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]])
        with pytest.raises(NonSPD) as err:
            factor_expectations(f, (np.zeros(3), cov), gh_spec(3))
        assert err.value.minor == 3


@st.composite
def mixed_kind_problems(draw):
    """A shuffled graph of every built-in kind plus one custom factor, a
    node count, and a mean and covariance far from the stereo pole."""
    n = draw(st.integers(2, 6))
    var = st.floats(0.05, 1.0)
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True).map(sorted)
    factors = [prior_factor(draw(st.integers(0, n - 1)), draw(st.floats(15.0, 25.0)),
                            draw(var))]
    factors += [odom_factor(i, i + 1, draw(st.floats(-2.0, 2.0)), draw(var))
                for i in range(n - 1)]
    factors += [range_factor(*draw(pair), draw(st.floats(1.0, 6.0)), draw(var),
                             draw(st.floats(0.5, 3.0)))
                for _ in range(draw(st.integers(0, 8)))]
    factors += [stereo_factor(draw(st.integers(0, n - 1)), draw(st.floats(1.5, 2.5)),
                              400.0, 0.1, draw(var))
                for _ in range(draw(st.integers(0, 4)))]
    factors.append(quartic_factor(draw(st.integers(0, n - 1)), draw(st.floats(15.0, 25.0)),
                                  0.01, 0.5))
    graph = FactorGraph(n, tuple(draw(st.permutations(factors))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mean = rng.uniform(15.0, 25.0, n)
    a = rng.standard_normal((n, n)) * 0.15
    sigma = a @ a.T + np.diag(rng.uniform(0.05, 0.3, n))
    return graph, mean, sigma, gh_spec(draw(st.integers(1, 10)))


@settings(max_examples=60, deadline=None)
@given(mixed_kind_problems())
def test_batched_expectations_match_per_factor_oracle(problem):
    graph, mean, sigma, spec = problem
    g, h, loss = graph._expectations(mean, sigma, spec, with_value=True)
    g_ref, h_ref, loss_ref = oracles._per_factor_expectations(graph, mean, sigma, spec,
                                                              with_value=True)
    assert np.abs(g - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
    assert np.abs(h - h_ref).max() <= 1e-12 * np.abs(h_ref).max()
    assert loss == pytest.approx(loss_ref, rel=1e-12)
