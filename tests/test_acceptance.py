"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import time

import numpy as np

from bayespace.elements import (BayesElement, gaussian_element, information,
                                inner_product, log_partition, moment_nodes, subtract)
from bayespace.experiments import ExperimentConfig, make_chain, run_gvi_demo
from bayespace.gaussian import (IndefGaussian, expected_derivatives, gaussian_basis,
                                gaussian_coordinates)
from bayespace.gvi import (Factor, FactorGraph, GaussianState, GviOptions, assemble,
                           factor_expectations, gvi_sparse_solve, odom_factor)
from bayespace.hermite import HermiteBasis1D, hermite_poly, multivariate_basis, reconstruct
from bayespace.matrixops import build_duplication, vec, vech
from bayespace.measures import GaussianMeasure
from bayespace.oracles import (gaussian_information, gvi_dense_solve, gvi_step_dense,
                               joint_element, kl_gradient, kl_hessian, kl_hessian_fim,
                               measure_derivative_ip, reconstruct_in_basis, stein_check)
from bayespace.quadrature import expect, gh_spec, grid_spec
from bayespace.variational import (GaussianSubspace, HermiteSubspace, IterateOptions,
                                   gram, iterate, kl, project, reporting_grid)


def report(number: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:02d} {status}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_01_information_closed_form(std_normal_1d):
    started = time.perf_counter()
    spec = gh_spec(20)
    worst = 0.0
    for mu in (0.0, 1.0, -1.0, 3.0, -3.0):
        for s2 in (0.5, 1.0, 2.0, 4.0):
            got = information(gaussian_element([mu], [[s2]]), std_normal_1d, spec)
            expected = (1 + 2 * mu**2) / (4 * s2**2)
            worst = max(worst, abs(got - expected) / expected)
    elapsed = time.perf_counter() - started
    report(1, worst < 1e-6 and elapsed < 1.0,
           f"information closed form, max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_hermite_orthonormality(std_normal_1d):
    g1 = gram(HermiteBasis1D(6, std_normal_1d), std_normal_1d, gh_spec(40))
    dev1 = np.abs(g1 - np.eye(6)).max()
    nu2 = GaussianMeasure(np.zeros(2), np.eye(2))
    basis2 = multivariate_basis(2, 2, nu2)
    g2 = gram(basis2, nu2, gh_spec(40))
    dev2 = np.abs(g2 - np.eye(len(basis2))).max()
    report(2, dev1 < 1e-8 and len(basis2) == 8 and dev2 < 1e-8,
           f"Gram deviations 1D {dev1:.2e}, 2D ({len(basis2)} fns) {dev2:.2e}")


def test_criterion_03_stein_lemma_suite():
    rng = np.random.default_rng(101)
    nu1 = GaussianMeasure([0.0], [[1.0]])
    nu2 = GaussianMeasure(np.zeros(2), np.eye(2))
    spec = gh_spec(24)
    worst = 0.0
    cases = 0
    # Lemma on one raising step: E[H_{n+1} f] = E[H_n f'] (10 cases)
    for _ in range(10):
        c = rng.standard_normal(7)
        dc = c[1:] * np.arange(1, 7)
        n = int(rng.integers(0, 4))
        lhs = expect(lambda x: hermite_poly(n + 1, x[:, 0])
                     * np.polynomial.polynomial.polyval(x[:, 0], c), nu1, spec)
        rhs = expect(lambda x: hermite_poly(n, x[:, 0])
                     * np.polynomial.polynomial.polyval(x[:, 0], dc), nu1, spec)
        worst = max(worst, abs(lhs - rhs))
        cases += 1
    # full-order version via stein_check (10 cases)
    for _ in range(10):
        c = rng.standard_normal(7)
        n = int(rng.integers(1, 5))
        dn = c.copy()
        for _ in range(n):
            dn = dn[1:] * np.arange(1, dn.size)
        lhs, rhs = stein_check(
            lambda t, cc=c: np.polynomial.polynomial.polyval(t, cc), n, spec,
            deriv=lambda t, cc=dn: np.polynomial.polynomial.polyval(t, cc))
        worst = max(worst, abs(lhs - rhs))
        cases += 1
    # multivariate version, mixed orders (10 cases)
    # f = c0 x^3 y^2 + c1 x y^3 with hand-computed mixed partials
    partials = {
        (1, 1): lambda x, c0, c1: 6 * c0 * x[:, 0] ** 2 * x[:, 1] + 3 * c1 * x[:, 1] ** 2,
        (1, 2): lambda x, c0, c1: 6 * c0 * x[:, 0] ** 2 + 6 * c1 * x[:, 1],
        (2, 1): lambda x, c0, c1: 12 * c0 * x[:, 0] * x[:, 1] + np.zeros(x.shape[0]),
        (2, 2): lambda x, c0, c1: 12 * c0 * x[:, 0] + np.zeros(x.shape[0]),
    }
    for _ in range(10):
        a, b = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        c0, c1 = rng.standard_normal(2)

        def f(x, c0=c0, c1=c1):
            return c0 * x[:, 0] ** 3 * x[:, 1] ** 2 + c1 * x[:, 0] * x[:, 1] ** 3

        lhs = expect(lambda x: hermite_poly(a, x[:, 0]) * hermite_poly(b, x[:, 1]) * f(x),
                     nu2, gh_spec(10))
        rhs = expect(lambda x: partials[(a, b)](x, c0, c1), nu2, gh_spec(10))
        worst = max(worst, abs(lhs - rhs))
        cases += 1
    report(3, cases == 30 and worst < 1e-8,
           f"Stein suite, {cases} polynomial cases, max dev {worst:.2e}")


def test_criterion_04_kronecker_duplication_suite():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        ops = build_duplication(n)
        m = n * (n + 1) // 2
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        c = rng.standard_normal((n, n))
        d = rng.standard_normal((n, n))
        sym = 0.5 * (a + a.T)
        rel = lambda x, s: np.abs(x).max() / max(1.0, s)
        worst = max(worst, np.abs(ops.d_dagger @ ops.d - np.eye(m)).max())
        worst = max(worst, np.abs(ops.d_dagger.T @ ops.d.T - ops.d @ ops.d_dagger).max())
        worst = max(worst, np.abs(ops.d @ vech(sym) - vec(sym)).max())
        worst = max(worst, np.abs(ops.d @ ops.d_dagger @ vec(sym) - vec(sym)).max())
        lhs = ops.d @ ops.d_dagger @ np.kron(a, a) @ ops.d
        rhs = np.kron(a, a) @ ops.d
        worst = max(worst, rel(lhs - rhs, np.abs(rhs).max()))
        lhs = vec(a @ b @ c)
        worst = max(worst, rel(lhs - np.kron(c.T, a) @ vec(b), np.abs(lhs).max()))
        lhs = np.kron(a, b) @ np.kron(c, d)
        worst = max(worst, rel(lhs - np.kron(a @ c, b @ d), np.abs(lhs).max()))
        worst = max(worst, rel(np.kron(a, b).T - np.kron(a.T, b.T), 1.0))
        worst = max(worst, abs(vec(a) @ vec(b) - np.trace(a.T @ b)))
        va, vb = rng.standard_normal(n), rng.standard_normal(n)
        worst = max(worst, np.abs(vec(va[:, None]) - va).max())
        worst = max(worst, np.abs(vec(np.outer(va, vb)) - np.kron(vb, va)).max())
        ai, bi = a + 3 * np.eye(n), b + 3 * np.eye(n)
        lhs = np.linalg.inv(np.kron(ai, bi))
        worst = max(worst, rel(lhs - np.kron(np.linalg.inv(ai), np.linalg.inv(bi)),
                               np.abs(lhs).max()))
    report(4, worst < 1e-12, f"Kronecker/duplication suite, max dev {worst:.2e}")


def test_criterion_05_gaussian_basis_and_coordinates():
    rng = np.random.default_rng(103)
    worst_gram = 0.0
    worst_coord = 0.0
    for n in (1, 2, 3):
        a = rng.standard_normal((n, n))
        nu = GaussianMeasure(rng.standard_normal(n), a @ a.T + np.eye(n))
        basis = gaussian_basis(nu)
        g = gram(basis, nu, gh_spec(10))
        worst_gram = max(worst_gram, np.abs(g - np.eye(len(basis.elements))).max())
        mu_p = rng.standard_normal(n)
        bp = rng.standard_normal((n, n))
        cov_p = bp @ bp.T + np.eye(n)
        a1, _ = gaussian_coordinates(gaussian_element(mu_p, cov_p), nu, gh_spec(10))
        closed = nu.cholesky.T @ np.linalg.inv(cov_p) @ (nu.mean - mu_p)
        worst_coord = max(worst_coord, np.abs(a1 - closed).max())
    report(5, worst_gram < 1e-8 and worst_coord < 1e-8,
           f"Gaussian basis Gram dev {worst_gram:.2e}, alpha1 closed-form dev {worst_coord:.2e}")


def test_criterion_06_gaussian_information_routes():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        a = rng.standard_normal((n, n))
        nu = GaussianMeasure(rng.standard_normal(n), a @ a.T + 0.5 * np.eye(n))
        b = rng.standard_normal((n, n))
        g = IndefGaussian(mean_like=rng.standard_normal(n),
                          info=np.linalg.inv(b @ b.T + 0.5 * np.eye(n)), spd=True)
        vals = [gaussian_information(g, nu, r) for r in ("coordinates", "trace", "natural")]
        scale = max(abs(vals[1]), 1.0)
        worst = max(worst, abs(vals[0] - vals[1]) / scale, abs(vals[2] - vals[1]) / scale)
    report(6, worst < 1e-8, f"information route equivalence, max rel dev {worst:.2e}")


def test_criterion_07_kl_derivatives(std_normal_1d):
    basis = HermiteBasis1D(3, std_normal_1d)
    grid = grid_spec(4001, [(-12.0, 12.0)])
    p = BayesElement(
        1,
        lambda x: 0.3 * x[:, 0] + 0.6 * x[:, 0] ** 2 + 0.05 * x[:, 0] ** 4,
        grad=lambda x: (0.3 + 1.2 * x[:, 0] + 0.2 * x[:, 0] ** 3)[:, None],
        hess=lambda x: (1.2 + 0.6 * x[:, 0] ** 2)[:, None, None])
    alpha = np.array([0.2, 0.9, 0.1])
    delta = 1e-5

    grad = kl_gradient(alpha, basis, p, grid)
    fd_grad = np.zeros(3)
    for n in range(3):
        up, dn = alpha.copy(), alpha.copy()
        up[n] += delta
        dn[n] -= delta
        fd_grad[n] = (kl(reconstruct(up, basis), p, grid)
                      - kl(reconstruct(dn, basis), p, grid)) / (2 * delta)
    grad_dev = np.abs(grad - fd_grad).max() / max(np.abs(fd_grad).max(), 1e-12)

    h_explicit = kl_hessian(alpha, basis, p, grid)
    h_fim = kl_hessian_fim(alpha, basis, p, grid)
    form_dev = np.abs(h_explicit - h_fim).max() / max(np.abs(h_fim).max(), 1.0)
    fd_hess = np.zeros((3, 3))
    for n in range(3):
        up, dn = alpha.copy(), alpha.copy()
        up[n] += 1e-5
        dn[n] -= 1e-5
        fd_hess[:, n] = (kl_gradient(up, basis, p, grid)
                         - kl_gradient(dn, basis, p, grid)) / 2e-5
    hess_dev = np.abs(h_explicit - fd_hess).max() / max(np.abs(fd_hess).max(), 1.0)

    pq = gaussian_element([0.4], [[1.3]])
    qq = gaussian_element([-0.2], [[0.9]])
    md_dev = 0.0
    for n in range(3):
        got = measure_derivative_ip(pq, qq, basis, alpha, n, grid)
        up, dn = alpha.copy(), alpha.copy()
        up[n] += delta
        dn[n] -= delta
        fd = (inner_product(pq, qq, reconstruct(up, basis), grid)
              - inner_product(pq, qq, reconstruct(dn, basis), grid)) / (2 * delta)
        md_dev = max(md_dev, abs(got - fd) / max(abs(fd), 1e-12))

    report(7, grad_dev < 1e-5 and form_dev < 1e-6 and hess_dev < 1e-4 and md_dev < 1e-5,
           f"gradient vs FD {grad_dev:.2e}, Hessian forms {form_dev:.2e}, "
           f"Hessian vs FD {hess_dev:.2e}, measure derivative vs FD {md_dev:.2e}")


def test_criterion_08_fim_equals_gram(std_normal_1d):
    def score_covariance(basis, nu, alpha, spec, zgrid):
        points, w = moment_nodes(nu, spec)
        m = len(basis.elements)
        scores = np.zeros((m, points.shape[0]))
        for n in range(m):
            up, dn = np.array(alpha, float), np.array(alpha, float)
            up[n] += 1e-5
            dn[n] -= 1e-5
            q_up = reconstruct_in_basis(up, basis)
            q_dn = reconstruct_in_basis(dn, basis)
            ln_up = -q_up.phi(points) - log_partition(q_up, zgrid)
            ln_dn = -q_dn.phi(points) - log_partition(q_dn, zgrid)
            scores[n] = (ln_up - ln_dn) / 2e-5
        centered = scores - (scores @ w)[:, None]
        return (centered * w) @ centered.T

    worst = 0.0
    basis_h = HermiteBasis1D(3, std_normal_1d)
    oracle = score_covariance(basis_h, std_normal_1d, [0.2, 0.9, 0.1],
                              gh_spec(40), grid_spec(4001, [(-12.0, 12.0)]))
    g = gram(basis_h, std_normal_1d, gh_spec(40))
    worst = max(worst, np.abs(oracle - g).max() / np.abs(g).max())

    nu = GaussianMeasure([0.5], [[1.2]])
    basis_g = gaussian_basis(nu)
    oracle = score_covariance(basis_g, nu, [0.3, 0.9], gh_spec(40),
                              grid_spec(4001, [(-14.0, 15.0)]))
    g = gram(basis_g, nu, gh_spec(40))
    worst = max(worst, np.abs(oracle - g).max() / np.abs(g).max())
    report(8, worst < 1e-6, f"FIM = Gram via score covariance, max rel dev {worst:.2e}")


def test_criterion_09_stereo_plateau(stereo):
    trace = iterate(stereo.posterior, GaussianSubspace(), stereo.prior_measure,
                    IterateOptions(tol=0.0, max_iters=10, quad=gh_spec(20)))
    series = np.array(trace.kl)
    rel = abs(series[5] - series[-1]) / series[-1]
    report(9, rel <= 0.01 and np.isfinite(series).all(),
           f"KL series within {rel:.2%} of final by iteration 6")


def test_criterion_10_basis_count_convergence(stereo):
    quad = stereo.sweep_grid()
    divergences = []
    for m in range(2, 7):
        basis = HermiteBasis1D(m, stereo.prior_measure)
        alpha = project(stereo.posterior, basis, stereo.prior_measure, quad)
        q = reconstruct(alpha, basis)
        divergences.append(information(subtract(stereo.posterior, q),
                                       stereo.prior_measure, quad))
    decreasing = bool(np.all(np.diff(divergences) < 0))
    ratio = divergences[-1] / divergences[0]

    opts = IterateOptions(tol=0.0, max_iters=10, quad=gh_spec(20))
    kl2 = iterate(stereo.posterior, GaussianSubspace(), stereo.prior_measure, opts).kl[-1]
    kl4 = iterate(stereo.posterior, HermiteSubspace(4), stereo.prior_measure, opts).kl[-1]
    report(10, decreasing and ratio < 0.1 and kl4 < kl2,
           f"divergence ratio M6/M2 {ratio:.3f}, final KL M4 {kl4:.2e} < M2 {kl2:.2e}")


def test_criterion_11_gvi_route_equivalence(stereo):
    cfg = stereo.config
    opts_it = IterateOptions(tol=0.0, max_iters=6, quad=gh_spec(20))
    trace = iterate(stereo.posterior, GaussianSubspace(), stereo.prior_measure, opts_it)
    state = GaussianState(np.array([cfg.mu_p]), np.array([[1.0 / cfg.s2_p]]))
    worst_1d = 0.0
    for ig in trace.gaussians:
        state = gvi_step_dense(stereo.posterior, state, gh_spec(20))
        worst_1d = max(worst_1d, np.abs(state.mean - ig.mean_like).max(),
                       np.abs(state.info - ig.info).max())

    rng = np.random.default_rng(105)
    factors = []
    for i in range(6):
        center = rng.normal(0, 0.5)
        c4, c2 = rng.uniform(0.02, 0.1), rng.uniform(0.3, 1.0)
        factors.append(Factor(
            indices=(i,),
            phi=lambda x, a=center, c4=c4, c2=c2: c4 * (x[:, 0] - a) ** 4 + c2 * (x[:, 0] - a) ** 2,
            grad=lambda x, a=center, c4=c4, c2=c2: (4 * c4 * (x[:, 0] - a) ** 3
                                                    + 2 * c2 * (x[:, 0] - a))[:, None],
            hess=lambda x, a=center, c4=c4, c2=c2: (12 * c4 * (x[:, 0] - a) ** 2
                                                    + 2 * c2)[:, None, None]))
    for i in range(5):
        factors.append(odom_factor(i, i + 1, rng.normal(0, 0.5), rng.uniform(0.5, 2.0)))
    graph = FactorGraph(6, tuple(factors))
    init = GaussianState(rng.standard_normal(6) * 0.3, np.diag(np.full(6, 0.5)))
    opts = GviOptions(tol=0.0, max_iters=6, quad=gh_spec(6), record_loss=False)
    sparse = gvi_sparse_solve(graph, init, opts)
    dense = gvi_dense_solve(graph, init, opts)
    worst_nd = max(np.abs(a - b).max() for a, b in zip(sparse.coordinates, dense.coordinates))
    report(11, worst_1d < 1e-10 and worst_nd < 1e-10,
           f"1D route dev {worst_1d:.2e}, sparse vs dense dev {worst_nd:.2e}")


def test_criterion_12_projection_of_sums():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        factors = []
        for i in range(n):
            center = rng.normal(0, 0.5)
            c4, c2 = rng.uniform(0.02, 0.1), rng.uniform(0.3, 1.0)
            factors.append(Factor(
                indices=(i,),
                phi=lambda x, a=center, c4=c4, c2=c2: c4 * (x[:, 0] - a) ** 4
                + c2 * (x[:, 0] - a) ** 2,
                grad=lambda x, a=center, c4=c4, c2=c2: (4 * c4 * (x[:, 0] - a) ** 3
                                                        + 2 * c2 * (x[:, 0] - a))[:, None],
                hess=lambda x, a=center, c4=c4, c2=c2: (12 * c4 * (x[:, 0] - a) ** 2
                                                        + 2 * c2)[:, None, None]))
        for i in range(n - 1):
            factors.append(odom_factor(i, i + 1, rng.normal(0, 0.5), rng.uniform(0.5, 2.0)))
        graph = FactorGraph(n, tuple(factors))
        a = rng.standard_normal((n, n)) * 0.2
        nu = GaussianMeasure(rng.standard_normal(n) * 0.5,
                             a @ a.T + np.eye(n) * rng.uniform(0.3, 1.0))
        g_joint, h_joint = expected_derivatives(joint_element(graph), nu, gh_spec(5))
        expectations = []
        for f in graph.factors:
            idx = list(f.indices)
            marg = (nu.mean[idx], nu.covariance[np.ix_(idx, idx)])
            expectations.append(factor_expectations(f, marg, gh_spec(5)))
        g_acc, h_acc = assemble(graph, expectations)
        scale = max(1.0, np.abs(h_joint).max())
        worst = max(worst, np.abs(g_joint - g_acc).max() / scale,
                    np.abs(h_joint - h_acc).max() / scale)
    report(12, worst < 1e-10, f"projection-of-sums, max dev {worst:.2e}")


def test_criterion_13_slam_chain_monte_carlo(tmp_path):
    cfg = ExperimentConfig(out_dir=str(tmp_path), seed=42, trials=500)
    started = time.perf_counter()
    summary = run_gvi_demo(cfg)
    runtime = time.perf_counter() - started
    containment = summary["containment_esgvi"]
    ok = (0.985 <= containment <= 0.999
          and summary["max_iterations"] <= 10
          and summary["all_converged"]
          and runtime < 60.0)
    report(13, ok, f"containment {containment:.4f}, max iterations "
                   f"{summary['max_iterations']}, runtime {runtime:.1f}s")


def test_criterion_14_quadratic_exactness():
    cfg = ExperimentConfig(seed=21, linear=True, n_poses=15, n_landmarks=4)
    graph, truth, init = make_chain(cfg)
    trace = gvi_sparse_solve(graph, init, GviOptions(quad=gh_spec(10), record_loss=False))
    n = graph.num_vars
    rows, b_vals, w_vals = [], [], []
    for f in graph.factors:
        row = np.zeros(n)
        if f.kind == "prior":
            row[f.indices[0]] = 1.0
        else:
            row[f.indices[0]] = -1.0
            row[f.indices[1]] = 1.0
        rows.append(row)
        b_vals.append(f.params[0])
        w_vals.append(f.params[1])
    a = np.array(rows)
    w_inv = np.diag(1.0 / np.array(w_vals))
    exact_info = a.T @ w_inv @ a
    exact_mean = np.linalg.solve(exact_info, a.T @ w_inv @ np.array(b_vals))
    mean_err = np.abs(trace.coordinates[0] - exact_mean).max()
    info_err = np.abs(trace.gaussians[0].info - exact_info).max()
    report(14, mean_err < 1e-10 and info_err < 1e-10,
           f"one-step exactness, mean err {mean_err:.2e}, info err {info_err:.2e}")
