"""vec/vech/duplication identities and Kronecker-product algebra."""

import numpy as np
import pytest

from bayespace.matrixops import build_duplication, unvech, vec, vech, vech_weights


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


class TestVecVech:
    def test_vec_stacks_columns(self):
        a = np.array([[1.0, 3.0], [2.0, 4.0]])
        assert np.array_equal(vec(a), [1, 2, 3, 4])

    def test_vech_lower_triangle_column_major(self):
        a = np.array([[1.0, 2.0], [2.0, 5.0]])
        assert np.array_equal(vech(a), [1, 2, 5])
        b = np.arange(9.0).reshape(3, 3)
        b = b + b.T
        assert np.array_equal(vech(b), [b[0, 0], b[1, 0], b[2, 0], b[1, 1], b[2, 1], b[2, 2]])

    def test_unvech_round_trip(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 5):
            a = random_symmetric(rng, n)
            assert np.array_equal(unvech(vech(a)), a)

    def test_unvech_bad_length(self):
        with pytest.raises(ValueError):
            unvech(np.ones(4))


class TestDuplication:
    def test_two_by_two_matrices(self):
        ops = build_duplication(2)
        assert np.array_equal(ops.d, [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]])
        assert np.allclose(ops.d_dagger, [[1, 0, 0, 0], [0, 0.5, 0.5, 0], [0, 0, 0, 1]])

    def test_one_dimensional(self):
        ops = build_duplication(1)
        assert np.allclose(ops.d, [[1.0]])
        assert np.allclose(ops.d_dagger, [[1.0]])

    def test_identities_random_matrices(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3, 4):
            ops = build_duplication(n)
            m = n * (n + 1) // 2
            assert np.abs(ops.d_dagger @ ops.d - np.eye(m)).max() < 1e-12
            assert np.abs(ops.d_dagger.T @ ops.d.T - ops.d @ ops.d_dagger).max() < 1e-12
            for _ in range(10):
                sym = random_symmetric(rng, n)
                assert np.abs(ops.d @ vech(sym) - vec(sym)).max() < 1e-12
                assert np.abs(ops.d @ ops.d_dagger @ vec(sym) - vec(sym)).max() < 1e-12
                any_a = rng.standard_normal((n, n))
                lhs = ops.d @ ops.d_dagger @ np.kron(any_a, any_a) @ ops.d
                rhs = np.kron(any_a, any_a) @ ops.d
                assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())

    def test_sqrt_half_dtd(self):
        for n in (1, 2, 3, 4):
            ops = build_duplication(n)
            half_dtd = 0.5 * ops.d.T @ ops.d
            assert np.array_equal(half_dtd, np.diag(np.diag(half_dtd)))
            assert np.abs(np.diag(half_dtd) - vech_weights(n) ** 2).max() <= 1e-15

    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            build_duplication(0)
        with pytest.raises(ValueError):
            build_duplication(65)


class TestKroneckerIdentities:
    def test_suite_on_random_matrices(self):
        rng = np.random.default_rng(2)
        for n in (2, 3):
            for _ in range(25):
                a = rng.standard_normal((n, n))
                b = rng.standard_normal((n, n))
                c = rng.standard_normal((n, n))
                d = rng.standard_normal((n, n))
                va = rng.standard_normal(n)
                vb = rng.standard_normal(n)
                scale = lambda m: max(1.0, np.abs(m).max())
                assert np.array_equal(vec(va[:, None]), va)
                outer = np.outer(va, vb)
                assert np.abs(vec(outer) - np.kron(vb, va)).max() < 1e-12
                lhs = vec(a @ b @ c)
                rhs = np.kron(c.T, a) @ vec(b)
                assert np.abs(lhs - rhs).max() < 1e-12 * scale(lhs)
                assert abs(vec(a) @ vec(b) - np.trace(a.T @ b)) < 1e-12 * scale(a)
                lhs = np.kron(a, b) @ np.kron(c, d)
                rhs = np.kron(a @ c, b @ d)
                assert np.abs(lhs - rhs).max() < 1e-12 * scale(lhs)
                lhs = np.linalg.inv(np.kron(a + 3 * np.eye(n), b + 3 * np.eye(n)))
                rhs = np.kron(np.linalg.inv(a + 3 * np.eye(n)), np.linalg.inv(b + 3 * np.eye(n)))
                assert np.abs(lhs - rhs).max() < 1e-10 * scale(lhs)
                assert np.abs(np.kron(a, b).T - np.kron(a.T, b.T)).max() == 0.0
