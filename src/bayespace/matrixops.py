"""vec/vech machinery and duplication matrices for symmetric-matrix calculus."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


def vec(a: np.ndarray) -> np.ndarray:
    """Stack the columns of a matrix into one column."""
    return np.asarray(a).reshape(-1, order="F")


@functools.lru_cache(maxsize=None)
def vech_indices(n: int):
    """(rows, cols) of the lower triangle in vech (column-major) order (read-only)."""
    cols, rows = np.triu_indices(n)  # the upper triangle row by row, transposed
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


@functools.lru_cache(maxsize=None)
def vech_weights(n: int) -> np.ndarray:
    """diag(sqrt(0.5 D^T D)) in vech order: 1/sqrt(2) on A's diagonal, else 1 (read-only)."""
    rows, cols = vech_indices(n)
    w = np.where(rows == cols, np.sqrt(0.5), 1.0)
    w.flags.writeable = False
    return w


def vech(a: np.ndarray) -> np.ndarray:
    """Stack the lower-triangular part column by column (on-and-below diagonal)."""
    a = np.asarray(a)
    return a[vech_indices(a.shape[0])]


def unvech(v: np.ndarray) -> np.ndarray:
    """Rebuild the symmetric matrix whose vech is ``v``."""
    v = np.asarray(v, dtype=float)
    n = int(round((np.sqrt(8 * v.size + 1) - 1) / 2))
    if n * (n + 1) // 2 != v.size:
        raise ValueError(f"length {v.size} is not a triangular number")
    out = np.zeros((n, n))
    rows, cols = vech_indices(n)
    out[rows, cols] = v
    out[cols, rows] = v
    return out


def duplication_matrix(n: int) -> np.ndarray:
    """D with vec(A) = D vech(A) for symmetric n x n A."""
    rows, cols = vech_indices(n)
    d = np.zeros((n * n, rows.size))
    k = np.arange(rows.size)
    d[rows + n * cols, k] = d[cols + n * rows, k] = 1.0  # vec is column-major
    return d


@dataclass(frozen=True)
class DuplicationOps:
    """Duplication matrix and its pseudoinverse for one dimension."""

    n: int
    d: np.ndarray
    d_dagger: np.ndarray


@functools.lru_cache(maxsize=None)
def build_duplication(n: int) -> DuplicationOps:
    """Precompute the duplication operators for dimension ``n`` (1..64).

    Built once per dimension and shared, so the arrays are read-only.
    """
    if not 1 <= n <= 64:
        raise ValueError(f"dimension must be in [1, 64], got {n}")
    d = duplication_matrix(n)
    d_dagger = np.linalg.solve(d.T @ d, d.T)
    for a in (d, d_dagger):
        a.flags.writeable = False
    return DuplicationOps(n=n, d=d, d_dagger=d_dagger)
