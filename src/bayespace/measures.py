"""Gaussian measures used to weight inner products and expectations."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonSPD

_SYM_TOL = 1e-12


def cholesky_or_raise(matrix: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor of ``matrix``; raises :class:`NonSPD` on failure.

    The failing leading-minor index (1-based) is recovered by retrying on
    shrinking leading blocks, which is cheap at the sizes used here.
    """
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        n = matrix.shape[0]
        minor = n
        for k in range(1, n + 1):
            try:
                np.linalg.cholesky(matrix[:k, :k])
            except np.linalg.LinAlgError:
                minor = k
                break
        raise NonSPD(f"{what} is not positive-definite (leading minor {minor})",
                     minor=minor) from None


@dataclass(frozen=True)
class GaussianMeasure:
    """A Gaussian PDF N(mean, covariance) serving as inner-product measure.

    The lower Cholesky factor of the covariance is computed on construction
    and cached; it is the canonical square root used everywhere downstream.
    """

    mean: np.ndarray
    covariance: np.ndarray
    cholesky: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError(f"mean {mean.shape} and covariance {cov.shape} disagree")
        if not np.all(np.abs(cov - cov.T) <= _SYM_TOL * max(1.0, np.abs(cov).max())):
            raise ValueError("covariance is not symmetric")
        cov = 0.5 * (cov + cov.T)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "cholesky", cholesky_or_raise(cov, "covariance"))

    @property
    def dim(self) -> int:
        return self.mean.size

    def standardize(self, x: np.ndarray) -> np.ndarray:
        """Standardized states L^{-1} (x - mean) of a batch ``x`` (m, N)."""
        d = np.atleast_2d(np.asarray(x, dtype=float)) - self.mean
        return np.linalg.solve(self.cholesky, d.T).T

    def stddevs(self) -> np.ndarray:
        """Per-dimension marginal standard deviations."""
        return np.sqrt(np.diag(self.covariance))

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """Log of the normalized Gaussian density at points ``x`` (…, N)."""
        x = np.asarray(x, dtype=float)
        delta = x - self.mean
        # Solve L y = delta^T rather than forming the inverse.
        y = np.linalg.solve(self.cholesky, np.moveaxis(np.atleast_2d(delta), -1, 0))
        quad = np.sum(y * y, axis=0)
        logdet = 2.0 * np.sum(np.log(np.diag(self.cholesky)))
        out = -0.5 * (quad + logdet + self.dim * np.log(2.0 * np.pi))
        return out if delta.ndim > 1 else float(out[0])
