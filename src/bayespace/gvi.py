"""Gaussian variational inference on factor graphs.

The joint negative-log target splits over factors with small variable
support, so every expectation the Gaussian update needs reduces to the
factor's own marginal: low-dimensional quadrature per factor and
scatter-add assembly, reading only the covariance blocks inside the
information matrix's fill pattern.  A :class:`GaussianState` factors its
information on construction, each iteration the new information once; the
factor gives the entropy, and its inverse by blocks the step and covariance.  The
sparse solver evaluates the built-in factor kinds in batches, one
vectorized call per kind over all of its factors; other factors take
:func:`factor_expectations` one at a time.  The dense oracle,
``oracles.gvi_dense_solve``, runs every factor through that function and
:func:`assemble`.  A graph stores each built-in kind as arrays
(:class:`_Block`) and holds what its batches share: the gradient scatter
index (the concatenated block indices its checks read), and the Hessian
scatter index and read-only fill pattern, built on first use.  A graph
built :meth:`FactorGraph.from_blocks` is checked, solved and serialized
without creating a :class:`Factor`, and builds ``graph.factors`` only on
first use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .elements import BayesElement, element_grad, element_hess
from .errors import EvaluationFailure, NonSPD
from .gaussian import IndefGaussian
from .measures import GaussianMeasure, cholesky_or_raise
from .quadrature import GAUSS_HERMITE, QuadratureSpec, gh_spec, tensor_rule
from .variational import IterationTrace, _drive

_MAX_FACTOR_DIM = 4
# Quadrature nodes evaluated at once in a batch; bounds the working set
# (the (F, m, k) nodes and a few (F, m) scalar arrays) on large graphs.
_CHUNK_NODES = 16_384
_INV_BLOCK = 32  # rows per block of _inverse_lower
_LOWER = np.tri(_INV_BLOCK, dtype=bool)  # where a diagonal block of its result is nonzero


@dataclass(frozen=True)
class Factor:
    """One additive term of the joint phi, over the variables in ``indices``.

    ``phi`` maps local states (m, k) -> (m,); ``grad``/``hess`` are the
    matching local derivatives (finite differences substitute when absent).
    ``kind``/``params`` carry the serialization identity.  The solvers
    evaluate a built-in kind (prior, odom, range, stereo) from ``kind`` and
    ``params`` alone, as the builders below construct it.
    """

    indices: Tuple[int, ...]
    phi: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess: Optional[Callable[[np.ndarray], np.ndarray]] = None
    kind: str = "custom"
    params: Tuple[float, ...] = ()

    def __post_init__(self):
        idx = tuple(map(int, self.indices))
        if sorted(set(idx)) != list(idx):
            raise ValueError(f"factor indices must be strictly increasing, got {idx}")
        object.__setattr__(self, "indices", idx)

    @property
    def arity(self) -> int:
        return len(self.indices)

    def as_element(self) -> BayesElement:
        return BayesElement(dim=self.arity, phi=self.phi, grad=self.grad, hess=self.hess)


class FactorGraph:
    """A joint phi over ``num_vars`` variables: the sum of its factors.

    The factors are held in blocks (:class:`_Block`): one per built-in kind,
    as (F, k) index and (F, p) parameter arrays, and one per arity of other
    factors.  A graph made :meth:`from_blocks` builds ``factors`` on first
    use.  The graph also holds the scatter indices and the fill pattern of
    its batched expectations.  Raises ValueError on an invalid factor, an
    index outside 0..num_vars-1 or a variable in no factor.
    """

    def __init__(self, num_vars: int, factors: Sequence[Factor]):
        self.__dict__["factors"] = tuple(factors)
        self._setup(num_vars, _group(self.factors))

    @classmethod
    def from_blocks(cls, num_vars: int,
                    blocks: Sequence[Tuple[str, np.ndarray, np.ndarray]]) -> "FactorGraph":
        """A graph of built-in factors from ``(kind, indices, params)``
        triples of integer (F, arity) and (F, nparams) arrays, whose factors
        follow one another in graph order; triples of one kind join into one
        block, and a triple with no rows adds none.  Raises ValueError
        naming the kind and the shapes otherwise."""
        groups: Dict[str, list] = {}
        start = 0
        for name, idx, params in blocks:
            kind, idx, params = _KINDS.get(name), np.asarray(idx), np.asarray(params, dtype=float)
            if not (kind is not None and idx.dtype.kind in "iu" and np.can_cast(idx.dtype, np.intp)
                    and idx.shape[1:] == (kind.arity,)
                    and params.shape == (len(idx), kind.nparams)):
                want = (f"integer (F, {kind.arity}) indices and (F, {kind.nparams}) params"
                        if kind else "a built-in kind")
                raise ValueError(f"{name!r} block: expected {want}, got {idx.dtype} indices "
                                 f"{idx.shape} and params {params.shape}")
            if not len(idx):  # no graph holds an empty block
                continue
            at = np.arange(start, start + len(idx))
            groups.setdefault(name, []).append((idx.astype(np.intp), params, at))
            start += len(idx)
        graph = cls.__new__(cls)
        graph._setup(num_vars, tuple(_Block(_KINDS[name], *map(np.concatenate, zip(*parts)))
                                     for name, parts in groups.items()))
        return graph

    def _setup(self, num_vars: int, blocks: Tuple["_Block", ...]):
        _check_factors(blocks)
        if num_vars < 0:
            raise ValueError(f"num_vars must be nonnegative, got {num_vars}")
        empty = [np.zeros(0, dtype=np.intp)]
        idx = np.concatenate(empty + [b.idx.ravel() for b in blocks])
        at = np.concatenate(empty + [np.repeat(b.at, b.idx.shape[1]) for b in blocks])
        bad = (idx < 0) | (idx >= num_vars)
        if bad.any():  # report the first in graph order
            raise ValueError(f"factor index {idx[bad][np.argmin(at[bad])]} "
                             f"outside 0..{num_vars - 1}")
        # A set, not a per-variable array: a huge num_vars allocates nothing.
        covered = set(idx.tolist())
        if len(covered) < num_vars:
            first = [i for i in range(min(num_vars, len(covered) + 10)) if i not in covered]
            raise ValueError(f"{num_vars - len(covered)} variables (first {first}) "
                             "appear in no factor; the information matrix would be singular")
        # idx is also the gradient scatter index: where the stacked block outputs go in g
        self.num_vars, self.blocks, self._g_at = num_vars, blocks, idx

    @functools.cached_property
    def factors(self) -> Tuple[Factor, ...]:
        """Every factor, in graph order."""
        made = sorted((at, b.kind.factor(i, p)) for b in self.blocks
                      for at, i, p in zip(b.at.tolist(), b.idx.tolist(), b.params.tolist()))
        return tuple(f for _, f in made)

    @functools.cached_property
    def _h_at(self) -> np.ndarray:
        """Where the blocks' stacked Hessians scatter to in the raveled (n, n)."""
        n = self.num_vars
        return np.concatenate([np.zeros(0, dtype=np.intp)] + [
            (b.idx[:, :, None] * n + b.idx[:, None, :]).ravel() for b in self.blocks])

    @functools.cached_property
    def _pattern(self) -> np.ndarray:
        n = self.num_vars
        mask = np.zeros(n * n, dtype=bool)
        mask[self._h_at] = mask[::n + 1] = True
        mask.flags.writeable = False
        return mask.reshape(n, n)

    def _expectations(self, mean: np.ndarray, sigma: np.ndarray, spec: QuadratureSpec,
                      with_value: bool) -> Tuple[np.ndarray, np.ndarray, Optional[float]]:
        """Joint E[grad], E[hess] and (with ``with_value``) the summed E[phi].

        ``sigma`` need only hold the covariance entries inside the fill.
        Each entry accumulates its factors' terms in block order, which is
        graph order whenever each kind's factors are contiguous in the graph.
        """
        n = self.num_vars
        gs, hs, values = [], [], []
        with np.errstate(all="ignore"):  # a non-finite d1, d2 or loss still raises
            for b in self.blocks:
                g, h, v = b.expectations(mean[b.idx], sigma[b.idx[:, :, None], b.idx[:, None, :]],
                                         spec, with_value)
                gs.append(g.ravel())
                hs.append(h.ravel())
                values.append(v)
        g = np.bincount(self._g_at, weights=np.concatenate(gs), minlength=n)
        h = np.bincount(self._h_at, weights=np.concatenate(hs), minlength=n * n).reshape(n, n)
        # add.accumulate sums left to right, like adding the terms one at a time
        loss = float(np.add.accumulate(np.concatenate(values))[-1]) if with_value else None
        return g, h, loss

def fill_pattern(graph: FactorGraph) -> np.ndarray:
    """Symbolic fill of the information matrix: union of factor index pairs.

    Built once per graph and shared by every caller, so it is read-only.
    """
    return graph._pattern


def _inverse_lower(low: np.ndarray) -> np.ndarray:
    """inv(L) of a lower-triangular L by block forward substitution, X_ii = inv(L_ii) and
    X_i,<i = -X_ii (L_i,<i X_<i,<i); the general solve's rounding above the diagonal is dropped."""
    inv = np.zeros_like(low)
    for i in range(0, len(low), _INV_BLOCK):
        rows = slice(i, i + _INV_BLOCK)
        block = low[rows, rows]
        m = len(block)
        inv[rows, rows] = diag = np.where(_LOWER[:m, :m], np.linalg.solve(block, np.eye(m)), 0.0)
        if i:
            inv[rows, :i] = -diag @ (low[rows, :i] @ inv[:i, :i])
    return inv


def _covariance(low: np.ndarray) -> np.ndarray:
    """inv(L)^T inv(L), the inverse of the information matrix L L^T."""
    inv_low = _inverse_lower(low)
    return inv_low.T @ inv_low


@dataclass(frozen=True)
class GaussianState:
    """Joint Gaussian estimate in information form; a solver checks ``info``
    against its graph's fill."""

    mean: np.ndarray
    info: np.ndarray
    low: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        info = np.atleast_2d(np.asarray(self.info, dtype=float))
        if info.shape != (mean.size, mean.size):
            raise ValueError(f"mean {mean.shape} and info {info.shape} disagree")
        info = 0.5 * (info + info.T)
        low = cholesky_or_raise(info, "information matrix")  # stored, with its covariance
        sigma = _covariance(low)
        low.flags.writeable = sigma.flags.writeable = False
        for name, v in dict(mean=mean, info=info, low=low, _sigma=sigma).items():
            object.__setattr__(self, name, v)

    def covariance(self) -> np.ndarray:
        return self._sigma

    # oracle-only; the bench tracer wraps it here
    def to_measure(self) -> GaussianMeasure:
        return GaussianMeasure(self.mean, self.covariance())


# ---------------------------------------------------------------------------
# Per-factor expectations and assembly
# ---------------------------------------------------------------------------

def _cholesky_stack(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of an (F, k, k) stack of marginal blocks, k 1 or 2.

    Closed form, for the batches only (:func:`factor_expectations` uses LAPACK);
    raises :class:`NonSPD` when any block is not positive-definite.
    """
    k = cov.shape[-1]
    a = cov[:, 0, 0]
    if (a <= 0).any():
        raise NonSPD("marginal covariance is not positive", minor=1)
    ra = np.sqrt(a)
    if k == 1:
        return ra[:, None, None]
    b = cov[:, 1, 0] / ra
    c2 = cov[:, 1, 1] - b * b
    if (c2 <= 0).any():
        raise NonSPD("marginal covariance is not positive", minor=2)
    low = np.zeros_like(cov)
    low[:, 0, 0] = ra
    low[:, 1, 0] = b
    low[:, 1, 1] = np.sqrt(c2)
    return low


def _gh_rule(spec: QuadratureSpec, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """The tensor Gauss-Hermite rule of ``spec`` on R^dim; the only kind GVI takes."""
    if spec.kind != GAUSS_HERMITE:
        raise ValueError(f"GVI expectations need a Gauss-Hermite rule, got kind {spec.kind!r}")
    return tensor_rule(spec.nodes_per_dim, dim)


def factor_expectations(factor: Factor, marginal: Tuple[np.ndarray, np.ndarray],
                        spec: QuadratureSpec,
                        with_value: bool = False):
    """E[d phi_k] and E[d^2 phi_k] under the factor's Gaussian marginal.

    Only ``arity``-dimensional quadrature is ever used.  With ``with_value``
    the expectation of phi_k itself is returned as a third output.
    """
    mean_k, cov_k = marginal
    k = factor.arity
    if k > _MAX_FACTOR_DIM:
        raise ValueError(f"factor support {k} exceeds the quadrature cap {_MAX_FACTOR_DIM}")
    xi, w = _gh_rule(spec, k)
    low = cholesky_or_raise(cov_k, "marginal covariance")
    x = np.asarray(mean_k, dtype=float) + xi @ low.T
    elem = factor.as_element()
    gv, hv = element_grad(elem, x), element_hess(elem, x)
    if not (np.isfinite(gv).all() and np.isfinite(hv).all()):
        raise EvaluationFailure(f"factor {factor.kind}{factor.indices} derivative "
                                "not finite at a quadrature node")
    g = w @ gv
    h = np.einsum("i,ijk->jk", w, hv)
    h = 0.5 * (h + h.T)
    if with_value:
        return g, h, float(w @ np.asarray(factor.phi(x), dtype=float))
    return g, h


# Oracle-only; stays here because the bench tracer looks it up by name.
def assemble(graph: FactorGraph, expectations: Sequence[Tuple[np.ndarray, np.ndarray]],
             ) -> Tuple[np.ndarray, np.ndarray]:
    """Scatter one (k,) g_k and (k, k) H_k per factor into the joint gradient and information."""
    n, factors = graph.num_vars, graph.factors
    if len(expectations) != len(factors):
        raise ValueError(f"{len(expectations)} expectations for {len(factors)} factors")
    g = np.zeros(n)
    h = np.zeros((n, n))
    for f, (gk, hk) in zip(factors, expectations):
        k = f.arity
        if np.shape(gk) != (k,) or np.shape(hk) != (k, k):
            raise ValueError(f"factor {f.kind}{f.indices}: expected ({k},) and ({k}, {k}) "
                             f"expectations, got {np.shape(gk)} and {np.shape(hk)}")
        idx = np.asarray(f.indices)
        g[idx] += gk
        h[np.ix_(idx, idx)] += hk
    return g, h


# ---------------------------------------------------------------------------
# Batched expectations: one evaluation per factor kind
# ---------------------------------------------------------------------------

class _Block(NamedTuple):
    """Factors of one kind and arity, stacked in graph order.

    ``kind`` is None for factors without a batched kernel; they take the
    per-factor path through ``factors``.  ``idx`` is (F, k), ``params``
    (F, p) for a kernel, and ``at`` (F,) the factors' places in the graph.
    """

    kind: Optional["_Kind"]
    idx: np.ndarray
    params: Optional[np.ndarray]
    at: np.ndarray
    factors: Tuple[Factor, ...] = ()

    def expectations(self, mean: np.ndarray, cov: np.ndarray, spec: QuadratureSpec,
                     with_value: bool):
        """(F, k) E[grad], (F, k, k) E[hess] and (F,) E[phi] (None unless
        ``with_value``), from (F, k) means and (F, k, k) covariance blocks.

        A built-in kind's derivatives are rank one, so the batch reduces the
        scalars d1 and d2 over the nodes and scales by ``jac`` afterwards.
        """
        if self.kind is None:
            outs = [factor_expectations(f, (mu, c), spec, with_value)
                    for f, mu, c in zip(self.factors, mean, cov)]
            values = np.array([o[2] for o in outs]) if with_value else None
            return (np.array([o[0] for o in outs]), np.array([o[1] for o in outs]), values)
        kind = self.kind
        xi, w = _gh_rule(spec, kind.arity)
        low_t = _cholesky_stack(cov).transpose(0, 2, 1)
        count = len(self.idx)
        e1 = np.empty(count)
        e2 = np.empty(count)
        values = np.empty(count) if with_value else None
        step = max(1, _CHUNK_NODES // xi.shape[0])
        for start in range(0, count, step):
            rows = slice(start, start + step)
            s = (mean[rows, None, :] + xi @ low_t[rows]) @ kind.jac
            params = self.params[rows].T[..., None]  # p columns of shape (F, 1)
            d1, d2 = kind.d12(s, *params)
            bad = ~(np.isfinite(d1).all(axis=1) & np.isfinite(d2).all(axis=1))
            if bad.any():
                where = tuple(self.idx[start + int(np.argmax(bad))].tolist())
                raise EvaluationFailure(f"factor {kind.name}{where} derivative "
                                        "not finite at a quadrature node")
            e1[rows] = d1 @ w
            e2[rows] = d2 @ w
            if with_value:
                values[rows] = kind.phi(s, *params) @ w
        g = e1[:, None] * kind.jac
        h = e2[:, None, None] * np.outer(kind.jac, kind.jac)
        return g, h, values


def _group(factors: Sequence[Factor]) -> Tuple[_Block, ...]:
    """Blocks of ``factors``, one per built-in kind and one per arity of the
    others, in order of first appearance."""
    groups: Dict[Tuple[Optional[str], int], list] = {}
    for at, f in enumerate(factors):
        kind = _KINDS.get(f.kind)
        if kind is not None and (f.arity, len(f.params)) != (kind.arity, kind.nparams):
            raise ValueError(f"{f.kind!r} factor: expected {kind.arity} indices and "
                             f"{kind.nparams} params, got {f.arity} and {len(f.params)}")
        groups.setdefault((f.kind if kind else None, f.arity), []).append((at, f))
    # no index dtype: an index past 64 bits stays an int and fails the range check
    return tuple(
        _Block(_KINDS.get(name), np.array([f.indices for _, f in rows]),
               np.array([f.params for _, f in rows], dtype=float) if name else None,
               np.array([at for at, _ in rows]), tuple(f for _, f in rows))
        for (name, _), rows in groups.items())


def _check_factors(blocks: Sequence[_Block]):
    """Raise the builder's ValueError for the first built-in factor in
    graph order with invalid parameters or indices."""
    bad = []
    for b in blocks:
        if b.kind is not None:
            rows = ((np.diff(b.idx, axis=1) <= 0).any(axis=1) | ~np.isfinite(b.params).all(axis=1)
                    | (b.params[:, b.kind.var_at] <= 0))
            bad += [(b.at[r], b, r) for r in np.flatnonzero(rows)[:1]]
    if bad:
        _, b, r = min(bad, key=lambda item: item[0])
        b.kind.factor(b.idx[r].tolist(), b.params[r].tolist())


# ---------------------------------------------------------------------------
# Marginal extraction: oracle-only, kept here for the bench tracer's by-name wrap
# ---------------------------------------------------------------------------

def _marginals(graph: FactorGraph, mean: np.ndarray,
               sigma: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
    return [(mean[list(f.indices)], sigma[np.ix_(f.indices, f.indices)])
            for f in graph.factors]


def marginals_for_factors(state: GaussianState,
                          graph: FactorGraph) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Mean and covariance block of each factor's variables, read from the
    full inverse of the information matrix."""
    return _marginals(graph, state.mean, state.covariance())


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GviOptions:
    tol: float = 1e-8
    max_iters: int = 50
    quad: QuadratureSpec = field(default_factory=lambda: gh_spec(10))
    record_loss: bool = True


def _entropy(low: np.ndarray) -> float:
    """Entropy of the Gaussian whose information matrix is ``low @ low.T``."""
    n = low.shape[0]
    return 0.5 * n * (1.0 + np.log(2.0 * np.pi)) - np.sum(np.log(np.diag(low)))


def _gvi_loop(graph: FactorGraph, init: GaussianState, opts: GviOptions,
              expectations: Callable) -> IterationTrace:
    """Iterate ``expectations(mean, sigma, spec, with_value) -> (g, h, loss)`` from
    ``init``'s factor, factoring each new information once and inverting it by blocks."""
    if (np.abs(init.info[~graph._pattern]) > 0).any():
        raise ValueError("initial information has entries outside the graph fill")

    def step(state):
        mean, sigma, low = state
        # the scatter writes only inside the fill, so h keeps the symbolic pattern
        g, h, loss = expectations(mean, sigma, opts.quad, opts.record_loss)
        new_low = cholesky_or_raise(h, "information matrix")
        inv_low = _inverse_lower(new_low)
        delta = inv_low.T @ (inv_low @ -g)
        mean = mean + delta
        sigma = inv_low.T @ inv_low
        with np.errstate(all="ignore"):  # a norm that overflows raises below
            step_norm = float(np.linalg.norm(delta))
        # the trace keeps mean and sigma as they are: no later step mutates them
        record = {"coordinates": mean, "covariances": sigma,
                  "gaussians": IndefGaussian(mean_like=mean, info=h, spd=True),
                  "step_norm": step_norm}
        if opts.record_loss:
            record["kl"] = loss - _entropy(low)
        if not np.isfinite([record["step_norm"], record.get("kl", 0.0)]).all():
            raise EvaluationFailure("GVI step or loss is not finite")
        return (mean, sigma, new_low), record

    return _drive(step, (init.mean, init.covariance(), init.low), opts.tol, opts.max_iters)


def gvi_sparse_solve(graph: FactorGraph, init: GaussianState,
                     opts: Optional[GviOptions] = None) -> IterationTrace:
    """Factor-decomposed Gaussian iterative projection (exactly sparse route):
    expectations batched per factor kind, reading only blocks inside the fill."""
    return _gvi_loop(graph, init, opts or GviOptions(), graph._expectations)


# ---------------------------------------------------------------------------
# Factor kinds and builders
# ---------------------------------------------------------------------------

class _Kind(NamedTuple):
    """A built-in factor kind: a formula of the one scalar s = x @ jac.

    phi(s), grad = d1(s) jac, hess = d2(s) jac jac^T, where s is x_0 or
    x_1 - x_0 bit for bit (``jac`` is (1) or (-1, 1); with no zero entry,
    d1 and d2 are finite exactly where the gradient and Hessian are).
    ``phi`` and ``d12`` (returning ``(d1, d2)``) take s and parameters that
    broadcast against it: floats from one factor's closures, (F, 1) columns
    with (F, m) values of s from a batch.
    """

    name: str
    arity: int
    nparams: int
    var_at: int  # position of the noise variance among the params
    jac: np.ndarray
    phi: Callable[..., np.ndarray]
    d12: Callable[..., Tuple[np.ndarray, np.ndarray]]

    def factor(self, indices: Sequence[int], params: Sequence[float]) -> Factor:
        """One factor of this kind; raises ValueError on invalid parameters."""
        params = tuple(map(float, params))
        if not all(map(math.isfinite, params)):
            raise ValueError(f"{self.name} factor parameters must be finite, got {params}")
        if params[self.var_at] <= 0:
            raise ValueError(f"{self.name} factor variance must be positive, "
                             f"got {params[self.var_at]}")
        jac = self.jac

        def at(formula, x):  # a formula may overflow; each caller checks what it reads
            with np.errstate(all="ignore"):
                return formula(x @ jac, *params)

        return Factor(indices=indices, phi=functools.partial(at, self.phi),
                      grad=lambda x: at(self.d12, x)[0][..., None] * jac,
                      hess=lambda x: at(self.d12, x)[1][..., None, None] * np.outer(jac, jac),
                      kind=self.name, params=params)


def _linear_phi(s, shift, var):
    return 0.5 * (s - shift) ** 2 / var


def _linear_d12(s, shift, var):
    return (s - shift) / var, np.broadcast_to(1.0 / var, np.shape(s))


def _range_parts(s, z, offset):
    r = np.sqrt(s * s + offset * offset)
    return r, z - r


def _range_phi(s, z, var, offset):
    _, e = _range_parts(s, z, offset)
    return 0.5 * e * e / var


def _range_d12(s, z, var, offset):
    r, e = _range_parts(s, z, offset)
    slope = s / r
    return -e * slope / var, (slope**2 - e * (offset * offset) / r**3) / var


def _stereo_phi(s, z, f, b, var):
    return 0.5 * (z - f * b / s) ** 2 / var


def _stereo_d12(s, z, f, b, var):
    fb = f * b
    e, slope = z - fb / s, fb / s**2
    return e * slope / var, (slope**2 + e * (-2.0 * fb / s**3)) / var


_KINDS: Dict[str, _Kind] = {kind.name: kind for kind in (
    _Kind("prior", arity=1, nparams=2, var_at=1, jac=np.array([1.0]),
          phi=_linear_phi, d12=_linear_d12),
    _Kind("odom", arity=2, nparams=2, var_at=1, jac=np.array([-1.0, 1.0]),
          phi=_linear_phi, d12=_linear_d12),
    _Kind("range", arity=2, nparams=3, var_at=1, jac=np.array([-1.0, 1.0]),
          phi=_range_phi, d12=_range_d12),
    _Kind("stereo", arity=1, nparams=4, var_at=3, jac=np.array([1.0]),
          phi=_stereo_phi, d12=_stereo_d12),
)}


def prior_factor(i: int, mean: float, var: float) -> Factor:
    """0.5 (x_i - mean)^2 / var."""
    return _KINDS["prior"].factor((i,), (mean, var))


def odom_factor(i: int, j: int, u: float, var: float) -> Factor:
    """0.5 (x_j - x_i - u)^2 / var for consecutive poses."""
    return _KINDS["odom"].factor((i, j), (u, var))


def range_factor(i: int, j: int, z: float, var: float, offset: float) -> Factor:
    """0.5 (z - sqrt((x_j - x_i)^2 + offset^2))^2 / var.

    A range-to-beacon measurement with a fixed sensor offset; the offset
    keeps the model smooth and genuinely nonlinear at short range.
    """
    return _KINDS["range"].factor((i, j), (z, var, offset))


def stereo_factor(i: int, z: float, f: float, b: float, var: float) -> Factor:
    """0.5 (z - f b / x_i)^2 / var, the inverse-distance camera model."""
    return _KINDS["stereo"].factor((i,), (z, f, b, var))
