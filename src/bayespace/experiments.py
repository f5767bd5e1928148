"""Desk-scale experiment harness.

Each ``run_*`` function consumes an :class:`ExperimentConfig`, writes
plot-ready CSV series plus one JSON summary into the output directory, and
returns a result dictionary for programmatic use.  Outputs are
byte-identical for identical configs and seeds; wall-clock timings are
returned but never written.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .elements import (BayesElement, _grid_density, add, gaussian_element, information,
                       subtract)
from .errors import ConfigError, NotNormalizable
from .gaussian import project_to_gaussian
from .graphio import dumps_graph, write_new_text
from .gvi import FactorGraph, GaussianState, GviOptions, gvi_sparse_solve, stereo_factor
from .hermite import HermiteBasis1D, reconstruct
from .measures import GaussianMeasure
from .quadrature import (QuadratureSpec, default_grid_bounds, gh_spec, grid_spec,
                         trapezoid_points)
from .variational import (GaussianSubspace, HermiteSubspace, IterateOptions,
                          IterationTrace, iterate, kl, project)

DENSITY_GRID_POINTS = 2001
SWEEP_GRID_POINTS = 4001


@dataclass
class ExperimentConfig:
    """Shared configuration for all experiment subcommands."""

    out_dir: str = "out"
    seed: int = 42
    nodes: Optional[int] = None  # stereo runs default to 20, the chain to 10/dim
    max_iters: int = 10
    tol: Optional[float] = None
    basis: Optional[int] = None  # sweep defaults to 6, the two-vs-M comparison to 4
    z: Optional[float] = None
    x_true: Optional[float] = None
    # stereo-camera problem parameters
    mu_p: float = 20.0
    s2_p: float = 9.0
    f: float = 400.0
    b: float = 0.1
    s2_r: float = 0.09
    informed_mean: float = 24.0
    informed_var: float = 4.0
    # synthetic SLAM chain parameters
    trials: int = 1
    n_poses: int = 20
    n_landmarks: int = 5
    prior_sigma: float = 1.0
    odom_sigma: float = 0.1
    range_sigma: float = 0.5
    range_offset: float = 2.0
    linear: bool = False

    def validate(self):
        checks = [
            (0 <= self.seed < 2**64, "seed must fit in a u64"),
            (self.nodes is None or 1 <= self.nodes <= 64, "nodes must be in 1..64"),
            (1 <= self.max_iters <= 1000, "max_iters must be in 1..1000"),
            (self.tol is None or self.tol >= 0.0, "tol must be nonnegative"),
            (self.basis is None or 2 <= self.basis <= 6, "basis must be in 2..6"),
            (self.s2_p > 0 and self.s2_r > 0, "stereo variances must be positive"),
            (self.informed_var > 0, "informed_var must be positive"),
            (1 <= self.trials <= 10000, "trials must be in 1..10000"),
            (2 <= self.n_poses <= 100, "n_poses must be in 2..100"),
            (0 <= self.n_landmarks <= 20, "n_landmarks must be in 0..20"),
            *((0 < sigma and 0 < sigma * sigma < np.inf,
               f"{name} must be positive, and its square positive and finite")
              for name, sigma in (("prior_sigma", self.prior_sigma),
                                  ("odom_sigma", self.odom_sigma),
                                  ("range_sigma", self.range_sigma))),
            (0 < self.range_offset and self.range_offset * self.range_offset < np.inf,
             "range_offset must be positive, and its square finite"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)
        if np.isinf(4.0 * (self.prior_sigma**2 + (self.n_poses - 1) * self.odom_sigma**2)):
            name = "prior_sigma" if np.isinf(4.0 * self.prior_sigma**2) else "odom_sigma"
            raise ConfigError(f"{name} is too large: the initial chain variance overflows")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        cfg = cls()
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"cannot read {path}: {err}") from None
        fields = {f.name: f for f in dataclasses.fields(cls)}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in fields:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                setattr(cfg, key, _coerce(value, str(fields[key].type)))
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: {key}: cannot read {value!r} "
                                  f"as {fields[key].type}") from None
        return cfg


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _coerce(value: str, kind: str):
    if value.lower() in ("none", ""):
        if not kind.startswith("Optional["):
            raise ValueError("cannot be none")
        return None
    if "bool" in kind:
        if value.lower() not in _BOOLEANS:
            raise ValueError(f"not a boolean: {value!r}")
        return _BOOLEANS[value.lower()]
    if "int" in kind:
        return int(value)
    if "float" in kind:
        return float(value)
    return value


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: Sequence[str], columns: Sequence) -> None:
    """Write a table given by columns, each formatted whole: a float64 array
    as the ``repr`` of its ``tolist()`` values, anything else through ``_fmt``."""
    cells = [map(repr, c.tolist()) if isinstance(c, np.ndarray) and c.dtype == np.float64
             else map(_fmt, c) for c in columns]
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells)]
    write_new_text(path, "\n".join(lines) + "\n")


def _padded(values: Sequence, n: int) -> List:
    """``values`` followed by empty cells up to ``n`` rows."""
    return list(values) + [""] * (n - len(values))


def _write_summary(path: Path, payload: Dict) -> None:
    write_new_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _out_dir(cfg: ExperimentConfig) -> Path:
    """Validate the config; the run creates the returned directory with `_create`."""
    cfg.validate()
    return Path(cfg.out_dir)


def _create(out: Path) -> None:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create the output directory: {err}") from None


# ---------------------------------------------------------------------------
# Stereo-camera problem
# ---------------------------------------------------------------------------

@dataclass
class StereoProblem:
    config: ExperimentConfig
    z: float
    x_true: Optional[float]
    prior: BayesElement
    measurement: BayesElement
    posterior: BayesElement
    prior_measure: GaussianMeasure
    density_grid: QuadratureSpec

    def sweep_grid(self) -> QuadratureSpec:
        """Trapezoid rule truncated 6 sigma around the prior, clear of the pole."""
        mu, sig = self.config.mu_p, np.sqrt(self.config.s2_p)
        lo = max(mu - 6.0 * sig, 1e-3)
        return _config_grid(SWEEP_GRID_POINTS, [(lo, mu + 6.0 * sig)])


def _config_grid(points: int, bounds) -> QuadratureSpec:
    try:
        return grid_spec(points, bounds)
    except ValueError as err:  # a prior too narrow or too far out collapses the grid
        raise ConfigError(f"stereo grid: {err}") from None


def make_stereo(cfg: ExperimentConfig) -> StereoProblem:
    """Build the inverse-distance estimation problem from the config.

    The measurement is regenerated from the seed unless ``z`` pins it; a
    given ``x_true`` replaces the prior draw but keeps the seeded noise.
    """
    rng = np.random.default_rng(cfg.seed)
    x_true = cfg.x_true
    z = cfg.z
    try:
        if z is None:
            if x_true is None:
                x_true = float(rng.normal(cfg.mu_p, np.sqrt(cfg.s2_p)))
            z = float(cfg.f * cfg.b / x_true + rng.normal(0.0, np.sqrt(cfg.s2_r)))
        factor = stereo_factor(0, z, cfg.f, cfg.b, cfg.s2_r)
    except (ArithmeticError, ValueError) as err:
        raise ConfigError(f"stereo measurement: {err}") from None
    prior = gaussian_element([cfg.mu_p], [[cfg.s2_p]])
    measurement = factor.as_element()
    prior_measure = GaussianMeasure([cfg.mu_p], [[cfg.s2_p]])
    return StereoProblem(
        config=cfg, z=z, x_true=x_true, prior=prior, measurement=measurement,
        posterior=add(prior, measurement), prior_measure=prior_measure,
        density_grid=_config_grid(DENSITY_GRID_POINTS, default_grid_bounds(prior_measure)))


def _density_column(elem: BayesElement, spec: QuadratureSpec) -> np.ndarray:
    _, phi, _, log_z = _grid_density(elem, spec)
    return np.exp(-phi - log_z)


def _write_stereo(out: Path, problem: StereoProblem, experiment: str,
                  columns: Dict[str, np.ndarray], fields: Dict) -> Dict:
    """Write a stereo run's ``densities.csv`` (x, then ``columns``) and its
    ``summary.json`` (experiment, config, z, then ``fields``); return the summary."""
    x = trapezoid_points(problem.density_grid, 1)[0][:, 0]
    _write_csv(out / "densities.csv", ["x", *columns], [x, *columns.values()])
    summary = {"experiment": experiment, "config": dataclasses.asdict(problem.config),
               "z": problem.z, **fields}
    _write_summary(out / "summary.json", summary)
    return summary


def run_stereo_project(cfg: ExperimentConfig) -> Dict:
    """Project the posterior onto the Gaussian subspace under two measures."""
    out = _out_dir(cfg)
    problem = make_stereo(cfg)
    quad = gh_spec(cfg.nodes or 20)
    grid = problem.density_grid
    measures = {
        "prior_measure": problem.prior_measure,
        "informed_measure": GaussianMeasure([cfg.informed_mean], [[cfg.informed_var]]),
    }
    columns = {
        "prior": _density_column(problem.prior, grid),
        "posterior": _density_column(problem.posterior, grid),
    }
    scalars: Dict[str, float] = {} if problem.x_true is None else {"x_true": problem.x_true}
    not_normalizable: List[str] = []
    for name, nu in measures.items():
        proj = project_to_gaussian(problem.posterior, nu, quad)
        q = proj.to_element()
        try:  # both normalize q on the density grid, so they fail together
            columns[f"projection_{name}"] = _density_column(q, grid)
            scalars[f"kl_{name}"] = kl(q, problem.posterior, grid)
        except NotNormalizable:
            not_normalizable.append(name)
        scalars[f"divergence_{name}"] = information(
            subtract(problem.posterior, q), nu, problem.sweep_grid())
        scalars[f"mean_{name}"] = float(proj.mean_like[0])
        scalars[f"variance_{name}"] = float(1.0 / proj.info[0, 0])
    _create(out)
    return _write_stereo(out, problem, "stereo-project", columns,
                         {**scalars, "not_normalizable_measures": not_normalizable})


def _run_stereo_iteration(problem: StereoProblem, subspace, cfg: ExperimentConfig,
                          ) -> IterationTrace:
    opts = IterateOptions(
        tol=0.0 if cfg.tol is None else cfg.tol,
        max_iters=cfg.max_iters,
        quad=gh_spec(cfg.nodes or 20),
        kl_grid=problem.density_grid)
    return iterate(problem.posterior, subspace, problem.prior_measure, opts)


def run_stereo_iterate(cfg: ExperimentConfig) -> Dict:
    """Iterative projection onto the Gaussian subspace, starting at the prior."""
    out = _out_dir(cfg)
    problem = make_stereo(cfg)
    trace = _run_stereo_iteration(problem, GaussianSubspace(), cfg)

    grid = problem.density_grid
    columns = {"posterior": _density_column(problem.posterior, grid)}
    columns["iter_0"] = _density_column(problem.prior, grid)
    for i, est in enumerate(trace.estimates, start=1):
        columns[f"iter_{i}"] = _density_column(est, grid)
    _create(out)
    _write_csv(out / "series.csv",
               ["iteration", "kl", "divergence", "step_norm"],
               [range(1, trace.iterations + 1), trace.kl, trace.divergence,
                trace.step_norm])
    return _write_stereo(out, problem, "stereo-iterate", columns, {
        "iterations": trace.iterations,
        "converged": trace.converged,
        "non_monotone_kl": trace.non_monotone_kl,
        "kl_series": [float(v) for v in trace.kl],
        "final_mean": float(trace.gaussians[-1].mean_like[0]),
        "final_variance": float(trace.covariances[-1][0, 0]),
    })


def run_hermite_sweep(cfg: ExperimentConfig) -> Dict:
    """Project the posterior onto Hermite bases of increasing size.

    The divergence series is measure-weighted, so it is defined for every
    truncation; densities are only emitted for truncations that are valid
    PDFs (odd cutoffs typically diverge in a tail and are reported as
    non-normalizable instead).
    """
    out = _out_dir(cfg)
    problem = make_stereo(cfg)
    sweep_quad = problem.sweep_grid()
    grid = problem.density_grid

    orders = list(range(2, (cfg.basis or 6) + 1))
    columns = {"posterior": _density_column(problem.posterior, grid)}
    divergences: List[float] = []
    not_normalizable: List[int] = []
    for m in orders:
        basis = HermiteBasis1D(m, problem.prior_measure)
        alpha = project(problem.posterior, basis, problem.prior_measure, sweep_quad)
        q = reconstruct(alpha, basis)
        divergences.append(information(subtract(problem.posterior, q),
                                       problem.prior_measure, sweep_quad))
        try:
            columns[f"basis_{m}"] = _density_column(q, grid)
        except NotNormalizable:
            not_normalizable.append(m)

    _create(out)
    _write_csv(out / "divergence.csv", ["basis_functions", "divergence"],
               [orders, divergences])
    return _write_stereo(out, problem, "hermite-sweep", columns, {
        "orders": orders,
        "divergence": [float(v) for v in divergences],
        "strictly_decreasing": bool(np.all(np.diff(divergences) < 0)),
        "not_normalizable_orders": not_normalizable,
    })


def run_hermite_iterate(cfg: ExperimentConfig) -> Dict:
    """Iterative projection with two and with ``basis`` Hermite functions.

    The two-function span is exactly the Gaussian subspace, so that case
    runs the identical algorithm path as the stereo iteration; larger bases
    project the running estimate back to a Gaussian for the measure update.
    """
    out = _out_dir(cfg)
    problem = make_stereo(cfg)
    order = cfg.basis or 4
    trace2 = _run_stereo_iteration(problem, GaussianSubspace(), cfg)
    trace_m = _run_stereo_iteration(problem, HermiteSubspace(order), cfg)

    grid = problem.density_grid
    columns = {
        "posterior": _density_column(problem.posterior, grid),
        "final_m2": _density_column(trace2.estimates[-1], grid),
        f"final_m{order}": _density_column(trace_m.estimates[-1], grid),
    }
    n = max(trace2.iterations, trace_m.iterations)
    _create(out)
    _write_csv(out / "series.csv", ["iteration", "kl_m2", f"kl_m{order}"],
               [range(1, n + 1), _padded(trace2.kl, n), _padded(trace_m.kl, n)])
    return _write_stereo(out, problem, "hermite-iterate", columns, {
        "kl_m2": [float(v) for v in trace2.kl],
        f"kl_m{order}": [float(v) for v in trace_m.kl],
        "final_kl_m2": float(trace2.kl[-1]),
        f"final_kl_m{order}": float(trace_m.kl[-1]),
        "higher_basis_wins": bool(trace_m.kl[-1] < trace2.kl[-1]),
    })


# ---------------------------------------------------------------------------
# Synthetic SLAM chain
# ---------------------------------------------------------------------------

def make_chain(cfg: ExperimentConfig, trial: int = 0,
               ) -> Tuple[FactorGraph, np.ndarray, GaussianState]:
    """Simulate one chain trial: graph, ground truth, and the initial state.

    Poses advance one unit per step; landmarks sit beyond the final pose so
    the range model stays one-sided.  The initial estimate dead-reckons the
    odometry and inverts the first range measurement per landmark, with
    covariance inflated fourfold.
    """
    rng = np.random.default_rng((cfg.seed, trial))
    np_, nl = cfg.n_poses, cfg.n_landmarks
    s0, su, sr, h = cfg.prior_sigma, cfg.odom_sigma, cfg.range_sigma, cfg.range_offset
    land_true = np_ + 2.0 + 2.0 * np.arange(nl)
    poses_true = rng.normal(0.0, s0) + np.arange(np_, dtype=float)

    # One vector draw per noise source gives the same stream, in the same
    # order, as one scalar draw per measurement.
    odometry = 1.0 + rng.normal(0.0, su, np_ - 1)
    d = land_true[None, :] - poses_true[:, None]
    ranges = (d if cfg.linear else np.sqrt(d * d + h * h)) + rng.normal(0.0, sr, (np_, nl))

    # Graph order: the prior, the odometry chain, then the measurements pose
    # by pose; a linear measurement is an odom factor.
    try:
        blocks = [("prior", [[0]], [[0.0, s0**2]]),
                  ("odom", np.column_stack([np.arange(np_ - 1), np.arange(1, np_)]),
                   np.column_stack([odometry, np.full(np_ - 1, su**2)]))]
        if nl:
            z = ranges.ravel()
            params = [z, np.full(z.size, sr**2)] + ([] if cfg.linear else [np.full(z.size, h)])
            blocks.append(("odom" if cfg.linear else "range",
                           np.column_stack([np.repeat(np.arange(np_), nl),
                                            np_ + np.tile(np.arange(nl), np_)]),
                           np.column_stack(params)))
        graph = FactorGraph.from_blocks(np_ + nl, blocks)
    except (ArithmeticError, ValueError) as err:
        raise ConfigError(f"chain factor: {err}") from None
    truth = np.concatenate([poses_true, land_true])

    mean = np.zeros(np_ + nl)
    mean[1:np_] = np.cumsum(odometry)
    z0 = ranges[0]
    with np.errstate(over="ignore"):  # an infinite start fails GVI's finiteness checks
        mean[np_:] = z0 if cfg.linear else np.sqrt(np.maximum(z0 * z0 - h * h, h * h))
    var = np.concatenate([s0**2 + np.arange(np_) * su**2, np.full(nl, 1.0)])
    info = np.diag(1.0 / (4.0 * var))
    return graph, truth, GaussianState(mean, info)


def _solve_chain(graph, init, cfg: ExperimentConfig, nodes: int,
                 record_loss: bool) -> IterationTrace:
    opts = GviOptions(
        tol=1e-8 if cfg.tol is None else cfg.tol,
        max_iters=cfg.max_iters,
        quad=gh_spec(nodes),
        record_loss=record_loss)
    return gvi_sparse_solve(graph, init, opts)


def run_gvi_demo(cfg: ExperimentConfig) -> Dict:
    """Sparse Gaussian variational inference on the synthetic chain.

    Runs the factor-decomposed solver against a MAP Gauss-Newton baseline
    (same loop with expectations collapsed to point evaluations at the
    mean).  With ``trials`` > 1, repeats the simulation for Monte-Carlo
    consistency statistics; files always describe trial 0.
    """
    out = _out_dir(cfg)
    started = time.perf_counter()

    n = cfg.n_poses + cfg.n_landmarks
    inside = {"esgvi": 0, "map_gn": 0}
    total = 0
    max_iterations = 0
    all_converged = True
    for trial in range(cfg.trials):
        graph, truth, init = make_chain(cfg, trial)
        tr_vi = _solve_chain(graph, init, cfg, cfg.nodes or 10, record_loss=(trial == 0))
        tr_map = _solve_chain(graph, init, cfg, 1, record_loss=(trial == 0))
        max_iterations = max(max_iterations, tr_vi.iterations)
        all_converged = all_converged and tr_vi.converged
        columns = []  # mean, error and 3 sigma of each solver's estimate
        for name, tr in (("esgvi", tr_vi), ("map_gn", tr_map)):
            err = tr.coordinates[-1] - truth
            sigma3 = 3.0 * np.sqrt(np.diag(tr.covariances[-1]))
            inside[name] += int(np.sum(np.abs(err) <= sigma3))
            columns += [tr.coordinates[-1], err, sigma3]
        total += n
        if trial == 0:
            first = (graph, truth, tr_vi, tr_map, columns)
    runtime = time.perf_counter() - started

    graph, truth, tr_vi, tr_map, columns = first
    _create(out)
    write_new_text(out / "graph.txt", dumps_graph(graph))
    kinds = ["pose"] * cfg.n_poses + ["landmark"] * cfg.n_landmarks
    _write_csv(out / "errors.csv",
               ["variable", "kind", "truth",
                "esgvi_mean", "esgvi_error", "esgvi_sigma3",
                "map_mean", "map_error", "map_sigma3"],
               [range(n), kinds, truth, *columns])

    iters = max(tr_vi.iterations, tr_map.iterations)
    _write_csv(out / "series.csv",
               ["iteration", "esgvi_step_norm", "esgvi_loss",
                "map_step_norm", "map_loss"],
               [range(1, iters + 1), _padded(tr_vi.step_norm, iters), _padded(tr_vi.kl, iters),
                _padded(tr_map.step_norm, iters), _padded(tr_map.kl, iters)])

    summary = {
        "experiment": "gvi-demo",
        "config": dataclasses.asdict(cfg),
        "trials": cfg.trials,
        "esgvi_iterations": tr_vi.iterations,
        "esgvi_converged": tr_vi.converged,
        "map_iterations": tr_map.iterations,
        "max_iterations": max_iterations,
        "all_converged": all_converged,
        "containment_esgvi": inside["esgvi"] / total,
        "containment_map_gn": inside["map_gn"] / total,
    }
    _write_summary(out / "summary.json", summary)
    summary["runtime_seconds"] = runtime  # returned, never written
    return summary
