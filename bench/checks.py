"""Output checks made apart from the program.

Every check reads the files an op wrote and recomputes what they must hold
with numpy alone: its own Gauss-Hermite rule (``hermegauss``), its own
factor formulas and its own graph parser.  Nothing here imports
``bayespace``.  Each check returns a list of problems; an empty list means
the outputs are correct.

The checks run in a child process (``Checker``, which runs this file), so
that their arrays stay out of the measured process's peak resident set.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

STEREO_NODES = 20
CHAIN_NODES = 10
DENSITY_GRID_POINTS = 2001
GRID_SPAN_SIGMAS = 8.0
EDGE_DECAY = 1e-6             # the program's normalizability threshold
SCREEN_MARGIN = 100.0         # seeds within this factor of it are not drawn
STATIONARITY_TOL = 5e-3       # after 10 iterations: < 6e-5 on drawn seeds, 1e-3 on seed 59
CHAIN_MEAN_TOL = 1e-7
CHAIN_SIGMA_RTOL = 1e-7
MAP_GRAD_TOL = 1e-7
WLS_TOL = 1e-9


def _gh(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Probabilists' Gauss-Hermite nodes and weights summing to one."""
    xi, w = hermegauss(n)
    return xi, w / np.sqrt(2.0 * np.pi)


def _columns(path: Path) -> Dict[str, np.ndarray]:
    """The numeric columns of a CSV file by header name; text columns are left out."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        first = fh.readline().rstrip("\n").split(",")
    numeric = [k for k, value in enumerate(first) if _is_number(value)]
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=numeric, ndmin=2)
    return {header[k]: data[:, c] for c, k in enumerate(numeric)}


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _summary(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Stereo problem: prior N(mu_p, s2_p) times the likelihood of z = f b / x + noise
# ---------------------------------------------------------------------------

def stereo_z(cfg: dict) -> float:
    """The measurement a seed generates: prior draw of x, then camera noise."""
    rng = np.random.default_rng(cfg["seed"])
    x_true = rng.normal(cfg["mu_p"], np.sqrt(cfg["s2_p"]))
    return float(cfg["f"] * cfg["b"] / x_true + rng.normal(0.0, np.sqrt(cfg["s2_r"])))


def _stereo_phi(cfg: dict, z: float, x: np.ndarray) -> np.ndarray:
    fb = cfg["f"] * cfg["b"]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return (0.5 * (x - cfg["mu_p"]) ** 2 / cfg["s2_p"]
                + 0.5 * (z - fb / x) ** 2 / cfg["s2_r"])


def _stereo_derivatives(cfg: dict, z: float, x: np.ndarray):
    fb = cfg["f"] * cfg["b"]
    resid = z - fb / x
    d1 = (x - cfg["mu_p"]) / cfg["s2_p"] + resid * (fb / x**2) / cfg["s2_r"]
    d2 = 1.0 / cfg["s2_p"] + ((fb / x**2) ** 2 - 2.0 * resid * fb / x**3) / cfg["s2_r"]
    return d1, d2


def _expected_derivatives(cfg: dict, z: float, mean: float, var: float):
    xi, w = _gh(cfg["nodes"] or STEREO_NODES)
    d1, d2 = _stereo_derivatives(cfg, z, mean + np.sqrt(var) * xi)
    return float(w @ d1), float(w @ d2)


def stereo_projection(cfg: dict, z: float, mean: float, var: float) -> Tuple[float, float]:
    """Mean and variance of the Gaussian projection of the posterior under N(mean, var).

    The projected information is E[phi''] and the mean moves by -E[phi']/E[phi''].
    """
    g, h = _expected_derivatives(cfg, z, mean, var)
    return mean - g / h, 1.0 / h


def density_grid(cfg: dict) -> np.ndarray:
    sig = np.sqrt(cfg["s2_p"])
    return np.linspace(cfg["mu_p"] - GRID_SPAN_SIGMAS * sig,
                       cfg["mu_p"] + GRID_SPAN_SIGMAS * sig, DENSITY_GRID_POINTS)


def stereo_edge_ratio(cfg: dict) -> float:
    """Largest edge-to-peak density ratio of the two projections on the density grid.

    ``stereo-project`` raises ``NotNormalizable`` when this exceeds 1e-6;
    a projection that is not a valid Gaussian counts as infinite.
    """
    z = stereo_z(cfg)
    x = density_grid(cfg)
    worst = 0.0
    for mean, var in ((cfg["mu_p"], cfg["s2_p"]), (cfg["informed_mean"], cfg["informed_var"])):
        m, v = stereo_projection(cfg, z, mean, var)
        if not v > 0:
            return float("inf")
        phi = 0.5 * (x - m) ** 2 / v
        dens = np.exp(-(phi - phi.min()))
        worst = max(worst, dens[0], dens[-1])
    return worst


def stereo_seed_is_clear(cfg: dict) -> bool:
    """True when ``stereo-project`` stays a factor SCREEN_MARGIN clear of its fault."""
    return stereo_edge_ratio(cfg) * SCREEN_MARGIN <= EDGE_DECAY


def _check_echo(problems: List[str], summary: dict, cfg: dict, z_expected: float):
    echo = summary.get("config", {})
    if echo.get("seed") != cfg["seed"]:
        problems.append(f"summary seed {echo.get('seed')} != {cfg['seed']}")
    if summary.get("z") != z_expected:
        problems.append(f"summary z {summary.get('z')!r} != drawn {z_expected!r}")


def _check_densities(problems: List[str], path: Path, cfg: dict) -> Dict[str, np.ndarray]:
    cols = _columns(path)
    x = cols.pop("x")
    if x.size != DENSITY_GRID_POINTS or np.abs(x - density_grid(cfg)).max() > 1e-9:
        problems.append(f"{path.name}: x column is not the prior +/- 8 sigma grid")
        return cols
    for name, dens in cols.items():
        mass = np.trapezoid(dens, x)
        if not abs(mass - 1.0) <= 1e-9:
            problems.append(f"{path.name}: column {name} integrates to {mass!r}")
    return cols


def check_stereo_project(out: Path, cfg: dict) -> List[str]:
    problems: List[str] = []
    summary = _summary(out / "summary.json")
    z = stereo_z(cfg)
    _check_echo(problems, summary, cfg, z)
    cols = _check_densities(problems, out / "densities.csv", cfg)
    if "posterior" in cols:
        x = density_grid(cfg)
        phi = _stereo_phi(cfg, z, x)
        dens = np.exp(-(phi - phi.min()))
        dens /= np.trapezoid(dens, x)
        err = np.abs(cols["posterior"] - dens).max()
        if not err <= 1e-9 * dens.max():
            problems.append(f"posterior column differs from prior x likelihood by {err:.3g}")
    for name, (mean, var) in (("prior_measure", (cfg["mu_p"], cfg["s2_p"])),
                              ("informed_measure", (cfg["informed_mean"], cfg["informed_var"]))):
        m, v = stereo_projection(cfg, z, mean, var)
        got_m, got_v = summary.get(f"mean_{name}"), summary.get(f"variance_{name}")
        if not (abs(got_m - m) <= 1e-9 * abs(m) and abs(got_v - v) <= 1e-9 * abs(v)):
            problems.append(f"projection under {name}: ({got_m}, {got_v}) != ({m}, {v})")
    return problems


def check_stereo_iterate(out: Path, cfg: dict) -> List[str]:
    """The final Gaussian q satisfies E_q[phi'] = 0 and E_q[phi''] = 1/var."""
    problems: List[str] = []
    summary = _summary(out / "summary.json")
    z = stereo_z(cfg)
    _check_echo(problems, summary, cfg, z)
    _check_densities(problems, out / "densities.csv", cfg)
    mean, var = summary["final_mean"], summary["final_variance"]
    g, h = _expected_derivatives(cfg, z, mean, var)
    r1, r2 = abs(g) * np.sqrt(var), abs(h * var - 1.0)
    if not max(r1, r2) <= STATIONARITY_TOL:
        problems.append(f"stereo-iterate not stationary: |E[phi']| sigma = {r1:.3g}, "
                        f"|E[phi''] var - 1| = {r2:.3g}")
    return problems


def check_hermite_sweep(out: Path, cfg: dict) -> List[str]:
    """Nested subspaces under one measure: the divergence never grows with the basis."""
    problems: List[str] = []
    _check_echo(problems, _summary(out / "summary.json"), cfg, stereo_z(cfg))
    _check_densities(problems, out / "densities.csv", cfg)
    div = _columns(out / "divergence.csv")["divergence"]
    if div.size < 1 or not np.all(np.diff(div) <= 1e-12 * np.abs(div[:-1])):
        problems.append(f"hermite-sweep divergence grows with basis size: {div.tolist()}")
    return problems


def check_hermite_iterate(out: Path, cfg: dict) -> List[str]:
    """The larger basis contains the Gaussian one, so its final KL is no larger."""
    problems: List[str] = []
    summary = _summary(out / "summary.json")
    _check_echo(problems, summary, cfg, stereo_z(cfg))
    _check_densities(problems, out / "densities.csv", cfg)
    order = cfg["basis"] or 4
    kl2, klm = summary["final_kl_m2"], summary[f"final_kl_m{order}"]
    if not klm <= kl2 + 1e-12 * abs(kl2):
        problems.append(f"hermite-iterate: final KL with {order} functions {klm} > with 2 {kl2}")
    return problems


STEREO_CHECKS = {
    "stereo-project": check_stereo_project,
    "stereo-iterate": check_stereo_iterate,
    "hermite-sweep": check_hermite_sweep,
    "hermite-iterate": check_hermite_iterate,
}


# ---------------------------------------------------------------------------
# Pose/landmark chain
# ---------------------------------------------------------------------------

class Graph:
    """Factors of ``graph.txt`` grouped by kind, parsed without the program."""

    def __init__(self, text: str):
        self.n = None
        rows: Dict[str, list] = {"prior": [], "odom": [], "range": []}
        for line in text.splitlines():
            line = line.split("#", 1)[0].split()
            if not line:
                continue
            if line[0] == "VAR":
                self.n = int(line[1])
            elif line[0] == "FACTOR" and line[1] in rows:
                rows[line[1]].append([float(t) for t in line[2:]])
            else:
                raise ValueError(f"unexpected graph record {line[:2]}")
        if self.n is None:
            raise ValueError("graph has no VAR record")
        prior = np.array(rows["prior"]).reshape(-1, 3)
        odom = np.array(rows["odom"]).reshape(-1, 4)
        rng = np.array(rows["range"]).reshape(-1, 5)
        self.prior_i, self.prior_m, self.prior_v = prior[:, 0].astype(int), prior[:, 1], prior[:, 2]
        self.odom_ij, self.odom_u, self.odom_v = odom[:, :2].astype(int), odom[:, 2], odom[:, 3]
        self.range_ij, self.range_z = rng[:, :2].astype(int), rng[:, 2]
        self.range_v, self.range_h = rng[:, 3], rng[:, 4]

    def expectations(self, mean: np.ndarray, cov: np.ndarray, nodes: int):
        """Summed E[grad phi_k], E[hess phi_k] under each factor's Gaussian marginal."""
        n = self.n
        g = np.zeros(n)
        h = np.zeros((n, n))
        i = self.prior_i
        np.add.at(g, i, (mean[i] - self.prior_m) / self.prior_v)
        np.add.at(h, (i, i), 1.0 / self.prior_v)
        i, j = self.odom_ij.T
        e = (mean[j] - mean[i] - self.odom_u) / self.odom_v
        self._scatter_pair(g, h, i, j, e, 1.0 / self.odom_v)
        if self.range_z.size:
            i, j = self.range_ij.T
            d, w = self._pair_difference_nodes(mean, cov, i, j, nodes)
            hh = self.range_h[:, None] ** 2
            r = np.sqrt(d * d + hh)
            resid = self.range_z[:, None] - r
            v = self.range_v[:, None]
            dphi = -resid * (d / r) / v
            d2phi = ((d / r) ** 2 - resid * hh / r**3) / v
            self._scatter_pair(g, h, i, j, dphi @ w, d2phi @ w)
        return g, h

    @staticmethod
    def _pair_difference_nodes(mean, cov, i, j, nodes):
        """x_j - x_i at the tensor Gauss-Hermite nodes of each (x_i, x_j) marginal,
        placed through the lower Cholesky factor; one node is the mean itself."""
        if nodes == 1:
            return (mean[j] - mean[i])[:, None], np.ones(1)
        xi1, w1 = _gh(nodes)
        xi = np.stack(np.meshgrid(xi1, xi1, indexing="ij"), -1).reshape(-1, 2)
        w = np.multiply.outer(w1, w1).ravel()
        l11 = np.sqrt(cov[i, i])
        l21 = cov[j, i] / l11
        l22 = np.sqrt(cov[j, j] - l21 * l21)
        xa = mean[i][:, None] + l11[:, None] * xi[:, 0]
        xb = mean[j][:, None] + l21[:, None] * xi[:, 0] + l22[:, None] * xi[:, 1]
        return xb - xa, w

    @staticmethod
    def _scatter_pair(g, h, i, j, gd, hd):
        """Add a factor of x_j - x_i with derivative gd and curvature hd."""
        np.add.at(g, i, -gd)
        np.add.at(g, j, gd)
        np.add.at(h, (i, i), hd)
        np.add.at(h, (j, j), hd)
        np.add.at(h, (i, j), -hd)
        np.add.at(h, (j, i), -hd)

    def is_linear(self) -> bool:
        return self.range_z.size == 0


def gvi_fixed_point(graph: Graph, mean: np.ndarray, nodes: int = CHAIN_NODES,
                    tol: float = 1e-12, max_iters: int = 50):
    """Dense Gaussian variational fixed point: info = E[hess], E[grad] = 0.

    Starts from ``mean`` with the Hessian of the summed phi there (the
    one-node rule) as information and iterates the full-covariance update.
    """
    _, info = graph.expectations(mean, np.zeros((graph.n, graph.n)), 1)
    for _ in range(max_iters):
        cov = np.linalg.inv(info)
        g, info = graph.expectations(mean, cov, nodes)
        step = np.linalg.solve(info, -g)
        mean = mean + step
        if np.abs(step).max() < tol:
            break
    return mean, np.linalg.inv(info)


def check_chain(out: Path, cfg: dict) -> List[str]:
    problems: List[str] = []
    summary = _summary(out / "summary.json")
    if summary.get("config", {}).get("seed") != cfg["seed"]:
        problems.append(f"summary seed {summary.get('config', {}).get('seed')} != {cfg['seed']}")
    graph = Graph((out / "graph.txt").read_text(encoding="utf-8"))
    expected_n = cfg["n_poses"] + cfg["n_landmarks"]
    expected_factors = 1 + (cfg["n_poses"] - 1) + cfg["n_poses"] * cfg["n_landmarks"]
    n_factors = graph.prior_i.size + graph.odom_u.size + graph.range_z.size
    if graph.n != expected_n or n_factors != expected_factors:
        problems.append(f"graph has {graph.n} variables and {n_factors} factors, "
                        f"expected {expected_n} and {expected_factors}")
        return problems
    cols = _columns(out / "errors.csv")
    for name in ("esgvi", "map"):
        if np.abs(cols[f"{name}_mean"] - cols["truth"] - cols[f"{name}_error"]).max() > 1e-9:
            problems.append(f"{name}_error is not {name}_mean - truth")

    vi_mean, vi_cov = gvi_fixed_point(graph, cols["esgvi_mean"])
    err = np.abs(vi_mean - cols["esgvi_mean"]).max()
    if not err <= CHAIN_MEAN_TOL:
        problems.append(f"ESGVI mean is {err:.3g} from the dense GVI fixed point")
    sig3 = 3.0 * np.sqrt(np.diag(vi_cov))
    rel = np.abs(sig3 / cols["esgvi_sigma3"] - 1.0).max()
    if not rel <= CHAIN_SIGMA_RTOL:
        problems.append(f"ESGVI 3 sigma is {rel:.3g} (relative) from the dense fixed point")

    g, _ = graph.expectations(cols["map_mean"], np.zeros((graph.n, graph.n)), 1)
    if not np.abs(g).max() <= MAP_GRAD_TOL:
        problems.append(f"MAP mean leaves a gradient of {np.abs(g).max():.3g}")

    if graph.is_linear():
        # Linear factors: both solves must give the weighted least-squares posterior.
        g0, info = graph.expectations(np.zeros(graph.n), np.zeros((graph.n, graph.n)), 1)
        wls_mean = np.linalg.solve(info, -g0)
        wls_sig3 = 3.0 * np.sqrt(np.diag(np.linalg.inv(info)))
        for name in ("esgvi", "map"):
            dm = np.abs(cols[f"{name}_mean"] - wls_mean).max()
            ds = np.abs(cols[f"{name}_sigma3"] / wls_sig3 - 1.0).max()
            if not (dm <= WLS_TOL and ds <= WLS_TOL):
                problems.append(f"{name} differs from the least-squares posterior: "
                                f"mean {dm:.3g}, 3 sigma {ds:.3g} (relative)")
    return problems


CHECKS = {**STEREO_CHECKS, "gvi-demo": check_chain}
CHECKER_EXIT_TIMEOUT_S = 30


class Checker:
    """The checks, run one at a time in a child process that runs this file.

    Each call sends one request line, ``[command, output directory,
    configuration]``, and waits for the list of problems.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline() != "ready\n":
            self.close()
            raise SystemExit("bench: the checker process did not start")

    def __call__(self, cmd: str, out: Path, cfg: dict) -> List[str]:
        self.proc.stdin.write(json.dumps([cmd, str(out), cfg]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("bench: the checker process ended")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHECKER_EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve():
    """Answer check requests from stdin until it closes."""
    print("ready", flush=True)
    for line in sys.stdin:
        cmd, out, cfg = json.loads(line)
        try:
            problems = CHECKS[cmd](Path(out), cfg)
        except Exception as err:  # a check that cannot run is a failed check
            problems = [f"check raised {type(err).__name__}: {err}"]
        print(json.dumps(problems), flush=True)


if __name__ == "__main__":
    serve()
