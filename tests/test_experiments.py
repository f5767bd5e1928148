"""Experiment harness and CLI: outputs, determinism, and exit codes."""

import dataclasses
import hashlib
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bayespace.cli import main
from bayespace.errors import ConfigError
from bayespace import experiments
from bayespace.experiments import (ExperimentConfig, _fmt, _padded, _solve_chain, _write_csv,
                                   make_chain, run_gvi_demo,
                                   run_hermite_iterate, run_hermite_sweep,
                                   run_stereo_iterate, run_stereo_project)
from bayespace.graphio import dumps_graph
from bayespace.variational import GaussianSubspace

PINNED_DENSITIES_SHA256 = "3bbfb66963fecee1cb283f925d877ac319e16125a704f66b709ef7146ab95c17"

# make_chain's seeded draws for seed 7, 4 poses and 2 landmarks.
PINNED_CHAIN_GRAPH = """\
VAR 6
FACTOR prior 0 0.0 1.0
FACTOR odom 0 1 1.029874553750847 0.010000000000000002
FACTOR odom 1 2 0.9725862144637782 0.010000000000000002
FACTOR odom 2 3 0.9109408161242726 0.010000000000000002
FACTOR range 0 4 6.096052913772327 0.25 2.0
FACTOR range 0 5 7.749194555081487 0.25 2.0
FACTOR range 1 4 5.414094459098597 0.25 2.0
FACTOR range 1 5 7.949034697990517 0.25 2.0
FACTOR range 2 4 4.224932446958118 0.25 2.0
FACTOR range 2 5 6.013150856448219 0.25 2.0
FACTOR range 3 4 3.8494488156821496 0.25 2.0
FACTOR range 3 5 5.562466161879908 0.25 2.0
"""
PINNED_LINEAR_CHAIN_GRAPH = """\
VAR 6
FACTOR prior 0 0.0 1.0
FACTOR odom 0 1 1.029874553750847 0.010000000000000002
FACTOR odom 1 2 0.9725862144637782 0.010000000000000002
FACTOR odom 2 3 0.9109408161242726 0.010000000000000002
FACTOR odom 0 4 5.771434454056656 0.25
FACTOR odom 0 5 7.502946569144286 0.25
FACTOR odom 1 4 5.028841647941237 0.25
FACTOR odom 1 5 7.668877469419784 0.25
FACTOR odom 2 4 3.7526665873668525 0.25
FACTOR odom 2 5 5.688532396732547 0.25
FACTOR odom 3 4 3.2436908717351165 0.25
FACTOR odom 3 5 5.177213350722548 0.25
"""


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    cols = {}
    for i, name in enumerate(header):
        vals = [row[i] for row in rows]
        try:
            cols[name] = np.array([float(v) for v in vals])
        except ValueError:
            cols[name] = np.array(vals)
    return cols


def read_summary(out: Path, **loads) -> dict:
    """``out``'s summary.json, which must be its own canonical JSON text."""
    text = (out / "summary.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    return json.loads(text, **loads)


def densities_integrate_to_one(path):
    cols = read_csv(path)
    x = cols.pop("x")
    for name, values in cols.items():
        if np.issubdtype(values.dtype, np.floating):
            assert np.trapezoid(values, x) == pytest.approx(1.0, abs=1e-6), name


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(nodes=65).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(basis=7).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(s2_r=-1.0).validate()

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("seed = 9\nmu_p = 21.5\nlinear = true\n# comment\n")
        cfg = ExperimentConfig.from_file(path)
        assert cfg.seed == 9 and cfg.mu_p == 21.5 and cfg.linear is True

    def test_from_file_line_without_equals_exits_2_naming_its_line(self, tmp_path, capsys):
        path = tmp_path / "cfg"
        path.write_text("seed 3\n")
        code = main(["gvi-demo", "--out", str(tmp_path / "out"), "--config", str(path)])
        assert code == 2
        assert capsys.readouterr().err == f"bh: configuration error: {path}:1: expected key=value\n"

    def test_from_file_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("sigma = 3\n")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)


class TestStereoProject:
    def test_informed_measure_wins(self, tmp_path):
        summary = run_stereo_project(ExperimentConfig(out_dir=str(tmp_path)))
        assert summary["kl_informed_measure"] < summary["kl_prior_measure"]
        densities_integrate_to_one(tmp_path / "densities.csv")

    def test_uninformative_measurement_returns_prior(self, tmp_path):
        cfg = ExperimentConfig(out_dir=str(tmp_path), s2_r=1e12)
        run_stereo_project(cfg)
        cols = read_csv(tmp_path / "densities.csv")
        assert np.abs(cols["posterior"] - cols["prior"]).max() < 1e-6
        assert np.abs(cols["projection_prior_measure"] - cols["prior"]).max() < 1e-6

    def test_pinned_hash_for_seeded_measurement(self, tmp_path):
        cfg = ExperimentConfig(out_dir=str(tmp_path), seed=1, x_true=22.0)
        run_stereo_project(cfg)
        digest = hashlib.sha256((tmp_path / "densities.csv").read_bytes()).hexdigest()
        assert digest == PINNED_DENSITIES_SHA256

    def test_projection_without_decay_on_the_grid_is_listed(self, tmp_path):
        # Seed 76 draws z past 2.7: the informed-measure projection keeps
        # more than 1e-6 of its peak at the grid's low edge, so it has no
        # density column and no KL, while its divergence and moments stay.
        summary = run_stereo_project(ExperimentConfig(out_dir=str(tmp_path), seed=76))
        assert summary["not_normalizable_measures"] == ["informed_measure"]
        assert "kl_informed_measure" not in summary and "kl_prior_measure" in summary
        for key in ("divergence", "mean", "variance"):
            assert np.isfinite(summary[f"{key}_informed_measure"])
        written = json.loads((tmp_path / "summary.json").read_text())
        assert written["not_normalizable_measures"] == ["informed_measure"]
        cols = read_csv(tmp_path / "densities.csv")
        assert list(cols) == ["x", "prior", "posterior", "projection_prior_measure"]
        densities_integrate_to_one(tmp_path / "densities.csv")

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_stereo_project(ExperimentConfig(out_dir=str(out), seed=5))
        assert (a / "densities.csv").read_bytes() == (b / "densities.csv").read_bytes()
        sa = json.loads((a / "summary.json").read_text())
        sb = json.loads((b / "summary.json").read_text())
        sa["config"].pop("out_dir"), sb["config"].pop("out_dir")
        assert sa == sb


class TestStereoIterate:
    def test_kl_plateau(self, tmp_path):
        summary = run_stereo_iterate(ExperimentConfig(out_dir=str(tmp_path)))
        series = summary["kl_series"]
        assert len(series) == 10
        assert abs(series[5] - series[-1]) <= 0.01 * series[-1]
        densities_integrate_to_one(tmp_path / "densities.csv")

    def test_single_iteration_matches_projection_run(self, tmp_path):
        cfg_it = ExperimentConfig(out_dir=str(tmp_path / "it"), max_iters=1)
        run_stereo_iterate(cfg_it)
        cfg_pr = ExperimentConfig(out_dir=str(tmp_path / "pr"))
        run_stereo_project(cfg_pr)
        it = read_csv(tmp_path / "it" / "densities.csv")
        pr = read_csv(tmp_path / "pr" / "densities.csv")
        # both are the projection under the prior measure (matching measures)
        assert np.abs(it["iter_1"] - pr["projection_prior_measure"]).max() < 1e-12


class TestHermiteSweep:
    def test_divergence_strictly_decreasing(self, tmp_path):
        summary = run_hermite_sweep(ExperimentConfig(out_dir=str(tmp_path), basis=6))
        div = summary["divergence"]
        assert summary["strictly_decreasing"]
        assert div[-1] / div[0] < 0.1
        densities_integrate_to_one(tmp_path / "densities.csv")

    def test_two_function_case_matches_gaussian_projection(self, tmp_path, stereo):
        from bayespace.elements import equivalent, normalize
        from bayespace.gaussian import gaussian_basis, project_to_gaussian
        from bayespace.hermite import HermiteBasis1D
        from bayespace.quadrature import gh_spec
        from bayespace.oracles import kernel_apply
        from bayespace.variational import reporting_grid

        # same span, same measure, same quadrature: identical projections
        quad = stereo.sweep_grid()
        via_hermite = kernel_apply(HermiteBasis1D(2, stereo.prior_measure),
                                   stereo.prior_measure, stereo.posterior, quad)
        via_gaussian = kernel_apply(gaussian_basis(stereo.prior_measure),
                                    stereo.prior_measure, stereo.posterior, quad)
        pts = np.linspace(8.0, 34.0, 64)[:, None]
        assert equivalent(via_hermite, via_gaussian, points=pts, rtol=1e-10)

        # emitted densities track the derivative-route projection closely;
        # the rules regularize the inverse-distance tail slightly differently
        run_hermite_sweep(ExperimentConfig(out_dir=str(tmp_path), basis=2))
        cols = read_csv(tmp_path / "densities.csv")
        proj = project_to_gaussian(stereo.posterior, stereo.prior_measure, gh_spec(20))
        _, dens = normalize(proj.to_element(), reporting_grid(stereo.prior_measure))
        assert np.abs(cols["basis_2"] - dens(cols["x"][:, None])).max() < 1e-3

    def test_gaussian_posterior_projects_exactly(self, tmp_path):
        cfg = ExperimentConfig(out_dir=str(tmp_path), s2_r=1e12, basis=3)
        summary = run_hermite_sweep(cfg)
        assert summary["divergence"][0] < 1e-8

    def test_a_tie_is_not_strictly_decreasing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "information", lambda *args: 0.5)
        summary = run_hermite_sweep(ExperimentConfig(out_dir=str(tmp_path), basis=3))
        assert summary["divergence"] == [0.5, 0.5]
        assert summary["strictly_decreasing"] is False


class TestHermiteIterate:
    def test_four_function_estimate_wins(self, tmp_path):
        summary = run_hermite_iterate(ExperimentConfig(out_dir=str(tmp_path)))
        assert summary["higher_basis_wins"]
        assert summary["final_kl_m4"] < summary["final_kl_m2"]
        assert np.isfinite(summary["kl_m2"]).all() and np.isfinite(summary["kl_m4"]).all()
        assert len(summary["kl_m2"]) == len(summary["kl_m4"]) == 10
        densities_integrate_to_one(tmp_path / "densities.csv")

    def test_a_tie_is_not_a_win(self, tmp_path, monkeypatch):
        # both runs take the Gaussian subspace, so their final KLs are equal
        run = experiments._run_stereo_iteration
        monkeypatch.setattr(experiments, "_run_stereo_iteration",
                            lambda problem, subspace, cfg: run(problem, GaussianSubspace(), cfg))
        summary = run_hermite_iterate(ExperimentConfig(out_dir=str(tmp_path), max_iters=3))
        assert summary["final_kl_m4"] == summary["final_kl_m2"]
        assert summary["higher_basis_wins"] is False

    def test_two_function_series_equals_stereo_iterate(self, tmp_path):
        s_h = run_hermite_iterate(ExperimentConfig(out_dir=str(tmp_path / "h")))
        s_s = run_stereo_iterate(ExperimentConfig(out_dir=str(tmp_path / "s")))
        assert np.allclose(s_h["kl_m2"], s_s["kl_series"], rtol=0, atol=0)

    def test_larger_basis_plateaus_no_earlier(self, tmp_path):
        summary = run_hermite_iterate(ExperimentConfig(out_dir=str(tmp_path)))

        def plateau_iteration(series):
            final = series[-1]
            for i, v in enumerate(series):
                if all(abs(u - final) <= 0.01 * final for u in series[i:]):
                    return i
            return len(series)

        assert plateau_iteration(summary["kl_m4"]) >= plateau_iteration(summary["kl_m2"])


class TestGviDemo:
    def test_single_trial_outputs(self, tmp_path):
        summary = run_gvi_demo(ExperimentConfig(out_dir=str(tmp_path)))
        assert summary["esgvi_converged"]
        assert summary["esgvi_iterations"] <= 10
        cols = read_csv(tmp_path / "errors.csv")
        assert np.all(cols["esgvi_sigma3"] > 0)
        assert np.isfinite(cols["esgvi_error"]).all()
        graph_text = (tmp_path / "graph.txt").read_text()
        assert graph_text.startswith("VAR 25")
        from bayespace.graphio import loads_graph
        assert len(loads_graph(graph_text).factors) == 1 + 19 + 100

    def test_linear_variant_single_step(self, tmp_path):
        cfg = ExperimentConfig(out_dir=str(tmp_path), linear=True)
        summary = run_gvi_demo(cfg)
        assert summary["esgvi_iterations"] <= 2
        cols = read_csv(tmp_path / "errors.csv")
        assert np.abs(cols["esgvi_mean"] - cols["map_mean"]).max() < 1e-10

    @pytest.mark.parametrize("n_poses, n_landmarks", [(20, 5), (100, 0)])
    def test_reported_columns_come_from_the_trace(self, tmp_path, n_poses, n_landmarks):
        # 100 poses invert the information's factor in more than one block
        cfg = ExperimentConfig(seed=0, n_poses=n_poses, n_landmarks=n_landmarks,
                               out_dir=str(tmp_path))
        summary = run_gvi_demo(cfg)
        graph, truth, init = make_chain(cfg)
        lines = (tmp_path / "errors.csv").read_text().splitlines()
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        cols = read_csv(tmp_path / "errors.csv")
        for name, nodes, key in (("esgvi", 10, "containment_esgvi"),
                                 ("map", 1, "containment_map_gn")):
            trace = _solve_chain(graph, init, cfg, nodes, record_loss=True)
            sigma3 = 3.0 * np.sqrt(np.diag(trace.covariances[-1]))
            at = header.index(f"{name}_sigma3")
            assert [row[at] for row in rows] == [repr(v) for v in sigma3.tolist()]
            # a step near convergence is below the rounding of the means it joins,
            # so the tolerance is relative to the step plus its mean
            means = np.vstack([init.mean, *trace.coordinates])
            steps = np.linalg.norm(np.diff(means, axis=0), axis=1)
            scale = steps + np.linalg.norm(means[1:], axis=1)
            assert (np.abs(np.array(trace.step_norm) - steps) <= 1e-12 * scale).all()
            inside = np.abs(cols[f"{name}_error"]) <= cols[f"{name}_sigma3"]
            assert summary[key] == inside.sum() / inside.size

    def test_containment_counts_an_error_on_its_bound(self, tmp_path, monkeypatch):
        # truths that put the VI errors 0.05% inside and outside 3 sigma
        cfg = ExperimentConfig(seed=0, out_dir=str(tmp_path))
        graph, truth, init = make_chain(cfg)
        trace = _solve_chain(graph, init, cfg, 10, record_loss=True)
        sigma3 = 3.0 * np.sqrt(np.diag(trace.covariances[-1]))
        scale = np.where(np.arange(truth.size) % 3 == 0, 1.0005, 0.9995)
        shifted = trace.coordinates[-1] - scale * sigma3
        monkeypatch.setattr(experiments, "make_chain", lambda cfg, trial: (graph, shifted, init))
        summary = run_gvi_demo(cfg)
        assert summary["containment_esgvi"] == np.mean(scale < 1.0)

    def test_default_tol_stops_at_the_first_step_below_it(self, tmp_path):
        # the VI step norms end 1.9e-5, 2.3e-7, 5.1e-10: a default of 1e-6
        # would stop one iteration early, one of 1e-10 one iteration late
        run_gvi_demo(ExperimentConfig(seed=0, out_dir=str(tmp_path)))
        steps = read_csv(tmp_path / "series.csv")["esgvi_step_norm"]
        assert steps[-1] < 1e-8
        assert (steps[:-1] >= 1e-8).all()

    def test_series_pads_the_shorter_solver_with_empty_cells(self, tmp_path):
        # at 20x5 seed 0, MAP stops after 4 iterations and VI after 6
        run_gvi_demo(ExperimentConfig(seed=0, out_dir=str(tmp_path)))
        lines = (tmp_path / "series.csv").read_text().splitlines()
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == ["1", "2", "3", "4", "5", "6"]
        for name in ("map_step_norm", "map_loss"):
            cells = [row[header.index(name)] for row in rows]
            assert all(cells[:4]) and cells[4:] == ["", ""]

    def test_monte_carlo_fields_read_every_trial(self, tmp_path):
        # at seed 8, trial 0 takes 5 VI iterations and trial 1 takes 6
        run_gvi_demo(ExperimentConfig(seed=8, trials=2, out_dir=str(tmp_path / "all")))
        summary = json.loads((tmp_path / "all" / "summary.json").read_text())
        assert (summary["esgvi_iterations"], summary["max_iterations"]) == (5, 6)
        assert summary["all_converged"]
        run_gvi_demo(ExperimentConfig(seed=8, trials=2, max_iters=5, out_dir=str(tmp_path / "cap")))
        summary = json.loads((tmp_path / "cap" / "summary.json").read_text())
        assert summary["esgvi_converged"] and not summary["all_converged"]

    @pytest.mark.parametrize("linear, text", [
        (False, PINNED_CHAIN_GRAPH),
        (True, PINNED_LINEAR_CHAIN_GRAPH),
    ])
    def test_pinned_chain_graph(self, linear, text):
        cfg = ExperimentConfig(seed=7, n_poses=4, n_landmarks=2, linear=linear)
        assert dumps_graph(make_chain(cfg)[0]) == text

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_gvi_demo(ExperimentConfig(out_dir=str(out), seed=11))
        for name in ("errors.csv", "series.csv", "graph.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_rerun_replaces_outputs_instead_of_writing_through(self, tmp_path):
        # Outputs are unlinked and written anew, never truncated in place, so
        # another name for an old output keeps its bytes.
        cfg = ExperimentConfig(out_dir=str(tmp_path / "out"), seed=11)
        run_gvi_demo(cfg)
        names = ("errors.csv", "series.csv", "graph.txt", "summary.json")
        for name in names:
            (tmp_path / name).hardlink_to(tmp_path / "out" / name)
        before = {name: (tmp_path / name).read_bytes() for name in names}
        run_gvi_demo(dataclasses.replace(cfg, seed=12))
        for name in names:
            assert (tmp_path / name).read_bytes() == before[name]
        assert (tmp_path / "out" / "graph.txt").read_bytes() != before["graph.txt"]


class TestCLI:
    def test_success_exit_code(self, tmp_path, capsys):
        code = main(["stereo-project", "--out", str(tmp_path), "--seed", "3"])
        assert code == 0
        assert read_summary(tmp_path)["experiment"] == "stereo-project"

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = main(["stereo-project", "--out", str(tmp_path), "--nodes", "99"])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        # three Hermite functions cannot serve as a valid estimate here: the
        # cubic tail diverges, so the run fails loudly with a JSON report
        code = main(["hermite-iterate", "--out", str(tmp_path), "--basis", "3"])
        assert code == 3
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == "NotNormalizable"

    def test_measure_without_mass_on_the_divergence_grid_exit_code(self, tmp_path, capsys):
        # the informed measure sits far outside the sweep grid around the prior
        cfg_file = tmp_path / "far.cfg"
        cfg_file.write_text("informed_mean = 1000\n")
        code = main(["stereo-project", "--out", str(tmp_path / "out"),
                     "--config", str(cfg_file)])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["error"] == "NotNormalizable"
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("command, lines, expected", [
        ("stereo-project", "mu_p = 3.0\ninformed_mean = 0.5\ninformed_var = 25.0\n", 3),
        ("stereo-project", "x_true = 0\n", 2),
        ("hermite-iterate", "basis = 3\n", 3),
        ("gvi-demo", "range_sigma = 1e154\n", 3),
    ])
    def test_failed_run_creates_no_output_directory(self, tmp_path, capsys, command, lines,
                                                    expected):
        cfg_file = tmp_path / "fail.cfg"
        cfg_file.write_text(lines)
        code = main([command, "--seed", "0", "--out", str(tmp_path / "D" / "E"),
                     "--config", str(cfg_file)])
        assert code == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fail.cfg"]

    def test_config_file_flow(self, tmp_path):
        cfg_file = tmp_path / "demo.cfg"
        cfg_file.write_text("trials = 1\nn_poses = 6\nn_landmarks = 2\nseed = 4\n")
        code = main(["gvi-demo", "--out", str(tmp_path / "out"),
                     "--config", str(cfg_file)])
        assert code == 0
        summary = read_summary(tmp_path / "out")
        assert summary["config"]["n_poses"] == 6

    @pytest.mark.parametrize("line", ["nodes = abc", "trials = 2.5", "z = zero",
                                      "linear = maybe"])
    def test_unreadable_config_value_exit_code(self, tmp_path, capsys, line):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"seed = 4\n{line}\n")
        code = main(["gvi-demo", "--out", str(tmp_path / "out"), "--config", str(cfg_file)])
        assert code == 2
        assert f"{cfg_file}:2" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["seed = none", "trials =", "s2_p = None",
                                      "informed_var =", "range_sigma = none",
                                      "out_dir = none", "mu_p = none", "f =",
                                      "linear = none"])
    @pytest.mark.parametrize("command", ["stereo-project", "gvi-demo"])
    def test_none_for_a_required_field_exit_code(self, tmp_path, capsys, command, line):
        cfg_file = tmp_path / "none.cfg"
        cfg_file.write_text(f"n_poses = 4\n{line}\n")
        code = main([command, "--out", str(tmp_path / "out"), "--config", str(cfg_file)])
        assert code == 2
        assert f"{cfg_file}:2" in capsys.readouterr().err

    def test_none_for_an_optional_field_reads_as_unset(self, tmp_path):
        cfg_file = tmp_path / "none.cfg"
        cfg_file.write_text("nodes = none\ntol =\nz = None\n")
        cfg = ExperimentConfig.from_file(cfg_file)
        assert cfg.nodes is None and cfg.tol is None and cfg.z is None

    def test_missing_config_file_exit_code(self, tmp_path, capsys):
        code = main(["stereo-project", "--out", str(tmp_path),
                     "--config", str(tmp_path / "missing.cfg")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_z_exit_code(self, tmp_path, capsys, value):
        code = main(["stereo-project", "--out", str(tmp_path), f"--z={value}"])
        assert code == 2
        assert "z must be finite" in capsys.readouterr().err

    def test_non_finite_config_field_rejected(self):
        with pytest.raises(ConfigError, match="mu_p"):
            ExperimentConfig(mu_p=float("nan")).validate()

    @pytest.mark.parametrize("route", ["flag", "file"])
    def test_empty_output_directory_exit_code(self, tmp_path, capsys, monkeypatch, route):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.cfg").write_text("out_dir =\n")
        argv = ["--out", ""] if route == "flag" else ["--config", "empty.cfg"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["stereo-project", *argv])
        assert code == 2
        err = capsys.readouterr().err
        _assert_only_bh_stderr(code, err, caught)
        assert "out_dir" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.cfg"]

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_output_path_through_a_file_exit_code(self, tmp_path, capsys, below):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["gvi-demo", "--out", str(blocker / below), "--max-iters", "2"])
        assert code == 2
        assert "output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command, blocked", [
        ("stereo-project", "densities.csv"), ("stereo-project", "summary.json"),
        ("stereo-iterate", "series.csv"), ("hermite-sweep", "divergence.csv"),
        ("gvi-demo", "graph.txt"), ("gvi-demo", "summary.json")])
    def test_output_file_that_cannot_be_written_exit_code(self, tmp_path, capsys, command,
                                                          blocked):
        # a directory where the run writes one of its files
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--out", str(out), "--max-iters", "2"])
        assert code == 2
        err = capsys.readouterr().err
        _assert_only_bh_stderr(code, err, caught)
        assert err.startswith(f"bh: configuration error: cannot write {out / blocked}: ")

    # Values that break a variance, a factor or a grid: validate() rejects the
    # chain scales whose square is not positive and finite, the model the rest.
    @pytest.mark.parametrize("command, line, expected", [
        ("stereo-project", "x_true = 0", 2),
        ("stereo-iterate", "x_true = 0", 2),
        ("stereo-project", "s2_p = 1e-300", 2),
        ("stereo-iterate", "s2_p = 1e-300", 2),
        ("stereo-project", "mu_p = 1e300", 2),
        ("hermite-sweep", "mu_p = 1e300", 2),
        ("stereo-project", "mu_p = -20", 2),
        ("hermite-sweep", "mu_p = -20", 2),
        ("gvi-demo", "prior_sigma = 1e300", 2),
        ("gvi-demo", "odom_sigma = 1e300", 2),
        ("gvi-demo", "range_sigma = 1e300", 2),
        ("gvi-demo", "prior_sigma = 1e-300", 2),
        ("gvi-demo", "odom_sigma = 1e-300", 2),
        ("gvi-demo", "range_sigma = 1e-300", 2),
        ("gvi-demo", "range_offset = 1e300", 2),
        ("stereo-iterate", "s2_r = 5e-324", 3),
        ("hermite-iterate", "s2_r = 5e-324", 3),
        ("stereo-project", "informed_var = 1e300", 3),
        ("stereo-project", "s2_p = 1e154", 3),
        ("stereo-iterate", "s2_p = 1e154", 3),
        ("hermite-iterate", "s2_p = 1e154", 3),
        ("gvi-demo", "range_sigma = 1e154", 3),
    ])
    def test_config_values_that_break_the_model_exit_cleanly(self, tmp_path, capsys,
                                                              command, line, expected):
        cfg_file = tmp_path / "edge.cfg"
        cfg_file.write_text(line + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--out", str(tmp_path / "out"), "--max-iters", "5",
                         "--config", str(cfg_file)])
        assert code == expected
        captured = capsys.readouterr()
        _assert_only_bh_stderr(code, captured.err, caught)
        if expected == 3:
            assert json.loads(captured.out)["error"] == "EvaluationFailure"

    @pytest.mark.parametrize("line", [
        "prior_sigma = 1e300", "odom_sigma = 1e300", "range_sigma = 1e300",
        "prior_sigma = 1e-300", "odom_sigma = 1e-300", "range_sigma = 1e-300",
        "range_offset = 1e300"])
    def test_chain_scales_whose_square_breaks_are_rejected_before_any_draw(self, tmp_path,
                                                                           capsys, line):
        cfg_file = tmp_path / "edge.cfg"
        cfg_file.write_text(line + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["gvi-demo", "--out", str(tmp_path / "out"), "--max-iters", "5",
                         "--config", str(cfg_file)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("bh: configuration error:") and err.count("\n") == 1
        assert line.split(" = ")[0] in err

    @pytest.mark.parametrize("line", ["prior_sigma = 1e154", "odom_sigma = 1e154"])
    def test_initial_chain_variance_that_overflows_is_rejected_before_any_draw(
            self, tmp_path, capsys, line):
        # each square is finite; 4 (prior_sigma^2 + 19 odom_sigma^2) is not
        cfg_file = tmp_path / "edge.cfg"
        cfg_file.write_text(line + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["gvi-demo", "--out", str(tmp_path / "out"), "--config", str(cfg_file)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("bh: configuration error:") and err.count("\n") == 1
        assert err.startswith(f"bh: configuration error: {line.split(' = ')[0]} ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, error", [
        ("range_sigma = 1e-154", "EvaluationFailure"), ("range_sigma = 1e-153", "NonSPD"),
        ("odom_sigma = 1e-154", "EvaluationFailure"),
        ("range_offset = 1e154", "EvaluationFailure"),
        ("range_offset = 1e150", "EvaluationFailure"),
        # seed 0 draws a first range whose square overflows in the initial mean
        ("range_sigma = 1e154\nseed = 0", "EvaluationFailure")])
    def test_chain_factor_that_overflows_exits_3_without_a_warning(self, tmp_path, capsys,
                                                                   line, error):
        # the kind formulas overflow at the quadrature nodes; the typed error reports it
        cfg_file = tmp_path / "edge.cfg"
        cfg_file.write_text(line + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["gvi-demo", "--out", str(tmp_path / "out"), "--config", str(cfg_file)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["error"] == error

    @pytest.mark.parametrize("command, line, error", [
        ("stereo-project", "f = 1e154", "EvaluationFailure"),  # the stereo formulas
        ("stereo-project", "s2_p = 1e154", "EvaluationFailure"),  # an inner product
        ("stereo-project", "informed_mean = 1e300", "NotNormalizable"),  # a grid measure
        ("stereo-iterate", "b = 1e154", "EvaluationFailure"),  # a basis projection
        ("stereo-iterate", "s2_r = 1e-300", "EvaluationFailure"),  # the step norm
        ("hermite-sweep", "x_true = 1e-154", "NotNormalizable"),
        ("hermite-iterate", "z = 1e154", "EvaluationFailure"),
        ("hermite-iterate", "s2_r = 1e-300", "EvaluationFailure"),
        ("gvi-demo", "range_sigma = 1e154", "EvaluationFailure"),  # the GVI step norm
    ])
    def test_model_that_overflows_exits_3_without_a_warning(self, tmp_path, capsys,
                                                            command, line, error):
        # a sample of the four stereo commands over extreme model values, and a chain
        cfg_file = tmp_path / "edge.cfg"
        cfg_file.write_text(line + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--out", str(tmp_path / "out"), "--max-iters", "5",
                         "--config", str(cfg_file)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["error"] == error

    @pytest.mark.parametrize("command", ["stereo-project", "stereo-iterate", "hermite-sweep",
                                         "hermite-iterate"])
    def test_prior_narrow_against_its_mean_normalizes(self, tmp_path, capsys, command):
        """With s2_p = 1e-9 the density grid's spacing is about 1e-8 of its
        bounds; only its two end nodes are faces, so the run completes."""
        cfg_file = tmp_path / "narrow.cfg"
        cfg_file.write_text("s2_p = 1e-9\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--out", str(tmp_path / "out"), "--max-iters", "5",
                         "--config", str(cfg_file)])
        assert code == 0
        assert capsys.readouterr().err == ""
        densities_integrate_to_one(tmp_path / "out" / "densities.csv")
        _assert_finite_outputs(tmp_path / "out")

    def test_grid_node_on_the_stereo_pole_warns_nothing(self, tmp_path):
        """With mu_p = 3 a density-grid node lands exactly on the pole x = 0;
        its +inf phi counts as zero density, without a numpy warning."""
        cfg_file = tmp_path / "pole.cfg"
        cfg_file.write_text("mu_p = 3.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["stereo-project", "--out", str(tmp_path / "out"),
                         "--config", str(cfg_file)])
        assert code == 0

    def test_projection_with_mass_on_the_pole_exits_3(self, tmp_path, capsys):
        """The informed measure's projection puts mass on the pole node x = 0,
        where the posterior's phi is +inf: KL is not finite, and bh says so
        rather than writing Infinity."""
        cfg_file = tmp_path / "pole.cfg"
        cfg_file.write_text("mu_p = 3.0\ninformed_mean = 0.5\ninformed_var = 25.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["stereo-project", "--seed", "0", "--out", str(tmp_path / "out"),
                         "--config", str(cfg_file)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["error"] == "EvaluationFailure"
        assert report["message"] == "KL is not finite: inf"


_FLOAT_KEYS = [f.name for f in dataclasses.fields(ExperimentConfig)
               if "float" in str(f.type)]
_EXTREME_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e154, -1e154,
                   1e300, -1e300]
_ARGV_TOKENS = ["--seed", "-1", "--nodes", "abc", "--tol", "nan", "--basis", "7", "--z",
                "1e309", "--bogus", "", "--max-iters", "0", "3", "--out", "--help"]


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["stereo-project", "stereo-iterate", "hermite-sweep",
                                "hermite-iterate", "gvi-demo"]),
       values=st.dictionaries(st.sampled_from(_FLOAT_KEYS),
                              st.sampled_from(_EXTREME_FLOATS) | st.floats(-100.0, 100.0),
                              min_size=1, max_size=2),
       extra=st.lists(st.sampled_from(_ARGV_TOKENS), max_size=3),
       blocked=st.booleans())
def test_cli_exits_only_with_documented_codes(tmp_path, capsys, monkeypatch, command,
                                              values, extra, blocked):
    """Whatever a config file or argv holds, and whether or not the output
    directory holds a directory named summary.json, bh exits 0, 2 or 3,
    never with a traceback; a run that exits 0 writes only finite numbers."""
    work = Path(tempfile.mkdtemp(dir=tmp_path))  # examples share tmp_path
    monkeypatch.chdir(work)  # a relative --out from the argv tokens lands here
    if blocked:
        (work / "out" / "summary.json").mkdir(parents=True)
    cfg_file = work / "fuzz.cfg"
    cfg_file.write_text("".join(f"{key} = {value!r}\n" for key, value in values.items()))
    argv = [command, "--out", str(work / "out"), "--max-iters", "5",
            "--config", str(cfg_file), *extra]
    ran = False
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
            ran = True
        except SystemExit as exit_:  # argparse rejects the argv, or --help
            code = exit_.code
    captured = capsys.readouterr()
    assert code in (0, 2, 3)
    if ran:
        _assert_only_bh_stderr(code, captured.err, caught)
    else:  # --help prints to stdout; a rejected argv prints argparse's usage and error
        assert [str(w.message) for w in caught] == []
        if code == 0:
            assert captured.err == ""
        else:
            assert captured.err.startswith("usage: bh")
            assert re.match(r"bh( [\w-]+)?: error: ", captured.err.splitlines()[-1])
    if ran and code == 0:
        _assert_finite_outputs(work / captured.out.rsplit(" outputs in ", 1)[1].strip())


def _assert_only_bh_stderr(code: int, err: str, caught):
    """A run of ``main`` raised no warning, and its stderr holds only bh's own
    output: nothing on exit 0 or 3, one configuration error line on exit 2."""
    assert [str(w.message) for w in caught] == []
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("bh: configuration error: ")
    else:
        assert err == ""


def _assert_finite_outputs(out: Path):
    """summary.json parses strictly, and every CSV cell is a finite float, an
    empty padding cell or a text label."""
    def reject(constant):
        raise AssertionError(f"summary.json holds {constant}")

    read_summary(out, parse_constant=reject)
    for path in out.glob("*.csv"):
        for line in path.read_text().splitlines()[1:]:
            for cell in line.split(","):
                try:
                    value = float(cell)
                except ValueError:  # empty padding or a text label
                    continue
                assert np.isfinite(value), f"{path.name}: {cell!r}"


# Values where repr changes form (exponent switch points and their
# neighbours), signed zeros, subnormals and the non-finite values.
_SPECIAL_FLOATS = [
    float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072014e-308, 1.7976931348623157e308, 1e-4, np.nextafter(1e-4, 0.0),
    1e-5, np.nextafter(1e-5, 0.0), np.nextafter(1e-5, 1.0), 1e16, np.nextafter(1e16, 0.0),
    -1e16, 0.1, 1.0 / 3.0,
]


def _per_value_csv(header, columns) -> bytes:
    """The bytes of the one-value-at-a-time formatting the writer replaces."""
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestCsvWriter:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.sampled_from([0, 1, 255, 256, 257, 2001]),
           ncols=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           specials=st.lists(st.tuples(st.integers(0, 2**32 - 1),
                                       st.sampled_from(_SPECIAL_FLOATS)), max_size=16))
    def test_float_table_matches_per_value_formatting(self, tmp_path, rows, ncols, seed,
                                                      specials):
        rng = np.random.default_rng(seed)
        # Raw bit patterns cover every exponent, nan payloads and subnormals;
        # scaled normals cover ordinary magnitudes.
        bits = np.frombuffer(rng.bytes(8 * ncols * rows), dtype=np.float64)
        scaled = rng.standard_normal(ncols * rows) * 10.0 ** rng.integers(-20, 21, ncols * rows)
        table = np.where(rng.random(ncols * rows) < 0.5, bits, scaled)
        for position, value in specials:
            if table.size:
                table[position % table.size] = value
        columns = list(table.reshape(ncols, rows))
        header = [f"c{j}" for j in range(ncols)]
        path = tmp_path / "table.csv"
        _write_csv(path, header, columns)
        assert path.read_bytes() == _per_value_csv(header, columns)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), rows=st.integers(0, 40))
    def test_mixed_table_matches_per_value_formatting(self, tmp_path, data, rows):
        floats = st.floats(allow_subnormal=True) | st.sampled_from(_SPECIAL_FLOATS)
        column = st.lists(floats, min_size=rows, max_size=rows)
        columns = [
            range(rows),
            data.draw(st.lists(st.sampled_from(["pose", "landmark"]),
                               min_size=rows, max_size=rows)),
            np.array(data.draw(column), dtype=np.float64),
            _padded(data.draw(st.lists(floats, max_size=rows)), rows),
            data.draw(column),
        ]
        header = ["iteration", "kind", "array", "padded", "list"]
        path = tmp_path / "table.csv"
        _write_csv(path, header, columns)
        assert path.read_bytes() == _per_value_csv(header, columns)
