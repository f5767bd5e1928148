"""Production paths and oracles stay apart: no production module imports
``bayespace.oracles``, and no experiment enters a function defined there."""

import ast
import sys
from pathlib import Path

import numpy as np

import bayespace
from bayespace import oracles
from bayespace.experiments import (ExperimentConfig, run_gvi_demo, run_hermite_iterate,
                                   run_hermite_sweep, run_stereo_iterate, run_stereo_project)
from bayespace.quadrature import gh_spec

PACKAGE = Path(bayespace.__file__).parent
ORACLES = Path(oracles.__file__).resolve()


def _imports_oracles(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "bayespace.oracles" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module in ("oracles", "bayespace.oracles"):
                return True
            if module in ("", "bayespace") and any(a.name == "oracles" for a in node.names):
                return True
    return False


def test_no_production_module_imports_oracles():
    modules = sorted(PACKAGE.glob("*.py"))
    assert any(path.name == "gvi.py" for path in modules)
    importers = [path.name for path in modules if path.name != "__init__.py"
                 and _imports_oracles(ast.parse(path.read_text()))]
    assert importers == []
    assert _imports_oracles(ast.parse((PACKAGE / "__init__.py").read_text()))


def _oracle_calls(run) -> list:
    """Names of the functions defined in oracles.py that ``run()`` enters."""
    entered = []

    def profile(frame, event, arg):
        if event == "call" and Path(frame.f_code.co_filename).resolve() == ORACLES:
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return entered


def test_profile_sees_an_oracle_call():
    entered = _oracle_calls(lambda: oracles.stein_check(np.sin, 1, gh_spec(8)))
    assert "stein_check" in entered


def test_experiments_enter_no_oracle(tmp_path):
    runs = [
        (run_stereo_project, {}),
        (run_stereo_iterate, {"max_iters": 3}),
        (run_hermite_sweep, {"basis": 3}),
        (run_hermite_iterate, {"max_iters": 3}),
        (run_gvi_demo, {"n_poses": 4, "n_landmarks": 2, "max_iters": 3}),
        (run_gvi_demo, {"n_poses": 4, "n_landmarks": 0, "max_iters": 3, "linear": True}),
    ]
    for k, (run, fields) in enumerate(runs):
        cfg = ExperimentConfig(out_dir=str(tmp_path / f"out{k}"), **fields)
        assert _oracle_calls(lambda: run(cfg)) == [], run.__name__
