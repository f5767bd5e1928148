"""Production paths and oracles stay apart: no production module imports
``bayespace.oracles``, and no experiment enters a function defined there.
Production holds only what a ``bh`` run reaches or the README documents."""

import ast
import contextlib
import inspect
import io
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import bayespace
from bayespace import oracles
from bayespace.cli import main
from bayespace.experiments import (ExperimentConfig, run_gvi_demo, run_hermite_iterate,
                                   run_hermite_sweep, run_stereo_iterate, run_stereo_project)
from bayespace.quadrature import gh_spec

PACKAGE = Path(bayespace.__file__).parent
ORACLES = Path(oracles.__file__).resolve()
README = Path(__file__).resolve().parents[1] / "README.md"

# Production functions that no run below enters, by module and qualified name,
# each with the README section that names it (a "## " heading or a bold entry
# of the package list).  An unreached function's nested functions go with it.
DOCUMENTED = {
    **dict.fromkeys(["elements.constant_element", "elements.divergence", "elements.equivalent",
                     "elements.normalize", "elements.stochastic_derivative"], "Element algebra"),
    "quadrature.expect": "Quadrature",
    **dict.fromkeys(["hermite.hermite_poly", "hermite.multivariate_basis",
                     "hermite.HermiteBasis1D.__len__", "hermite.HermiteBasisND.__post_init__",
                     "hermite.HermiteBasisND.phi_matrix", "hermite.HermiteBasisND.__len__"],
                    "Hermite bases"),
    **dict.fromkeys(["variational.BasisSet.phi_matrix", "variational.reporting_grid"],
                    "Variational machinery"),
    **dict.fromkeys(["gvi.FactorGraph.__init__", "gvi.FactorGraph.factors", "gvi._group",
                     "gvi.factor_expectations", "gvi.prior_factor", "gvi.odom_factor",
                     "gvi.range_factor", "errors.NonSPD.__init__"],
                    "Sparse Gaussian variational inference"),
    "matrixops.vec": "Indefinite-Gaussian subspace",
    # The bench tracer (bench/tracing.py) wraps these, or what calls them, by
    # module and name; the Oracles entry lists them.
    **dict.fromkeys(["gvi.assemble", "gvi.marginals_for_factors", "gvi._marginals",
                     "gvi.fill_pattern", "gvi.GaussianState.to_measure",
                     "matrixops.build_duplication", "matrixops.duplication_matrix"], "Oracles"),
    **dict.fromkeys(["graphio.dump_graph", "graphio.load_graph", "graphio.loads_graph",
                     "graphio.register_factor_type"], "Factor graph text format"),
    "variational.IterationTrace.measures": "Library example",
}


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


def _entered(run) -> set:
    """The code objects of the Python functions that ``run()`` enters."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return entered


def _key(code: types.CodeType) -> tuple:
    return Path(code.co_filename).resolve(), code.co_firstlineno, code.co_name


def _unreached(code: types.CodeType, entered: set, prefix: str = "") -> list:
    """Qualified names of the functions and methods defined in ``code`` that
    are not among the ``entered`` keys; nested functions only under a reached one."""
    names = []
    for const in code.co_consts:
        if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
            continue  # lambdas and comprehensions
        name = prefix + const.co_name
        if const.co_flags & inspect.CO_OPTIMIZED and _key(const) not in entered:
            names.append(name)
        else:  # a class body or a reached function: what it defines
            names += _unreached(const, entered, name + ".")
    return names


def test_profile_sees_an_oracle_call():
    entered = _entered(lambda: oracles.stein_check(np.sin, 1, gh_spec(8)))
    assert "stein_check" in [c.co_name for c in entered
                             if Path(c.co_filename).resolve() == ORACLES]


CONTROL = """
def used():
    def inner():
        pass


def unused():
    pass


class Box:
    def method(self):
        pass
"""


def test_unreached_reports_a_function_never_called():
    code = compile(CONTROL, "<control>", "exec")
    namespace = {}
    exec(code, namespace)
    entered = {_key(c) for c in _entered(namespace["used"])}
    assert _unreached(code, entered) == ["used.inner", "unused", "Box.method"]


RUNS = [
    (run_stereo_project, {}),
    (run_stereo_iterate, {"max_iters": 3}),
    (run_hermite_sweep, {"basis": 3}),
    (run_hermite_iterate, {"max_iters": 3}),
    (run_gvi_demo, {"n_poses": 4, "n_landmarks": 2, "max_iters": 3}),
    (run_gvi_demo, {"n_poses": 4, "n_landmarks": 0, "max_iters": 3, "linear": True}),
]


@pytest.fixture(scope="module")
def entered_by_runs(tmp_path_factory):
    """The code entered by each of the runs above and by one bh run that exits
    3, so the typed error's constructor counts; the package's caches are
    cleared first, so a value cached by an earlier test hides no call."""
    for module in vars(bayespace).values():
        if isinstance(module, types.ModuleType):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    tmp = tmp_path_factory.mktemp("runs")
    entered = {}
    for k, (run, fields) in enumerate(RUNS):
        cfg = ExperimentConfig(out_dir=str(tmp / f"out{k}"), **fields)
        entered[f"{run.__name__}#{k}"] = _entered(lambda: run(cfg))
    pole = tmp / "pole.cfg"  # the informed KL is infinite: EvaluationFailure
    pole.write_text("mu_p = 3.0\ninformed_mean = 0.5\ninformed_var = 25.0\n")
    argv = ["stereo-project", "--seed", "0", "--config", str(pole), "--out", str(tmp / "pole")]
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        entered["bh stereo-project exit 3"] = _entered(lambda: codes.append(main(argv)))
    assert codes == [3]
    return entered


def test_experiments_enter_no_oracle(entered_by_runs):
    for name, entered in entered_by_runs.items():
        assert [c.co_name for c in entered if Path(c.co_filename).resolve() == ORACLES] == [], name


def _readme_section(title: str) -> str:
    text = README.read_text()
    for start_mark in (f"\n- **{title}**", f"\n## {title}\n"):
        start = text.find(start_mark)
        if start != -1:
            ends = [i for i in (text.find("\n- **", start + 1), text.find("\n## ", start + 1))
                    if i != -1]
            return text[start:min(ends, default=len(text))]
    raise AssertionError(f"README has no section {title!r}")


def _names_in_code_spans(section: str) -> set:
    prose = re.sub(r"```.*?```", "", section, flags=re.S)  # drop code blocks
    return {word for span in re.findall(r"`([^`]+)`", prose)
            for word in re.findall(r"[A-Za-z_]\w*", span)}


def test_every_production_function_is_reached(entered_by_runs):
    entered = {_key(c) for run in entered_by_runs.values() for c in run}
    unreached = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.resolve() != ORACLES:
            code = compile(path.read_text(), str(path), "exec")
            unreached.update(_unreached(code, entered, path.stem + "."))
    assert sorted(unreached - set(DOCUMENTED)) == [], "reached by no run and not in DOCUMENTED"
    assert sorted(set(DOCUMENTED) - unreached) == [], "in DOCUMENTED but reached or gone"
    for name, title in DOCUMENTED.items():
        parts = name.split(".")[1:]  # without the module
        named = {parts[0]} | ({parts[-1]} if not parts[-1].startswith("_") else set())
        missing = named - _names_in_code_spans(_readme_section(title))
        assert not missing, f"README section {title!r} does not name {name}"
