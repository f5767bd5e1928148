"""Pinned outputs: the values that a fixed set of ``bh`` runs writes.

``reference_outputs.json`` holds, for each run of ``make_reference_outputs.RUNS``,
its file list, its summary and its CSV tables (kept whole, or sampled for
the long density tables).  Floats match at ``RTOL`` relative with an
``ATOL`` floor, which leaves room for another BLAS or libm; integers,
booleans, strings and file lists match exactly.  A change that moves a
pinned value on purpose regenerates the file with
``PYTHONPATH=src python tests/make_reference_outputs.py``.
"""

import json
import os

import pytest

from make_reference_outputs import REFERENCE, RUNS, _table, capture

RTOL = 1e-9
ATOL = 1e-12


def _mismatches(got, want, where="") -> list:
    """Where ``got`` differs from ``want``: floats beyond the tolerance, any
    other value, type, key set or length that is not equal."""
    if isinstance(want, float) and type(got) is float:
        return [] if abs(got - want) <= RTOL * abs(want) + ATOL else [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{where}: {got!r} ({type(got).__name__}) != {want!r} ({type(want).__name__})"]
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in want for m in _mismatches(got[key], want[key], f"{where}/{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{where}[{i}]")]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Every pinned run, each into its own directory under one working directory."""
    work = tmp_path_factory.mktemp("reference")
    cwd = os.getcwd()
    os.chdir(work)
    try:
        return {name: capture(name, run, fields) for name, run, fields in RUNS}
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


def test_reference_covers_every_run(reference):
    assert sorted(reference) == sorted(name for name, _, _ in RUNS)


@pytest.mark.parametrize("name", [name for name, _, _ in RUNS])
def test_run_matches_reference(outputs, reference, name):
    got, want = outputs[name], reference[name]
    assert got["files"] == want["files"]
    text = got["summary_text"]
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert _mismatches(json.loads(text), want["summary"], "summary.json") == []
    assert _mismatches(got["tables"], want["tables"], "tables") == []


def test_a_moved_value_is_reported(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("iteration,kl,label\n1,0.25,pose\n2,,landmark\n")
    table = _table(path)
    assert table == {"header": ["iteration", "kl", "label"], "row_count": 2,
                     "rows": [[0, 1, 0.25, "pose"], [1, 2, "", "landmark"]]}
    assert _mismatches({"kl": 0.25 * (1 + 5e-10), "n": 1}, {"kl": 0.25, "n": 1}) == []
    assert _mismatches({"kl": 0.25 * (1 + 2e-9), "n": 1}, {"kl": 0.25, "n": 1}) != []
    assert _mismatches({"kl": 0.25, "n": 1.0}, {"kl": 0.25, "n": 1}) != []
    assert _mismatches({"flag": 1}, {"flag": True}) != []
    assert _mismatches([0.0, 1e-13], [0.0, 0.0]) == []
