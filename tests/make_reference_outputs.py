"""Write ``tests/reference_outputs.json``: what a fixed set of ``bh`` runs write.

Run from the repository root with ``PYTHONPATH=src python tests/make_reference_outputs.py``.
``tests/test_reference_outputs.py`` repeats the runs and compares their
outputs with the file.  A change that moves a pinned value on purpose runs
this script and lists each moved value.

Each run writes into a directory named after it, relative to a temporary
working directory, so ``config.out_dir`` in every summary is that name.
A CSV of at most ``WHOLE_ROWS`` rows is kept whole (the chain tables and the
stereo series); a longer one (the stereo densities) keeps its row count,
every ``ROW_STRIDE``-th row and the last row.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from bayespace.experiments import (ExperimentConfig, run_gvi_demo, run_hermite_iterate,
                                   run_hermite_sweep, run_stereo_iterate, run_stereo_project)

REFERENCE = Path(__file__).resolve().parent / "reference_outputs.json"
WHOLE_ROWS = 100
ROW_STRIDE = 50

STEREO = {"stereo-project": run_stereo_project, "stereo-iterate": run_stereo_iterate,
          "hermite-sweep": run_hermite_sweep, "hermite-iterate": run_hermite_iterate}

# (output directory name, runner, config fields)
RUNS = [(f"{name}-seed{seed}", run, {"seed": seed})
        for name, run in STEREO.items() for seed in (0, 1)]
RUNS += [("gvi-demo-seed0", run_gvi_demo, {"seed": 0}),
         ("gvi-demo-linear-seed0", run_gvi_demo, {"seed": 0, "linear": True})]


def _cell(text: str):
    """A CSV cell as an int, a float or, for labels and padding, its text."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _table(path: Path) -> dict:
    """A CSV's header, row count and kept rows as ``[row index, cells...]``."""
    header, *lines = path.read_text().splitlines()
    keep = range(len(lines)) if len(lines) <= WHOLE_ROWS else sorted(
        {*range(0, len(lines), ROW_STRIDE), len(lines) - 1})
    return {"header": header.split(","), "row_count": len(lines),
            "rows": [[i, *map(_cell, lines[i].split(","))] for i in keep]}


def capture(name: str, run, fields: dict) -> dict:
    """Run ``run`` into ``name`` under the working directory and read back
    its file list, its summary text and its CSV tables."""
    run(ExperimentConfig(out_dir=name, **fields))
    out = Path(name)
    return {"files": sorted(os.listdir(out)),
            "summary_text": (out / "summary.json").read_text(),
            "tables": {p.name: _table(p) for p in sorted(out.glob("*.csv"))}}


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        cwd = os.getcwd()
        os.chdir(work)
        try:
            runs = {name: capture(name, run, fields) for name, run, fields in RUNS}
        finally:
            os.chdir(cwd)
    reference = {name: {"files": r["files"], "summary": json.loads(r["summary_text"]),
                        "tables": r["tables"]} for name, r in runs.items()}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE} ({REFERENCE.stat().st_size} bytes, {len(runs)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
