"""Import ``bayespace`` from the ``src/`` tree of the checkout this file sits in.

Standard library only, so that a set-up probe can start its clock before
numpy is loaded.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_scratch"


# One BLAS thread.  The matrices here are at most 120 x 120; on a 2-core
# machine a second OpenBLAS thread only adds wake-up stalls, which made
# the slowest tenth of chain-odometry ops half as slow again.
BLAS_THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS")}


def import_bayespace():
    """Import the package from ``src/``; exit non-zero when it is not there.

    An installed copy elsewhere on the path is refused, so the benchmark
    always measures the code of the checkout it belongs to.  BLAS is
    limited to one thread first, before numpy loads.
    """
    if not (SRC / "bayespace" / "__init__.py").is_file():
        raise SystemExit(f"bench: no bayespace package under {SRC}")
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    module = importlib.import_module("bayespace")
    where = Path(module.__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"bench: imported bayespace from {where}, not from {SRC}")
    return module
