"""The four workloads: how each op's input is drawn, how it runs, how it is checked.

An op is one call pattern of the ``bh`` entry points in
``bayespace.experiments`` on one configuration.  Op seeds are drawn from a
generator seeded with the workload seed; the program receives only the
resulting ``ExperimentConfig``.  Ops come in rounds, and a run always
attempts whole rounds, so the share of ops that fail is fixed by the round.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List

import numpy as np

from bayespace.errors import BayesSpaceError
from bayespace.experiments import (ExperimentConfig, run_gvi_demo, run_hermite_iterate,
                                   run_hermite_sweep, run_stereo_iterate,
                                   run_stereo_project)

import checks

SEED_BITS = 32

# The seeds of 0-199 on which stereo-project raises NotNormalizable: the
# informed-measure projection keeps more than 1e-6 of its peak at the low
# edge of the grid.  Round r ends with an op on STEREO_FAULT_SEEDS[r % 10].
STEREO_FAULT_SEEDS = (59, 76, 92, 96, 112, 119, 140, 141, 143, 147)
STEREO_ROUND = 19             # seeded ops per round, then the fault op: 1 in 20 fails

CHAIN_SHAPES = {
    "chain-mc": {},                                        # 20 poses, 5 landmarks
    "chain-large": {"n_poses": 100, "n_landmarks": 20},    # the config ceiling
    "chain-odometry": {"n_poses": 100, "n_landmarks": 0},  # linear, tridiagonal
}


@dataclass
class Op:
    """One op: its configurations, one per entry point it calls."""

    seed: int
    configs: Dict[str, ExperimentConfig]


class Workload:
    """Draws the ops of one workload from its seed and runs them.

    Construction is the workload's input preparation: the scratch
    directory, the op generator and the warm-up op.
    """

    def __init__(self, name: str, seed: int, out_dir: Path):
        if name != "stereo-figures" and name not in CHAIN_SHAPES:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.out = out_dir
        self.rng = np.random.default_rng(seed)
        self.out.mkdir(parents=True, exist_ok=True)
        self.warmup = self.draw()

    @property
    def is_stereo(self) -> bool:
        return self.name == "stereo-figures"

    def _configs(self, seed: int) -> Dict[str, ExperimentConfig]:
        if self.is_stereo:
            return {cmd: ExperimentConfig(out_dir=str(self.out / cmd), seed=seed)
                    for cmd in STEREO_COMMANDS}
        return {"gvi-demo": ExperimentConfig(out_dir=str(self.out), seed=seed, trials=1,
                                             **CHAIN_SHAPES[self.name])}

    def draw(self) -> Op:
        """Next seeded op.  Stereo seeds that the oracle places near the
        stereo-project fault are passed over; the fault ops cover it."""
        while True:
            seed = int(self.rng.integers(2**SEED_BITS))
            op = Op(seed, self._configs(seed))
            if not self.is_stereo or checks.stereo_seed_is_clear(
                    dataclasses.asdict(op.configs["stereo-project"])):
                return op

    def rounds(self) -> Iterator[List[Op]]:
        for r in itertools.count():
            if self.is_stereo:
                fault = STEREO_FAULT_SEEDS[r % len(STEREO_FAULT_SEEDS)]
                yield [self.draw() for _ in range(STEREO_ROUND)] + [
                    Op(fault, self._configs(fault))]
            else:
                yield [self.draw()]

    @staticmethod
    def run(op: Op) -> Dict[str, str]:
        """Call every entry point of the op; a failing one does not stop the rest.

        Returns the ``BayesSpaceError`` each failing entry point raised.
        """
        errors = {}
        for cmd, cfg in op.configs.items():
            try:
                COMMANDS[cmd](cfg)
            except BayesSpaceError as err:
                errors[cmd] = f"{cmd} seed {op.seed}: {type(err).__name__}: {err}"
        return errors

    @staticmethod
    def check(op: Op, errors: Dict[str, str], checker: checks.Checker) -> List[str]:
        """Check the outputs of every entry point that returned."""
        problems = []
        for cmd, cfg in op.configs.items():
            if cmd not in errors:
                problems += [f"{cmd} seed {op.seed}: {p}"
                             for p in checker(cmd, Path(cfg.out_dir), dataclasses.asdict(cfg))]
        return problems


COMMANDS: Dict[str, Callable] = {
    "stereo-project": run_stereo_project,
    "stereo-iterate": run_stereo_iterate,
    "hermite-sweep": run_hermite_sweep,
    "hermite-iterate": run_hermite_iterate,
    "gvi-demo": run_gvi_demo,
}
STEREO_COMMANDS = tuple(checks.STEREO_CHECKS)
