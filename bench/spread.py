"""Run one workload k times and print the median and quartiles of every end-to-end metric.

    python3 bench/spread.py --workload chain-mc -k 10 [--sets 2] [--trace]

Each run measures ``run_seconds`` from BENCHMARK.json.  Run i of set s
(both counted from 0) uses seed ``1 + s*k + i``.  The spread of a metric
is (Q3 - Q1) / median, with quartiles as ``statistics.quantiles(n=4)``
gives them; it is printed beside the metric's bound from BENCHMARK.json.
With ``--sets 2`` the second set's medians are compared with the first's,
which shows whether two sets of runs of one commit agree within the
bounds.  With ``--trace`` one traced run follows; its ``ops_per_s`` is
printed beside the untraced median (the tracing overhead), with each
layer's self time as a share of the traced op time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
FIRST_SEED = 1


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"spread: {' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"spread: seed {seed} produced wrong outputs:\n{done.stderr}")
    return result


def summarize(runs, spec) -> dict:
    medians = {}
    print(f"{'metric':14s} {'unit':6s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        medians[metric["name"]] = statistics.median(values)
        print(f"{metric['name']:14s} {metric['unit']:6s} {medians[metric['name']]:12.6g} "
              f"{q1:12.6g} {q3:12.6g} {(q3 - q1) / med:8.4f} {metric['bound']:6.3f}")
    shares = sorted({(r["failed"], r["attempted"]) for r in runs})
    print("failed/attempted per run:", ", ".join(f"{f}/{a}" for f, a in shares))
    return medians


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("-k", type=int, default=10, help="runs per set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="add one traced run")
    args = parser.parse_args(argv)
    if args.k < 4:
        parser.error("quartiles need at least 4 runs")

    set_medians = []
    for s in range(args.sets):
        seeds = range(FIRST_SEED + s * args.k, FIRST_SEED + (s + 1) * args.k)
        print(f"== {args.workload}: set {s + 1}, seeds {seeds.start}..{seeds.stop - 1}, "
              f"{spec['run_seconds']} s per run")
        set_medians.append(summarize([run_once(args.workload, seed, spec["run_seconds"], 0)
                                      for seed in seeds], spec))
    for s, medians in enumerate(set_medians[1:], start=2):
        print(f"== set {s} median against set 1 (worse by more than the bound fails)")
        for metric in spec["end_to_end"]:
            name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (medians[name] / set_medians[0][name] - 1.0)
            verdict = "ok" if worse <= metric["bound"] else "WORSE"
            print(f"{name:14s} {worse:+8.4f} (bound {metric['bound']}) {verdict}")

    if args.trace:
        traced = run_once(args.workload, FIRST_SEED, spec["run_seconds"], 1)["metrics"]
        op_s = traced["trace.op_s"]["value"]
        untraced = set_medians[0]["ops_per_s"]
        print(f"== traced run, seed {FIRST_SEED}")
        print(f"ops_per_s traced {traced['trace.ops_per_s']['value']:.4g}, untraced median "
              f"{untraced:.4g} (overhead {untraced / traced['trace.ops_per_s']['value'] - 1:+.1%})")
        selfs = {k: v["value"] for k, v in traced.items() if k.endswith(".self_s")}
        for name, value in sorted(selfs.items(), key=lambda kv: -kv[1]):
            if value > 0:
                print(f"  {name:42s} {1e3 * value:10.3f} ms {value / op_s:7.1%}")
        print(f"  {'sum of self times':42s} {1e3 * sum(selfs.values()):10.3f} ms; "
              f"traced op time {1e3 * op_s:.3f} ms")
        for name, value in traced.items():
            if not name.endswith(".self_s") and name.split(".")[0] != "trace":
                print(f"  {name:42s} {value['value']:12.6g} {value['unit']} per op")
    return 0


if __name__ == "__main__":
    sys.exit(main())
