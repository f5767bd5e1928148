"""Run one bayespace benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload chain-mc --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` the functions of each layer are wrapped from the outside
and the last line holds the per-layer metrics instead.  Each op is timed
alone; its outputs are checked after the clock stops.  The run attempts
whole rounds of ops until their wall time reaches ``--seconds``.

Times are reported at reference machine speed.  The CPU of a shared host
runs up to 1.7x slower for stretches longer than a whole run, so a fixed
calibration kernel is timed between consecutive ops and around each
set-up probe, and every measured time t is reported as
t * CALIBRATION_REF_S / (calibration time around it).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import source

WORKLOADS = ("stereo-figures", "chain-mc", "chain-large", "chain-odometry")
# Set-up probes run before and after the timed ops, never beside them.
SETUP_PROBES_BEFORE = 8
SETUP_PROBES_AFTER = 7
PROBE_TIMEOUT_S = 60
END_TO_END = [("setup_s", "s"), ("ops_per_s", "op/s"), ("op_p50_ms", "ms"),
              ("peak_rss_mb", "MB")]
CALIBRATION_REF_S = 5.0e-4    # the kernel on a quiet 2-core reference machine
PROBE_CALIBRATIONS = 9        # kernel runs, median taken, on each side of a probe


def calibrate() -> float:
    """Seconds a fixed kernel takes now.  It mixes what the program spends
    its time on: interpreted loops, small numpy calls and float formatting."""
    import numpy as np  # not at the top: BLAS threads are set before numpy loads

    base = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
    values = [i / 7.0 for i in range(300)]
    start = perf_counter()
    total = 0
    for i in range(3000):
        total += i * i
    a = base
    for _ in range(60):
        a = np.tanh(a @ base) + a[::-1]
    ",".join(repr(v) for v in values)
    return perf_counter() - start


def probe_setup(workload: str, seed: int, count: int) -> list:
    """Set-up seconds at reference speed, each from a fresh interpreter.

    One kernel run beside a probe varies by up to 2x, so each side takes
    the median of several."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for _ in range(count):
        before = statistics.median(calibrate() for _ in range(PROBE_CALIBRATIONS))
        done = subprocess.run([sys.executable, str(probe), workload, str(seed)],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        after = statistics.median(calibrate() for _ in range(PROBE_CALIBRATIONS))
        if done.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]) * 2.0 * CALIBRATION_REF_S
                     / (before + after))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")

    source.import_bayespace()
    setup_times = [] if args.trace else probe_setup(args.workload, args.seed,
                                                    SETUP_PROBES_BEFORE)

    import checks
    import workloads

    out_dir = source.SCRATCH / args.workload
    workload = workloads.Workload(args.workload, args.seed, out_dir)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    # The first op of a fresh process runs up to twice as slow (lazy
    # imports, first-touch allocations, cold caches): run one untimed.
    workload.run(workload.warmup)
    if tracer:
        tracer.reset()

    wall, speed, latencies, problems, errors = [], [], [], [], []
    failed = 0
    timed = 0.0               # op time at reference speed
    with checks.Checker() as checker:
        calibration = calibrate()
        for ops in workload.rounds():
            if sum(wall) >= args.seconds:
                break
            for op in ops:
                if tracer:
                    tracer.begin_op(len(wall))
                start = perf_counter()
                op_errors = workload.run(op)
                elapsed = perf_counter() - start
                if tracer:
                    tracer.end_op()
                after = calibrate()
                factor = 2.0 * CALIBRATION_REF_S / (calibration + after)
                calibration = after
                wall.append(elapsed)
                speed.append(factor)
                timed += elapsed * factor
                op_problems = workload.check(op, op_errors, checker)
                if op_errors or op_problems:
                    failed += 1
                else:
                    latencies.append(elapsed * factor)
                errors += op_errors.values()
                problems += op_problems

    for line in sorted(set(errors)) + problems:
        print(f"bench: {args.workload}: {line}", file=sys.stderr)
    print(f"bench: {args.workload}: {len(wall)} ops attempted, {failed} failed; "
          f"{sum(wall):.2f} s wall, {timed:.2f} s at reference speed; "
          f"wall median {1e3 * statistics.median(wall):.3f} ms; machine speed "
          f"median {statistics.median(speed):.3f} of reference", file=sys.stderr)
    if not latencies:
        raise SystemExit(f"bench: {args.workload}: every op failed")

    if tracer:
        values = tracer.per_op(speed, len(latencies))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
        tracer.write(source.SCRATCH / f"trace-{args.workload}.json")
    else:
        setup_times += probe_setup(args.workload, args.seed, SETUP_PROBES_AFTER)
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(latencies) / timed,
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({"correct": not problems, "attempted": len(wall), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
