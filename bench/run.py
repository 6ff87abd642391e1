"""Benchmark of hhcycles: one workload per run, end-to-end or traced.

Usage (from the repository root):

    python3 bench/run.py --workload stable-branch --seed 1 --seconds 20 --trace 0

The run imports the package from ./src, times its set-up in fresh
interpreters, then repeats whole rounds of the workload until --seconds have
passed (at least one round), checks every round's outputs, and prints one
JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over rounds); --trace 1
records spans around every layer and reports the per-layer metrics (means
over rounds) instead, writing the spans to bench/out/traces/.  The exit code
is 1 when a check fails and 2 when the program cannot be found or run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 3
# One BLAS thread: the HB Newton matrices (at most 405 x 405) solve faster
# on one thread than on two here, and one thread keeps results bit-identical.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "seed_cycle_s": "s",
              "main_phase_s": "s"}
CLI_METRICS = ("cycle_shoot_s", "cycle_hb_s", "cycle_collocation_s",
               "floquet_report_s")
INFO_METRICS = ("branch_points_per_s", "fold_locate_s", "pd_search_s",
                *CLI_METRICS, "wall_seed_cycle_s", "wall_main_phase_s")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("stable-branch", "knee-diagram", "cycle-solvers"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup():
    """Medians of a few cold set-ups: (reference-speed s, wall s)."""
    speed, wall = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"),
                               str(SRC)], capture_output=True, text=True,
                              timeout=120, check=True)
        s, w = (float(v) for v in done.stdout.split()[-2:])
        speed.append(s)
        wall.append(w)
    return statistics.median(speed), statistics.median(wall)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hhcycles" / "__init__.py").is_file():
        print(f"error: no hhcycles package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        setup_s, wall_setup_s = measure_setup()
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: set-up probe failed: {exc}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import hhcycles
    if Path(hhcycles.__file__).resolve().parent != SRC / "hhcycles":
        print(f"error: imported {hhcycles.__file__}, not the checkout's",
              file=sys.stderr)
        return 2
    import speedclock
    import tracing
    import workloads

    tracer = None
    patches = tracing.Patches()
    run_fn = workloads.WORKLOADS[args.workload]
    rounds = []
    speed = speedclock.SpeedClock()
    speed.start()
    if args.trace:
        per_span, per_leaf = tracing.calibrate_overhead(speed.now)
        tracer = tracing.Tracer(speed.now)
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            log = tracing.CallLog(speed.now)
            log.install(patches)
            if tracer is not None:
                tracer.install(patches)
            round_dir = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}-r{len(rounds)}"
            round_dir.mkdir(parents=True, exist_ok=True)
            try:
                rounds.append(run_fn(args.seed, str(round_dir), log))
            finally:
                patches.restore()
                shutil.rmtree(round_dir, ignore_errors=True)
            if time.perf_counter() >= deadline:
                break
    except Exception as exc:
        print(f"error: {args.workload} round raised {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    finally:
        speed.stop()

    problems = [p for r in rounds for p in r.problems]
    for p in problems:
        print(f"CHECK FAILED: {p}")
    for f in sorted({f for r in rounds for f in r.expected_failures}):
        print(f"known failure: {f}")
    print(f"info: wall_setup_s = {wall_setup_s:.6g}")
    for key in INFO_METRICS:
        vals = [r.info[key] for r in rounds if key in r.info]
        if vals:
            print(f"info: {key} = {statistics.median(vals):.6g}")
    print(f"info: rounds = {len(rounds)}, host slowdown = {speed.slowdown():.3g}, "
          f"speed samples = {len(speed.samples)} ({speed.sampling_s:.3g} s)")

    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "seed_cycle_s": statistics.median(r.seed_cycle_s for r in rounds),
            "main_phase_s": statistics.median(r.main_phase_s for r in rounds),
        }
        units = END_TO_END
    else:
        layer = tracer.metrics()
        n = len(rounds)
        metrics = {k: v / n for k, (v, _) in layer.items()}
        units = {k: u for k, (_, u) in layer.items()}
        for key in CLI_METRICS:
            metrics[f"cli.{key}"] = sum(r.info.get(key, 0.0) for r in rounds) / n
            units[f"cli.{key}"] = "s"
        metrics["cli.artifact_bytes"] = sum(r.info.get("artifact_bytes", 0)
                                            for r in rounds) / n
        units["cli.artifact_bytes"] = "bytes"
        leaf_calls = sum(v[0] for v in tracer.leaf.values())
        metrics["trace.spans"] = len(tracer.spans) / n
        metrics["trace.seed_cycle_s"] = sum(r.seed_cycle_s for r in rounds) / n
        metrics["trace.main_phase_s"] = sum(r.main_phase_s for r in rounds) / n
        metrics["trace.overhead_s"] = (len(tracer.spans) * per_span
                                       + leaf_calls * per_leaf) / n
        units.update({"trace.spans": "count", "trace.seed_cycle_s": "s",
                      "trace.main_phase_s": "s", "trace.overhead_s": "s"})
        trace_dir = OUT / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.json")

    result = {"correct": not problems,
              "attempted": sum(r.attempted for r in rounds),
              "failed": sum(r.failed for r in rounds),
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in metrics}}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
