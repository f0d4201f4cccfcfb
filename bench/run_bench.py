#!/usr/bin/env python3
"""weaksep's benchmark: run one workload for a fixed time and print its metrics.

Run from the repository root:

    python3 bench/run_bench.py --workload collapse --seed 1 --seconds 30 --trace 0
    python3 bench/run_bench.py --all [--seed N] [--seconds S] [--trace 1]

Each repetition is a fresh process (bench/worker.py) that imports weaksep
from src/ and runs the workload's experiments through
`weaksep.experiments.run`, with the benchmark's --seed as master seed.
Repetitions are closed loop, one at a time, one thread each, and start while
the time left exceeds the median repetition so far. With --trace 0 the last
line of stdout is a JSON object holding the end-to-end metrics, medians over
the repetitions; with --trace 1 repetitions alternate untraced and traced,
and the object holds the per-layer metrics of the traced ones. Every CSV is
checked (bench/checks.py, bench/reference_digests.json); an experiment run
that raised or wrote a wrong CSV counts as failed. --all runs every workload
and prints each metric with its unit, including failed_fraction.

Metric names and units come from BENCHMARK.json; bench/README.md explains them.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check, digests
from tracer import COUNT_METRICS
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_out"
REFERENCE = HERE / "reference_digests.json"
REP_TIMEOUT_S = 120
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def environment() -> dict:
    """Machine, interpreter, library versions and the commit being measured."""
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def spawn(workload: str, seed: int, traced: int, out: Path) -> dict:
    """Run one repetition in a fresh process; its report, or {} if it crashed."""
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--trace", str(traced)]
    env = {**os.environ, **CHILD_ENV}
    try:
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], env=env,
                              stdout=sys.stderr, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"repetition timed out after {REP_TIMEOUT_S} s", file=sys.stderr)
        return {}
    report = out / "report.json"
    if proc.returncode != 0 or not report.is_file():
        return {}
    with open(report, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """All repetitions of one benchmark run, checked; the result and its details."""
    experiments = WORKLOADS[workload]
    labels = [label for label, _, _ in experiments]
    base = WORK / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh).get(str(seed), {}).get(workload)

    reps = []  # (traced, report, digests)
    rounds = []
    start = time.monotonic()
    try:
        while not rounds or time.monotonic() - start + statistics.median(rounds) <= seconds:
            t0 = time.monotonic()
            for traced in ((0, 1) if trace else (0,)):
                rep_dir = base / f"rep{len(reps)}"
                report = spawn(workload, seed, traced, rep_dir)
                reps.append((traced, report, digests(rep_dir)))
                if traced and (rep_dir / "spans.csv").is_file():
                    shutil.copyfile(rep_dir / "spans.csv", WORK / f"{workload}.spans.csv")
                if len(reps) == 1:
                    problems, weak_measurements = check(experiments, rep_dir)
                shutil.rmtree(rep_dir)
            rounds.append(time.monotonic() - t0)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    def files_of(d, label):
        return {k: v for k, v in d.items() if k.startswith(label + "/")}

    notes = [f"{label}: {p}" for label, ps in problems.items() for p in ps]
    first = reps[0][2]
    failed = 0
    for i, (_, report, d) in enumerate(reps):
        for label in labels:
            mine = files_of(d, label)
            reasons = []
            if not report:
                reasons.append("repetition crashed")
            elif label in report["failures"]:
                reasons.append("raised")
            if not mine:
                reasons.append("wrote no CSV")
            if label in problems:
                reasons.append("failed its output checks")
            if mine != files_of(first, label):
                reasons.append("CSV bytes differ from repetition 0")
            if reference is not None and mine != files_of(reference, label):
                reasons.append("CSV sha256 differs from bench/reference_digests.json")
            if reasons:
                failed += 1
                notes.append(f"rep {i} {label}: " + ", ".join(reasons))
    attempted = len(reps) * len(labels)

    ok = [r for _, r, _ in reps if r]
    plain = [r for t, r, _ in reps if r and not t]
    traced = [r for t, r, _ in reps if r and t]
    metrics = {}
    unsteady_counts = []
    if trace == 0 and plain:
        wall = statistics.median(r["wall_s"] for r in plain)
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "weak_measurements_per_s": weak_measurements / wall,
        }
    elif trace == 1 and plain and traced:
        for key in traced[0]["layers"]:
            values = [r["layers"][key] for r in traced]
            if key in COUNT_METRICS and len(set(values)) > 1:
                unsteady_counts.append(key)
                notes.append(f"count {key} differs between traced repetitions: {values}")
            metrics[key] = statistics.median(values)
        metrics["setup.interpreter_s"] = statistics.median(r["interpreter_s"] for r in ok)
        metrics["setup.import_s"] = statistics.median(r["import_s"] for r in ok)
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in plain))
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0 and bool(metrics) and not unsteady_counts,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "repetitions": [{"traced": t, **{k: v for k, v in r.items() if k != "failures"}}
                        for t, r, _ in reps],
        "digests": first,
        "reference_checked": reference is not None,
        "notes": notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        parser.error("--seed must lie in [0, 2^64) and --seconds be positive")
    if not (ROOT / "src" / "weaksep" / "experiments.py").is_file():
        print(f"no weaksep sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}

    WORK.mkdir(exist_ok=True)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    names = sorted(WORKLOADS) if args.all else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        result["env"] = env
        results.append(result)
        for note in result["notes"]:
            print(f"{name}: {note}", file=sys.stderr)
        if args.all:
            print(f"== {name}  seed {args.seed}  {len(result['repetitions'])} repetitions")
            for key, value in result["metrics"].items():
                print(f"  {key:32s} {value:16.6g} {units.get(key, '')}")
            print(f"  {'failed_fraction':32s} {result['failed'] / result['attempted']:16.6g} "
                  f"({result['failed']} of {result['attempted']} experiment runs)")
    out = WORK / (f"all-seed{args.seed}-trace{args.trace}.json" if args.all
                  else f"{args.workload}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(results if args.all else results[0], fh, indent=1, sort_keys=True)
    if args.all:
        return 0
    result = results[0]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
