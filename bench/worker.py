"""One repetition of a workload, in a fresh process: import weaksep, run the
workload's experiments through `weaksep.experiments.run`, write report.json.

Started by run_bench.py, never by hand. The clock for setup_s is
CLOCK_MONOTONIC, which on Linux is shared by all processes, so the parent's
spawn time and this process's import time can be subtracted.
"""

import time

T_FIRST_LINE = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import weaksep.experiments as experiments
    t_imported = time.clock_gettime(time.CLOCK_MONOTONIC)
    import weaksep
    if Path(weaksep.__file__).resolve().parent != SRC / "weaksep":
        print(f"weaksep imported from {weaksep.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(weaksep)

    failures = {}
    files = []
    start = time.perf_counter()
    for label, experiment, params in WORKLOADS[args.workload]:
        spec = experiments.ExperimentSpec(
            experiment, dict(params), args.seed, str(args.out / label))
        try:
            summary = experiments.run(spec)
        except Exception:  # a failed experiment is a result, not a crash
            failures[label] = traceback.format_exc()
            print(failures[label], file=sys.stderr)
            continue
        files += [f for f in summary.files if f.endswith(".csv")]
    wall = time.perf_counter() - start

    report = {
        "setup_s": t_imported - args.spawned_at,
        "interpreter_s": T_FIRST_LINE - args.spawned_at,
        "import_s": t_imported - T_FIRST_LINE,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failures": failures,
    }
    if tracer is not None:
        rows = sum(_count_lines(f) - 1 for f in files)
        size = sum(Path(f).stat().st_size for f in files)
        report["layers"] = tracer.metrics(rows, size)
        tracer.write_spans(args.out / "spans.csv")
    with open(args.out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


def _count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


if __name__ == "__main__":
    sys.exit(main())
