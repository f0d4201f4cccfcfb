"""The benchmark's own tests. Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run_bench import WORK, spawn  # noqa: E402
from tracer import COUNT_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_count_metrics_repeat_exactly(workload):
    counts = []
    for attempt in range(2):
        out = WORK / f"test-{workload}-{attempt}"
        shutil.rmtree(out, ignore_errors=True)
        report = spawn(workload, 7, 1, out)
        shutil.rmtree(out)
        assert report and not report["failures"]
        counts.append({k: report["layers"][k] for k in COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["experiments.csv_rows"] > 0
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    reported = set(report["layers"]) | {"setup.interpreter_s", "setup.import_s", "trace.overhead_s"}
    assert reported == declared


def test_self_time_excludes_children_and_draws():
    t = Tracer()
    # run [0, 10] holds ensemble [1, 7], which holds derive [2, 3] and 1.5 s of draws
    t.names = ["experiments.run", "walk.run_ensemble", "stats.derive_generator"]
    t.parents = [-1, 0, 1]
    t.starts = [0.0, 1.0, 2.0]
    t.ends = [10.0, 7.0, 3.0]
    t.draw_s = [0.0, 1.5, 0.0]
    totals = t.span_totals()
    assert totals["experiments.run"][2] == pytest.approx(4.0)
    assert totals["walk.run_ensemble"][2] == pytest.approx(3.5)
    assert totals["stats.derive_generator"][2] == pytest.approx(1.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run_bench.py", "--workload", "tsvf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
