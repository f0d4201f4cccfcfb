#!/usr/bin/env python3
"""Record the sha256 of every CSV each workload writes, for the given seeds.

Run from the repository root:

    python3 bench/record_digests.py 20260811 1501

Each workload runs once per seed; its outputs must pass bench/checks.py.
The digests replace those of the same seeds in bench/reference_digests.json.
Record again only in a change that says why the CSV bytes moved.
"""

import json
import shutil
import sys

from checks import check, digests
from run_bench import REFERENCE, WORK, spawn
from workloads import WORKLOADS


def main(seeds: list[int]) -> int:
    with open(REFERENCE, encoding="utf-8") as fh:
        table = json.load(fh)
    for seed in seeds:
        for workload, experiments in WORKLOADS.items():
            rep_dir = WORK / f"record-{workload}-seed{seed}"
            shutil.rmtree(rep_dir, ignore_errors=True)
            report = spawn(workload, seed, 0, rep_dir)
            problems, _ = check(experiments, rep_dir)
            if not report or report["failures"] or problems:
                print(f"{workload} seed {seed} failed: {problems}", file=sys.stderr)
                return 1
            table.setdefault(str(seed), {})[workload] = digests(rep_dir)
            shutil.rmtree(rep_dir)
            print(f"recorded {workload} seed {seed}")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
