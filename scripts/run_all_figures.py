#!/usr/bin/env python3
"""Reproduce every experiment with full-scale defaults into results/.

Run from the repository root:

    python scripts/run_all_figures.py [--seed N] [--out DIR]

Each experiment runs through the weaksep CLI into DIR/EXPERIMENT, writing
plot-ready CSVs plus a summary.json, and so has the CLI's exit statuses and
JSON errors; the script stops at the first run that fails, with its status.
"""

import argparse
import sys
from pathlib import Path

from weaksep.cli import main
from weaksep.experiments import DEFAULT_MASTER_SEED, EXPERIMENTS

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    parser.add_argument("--out", type=Path, default=Path("results"))
    args = parser.parse_args()
    for name in sorted(EXPERIMENTS):
        if status := main([name, "--seed", str(args.seed), "--out", str(args.out / name)]):
            sys.exit(status)
