"""Command-line experiment runner.

Usage:
    weaksep EXPERIMENT [--seed N] [--trials N] [--out DIR] [--dump-trajectories]
    weaksep --config spec.json [overriding flags]
    weaksep --list

A config file is a single JSON document with any of the keys
{"experiment", "parameters", "master_seed", "output_dir"}; flags override the
file. Invalid specs exit with status 2 and a machine-readable JSON error on
standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (
    DEFAULT_MASTER_SEED,
    EXPERIMENTS,
    ExperimentSpec,
    SpecError,
    default_parameters,
    run,
)


def _error_json(message: str, details: list[str]) -> None:
    json.dump({"error": message, "details": details}, sys.stderr)
    sys.stderr.write("\n")


def build_spec(args: argparse.Namespace) -> tuple[ExperimentSpec | None, list[str]]:
    """Merge config file and flags into a spec; returns (spec, errors)."""
    config: dict = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return None, [f"cannot read config {args.config}: {exc}"]
        if not isinstance(config, dict):
            return None, ["config must be a JSON object"]
        unknown = set(config) - {"experiment", "parameters", "master_seed", "output_dir"}
        if unknown:
            return None, [f"unknown config keys: {sorted(unknown)}"]

    experiment = args.experiment or config.get("experiment")
    if experiment is None:
        return None, ["no experiment given (positional argument or config key)"]
    parameters = dict(config.get("parameters", {}))
    if args.trials is not None:
        parameters["trials"] = args.trials
    if args.dump_trajectories:
        parameters["dump_trajectories"] = True
    master_seed = args.seed if args.seed is not None else config.get(
        "master_seed", DEFAULT_MASTER_SEED)
    output_dir = str(args.out) if args.out is not None else config.get("output_dir", "")
    spec = ExperimentSpec(
        experiment=experiment,
        parameters=parameters,
        master_seed=master_seed,
        output_dir=output_dir,
    )
    return spec, []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="weaksep",
        description="Run a weak-measurement discrimination experiment and emit "
                    "plot-ready CSVs plus summary.json.",
    )
    parser.add_argument("experiment", nargs="?", choices=sorted(EXPERIMENTS),
                        help="which experiment to run")
    parser.add_argument("--config", type=Path, help="JSON spec file")
    parser.add_argument("--seed", type=int, help="master seed (64-bit integer)")
    parser.add_argument("--trials", type=int, help="override the trials parameter")
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument("--dump-trajectories", action="store_true",
                        help="also write per-step trajectory CSVs (fig2/fig3 only)")
    parser.add_argument("--list", action="store_true",
                        help="list experiments and their default parameters")
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(EXPERIMENTS):
            print(f"{name}: {json.dumps(default_parameters(name))}")
        return 0

    spec, errors = build_spec(args)
    if errors:
        _error_json("invalid invocation", errors)
        return 2

    try:
        summary = run(spec)
    except SpecError as exc:
        _error_json("invalid experiment spec", exc.errors)
        return 2
    except KeyboardInterrupt:
        _error_json("interrupted; partial outputs removed", [])
        return 130

    print(f"{summary.experiment}: wrote {len(summary.files)} files to "
          f"{summary.output_dir} in {summary.wall_seconds:.2f}s")
    for key, value in summary.headline.items():
        print(f"  {key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
