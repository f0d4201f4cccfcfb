"""Command-line experiment runner.

Usage:
    weaksep EXPERIMENT [--seed N] [--trials N] [--out DIR] [--dump-trajectories]
    weaksep --config spec.json [overriding flags]
    weaksep --list

A config file is a single JSON document with any of the keys
{"experiment", "parameters", "master_seed", "output_dir"}; flags override the
file. Invalid invocations (an unknown flag, a mistyped flag value), invalid
specs, runs that fail on their numbers (an overflow, too few collapsed walks to
fit) and unwritable output directories exit with status 2 and a JSON error on
standard error. A run stopped by SIGINT (Ctrl-C) or SIGTERM removes its partial
outputs, writes a JSON error and exits with 128 + the signal number, 130 or 143.
"""

from __future__ import annotations

import argparse
import json
import signal
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's hook; its default prints usage and exits 2
        raise SpecError([message])


def _interrupt(signum, frame):
    raise KeyboardInterrupt(signum)  # as SIGINT does, so that the run cleans up


def _error_json(message: str, details: list[str]) -> None:
    json.dump({"error": message, "details": details}, sys.stderr)
    sys.stderr.write("\n")


def build_spec(args: argparse.Namespace) -> ExperimentSpec:
    """Merge config file and flags into a spec; raises SpecError if they make none."""
    config: dict = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
            raise SpecError([f"cannot read config {args.config}: {exc}"])
        if not isinstance(config, dict):
            raise SpecError(["config must be a JSON object"])
        unknown = set(config) - {"experiment", "parameters", "master_seed", "output_dir"}
        if unknown:
            raise SpecError([f"unknown config keys: {sorted(unknown)}"])

    experiment = args.experiment or config.get("experiment")
    if experiment is None:
        raise SpecError(["no experiment given (positional argument or config key)"])
    parameters = config.get("parameters", {})
    if isinstance(parameters, dict):  # anything else is for validate() to reject
        parameters = dict(parameters)
        if args.trials is not None:
            parameters["trials"] = args.trials
        if args.dump_trajectories:
            parameters["dump_trajectories"] = True
    master_seed = args.seed if args.seed is not None else config.get(
        "master_seed", DEFAULT_MASTER_SEED)
    output_dir = str(args.out) if args.out is not None else config.get("output_dir", "")
    return ExperimentSpec(
        experiment=experiment,
        parameters=parameters,
        master_seed=master_seed,
        output_dir=output_dir,
    )


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="weaksep",
        description="Run a weak-measurement discrimination experiment and emit "
                    "plot-ready CSVs plus summary.json.",
    )
    parser.add_argument("experiment", nargs="?", help="which experiment to run (see --list)")
    parser.add_argument("--config", type=Path, help="JSON spec file")
    parser.add_argument("--seed", type=int, help="master seed (64-bit integer)")
    parser.add_argument("--trials", type=int, help="override the trials parameter")
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument("--dump-trajectories", action="store_true",
                        help="also write per-step trajectory CSVs (fig2/fig3 only)")
    parser.add_argument("--list", action="store_true",
                        help="list experiments and their default parameters")
    try:
        args = parser.parse_args(argv)
        if args.list:
            for name in sorted(EXPERIMENTS):
                print(f"{name}: {json.dumps(default_parameters(name))}")
            return 0
        spec = build_spec(args)
    except SpecError as exc:
        _error_json("invalid invocation", exc.errors)
        return 2

    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        summary = run(spec)
    except SpecError as exc:
        _error_json("invalid experiment spec", exc.errors)
        return 2
    except OSError as exc:
        _error_json("cannot write outputs", [str(exc)])
        return 2
    except KeyboardInterrupt as exc:
        _error_json("interrupted; partial outputs removed", [])
        return 128 + (exc.args[0] if exc.args else signal.SIGINT)
    finally:
        signal.signal(signal.SIGTERM, previous)

    print(f"{summary.experiment}: wrote {len(summary.files)} files to "
          f"{summary.output_dir} in {summary.wall_seconds:.2f}s")
    for key, value in summary.headline.items():
        print(f"  {key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
