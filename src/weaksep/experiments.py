"""Declarative experiment runner: from a spec to CSV artifacts plus summary.json.

Each experiment has full-scale defaults, every default is overridable, and a
run is fully determined by (experiment, parameters, master_seed): rerunning
the same spec produces byte-identical CSVs. Output CSVs are UTF-8, comma
separated, header row first, line-feed terminated.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .discriminate import (
    average_cdf,
    collapse_success_curve,
    hypothesis_success_curves,
)
from .qubit import helstrom_bound, make_discrimination_pair, state_from_angle
from .stats import PRNG_ALGORITHM, derive_generator, fit_lognormal, quadratic_scaling_fit
from .tsvf import TsvfSetup, analytic_moments, optimal_eta, quadrature_moments, separation_report
from .walk import (
    Outcome,
    PointerModel,
    WalkBoundaries,
    bias_update,
    run_ensemble,
    run_walk,
)

DEFAULT_MASTER_SEED = 20260811


class SpecError(ValueError):
    """Invalid experiment spec; carries the full list of problems."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass
class ExperimentSpec:
    """What to run: experiment name, parameter overrides, seed, output directory."""

    experiment: str
    parameters: dict = field(default_factory=dict)
    master_seed: int = DEFAULT_MASTER_SEED
    output_dir: str = ""

    def __post_init__(self):
        if not self.output_dir:
            self.output_dir = f"results/{self.experiment}"


@dataclass
class RunSummary:
    """Everything needed to reproduce and interpret a run."""

    experiment: str
    parameters: dict
    master_seed: int
    prng: str
    headline: dict
    version: str
    wall_seconds: float
    output_dir: str
    files: list[str]


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float) or isinstance(value, np.floating):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: list[str], rows, files: list[Path]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    files.append(path)


def _dump_trajectories(
    path: Path,
    s0,
    pm: PointerModel,
    wb: WalkBoundaries,
    trials: int,
    master_seed: int,
    max_steps,
    files: list[Path],
    seed_path: tuple[int, ...] = (),
) -> None:
    """Per-step trajectory dump; replays the back-action to recover the state path."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["trial", "step", "reading", "alpha", "beta"])
        for i in range(trials):
            rng = derive_generator(master_seed, *seed_path, i)
            outcome = run_walk(s0, pm, wb, max_steps, rng)
            s = s0
            for t, x in enumerate(outcome.readings, start=1):
                s = bias_update(s, float(x), pm)
                writer.writerow([i, t, _fmt(float(x)), _fmt(s.alpha), _fmt(s.beta)])
    files.append(path)


# ---------------------------------------------------------------------------
# experiment implementations

def _run_helstrom_table(params, master_seed, outdir, files) -> dict:
    rows = [(t, helstrom_bound(t)) for t in params["theta_grid"]]
    _write_csv(outdir / "helstrom_table.csv", ["theta_deg", "helstrom"], rows, files)
    return {"points": len(rows)}


def _run_fig2(params, master_seed, outdir, files) -> dict:
    pm = PointerModel(params["sigma"])
    wb = WalkBoundaries(*params["boundaries"])
    s0 = state_from_angle(params["start_angle_deg"])
    trials = params["trials"]
    ens = run_ensemble(s0, pm, wb, trials, master_seed, params["max_steps"])
    rows = [
        (i, int(ens.steps[i]), Outcome(int(ens.labels[i])).name.lower())
        for i in range(trials)
    ]
    _write_csv(outdir / "fig2_steps.csv", ["trial", "steps", "label"], rows, files)
    collapsed = ens.steps[ens.labels != Outcome.MAXED_OUT]
    fit = fit_lognormal(collapsed)
    if params["dump_trajectories"]:
        _dump_trajectories(outdir / "fig2_trajectories.csv", s0, pm, wb, trials,
                           master_seed, params["max_steps"], files)
    return {
        "mu_tilde": fit.mu_tilde,
        "sigma_tilde": fit.sigma_tilde,
        "r_squared": fit.r_squared,
        "r_squared_log_bins": fit.r_squared_log_bins,
        "median_steps": float(np.median(collapsed)),
        "mean_steps": float(np.mean(collapsed)),
        "maxed_fraction": ens.fraction(Outcome.MAXED_OUT),
    }


def _run_fig3(params, master_seed, outdir, files) -> dict:
    wb = WalkBoundaries(*params["boundaries"])
    s0 = state_from_angle(params["start_angle_deg"])
    trials = params["trials"]
    rows = []
    medians = []
    for k, sigma in enumerate(params["sigma_grid"]):
        pm = PointerModel(sigma)
        ens = run_ensemble(s0, pm, wb, trials, master_seed,
                           params["max_steps"], seed_path=(k,))
        collapsed = ens.steps[ens.labels != Outcome.MAXED_OUT]
        med = float(np.median(collapsed))
        medians.append(med)
        rows.append((sigma, med, float(np.mean(collapsed)), trials))
        if params["dump_trajectories"]:
            _dump_trajectories(
                outdir / f"fig3_trajectories_sigma{sigma:g}.csv", s0, pm, wb,
                trials, master_seed, params["max_steps"], files, seed_path=(k,))
    _write_csv(outdir / "fig3_medians.csv",
               ["sigma", "median_steps", "mean_steps", "trials"], rows, files)
    coeff, r2 = quadratic_scaling_fit(params["sigma_grid"], medians)
    return {"coefficient": coeff, "r_squared": r2}


def _run_fig4(params, master_seed, outdir, files) -> dict:
    curve = collapse_success_curve(
        params["theta_grid"], WalkBoundaries(*params["boundaries"]),
        PointerModel(params["sigma"]), params["trials"], master_seed,
        params["max_steps"])
    rows = zip(curve.theta_grid, curve.success, curve.stderr, curve.helstrom)
    _write_csv(outdir / "fig4_success.csv",
               ["theta_deg", "success", "stderr", "helstrom"], rows, files)
    return {"worst_margin_vs_helstrom": float(np.min(curve.success - curve.helstrom))}


def _run_fig5(params, master_seed, outdir, files) -> dict:
    curves = hypothesis_success_curves(
        params["theta_grid"], params["m_values"], PointerModel(params["sigma"]),
        params["trials"], master_seed)
    headline = {}
    for m, curve in curves.items():
        rows = zip(curve.theta_grid, curve.success, curve.stderr, curve.helstrom)
        _write_csv(outdir / f"fig5_m{m}.csv",
                   ["theta_deg", "success", "stderr", "helstrom"], rows, files)
        headline[str(m)] = float(curve.success[-1])
    return {"success_at_max_theta": headline}


def _run_fig6(params, master_seed, outdir, files) -> dict:
    psi1, psi2 = make_discrimination_pair(params["theta_deg"])
    truth_state = psi1 if params["truth"] == "psi1" else psi2
    pm = PointerModel(params["sigma"])
    medians = {}
    for m in params["m_values"]:
        cdf = average_cdf(truth_state, m, pm, params["trials"], master_seed)
        rows = zip(cdf.values, cdf.levels)
        _write_csv(outdir / f"fig6_m{m}.csv", ["mean_reading", "cdf"], rows, files)
        medians[str(m)] = cdf.median
    return {"medians": medians}


def _run_tsvf_report(params, master_seed, outdir, files) -> dict:
    rows = []
    worst_mean = worst_second = 0.0
    for g in params["g_grid"]:
        for sigma in params["sigma_grid"]:
            for eta in params["eta_grid"]:
                setup = TsvfSetup(eta, g, sigma)
                ana = analytic_moments(setup)
                orc = quadrature_moments(setup)
                rows.append((eta, g, sigma, ana.mean, orc.mean,
                             ana.second_moment, orc.second_moment,
                             setup.postselect_prob))
                worst_mean = max(worst_mean,
                                 abs(ana.mean - orc.mean) / max(abs(ana.mean), 1e-300))
                worst_second = max(worst_second,
                                   abs(ana.second_moment - orc.second_moment)
                                   / abs(ana.second_moment))
    _write_csv(outdir / "tsvf_report.csv",
               ["eta", "g", "sigma", "mean_analytic", "mean_quadrature",
                "second_moment_analytic", "second_moment_quadrature",
                "postselect_prob"], rows, files)
    return {"worst_mean_rel_err": worst_mean, "worst_second_moment_rel_err": worst_second}


def _run_tsvf_separation(params, master_seed, outdir, files) -> dict:
    g, sigma = params["g"], params["sigma"]
    eta1 = params["eta1"]
    if eta1 is None:
        eta1, _ = optimal_eta(g, sigma)
    report = separation_report(eta1, params["eta2"], g, sigma)
    row = (
        eta1, params["eta2"], g, sigma,
        report.moments_1.mean, report.moments_2.mean, report.mean_gap,
        report.moments_1.variance, report.moments_2.variance,
        report.moments_1.postselect_prob, report.moments_2.postselect_prob,
        report.moments_1.acceptance_prob, report.moments_2.acceptance_prob,
        report.bayes_error,
    )
    _write_csv(outdir / "tsvf_separation.csv",
               ["eta1", "eta2", "g", "sigma", "mean_1", "mean_2", "mean_gap",
                "variance_1", "variance_2", "postselect_prob_1", "postselect_prob_2",
                "acceptance_prob_1", "acceptance_prob_2", "bayes_error"],
               [row], files)
    return {
        "mean_gap": report.mean_gap,
        "bayes_error": report.bayes_error,
        "postselect_prob_1": report.moments_1.postselect_prob,
        "postselect_prob_2": report.moments_2.postselect_prob,
    }


# name -> (default parameters, runner); every default is overridable
EXPERIMENTS = {
    "helstrom-table": (
        {"theta_grid": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0]},
        _run_helstrom_table),
    "fig2": (
        {"sigma": 20.0, "boundaries": [10.0, 80.0], "start_angle_deg": 45.0,
         "trials": 10000, "max_steps": None, "dump_trajectories": False},
        _run_fig2),
    "fig3": (
        {"sigma_grid": [5.0, 10.0, 15.0, 20.0, 25.0], "boundaries": [10.0, 80.0],
         "start_angle_deg": 45.0, "trials": 10000, "max_steps": None,
         "dump_trajectories": False},
        _run_fig3),
    "fig4": (
        {"theta_grid": [30.0, 40.0, 50.0, 60.0, 70.0, 80.0], "boundaries": [1.0, 89.0],
         "sigma": 5.0, "trials": 1000, "max_steps": None},
        _run_fig4),
    "fig5": (
        {"theta_grid": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0],
         "m_values": [5, 10, 20], "sigma": 3.0, "trials": 5000},
        _run_fig5),
    "fig6": (
        {"theta_deg": 50.0, "truth": "psi2", "m_values": [5, 10, 20], "sigma": 3.0,
         "trials": 5000},
        _run_fig6),
    "tsvf-report": (
        {"g_grid": [0.01, 0.05, 0.1, 0.5], "sigma_grid": [1.0, 2.0, 5.0],
         "eta_grid": [0.05, 0.2, math.pi / 4, math.pi / 2, 2.5]},
        _run_tsvf_report),
    "tsvf-separation": (
        {"g": 0.05, "sigma": 2.0, "eta1": None, "eta2": 2.0},
        _run_tsvf_separation),
}


def default_parameters(experiment: str) -> dict:
    """A fresh copy of the experiment's defaults; callers may mutate it."""
    return copy.deepcopy(EXPERIMENTS[experiment][0])


def _is_int(v) -> bool:
    """A JSON integer; bools are rejected although Python counts them as ints."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A finite JSON number, integer or float; not a bool, NaN or infinity."""
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


def _check_boundaries(value, errors):
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(_is_real(v) for v in value)):
        errors.append(f"boundaries must be a [a0, a1] pair, got {value!r}")
    elif not (0.0 <= value[0] < value[1] <= 90.0):
        errors.append(f"boundaries must satisfy 0 <= a0 < a1 <= 90, got {value!r}")


def _check_angle_grid(grid, errors, name):
    if not isinstance(grid, (list, tuple)) or not grid:
        errors.append(f"{name} must be a nonempty list of angles")
        return
    for t in grid:
        if not _is_real(t) or not 0.0 < t <= 90.0:
            errors.append(f"{name} entries must lie in (0, 90], got {t!r}")


def validate(spec: ExperimentSpec) -> list[str]:
    """All spec problems, as strings; empty means runnable."""
    errors: list[str] = []
    if spec.experiment not in EXPERIMENTS:
        return [f"unknown experiment {spec.experiment!r}; "
                f"choose from {sorted(EXPERIMENTS)}"]
    if not (_is_int(spec.master_seed) and 0 <= spec.master_seed < 2**64):
        errors.append(f"master_seed must be an integer in [0, 2**64), "
                      f"got {spec.master_seed!r}")
    defaults = default_parameters(spec.experiment)
    unknown = set(spec.parameters) - set(defaults)
    if unknown:
        errors.append(f"unknown parameters for {spec.experiment}: {sorted(unknown)}")
        return errors
    params = {**defaults, **spec.parameters}

    trials = params.get("trials")
    if trials is not None and (not _is_int(trials) or trials < 1):
        errors.append(f"trials must be an integer >= 1, got {trials!r}")
    if spec.experiment in ("fig2", "fig3") and _is_int(trials) and trials < 30:
        errors.append(f"{spec.experiment} needs trials >= 30 for the distribution fit")
    if spec.experiment == "fig5" and _is_int(trials) and trials < 100:
        errors.append("fig5 needs trials >= 100")
    if spec.experiment == "fig6" and _is_int(trials) and trials < 1000:
        errors.append("fig6 needs trials >= 1000")
    for key in ("sigma", "g"):
        if key in params and (not _is_real(params[key])
                              or params[key] <= 0):
            errors.append(f"{key} must be a positive finite number, got {params[key]!r}")
    if "sigma_grid" in params:
        if (not isinstance(params["sigma_grid"], (list, tuple))
                or len(params["sigma_grid"]) < 1
                or any(not _is_real(s) or s <= 0
                       for s in params["sigma_grid"])):
            errors.append(f"sigma_grid must be positive finite numbers, got {params['sigma_grid']!r}")
    if "boundaries" in params:
        _check_boundaries(params["boundaries"], errors)
    if "theta_grid" in params:
        _check_angle_grid(params["theta_grid"], errors, "theta_grid")
    if "theta_deg" in params and not (_is_real(params["theta_deg"])
                                      and 0.0 < params["theta_deg"] <= 90.0):
        errors.append(f"theta_deg must lie in (0, 90], got {params['theta_deg']!r}")
    if "start_angle_deg" in params and not (
            _is_real(params["start_angle_deg"])
            and 0.0 <= params["start_angle_deg"] <= 90.0):
        errors.append(f"start_angle_deg must lie in [0, 90], "
                      f"got {params['start_angle_deg']!r}")
    if "m_values" in params:
        ms = params["m_values"]
        if (not isinstance(ms, (list, tuple)) or not ms
                or any(not _is_int(m) or m < 1 for m in ms)):
            errors.append(f"m_values must be integers >= 1, got {ms!r}")
    if "max_steps" in params and params["max_steps"] is not None:
        if not _is_int(params["max_steps"]) or params["max_steps"] < 1:
            errors.append(f"max_steps must be an integer >= 1, got {params['max_steps']!r}")
    if "eta_grid" in params:
        for eta in params["eta_grid"]:
            if not _is_real(eta) or not 0.0 < eta <= math.pi:
                errors.append(f"eta_grid entries must lie in (0, pi], got {eta!r}")
    for key in ("eta1", "eta2"):
        if key in params and params[key] is not None:
            if not _is_real(params[key]) or not 0.0 < params[key] <= math.pi:
                errors.append(f"{key} must lie in (0, pi], got {params[key]!r}")
    if "truth" in params and params["truth"] not in ("psi1", "psi2"):
        errors.append(f"truth must be 'psi1' or 'psi2', got {params['truth']!r}")
    if params.get("dump_trajectories") and spec.experiment not in ("fig2", "fig3"):
        errors.append("dump_trajectories is only available for fig2 and fig3")
    return errors


def run(spec: ExperimentSpec) -> RunSummary:
    """Run an experiment, writing its CSVs and summary.json into output_dir.

    Partial outputs are removed if the run fails or is interrupted.
    """
    errors = validate(spec)
    if errors:
        raise SpecError(errors)
    params = {**default_parameters(spec.experiment), **spec.parameters}
    outdir = Path(spec.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    files: list[Path] = []
    start = time.perf_counter()
    try:
        headline = EXPERIMENTS[spec.experiment][1](params, spec.master_seed, outdir, files)
    except BaseException:
        for path in files:
            path.unlink(missing_ok=True)
        raise
    wall = time.perf_counter() - start
    summary = RunSummary(
        experiment=spec.experiment,
        parameters=params,
        master_seed=spec.master_seed,
        prng=PRNG_ALGORITHM,
        headline=headline,
        version=__version__,
        wall_seconds=wall,
        output_dir=str(outdir),
        files=[str(p) for p in files],
    )
    summary_path = outdir / "summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(asdict(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")
    summary.files.append(str(summary_path))
    return summary
