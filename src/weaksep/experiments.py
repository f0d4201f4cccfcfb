"""Declarative experiment runner: from a spec to CSV artifacts plus summary.json.

Each experiment has full-scale defaults, every default is overridable, and a
run is fully determined by (experiment, parameters, master_seed): rerunning
the same spec produces byte-identical CSVs. Output CSVs are UTF-8, comma
separated, header row first, line-feed terminated.
"""

from __future__ import annotations

import copy
import json
import math
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .discriminate import (MIN_CDF_TRIALS, MIN_CURVE_TRIALS, Candidate, average_cdf,
                           hypothesis_success_curves, success_curve)
from .qubit import helstrom_bound, make_discrimination_pair, state_from_angle
from .stats import (MIN_FIT_SAMPLES, PRNG_ALGORITHM, LaneStreams, fit_lognormal,
                    quadratic_scaling_fit)
from .tsvf import (TsvfSetup, analytic_moments, optimal_eta, quadrature_moments,
                   separation_report)
from .walk import (_MAX_SLICE_LANES, Outcome, PointerModel, WalkBoundaries, _back_action,
                   _lockstep, run_ensemble, state_log_odds)

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


_CSV_ROWS = 1024  # most rows the writer formats at once, so that its memory stays flat


def _write_csv(path: Path, header: list[str], blocks, files: list[Path]) -> None:
    """Write the header, then the rows of `blocks`, each a tuple of equal-length
    columns, a window of at most _CSV_ROWS rows at a time.

    A field is `str` of its Python value: an array (numeric, boolean or text)
    goes through `tolist` first, so a float prints as its shortest repr and an
    integer in full. Fields are never quoted: no value the experiments write
    holds a comma, a double quote or a line break.
    """
    if path in files:  # e.g. two sigmas that print alike in a file name
        raise ValueError(f"two outputs of the run would both be {path.name}")
    files.append(path)  # before writing, so that a failed run removes a partial file
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            for lo in range(0, len(block[0]), _CSV_ROWS):
                window = [column[lo:lo + _CSV_ROWS] for column in block]
                fields = [map(str, c.tolist() if isinstance(c, np.ndarray) else c) for c in window]
                fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


_DUMP_READINGS = 1 << 20  # most readings the trajectory dump holds at once
_TRAJECTORY_HEADER = ["trial", "step", "reading", "alpha", "beta"]


def _trajectory_rows(s0, pm: PointerModel, wb: WalkBoundaries, steps, master_seed: int,
                     seed_path: tuple[int, ...] = ()):
    """Column blocks of the per-step rows of the ensemble whose trials took `steps`
    steps: the kernel's readings on the ensemble's own streams, and
    `_back_action` iterated over them from s0.

    Trials go in chunks of at most _MAX_SLICE_LANES trials whose readings fit
    one buffer of _DUMP_READINGS. A trial longer than that is a chunk of its
    own, and walks in segments of at most _DUMP_READINGS steps, each resuming
    on the same log-odds and streams. A lane's draws depend only on
    (master_seed, seed_path, index), and a lane that has not stopped has used
    every uniform it drew, so the chunks and segments leave them unchanged.
    No block holds more than _CSV_ROWS rows.
    """
    held = np.cumsum(steps + 1)  # readings plus lanes of trials 0..i
    g, sigma = pm.g, pm.sigma
    lo = 0
    while lo < steps.size:
        # the trials from lo on that fit the buffer and one slice, and at least one
        limit = held[lo] - steps[lo] - 1 + _DUMP_READINGS
        hi = min(lo + _MAX_SLICE_LANES,
                 max(lo + 1, int(np.searchsorted(held, limit, side="right"))))
        n = steps[lo:hi]
        end = np.cumsum(n)  # one past each trial's last row in the chunk
        start = end - n
        L = np.full(hi - lo, state_log_odds(s0))
        streams = LaneStreams(master_seed, seed_path, np.arange(lo, hi))
        # a chunk of several trials is one segment; in a one-trial chunk, row r is step r + 1
        for first in range(0, int(end[-1]), _DUMP_READINGS):
            buffer = np.empty(min(int(end[-1]) - first, _DUMP_READINGS))
            # a lane stops where its trial did: on crossing, or at the cap, which is then n.max()
            for t, lanes, x, _ in _lockstep(L, pm, wb, min(int(n.max()) - first, buffer.size),
                                            streams):
                buffer[start[lanes] + t - 1] = x
            for r in range(0, buffer.size, _CSV_ROWS):
                xs = buffer[r:r + _CSV_ROWS].tolist()
                rows = np.arange(first + r, first + r + len(xs))
                trial = np.searchsorted(end, rows, side="right")
                step = rows - start[trial] + 1
                alphas, betas = [], []
                for t, x in zip(step.tolist(), xs):
                    if t == 1:
                        alpha, beta = s0.alpha, s0.beta
                    alpha, beta = _back_action(alpha, beta, x, g, sigma)
                    alphas.append(alpha)
                    betas.append(beta)
                yield trial + lo, step, xs, alphas, betas
        lo = hi


# ---------------------------------------------------------------------------
# experiment implementations

def _run_helstrom_table(params, master_seed, outdir, files) -> dict:
    thetas = params["theta_grid"]
    _write_csv(outdir / "helstrom_table.csv", ["theta_deg", "helstrom"],
               [(thetas, [helstrom_bound(t) for t in thetas])], files)
    return {"points": len(thetas)}


def _run_fig2(params, master_seed, outdir, files) -> dict:
    pm = PointerModel(params["sigma"])
    wb = WalkBoundaries(*params["boundaries"])
    s0 = state_from_angle(params["start_angle_deg"])
    trials = params["trials"]
    ens = run_ensemble([(s0, pm, ())], wb, trials, master_seed, params["max_steps"])
    steps, labels = ens.steps[0], ens.labels[0]
    names = np.array([outcome.name.lower() for outcome in Outcome])
    _write_csv(outdir / "fig2_steps.csv", ["trial", "steps", "label"],
               [(np.arange(trials), steps, names[labels])], files)
    collapsed = steps[labels != Outcome.MAXED_OUT]
    fit = fit_lognormal(collapsed)
    if params["dump_trajectories"]:
        _write_csv(outdir / "fig2_trajectories.csv", _TRAJECTORY_HEADER,
                   _trajectory_rows(s0, pm, wb, steps, master_seed), files)
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
    pms = [PointerModel(sigma) for sigma in params["sigma_grid"]]
    ens = run_ensemble([(s0, pm, (k,)) for k, pm in enumerate(pms)], wb, trials, master_seed,
                       params["max_steps"])
    rows = []
    for k, (pm, steps, labels) in enumerate(zip(pms, ens.steps, ens.labels)):
        collapsed = steps[labels != Outcome.MAXED_OUT]
        if not collapsed.size:
            raise ValueError(f"no walk collapsed within max_steps at sigma {pm.sigma}")
        rows.append((pm.sigma, float(np.median(collapsed)), float(np.mean(collapsed)), trials))
        if params["dump_trajectories"]:
            _write_csv(outdir / f"fig3_trajectories_sigma{pm.sigma:g}.csv", _TRAJECTORY_HEADER,
                       _trajectory_rows(s0, pm, wb, steps, master_seed, (k,)), files)
    columns = tuple(zip(*rows))
    _write_csv(outdir / "fig3_medians.csv",
               ["sigma", "median_steps", "mean_steps", "trials"], [columns], files)
    coeff, r2 = quadratic_scaling_fit(*columns[:2])  # median_steps against sigma
    return {"coefficient": coeff, "r_squared": r2}


def _write_success_curve(path: Path, curve, files: list[Path]) -> None:
    _write_csv(path, ["theta_deg", "success", "stderr", "helstrom"],
               [(curve.theta_grid, curve.success, curve.stderr, curve.helstrom)], files)


def _run_fig4(params, master_seed, outdir, files) -> dict:
    # the weak-process part of iterative collapse, with no strong measurement: the
    # fraction of PSI1 walks that collapse toward |1>; a maxed-out walk fails
    pm, wb = PointerModel(params["sigma"]), WalkBoundaries(*params["boundaries"])
    trials = params["trials"]
    thetas = np.asarray(params["theta_grid"], dtype=float)
    points = [(make_discrimination_pair(theta)[0], pm, (k,)) for k, theta in enumerate(thetas)]
    ens = run_ensemble(points, wb, trials, master_seed, params["max_steps"])
    wins = np.count_nonzero(ens.labels == Outcome.ONE, axis=1).tolist()
    curve = success_curve(thetas, wins, trials)
    _write_success_curve(outdir / "fig4_success.csv", curve, files)
    return {"worst_margin_vs_helstrom": float(np.min(curve.success - curve.helstrom))}


def _run_fig5(params, master_seed, outdir, files) -> dict:
    curves = hypothesis_success_curves(
        params["theta_grid"], params["m_values"], PointerModel(params["sigma"]),
        params["trials"], master_seed)
    headline = {}
    for m, curve in curves.items():
        _write_success_curve(outdir / f"fig5_m{m}.csv", curve, files)
        headline[str(m)] = float(curve.success[-1])
    return {"success_at_max_theta": headline}


def _run_fig6(params, master_seed, outdir, files) -> dict:
    psi1, psi2 = make_discrimination_pair(params["theta_deg"])
    truth_state = psi1 if Candidate(params["truth"]) is Candidate.PSI1 else psi2
    pm = PointerModel(params["sigma"])
    medians = {}
    for m in dict.fromkeys(params["m_values"]):
        cdf = average_cdf(truth_state, m, pm, params["trials"], master_seed)
        _write_csv(outdir / f"fig6_m{m}.csv", ["mean_reading", "cdf"],
                   [(cdf.values, cdf.levels)], files)
        medians[str(m)] = cdf.median
    return {"medians": medians}


def _run_tsvf_report(params, master_seed, outdir, files) -> dict:
    rows = []
    worst_mean = worst_second = worst_err = 0.0
    evaluations = 0
    setups = [TsvfSetup(eta, g, sigma) for g, sigma, eta
              in product(params["g_grid"], params["sigma_grid"], params["eta_grid"])]
    for setup, orc in zip(setups, quadrature_moments(setups)):
        eta, g, sigma = setup.eta, setup.g, setup.sigma
        ana = analytic_moments(setup)
        rows.append((eta, g, sigma, ana.mean, orc.mean, ana.second_moment, orc.second_moment,
                     setup.postselect_prob))
        worst_mean = max(worst_mean, abs(ana.mean - orc.mean) / sigma)
        worst_second = max(worst_second, abs(ana.second_moment - orc.second_moment)
                           / abs(ana.second_moment))
        evaluations += orc.evaluations
        worst_err = max(worst_err, orc.worst_err_ratio)
    _write_csv(outdir / "tsvf_report.csv",
               ["eta", "g", "sigma", "mean_analytic", "mean_quadrature",
                "second_moment_analytic", "second_moment_quadrature",
                "postselect_prob"], [tuple(zip(*rows))], files)
    return {"worst_mean_abs_err_sigma": worst_mean, "worst_second_moment_rel_err": worst_second,
            "quadrature_evaluations": evaluations, "worst_quadrature_err_ratio": worst_err}


def _run_tsvf_separation(params, master_seed, outdir, files) -> dict:
    g, sigma = params["g"], params["sigma"]
    eta1 = params["eta1"]
    if eta1 is None:
        eta1, _ = optimal_eta(g, sigma)
    report = separation_report(eta1, params["eta2"], g, sigma)
    m1, m2 = report.moments_1, report.moments_2
    row = {"eta1": eta1, "eta2": params["eta2"], "g": g, "sigma": sigma,
           "mean_1": m1.mean, "mean_2": m2.mean, "mean_gap": report.mean_gap,
           "variance_1": m1.variance, "variance_2": m2.variance,
           "postselect_prob_1": m1.postselect_prob, "postselect_prob_2": m2.postselect_prob,
           "acceptance_prob_1": m1.acceptance_prob, "acceptance_prob_2": m2.acceptance_prob,
           "bayes_error": report.bayes_error}
    _write_csv(outdir / "tsvf_separation.csv", list(row), [tuple(zip(row.values()))], files)
    headline = ("mean_gap", "bayes_error", "postselect_prob_1", "postselect_prob_2")
    return {**{key: row[key] for key in headline},
            "quadrature_evaluations": report.evaluations,
            "worst_quadrature_err_ratio": report.worst_err_ratio}


# name -> (default parameters, runner); every default is overridable by a
# value of the same JSON kind (see `_kind`)
EXPERIMENTS = {
    "helstrom-table": (
        {"theta_grid": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0]},
        _run_helstrom_table),
    "fig2": (
        {"sigma": 20.0, "boundaries": (10.0, 80.0), "start_angle_deg": 45.0,
         "trials": 10000, "max_steps": None, "dump_trajectories": False},
        _run_fig2),
    "fig3": (
        {"sigma_grid": [5.0, 10.0, 15.0, 20.0, 25.0], "boundaries": (10.0, 80.0),
         "start_angle_deg": 45.0, "trials": 10000, "max_steps": None,
         "dump_trajectories": False},
        _run_fig3),
    "fig4": (
        {"theta_grid": [30.0, 40.0, 50.0, 60.0, 70.0, 80.0], "boundaries": (1.0, 89.0),
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


# JSON kinds of the parameters whose default is None, which stays allowed
_NONE_DEFAULT_KINDS = {"max_steps": 1, "eta1": 1.0}
# fewest trials a run can summarize, where that is more than one
_TRIAL_FLOORS = {"fig2": MIN_FIT_SAMPLES, "fig5": MIN_CURVE_TRIALS, "fig6": MIN_CDF_TRIALS}
# most weak measurements a run without boundaries may take (fig6 at 10^5 trials and
# m = 20 takes 2e6), and its exact count of them (fig6 walks each distinct m on its
# own); a boundary walk's length is not known before it ends
_MAX_READINGS = 10**10
_READINGS = {"fig5": lambda p: p["trials"] * len(p["theta_grid"]) * max(p["m_values"]),
             "fig6": lambda p: p["trials"] * sum(set(p["m_values"]))}


def default_parameters(experiment: str) -> dict:
    """A fresh copy of the experiment's defaults; callers may mutate it."""
    return copy.deepcopy(EXPERIMENTS[experiment][0])


def _is_int(v) -> bool:
    """A JSON integer; bools are rejected although Python counts them as ints."""
    return isinstance(v, int) and not isinstance(v, bool)


# (type of a default, test of a value, name); bool before int. Every integer
# parameter counts trials, steps or readings, so it is at least 1.
_SCALAR_KINDS = (
    (bool, lambda v: isinstance(v, bool), "a boolean"),
    (int, lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    (float, lambda v: _is_int(v) or (isinstance(v, float) and math.isfinite(v)),
     "a finite number"),
    (str, lambda v: isinstance(v, str), "a string"),
)


def _kind(default):
    """(test, name) of a default's JSON kind: its scalar kind, or for a list a
    nonempty list of its first entry's kind; a tuple also fixes the length."""
    if not isinstance(default, (list, tuple)):
        return next((test, name) for t, test, name in _SCALAR_KINDS if isinstance(default, t))
    test, name = _kind(default[0])
    size = len(default) if isinstance(default, tuple) else None
    return (lambda v: isinstance(v, (list, tuple)) and 0 < len(v) == (size or len(v))
            and all(map(test, v))), f"a list of {size or 'one or more'} entries, each {name}"


def _domain_objects(experiment: str, p: dict) -> list:
    """(label, constructor call) for each domain object a run with parameters p
    builds; the constructors hold the range rules."""
    theta_rule = helstrom_bound if experiment == "helstrom-table" else make_discrimination_pair
    built = [("theta_grid", partial(theta_rule, t)) for t in p.get("theta_grid", ())]
    for key, build in (("theta_deg", make_discrimination_pair), ("truth", Candidate),
                       ("start_angle_deg", state_from_angle),
                       ("boundaries", lambda b: WalkBoundaries(*b))):
        if key in p:
            built.append((key, partial(build, p[key])))
    sigmas = p.get("sigma_grid", [p["sigma"]] if "sigma" in p else [])
    if experiment == "fig3":  # the fit's rules on the grid, before any ensemble runs
        built.append(("sigma_grid", partial(quadratic_scaling_fit, sigmas, sigmas)))
    if not experiment.startswith("tsvf"):
        return built + [("sigma", partial(PointerModel, s)) for s in sigmas]
    etas = p.get("eta_grid", [e for e in (p.get("eta1"), p.get("eta2")) if e is not None])
    setups = product(etas, p.get("g_grid", [p.get("g")]), sigmas)
    if p.get("eta1", 0.0) is None:  # tsvf-separation's default: the optimal eta1
        built.append(("eta1", partial(optimal_eta, p["g"], p["sigma"])))
    return built + [("eta, g, sigma", lambda c=c: analytic_moments(TsvfSetup(*c)))
                    for c in setups]


def validate(spec: ExperimentSpec) -> list[str]:
    """All spec problems, as strings; empty means runnable. Each parameter must have
    its default's JSON kind; then the run's domain objects are built, ValueErrors and
    ArithmeticErrors kept."""
    if not isinstance(spec.experiment, str) or spec.experiment not in EXPERIMENTS:
        return [f"unknown experiment {spec.experiment!r}; choose from {sorted(EXPERIMENTS)}"]
    if not isinstance(spec.parameters, dict):
        return [f"parameters must be a JSON object, got {spec.parameters!r}"]
    errors: list[str] = []
    if not (_is_int(spec.master_seed) and 0 <= spec.master_seed < 2**64):
        errors.append(f"master_seed must be an integer in [0, 2**64), got {spec.master_seed!r}")
    if not isinstance(spec.output_dir, str):
        errors.append(f"output_dir must be a string, got {spec.output_dir!r}")
    defaults = EXPERIMENTS[spec.experiment][0]
    unknown = set(spec.parameters) - set(defaults)
    if unknown:
        errors.append(f"unknown parameters for {spec.experiment}: {sorted(unknown, key=str)}")
        return errors
    for key, value in spec.parameters.items():
        test, kind = _kind(_NONE_DEFAULT_KINDS.get(key, defaults[key]))
        if not (test(value) or (value is None and defaults[key] is None)):
            errors.append(f"{key} must be {kind}, got {value!r}")
    if errors:
        return errors
    params = {**defaults, **spec.parameters}
    floor = _TRIAL_FLOORS.get(spec.experiment, 1)
    if params.get("trials", floor) < floor:
        errors.append(f"{spec.experiment} needs trials >= {floor}, got {params['trials']}")
    if _READINGS.get(spec.experiment, lambda p: 0)(params) > _MAX_READINGS:
        errors.append(f"{spec.experiment} would take more than {_MAX_READINGS} weak measurements")
    with np.errstate(all="ignore"):  # only the rules' exceptions count here
        for label, build in _domain_objects(spec.experiment, params):
            try:
                build()
            except (ValueError, ArithmeticError) as exc:
                errors.append(f"{label}: {exc}")
    if spec.experiment in ("fig2", "fig3") and not errors:
        wb = WalkBoundaries(*params["boundaries"])
        if wb.start_outcome(state_from_angle(params["start_angle_deg"])) is not None:
            # 0-step walks leave no steps to fit
            errors.append(f"start_angle_deg: {params['start_angle_deg']} is on or past a "
                          f"boundary of {params['boundaries']}, so no walk takes a step")
        elif wb.log_odds_zero == -wb.log_odds_one == math.inf:  # no finite log-odds crosses
            errors.append(f"boundaries: {params['boundaries']} are both axes, so no walk collapses")
    return list(dict.fromkeys(errors))


def run(spec: ExperimentSpec) -> RunSummary:
    """Run an experiment, writing its CSVs and summary.json into output_dir.

    Partial outputs are removed if the run fails or is interrupted, and so
    are the directories the run created, while they are empty. A spec that
    `validate` rejects, or whose run fails on its numbers (a ValueError or
    ArithmeticError, such as tsvf's QuadratureError), on its size (a
    MemoryError) or on a walk worker's death (a ChildProcessError), raises
    SpecError. A headline score that is not finite (an R^2 of samples that
    all share one value, say) is written as JSON's null.
    """
    errors = validate(spec)
    if errors:
        raise SpecError(errors)
    params = {**default_parameters(spec.experiment), **spec.parameters}
    outdir = Path(spec.output_dir)
    created = [d for d in (outdir, *outdir.parents) if not d.exists()]  # deepest first
    outdir.mkdir(parents=True, exist_ok=True)
    files: list[Path] = []
    start = time.perf_counter()
    try:
        headline = EXPERIMENTS[spec.experiment][1](params, spec.master_seed, outdir, files)
    except BaseException as exc:
        for path in files:
            path.unlink(missing_ok=True)
        for directory in created:
            try:
                directory.rmdir()
            except OSError:  # not empty: something else writes there too
                break
        if isinstance(exc, (ValueError, ArithmeticError, MemoryError, ChildProcessError)):
            raise SpecError([f"the run failed: {type(exc).__name__}: {exc}"]) from exc
        raise
    wall = time.perf_counter() - start
    summary = RunSummary(
        experiment=spec.experiment,
        parameters=params,
        master_seed=spec.master_seed,
        prng=PRNG_ALGORITHM,
        headline={key: None if isinstance(value, float) and not math.isfinite(value) else value
                  for key, value in headline.items()},  # JSON has no NaN or infinity
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
