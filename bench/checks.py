"""Output checks of one repetition, and the weak-measurement count its outputs record.

Byte digests catch any change in a CSV, but only for the seeds that have a
recorded digest. The checks here hold for every seed: structural facts of
the CSVs, closed forms, and the agreement of the two walk paths. Each
returns a list of problems; an empty list means the outputs are correct.

Closed forms used (z-basis Kraus operators commute, so m readings are
jointly alpha^2 prod N(g, sigma^2) + beta^2 prod N(-g, sigma^2)):
  fig5 success = 1/2 [alpha1^2 Phi(-q) + beta1^2 Phi(q)]
               + 1/2 [alpha2^2 Phi(q) + beta2^2 Phi(-q)],  q = g sqrt(m) / sigma
  fig6 mean of m readings ~ alpha^2 N(g, sigma^2/m) + beta^2 N(-g, sigma^2/m)
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import ndtr

Z_LIMIT = 5.0  # binomial z-score allowed against a closed form
KS_LIMIT = 2.7  # sqrt(n) * Kolmogorov distance allowed; p ~ 1e-6 per ECDF
COUPLING = 1.0  # PointerModel's default g; no experiment overrides it


def digests(rep_dir: Path) -> dict[str, str]:
    """sha256 of every CSV under rep_dir, keyed by its path relative to rep_dir."""
    return {
        p.relative_to(rep_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(rep_dir.rglob("*.csv"))
    }


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _params(out: Path) -> dict:
    with open(out / "summary.json", encoding="utf-8") as fh:
        return json.load(fh)["parameters"]


def _born(angle_deg: float) -> tuple[float, float]:
    """(alpha^2, beta^2) of the state at angle_deg."""
    a = math.radians(angle_deg)
    return math.cos(a) ** 2, math.sin(a) ** 2


def _check_fig2(out: Path) -> tuple[list[str], int]:
    rows = _rows(out / "fig2_steps.csv")
    problems = []
    if len(rows) != _params(out)["trials"]:
        problems.append(f"{len(rows)} trial rows")
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        problems.append("trial column is not 0..n-1")
    if any(r[2] not in ("zero", "one", "maxed_out") or int(r[1]) < 1 for r in rows):
        problems.append("bad step count or label")
    return problems, sum(int(r[1]) for r in rows)


def _check_fig3(out: Path) -> tuple[list[str], int]:
    rows = _rows(out / "fig3_medians.csv")
    problems, count = [], 0
    if [float(r[0]) for r in rows] != [float(s) for s in _params(out)["sigma_grid"]]:
        problems.append("sigma column differs from sigma_grid")
    for sigma, median, mean, trials in rows:
        total = float(mean) * int(trials)
        # the mean is over collapsed walks; with none maxed out it is sum/trials
        if abs(total - round(total)) > 1e-6 or not 1.0 <= float(median) <= 200 * float(sigma) ** 2:
            problems.append(f"sigma={sigma}: mean*trials={total!r}, median={median}")
        count += round(total)
    return problems, count


def _check_curve(rows, trials) -> list[str]:
    problems = []
    for theta, success, stderr, helstrom in rows:
        p = float(success)
        if not 0.0 <= p <= 1.0:
            problems.append(f"theta={theta}: success {success}")
        if abs(float(stderr) - math.sqrt(p * (1 - p) / trials)) > 1e-12:
            problems.append(f"theta={theta}: stderr {stderr}")
        if abs(float(helstrom) - 0.5 * (1 + math.sin(math.radians(float(theta))))) > 1e-12:
            problems.append(f"theta={theta}: helstrom {helstrom}")
    return problems


def _check_fig4(out: Path) -> tuple[list[str], int]:
    params = _params(out)
    rows = _rows(out / "fig4_success.csv")
    problems = _check_curve(rows, params["trials"])
    if len(rows) != len(params["theta_grid"]):
        problems.append(f"{len(rows)} theta rows")
    return problems, 0  # fig4's outputs do not record step counts


def _check_fig5(out: Path) -> tuple[list[str], int]:
    params = _params(out)
    trials, sigma = params["trials"], params["sigma"]
    problems = []
    for m in params["m_values"]:
        rows = _rows(out / f"fig5_m{m}.csv")
        problems += _check_curve(rows, trials)
        q = COUPLING * math.sqrt(m) / sigma
        for theta, success, _, _ in rows:
            a1, b1 = _born(45.0 + float(theta) / 2)
            a2, b2 = _born(45.0 - float(theta) / 2)
            p = 0.5 * (a1 * ndtr(-q) + b1 * ndtr(q)) + 0.5 * (a2 * ndtr(q) + b2 * ndtr(-q))
            z = abs(float(success) - p) / math.sqrt(p * (1 - p) / trials)
            if z > Z_LIMIT:
                problems.append(f"m={m} theta={theta}: success {success}, exact {p:.5f}, z={z:.1f}")
    thetas = len(params["theta_grid"])
    return problems, trials * thetas * max(params["m_values"])


def _check_fig6(out: Path) -> tuple[list[str], int]:
    params = _params(out)
    trials, sigma = params["trials"], params["sigma"]
    half = params["theta_deg"] / 2
    a, b = _born(45.0 + half if params["truth"] == "psi1" else 45.0 - half)
    problems, count = [], 0
    for m in params["m_values"]:
        data = np.loadtxt(out / f"fig6_m{m}.csv", delimiter=",", skiprows=1, ndmin=2)
        values, levels = data[:, 0], data[:, 1]
        n = values.size
        if n != trials or np.any(np.diff(values) < 0) or not np.array_equal(
                levels, np.arange(1, n + 1) / n):
            problems.append(f"m={m}: not a sorted ECDF of {trials} samples")
            continue
        s = sigma / math.sqrt(m)
        exact = a * ndtr((values - COUPLING) / s) + b * ndtr((values + COUPLING) / s)
        ks = max(np.max(levels - exact), np.max(exact - (levels - 1.0 / n)))
        if ks * math.sqrt(n) > KS_LIMIT:
            problems.append(f"m={m}: Kolmogorov distance {ks:.4g} to the exact law")
        count += n * m
    return problems, count


def _check_helstrom_table(out: Path) -> tuple[list[str], int]:
    rows = _rows(out / "helstrom_table.csv")
    bad = [t for t, h in rows
           if abs(float(h) - 0.5 * (1 + math.sin(math.radians(float(t))))) > 1e-12]
    return [f"helstrom wrong at theta {bad}"] if bad else [], 0


def _check_tsvf_report(out: Path) -> tuple[list[str], int]:
    params = _params(out)
    rows = _rows(out / "tsvf_report.csv")
    problems = []
    expected = len(params["g_grid"]) * len(params["sigma_grid"]) * len(params["eta_grid"])
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    for r in rows:
        eta, g, sigma, m1a, m1q, m2a, m2q, post = map(float, r)
        if (abs(m1a - m1q) > 1e-6 * abs(m1a) + 1e-12 or abs(m2a - m2q) > 1e-6 * m2a
                or abs(post - math.sin(eta / 2) ** 2) > 1e-12):
            problems.append(f"eta={eta} g={g} sigma={sigma}: analytic and quadrature disagree")
    return problems, len(rows)


def _check_tsvf_separation(out: Path) -> tuple[list[str], int]:
    (row,) = _rows(out / "tsvf_separation.csv")
    v = dict(zip(("eta1", "eta2", "g", "sigma", "mean_1", "mean_2", "mean_gap"),
                 map(float, row)))
    bayes = float(row[-1])
    problems = []
    if abs(v["mean_1"] - v["mean_2"] - v["mean_gap"]) > 1e-12 * abs(v["mean_gap"]):
        problems.append("mean_gap is not mean_1 - mean_2")
    if not 0.0 < bayes <= 0.5:
        problems.append(f"bayes_error {bayes}")
    return problems, 2


def _check_trajectories(out: Path) -> list[str]:
    """The scalar replay must retrace the lockstep kernel's walks exactly."""
    steps = _rows(out / "fig2_steps.csv")
    last = {}
    count = 0
    with open(out / "fig2_trajectories.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for trial, step, _, alpha, beta in reader:
            last[int(trial)] = (int(step), float(alpha), float(beta))
            count += 1
    params = _params(out)
    lo, hi = params["boundaries"]
    problems = []
    if count != sum(int(r[1]) for r in steps):
        problems.append(f"{count} trajectory rows, fig2 steps sum differs")
    for trial, n, label in steps:
        t, alpha, beta = last.get(int(trial), (0, 1.0, 0.0))
        angle = math.degrees(math.atan2(beta, alpha))
        crossed = {"zero": angle <= lo + 1e-6, "one": angle >= hi - 1e-6}.get(label, True)
        if t != int(n) or not crossed:
            problems.append(f"trial {trial}: replay ends at step {t}, angle {angle:.3f}, "
                            f"kernel says {n} steps, {label}")
            break
    return problems


CHECKS = {
    "fig2": _check_fig2,
    "fig3": _check_fig3,
    "fig4": _check_fig4,
    "fig5": _check_fig5,
    "fig6": _check_fig6,
    "helstrom-table": _check_helstrom_table,
    "tsvf-report": _check_tsvf_report,
    "tsvf-separation": _check_tsvf_separation,
}


def check(experiments, rep_dir: Path) -> tuple[dict[str, list[str]], int]:
    """Problems per experiment label, and the weak measurements the outputs record.

    `experiments` is the workload's list of (label, experiment, params).
    """
    problems, count = {}, 0
    for label, experiment, params in experiments:
        out = rep_dir / label
        try:
            found, n = CHECKS[experiment](out)
            if params.get("dump_trajectories"):
                found += _check_trajectories(out)
        except (OSError, ValueError, KeyError) as exc:
            found, n = [f"unreadable output: {exc!r}"], 0
        count += n
        if found:
            problems[label] = found
    return problems, count
