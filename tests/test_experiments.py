import contextlib
import io
import json
import math
import os
import signal
import string
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weaksep
import weaksep.experiments as exp
from oracles import oracle_dump, write_csv_rows
from weaksep.cli import main
from weaksep.experiments import (
    DEFAULT_MASTER_SEED,
    EXPERIMENTS,
    ExperimentSpec,
    SpecError,
    default_parameters,
    run,
    validate,
)
from weaksep.qubit import state_from_angle
from weaksep.tsvf import TsvfSetup, optimal_eta, quadrature_moments, separation_report
from weaksep.walk import PointerModel, WalkBoundaries

SRC = str(Path(weaksep.__file__).resolve().parents[1])  # PYTHONPATH for a child process
RUN_ALL_FIGURES = Path(__file__).resolve().parents[1] / "scripts" / "run_all_figures.py"


# specs whose every walk takes one step: no spread to score, so each R^2 is undefined
ONE_STEP_WALKS = [
    ("fig2", {"sigma": 0.01, "trials": 40}),
    ("fig3", {"sigma_grid": [0.01, 0.02, 0.03, 0.04], "trials": 40}),
    ("fig2", {"boundaries": [44.9, 45.1], "trials": 40, "sigma": 2.0}),
]


def strict_json_constant(name):
    """json's parse_constant hook: NaN, Infinity and -Infinity are not JSON (RFC 8259)."""
    raise ValueError(f"{name} is not JSON")


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestValidate:
    def test_unknown_experiment(self):
        errors = validate(ExperimentSpec("fig7"))
        assert errors and "unknown experiment" in errors[0]

    def test_zero_trials(self):
        errors = validate(ExperimentSpec("fig2", {"trials": 0}))
        assert any("trials" in e for e in errors)

    def test_reversed_boundaries(self):
        errors = validate(ExperimentSpec("fig2", {"boundaries": [80.0, 10.0]}))
        assert any("boundaries" in e for e in errors)

    def test_zero_eta_in_tsvf_report(self):
        errors = validate(ExperimentSpec("tsvf-report", {"eta_grid": [0.0, 1.0]}))
        assert any("eta" in e for e in errors)

    def test_unknown_parameter(self):
        errors = validate(ExperimentSpec("fig2", {"sigmas": [1.0]}))
        assert any("unknown parameters" in e for e in errors)

    def test_dump_limited_to_walk_figures(self):
        errors = validate(ExperimentSpec("fig5", {"dump_trajectories": True}))
        assert errors

    def test_fig3_grid_rejected_by_the_fit_before_any_ensemble(self):
        errors = validate(ExperimentSpec("fig3", {"sigma_grid": [5.0]}))
        assert errors == ["sigma_grid: need at least 4 (sigma, median) pairs"]
        errors = validate(ExperimentSpec("fig3", {"sigma_grid": [5.0, 5.0, 10.0, 15.0]}))
        assert errors == ["sigma_grid: sigmas must be distinct"]

    def test_protocol_trial_floors(self):
        assert any("fig5" in e for e in
                   validate(ExperimentSpec("fig5", {"trials": 50})))
        assert any("fig6" in e for e in
                   validate(ExperimentSpec("fig6", {"trials": 500})))

    def test_default_parameters_are_fresh_copies(self):
        default_parameters("fig3")["sigma_grid"].append(99.0)
        assert default_parameters("fig3")["sigma_grid"] == [5.0, 10.0, 15.0, 20.0, 25.0]

    def test_valid_defaults_pass(self):
        for name in EXPERIMENTS:
            assert validate(ExperimentSpec(name)) == []

    def test_run_raises_spec_error(self, tmp_path):
        with pytest.raises(SpecError):
            run(ExperimentSpec("fig2", {"trials": 0}, output_dir=str(tmp_path)))

    @pytest.mark.parametrize("experiment, parameters, runs", [
        ("fig5", {"m_values": [0]}, False),
        ("fig6", {"m_values": [0, 5]}, False),
        ("fig2", {"max_steps": 0}, False),
        ("fig4", {"max_steps": 0}, False),
        ("tsvf-separation", {"g": 0, "eta1": None}, False),  # no optimal eta1
        ("tsvf-separation", {"g": 50}, False),  # the optimal eta1 overflows math.exp
        ("helstrom-table", {"theta_grid": [0.0, 30.0]}, True),  # the bound is 1/2 at 0
        ("fig3", {"trials": 10, "sigma_grid": [2.0, 3.0, 4.0, 5.0]}, True),  # fits no log-normal
        ("fig2", {"start_angle_deg": 5.0, "trials": 40}, False),  # 0-step walks: nothing to fit
        # closed forms that overflow, and a sigma whose square underflows to 0
        ("tsvf-report", {"g_grid": [20.0]}, False),
        ("tsvf-report", {"g_grid": [50.0]}, False),
        ("tsvf-report", {"sigma_grid": [1e300]}, False),
        ("tsvf-separation", {"g": 50.0, "eta1": 1.0}, False),
        ("tsvf-report", {"sigma_grid": [1e-300]}, False),
        ("tsvf-separation", {"sigma": 1e-300, "eta1": 1.0}, False),
        ("fig2", {"sigma": 1e-300, "trials": 40}, False),
        ("fig3", {"sigma_grid": [1e-300, 2e-300, 3e-300, 4e-300]}, False),
        # boundaries on both axes: no walk can collapse, so each would run to its cap
        ("fig2", {"boundaries": [0.0, 90.0], "trials": 40, "sigma": 2.0}, False),
        ("fig3", {"boundaries": [0.0, 90.0], "sigma_grid": [2.0, 3.0, 4.0, 5.0], "trials": 40},
         False),
        ("fig3", {"sigma_grid": [2.0, 3.0, 4.0, 5.0], "trials": 40, "start_angle_deg": 0.0},
         False),
        *[(experiment, parameters, True) for experiment, parameters in ONE_STEP_WALKS],
        # tan(5e-324 degrees) underflows to 0: the boundary is the |0> axis; a sigma
        # whose square overflows; and a g * sigma that overflows
        ("fig2", {"boundaries": [5e-324, 80.0], "trials": 100, "sigma": 2.0}, True),
        ("fig6", {"sigma": 1.7e308, "trials": 1000, "m_values": [5]}, False),
        ("tsvf-separation", {"g": 1.7e308}, False),
    ])
    def test_verdict_is_the_runs(self, tmp_path, capsys, experiment, parameters, runs):
        out = tmp_path / "out"
        errors = validate(ExperimentSpec(experiment, parameters))
        assert (not errors) == runs, errors
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"experiment": experiment, "parameters": parameters,
                                   "output_dir": str(out)}))
        assert main(["--config", str(cfg)]) == (0 if runs else 2)
        if not runs:
            assert json.loads(capsys.readouterr().err)["error"] == "invalid experiment spec"
        assert out.exists() == runs
        if runs:  # strict JSON: a score that is not a number is null, never NaN
            headline = json.loads((out / "summary.json").read_text(),
                                  parse_constant=strict_json_constant)["headline"]
            if (experiment, parameters) in ONE_STEP_WALKS:
                assert ({key for key, value in headline.items() if value is None}
                        == {key for key in headline if key.startswith("r_squared")})


class TestHelstromTable:
    def test_schema_and_values(self, tmp_path):
        spec = ExperimentSpec("helstrom-table", output_dir=str(tmp_path))
        summary = run(spec)
        header, rows = read_csv(tmp_path / "helstrom_table.csv")
        assert header == ["theta_deg", "helstrom"]
        assert len(rows) == 9
        theta, value = (float(v) for v in rows[4])
        assert theta == 50.0
        assert value == pytest.approx(0.883022221559489, abs=1e-12)
        assert summary.headline["points"] == 9


class TestFig2:
    def test_outputs_and_determinism(self, tmp_path):
        params = {"sigma": 5.0, "trials": 400}
        a = run(ExperimentSpec("fig2", params, 5, str(tmp_path / "a")))
        b = run(ExperimentSpec("fig2", params, 5, str(tmp_path / "b")))
        csv_a = (tmp_path / "a" / "fig2_steps.csv").read_bytes()
        csv_b = (tmp_path / "b" / "fig2_steps.csv").read_bytes()
        assert csv_a == csv_b
        assert a.headline == b.headline
        header, rows = read_csv(tmp_path / "a" / "fig2_steps.csv")
        assert header == ["trial", "steps", "label"]
        assert len(rows) == 400
        assert {r[2] for r in rows} <= {"zero", "one", "maxed_out"}

    def test_summary_json_fields(self, tmp_path):
        run(ExperimentSpec("fig2", {"sigma": 5.0, "trials": 200}, 6, str(tmp_path)))
        summary = json.loads((tmp_path / "summary.json").read_text())
        for key in ("experiment", "parameters", "master_seed", "prng", "headline",
                    "version", "wall_seconds"):
            assert key in summary
        assert summary["experiment"] == "fig2"
        assert summary["master_seed"] == 6
        assert summary["parameters"]["sigma"] == 5.0
        assert "mu_tilde" in summary["headline"]

    def test_trajectory_dump_schema_and_consistency(self, tmp_path):
        params = {"sigma": 5.0, "trials": 30, "dump_trajectories": True}
        run(ExperimentSpec("fig2", params, 7, str(tmp_path)))
        header, rows = read_csv(tmp_path / "fig2_trajectories.csv")
        assert header == ["trial", "step", "reading", "alpha", "beta"]
        _, step_rows = read_csv(tmp_path / "fig2_steps.csv")
        steps_by_trial = {int(r[0]): int(r[1]) for r in step_rows}
        assert len(rows) == sum(steps_by_trial.values())
        # per-trial step indices count 1..steps and states stay normalized
        seen = {}
        for r in rows:
            trial, step_idx = int(r[0]), int(r[1])
            assert step_idx == seen.get(trial, 0) + 1
            seen[trial] = step_idx
            alpha, beta = float(r[3]), float(r[4])
            assert abs(alpha**2 + beta**2 - 1.0) < 1e-9
        assert seen == steps_by_trial


class TestFig3:
    def test_schema_and_headline(self, tmp_path):
        params = {"sigma_grid": [2.0, 3.0, 4.0, 5.0], "trials": 300}
        summary = run(ExperimentSpec("fig3", params, 8, str(tmp_path)))
        header, rows = read_csv(tmp_path / "fig3_medians.csv")
        assert header == ["sigma", "median_steps", "mean_steps", "trials"]
        assert len(rows) == 4
        assert summary.headline["coefficient"] > 0

    def test_dump_writes_one_file_per_sigma(self, tmp_path):
        params = {"sigma_grid": [2.0, 3.0, 4.0, 5.0], "trials": 30,
                  "dump_trajectories": True}
        run(ExperimentSpec("fig3", params, 8, str(tmp_path)))
        for sigma in (2, 3, 4, 5):
            header, rows = read_csv(tmp_path / f"fig3_trajectories_sigma{sigma}.csv")
            assert header == ["trial", "step", "reading", "alpha", "beta"]
            assert rows

    def test_every_walk_maxed_out_is_a_spec_error(self, tmp_path):
        # at sigma 3 and 4 no walk collapses within 5 steps: no median to take
        params = {"trials": 40, "sigma_grid": [1.0, 2.0, 3.0, 4.0], "max_steps": 5}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecError, match="sigma"):
                run(ExperimentSpec("fig3", params, output_dir=str(tmp_path / "out")))

    def test_the_error_names_the_first_maxed_out_sigma_in_grid_order(self, tmp_path):
        # no walk collapses within 5 steps at sigma 50 or 60; sigma 60 walks first
        params = {"trials": 40, "sigma_grid": [1.0, 2.0, 50.0, 60.0], "max_steps": 5}
        with pytest.raises(SpecError, match=r"at sigma 50\.0$"):
            run(ExperimentSpec("fig3", params, output_dir=str(tmp_path / "out")))


class TestTrajectoryDump:
    @pytest.mark.parametrize("experiment, parameters, master_seed, buffer, window", [
        # maxed-out walks, and walks longer than the kernel's 32-step blocks
        ("fig2", {"sigma": 5.0, "trials": 80, "max_steps": 40}, 3, None, None),
        ("fig2", {"sigma": 5.0, "trials": 30}, 2**64 - 1, None, None),
        # fig3's seed paths at the default buffer
        ("fig3", {"sigma_grid": [2.0, 3.0, 4.0, 5.0], "trials": 30}, 8, None, None),
        # a buffer of 40 readings: chunks of a few trials, and trials longer than it
        ("fig3", {"sigma_grid": [2.0, 3.0, 4.0, 5.0], "trials": 30}, 8, 40, None),
        # and a row window of 7: windows inside a trial, and on the one-trial path
        ("fig2", {"sigma": 5.0, "trials": 40}, 5, 40, 7),
        ("fig3", {"sigma_grid": [2.0, 3.0, 4.0, 5.0], "trials": 30}, 8, 40, 7),
        # a buffer of 16 against a median walk of about 33 steps: trials that resume
        # across three or more segments, each cut into windows of 7
        ("fig2", {"sigma": 5.0, "trials": 40}, 6, 16, 7),
    ])
    def test_rows_are_the_scalar_walks(self, tmp_path, monkeypatch, experiment, parameters,
                                       master_seed, buffer, window):
        if buffer is not None:
            monkeypatch.setattr(exp, "_DUMP_READINGS", buffer)
        if window is not None:
            monkeypatch.setattr(exp, "_CSV_ROWS", window)
        block_rows = []  # rows of each block handed to the writer for a dump
        write_csv = exp._write_csv

        def recording(path, header, parts, files):
            def seen(blocks):
                for block in blocks:
                    block_rows.append(len(block[0]))
                    yield block
            if "trajectories" in path.name:
                parts = [seen(blocks) for blocks in parts]
            write_csv(path, header, parts, files)

        monkeypatch.setattr(exp, "_write_csv", recording)
        params = {**default_parameters(experiment), **parameters, "dump_trajectories": True}
        run(ExperimentSpec(experiment, params, master_seed, str(tmp_path)))
        assert max(block_rows, default=0) <= exp._CSV_ROWS
        s0 = state_from_angle(params["start_angle_deg"])
        wb = WalkBoundaries(*params["boundaries"])
        if experiment == "fig2":
            dumps = [("fig2_trajectories.csv", params["sigma"], ())]
        else:
            dumps = [(f"fig3_trajectories_sigma{sigma:g}.csv", sigma, (k,))
                     for k, sigma in enumerate(params["sigma_grid"])]
        for name, sigma, seed_path in dumps:
            want = oracle_dump(s0, PointerModel(sigma), wb, params["trials"], master_seed,
                               params["max_steps"], seed_path)
            assert (tmp_path / name).read_bytes() == want, name


    def test_walks_of_no_steps_write_the_header_only(self, tmp_path):
        # validate() rejects a start on a boundary, so no run dumps such walks
        s0, pm, wb = state_from_angle(5.0), PointerModel(2.0), WalkBoundaries(10.0, 80.0)
        path = tmp_path / "fig3_trajectories_sigma2.csv"
        exp._write_csv(path, exp._TRAJECTORY_HEADER,
                       exp._trajectory_parts(s0, pm, wb, np.zeros(30, dtype=np.int64), 8), [])
        assert path.read_bytes() == oracle_dump(s0, pm, wb, 30, 8, None) == (
            b"trial,step,reading,alpha,beta\n")

    def test_chunks_walk_at_most_one_slice(self, tmp_path, monkeypatch):
        # walks of about 2 steps at sigma 1: thousands of trials fit one buffer
        params = {"sigma": 1.0, "trials": 3000, "dump_trajectories": True}
        run(ExperimentSpec("fig2", params, 7, str(tmp_path / "whole")))
        sizes = []
        lockstep = exp._lockstep

        def recording(L, *args):
            sizes.append(L.size)
            return lockstep(L, *args)

        monkeypatch.setattr(exp, "_MAX_SLICE_LANES", 200)
        monkeypatch.setattr(exp, "_lockstep", recording)
        run(ExperimentSpec("fig2", params, 7, str(tmp_path / "sliced")))
        assert sizes and max(sizes) <= 200
        assert sum(sizes) == params["trials"]
        sliced, whole = (tmp_path / d / "fig2_trajectories.csv" for d in ("sliced", "whole"))
        assert sliced.read_bytes() == whole.read_bytes()


class TestFig4:
    def test_schema(self, tmp_path):
        params = {"theta_grid": [40.0, 60.0], "trials": 200}
        run(ExperimentSpec("fig4", params, 9, str(tmp_path)))
        header, rows = read_csv(tmp_path / "fig4_success.csv")
        assert header == ["theta_deg", "success", "stderr", "helstrom"]
        assert len(rows) == 2
        for r in rows:
            assert 0.0 <= float(r[1]) <= 1.0


class TestFig5:
    def test_one_file_per_m(self, tmp_path):
        params = {"theta_grid": [30.0, 60.0], "m_values": [2, 4], "trials": 150}
        summary = run(ExperimentSpec("fig5", params, 10, str(tmp_path)))
        for m in (2, 4):
            header, rows = read_csv(tmp_path / f"fig5_m{m}.csv")
            assert header == ["theta_deg", "success", "stderr", "helstrom"]
            assert len(rows) == 2
        assert set(summary.headline["success_at_max_theta"]) == {"2", "4"}


class TestFig6:
    def test_cdf_files(self, tmp_path):
        params = {"m_values": [3], "trials": 1000}
        summary = run(ExperimentSpec("fig6", params, 11, str(tmp_path)))
        header, rows = read_csv(tmp_path / "fig6_m3.csv")
        assert header == ["mean_reading", "cdf"]
        assert len(rows) == 1000
        levels = [float(r[1]) for r in rows]
        assert levels == sorted(levels)
        assert levels[-1] == 1.0
        assert "3" in summary.headline["medians"]

    def test_repeated_m_written_once(self, tmp_path):
        params = {"m_values": [5, 3, 5], "trials": 1000}
        summary = run(ExperimentSpec("fig6", params, 11, str(tmp_path)))
        names = [Path(f).name for f in summary.files]
        assert names == ["fig6_m5.csv", "fig6_m3.csv", "summary.json"]
        assert json.loads((tmp_path / "summary.json").read_text())["files"] == summary.files[:-1]


class TestTsvfReport:
    @pytest.mark.parametrize("params", [
        {"g_grid": [0.05], "sigma_grid": [2.0], "eta_grid": [0.2, 2.5]},
        # an analytic mean of 4.8e-22: an error relative to it would read about 1.7e5
        {"g_grid": [1.0], "sigma_grid": [5.0], "eta_grid": [0.05]},
    ])
    def test_schema_and_oracle_agreement(self, tmp_path, params):
        summary = run(ExperimentSpec("tsvf-report", params, 12, str(tmp_path)))
        header, rows = read_csv(tmp_path / "tsvf_report.csv")
        assert header == ["eta", "g", "sigma", "mean_analytic", "mean_quadrature",
                          "second_moment_analytic", "second_moment_quadrature",
                          "postselect_prob"]
        assert len(rows) == len(params["eta_grid"])
        assert summary.headline["worst_mean_abs_err_sigma"] < 1e-12

    def test_headline_reports_quadrature_work(self, tmp_path):
        params = {"g_grid": [0.05, 0.5], "sigma_grid": [2.0], "eta_grid": [0.2, 2.5]}
        headline = run(ExperimentSpec("tsvf-report", params, 12, str(tmp_path))).headline
        reports = quadrature_moments([TsvfSetup(eta, g, 2.0)
                                      for g in (0.05, 0.5) for eta in (0.2, 2.5)])
        assert headline["quadrature_evaluations"] == sum(r.evaluations for r in reports)
        assert headline["worst_quadrature_err_ratio"] == max(r.worst_err_ratio for r in reports)
        assert 0.0 < headline["worst_quadrature_err_ratio"] <= 1.0


class TestTsvfSeparation:
    def test_single_row_report(self, tmp_path):
        summary = run(ExperimentSpec("tsvf-separation", {}, 13, str(tmp_path)))
        header, rows = read_csv(tmp_path / "tsvf_separation.csv")
        assert len(rows) == 1
        row = dict(zip(header, (float(v) for v in rows[0])))
        assert row["mean_gap"] == pytest.approx(summary.headline["mean_gap"])
        assert row["bayes_error"] == pytest.approx(
            summary.headline["bayes_error"], abs=1e-12)
        assert 0.0 < row["bayes_error"] < 0.5

    def test_headline_reports_quadrature_work(self, tmp_path):
        headline = run(ExperimentSpec("tsvf-separation", {}, 13, str(tmp_path))).headline
        eta1 = optimal_eta(0.05, 2.0)[0]
        report = separation_report(eta1, 2.0, 0.05, 2.0)
        q1, q2 = quadrature_moments([TsvfSetup(eta, 0.05, 2.0) for eta in (eta1, 2.0)])
        # the seven quadratures: three moments of each setup, then the overlap
        assert headline["quadrature_evaluations"] == report.evaluations
        assert report.evaluations > q1.evaluations + q2.evaluations > 0
        assert headline["worst_quadrature_err_ratio"] == report.worst_err_ratio
        assert max(q1.worst_err_ratio, q2.worst_err_ratio) <= report.worst_err_ratio <= 1.0

    def test_bayes_error_quadrature_limit_is_a_json_error(self, tmp_path, capsys):
        # validate() accepts the spec, but QUADPACK stops short of the Bayes-error
        # tolerance on the kinks of min(p1, p2); a known limit, reported, not fixed
        parameters = {"g": 2.0, "sigma": 1.0}
        assert validate(ExperimentSpec("tsvf-separation", parameters)) == []
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"experiment": "tsvf-separation", "parameters": parameters,
                                   "output_dir": str(tmp_path / "out")}))
        assert main(["--config", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "the run failed"
        assert "QuadratureError" in err["details"][0]
        assert list(tmp_path.iterdir()) == [cfg]


class TestScipyImports:
    def test_no_run_loads_scipy_integrate_or_stats(self, tmp_path):
        # a fresh interpreter: this one has imported both modules for the tests;
        # tsvf quadrature runs the package's QAGS, not scipy.integrate.quad
        specs = {name: TINY.get(name, {}) for name in sorted(EXPERIMENTS)}
        script = (
            "import json, sys\n"
            "import weaksep.cli\n"
            "from weaksep.experiments import ExperimentSpec, run\n"
            f"for name, params in {specs!r}.items():\n"
            f"    run(ExperimentSpec(name, params, 1, {str(tmp_path)!r} + '/' + name))\n"
            "print(json.dumps([n for n in ('scipy.integrate', 'scipy.stats')"
            " if n in sys.modules]))\n"
        )
        out = subprocess.run([sys.executable, "-c", script],
                             env={**os.environ, "PYTHONPATH": SRC},
                             capture_output=True, text=True, check=True, timeout=120)
        assert json.loads(out.stdout) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(EXPERIMENTS)

    def test_importing_experiments_does_not_load_quadpack(self):
        # every benchmark process imports weaksep.experiments, and only tsvf quadrature
        # needs the QAGS port, which tsvf.quad imports on its first call
        script = "import sys, weaksep.experiments; print('weaksep.quadpack' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", script],
                             env={**os.environ, "PYTHONPATH": SRC},
                             capture_output=True, text=True, check=True, timeout=120)
        assert out.stdout.strip() == "False"


_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5]))
_INT64 = st.integers(-2**63, 2**63 - 1)
_TEXT = st.text(string.ascii_letters + string.digits + "_.-+ ", min_size=1)
# kind of column the writer may be handed -> (its values, the column built from a list)
_COLUMNS = {
    "float64": (_FLOATS, lambda v: np.array(v, dtype=np.float64)),
    "float32": (st.floats(width=32), lambda v: np.array(v, dtype=np.float32)),
    "int64": (_INT64, lambda v: np.array(v, dtype=np.int64)),
    "uint64": (st.integers(0, 2**64 - 1), lambda v: np.array(v, dtype=np.uint64)),
    "str array": (_TEXT, np.array),
    "bool array": (st.booleans(), lambda v: np.array(v, dtype=bool)),
    "ints and floats": (st.one_of(st.integers(-10**30, 10**30), _FLOATS), list),  # [30, 40.5]
    "strs": (_TEXT, tuple),
    "np.float64": (_FLOATS.map(np.float64), list),
    "np.int64": (_INT64.map(np.int64), list),
    # np.bool_ only: a Python bool prints as True where the row writer's 1, and
    # no experiment writes one
    "bools": (st.booleans().map(np.bool_), list),
}


@st.composite
def _blocks(draw):
    """Blocks of equal-length columns, some empty and some longer than the window."""
    width = draw(st.integers(1, 4))
    blocks = []
    for n in draw(st.lists(st.integers(0, 12), max_size=4)):
        columns = []
        for kind in draw(st.lists(st.sampled_from(sorted(_COLUMNS)), min_size=width,
                                  max_size=width)):
            values, build = _COLUMNS[kind]
            columns.append(build(draw(st.lists(values, min_size=n, max_size=n))))
        blocks.append(tuple(columns))
    return blocks


class TestWriteCsv:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(blocks=_blocks(), window=st.integers(1, 8))
    def test_bytes_equal_the_row_writer(self, blocks, window):
        header = [f"c{j}" for j in range(len(blocks[0]) if blocks else 1)]
        rows = [row for block in blocks for row in zip(*block)]
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(exp, "_CSV_ROWS", window):
            want, got = Path(tmp) / "rows.csv", Path(tmp) / "columns.csv"
            write_csv_rows(want, header, rows, [])
            exp._write_csv(got, header, [blocks], [])
            assert got.read_bytes() == want.read_bytes()


class TestFailureCleanup:
    def test_partial_outputs_removed(self, tmp_path, monkeypatch):
        def broken(params, master_seed, outdir, files):
            exp._write_csv(outdir / "partial.csv", ["a"], [[([1],)]], files)
            raise RuntimeError("boom")

        monkeypatch.setitem(exp.EXPERIMENTS, "fig2", (exp.EXPERIMENTS["fig2"][0], broken))
        with pytest.raises(RuntimeError):
            run(ExperimentSpec("fig2", {"sigma": 5.0, "trials": 40}, 1, str(tmp_path)))
        assert not (tmp_path / "partial.csv").exists()
        assert not (tmp_path / "summary.json").exists()

    def test_file_cut_off_mid_write_removed(self, tmp_path, monkeypatch):
        def blocks():
            yield ([1],)
            raise RuntimeError("boom")

        def broken(params, master_seed, outdir, files):
            exp._write_csv(outdir / "partial.csv", ["a"], [blocks()], files)

        monkeypatch.setitem(exp.EXPERIMENTS, "fig2", (exp.EXPERIMENTS["fig2"][0], broken))
        with pytest.raises(RuntimeError):
            run(ExperimentSpec("fig2", {"sigma": 5.0, "trials": 40}, 1, str(tmp_path / "out")))
        assert not (tmp_path / "out").exists()


class TestCli:
    def test_run_via_flags(self, tmp_path, capsys):
        code = main(["helstrom-table", "--out", str(tmp_path), "--seed", "3"])
        assert code == 0
        assert (tmp_path / "helstrom_table.csv").exists()
        assert "helstrom-table" in capsys.readouterr().out

    def test_run_via_config(self, tmp_path, capsys):
        config = {
            "experiment": "fig2",
            "parameters": {"sigma": 5.0, "trials": 50},
            "master_seed": 4,
            "output_dir": str(tmp_path / "out"),
        }
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps(config))
        assert main(["--config", str(cfg)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["master_seed"] == 4

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"experiment": "fig2",
                                   "parameters": {"sigma": 5.0, "trials": 50}}))
        code = main(["--config", str(cfg), "--trials", "60",
                     "--out", str(tmp_path / "o"), "--seed", "9"])
        assert code == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["parameters"]["trials"] == 60
        assert summary["master_seed"] == 9

    def test_invalid_spec_gives_json_error_and_exit_2(self, tmp_path, capsys):
        code = main(["fig2", "--trials", "0", "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid experiment spec"
        assert any("trials" in d for d in err["details"])
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("experiment, parameters, master_seed", [
        ("fig2", {"trials": 40, "sigma": math.nan}, 1),
        ("fig2", {"trials": 40, "sigma": math.inf}, 1),
        ("fig2", {"trials": 40, "sigma": True}, 1),
        ("fig3", {"trials": 40, "sigma_grid": [5.0, math.inf]}, 1),
        ("tsvf-separation", {"g": math.nan}, 1),
        ("fig2", {"trials": 40}, -1),
        ("fig2", {"trials": 40}, 2**64),
        ("fig2", {"trials": 40}, True),
        ("fig2", 5, 1),
        ("fig2", "ab", 1),
        ([], {}, 1),
        ("fig6", {"truth": "psi3"}, 1),
        ("fig2", {"trials": 40, "dump_trajectories": "no"}, 1),
        ("fig2", {"trials": 40, "boundaries": [1.0]}, 1),
        ("fig2", {"trials": 40, "start_angle_deg": 95.0}, 1),
        ("tsvf-report", {"eta_grid": 5}, 1),
        ("tsvf-report", {"g_grid": [-1.0]}, 1),
        ("tsvf-report", {"g_grid": ["a"]}, 1),
        ("tsvf-report", {"g_grid": []}, 1),
    ])
    def test_bad_numbers_give_json_error_and_exit_2(self, tmp_path, capsys, experiment,
                                                    parameters, master_seed):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"experiment": experiment, "parameters": parameters,
                                   "master_seed": master_seed,
                                   "output_dir": str(tmp_path / "out")}))
        assert main(["--config", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid experiment spec"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment, parameters", [
        ("tsvf-separation", {"g": 50}),
        ("tsvf-separation", {"sigma": 1e300}),
        ("tsvf-separation", {"sigma": 1e-300}),
        ("tsvf-separation", {"g": 0}),
        ("tsvf-report", {"g_grid": [50.0]}),
        ("fig2", {"trials": 30, "sigma": 1e300}),
        ("fig2", {"trials": 30, "sigma": 10**400}),
        ("fig2", {"trials": 30, "sigma": 1e200, "max_steps": 3}),
        ("fig2", {"trials": 30, "start_angle_deg": 0}),
        ("fig3", {"trials": 30, "sigma_grid": [5.0], "dump_trajectories": True}),
        ("fig4", {"trials": 1, "max_steps": 0}),
        ("fig5", {"trials": 100, "m_values": [0]}),
        ("fig6", {"trials": 10**15}),  # past the reading ceiling
        ("fig3", {"trials": 40, "sigma_grid": [2.0, 2.0000001, 3.0, 4.0],
                  "dump_trajectories": True}),  # two dumps named ..._sigma2.csv
        ("fig2", {"trials": 10**15}),  # 16 PB of walk outputs, allocated before any slice
        # closed forms that overflow, and a sigma whose square underflows to 0
        ("tsvf-report", {"g_grid": [20.0]}),
        ("tsvf-report", {"sigma_grid": [1e300]}),
        ("tsvf-report", {"sigma_grid": [1e-300]}),
        ("tsvf-separation", {"g": 50.0, "eta1": 1.0}),
        ("tsvf-separation", {"sigma": 1e-300, "eta1": 1.0}),
        ("fig2", {"sigma": 1e-300, "trials": 40}),
        ("fig3", {"sigma_grid": [1e-300, 2e-300, 3e-300, 4e-300]}),
        ("fig3", {"sigma_grid": [2.0, 3.0, 4.0, 5.0], "trials": 40, "start_angle_deg": 0.0}),
        # a boundary at 5e-324 degrees, on the |0> axis as at 0, leaves 22 collapsed
        # walks, too few to fit; a sigma whose square overflows; a g * sigma that does
        ("fig2", {"boundaries": [5e-324, 80.0], "trials": 40}),
        ("fig6", {"sigma": 1.7e308, "trials": 1000, "m_values": [5]}),
        ("tsvf-separation", {"g": 1.7e308}),
    ])
    def test_failing_runs_give_json_error_and_exit_2(self, tmp_path, capsys, experiment,
                                                     parameters):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"experiment": experiment, "parameters": parameters,
                                   "output_dir": str(tmp_path / "out")}))
        assert main(["--config", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        # a spec that validate() passes fails in its run, and says so
        rejected = validate(ExperimentSpec(experiment, parameters))
        assert err["error"] == ("invalid experiment spec" if rejected else "the run failed")
        assert not [p for p in tmp_path.rglob("*") if p.suffix == ".csv"]
        assert not list(tmp_path.rglob("summary.json"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment, parameters", [
        ("fig5", {"m_values": [10**8]}),  # 5000 trials at 9 thetas: 4.5e12 readings
        ("fig5", {"m_values": [10**400]}),
        ("fig6", {"trials": 10**9}),  # 3.5e10 readings, and about 8 GB if it ran
    ])
    def test_reading_ceiling_gives_json_error_and_exit_2(self, tmp_path, capsys, experiment,
                                                         parameters):
        # validate() first: a spec past it would walk for hours or fill the memory
        errors = validate(ExperimentSpec(experiment, parameters))
        assert errors == [f"{experiment} would take more than {exp._MAX_READINGS} "
                          f"weak measurements"]
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"experiment": experiment, "parameters": parameters,
                                   "output_dir": str(tmp_path / "out")}))
        assert main(["--config", str(cfg)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "invalid experiment spec"
        assert not list(tmp_path.rglob("*.csv"))
        assert not (tmp_path / "out").exists()

    def test_failing_run_removes_only_the_directories_it_created(self, tmp_path, capsys):
        # valid, but the second sigma's dump would overwrite the first's file
        failing = {"sigma_grid": [2.0, 2.0000001, 3.0, 4.0], "trials": 30,
                   "dump_trajectories": True}
        kept = tmp_path / "kept"
        kept.mkdir()
        for output_dir in (tmp_path / "a" / "b" / "out", kept):
            assert not validate(ExperimentSpec("fig3", failing, output_dir=str(output_dir)))
            cfg = tmp_path / "spec.json"
            cfg.write_text(json.dumps({"experiment": "fig3", "parameters": failing,
                                       "output_dir": str(output_dir)}))
            assert main(["--config", str(cfg)]) == 2
            assert json.loads(capsys.readouterr().err)["error"] == "the run failed"
        assert not (tmp_path / "a").exists()
        assert kept.is_dir() and not list(kept.iterdir())

    def test_bad_output_dir_gives_json_error_and_exit_2(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        for output_dir, error in ((5, "invalid experiment spec"),
                                  (str(tmp_path / "file" / "x"), "cannot write outputs")):
            cfg = tmp_path / "spec.json"
            cfg.write_text(json.dumps({"experiment": "helstrom-table",
                                       "output_dir": output_dir}))
            assert main(["--config", str(cfg)]) == 2
            assert json.loads(capsys.readouterr().err)["error"] == error

    @pytest.mark.parametrize("argv, error", [
        (["fig9"], "invalid experiment spec"),
        (["fig2", "--seed", "abc"], "invalid invocation"),
        (["fig2", "--trials", "x"], "invalid invocation"),
        (["--bogus"], "invalid invocation"),
    ])
    def test_bad_invocation_gives_json_error_and_exit_2(self, tmp_path, capsys, argv, error):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == error
        assert not (tmp_path / "out").exists()

    def test_sigterm_removes_partial_outputs_and_exits_143(self, tmp_path):
        out = tmp_path / "a" / "b"
        proc = subprocess.Popen([sys.executable, "-m", "weaksep.cli", "fig3", "--out", str(out)],
                                env={**os.environ, "PYTHONPATH": SRC},
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 60
            while not out.exists() and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert out.exists(), "the run made no output directory"
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 143
        assert json.loads(err)["error"] == "interrupted; partial outputs removed"
        assert not list(tmp_path.iterdir())

    def test_ctrl_c_to_the_process_group_ends_every_process(self, tmp_path):
        # Ctrl-C sends SIGINT to the whole foreground group: the run and its ensemble's
        # pool workers, which must leave the cleanup to the run and print nothing
        out = tmp_path / "a" / "b"
        proc = subprocess.Popen([sys.executable, "-m", "weaksep.cli", "fig3", "--out", str(out)],
                                env={**os.environ, "PYTHONPATH": SRC}, start_new_session=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        pgid = proc.pid
        try:
            deadline = time.monotonic() + 60
            while not out.exists() and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert out.exists(), "the run made no output directory"
            time.sleep(0.2)  # into fig3's sigma 10 or 15 ensemble, walked by a pool
            os.killpg(pgid, signal.SIGINT)
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 130
            assert json.loads(err)["error"] == "interrupted; partial outputs removed"
            assert not list(tmp_path.iterdir())
            deadline = time.monotonic() + 10  # time for the group's last exit to be reaped
            with contextlib.suppress(ProcessLookupError):
                while time.monotonic() < deadline:
                    os.killpg(pgid, 0)
                    time.sleep(0.01)
            with pytest.raises(ProcessLookupError):
                os.killpg(pgid, 0)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pgid, signal.SIGKILL)
            proc.kill()

    @staticmethod
    def _signal_mid_run(tmp_path, argv, to_worker, signum):
        """Run the CLI on a two-CPU mask, so that it forks workers even on a one-CPU
        machine; once it has one, send signum to that worker or to the run itself.
        Returns the exit status and the JSON error, once the process group is empty."""
        out = tmp_path / "a" / "b"
        two_cpus = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
                    "from weaksep.cli import main; sys.exit(main(sys.argv[1:]))")
        proc = subprocess.Popen([sys.executable, "-c", two_cpus, *argv, "--out", str(out)],
                                env={**os.environ, "PYTHONPATH": SRC}, start_new_session=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        pgid = proc.pid
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        try:
            deadline = time.monotonic() + 60
            workers = []
            while not workers and proc.poll() is None and time.monotonic() < deadline:
                with contextlib.suppress(OSError):
                    workers = children.read_text().split()
                time.sleep(0.01)
            assert workers, f"{argv} forked no worker"
            os.kill(int(workers[0]) if to_worker else proc.pid, signum)
            _, err = proc.communicate(timeout=60)  # a run that waits for a dead worker ends here
            deadline = time.monotonic() + 10  # time for the group's last exit to be reaped
            with contextlib.suppress(ProcessLookupError):
                while time.monotonic() < deadline:
                    os.killpg(pgid, 0)
                    time.sleep(0.01)
            with pytest.raises(ProcessLookupError):
                os.killpg(pgid, 0)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pgid, signal.SIGKILL)
            proc.kill()
        return proc.returncode, json.loads(err)

    def test_killed_walk_worker_ends_the_run_with_exit_2(self, tmp_path):
        # a walk worker that dies ends the run at once, with its signal named
        code, err = self._signal_mid_run(tmp_path, ["fig3"], True, signal.SIGKILL)
        assert code == 2
        assert err["error"] == "the run failed"
        assert "SIGKILL" in " ".join(err["details"])
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        # reading-walk workers, then CSV-part workers
        ["fig6", "--trials", "100000"],
        # trajectory-dump workers: the 300-trial ensemble itself walks in one process
        ["fig2", "--trials", "300", "--dump-trajectories"],
    ])
    def test_killed_stage_worker_ends_the_run_with_exit_2(self, tmp_path, argv):
        # no CSV and no part file is left
        code, err = self._signal_mid_run(tmp_path, argv, True, signal.SIGKILL)
        assert code == 2
        assert err["error"] == "the run failed"
        assert "SIGKILL" in " ".join(err["details"])
        assert not list(tmp_path.iterdir())

    def test_sigterm_during_a_dump_leaves_no_part_file(self, tmp_path):
        code, err = self._signal_mid_run(tmp_path, ["fig2", "--trials", "300",
                                                    "--dump-trajectories"], False, signal.SIGTERM)
        assert code == 143
        assert err["error"] == "interrupted; partial outputs removed"
        assert not list(tmp_path.iterdir())

    def test_run_all_figures_bad_seed_gives_json_error_and_exit_2(self, tmp_path):
        out = tmp_path / "results"
        proc = subprocess.run([sys.executable, str(RUN_ALL_FIGURES), "--seed", "-1",
                               "--out", str(out)], env={**os.environ, "PYTHONPATH": SRC},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "invalid experiment spec"
        assert not out.exists()

    def test_run_all_figures_sigterm_ends_every_process_and_keeps_finished_runs(self, tmp_path):
        # fig2 runs first and finishes; the SIGTERM lands in fig3, whose partial outputs go
        out = tmp_path / "results"
        proc = subprocess.Popen([sys.executable, str(RUN_ALL_FIGURES), "--out", str(out)],
                                env={**os.environ, "PYTHONPATH": SRC}, start_new_session=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        pgid = proc.pid
        try:
            deadline = time.monotonic() + 60
            while not (out / "fig3").exists() and proc.poll() is None \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert (out / "fig3").exists(), "the script made no fig3 directory"
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 143
            assert json.loads(err)["error"] == "interrupted; partial outputs removed"
            assert [p.name for p in out.iterdir()] == ["fig2"]
            assert (out / "fig2" / "summary.json").exists()
            deadline = time.monotonic() + 10  # time for the group's last exit to be reaped
            with contextlib.suppress(ProcessLookupError):
                while time.monotonic() < deadline:
                    os.killpg(pgid, 0)
                    time.sleep(0.01)
            with pytest.raises(ProcessLookupError):
                os.killpg(pgid, 0)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pgid, signal.SIGKILL)
            proc.kill()

    def test_missing_experiment(self, capsys):
        assert main([]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "details" in err

    def test_bad_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["--config", str(bad)]) == 2
        json.loads(capsys.readouterr().err)

    def test_dump_flag_passthrough(self, tmp_path, capsys):
        code = main(["fig2", "--trials", "40", "--seed", "2",
                     "--out", str(tmp_path), "--dump-trajectories"])
        assert code == 0
        assert (tmp_path / "fig2_trajectories.csv").exists()
        code = main(["fig4", "--trials", "200", "--out", str(tmp_path / "x"),
                     "--dump-trajectories"])
        assert code == 2
        capsys.readouterr()

    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_default_seed_documented(self):
        assert isinstance(DEFAULT_MASTER_SEED, int)


# Edge values for the spec fuzzer: zero, negatives, extreme and non-finite
# numbers, bools, strings, and lists that are empty or of the wrong length or
# kind. The finite numbers lie in range for some parameters, so specs also run.
EDGE_NUMBERS = [0, 1, -1, -2.5, 1e-300, 1e300, math.pi, 90.0]
EDGE_SCALARS = [*EDGE_NUMBERS, math.nan, math.inf, -math.inf, True, False, "x"]
edge_values = st.one_of(st.sampled_from([*EDGE_SCALARS, None]),
                        st.lists(st.sampled_from(EDGE_SCALARS), max_size=3),
                        st.lists(st.sampled_from(EDGE_NUMBERS), min_size=1, max_size=5))
# trials at their floors and max_steps <= 64, so that every drawn spec runs
# briefly; fig2 and fig3 get a sigma small enough for walks to collapse by then
TINY = {"fig2": {"trials": 30, "max_steps": 64, "sigma": 2.0},
        "fig3": {"trials": 30, "max_steps": 64, "sigma_grid": [1.0, 2.0, 3.0, 4.0]},
        "fig4": {"trials": 1, "max_steps": 64}, "fig5": {"trials": 100},
        "fig6": {"trials": 1000}}


@st.composite
def fuzzed_specs(draw):
    name = draw(st.sampled_from(sorted(EXPERIMENTS)))
    keys = sorted(EXPERIMENTS[name][0])
    params = {**TINY.get(name, {}),
              **draw(st.dictionaries(st.sampled_from(keys), edge_values, max_size=3))}
    if "max_steps" in params and params["max_steps"] is None:
        params["max_steps"] = 64  # the default cap of 200 sigma^2 steps is a long run
    return name, params


class TestSpecFuzz:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(fuzzed_specs())
    def test_any_spec_runs_or_exits_2_with_json(self, spec):
        name, params = spec
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "spec.json"
            cfg.write_text(json.dumps({"experiment": name, "parameters": params,
                                       "output_dir": str(Path(tmp) / "out")}))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["--config", str(cfg)])
            assert code in (0, 2)
            if code == 2:
                assert "error" in json.loads(err.getvalue())
                left = [p.name for p in Path(tmp).rglob("*")
                        if p.suffix == ".csv" or p.name == "summary.json"]
                assert left == []
