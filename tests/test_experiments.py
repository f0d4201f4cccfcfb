import json
import math

import numpy as np
import pytest

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


class TestTsvfReport:
    def test_schema_and_oracle_agreement(self, tmp_path):
        params = {"g_grid": [0.05], "sigma_grid": [2.0], "eta_grid": [0.2, 2.5]}
        summary = run(ExperimentSpec("tsvf-report", params, 12, str(tmp_path)))
        header, rows = read_csv(tmp_path / "tsvf_report.csv")
        assert header == ["eta", "g", "sigma", "mean_analytic", "mean_quadrature",
                          "second_moment_analytic", "second_moment_quadrature",
                          "postselect_prob"]
        assert len(rows) == 2
        assert summary.headline["worst_mean_rel_err"] < 1e-8


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


class TestFailureCleanup:
    def test_partial_outputs_removed(self, tmp_path, monkeypatch):
        import weaksep.experiments as exp

        def broken(params, master_seed, outdir, files):
            exp._write_csv(outdir / "partial.csv", ["a"], [[1]], files)
            raise RuntimeError("boom")

        monkeypatch.setitem(exp.EXPERIMENTS, "fig2", (exp.EXPERIMENTS["fig2"][0], broken))
        with pytest.raises(RuntimeError):
            run(ExperimentSpec("fig2", {"sigma": 5.0, "trials": 40}, 1, str(tmp_path)))
        assert not (tmp_path / "partial.csv").exists()
        assert not (tmp_path / "summary.json").exists()


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
