import csv
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import targetcal
from targetcal import solver
from targetcal.cli import OPTIONS, main
from targetcal.data import Dataset
from targetcal.sim import SCENARIOS, derive_seed, generate


def write_dataset_csv(path, ds, include_target_zy=True, only=None, force_cols=None):
    mask = np.ones(ds.n, dtype=bool) if only is None else only
    header = force_cols or ["s", "z", "y", "x1", "x2", "x3", "x4"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in np.flatnonzero(mask):
            row = {}
            row["s"] = int(ds.s[i])
            if ds.s[i] == 1 or include_target_zy:
                row["z"] = int(ds.z[i])
                row["y"] = repr(float(ds.y[i]))
            else:
                row["z"] = ""
                row["y"] = ""
            for j in range(4):
                row[f"x{j + 1}"] = repr(float(ds.x[i, j]))
            w.writerow([row.get(h, "") for h in header])


@pytest.fixture(scope="module")
def demo_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "demo.csv"
    ds = generate(SCENARIOS["A"], 900, seed=4242)
    write_dataset_csv(path, ds)
    return path


class TestEstimate:
    def test_four_row_results(self, demo_csv, tmp_path):
        out = tmp_path / "out"
        code = main(["estimate", "--mode", "fusion", "--input", str(demo_csv),
                     "--out", str(out), "--estimators", "UNADJ,CBPS,CAL_T,CAL_F"])
        assert code == 0
        rows = list(csv.DictReader(open(out / "results.csv")))
        assert [r["estimator"] for r in rows] == ["UNADJ", "CBPS", "CAL_T", "CAL_F"]
        for r in rows:
            assert np.isfinite(float(r["tau_hat"]))
        assert (out / "scores.csv").exists()
        assert (out / "smd.csv").exists()
        assert json.loads((out / "config.json").read_text())["mode"] == "fusion"

    def test_transport_ignores_target_outcomes(self, demo_csv, tmp_path, caplog):
        out = tmp_path / "out"
        code = main(["estimate", "--mode", "transport", "--input", str(demo_csv),
                     "--out", str(out), "--estimators", "CAL_T"])
        assert code == 0
        assert any("ignoring z/y" in r.message for r in caplog.records)

    def test_fusion_only_estimator_fails_in_transport(self, demo_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["estimate", "--mode", "transport", "--input", str(demo_csv),
                     "--out", str(out), "--estimators", "CAL_T,CAL_F"])
        assert code == 1
        err = capsys.readouterr().err
        assert "CAL_F" in err
        rows = list(csv.DictReader(open(out / "results.csv")))
        assert [r["estimator"] for r in rows] == ["CAL_T"]

    def test_target_sample_without_an_arm(self, tmp_path, capsys):
        # No treated unit in the target sample: the four kinds that read
        # target treatment fail by name, and the others are written.
        ds = generate(SCENARIOS["A"], 900, seed=4242)
        path = tmp_path / "one_arm.csv"
        write_dataset_csv(path, Dataset.fusion(ds.s, np.where(ds.s == 0, 0.0, ds.z), ds.y, ds.x))
        out = tmp_path / "out"
        code = main(["estimate", "--mode", "fusion", "--input", str(path), "--out", str(out),
                     "--estimators", "UNADJ,GCOMP,TMLE,AUG_T,AUG_F,CAL_T,CAL_F,CBPS"])
        assert code == 1
        err = capsys.readouterr().err
        assert re.findall(r"^estimator (\w+) failed: EmptyArmError: ", err, re.M) == [
            "UNADJ", "AUG_F", "CAL_F", "CBPS"]
        assert "Traceback" not in err
        rows = list(csv.DictReader(open(out / "results.csv")))
        assert [r["estimator"] for r in rows] == ["GCOMP", "TMLE", "AUG_T", "CAL_T"]

    def test_non_finite_estimate_fails_by_name(self, tmp_path, capsys):
        ds = generate(SCENARIOS["A"], 500, derive_seed(3, "A", 500, 0, 0))
        y = ds.y.copy()
        y[np.flatnonzero(ds.s == 0)[0]] = 1e300
        path = tmp_path / "hostile.csv"
        write_dataset_csv(path, Dataset.fusion(ds.s, ds.z, y, ds.x))
        out = tmp_path / "out"
        code = main(["estimate", "--mode", "fusion", "--input", str(path),
                     "--out", str(out), "--estimators", "AUG_F,CAL_T"])
        assert code == 1
        assert "estimator AUG_F failed: NonFiniteError: " in capsys.readouterr().err
        rows = list(csv.DictReader(open(out / "results.csv")))
        assert [r["estimator"] for r in rows] == ["CAL_T"]

    def test_post_calibration_smds_vanish(self, demo_csv, tmp_path):
        out = tmp_path / "out"
        main(["estimate", "--mode", "fusion", "--input", str(demo_csv),
              "--out", str(out), "--estimators", "CAL_T,CAL_F"])
        rows = list(csv.DictReader(open(out / "smd.csv")))
        post = [float(r["smd"]) for r in rows
                if r["weighting"] == "transport" and r["comparison"] in ("sample", "treatment(study)")]
        assert post and max(post) <= 1e-8
        post_f = [float(r["smd"]) for r in rows if r["weighting"] == "fusion"]
        assert post_f and max(post_f) <= 1e-8

    def test_two_file_transport(self, tmp_path):
        ds = generate(SCENARIOS["A"], 600, seed=77)
        study_path = tmp_path / "study.csv"
        target_path = tmp_path / "target.csv"
        write_dataset_csv(study_path, ds, only=ds.s == 1,
                          force_cols=["z", "y", "x1", "x2", "x3", "x4"])
        write_dataset_csv(target_path, ds, include_target_zy=False, only=ds.s == 0,
                          force_cols=["x1", "x2", "x3", "x4"])
        out = tmp_path / "out"
        code = main(["estimate", "--mode", "transport", "--input", str(study_path),
                     "--target-input", str(target_path), "--out", str(out),
                     "--estimators", "CAL_T,AUG_T"])
        assert code == 0
        rows = list(csv.DictReader(open(out / "results.csv")))
        assert len(rows) == 2

    def test_unknown_estimator_rejected(self, demo_csv, tmp_path, capsys):
        code = main(["estimate", "--input", str(demo_csv),
                     "--out", str(tmp_path / "o"), "--estimators", "NOPE"])
        assert code == 1
        assert "ConfigError" in capsys.readouterr().err

    def test_schema_error_surfaces(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        code = main(["estimate", "--input", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "SchemaError" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["", "0.7"], ids=["empty", "fraction"])
    def test_non_binary_sample_indicator_rejected(self, demo_csv, tmp_path, capsys, cell):
        lines = demo_csv.read_text().splitlines()
        fields = lines[5].split(",")
        fields[0] = cell
        lines[5] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["estimate", "--mode", "fusion", "--input", str(bad),
                     "--out", str(tmp_path / "o"), "--estimators", "UNADJ"])
        assert code == 1
        err = capsys.readouterr().err
        assert "SchemaError" in err and "column 's'" in err and "row 6" in err

    @pytest.mark.parametrize("where", ["header", "row", "config"])
    def test_non_utf8_input_is_a_typed_error(self, demo_csv, tmp_path, capsys, where):
        # A Latin-1 "\xe9" (byte 0xE9) is not UTF-8.
        lines = demo_csv.read_bytes().splitlines(keepends=True)
        config = b'{"estimators": "UNADJ"}'
        if where == "header":
            lines[0] = lines[0].replace(b"x4", b"x\xe94")
        elif where == "row":
            lines[6] = lines[6].replace(b",", b"\xe9,", 1)
        else:
            config = b'{"estimators": "UNADJ", "mode": "fusion\xe9"}'
        bad, cfg = tmp_path / "bad.csv", tmp_path / "cfg.json"
        bad.write_bytes(b"".join(lines))
        cfg.write_bytes(config)
        code = main(["estimate", "--input", str(bad), "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        error, path = ("ConfigError", cfg) if where == "config" else ("SchemaError", bad)
        want = f"error: {error}: {path}: not UTF-8 text (byte 0xe9)\n"
        assert capsys.readouterr().err == want

    def test_config_echoes_balance_columns(self, demo_csv, tmp_path):
        for flags, echoed in (([], None), (["--balance-columns", "x1,square:x2"], "x1,square:x2")):
            out = tmp_path / f"out{len(flags)}"
            assert main(["estimate", "--input", str(demo_csv), "--out", str(out),
                         "--estimators", "CAL_T", *flags]) == 0
            assert json.loads((out / "config.json").read_text())["balance_columns"] == echoed

    def test_config_file_merging(self, demo_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "fusion", "estimators": "UNADJ"}))
        out = tmp_path / "out"
        code = main(["estimate", "--input", str(demo_csv), "--config", str(cfg),
                     "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(open(out / "results.csv")))
        assert [r["estimator"] for r in rows] == ["UNADJ"]

    def test_unknown_config_key_rejected(self, demo_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"modee": "fusion"}))
        code = main(["estimate", "--input", str(demo_csv), "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "ConfigError" in capsys.readouterr().err

    def test_fusion_ess_exceeds_transport_ess(self, tmp_path):
        # the fusion weights cover all units, the transport weights only the
        # study sample; the effective size should grow
        for seed in (11, 12, 13):
            ds = generate(SCENARIOS["A"], 1200, seed=seed)
            path = tmp_path / f"d{seed}.csv"
            write_dataset_csv(path, ds)
            out = tmp_path / f"out{seed}"
            code = main(["estimate", "--mode", "fusion", "--input", str(path),
                         "--out", str(out), "--estimators", "CAL_T,CAL_F"])
            assert code == 0
            rows = {r["estimator"]: r for r in csv.DictReader(open(out / "results.csv"))}
            assert float(rows["CAL_F"]["ess"]) >= float(rows["CAL_T"]["ess"])


class TestDiagnose:
    def test_outputs(self, demo_csv, tmp_path):
        out = tmp_path / "diag"
        code = main(["diagnose", "--mode", "fusion", "--input", str(demo_csv),
                     "--out", str(out)])
        assert code == 0
        smd = list(csv.DictReader(open(out / "smd.csv")))
        assert {r["weighting"] for r in smd} >= {"unweighted", "sampling", "transport", "fusion"}
        post = [float(r["smd"]) for r in smd
                if r["weighting"] == "fusion"]
        assert max(post) <= 1e-8
        scores = list(csv.DictReader(open(out / "scores.csv")))
        for r in scores:
            assert 0.0 < float(r["sampling_score"]) < 1.0
            assert 0.0 < float(r["propensity_score"]) < 1.0
        ess = {r["weighting"]: float(r["ess"]) for r in csv.DictReader(open(out / "ess.csv"))}
        assert ess["fusion"] >= ess["transport"]

    def test_six_unit_fixture_hand_computed(self, tmp_path):
        # covariate w: study (2,8,3,9) mean 5.5 var 37/3, target (4,6) mean 5
        # var 2; pooled sd sqrt(43/6); smd = 0.5 / sqrt(43/6). Each study
        # arm's hull contains the target mean, so calibration is feasible.
        path = tmp_path / "six.csv"
        path.write_text(
            "s,z,y,w\n"
            "1,1,1.0,2\n1,1,0.5,8\n1,0,2.0,3\n1,0,1.5,9\n"
            "0,,,4\n0,,,6\n"
        )
        out = tmp_path / "diag"
        code = main(["diagnose", "--mode", "transport", "--input", str(path),
                     "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(open(out / "smd.csv")))
        un = [r for r in rows if r["weighting"] == "unweighted" and r["comparison"] == "sample"]
        assert len(un) == 1
        assert float(un[0]["smd"]) == pytest.approx(0.5 / np.sqrt(43.0 / 6.0))
        post = [float(r["smd"]) for r in rows if r["weighting"] == "transport"]
        assert post and max(post) <= 1e-8

    def test_transport_ignores_target_missing_markers(self, demo_csv, tmp_path):
        # target rows "0,NA,NA,..." give the diagnostics of the same rows
        # with their z/y filled in, which transport mode drops as well
        header, *rows = demo_csv.read_text().splitlines()
        rows = [r if r.startswith("1,") else "0,NA,NA," + r.split(",", 3)[3] for r in rows]
        marked = tmp_path / "marked.csv"
        marked.write_text("\n".join([header, *rows]) + "\n")
        ess = []
        for path in (demo_csv, marked):
            out = tmp_path / path.stem
            assert main(["diagnose", "--mode", "transport", "--input", str(path),
                         "--out", str(out)]) == 0
            ess.append((out / "ess.csv").read_bytes())
        assert ess[0] == ess[1]


    @pytest.mark.parametrize("mode", ["transport", "fusion"])
    def test_failed_weighting_writes_the_rest(self, tmp_path, capsys, mode):
        # Poor overlap: the sampling solve succeeds, while the transport
        # solve (and so the fusion one, whose study half it is) is
        # certified infeasible.
        path = tmp_path / "b.csv"
        write_dataset_csv(path, generate(SCENARIOS["B"], 500, derive_seed(7, "B", 500, 2, 0)))
        out = tmp_path / "diag"
        assert main(["diagnose", "--mode", mode, "--input", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        failed = ["transport"] + (["fusion"] if mode == "fusion" else [])
        for label in failed:
            assert f"weighting {label} failed: NotConvergedError: " in err
        assert "weighting sampling failed" not in err and "Traceback" not in err
        smd = list(csv.DictReader(open(out / "smd.csv")))
        assert {r["weighting"] for r in smd} == {"unweighted", "sampling"}
        ess = list(csv.DictReader(open(out / "ess.csv")))
        assert [r["weighting"] for r in ess] == ["sampling"]
        assert len(list(csv.DictReader(open(out / "scores.csv")))) == 500
        assert json.loads((out / "config.json").read_text())["mode"] == mode


class TestSimulate:
    def test_smoke_and_shape(self, tmp_path):
        out = tmp_path / "sim"
        code = main(["simulate", "--scenarios", "A,D", "--sizes", "150", "--reps", "3",
                     "--estimators", "CAL_T,AUG_T", "--seed", "5", "--out", str(out),
                     "--oracle-n", "50000", "--per-replicate"])
        assert code == 0
        rows = list(csv.DictReader(open(out / "metrics.csv")))
        assert len(rows) == 4
        reps = list(csv.DictReader(open(out / "replicates.csv")))
        assert len(reps) == 12
        assert (out / "metrics.txt").exists()
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["rng"].startswith("numpy Philox")

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--scenarios", "B", "--sizes", "120", "--reps", "4",
                "--estimators", "CAL_T", "--seed", "9", "--oracle-n", "50000"]
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("metrics.csv", "metrics.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_worker_flag_does_not_change_outputs(self, tmp_path):
        base = ["simulate", "--scenarios", "A", "--sizes", "120", "--reps", "6",
                "--estimators", "CAL_T", "--seed", "13", "--oracle-n", "50000"]
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert main(base + ["--out", str(out1), "--workers", "1"]) == 0
        assert main(base + ["--out", str(out2), "--workers", "2"]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_default_grid_shape(self, tmp_path):
        out = tmp_path / "sim"
        code = main(["simulate", "--reps", "1", "--sizes", "150",
                     "--estimators", "CAL_T", "--seed", "3", "--out", str(out),
                     "--oracle-n", "50000"])
        assert code == 0
        rows = list(csv.DictReader(open(out / "metrics.csv")))
        assert len(rows) == 8  # scenarios A..H x 1 size x 1 estimator



class TestConfigValidation:
    """A bad mode or a config value that is not a number is a ConfigError
    naming it, not a silent run or a traceback."""

    CASES = {
        "diagnose_mode": ("diagnose", {"mode": "bogus"}, [], "mode"),
        "diagnose_mode_flag": ("diagnose", None, ["--mode", "bogus"], "mode"),
        "estimate_mode_flag": ("estimate", None, ["--mode", "bogus"], "mode"),
        "estimate_level": ("estimate", {"level": "abc"}, [], "level"),
        "estimate_level_flag": ("estimate", None, ["--level", "abc"], "level"),
        "estimate_level_range_flag": ("estimate", None, ["--level", "1.5"], "level"),
        "simulate_level_flag": ("simulate", None, ["--level", "abc"], "level"),
        "simulate_reps": ("simulate", {"reps": "x"}, [], "reps"),
        "simulate_reps_flag": ("simulate", None, ["--reps", "x"], "reps"),
        "simulate_sizes": ("simulate", None, ["--sizes", "100,abc"], "sizes"),
        "simulate_sizes_config": ("simulate", {"sizes": "100,abc"}, [], "sizes"),
        "simulate_reps_fraction": ("simulate", {"reps": 2.5}, [], "reps"),
        "simulate_reps_fraction_flag": ("simulate", None, ["--reps", "2.5"], "reps"),
        "simulate_seed_flag": ("simulate", None, ["--seed", "s"], "seed"),
        "simulate_workers_flag": ("simulate", None, ["--workers", "two"], "workers"),
        "simulate_workers_bool": ("simulate", {"workers": True}, [], "workers"),
        "simulate_scenarios_list": ("simulate", {"scenarios": ["A"]}, [], "scenarios"),
        "simulate_sizes_list": ("simulate", {"sizes": [60]}, [], "sizes"),
        "simulate_estimators_list": ("simulate", {"estimators": ["CAL_T"]}, [], "estimators"),
        "estimate_estimators_list": ("estimate", {"estimators": ["CAL_T"]}, [], "estimators"),
        "estimate_balance_columns_list": ("estimate", {"balance_columns": ["x1"]}, [],
                                          "balance_columns"),
        "estimate_input_list": ("estimate", {"input": ["a.csv"]}, [], "input"),
        "estimate_target_input_list": ("estimate", {"target_input": ["b.csv"]}, [],
                                       "target_input"),
        "diagnose_out_number": ("diagnose", {"out": 3}, [], "out"),
        "simulate_per_replicate_string": ("simulate", {"per_replicate": "no"}, [],
                                          "per_replicate"),
        "simulate_oracle_n_zero": ("simulate", None, ["--oracle-n", "0"], "oracle_n"),
        "simulate_oracle_n_flag": ("simulate", None, ["--oracle-n", "1e6"], "oracle_n"),
        "simulate_oracle_n_zero_config": ("simulate", {"oracle_n": 0}, [], "oracle_n"),
        "simulate_repeated_scenario": ("simulate", None, ["--scenarios", "A,A"],
                                       "scenario 'A'"),
        "simulate_repeated_size": ("simulate", None, ["--sizes", "60,60"],
                                   "sample size '60'"),
        "simulate_repeated_estimator": ("simulate", None, ["--estimators", "CAL_T,CAL_T"],
                                        "estimator 'CAL_T'"),
        "simulate_repeated_estimator_config": ("simulate", {"estimators": "CAL_T,CAL_T"}, [],
                                               "estimator 'CAL_T'"),
        "estimate_unknown_estimator_config": ("estimate", {"estimators": "NOPE"}, [],
                                              "unknown estimator 'NOPE'"),
        "estimate_repeated_estimator": ("estimate", None, ["--estimators", "CAL_T,cal_t"],
                                        "estimator 'CAL_T'"),
        "estimate_empty_estimators": ("estimate", None, ["--estimators", ""],
                                      "no estimators requested"),
        "simulate_empty_estimators": ("simulate", None, ["--estimators", ""],
                                      "no estimators requested"),
        "simulate_u_standardize_config": ("simulate", {"u_standardize": "population"}, [],
                                          "u_standardize"),
        "diagnose_seed_config": ("diagnose", {"seed": 1}, [], "seed"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected(self, demo_csv, tmp_path, capsys, case):
        command, config, flags, key = self.CASES[case]
        argv = [command, "--out", str(tmp_path / "o"), *flags]
        if command != "simulate" and "input" not in (config or {}):
            argv += ["--input", str(demo_csv)]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and key in err
        assert "Traceback" not in err

    def test_removed_flag_unrecognized(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--u-standardize", "population", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --u-standardize" in capsys.readouterr().err

    def test_integral_float_reads(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"oracle_n": 5e4, "reps": 2.0}))
        out = tmp_path / "o"
        assert main(["simulate", "--scenarios", "A", "--sizes", "60", "--estimators",
                     "CAL_T", "--config", str(cfg), "--out", str(out)]) == 0
        echo = json.loads((out / "config.json").read_text())
        assert (echo["oracle_n"], echo["reps"]) == (50000, 2)

    @pytest.mark.parametrize("switch", [False, True])
    def test_per_replicate_switch(self, tmp_path, switch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"oracle_n": 5e4, "reps": 2, "per_replicate": switch}))
        out = tmp_path / "o"
        assert main(["simulate", "--scenarios", "A", "--sizes", "60", "--estimators",
                     "CAL_T", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "replicates.csv").exists() is switch


@pytest.mark.parametrize("command", ["estimate", "simulate", "diagnose"])
def test_help_lists_the_table(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert command in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    table = {"--" + opt.name.replace("_", "-") for opt in OPTIONS if command in opt.commands}
    assert listed == table | {"--help", "--config"}


def _solve_records(caplog) -> list:
    records = [r for r in caplog.records if r.name == "targetcal.solver"]
    assert all(r.levelno == logging.DEBUG for r in records)
    return [r.args for r in records]


def test_verbose_solver_dump(demo_csv, tmp_path, caplog):
    # CAL_T and its smd.csv weight set share the one transport solve.
    out = tmp_path / "v"
    code = main(["--verbose", "estimate", "--mode", "fusion", "--input", str(demo_csv),
                 "--out", str(out), "--estimators", "CAL_T"])
    assert code == 0
    [solve] = _solve_records(caplog)
    assert solve.keys() == {"k", "n_active", "iterations", "grad_norm", "constraint_residual",
                            "converged", "eta"}
    assert solve["k"] == len(solve["eta"]) == 10 and solve["converged"]
    assert solve["n_active"] == sum(line.startswith("1,") for line in open(demo_csv))
    assert not (out / "solves.csv").exists()


def test_verbose_diagnose_logs_each_distinct_solve(demo_csv, tmp_path, caplog):
    # sampling, transport and the fusion target half; the study half is the
    # transport solve.
    assert main(["--verbose", "diagnose", "--mode", "fusion", "--input", str(demo_csv),
                 "--out", str(tmp_path / "d")]) == 0
    n_study = sum(line.startswith("1,") for line in open(demo_csv))
    assert [(r["k"], r["n_active"]) for r in _solve_records(caplog)] == [
        (5, n_study), (10, n_study), (10, 900 - n_study)]


def test_verbose_level_is_restored(demo_csv, tmp_path):
    assert main(["--verbose", "estimate", "--input", str(demo_csv), "--out", str(tmp_path / "v"),
                 "--estimators", "UNADJ"]) == 0
    assert not logging.getLogger("targetcal.solver").isEnabledFor(logging.DEBUG)


def test_quiet_run_formats_no_solve_record(demo_csv, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(solver.log, "debug", lambda *args: calls.append(args))
    assert main(["diagnose", "--mode", "fusion", "--input", str(demo_csv),
                 "--out", str(tmp_path / "d")]) == 0
    assert calls == []


def test_verbose_simulate_logs_worker_solves(tmp_path):
    # With two workers every solve runs in a worker process, which inherits
    # the debug level and the stderr handler.
    env = {**os.environ, "PYTHONPATH": str(Path(targetcal.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "targetcal.cli", "--verbose", "simulate", "--scenarios", "A",
         "--sizes", "120", "--reps", "4", "--estimators", "CAL_T", "--seed", "13",
         "--oracle-n", "50000", "--workers", "2", "--out", str(tmp_path / "s")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    solves = [line for line in proc.stderr.splitlines()
              if line.startswith("DEBUG targetcal.solver: solve {'k': 10, ")]
    assert len(solves) == 4
