import csv
import json

import numpy as np
import pytest

from targetcal.cli import main
from targetcal.sim import SCENARIOS, generate


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


def test_verbose_solver_dump(demo_csv, tmp_path):
    out = tmp_path / "v"
    code = main(["--verbose", "estimate", "--mode", "fusion", "--input", str(demo_csv),
                 "--out", str(out), "--estimators", "CAL_T"])
    assert code == 0
    rows = list(csv.DictReader(open(out / "solves.csv")))
    assert rows
    assert all(int(r["converged"]) == 1 for r in rows)
