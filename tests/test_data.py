import csv
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from targetcal import data
from targetcal.cli import _load
from targetcal.data import (
    BalanceMatrix,
    BalanceSpec,
    Dataset,
    build_balance_matrix,
    effective_sample_size,
    export_scores,
    load_dataset_csv,
    read_csv_columns,
    standardized_mean_differences,
    target_moments,
)
from targetcal.errors import (
    AllZeroError,
    DimensionMismatchError,
    EmptyTargetError,
    ModeError,
    NonFiniteError,
    OutOfRangeError,
    RankDeficientError,
    SchemaError,
    ZeroVarianceError,
)
from targetcal.sim import SCENARIOS, generate

from conftest import tiny_dataset
from oracles import export_scores_per_row, read_csv_columns_per_cell, smd_per_column

# Monte Carlo oracle values, frozen from a 4e7-draw direct simulation of the
# baseline generative models (sampling logit 0.5 - 0.5x1 + 0.5x2 - 0.5x3
# + 0.5x4): target-sample covariate means and the study-sample share.
ORACLE_TARGET_MEANS = (0.24991, -0.25000, 0.24985, -0.24996)
ORACLE_STUDY_SHARE = 0.60199


def two_sample_dataset(x):
    n = len(x)
    s = np.zeros(n, dtype=int)
    s[: n // 2] = 1
    z = np.tile([1.0, 0.0], n // 2 + 1)[:n]
    y = np.arange(n, dtype=float)
    return Dataset.fusion(s, z, y, np.asarray(x, dtype=float))


class TestDataset:
    def test_requires_both_samples(self):
        with pytest.raises(ModeError):
            Dataset.fusion([1, 1, 1, 1], [1, 0, 1, 0], [1.0, 2.0, 3.0, 4.0],
                           np.zeros((4, 1)))

    def test_requires_study_arms(self):
        with pytest.raises(ModeError):
            Dataset.fusion([1, 1, 0, 0], [1, 1, 1, 0], [1.0, 2.0, 3.0, 4.0],
                           np.zeros((4, 1)))

    def test_transport_masks_target(self):
        ds = tiny_dataset().to_transport()
        assert ds.mode == "transport"
        assert np.isnan(ds.z[ds.s == 0]).all()
        with pytest.raises(ModeError):
            ds.observed(ds.s == 0)

    def test_fusion_mode_detected(self):
        ds = tiny_dataset()
        assert ds.mode == "fusion"
        assert ds.n == 6 and ds.n_study == 4 and ds.n_target == 2

    def test_unknown_mode_rejected(self):
        ds = tiny_dataset()
        with pytest.raises(ModeError):
            Dataset(ds.s, ds.z, ds.y, ds.x, mode="bogus")

    def test_arrays_immutable(self):
        ds = tiny_dataset()
        with pytest.raises(ValueError):
            ds.y[0] = 99.0

    @pytest.mark.parametrize("cell", [0.9, 257.0, -0.5, np.nan])
    def test_sample_indicator_must_be_binary(self, cell):
        # an int8 cast would read 0.9 and -0.5 as 0 and 257.0 as 1
        with pytest.raises(ModeError, match="s must be binary"):
            Dataset.fusion([1, 1, 0, cell], [1, 0, 1, 0], [1.0, 2.0, 3.0, 4.0],
                           np.zeros((4, 1)))


class TestBalanceMatrix:
    def test_intercept_prepended_to_identity(self):
        ds = two_sample_dataset([[2.0], [3.0], [1.0], [4.0]])
        c = build_balance_matrix(ds)
        assert np.allclose(c.c[:, 0], 1.0)
        assert np.allclose(c.c[:, 1], ds.x[:, 0])

    def test_duplicate_column_rejected(self):
        x = np.column_stack([np.arange(4.0), np.arange(4.0)])
        ds = two_sample_dataset(x)
        with pytest.raises(RankDeficientError):
            build_balance_matrix(ds)

    def test_verdict_is_taken_once_per_matrix(self, monkeypatch):
        # build_balance_matrix checks the matrix it makes, and full_rank then
        # reads that verdict; a hand-built matrix is checked on its first call.
        checked = []

        def counted(mat, what="matrix", _original=data.check_full_rank):
            checked.append(what)
            return _original(mat, what)

        monkeypatch.setattr(data, "check_full_rank", counted)
        c = build_balance_matrix(two_sample_dataset([[2.0], [3.0], [1.0], [4.0]]))
        c.full_rank()
        assert checked == ["balance matrix"]
        duplicate = BalanceMatrix(np.column_stack([np.ones(4), np.arange(4.0), np.arange(4.0)]))
        for _ in range(2):
            with pytest.raises(RankDeficientError, match="balance matrix is rank deficient"):
                duplicate.full_rank()
        assert checked == ["balance matrix"] * 2

    @pytest.mark.parametrize("cell", [np.nan, np.inf])
    def test_non_finite_design_is_a_typed_error(self, cell):
        # Judged from the column norms, before the SVD (which would raise
        # numpy's LinAlgError) and before any division warns.
        design = np.column_stack([np.ones(6), np.arange(6.0)])
        design[2, 1] = cell
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="^design column 1 holds NaN or infinity"):
                data.check_full_rank(design, "design")

    def test_one_dimensional_design_is_a_typed_error(self):
        with pytest.raises(DimensionMismatchError,
                           match="^design must be two-dimensional, not 1-dimensional$"):
            data.check_full_rank(np.arange(6.0), "design")

    def test_zero_column_design_is_a_typed_error(self):
        # Judged before the SVD, whose empty list of singular values has no
        # last entry.
        with pytest.raises(DimensionMismatchError, match="^design has no columns$"):
            data.check_full_rank(np.empty((5, 0)), "design")

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_extreme_scale_is_judged_on_the_column_scale(self, scale):
        # Squaring these entries overflows the plain column norm (1e160) or
        # underflows it to 0 (1e-170); the design is full rank all the same.
        design = np.column_stack([np.ones(6), scale * np.arange(6.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data.check_full_rank(design, "design")
            with pytest.raises(RankDeficientError, match="^design is rank deficient"):
                data.check_full_rank(np.column_stack([design, 2.0 * design[:, 1]]), "design")

    def test_all_zero_column_is_rank_deficient(self):
        design = np.column_stack([np.ones(6), np.zeros(6)])
        with pytest.raises(RankDeficientError, match="^design has an all-zero column$"):
            data.check_full_rank(design, "design")

    def test_four_covariates_give_five_columns(self):
        ds = generate(SCENARIOS["A"], 200, seed=5)
        c = build_balance_matrix(ds)
        assert c.m == 5
        assert np.allclose(c.c[:, 0], 1.0)

    def test_nonfinite_transform_rejected(self):
        ds = two_sample_dataset([[0.0], [1.0], [2.0], [3.0]])
        spec = BalanceSpec(entries=(("logx", "log", 0),))
        with pytest.raises(NonFiniteError):
            build_balance_matrix(ds, spec)

    def test_named_transforms(self):
        ds = two_sample_dataset([[1.0], [2.0], [3.0], [4.0]])
        spec = BalanceSpec(entries=(("x1", "identity", 0), ("x1sq", "square", 0)))
        c = build_balance_matrix(ds, spec)
        assert np.allclose(c.c[:, 2], ds.x[:, 0] ** 2)
        assert c.names == ("intercept", "x1", "x1sq")


class TestTargetMoments:
    def test_plain_mean(self):
        c = BalanceMatrix(np.array([[1.0, 2.0], [1.0, 4.0]]))
        theta = target_moments(c, np.array([0, 0]))
        assert np.allclose(theta, [1.0, 3.0])

    def test_only_target_rows(self):
        c = BalanceMatrix(np.array([[1.0, 2.0], [1.0, 4.0]]))
        theta = target_moments(c, np.array([0, 1]))
        assert np.allclose(theta, [1.0, 2.0])

    def test_empty_target_rejected(self):
        c = BalanceMatrix(np.array([[1.0, 2.0], [1.0, 4.0]]))
        with pytest.raises(EmptyTargetError):
            target_moments(c, np.array([1, 1]))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        ds = generate(SCENARIOS["A"], 400, seed=11)
        c = build_balance_matrix(ds)
        theta = target_moments(c, ds.s)
        perm = rng.permutation(ds.n)
        theta_p = target_moments(BalanceMatrix(c.c[perm]), ds.s[perm])
        assert np.allclose(theta, theta_p)

    def test_against_monte_carlo_oracle(self):
        ds = generate(SCENARIOS["A"], 1_000_000, seed=77)
        c = build_balance_matrix(ds)
        theta = target_moments(c, ds.s)
        assert np.all(np.abs(theta[1:] - np.array(ORACLE_TARGET_MEANS)) < 0.01)


class TestSMD:
    def test_identical_groups_zero(self):
        mat = np.column_stack([np.ones(6), [1.0, 2.0, 3.0, 1.0, 2.0, 3.0]])
        smd = standardized_mean_differences(BalanceMatrix(mat),
                                            np.array([1, 1, 1, 0, 0, 0]))
        assert np.allclose(smd, 0.0)

    def test_unit_separation(self):
        # means 0 and 1, pooled sd 1 under ddof=1 variances
        col = np.array([-1.0, 0.0, 1.0, 0.0, 1.0, 2.0])
        mat = np.column_stack([np.ones(6), col])
        smd = standardized_mean_differences(BalanceMatrix(mat),
                                            np.array([0, 0, 0, 1, 1, 1]))
        assert smd[1] == pytest.approx(1.0)

    def test_affine_rescaling_invariant(self):
        rng = np.random.default_rng(8)
        col = rng.standard_normal(40)
        group = (rng.random(40) < 0.5).astype(int)
        group[:2] = [0, 1]
        w = rng.random(40) + 0.5
        base = standardized_mean_differences(
            BalanceMatrix(np.column_stack([np.ones(40), col])), group, w)
        scaled = standardized_mean_differences(
            BalanceMatrix(np.column_stack([np.ones(40), 5.0 * col - 3.0])), group, w)
        assert scaled[1] == pytest.approx(base[1], rel=1e-12)

    def test_zero_variance_with_diff_means_rejected(self):
        mat = np.column_stack([np.ones(4), [1.0, 1.0, 2.0, 2.0]])
        with pytest.raises(ZeroVarianceError):
            standardized_mean_differences(BalanceMatrix(mat), np.array([1, 1, 0, 0]))

    def test_constant_column_reports_zero(self):
        mat = np.column_stack([np.ones(4), [3.0, 3.0, 3.0, 3.0]])
        smd = standardized_mean_differences(BalanceMatrix(mat), np.array([1, 1, 0, 0]))
        assert smd[1] == 0.0

    @pytest.mark.parametrize("n", [37, 500, 2000, 200_000])
    def test_bit_identical_to_per_column_reference(self, n):
        rng = np.random.default_rng(n)
        mat = np.column_stack([np.ones(n), rng.standard_normal((n, 4)) * [1.0, 3.0, 0.1, 7.0],
                               np.full(n, 2.0)])
        group = (rng.random(n) < 0.4).astype(int)
        group[:2] = [0, 1]
        for weights in (None, rng.random(n) + 0.05):
            got = standardized_mean_differences(BalanceMatrix(mat), group, weights)
            want = smd_per_column(BalanceMatrix(mat), group, weights)
            assert got.tobytes() == want.tobytes()

    def test_weightings_share_one_scale(self):
        # A dict of weightings gives, key by key, the bits of one call per
        # weighting; the first weighting that fails raises.
        rng = np.random.default_rng(5)
        mat = np.column_stack([np.ones(300), rng.standard_normal((300, 3)) * [1.0, 4.0, 0.2]])
        group = (rng.random(300) < 0.3).astype(int)
        weightings = {"none": None, "a": rng.random(300) + 0.1, "b": rng.random(300)}
        got = standardized_mean_differences(BalanceMatrix(mat), group, weightings)
        assert list(got) == ["none", "a", "b"]
        for key, w in weightings.items():
            want = standardized_mean_differences(BalanceMatrix(mat), group, w)
            assert got[key].tobytes() == want.tobytes()
        weightings["b"][group == 0] = 0.0
        with pytest.raises(AllZeroError):
            standardized_mean_differences(BalanceMatrix(mat), group, weightings)

    def test_zero_weight_group_rejected(self):
        mat = np.column_stack([np.ones(4), [1.0, 2.0, 3.0, 4.0]])
        with pytest.raises(AllZeroError):
            standardized_mean_differences(BalanceMatrix(mat), np.array([1, 1, 0, 0]),
                                          np.array([1.0, 1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("length", [3, 5])
    def test_weights_of_another_length_rejected(self, length):
        # Judged before the weights meet the group masks; every weighting of
        # a dict is checked.
        mat = np.column_stack([np.ones(4), [1.0, 2.0, 3.0, 4.0]])
        with pytest.raises(DimensionMismatchError, match=rf"^weights have shape \({length},\)"):
            standardized_mean_differences(BalanceMatrix(mat), np.array([1, 1, 0, 0]),
                                          {"a": np.ones(4), "b": np.ones(length)})

    @pytest.mark.parametrize("group", [[1, 1, 0], [1, 1, 0, 0, 1]])
    def test_group_of_another_length_rejected(self, group):
        # A short group would leave the trailing units out of both groups; a
        # long one would fail as numpy's IndexError.
        mat = np.column_stack([np.ones(4), [1.0, 2.0, 3.0, 4.0]])
        with pytest.raises(DimensionMismatchError,
                           match=rf"^group has shape \({len(group)},\), not \(4,\)$"):
            standardized_mean_differences(BalanceMatrix(mat), np.array(group))

    @pytest.mark.parametrize("group", [[1, 1, 2, 0, 0, 0], [1, 1, 0.9, 0, 0, 0],
                                       [1, 1, -1, 0, 0, 0], [1, 1, np.nan, 0, 0, 0]])
    def test_group_outside_zero_one_rejected(self, group):
        # Cast to int first, 2 and -1 dropped out of both groups and 0.9 counted as 0.
        mat = np.column_stack([np.ones(6), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
        with pytest.raises(ModeError, match=r"^group must be binary \(0 or 1\)$"):
            standardized_mean_differences(BalanceMatrix(mat), np.array(group))


class TestESS:
    def test_uniform_weights(self):
        assert effective_sample_size(np.ones(7)) == pytest.approx(7.0)

    def test_single_effective_unit(self):
        assert effective_sample_size(np.array([1.0, 0.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_direct_formula(self):
        assert effective_sample_size(np.array([2.0, 1.0, 1.0])) == pytest.approx(16.0 / 6.0)

    def test_bounded_by_nonzero_count(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            w = rng.random(30)
            w[rng.random(30) < 0.3] = 0.0
            if w.sum() == 0:
                continue
            ess = effective_sample_size(w)
            assert ess <= np.count_nonzero(w) + 1e-9

    def test_equality_iff_equal_weights(self):
        w = np.array([0.0, 2.5, 2.5, 2.5])
        assert effective_sample_size(w) == pytest.approx(3.0)

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroError):
            effective_sample_size(np.zeros(3))

    def test_negative_rejected(self):
        with pytest.raises(OutOfRangeError):
            effective_sample_size(np.array([1.0, -0.1]))

    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, cell):
        # Before any reduction, which would return NaN or warn.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="^weights hold NaN or infinity$"):
                effective_sample_size(np.array([1.0, cell]))


class TestExportScores:
    def test_three_unit_csv(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "scores.csv"
        rho = np.full(6, 0.6)
        pi = np.full(6, 0.4)
        export_scores(rho, pi, ds, path)
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["unit_id", "s", "z", "sampling_score", "propensity_score"]
        assert len(rows) == 7

    def test_boundary_score_rejected(self):
        ds = tiny_dataset()
        rho = np.full(6, 0.5)
        rho[0] = 0.0
        with pytest.raises(OutOfRangeError):
            export_scores(rho, np.full(6, 0.5), ds, "/dev/null")

    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = tiny_dataset()
        rho = rng.uniform(0.01, 0.99, 6)
        pi = rng.uniform(0.01, 0.99, 6)
        path = tmp_path / "scores.csv"
        export_scores(rho, pi, ds, path)
        rows = list(csv.reader(open(path)))[1:]
        got_rho = np.array([float(r[3]) for r in rows])
        got_pi = np.array([float(r[4]) for r in rows])
        assert np.max(np.abs(got_rho - rho)) < 1e-12
        assert np.max(np.abs(got_pi - pi)) < 1e-12

    def test_bytes_match_per_row_writer(self, tmp_path):
        ds = generate(SCENARIOS["A"], 300, seed=5).to_transport()
        assert ds.mode == "transport"
        rng = np.random.default_rng(3)
        rho = rng.uniform(1e-9, 1.0 - 1e-9, ds.n)
        pi = rng.uniform(1e-9, 1.0 - 1e-9, ds.n)
        export_scores(rho, pi, ds, tmp_path / "got.csv")
        export_scores_per_row(rho, pi, ds, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_bytes_match_per_row_writer_in_blocks(self, tmp_path, monkeypatch, block):
        ds = generate(SCENARIOS["A"], 300, seed=5)
        rng = np.random.default_rng(4)
        rho = rng.uniform(1e-9, 1.0 - 1e-9, ds.n)
        pi = rng.uniform(1e-9, 1.0 - 1e-9, ds.n)
        for dataset in (ds, ds.to_transport()):
            export_scores_per_row(rho, pi, dataset, tmp_path / "want.csv")
            monkeypatch.setattr(data, "BLOCK_ROWS", block)
            export_scores(rho, pi, dataset, tmp_path / "got.csv")
            monkeypatch.undo()
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestCsvIngestion:
    def test_single_file_round_trip(self, tmp_path):
        path = tmp_path / "d.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["s", "z", "y", "age", "bmi"])
            w.writerow([1, 1, 2.5, 0.1, -0.2])
            w.writerow([1, 0, 1.5, 0.3, 0.4])
            w.writerow([0, 1, 3.5, -0.6, 0.9])
            w.writerow([0, 0, 0.5, 0.2, -0.8])
        ds, names = load_dataset_csv(path, mode="fusion")
        assert names == ["age", "bmi"]
        assert ds.mode == "fusion"
        assert ds.n == 4

    def test_missing_fields_make_transport(self, tmp_path):
        path = tmp_path / "d.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["s", "z", "y", "x1"])
            w.writerow([1, 1, 2.5, 0.1])
            w.writerow([1, 0, 1.5, 0.3])
            w.writerow([0, "", "", -0.6])
        ds, _ = load_dataset_csv(path, mode="transport")
        assert ds.mode == "transport"

    def test_fusion_rejects_blank_target_fields(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("s,z,y,x1\n1,1,2.5,0.1\n1,0,1.5,0.3\n0,,,-0.6\n")
        with pytest.raises(ModeError):
            load_dataset_csv(path, mode="fusion")

    def test_transport_drops_target_fields(self, tmp_path, caplog):
        path = tmp_path / "d.csv"
        path.write_text("s,z,y,x1\n1,1,2.5,0.1\n1,0,1.5,0.3\n0,1,3.5,-0.6\n0,,,0.2\n")
        ds, _ = load_dataset_csv(path, mode="transport")
        assert ds.mode == "transport"
        assert np.isnan(ds.z[2:]).all() and np.isnan(ds.y[2:]).all()
        assert [r.message for r in caplog.records if r.name == "targetcal"] == [
            "transport mode: ignoring z/y observed for 1 target-sample units"]

    def test_transport_does_not_read_target_fields(self, tmp_path, caplog):
        # a missing-value marker in a dropped field counts as given; fusion
        # mode reads the same field and rejects it
        path = tmp_path / "d.csv"
        path.write_text("s,z,y,x1\n1,1,2.5,0.1\n1,0,1.5,0.3\n0,NA,NA,-0.6\n0,,,0.2\n")
        ds, _ = load_dataset_csv(path, mode="transport")
        assert np.isnan(ds.z[2:]).all() and np.isnan(ds.y[2:]).all()
        assert [r.message for r in caplog.records if r.name == "targetcal"] == [
            "transport mode: ignoring z/y observed for 1 target-sample units"]
        with pytest.raises(SchemaError, match=re.escape("non-numeric value 'NA' in column 'z' (row 4)")):
            load_dataset_csv(path, mode="fusion")

    @pytest.mark.parametrize("mode", ["fusion", "transport"])
    def test_two_files_match_one_file_and_cli(self, tmp_path, mode):
        rows = ["1,1,2.5,0.1", "1,0,1.5,0.3", "0,1,3.5,-0.6", "0,0,0.5,0.2"]
        (tmp_path / "both.csv").write_text("s,z,y,x1\n" + "\n".join(rows) + "\n")
        (tmp_path / "study.csv").write_text(
            "z,y,x1\n" + "\n".join(r[2:] for r in rows[:2]) + "\n")
        (tmp_path / "target.csv").write_text(
            "z,y,x1\n" + "\n".join(r[2:] for r in rows[2:]) + "\n")
        got = load_dataset_csv(tmp_path / "study.csv", mode=mode,
                               target_path=tmp_path / "target.csv")
        fits = _load({"mode": mode, "input": str(tmp_path / "study.csv"),
                      "target_input": str(tmp_path / "target.csv"), "out": tmp_path / "o"})
        for want in (load_dataset_csv(tmp_path / "both.csv", mode=mode),
                     (fits.dataset, list(fits.c.names[1:]))):
            assert got[1] == want[1] and got[0].mode == want[0].mode == mode
            for key in ("s", "z", "y", "x"):
                assert np.array_equal(getattr(got[0], key), getattr(want[0], key),
                                      equal_nan=True), key

    @pytest.mark.parametrize("marked", ["study", "target"])
    def test_two_files_reject_s_column(self, tmp_path, marked):
        # each file sets s, so a study file's s=0 rows must not load as study units
        texts = {"study": "z,y,x1\n1,2.5,0.1\n0,1.5,0.3\n", "target": "x1\n-0.6\n0.2\n"}
        texts[marked] = {"study": "s,z,y,x1\n1,1,2.5,0.1\n1,0,1.5,0.3\n0,1,3.5,-0.6\n0,0,0.5,0.2\n",
                         "target": "s,x1\n0,-0.6\n0,0.2\n"}[marked]
        for name, text in texts.items():
            (tmp_path / f"{name}.csv").write_text(text)
        with pytest.raises(SchemaError, match=re.escape(f"{tmp_path / marked}.csv: column 's'")):
            load_dataset_csv(tmp_path / "study.csv", mode="transport",
                             target_path=tmp_path / "target.csv")

    def test_two_files_must_share_covariate_order(self, tmp_path):
        (tmp_path / "study.csv").write_text("z,y,x1,x2\n1,2.5,0.1,0.2\n0,1.5,0.3,0.4\n")
        (tmp_path / "target.csv").write_text("x2,x1\n0.5,0.6\n")
        with pytest.raises(SchemaError, match=re.escape(
                "must share covariate columns (['x1', 'x2'] vs ['x2', 'x1'])")):
            load_dataset_csv(tmp_path / "study.csv", mode="transport",
                             target_path=tmp_path / "target.csv")

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("z,y,x1\n1,2.0,0.1\n")
        with pytest.raises(SchemaError):
            load_dataset_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("s,z,y,x1\n1,1,hello,0.1\n0,0,1.0,0.2\n")
        with pytest.raises(SchemaError):
            load_dataset_csv(path)

    def test_row_fault_before_a_non_utf8_byte(self, tmp_path):
        # The fault's block is cast before the Latin-1 byte (0xE9) three
        # blocks on is read, and finding its line reads past that byte.
        path = tmp_path / "d.csv"
        path.write_bytes(b"s,z,y,x1\n1,1,abc,0.1\n" + b"0,0,1.0,0.2\n" * 3 * data.BLOCK_ROWS
                         + b"0,0,1.0,0.2\xe9\n")
        with pytest.raises(SchemaError, match=re.escape(
                f"{path}: non-numeric value 'abc' in column 'y' (row 2)")):
            read_csv_columns(path)


def assert_same_columns(got, want):
    (gcols, gnames), (wcols, wnames) = got, want
    assert gnames == wnames
    assert set(gcols) == set(wcols)
    for key, value in wcols.items():
        assert gcols[key].dtype == value.dtype, key
        assert gcols[key].shape == value.shape, key
        assert np.array_equal(gcols[key], value, equal_nan=True), key


class TestCsvAgainstPerCellParser:
    """read_csv_columns must return what the per-cell reference parser
    returns, and fail where it fails with a message that extends its own."""

    VALID = {
        "plain": ("fusion", "s,z,y,x1,x2\n1,1,2.5,0.1,-3\n0,0,1.5,1e-3,4\n"),
        "quoted": ("fusion", 's,"z",y,x1\r\n"1","0","2.5","0.1"\r\n0,1,"-1",7\r\n'),
        "blank_lines": ("fusion", "s,z,y,x1\n\n1,1,2.5,0.1\n\n\n0,0,1.5,0.2\n\n"),
        "padded": ("fusion", " s , z ,y, x1 \n 1 , 0 ,2.5 , 0.3\n0,1 , -1.5,  4 \n"),
        "target_blanks": ("transport", "s,z,y,x1\n1,1,2.5,0.1\n0,,,0.2\n0, , ,0.3\n1,0,1,0.4\n"),
        "target_markers": ("transport", "s,z,y,x1\n1,1,2.5,0.1\n0,NA,,0.2\n0, , NA ,0.3\n1,0,1,0.4\n"),
        "no_trailing_newline": ("fusion", "s,z,y,x1\n1,1,2.5,0.1\n0,0,1.5,0.2"),
        "quoted_newlines": ("fusion", 's,z,y,x1\n1,1,"2.5\n",0.1\n0,"0",1.5,"0.2\r\n"\n'
                                      '"1","0\n\n",1,2\n0,1,-1,3\n'),
        "header_only": ("fusion", "s,z,y,x1,x2\n"),
    }

    @pytest.mark.parametrize("case", sorted(VALID))
    def test_valid_inputs(self, tmp_path, case):
        mode, text = self.VALID[case]
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        assert_same_columns(read_csv_columns(path, mode=mode),
                            read_csv_columns_per_cell(path, mode=mode))

    def test_two_file_force_s(self, tmp_path):
        study = tmp_path / "study.csv"
        target = tmp_path / "target.csv"
        study.write_text("z,y,x1,x2\n1,2.5,0.1,0.2\n0,1.5,0.3,0.4\n")
        target.write_text("x1,x2\n0.5,0.6\n0.7,0.8\n0.9,1.0\n")
        assert_same_columns(read_csv_columns(study, mode="transport", force_s=1),
                            read_csv_columns_per_cell(study, mode="transport", force_s=1))
        assert_same_columns(read_csv_columns(target, mode="transport", force_s=0),
                            read_csv_columns_per_cell(target, mode="transport", force_s=0))

    def test_generated_cohort(self, tmp_path):
        ds = generate(SCENARIOS["D"], 2000, seed=9)
        path = tmp_path / "d.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["s", "z", "y", "x1", "x2", "x3", "x4"])
            for i in range(ds.n):
                zy = ["", ""] if ds.s[i] == 0 and i % 3 == 0 else [int(ds.z[i]), repr(float(ds.y[i]))]
                w.writerow([int(ds.s[i]), *zy, *map(repr, ds.x[i].tolist())])
        assert_same_columns(read_csv_columns(path, mode="transport"),
                            read_csv_columns_per_cell(path, mode="transport"))

    INVALID = {
        "ragged_short": "s,z,y,x1\n1,1,2.5,0.1\n0,0,1.5\n1,0,1,2\n",
        "ragged_long": "s,z,y,x1\n1,1,2.5,0.1\n1,0,1,2\n0,0,1.5,3,4\n",
        "ragged_first_row": "s,z,y,x1\n1,1,2.5,0.1,9\n0,0,1.5,3\n",
        "ragged_every_row": "s,z,y,x1\n1,1,2.5\n0,0,1.5\n",
        "non_numeric_covariate": "s,z,y,x1,x2\n1,1,2.5,0.1,0.2\n0,0,1.5,abc,0.3\n",
        "non_numeric_outcome": "s,z,y,x1\n1,1,2.5,0.1\n0,0,oops,0.3\n",
        "missing_s": "z,y,x1\n1,2.5,0.1\n",
        "missing_y": "s,z,x1\n1,1,0.1\n0,0,0.2\n",
        "no_covariates": "s,z,y\n1,1,2.5\n",
        "empty_file": "",
        "duplicate_column": "s,z,y,x1,z\n1,1,2.5,0.1,0\n",
        "duplicate_covariate": "s,z,y,x1,x1\n1,1,2.5,0.1,0.2\n",
    }

    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_invalid_inputs(self, tmp_path, case):
        path = tmp_path / "d.csv"
        path.write_text(self.INVALID[case])
        with pytest.raises(SchemaError) as want:
            read_csv_columns_per_cell(path, mode="fusion")
        with pytest.raises(SchemaError) as got:
            read_csv_columns(path, mode="fusion")
        assert str(got.value).startswith(str(want.value))

    @pytest.mark.parametrize("later", ["0,NA,1,0.4", "2,0,1,0.4"], ids=["z", "s"])
    def test_earliest_faulty_row_wins(self, tmp_path, later):
        # Row 1's covariate comes before a later row's fault in a column
        # that is cast before the covariates.
        path = tmp_path / "d.csv"
        path.write_text(f"s,z,y,x1\n1,1,2.5,abc\n{later}\n1,0,1,0.3\n")
        with pytest.raises(SchemaError) as want:
            read_csv_columns_per_cell(path, mode="fusion")
        with pytest.raises(SchemaError) as got:
            read_csv_columns(path, mode="fusion")
        assert str(got.value) == f"{want.value} (row 2)"

    @pytest.mark.parametrize("cell", ["", " ", "0.7", "2", "-1", "nan", "yes"])
    def test_sample_indicator_must_be_binary(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"s,z,y,x1\n1,1,2.5,0.1\n{cell},0,1.5,0.2\n")
        with pytest.raises(SchemaError, match="column 's'.*row 3"):
            read_csv_columns(path, mode="fusion")


    BLANK_LINES = {
        "ragged": ("s,z,y,x1\n1,1,2.5,0.1\n\n\n0,0,1.5\n", "row 5 has 3 fields"),
        "non_numeric": ("s,z,y,x1\n1,1,2.5,0.1\n\n\n0,0,abc,0.2\n", "column 'y' (row 5)"),
        "bad_s": ("s,z,y,x1\n1,1,2.5,0.1\n\n\n0.7,0,1.5,0.2\n", "got '0.7' (row 5)"),
        "every_row_ragged": ("s,z,y,x1\n\n1,1,2.5\n0,0,1.5\n", "row 3 has 3 fields"),
    }

    @pytest.mark.parametrize("case", sorted(BLANK_LINES))
    def test_error_names_file_line_after_blank_lines(self, tmp_path, case):
        text, message = self.BLANK_LINES[case]
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(SchemaError, match=re.escape(message)):
            read_csv_columns(path, mode="fusion")


class TestCsvInBlocks(TestCsvAgainstPerCellParser):
    """Every case above, with the body parsed one, two and three rows at a
    time."""

    @pytest.fixture(autouse=True, params=[1, 2, 3])
    def block_rows(self, request, monkeypatch):
        monkeypatch.setattr(data, "BLOCK_ROWS", request.param)


class TestCsvBlocks:
    """A fault in the first or the last row of a two-row block is reported
    with the message a whole-file parse gives, and a parse holds about one
    block of str fields at a time."""

    CASES = {
        "ragged_first_in_block": ("1,1,2.5,0.1\n0,0,1.5,0.2\n1,0,1\n0,1,2,3\n",
                                  "row 4 has 3 fields, expected 4"),
        "ragged_last_in_block": ("1,1,2.5,0.1\n0,0,1.5\n1,0,1,2\n",
                                 "row 3 has 3 fields, expected 4"),
        "ragged_block": ("1,1,2.5,0.1\n0,0,1.5,0.2\n1,0,1\n0,1,2\n",
                         "row 4 has 3 fields, expected 4"),
        "blank_last_in_block": ("1,1,2.5,0.1\n\n0,0,abc,0.2\n",
                                "non-numeric value 'abc' in column 'y' (row 4)"),
        "blank_first_in_block": ("1,1,2.5,0.1\n0,0,1.5,0.2\n\n1,0,1,2\n0.5,0,1,2\n",
                                 "column 's' must be 0 or 1, got '0.5' (row 6)"),
        "blank_block": ("1,1,2.5,0.1\n0,0,1.5,0.2\n\n\n1,0,1\n",
                        "row 6 has 3 fields, expected 4"),
        "non_numeric_first_in_block": ("1,1,2.5,0.1\n0,0,1.5,0.2\n1,0,1,x\n",
                                       "non-numeric value 'x' in covariate 'x1' (row 4)"),
        "non_numeric_last_in_block": ("1,1,2.5,0.1\n0,zz,1.5,0.2\n",
                                      "non-numeric value 'zz' in column 'z' (row 3)"),
        "bad_s_first_in_block": ("1,1,2.5,0.1\n0,0,1.5,0.2\n2,0,1,1\n",
                                 "column 's' must be 0 or 1, got '2' (row 4)"),
        "bad_s_last_in_block": ("1,1,2.5,0.1\n-1,0,1.5,0.2\n",
                                "column 's' must be 0 or 1, got '-1' (row 3)"),
        "quoted_newline_then_non_numeric": ('1,1,2.5,0.1\n0,0,"1.5\n",0.2\n1,0,1,abc\n',
                                            "non-numeric value 'abc' in covariate 'x1' (row 5)"),
        "quoted_newline_non_numeric": ('1,1,2.5,0.1\n0,0,"abc\n",0.2\n',
                                       "non-numeric value 'abc' in column 'y' (row 3)"),
        "quoted_newline_then_ragged": ('1,1,2.5,0.1\n0,0,"1.5\n",0.2\n1,0,1\n',
                                       "row 5 has 3 fields, expected 4"),
        # the first quote is inside a field, so only the second opens one
        "quoted_after_inner_quote": ('1,1,2.5,0.1\n0,0,a"b,"1.5\n",0.2\n',
                                     "row 3 has 5 fields, expected 4"),
        # a block counts rows, not lines: the quoted newline and the blank
        # line leave the ragged row in the first block with the 'NA', and the
        # parse fault is found before the cast one
        "blank_and_quoted_newline_then_ragged": ('1,NA,"2.5\n",0.1\n\n0,0,1.5\n',
                                                 "row 5 has 3 fields, expected 4"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_message_as_whole_file(self, tmp_path, monkeypatch, case):
        body, message = self.CASES[case]
        path = tmp_path / "d.csv"
        path.write_text("s,z,y,x1\n" + body)
        monkeypatch.setattr(data, "BLOCK_ROWS", 2)
        with pytest.raises(SchemaError) as got:
            read_csv_columns(path, mode="fusion")
        assert str(got.value) == f"{path}: {message}"

    def test_target_file_fault_skips_dropped_fields(self, tmp_path, monkeypatch):
        # A force_s=0 file holds target rows only, so transport mode reads
        # none of its z/y fields, 'NA' included, and the covariate is the fault.
        path = tmp_path / "target.csv"
        path.write_text("z,y,x1\nNA,,0.1\n\n1,2,0.3\n,NA,abc\n")
        for block in (1, 2, 3, 8192):
            monkeypatch.setattr(data, "BLOCK_ROWS", block)
            with pytest.raises(SchemaError) as got:
                read_csv_columns(path, mode="transport", force_s=0)
            assert str(got.value) == f"{path}: non-numeric value 'abc' in covariate 'x1' (row 5)"

    def test_fault_csv_reader_cannot_find_names_the_block(self, tmp_path, monkeypatch):
        # Should np.loadtxt reject a block that csv.reader reads as valid, the
        # error names the block's first line, and numpy's text is not shown.
        path = tmp_path / "d.csv"
        path.write_text("s,z,y,x1\n\n1,1,2.5,0.1\n0,0,1.5,0.2\n")

        def reject(*args, **kwargs):
            raise ValueError("numpy's own message")

        monkeypatch.setattr(np, "loadtxt", reject)
        with pytest.raises(SchemaError) as got:
            read_csv_columns(path, mode="fusion")
        assert str(got.value) == f"{path}: malformed CSV from row 3"

    def test_peak_memory_is_bounded(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(8)
        n = 50_000
        body = np.column_stack([rng.integers(0, 2, (n, 2)), rng.standard_normal((n, 5))])
        path = tmp_path / "d.csv"
        np.savetxt(path, body, fmt=["%d", "%d"] + ["%.17g"] * 5, delimiter=",",
                   header="s,z,y,x1,x2,x3,x4", comments="")
        monkeypatch.setattr(data, "BLOCK_ROWS", 1024)
        tracemalloc.start()
        try:
            cols, _ = read_csv_columns(path, mode="fusion")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cols["x"].shape == (n, 4)
        assert peak < 3 * sum(a.nbytes for a in cols.values())


# Numbers in spellings float() reads; a dropped target z/y field may hold any
# text.
NUMBERS = st.one_of(st.integers(-5, 5).map(str),
                    st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.sampled_from(["nan", "-inf", "1E5", ".5", "-0"]))
DROPPED = st.text(alphabet=' ,"\n\rNA1', max_size=5)


@st.composite
def csv_files(draw):
    """A valid CSV text, with the mode and force_s to read it by: blank lines
    anywhere, quoted and padded fields, line breaks inside quotes and one of
    the three line endings."""
    mode = draw(st.sampled_from(data.MODES))
    force_s = draw(st.sampled_from([None, 0, 1]))
    names = ["z", "y"] + [f"x{j + 1}" for j in range(draw(st.integers(1, 3)))]
    names = draw(st.permutations(names + ["s"] * (force_s is None)))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))

    def field(text):
        quote = draw(st.booleans()) or any(c in text for c in ',"\r\n')
        text = (draw(st.sampled_from(["", " "])) + text
                + draw(st.sampled_from(["", " "] + ["\n", "\r\n", "\r"] * quote)))
        return '"' + text.replace('"', '""') + '"' if quote else text

    def blanks():
        return [""] * draw(st.integers(0, 3))

    lines = [",".join(field(name) for name in names)] + blanks()
    for _ in range(draw(st.integers(0, 8))):
        s = force_s if force_s is not None else draw(st.sampled_from([0, 1]))
        cells = {name: draw(NUMBERS) for name in names}
        cells["s"] = str(s)
        if mode == "transport" and s == 0:
            cells["z"], cells["y"] = draw(DROPPED), draw(DROPPED)
        else:
            cells["z"] = draw(st.sampled_from(["0", "1", ""]))
            cells["y"] = draw(st.one_of(NUMBERS, st.just("")))
        lines += [",".join(field(cells[name]) for name in names)] + blanks()
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return text, mode, force_s


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=csv_files(), bom=st.booleans())
def test_ingest_matches_per_cell_parser(csv_dir, case, bom):
    """read_csv_columns returns what the per-cell parser returns on any valid
    file, whole or in blocks of one, two or three rows, with no warning."""
    text, mode, force_s = case
    path = csv_dir / "d.csv"
    path.write_bytes(text.encode())
    want = read_csv_columns_per_cell(path, mode=mode, force_s=force_s)
    if bom:  # the per-cell parser does not skip one
        path.write_bytes(("\ufeff" + text).encode())
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("error")
        for block in (1, 2, 3, 8192):
            patch.setattr(data, "BLOCK_ROWS", block)
            assert_same_columns(read_csv_columns(path, mode=mode, force_s=force_s), want)


# Spellings float() rejects, and values of s that are numbers but not 0 or 1.
NON_NUMBERS = st.sampled_from(["abc", "NA", "1.2.3", "--1", "1e", "0x1", "1 2", "_1"])
BAD_S = st.sampled_from(["2", "-1", "0.5", "nan", "1e3", "-inf"])


@st.composite
def single_fault_files(draw):
    """A valid CSV text with one fault in a field that is read, with the mode
    and force_s to read it by and the message it must raise. There are no
    blank lines and no quoted line breaks, so data row i is on line i + 2."""
    mode = draw(st.sampled_from(data.MODES))
    force_s = draw(st.sampled_from([None, 0, 1]))
    names = ["z", "y"] + [f"x{j + 1}" for j in range(draw(st.integers(1, 3)))]
    names = draw(st.permutations(names + ["s"] * (force_s is None)))

    def field(text):
        text = draw(st.sampled_from(["", " "])) + text + draw(st.sampled_from(["", " "]))
        return f'"{text}"' if draw(st.booleans()) else text

    rows = []
    for _ in range(draw(st.integers(1, 8))):
        s = force_s if force_s is not None else draw(st.sampled_from([0, 1]))
        cells = {name: draw(NUMBERS) for name in names}
        cells["s"] = str(s)
        if mode == "transport" and s == 0:
            cells["z"], cells["y"] = draw(st.sampled_from(["", "NA", "1"])), draw(NON_NUMBERS)
        else:
            cells["z"] = draw(st.sampled_from(["0", "1", ""]))
            cells["y"] = draw(st.one_of(NUMBERS, st.just("")))
        rows.append(cells)
    i = draw(st.integers(0, len(rows) - 1))
    row, line = rows[i], i + 2
    fields = [[field(r[name]) for name in names] for r in rows]
    read = [name for name in names if name not in ("z", "y")
            or not (mode == "transport" and row["s"] == "0")]
    kinds = ["value", "short", "long"] + ["bad_s"] * (force_s is None)
    kind = draw(st.sampled_from(kinds))
    if kind in ("short", "long"):
        fields[i] = fields[i][:-1] if kind == "short" else fields[i] + ["0"]
        message = f"row {line} has {len(fields[i])} fields, expected {len(names)}"
    elif kind == "bad_s":
        value = draw(BAD_S)
        fields[i][names.index("s")] = value
        message = f"column 's' must be 0 or 1, got '{value}' (row {line})"
    else:
        name = draw(st.sampled_from(read))
        value = draw(NON_NUMBERS if name in ("z", "y") else st.one_of(NON_NUMBERS, st.just("")))
        fields[i][names.index(name)] = field(value)
        what = f"non-numeric value '{value}'" if value else "empty value"
        label = f"column '{name}'" if name in ("s", "z", "y") else f"covariate '{name}'"
        message = f"{what} in {label} (row {line})"
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(names)] + [",".join(f) for f in fields]
    return end.join(lines) + draw(st.sampled_from(["", end])), mode, force_s, message


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(case=single_fault_files())
def test_single_fault_message(csv_dir, case):
    """A file with one fault raises the message that names it, whole or in
    blocks of one, two or three rows."""
    text, mode, force_s, message = case
    path = csv_dir / "fault.csv"
    path.write_bytes(text.encode())
    with pytest.MonkeyPatch.context() as patch:
        for block in (1, 2, 3, 8192):
            patch.setattr(data, "BLOCK_ROWS", block)
            with pytest.raises(SchemaError) as got:
                read_csv_columns(path, mode=mode, force_s=force_s)
            assert str(got.value) == f"{path}: {message}"


class TestCsvHeader:
    @pytest.mark.parametrize("header, name", [("s,z,y,x1,z", "z"), ("s,z,y,x1,x1", "x1"),
                                              ("s, x1 ,z,y,x1", "x1")])
    def test_duplicate_name_rejected(self, tmp_path, header, name):
        path = tmp_path / "d.csv"
        path.write_text(header + "\n" + ",".join(["1"] * 5) + "\n")
        for parse in (read_csv_columns, read_csv_columns_per_cell):
            with pytest.raises(SchemaError, match=re.escape(f"duplicate column '{name}'")):
                parse(path, mode="fusion")

    @pytest.mark.parametrize("header", ["s,z,y,x1", "x1,s,z,y"])
    def test_byte_order_mark_ignored(self, tmp_path, header):
        rows = [dict(s="1", z="1", y="2.5", x1="0.1"), dict(s="0", z="0", y="1.5", x1="0.2")]
        text = header + "\n" + "".join(",".join(r[h] for h in header.split(",")) + "\n"
                                       for r in rows)
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        got = read_csv_columns(marked, mode="fusion")
        assert got[1] == ["x1"]
        assert_same_columns(got, read_csv_columns(plain, mode="fusion"))

    def test_byte_order_mark_error_names_file_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("s,z,y,x1\n\n1,1,2.5,0.1\n0,0,abc,0.2\n", encoding="utf-8-sig")
        with pytest.raises(SchemaError, match=re.escape("column 'y' (row 4)")):
            read_csv_columns(path, mode="fusion")


def test_study_share_matches_oracle():
    ds = generate(SCENARIOS["A"], 1_000_000, seed=31)
    assert ds.n_study / ds.n == pytest.approx(ORACLE_STUDY_SHARE, abs=0.005)
