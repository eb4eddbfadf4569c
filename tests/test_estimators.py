import numpy as np
import pytest

from targetcal.data import (
    BalanceMatrix,
    Dataset,
    build_balance_matrix,
    standardized_mean_differences,
    target_moments,
)
from targetcal.errors import DegenerateOutcomeError, ModeError
from targetcal.estimators import (
    EstimatorKind,
    compute_tau,
    tau_aug_fusion,
    tau_aug_transport,
    tau_cal_fusion,
    tau_cal_transport,
    tau_cbps_benchmark,
    tau_gcomp,
    tau_tmle,
    tau_unadjusted,
)

from conftest import draw_row_a

# Frozen 4e7-draw oracle values for the baseline generative models: the crude
# study-sample arm contrast and the study-population effect E[tilt | s=1].
ORACLE_CRUDE_STUDY = -3.72461
ORACLE_STUDY_ATE = -0.67799


def balanced_fixture(y=None):
    x = np.array([[1.0], [2.0], [1.0], [2.0], [1.0], [2.0], [1.0], [2.0]])
    s = np.array([1, 1, 1, 1, 0, 0, 0, 0])
    z = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0])
    if y is None:
        y = np.array([3.0, 1.0, 2.0, 4.0, 5.0, 2.0, 4.0, 1.0])
    return Dataset.fusion(s, z, y, x)


class TestUnadjusted:
    def test_y_equals_z(self):
        ds = balanced_fixture(y=np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0]))
        assert tau_unadjusted(ds, "study").tau_hat == pytest.approx(1.0)

    def test_equal_arm_means(self):
        ds = balanced_fixture(y=np.array([2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0]))
        assert tau_unadjusted(ds, "study").tau_hat == pytest.approx(0.0)

    def test_confounded_crude_difference(self):
        ds = draw_row_a(100_000, np.random.default_rng(17))
        est = tau_unadjusted(ds, "study")
        assert est.tau_hat == pytest.approx(ORACLE_CRUDE_STUDY, abs=0.12)
        # the confounding bias is real: far from the true effect
        assert abs(est.tau_hat - (-4.00)) > 0.15


class TestGcomp:
    def test_outcome_independent_of_z(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((60, 1))
        s = np.tile([1, 1, 1, 0], 15)
        z = np.tile([1.0, 0.0], 30)
        y = 2.0 + x[:, 0]
        ds = Dataset.fusion(s, z, y, x)
        c = build_balance_matrix(ds)
        assert tau_gcomp(ds, c).tau_hat == pytest.approx(0.0, abs=1e-10)

    def test_constant_shift_equivariance(self):
        rng = np.random.default_rng(2)
        ds = draw_row_a(600, rng)
        c = build_balance_matrix(ds)
        base = tau_gcomp(ds.to_transport(), c).tau_hat
        alpha = 3.25
        y_shift = np.where(ds.z == 1, ds.y + alpha, ds.y)
        ds2 = Dataset.fusion(ds.s, ds.z, y_shift, ds.x)
        shifted = tau_gcomp(ds2.to_transport(), c).tau_hat
        assert shifted == pytest.approx(base + alpha, abs=1e-8)

    def test_consistency_at_large_n(self):
        ds = draw_row_a(100_000, np.random.default_rng(3))
        c = build_balance_matrix(ds)
        assert tau_gcomp(ds.to_transport(), c).tau_hat == pytest.approx(-4.00, abs=0.06)


class TestTmle:
    def test_fluctuation_vanishes_when_initial_models_correct(self):
        # binary outcomes generated logistic in the balance columns, so the
        # initial fractional-logistic fits are correctly specified and the
        # fluctuation coefficients shrink to zero in large samples
        rng = np.random.default_rng(18)
        n = 40_000
        x = rng.standard_normal((n, 2))
        s = (rng.random(n) < 0.6).astype(int)
        z = (rng.random(n) < 1 / (1 + np.exp(-0.4 * x[:, 0]))).astype(float)
        p1 = 1 / (1 + np.exp(-(0.5 + 0.8 * x[:, 0] - 0.4 * x[:, 1])))
        p0 = 1 / (1 + np.exp(-(-0.5 + 0.3 * x[:, 0] + 0.6 * x[:, 1])))
        y = np.where(z == 1, rng.random(n) < p1, rng.random(n) < p0).astype(float)
        ds = Dataset.fusion(s, z, y, x)
        c = build_balance_matrix(ds)
        est = tau_tmle(ds.to_transport(), c)
        eps0, eps1 = est.nuisance["epsilon"]
        assert abs(eps0) < 0.08 and abs(eps1) < 0.08
        truth = np.mean((p1 - p0)[ds.s == 0])
        assert est.tau_hat == pytest.approx(truth, abs=0.03)

    def test_updated_predictions_bounded(self):
        ds = draw_row_a(800, np.random.default_rng(4))
        c = build_balance_matrix(ds)
        est = tau_tmle(ds.to_transport(), c)
        y_lo, y_hi = est.nuisance["outcome_range"]
        for key in ("eta0", "eta1"):
            assert np.all(est.nuisance[key] >= y_lo - 1e-12)
            assert np.all(est.nuisance[key] <= y_hi + 1e-12)

    def test_degenerate_outcome_rejected(self):
        ds = balanced_fixture(y=np.array([2.0, 2.0, 2.0, 2.0, 1.0, 5.0, 3.0, 2.0]))
        c = build_balance_matrix(ds)
        with pytest.raises(DegenerateOutcomeError):
            tau_tmle(ds.to_transport(), c)

    def test_consistency_at_large_n(self):
        ds = draw_row_a(50_000, np.random.default_rng(5))
        c = build_balance_matrix(ds)
        assert tau_tmle(ds.to_transport(), c).tau_hat == pytest.approx(-4.00, abs=0.1)


class TestAugmented:
    def test_correct_models_close_to_gcomp(self):
        ds = draw_row_a(50_000, np.random.default_rng(6))
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        aug = tau_aug_transport(ds.to_transport(), c, theta0)
        gcomp = tau_gcomp(ds.to_transport(), c)
        assert aug.tau_hat == pytest.approx(gcomp.tau_hat, abs=0.05)

    def test_sampling_weights_sum_to_n1(self):
        ds = draw_row_a(2_000, np.random.default_rng(7))
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        aug = tau_aug_transport(ds.to_transport(), c, theta0)
        assert aug.weights_used[ds.s == 1].sum() == pytest.approx(ds.n_study, rel=1e-8)

    def test_fusion_requires_fusion_mode(self):
        ds = draw_row_a(400, np.random.default_rng(8))
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        with pytest.raises(ModeError):
            tau_aug_fusion(ds.to_transport(), c, theta0)

    def test_fusion_uses_target_outcome_models(self):
        # treatment effect 3 in the target sample, 1 in the study sample: the
        # fusion model contrast must reflect the target fit
        rng = np.random.default_rng(19)
        n = 400
        x = rng.standard_normal((n, 1))
        s = np.tile([1, 1, 0, 0], n // 4)
        z = np.tile([1.0, 0.0], n // 2)
        y = np.where(s == 1, z * 1.0 + 0.5 * x[:, 0], 10.0 + 3.0 * z + 0.5 * x[:, 0])
        ds = Dataset.fusion(s, z, y, x)
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        est = tau_aug_fusion(ds, c, theta0)
        target = ds.s == 0
        model_term = np.mean(est.nuisance["mu1"][target] - est.nuisance["mu0"][target])
        assert model_term == pytest.approx(3.0, abs=1e-8)


class TestCalibration:
    def test_balanced_data_difference_of_means(self):
        ds = balanced_fixture()
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        est = tau_cal_transport(ds.to_transport(), c, theta0)
        study = ds.s == 1
        z, y = ds.z[study], ds.y[study]
        crude = y[z == 1].mean() - y[z == 0].mean()
        assert est.tau_hat == pytest.approx(crude, abs=1e-9)
        assert np.allclose(est.weights_used[study], 1.0, atol=1e-8)

    def test_weight_scale_invariance(self):
        ds = draw_row_a(900, np.random.default_rng(9))
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        est = tau_cal_transport(ds.to_transport(), c, theta0)
        study = ds.s == 1
        w = est.weights_used[study]
        z, y = ds.z[study], ds.y[study]

        def hajek(weights):
            return (np.average(y[z == 1], weights=weights[z == 1])
                    - np.average(y[z == 0], weights=weights[z == 0]))

        assert abs(hajek(17.3 * w) - hajek(w)) < 1e-12

    def test_location_equivariance(self):
        ds = draw_row_a(700, np.random.default_rng(10))
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        base = tau_cal_transport(ds.to_transport(), c, theta0).tau_hat
        ds2 = Dataset.fusion(ds.s, ds.z, ds.y + 11.0, ds.x)
        shifted = tau_cal_transport(ds2.to_transport(), c, theta0).tau_hat
        assert abs(shifted - base) <= 1e-10

    def test_smds_killed(self):
        # SMDs of the weights each calibration estimator returns, recomputed
        # as smd.csv does: sample and treatment contrasts for CAL_T and CAL_F,
        # the within-study treatment contrast for CBPS.
        ds = draw_row_a(1200, np.random.default_rng(11))
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        study = ds.s == 1
        c_study = BalanceMatrix(c.c[study])
        w_t = tau_cal_transport(ds.to_transport(), c, theta0).weights_used
        w_f = tau_cal_fusion(ds, c, theta0).weights_used
        w_b = tau_cbps_benchmark(ds, c, "study").weights_used
        smds = {
            "CAL_T sample": standardized_mean_differences(c, ds.s, np.where(study, w_t, 1.0)),
            "CAL_T treatment": standardized_mean_differences(c_study, ds.z[study], w_t[study]),
            "CAL_F sample": standardized_mean_differences(c, ds.s, w_f),
            "CAL_F treatment": standardized_mean_differences(c, ds.z, w_f),
            "CBPS treatment": standardized_mean_differences(c_study, ds.z[study], w_b),
        }
        for label, smd in smds.items():
            assert np.max(smd) <= 1e-8, label

    def test_fusion_rejects_transport_dataset(self):
        ds = draw_row_a(400, np.random.default_rng(12))
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        with pytest.raises(ModeError):
            tau_cal_fusion(ds.to_transport(), c, theta0)

    def test_single_sample_rejected_at_construction(self):
        with pytest.raises(ModeError):
            Dataset.fusion(np.ones(6, dtype=int), np.tile([1.0, 0.0], 3),
                           np.arange(6.0), np.arange(6.0).reshape(-1, 1))

    def test_fusion_more_efficient_than_transport(self):
        # across replicates, fusion squared error should be smaller on average
        errs_t, errs_f = [], []
        for r in range(40):
            ds = draw_row_a(800, np.random.default_rng(3000 + r))
            c = build_balance_matrix(ds)
            theta0 = target_moments(c, ds.s)
            errs_t.append((tau_cal_transport(ds.to_transport(), c, theta0).tau_hat + 4.0) ** 2)
            errs_f.append((tau_cal_fusion(ds, c, theta0).tau_hat + 4.0) ** 2)
        assert np.mean(errs_f) < np.mean(errs_t)


class TestCbps:
    def test_randomized_balanced_close_to_unadjusted(self):
        ds = balanced_fixture()
        c = build_balance_matrix(ds)
        est = tau_cbps_benchmark(ds, c, "study")
        crude = tau_unadjusted(ds, "study")
        assert est.tau_hat == pytest.approx(crude.tau_hat, abs=1e-8)

    def test_arm_moment_equality(self):
        ds = draw_row_a(1500, np.random.default_rng(13))
        c = build_balance_matrix(ds)
        est = tau_cbps_benchmark(ds, c, "study")
        study = ds.s == 1
        cs = c.c[study]
        z = ds.z[study]
        w = est.weights_used
        theta_full = cs.mean(axis=0) * study.sum()
        for arm in (0.0, 1.0):
            tot = cs[z == arm].T @ w[z == arm]
            assert np.max(np.abs(tot - theta_full / 2) / (1 + np.abs(theta_full / 2))) < 1e-8

    def test_recovers_study_ate(self):
        ds = draw_row_a(100_000, np.random.default_rng(14))
        c = build_balance_matrix(ds)
        est = tau_cbps_benchmark(ds, c, "study")
        assert est.tau_hat == pytest.approx(ORACLE_STUDY_ATE, abs=0.06)


def test_dispatch_covers_every_kind(baseline_balance):
    ds, c, theta0 = baseline_balance
    for kind in EstimatorKind:
        view = ds if kind in (EstimatorKind.AUG_F, EstimatorKind.CAL_F) else ds.to_transport()
        est = compute_tau(view, c, theta0, kind)
        assert np.isfinite(est.tau_hat)
        assert est.kind is kind
