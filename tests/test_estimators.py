import gc
import logging
import weakref
from collections import Counter

import numpy as np
import pytest

from targetcal import data, estimators, glm, solver
from targetcal.data import (
    BalanceMatrix,
    Dataset,
    build_balance_matrix,
    standardized_mean_differences,
)
from targetcal.errors import (DegenerateOutcomeError, EmptyArmError, ModeError,
                              NotConvergedError, RankDeficientError)
from targetcal.estimators import (
    EstimatorKind,
    Fits,
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
from targetcal.inference import estimate_with_ci
from targetcal.sim import SCENARIOS, derive_seed, generate

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
        assert tau_unadjusted(ds.to_transport(), fits=None).tau_hat == pytest.approx(1.0)

    def test_equal_arm_means(self):
        ds = balanced_fixture(y=np.array([2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0]))
        assert tau_unadjusted(ds.to_transport(), fits=None).tau_hat == pytest.approx(0.0)

    def test_confounded_crude_difference(self):
        ds = draw_row_a(100_000, np.random.default_rng(17))
        est = tau_unadjusted(ds.to_transport(), fits=None)
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
        assert tau_gcomp(ds, Fits(ds, c)).tau_hat == pytest.approx(0.0, abs=1e-10)

    def test_constant_shift_equivariance(self):
        rng = np.random.default_rng(2)
        ds = draw_row_a(600, rng)
        c = build_balance_matrix(ds)
        dt = ds.to_transport()
        base = tau_gcomp(dt, Fits(dt, c)).tau_hat
        alpha = 3.25
        y_shift = np.where(ds.z == 1, ds.y + alpha, ds.y)
        dt2 = Dataset.fusion(ds.s, ds.z, y_shift, ds.x).to_transport()
        shifted = tau_gcomp(dt2, Fits(dt2, c)).tau_hat
        assert shifted == pytest.approx(base + alpha, abs=1e-8)

    def test_consistency_at_large_n(self):
        ds = draw_row_a(100_000, np.random.default_rng(3))
        c = build_balance_matrix(ds)
        dt = ds.to_transport()
        assert tau_gcomp(dt, Fits(dt, c)).tau_hat == pytest.approx(-4.00, abs=0.06)


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
        dt = ds.to_transport()
        est = tau_tmle(dt, Fits(dt, c))
        eps0, eps1 = est.nuisance["epsilon"]
        assert abs(eps0) < 0.08 and abs(eps1) < 0.08
        truth = np.mean((p1 - p0)[ds.s == 0])
        assert est.tau_hat == pytest.approx(truth, abs=0.03)

    def test_updated_predictions_bounded(self):
        ds = draw_row_a(800, np.random.default_rng(4))
        c = build_balance_matrix(ds)
        dt = ds.to_transport()
        est = tau_tmle(dt, Fits(dt, c))
        y_lo, y_hi = est.nuisance["outcome_range"]
        for key in ("mu0", "mu1"):
            assert np.all(est.nuisance[key] >= y_lo - 1e-12)
            assert np.all(est.nuisance[key] <= y_hi + 1e-12)

    def test_degenerate_outcome_rejected(self):
        ds = balanced_fixture(y=np.array([2.0, 2.0, 2.0, 2.0, 1.0, 5.0, 3.0, 2.0]))
        c = build_balance_matrix(ds)
        dt = ds.to_transport()
        with pytest.raises(DegenerateOutcomeError):
            tau_tmle(dt, Fits(dt, c))

    def test_consistency_at_large_n(self):
        ds = draw_row_a(50_000, np.random.default_rng(5))
        c = build_balance_matrix(ds)
        dt = ds.to_transport()
        assert tau_tmle(dt, Fits(dt, c)).tau_hat == pytest.approx(-4.00, abs=0.1)


class TestAugmented:
    def test_correct_models_close_to_gcomp(self):
        ds = draw_row_a(50_000, np.random.default_rng(6))
        c = build_balance_matrix(ds)
        dt = ds.to_transport()
        aug = tau_aug_transport(dt, Fits(dt, c))
        gcomp = tau_gcomp(dt, Fits(dt, c))
        assert aug.tau_hat == pytest.approx(gcomp.tau_hat, abs=0.05)

    def test_sampling_weights_sum_to_n1(self):
        ds = draw_row_a(2_000, np.random.default_rng(7))
        c = build_balance_matrix(ds)
        dt = ds.to_transport()
        aug = tau_aug_transport(dt, Fits(dt, c))
        assert aug.weights_used[ds.s == 1].sum() == pytest.approx(ds.n_study, rel=1e-8)

    def test_fusion_requires_fusion_mode(self):
        ds = draw_row_a(400, np.random.default_rng(8))
        c = build_balance_matrix(ds)
        dt = ds.to_transport()
        with pytest.raises(ModeError):
            tau_aug_fusion(dt, Fits(dt, c))
        # The target outcome models are the Fits' own, read from its dataset.
        with pytest.raises(ModeError):
            tau_aug_fusion(ds, Fits(dt, c))

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
        est = tau_aug_fusion(ds, Fits(ds, c))
        target = ds.s == 0
        model_term = np.mean(est.nuisance["mu1"][target] - est.nuisance["mu0"][target])
        assert model_term == pytest.approx(3.0, abs=1e-8)


class TestCalibration:
    def test_balanced_data_difference_of_means(self):
        ds = balanced_fixture()
        c = build_balance_matrix(ds)
        dt = ds.to_transport()
        est = tau_cal_transport(dt, Fits(dt, c))
        study = ds.s == 1
        z, y = ds.z[study], ds.y[study]
        crude = y[z == 1].mean() - y[z == 0].mean()
        assert est.tau_hat == pytest.approx(crude, abs=1e-9)
        assert np.allclose(est.weights_used[study], 1.0, atol=1e-8)

    def test_weight_scale_invariance(self):
        ds = draw_row_a(900, np.random.default_rng(9))
        c = build_balance_matrix(ds)
        dt = ds.to_transport()
        est = tau_cal_transport(dt, Fits(dt, c))
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
        dt = ds.to_transport()
        base = tau_cal_transport(dt, Fits(dt, c)).tau_hat
        dt2 = Dataset.fusion(ds.s, ds.z, ds.y + 11.0, ds.x).to_transport()
        shifted = tau_cal_transport(dt2, Fits(dt2, c)).tau_hat
        assert abs(shifted - base) <= 1e-10

    def test_smds_killed(self):
        # SMDs of the weights each calibration estimator returns, recomputed
        # as smd.csv does: sample and treatment contrasts for CAL_T and CAL_F,
        # the within-study treatment contrast for CBPS.
        ds = draw_row_a(1200, np.random.default_rng(11))
        c = build_balance_matrix(ds)
        study = ds.s == 1
        c_study = BalanceMatrix(c.c[study])
        dt = ds.to_transport()
        w_t = tau_cal_transport(dt, Fits(dt, c)).weights_used
        w_f = tau_cal_fusion(ds, Fits(ds, c)).weights_used
        w_b = tau_cbps_benchmark(dt, Fits(dt, c)).weights_used
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
        dt = ds.to_transport()
        with pytest.raises(ModeError):
            tau_cal_fusion(dt, Fits(dt, c))

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
            dt = ds.to_transport()
            errs_t.append((tau_cal_transport(dt, Fits(dt, c)).tau_hat + 4.0) ** 2)
            errs_f.append((tau_cal_fusion(ds, Fits(ds, c)).tau_hat + 4.0) ** 2)
        assert np.mean(errs_f) < np.mean(errs_t)


class TestCbps:
    def test_randomized_balanced_close_to_unadjusted(self):
        ds = balanced_fixture()
        c = build_balance_matrix(ds)
        dt = ds.to_transport()
        est = tau_cbps_benchmark(dt, Fits(dt, c))
        crude = tau_unadjusted(dt, fits=None)
        assert est.tau_hat == pytest.approx(crude.tau_hat, abs=1e-8)

    def test_arm_moment_equality(self):
        ds = draw_row_a(1500, np.random.default_rng(13))
        c = build_balance_matrix(ds)
        dt = ds.to_transport()
        est = tau_cbps_benchmark(dt, Fits(dt, c))
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
        dt = ds.to_transport()
        est = tau_cbps_benchmark(dt, Fits(dt, c))
        assert est.tau_hat == pytest.approx(ORACLE_STUDY_ATE, abs=0.06)


def test_dispatch_covers_every_kind(baseline_balance):
    ds, c = baseline_balance
    for kind in EstimatorKind:
        view = ds if kind in (EstimatorKind.AUG_F, EstimatorKind.CAL_F) else ds.to_transport()
        est = compute_tau(view, kind, Fits(view, c))
        assert np.isfinite(est.tau_hat)
        assert est.kind is kind


def test_benchmark_cohort_follows_mode(baseline_balance):
    # UNADJ and CBPS use the target sample when its outcomes are observed
    # (fusion data) and the study sample on the transport view
    ds, c = baseline_balance
    for view, cohort in ((ds, ds.s == 0), (ds.to_transport(), ds.s == 1)):
        fits = Fits(view, c)
        z, y = ds.z[cohort], ds.y[cohort]
        crude = compute_tau(view, EstimatorKind.UNADJ, fits)
        assert crude.tau_hat == pytest.approx(y[z == 1].mean() - y[z == 0].mean(), abs=1e-12)
        cbps = compute_tau(view, EstimatorKind.CBPS, fits)
        assert len(cbps.weights_used) == cohort.sum()
        assert np.array_equal(cbps.nuisance["z"], z)
        assert np.array_equal(cbps.nuisance["y"], y)


def test_fusion_cbps_reads_the_target_balance(baseline_balance, caplog):
    # On fusion data CBPS's cohort problem is the target half of CAL_F's, so
    # one k=10 solve of the target sample serves both. CAL_F reads its study
    # half first.
    ds, c = baseline_balance
    fits = Fits(ds, c)
    with caplog.at_level(logging.DEBUG, logger="targetcal.solver"):
        compute_tau(ds, EstimatorKind.CAL_F, fits)
        cbps = compute_tau(ds, EstimatorKind.CBPS, fits)
    solves = [r.args for r in caplog.records if r.name == "targetcal.solver"]
    assert [(r["k"], r["n_active"]) for r in solves] == [(10, ds.n_study), (10, ds.n_target)]
    assert np.array_equal(cbps.weights_used, fits.target_balance.weights[ds.s == 0])


@pytest.mark.parametrize("weights, z, message", [
    ([1.0, 1.0, 2.0, 2.0], [1.0, 1.0, 1.0, 1.0], "both treatment arms are required"),
    ([0.0, 0.0, 2.0, 1.0], [1.0, 1.0, 0.0, 0.0], "an arm carries zero total weight"),
    ([1.0, 2.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], "an arm carries zero total weight")])
def test_hajek_contrast_needs_weight_in_both_arms(weights, z, message):
    with pytest.raises(EmptyArmError, match=f"^{message}$"):
        estimators._hajek_contrast(np.array(weights), np.array(z), np.arange(4.0))


def test_target_sample_without_an_arm(baseline_balance):
    # Fusion data whose target sample has no treated unit: the four kinds
    # that read target treatment fail by name, the four others succeed.
    ds, _ = baseline_balance
    ds = Dataset.fusion(ds.s, np.where(ds.s == 0, 0.0, ds.z), ds.y, ds.x)
    fits = Fits(ds, build_balance_matrix(ds))
    failing = {EstimatorKind.UNADJ: "both treatment arms are required",
               EstimatorKind.AUG_F: "no units with z=1 to fit the outcome model",
               EstimatorKind.CAL_F: "sample s=0 has no units with z=1",
               EstimatorKind.CBPS: "sample s=0 has no units with z=1"}
    for kind in EstimatorKind:
        if kind in failing:
            with pytest.raises(EmptyArmError) as err:
                estimate_with_ci(ds, fits, kind=kind)
            assert str(err.value) == failing[kind]
        else:
            est = estimate_with_ci(ds, fits, kind=kind)
            assert np.isfinite(est.tau_hat) and est.se > 0


def test_failed_solve_is_cached(monkeypatch):
    # A scenario-B replicate whose sampling problem is infeasible: AUG_F reads
    # the error AUG_T's solve left in the shared Fits instead of solving again.
    ds = generate(SCENARIOS["B"], 500, derive_seed(1, "B", 500, 0, 0))
    fits = Fits(ds, build_balance_matrix(ds))
    calls = Counter()
    for name in ("assemble_sampling", "solve_entropy_dual"):
        def counted(*args, _name=name, _original=getattr(solver, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
    messages = []
    for view, kind in ((ds.to_transport(), EstimatorKind.AUG_T), (ds, EstimatorKind.AUG_F)):
        with pytest.raises(NotConvergedError) as err:
            compute_tau(view, kind, fits)
        messages.append(str(err.value))
    assert calls == {"assemble_sampling": 1, "solve_entropy_dual": 1}
    assert messages[0] == messages[1]
    assert "Farkas certificate" in messages[0]


def _rank_deficient_propensity() -> Fits:
    """x2 is constant on the study sample, so the propensity design there is
    rank deficient though the balance matrix is not."""
    rng = np.random.default_rng(8)
    s = np.repeat([1, 0], 60)
    x = rng.normal(size=(120, 2))
    x[s == 1, 1] = 0.0
    ds = Dataset.fusion(s, rng.integers(0, 2, 120), rng.normal(size=120), x)
    return Fits(ds, build_balance_matrix(ds))


def test_failed_fit_is_cached(monkeypatch):
    fits = _rank_deficient_propensity()
    calls = Counter()

    def counted(*args, _original=glm.fit_logistic, **kwargs):
        calls["fit_logistic"] += 1
        return _original(*args, **kwargs)

    monkeypatch.setattr(glm, "fit_logistic", counted)
    messages = []
    for _ in range(2):
        with pytest.raises(RankDeficientError) as err:
            fits.pi
        messages.append(str(err.value))
    assert calls == {"fit_logistic": 1}
    assert messages[0] == messages[1]


def test_failed_fits_is_freed_without_the_garbage_collector():
    # Fits keeps a failed member's error without its traceback, whose frames
    # hold the Fits: kept with it, the reference cycle would hold every
    # failed Fits until the garbage collector runs.
    enabled = gc.isenabled()
    gc.disable()
    try:
        fits = _rank_deficient_propensity()
        for _ in range(2):
            try:
                fits.pi
            except RankDeficientError:
                pass
            else:
                pytest.fail("the propensity fit did not fail")
        alive = weakref.ref(fits)
        del fits
        assert alive() is None, "KEPT ALIVE"
    finally:
        if enabled:
            gc.enable()


def _count_linear_fits(monkeypatch) -> Counter:
    calls = Counter()

    def counted(*args, _original=glm.fit_linear, **kwargs):
        calls["fit_linear"] += 1
        return _original(*args, **kwargs)

    monkeypatch.setattr(glm, "fit_linear", counted)
    return calls


def test_target_outcome_models_are_fitted_once(monkeypatch, baseline_balance):
    ds, c = baseline_balance
    fits = Fits(ds, c)
    calls = _count_linear_fits(monkeypatch)
    first, second = (compute_tau(ds, EstimatorKind.AUG_F, fits) for _ in range(2))
    assert calls == {"fit_linear": 2}
    assert first.tau_hat == second.tau_hat
    assert first.nuisance["mu1"] is fits.outcome(0)[2]


def test_target_outcome_failure_is_cached(monkeypatch, baseline_balance):
    # No treated unit in the target sample: the control arm is fitted, the
    # treated arm fails, and the second read raises the same error unfitted.
    ds, _ = baseline_balance
    ds = Dataset.fusion(ds.s, np.where(ds.s == 0, 0.0, ds.z), ds.y, ds.x)
    fits = Fits(ds, build_balance_matrix(ds))
    calls = _count_linear_fits(monkeypatch)
    messages = []
    for _ in range(2):
        with pytest.raises(EmptyArmError) as err:
            compute_tau(ds, EstimatorKind.AUG_F, fits)
        messages.append(str(err.value))
    assert calls == {"fit_linear": 1}
    assert messages == ["no units with z=1 to fit the outcome model"] * 2


def test_fusion_study_half_is_the_transport_solve(baseline_balance):
    ds, c = baseline_balance
    fits = Fits(ds, c)
    assert fits.fusion[1] is fits.transport


def test_dual_solutions_are_read_only(baseline_balance):
    # CAL_T, CAL_F, their sandwiches and the CLI's weight sets share one
    # solution, so an in-place edit by one reader must fail.
    ds, c = baseline_balance
    sol = Fits(ds, c).transport
    for array in (sol.weights, sol.eta):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_cal_fusion_bits_do_not_depend_on_order(baseline_balance):
    ds, c = baseline_balance
    first = Fits(ds, c)
    before = estimate_with_ci(ds, first, kind=EstimatorKind.CAL_F)
    second = Fits(ds, c)
    estimate_with_ci(ds.to_transport(), second, kind=EstimatorKind.CAL_T)
    after = estimate_with_ci(ds, second, kind=EstimatorKind.CAL_F)
    assert before.tau_hat.hex() == after.tau_hat.hex()
    assert before.se.hex() == after.se.hex()


@pytest.mark.parametrize("order", [("CAL_T", "CAL_F"), ("CAL_F", "CAL_T")])
def test_infeasible_study_sample_fails_both_calibrations_alike(monkeypatch, order):
    # A scenario-B replicate whose study-sample (transport) problem is
    # infeasible while its target-sample fusion problem is feasible: CAL_T
    # and CAL_F raise the same certified error from one study-sample solve,
    # CAL_F's prefixed with the half that failed. CAL_F reads its study half
    # first, so the target half is never solved.
    ds = generate(SCENARIOS["B"], 500, derive_seed(1, "B", 500, 0, 0))
    fits = Fits(ds, build_balance_matrix(ds))
    calls = Counter()
    for name in ("assemble_transport", "assemble_fusion", "solve_entropy_dual"):
        def counted(*args, _name=name, _original=getattr(solver, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
    errors = {}
    for kind in order:
        view = ds if kind == "CAL_F" else ds.to_transport()
        with pytest.raises(NotConvergedError) as err:
            compute_tau(view, EstimatorKind(kind), fits)
        errors[kind] = err.value
    assert calls == {"assemble_transport": 1, "solve_entropy_dual": 1}
    assert str(errors["CAL_F"]) == ("study-sample half (the transport problem): "
                                    + str(errors["CAL_T"]))
    assert "Farkas certificate" in str(errors["CAL_T"])
    assert errors["CAL_F"].direction is not None
    assert np.array_equal(errors["CAL_F"].direction, errors["CAL_T"].direction)
    assert errors["CAL_F"].worst_constraint == errors["CAL_T"].worst_constraint


def _poor_overlap():
    """A scenario-B replicate whose sampling and transport problems are both
    infeasible."""
    ds = generate(SCENARIOS["B"], 500, derive_seed(1, "B", 500, 0, 0))
    return ds, Fits(ds, build_balance_matrix(ds))


def test_transport_reuses_the_sampling_certificate():
    # AUG_T's sampling solve fails with a Farkas direction d; CAL_T's solve
    # then tests d on each arm before its first step, and d certifies the
    # first arm's block (z=0) before any Newton step.
    ds, fits = _poor_overlap()
    with pytest.raises(NotConvergedError) as sampling:
        compute_tau(ds.to_transport(), EstimatorKind.AUG_T, fits)
    with pytest.raises(NotConvergedError) as transport:
        compute_tau(ds.to_transport(), EstimatorKind.CAL_T, fits)
    d = transport.value.direction
    assert (transport.value.block, transport.value.iterations) == (0, 0)
    assert np.array_equal(d, sampling.value.direction)
    assert "Farkas certificate for block 0 of 2 at iteration 0" in str(transport.value)
    problem = solver.assemble_transport(fits.c, ds.s, ds.z, fits.theta0)
    a, b = problem.blocks[0]
    assert float(b @ d) < -solver.FARKAS_TOL * np.abs(b).sum()
    assert float((a @ d).min()) >= -solver.FARKAS_TOL * np.abs(a).max()
    # worst_constraint is read from the block's gradient at eta = 0 (unit weights).
    grad = b - a.sum(axis=0)
    assert transport.value.worst_constraint == int(np.argmax(np.abs(grad) / (1 + np.abs(b))))


def test_transport_alone_iterates_to_its_certificate(monkeypatch, caplog):
    # With no sampling failure cached, CAL_T finds its own certificate by
    # iterating, and no sampling solve is started for one.
    ds, fits = _poor_overlap()
    calls = Counter()

    def counted(*args, _original=solver.assemble_sampling, **kwargs):
        calls["assemble_sampling"] += 1
        return _original(*args, **kwargs)

    monkeypatch.setattr(solver, "assemble_sampling", counted)
    with caplog.at_level(logging.DEBUG, logger="targetcal.solver"):
        with pytest.raises(NotConvergedError) as err:
            compute_tau(ds.to_transport(), EstimatorKind.CAL_T, fits)
    solves = [r.args for r in caplog.records if r.name == "targetcal.solver"]
    assert not calls
    assert [r["k"] for r in solves] == [2 * fits.c.m]
    assert err.value.direction is not None
    assert err.value.iterations == solves[0]["iterations"] > 0


def test_covariate_constant_on_one_study_arm(monkeypatch):
    # x2 is constant on the study sample's z=0 arm, so that arm's balance
    # matrix is rank deficient though the study sample's is not. Every kind
    # that fits or balances the study arms fails with the one verdict Fits
    # holds for that arm, checked once; the others succeed.
    ds = generate(SCENARIOS["A"], 500, derive_seed(3, "A", 500, 0, 0))
    x = ds.x.copy()
    x[(ds.s == 1) & (ds.z == 0), 1] = 0.5
    ds = Dataset.fusion(ds.s, ds.z, ds.y, x)
    fits = Fits(ds, build_balance_matrix(ds))
    checked = []

    def counted(mat, what="matrix", _original=data.check_full_rank):
        checked.append(what)
        return _original(mat, what)

    for module in (estimators, glm, solver):
        monkeypatch.setattr(module, "check_full_rank", counted)
    failed = {}
    for kind in EstimatorKind:
        try:
            estimate_with_ci(ds, fits, kind=kind)
        except RankDeficientError as exc:
            failed[kind.value] = str(exc)
    assert sorted(failed) == ["AUG_T", "CAL_F", "CAL_T", "GCOMP", "TMLE"]
    verdict = "balance matrix on the study sample arm z=0 is rank deficient"
    for kind, message in failed.items():
        prefix = "study-sample half (the transport problem): " if kind == "CAL_F" else ""
        assert message.startswith(prefix + verdict), kind
    assert checked.count("balance matrix on the study sample arm z=0") == 1
    assert len(checked) == len(set(checked))


def test_cbps_reads_the_study_arm_rank_verdicts(monkeypatch):
    # On a transport view the benchmark cohort is the study sample, whose arm
    # verdicts Fits holds: after CAL_T, CBPS checks no row set again (it
    # used to run two "constraint matrix" checks of its own).
    dt = generate(SCENARIOS["A"], 500, derive_seed(3, "A", 500, 0, 0)).to_transport()
    fits = Fits(dt, build_balance_matrix(dt))
    checked = []

    def counted(mat, what="matrix", _original=data.check_full_rank):
        checked.append(what)
        return _original(mat, what)

    for module in (estimators, glm, solver):
        monkeypatch.setattr(module, "check_full_rank", counted)
    estimate_with_ci(dt, fits, kind=EstimatorKind.CAL_T)
    arms = [f"balance matrix on the study sample arm z={arm}" for arm in (0, 1)]
    assert checked == arms
    estimate_with_ci(dt, fits, kind=EstimatorKind.CBPS)
    assert checked == arms
