import numpy as np
import pytest
from scipy import stats

from targetcal.data import Dataset, build_balance_matrix, target_moments
from targetcal.errors import InvalidLevelError, MissingComponentsError
from targetcal.estimators import (
    EstimatorKind,
    tau_aug_transport,
    tau_cal_fusion,
    tau_cal_transport,
)
from targetcal.inference import (
    calibration_system,
    confidence_interval,
    convert_dual,
    estimate_with_ci,
    influence_variance,
    normal_quantile,
    sandwich_variance_fusion,
    sandwich_variance_transport,
)

from conftest import draw_row_a, random_feasible_transport


class TestNormalQuantile:
    def test_against_scipy_grid(self):
        for p in np.concatenate([
            np.linspace(1e-9, 1e-3, 11),
            np.linspace(0.001, 0.999, 101),
            1.0 - np.linspace(1e-9, 1e-3, 11),
        ]):
            assert normal_quantile(float(p)) == pytest.approx(
                stats.norm.ppf(p), abs=1e-9)

    def test_invalid_argument(self):
        with pytest.raises(InvalidLevelError):
            normal_quantile(0.0)


class TestConfidenceInterval:
    def test_degenerate_interval(self):
        assert confidence_interval(2.5, 0.0, 0.95) == (2.5, 2.5)

    def test_standard_normal_quantile(self):
        low, high = confidence_interval(0.0, 1.0, 0.95)
        assert low == pytest.approx(-1.95996, abs=1e-5)
        assert high == pytest.approx(1.95996, abs=1e-5)

    def test_invalid_level(self):
        with pytest.raises(InvalidLevelError):
            confidence_interval(0.0, 1.0, 1.0)
        with pytest.raises(InvalidLevelError):
            confidence_interval(0.0, -0.1, 0.9)


def fitted_transport(seed=414, n=800):
    ds = draw_row_a(n, np.random.default_rng(seed))
    c = build_balance_matrix(ds)
    theta0 = target_moments(c, ds.s)
    dt = ds.to_transport()
    est = tau_cal_transport(dt, c, theta0)
    gamma, delta = convert_dual(est.nuisance["dual"].eta, c.m)
    nu = np.concatenate([theta0.theta0, gamma, delta, [est.tau_hat]])
    return ds, dt, c, theta0, est, nu


class TestTransportSystem:
    def test_residuals_vanish_at_fit(self):
        _, dt, c, _, _, nu = fitted_transport()
        psi, _ = calibration_system(c.c, dt.s, dt.z, dt.y, nu, groups=(1,))
        assert np.max(np.abs(psi.sum(axis=0))) < 1e-6

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        for trial in range(10):
            ds = random_feasible_transport(rng, n=120, m=3)
            c = build_balance_matrix(ds)
            theta0 = target_moments(c, ds.s)
            m = c.m
            # random parameter point (not necessarily the fit)
            nu = np.concatenate([
                theta0.theta0 + 0.05 * rng.standard_normal(m),
                0.2 * rng.standard_normal(2 * m),
                [rng.standard_normal()],
            ])
            psi, A = calibration_system(c.c, ds.s, ds.z, ds.y, nu, groups=(1,))
            k = len(nu)
            fd = np.zeros((k, k))
            h = 1e-6
            for j in range(k):
                up, dn = nu.copy(), nu.copy()
                up[j] += h
                dn[j] -= h
                fd[:, j] = (
                    calibration_system(c.c, ds.s, ds.z, ds.y, up, groups=(1,))[0].sum(axis=0)
                    - calibration_system(c.c, ds.s, ds.z, ds.y, dn, groups=(1,))[0].sum(axis=0)
                ) / (2 * h)
            assert np.max(np.abs(A - fd) / (1 + np.abs(fd))) < 1e-5

    def test_theta_block_is_minus_n0_identity(self):
        ds, dt, c, _, _, nu = fitted_transport()
        _, A = calibration_system(c.c, dt.s, dt.z, dt.y, nu, groups=(1,))
        m = c.m
        assert np.allclose(A[:m, :m], -ds.n_target * np.eye(m))

    def test_parameterization_conversion_identity(self):
        rng = np.random.default_rng(55)
        for _ in range(5):
            ds = random_feasible_transport(rng, n=100, m=3)
            c = build_balance_matrix(ds)
            theta0 = target_moments(c, ds.s)
            est = tau_cal_transport(ds.to_transport(), c, theta0)
            gamma, delta = convert_dual(est.nuisance["dual"].eta, c.m)
            study = ds.s == 1
            w_app = np.exp(-(c.c @ gamma) - ds.z * (c.c @ delta))[study]
            assert np.max(np.abs(w_app - est.weights_used[study])) < 1e-10

    def test_fusion_conversion_identity(self):
        rng = np.random.default_rng(56)
        for _ in range(5):
            ds = random_feasible_transport(rng, n=160, m=3)
            c = build_balance_matrix(ds)
            theta0 = target_moments(c, ds.s)
            est = tau_cal_fusion(ds, c, theta0)
            m = c.m
            g0, d0 = convert_dual(est.nuisance["dual_target"].eta, m)
            g1, d1 = convert_dual(est.nuisance["dual_study"].eta, m)
            w_joint = (est.nuisance["dual_target"].weights
                       + est.nuisance["dual_study"].weights)
            w_app = np.where(
                ds.s == 1,
                np.exp(-(c.c @ g1) - ds.z * (c.c @ d1)),
                np.exp(-(c.c @ g0) - ds.z * (c.c @ d0)),
            )
            assert np.max(np.abs(w_app - w_joint)) < 1e-10


class TestSandwich:
    def test_transport_report_brackets_truth(self):
        ds, dt, c, theta0, est, _ = fitted_transport()
        report = sandwich_variance_transport(dt, c, est.nuisance["dual"], est.tau_hat)
        assert report.method == "sandwich"
        assert report.se > 0
        assert report.ci_low <= est.tau_hat <= report.ci_high

    def test_covariance_psd(self):
        ds, dt, c, theta0, est, nu = fitted_transport(seed=77)
        psi, A = calibration_system(c.c, dt.s, dt.z, dt.y, nu, groups=(1,))
        bread = np.linalg.solve(A, psi.T)
        cov = bread @ bread.T
        eig = np.linalg.eigvalsh(0.5 * (cov + cov.T))
        assert eig.min() >= -1e-8 * max(eig.max(), 1e-30)
        report = sandwich_variance_transport(dt, c, est.nuisance["dual"], est.tau_hat)
        assert report.se ** 2 == pytest.approx(cov[-1, -1], rel=1e-10)

    def test_unit_order_invariance(self):
        ds, dt, c, theta0, est, _ = fitted_transport(seed=99, n=400)
        base = sandwich_variance_transport(dt, c, est.nuisance["dual"], est.tau_hat).se
        perm = np.random.default_rng(1).permutation(ds.n)
        ds_p = Dataset.fusion(ds.s[perm], ds.z[perm], ds.y[perm], ds.x[perm])
        c_p = build_balance_matrix(ds_p)
        theta_p = target_moments(c_p, ds_p.s)
        dt_p = ds_p.to_transport()
        est_p = tau_cal_transport(dt_p, c_p, theta_p)
        se_p = sandwich_variance_transport(dt_p, c_p, est_p.nuisance["dual"], est_p.tau_hat).se
        assert se_p == pytest.approx(base, rel=1e-8)

    def test_fusion_residuals_and_jacobian(self):
        ds = draw_row_a(600, np.random.default_rng(123))
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        est = tau_cal_fusion(ds, c, theta0)
        m = c.m
        g0, d0 = convert_dual(est.nuisance["dual_target"].eta, m)
        g1, d1 = convert_dual(est.nuisance["dual_study"].eta, m)
        nu = np.concatenate([theta0.theta0, g0, g1, d0, d1, [est.tau_hat]])
        psi, A = calibration_system(c.c, ds.s, ds.z, ds.y, nu, groups=(0, 1))
        assert np.max(np.abs(psi.sum(axis=0))) < 1e-6
        k = len(nu)
        fd = np.zeros((k, k))
        h = 1e-6
        for j in range(k):
            up, dn = nu.copy(), nu.copy()
            up[j] += h
            dn[j] -= h
            fd[:, j] = (
                calibration_system(c.c, ds.s, ds.z, ds.y, up, groups=(0, 1))[0].sum(axis=0)
                - calibration_system(c.c, ds.s, ds.z, ds.y, dn, groups=(0, 1))[0].sum(axis=0)
            ) / (2 * h)
        assert np.max(np.abs(A - fd) / (1 + np.abs(fd))) < 1e-5
        report = sandwich_variance_fusion(
            ds, c, est.nuisance["dual_target"], est.nuisance["dual_study"], est.tau_hat)
        assert report.se > 0
        bread = np.linalg.solve(A, psi.T)
        cov = bread @ bread.T
        eig = np.linalg.eigvalsh(0.5 * (cov + cov.T))
        assert eig.min() >= -1e-8 * max(eig.max(), 1e-30)
        assert report.se ** 2 == pytest.approx(cov[-1, -1], rel=1e-10)


class TestInfluence:
    def test_zero_residual_zero_heterogeneity_gives_zero_se(self):
        n = 80
        rng = np.random.default_rng(40)
        x = rng.standard_normal((n, 1))
        s = np.tile([1, 1, 1, 0], n // 4)
        z = np.tile([1.0, 0.0], n // 2)
        # outcome exactly linear with constant effect: mu fits are exact and
        # the model contrast is constant
        y = 1.0 + 2.0 * x[:, 0] + 3.0 * z
        ds = Dataset.fusion(s, z, y, x)
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        est = tau_aug_transport(ds.to_transport(), c, theta0)
        report = influence_variance(
            EstimatorKind.AUG_T, ds.to_transport(), est.weights_used,
            est.nuisance["pi"], est.nuisance["mu1"], est.nuisance["mu0"], est.tau_hat)
        assert report.se == pytest.approx(0.0, abs=1e-10)

    def test_missing_components_rejected(self):
        ds = draw_row_a(300, np.random.default_rng(9))
        with pytest.raises(MissingComponentsError):
            influence_variance(EstimatorKind.AUG_T, ds, None, None, None, None, 0.0)
        with pytest.raises(MissingComponentsError):
            influence_variance(EstimatorKind.CAL_T, ds, np.ones(300), np.ones(300),
                               np.ones(300), np.ones(300), 0.0)


class TestEstimateWithCi:
    def test_every_kind_produces_interval(self, baseline_balance):
        ds, c, theta0 = baseline_balance
        for kind in EstimatorKind:
            view = ds if kind in (EstimatorKind.AUG_F, EstimatorKind.CAL_F) else ds.to_transport()
            report = estimate_with_ci(view, c, theta0, kind)
            assert np.isfinite(report.se)
            assert report.ci_low <= report.tau_hat <= report.ci_high

    def test_interval_level_monotone(self, baseline_balance):
        ds, c, theta0 = baseline_balance
        narrow = estimate_with_ci(ds.to_transport(), c, theta0, EstimatorKind.CAL_T, level=0.8)
        wide = estimate_with_ci(ds.to_transport(), c, theta0, EstimatorKind.CAL_T, level=0.99)
        assert wide.ci_high - wide.ci_low > narrow.ci_high - narrow.ci_low
