from statistics import NormalDist

import numpy as np
import pytest
from scipy import stats

from targetcal import data
from targetcal.data import Dataset, build_balance_matrix, target_moments
from targetcal.errors import InvalidLevelError, MissingComponentsError
from targetcal.estimators import (
    FUSION_ONLY,
    EstimatorKind,
    Fits,
    compute_tau,
    tau_cal_fusion,
    tau_cal_transport,
)
from targetcal.inference import (
    confidence_interval,
    convert_dual,
    estimate_with_ci,
    influence_variance,
    normal_quantile,
    sandwich_variance_fusion,
    sandwich_variance_transport,
)

from conftest import draw_row_a, random_feasible_transport, stacked_system
from oracles import sandwich_se_full_psi


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
    fits = Fits(dt, c)
    est = tau_cal_transport(dt, fits)
    gamma, delta = convert_dual(est.nuisance["dual"].eta, c.m)
    nu = np.concatenate([theta0, gamma, delta, [est.tau_hat]])
    return ds, dt, c, fits, est, nu


class TestTransportSystem:
    def test_residuals_vanish_at_fit(self):
        _, dt, c, _, _, nu = fitted_transport()
        psi, _ = stacked_system(c.c, dt.s, dt.z, dt.y, nu, groups=(1,))
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
                theta0 + 0.05 * rng.standard_normal(m),
                0.2 * rng.standard_normal(2 * m),
                [rng.standard_normal()],
            ])
            psi, A = stacked_system(c.c, ds.s, ds.z, ds.y, nu, groups=(1,))
            k = len(nu)
            fd = np.zeros((k, k))
            h = 1e-6
            for j in range(k):
                up, dn = nu.copy(), nu.copy()
                up[j] += h
                dn[j] -= h
                fd[:, j] = (
                    stacked_system(c.c, ds.s, ds.z, ds.y, up, groups=(1,))[0].sum(axis=0)
                    - stacked_system(c.c, ds.s, ds.z, ds.y, dn, groups=(1,))[0].sum(axis=0)
                ) / (2 * h)
            assert np.max(np.abs(A - fd) / (1 + np.abs(fd))) < 1e-5

    def test_theta_block_is_minus_n0_identity(self):
        ds, dt, c, _, _, nu = fitted_transport()
        _, A = stacked_system(c.c, dt.s, dt.z, dt.y, nu, groups=(1,))
        m = c.m
        assert np.allclose(A[:m, :m], -ds.n_target * np.eye(m))

    def test_parameterization_conversion_identity(self):
        rng = np.random.default_rng(55)
        for _ in range(5):
            ds = random_feasible_transport(rng, n=100, m=3)
            c = build_balance_matrix(ds)
            theta0 = target_moments(c, ds.s)
            dt = ds.to_transport()
            est = tau_cal_transport(dt, Fits(dt, c))
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
            est = tau_cal_fusion(ds, Fits(ds, c))
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
        ds, dt, c, fits, est, _ = fitted_transport()
        report = estimate_with_ci(dt, fits, kind=EstimatorKind.CAL_T)
        assert report.method == "sandwich"
        assert report.se == sandwich_variance_transport(dt, fits, est) > 0
        assert report.ci_low <= est.tau_hat <= report.ci_high

    def test_covariance_psd(self):
        ds, dt, c, fits, est, nu = fitted_transport(seed=77)
        psi, A = stacked_system(c.c, dt.s, dt.z, dt.y, nu, groups=(1,))
        bread = np.linalg.solve(A, psi.T)
        cov = bread @ bread.T
        eig = np.linalg.eigvalsh(0.5 * (cov + cov.T))
        assert eig.min() >= -1e-8 * max(eig.max(), 1e-30)
        se = sandwich_variance_transport(dt, fits, est)
        assert se ** 2 == pytest.approx(cov[-1, -1], rel=1e-10)

    def test_unit_order_invariance(self):
        ds, dt, c, fits, est, _ = fitted_transport(seed=99, n=400)
        base = sandwich_variance_transport(dt, fits, est)
        perm = np.random.default_rng(1).permutation(ds.n)
        ds_p = Dataset.fusion(ds.s[perm], ds.z[perm], ds.y[perm], ds.x[perm])
        c_p = build_balance_matrix(ds_p)
        dt_p = ds_p.to_transport()
        fits_p = Fits(dt_p, c_p)
        est_p = tau_cal_transport(dt_p, fits_p)
        se_p = sandwich_variance_transport(dt_p, fits_p, est_p)
        assert se_p == pytest.approx(base, rel=1e-8)

    def test_fusion_residuals_and_jacobian(self):
        ds = draw_row_a(600, np.random.default_rng(123))
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        fits = Fits(ds, c)
        est = tau_cal_fusion(ds, fits)
        m = c.m
        g0, d0 = convert_dual(est.nuisance["dual_target"].eta, m)
        g1, d1 = convert_dual(est.nuisance["dual_study"].eta, m)
        nu = np.concatenate([theta0, g0, g1, d0, d1, [est.tau_hat]])
        psi, A = stacked_system(c.c, ds.s, ds.z, ds.y, nu, groups=(0, 1))
        assert np.max(np.abs(psi.sum(axis=0))) < 1e-6
        k = len(nu)
        fd = np.zeros((k, k))
        h = 1e-6
        for j in range(k):
            up, dn = nu.copy(), nu.copy()
            up[j] += h
            dn[j] -= h
            fd[:, j] = (
                stacked_system(c.c, ds.s, ds.z, ds.y, up, groups=(0, 1))[0].sum(axis=0)
                - stacked_system(c.c, ds.s, ds.z, ds.y, dn, groups=(0, 1))[0].sum(axis=0)
            ) / (2 * h)
        assert np.max(np.abs(A - fd) / (1 + np.abs(fd))) < 1e-5
        se = sandwich_variance_fusion(ds, fits, est)
        assert se > 0
        bread = np.linalg.solve(A, psi.T)
        cov = bread @ bread.T
        eig = np.linalg.eigvalsh(0.5 * (cov + cov.T))
        assert eig.min() >= -1e-8 * max(eig.max(), 1e-30)
        assert se ** 2 == pytest.approx(cov[-1, -1], rel=1e-10)

    # Every draw spans at least three blocks, the last one short. On all but
    # the first, summing each block's squares apart changes the last bit of
    # the transport or the fusion SE.
    @pytest.mark.parametrize("seed, n, block", [(414, 1500, 512), (1, 1500, 256),
                                                (3, 3000, 256), (5, 1500, 512),
                                                (5, 3000, 512)])
    def test_blocks_match_whole_residual_matrix(self, monkeypatch, seed, n, block):
        ds = draw_row_a(n, np.random.default_rng(seed))
        c = build_balance_matrix(ds)
        dt = ds.to_transport()
        fits_t, fits_f = Fits(dt, c), Fits(ds, c)
        cal_t = tau_cal_transport(dt, fits_t)
        cal_f = tau_cal_fusion(ds, fits_f)
        want = (sandwich_se_full_psi(dt, fits_t, (fits_t.transport,), (1,), cal_t.tau_hat),
                sandwich_se_full_psi(ds, fits_f, fits_f.fusion, (0, 1), cal_f.tau_hat))
        monkeypatch.setattr(data, "BLOCK_ROWS", block)
        got = (sandwich_variance_transport(dt, fits_t, cal_t),
               sandwich_variance_fusion(ds, fits_f, cal_f))
        assert [se.hex() for se in got] == [se.hex() for se in want]


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
        dt = ds.to_transport()
        fits = Fits(dt, c)
        est = compute_tau(dt, EstimatorKind.AUG_T, fits)
        assert influence_variance(dt, fits, est) == pytest.approx(0.0, abs=1e-10)

    def test_missing_components_rejected(self):
        dt = draw_row_a(300, np.random.default_rng(9)).to_transport()
        fits = Fits(dt, build_balance_matrix(dt))
        est = compute_tau(dt, EstimatorKind.CAL_T, fits)
        with pytest.raises(MissingComponentsError):
            influence_variance(dt, fits, est)


class TestEstimateWithCi:
    @pytest.mark.parametrize("level", [0.90, 0.95])
    def test_every_kind_produces_interval(self, baseline_balance, level):
        # One interval path for every kind: the SE is the one at the default
        # level, and the half-width is the normal quantile times the SE.
        ds, c = baseline_balance
        zq = NormalDist().inv_cdf(0.5 + level / 2)
        for kind in EstimatorKind:
            view = ds if kind in FUSION_ONLY else ds.to_transport()
            report = estimate_with_ci(view, Fits(view, c), kind=kind, level=level)
            default = estimate_with_ci(view, Fits(view, c), kind=kind)
            assert np.isfinite(report.se)
            assert report.se == default.se
            assert report.ci_low <= report.tau_hat <= report.ci_high
            assert report.ci_low == report.tau_hat - zq * report.se
            assert report.ci_high == report.tau_hat + zq * report.se

    def test_interval_level_monotone(self, baseline_balance):
        ds, c = baseline_balance
        dt = ds.to_transport()
        narrow = estimate_with_ci(dt, Fits(dt, c), kind=EstimatorKind.CAL_T, level=0.8)
        wide = estimate_with_ci(dt, Fits(dt, c), kind=EstimatorKind.CAL_T, level=0.99)
        assert wide.ci_high - wide.ci_low > narrow.ci_high - narrow.ci_low


class TestSharedFits:
    """One Fits shared by every kind gives the same bits as a fresh Fits per
    kind, whatever order the kinds run in and whichever view the Fits was
    built on."""

    def _bits(self, view, c, kinds, fits=None):
        out = {}
        for kind in kinds:
            report = estimate_with_ci(view, Fits(view, c) if fits is None else fits, kind=kind)
            out[kind] = (report.tau_hat.hex(), report.se.hex())
        return out

    def test_same_bits_as_fresh_fits(self, baseline_balance):
        ds, c = baseline_balance
        dt = ds.to_transport()
        transport_kinds = [k for k in EstimatorKind if k not in FUSION_ONLY]
        cases = [(ds, ds, list(EstimatorKind)), (dt, dt, transport_kinds),
                 (dt, ds, transport_kinds)]  # the last: a fusion Fits serving its view
        for view, built_on, kinds in cases:
            fresh = self._bits(view, c, kinds)
            for order in (kinds, kinds[::-1]):
                shared = Fits(built_on, c)
                assert self._bits(view, c, order, fits=shared) == fresh
