import math
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from scipy import stats

from targetcal.data import Dataset, build_balance_matrix, target_moments
from targetcal.errors import InvalidLevelError, MissingComponentsError, NonFiniteError
from targetcal.estimators import (
    FUSION_ONLY,
    EstimatorKind,
    Fits,
    compute_tau,
    tau_cal_fusion,
    tau_cal_transport,
)
from targetcal.inference import (
    CalibrationSystem,
    confidence_interval,
    descriptive_variance,
    estimate_with_ci,
    influence_variance,
    sandwich_variance_fusion,
    sandwich_variance_transport,
)
from targetcal.sim import SCENARIOS, derive_seed, generate
from targetcal.solver import assemble_fusion, assemble_transport

from conftest import (
    draw_row_a,
    jacobian,
    random_feasible_transport,
    residual_matrix,
    stacked_system,
)
from oracles import sandwich_se_full_psi


class TestConfidenceInterval:
    def test_half_width_against_scipy_grid(self):
        for p in np.concatenate([np.linspace(1e-9, 1e-3, 11), np.linspace(0.001, 0.499, 51)]):
            level = 1.0 - 2.0 * float(p)
            low, high = confidence_interval(0.0, 1.0, level)
            assert high == pytest.approx(stats.norm.ppf(0.5 + level / 2.0), abs=1e-9)
            assert low == -high

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
        # Otherwise the interval would be (nan, nan) or (-inf, inf), silently.
        for se in (np.nan, np.inf):
            with pytest.raises(InvalidLevelError, match="finite and nonnegative"):
                confidence_interval(0.0, se, 0.95)


def fitted_transport(seed=414, n=800):
    ds = draw_row_a(n, np.random.default_rng(seed))
    c = build_balance_matrix(ds)
    theta0 = target_moments(c, ds.s)
    dt = ds.to_transport()
    fits = Fits(dt, c)
    est = tau_cal_transport(dt, fits)
    nu = np.concatenate([theta0, fits.transport.eta, [est.tau_hat]])
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


class TestSolverDuals:
    """The system is the solver's own assembly at the fitted duals: the same
    weights, and as dual Jacobian blocks minus the solver's Hessian blocks,
    one (group, arm) block per block of the solver's problem."""

    @staticmethod
    def _check(system, duals, problems):
        A = jacobian(system)
        psi_sum = residual_matrix(system).sum(axis=0)
        for j, (dual, problem) in enumerate(zip(duals, problems)):
            start = 0
            for arm, (a, b) in enumerate(problem.blocks):
                _, own_rows, block, _, weights, _ = system.blocks[2 * j + arm]
                rows, start = problem.active_rows[start:start + len(a)], start + len(a)
                # The arm's weights exist on the solver's rows of that arm alone.
                assert np.array_equal(np.flatnonzero(own_rows), rows)
                assert np.max(np.abs(weights - dual.weights[rows])) < 1e-10
                # The block sums to minus the solver's gradient b - a'w ...
                gradient = b - a.T @ dual.weights[rows]
                assert np.max(np.abs(psi_sum[block] + gradient)) < 1e-9 * np.max(np.abs(b))
                # ... and its Jacobian is minus the solver's Hessian block (a w)'a.
                hessian = (a * dual.weights[rows, None]).T @ a
                assert np.max(np.abs(A[block, block] + hessian)) <= 1e-12 * np.max(np.abs(hessian))

    def test_transport(self):
        rng = np.random.default_rng(55)
        for _ in range(5):
            ds = random_feasible_transport(rng, n=100, m=3)
            c = build_balance_matrix(ds)
            dt = ds.to_transport()
            fits = Fits(dt, c)
            est = tau_cal_transport(dt, fits)
            nu = np.concatenate([fits.theta0, fits.transport.eta, [est.tau_hat]])
            system = CalibrationSystem(c.c, dt.s, dt.z, dt.y, nu, (1,))
            self._check(system, (fits.transport,),
                        (assemble_transport(c, dt.s, dt.z, fits.theta0),))

    def test_fusion(self):
        rng = np.random.default_rng(56)
        for _ in range(5):
            ds = random_feasible_transport(rng, n=160, m=3)
            c = build_balance_matrix(ds)
            fits = Fits(ds, c)
            est = tau_cal_fusion(ds, fits)
            nu = np.concatenate([fits.theta0, *(d.eta for d in fits.fusion), [est.tau_hat]])
            system = CalibrationSystem(c.c, ds.s, ds.z, ds.y, nu, (0, 1))
            self._check(system, fits.fusion,
                        (assemble_fusion(c, ds.s, ds.z, fits.theta0),
                         assemble_transport(c, ds.s, ds.z, fits.theta0)))


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
        sol_target, sol_study = fits.fusion
        nu = np.concatenate([theta0, sol_target.eta, sol_study.eta, [est.tau_hat]])
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

    # The SE from the residual products psi_dot(x) against the one from the
    # whole (gamma, delta) residual matrix in one product, which differs from
    # it only in the last bits. ``block`` enters no SE; it only names a draw.
    @pytest.mark.parametrize("seed, n, block", [(414, 1500, 512), (1, 1500, 256),
                                                (3, 3000, 256), (5, 1500, 512),
                                                (5, 3000, 512)])
    def test_blocks_match_whole_residual_matrix(self, seed, n, block):
        ds = draw_row_a(n, np.random.default_rng(seed))
        c = build_balance_matrix(ds)
        dt = ds.to_transport()
        fits_t, fits_f = Fits(dt, c), Fits(ds, c)
        cal_t = tau_cal_transport(dt, fits_t)
        cal_f = tau_cal_fusion(ds, fits_f)
        got = (sandwich_variance_transport(dt, fits_t, cal_t),
               sandwich_variance_fusion(ds, fits_f, cal_f))
        reference = (sandwich_se_full_psi(dt, fits_t, (fits_t.transport,), (1,), cal_t.tau_hat),
                     sandwich_se_full_psi(ds, fits_f, fits_f.fusion, (0, 1), cal_f.tau_hat))
        assert got == pytest.approx(reference, rel=1e-12)

    def test_out_of_group_exponent_past_overflow(self):
        # One study unit far out on x1: under the target half's dual its
        # exponent is far past exp's overflow at 709. Each group's weights
        # are computed on its own rows only, so that exponent never forms
        # and the CAL_F sandwich stays finite.
        ds = generate(SCENARIOS["A"], 300, derive_seed(3, "A", 300, 0, 0))
        unit = int(np.flatnonzero(ds.s == 1)[0])
        x = ds.x.copy()
        x[unit, 0] = 2500.0
        ds = Dataset.fusion(ds.s, ds.z, ds.y, x)
        fits = Fits(ds, build_balance_matrix(ds))
        report = estimate_with_ci(ds, fits, kind=EstimatorKind.CAL_F)
        target, _ = fits.fusion
        arm = int(ds.z[unit])
        assert -(fits.c.c[unit] @ target.eta[arm * fits.c.m:(arm + 1) * fits.c.m]) > 709.0
        assert math.isfinite(report.tau_hat) and math.isfinite(report.se) and report.se > 0


class TestIllConditionedSandwich:
    """Inputs whose stacked Jacobian has condition number 1.7e12 to 1.1e17
    still give a well-determined se: the back-substitution solves one arm
    Hessian at a time, and a change of units moves the se as it should."""

    @pytest.fixture(scope="class")
    def draw(self):
        return generate(SCENARIOS["A"], 500, derive_seed(3, "A", 500, 0, 0))

    @staticmethod
    def _se(ds, kind, x=None, y=None):
        ds = Dataset.fusion(ds.s, ds.z, ds.y if y is None else y, ds.x if x is None else x)
        view = ds if kind == "CAL_F" else ds.to_transport()
        fits = Fits(view, build_balance_matrix(view))
        return estimate_with_ci(view, fits, kind=EstimatorKind[kind]).se

    @pytest.mark.parametrize("kind", ["CAL_T", "CAL_F"])
    def test_changes_of_units(self, draw, kind):
        base = self._se(draw, kind)
        scaled, shifted = draw.x.copy(), draw.x.copy()
        scaled[:, 0] *= 1e8
        shifted[:, 0] += 1e3
        assert self._se(draw, kind, x=scaled) == pytest.approx(base, rel=1e-12)
        assert self._se(draw, kind, y=draw.y * 1e6) == pytest.approx(1e6 * base, rel=1e-12)
        # The offset cancels in c_i - theta0, which costs about 3e-10.
        assert self._se(draw, kind, x=shifted) == pytest.approx(base, rel=1e-9)

    @pytest.mark.parametrize("kind", ["CAL_T", "CAL_F"])
    def test_near_collinear_columns(self, draw, kind):
        x = draw.x.copy()
        x[:, 1] = x[:, 0] + 1e-7 * np.random.default_rng(0).standard_normal(draw.n)
        se = self._se(draw, kind, x=x)
        assert math.isfinite(se) and se > 0


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

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    def test_gcomp_se_is_the_hc0_delta_method(self, shift):
        # GCOMP's influence terms give the HC0 delta method, written out:
        # per arm theta0' (X'X)^-1 X' diag(r^2) X (X'X)^-1 theta0 = sum (h r)^2
        # with X' h = theta0 (min-norm h), plus the target contrast's variance.
        ds = generate(SCENARIOS["A"], 500, derive_seed(3, "A", 500, 0, 0))
        x = ds.x.copy()
        x[:, 0] += shift
        dt = Dataset.fusion(ds.s, ds.z, ds.y, x).to_transport()
        fits = Fits(dt, build_balance_matrix(dt))
        est = estimate_with_ci(dt, fits, kind=EstimatorKind.GCOMP)
        study, target = dt.s == 1, dt.s == 0
        models, mu0, mu1 = fits.outcome(1)
        var = np.sum((mu1[target] - mu0[target] - est.tau_hat) ** 2) / dt.n_target ** 2
        for arm in (0, 1):
            arm_rows = study & (dt.z == arm)
            design = fits.c.c[arm_rows]
            resid = dt.y[arm_rows] - design @ models[arm].coefficients
            h = np.linalg.lstsq(design.T, fits.theta0, rcond=None)[0]
            var += np.sum((h * resid) ** 2)
        assert est.method == "influence"
        assert est.se == pytest.approx(math.sqrt(var), rel=1e-12)

    @pytest.mark.parametrize("kind", ["GCOMP", "TMLE"])
    def test_descriptive_variance_rejects_outcome_model_kinds(self, kind):
        dt = draw_row_a(300, np.random.default_rng(9)).to_transport()
        fits = Fits(dt, build_balance_matrix(dt))
        est = compute_tau(dt, EstimatorKind[kind], fits)
        with pytest.raises(MissingComponentsError):
            descriptive_variance(dt, fits, est)


class TestDescriptive:
    def test_unadjusted_is_the_welch_variance(self, baseline_balance):
        # UNADJ goes through the weighted Welch formula with unit weights,
        # and keeps no weights of its own (results.csv reads NaN ess for it).
        ds, c = baseline_balance
        dt = ds.to_transport()
        fits = Fits(dt, c)
        est = compute_tau(dt, EstimatorKind.UNADJ, fits)
        assert est.weights_used is None
        z, y = est.nuisance["z"], est.nuisance["y"]
        y1, y0 = y[z == 1], y[z == 0]
        welch = math.sqrt(y1.var(ddof=1) / len(y1) + y0.var(ddof=1) / len(y0))
        assert descriptive_variance(dt, fits, est) == pytest.approx(welch, rel=1e-15)

    def test_gcomp_se_ignores_a_shifted_covariate(self):
        # The HC0 delta method is the same number in any units of x1; formed
        # through inv(X'X) it moved from 0.370 to 0.672 at a shift of 1e6.
        ds = generate(SCENARIOS["A"], 500, derive_seed(3, "A", 500, 0, 0))

        def gcomp_se(shift):
            x = ds.x.copy()
            x[:, 0] += shift
            dt = Dataset.fusion(ds.s, ds.z, ds.y, x).to_transport()
            return estimate_with_ci(dt, Fits(dt, build_balance_matrix(dt)),
                                    kind=EstimatorKind.GCOMP).se

        base = gcomp_se(0.0)
        assert [gcomp_se(1e3), gcomp_se(1e6)] == pytest.approx([base, base], rel=1e-4)


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


class TestNonFinite:
    """One target-sample outcome of 1e300 overflows the Welch and influence
    squares and the CAL_F sandwich. The kinds that read it raise
    NonFiniteError without a warning; the kinds that read only the study
    sample keep their bits."""

    @pytest.fixture(scope="class")
    def draws(self):
        ds = generate(SCENARIOS["A"], 500, derive_seed(3, "A", 500, 0, 0))
        y = ds.y.copy()
        y[np.flatnonzero(ds.s == 0)[0]] = 1e300
        return ds, Dataset.fusion(ds.s, ds.z, y, ds.x)

    @pytest.mark.parametrize("kind", ["AUG_F", "UNADJ", "CBPS"])
    def test_typed_error(self, draws, kind):
        _, hostile = draws
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=f"^{kind} estimate is not finite"):
                estimate_with_ci(hostile, Fits(hostile, build_balance_matrix(hostile)),
                                 kind=EstimatorKind[kind])

    def test_other_kinds_unchanged(self, draws):
        ds, hostile = draws
        fits = Fits(hostile, build_balance_matrix(hostile))
        clean = Fits(ds, build_balance_matrix(ds))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="^CAL_F estimate is not finite"):
                estimate_with_ci(hostile, fits, kind=EstimatorKind.CAL_F)
            for kind in ("GCOMP", "TMLE", "AUG_T", "CAL_T"):
                got = estimate_with_ci(hostile, fits, kind=EstimatorKind[kind])
                want = estimate_with_ci(ds, clean, kind=EstimatorKind[kind])
                assert (got.tau_hat.hex(), got.se.hex()) == (want.tau_hat.hex(), want.se.hex())


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
