import numpy as np
import pytest

from targetcal import sim
from targetcal.data import build_balance_matrix
from targetcal.errors import DimensionMismatchError, RankDeficientError
from targetcal.glm import expit, fit_linear, fit_logistic, logit, predict

from conftest import sigmoid


class TestLogistic:
    def test_intercept_only_closed_form(self):
        y = np.array([1.0, 0.0, 0.0, 0.0])
        fit = fit_logistic(np.ones((4, 1)), y)
        assert fit.coefficients[0] == pytest.approx(np.log(0.25 / 0.75), abs=1e-8)

    def test_perfect_offset_gives_zero_fluctuation(self):
        rng = np.random.default_rng(1)
        y = rng.uniform(0.05, 0.95, 50)
        offset = logit(y)
        h = np.column_stack([rng.random(50) + 0.5, rng.random(50) + 0.5])
        h[:25, 1] = 0.0
        h[25:, 0] = 0.0
        fit = fit_logistic(h, y, offset=offset)
        assert np.allclose(fit.coefficients, 0.0, atol=1e-9)

    def test_coefficient_recovery(self):
        rng = np.random.default_rng(7)
        n = 100_000
        x = rng.standard_normal((n, 4))
        design = np.column_stack([np.ones(n), x])
        beta = np.array([0.0, 0.5, -0.5, 0.5, -0.5])
        y = (rng.random(n) < sigmoid(design @ beta)).astype(float)
        fit = fit_logistic(design, y)
        assert np.max(np.abs(fit.coefficients - beta)) < 0.02

    def test_score_equations_near_zero(self):
        rng = np.random.default_rng(3)
        n = 400
        x = rng.standard_normal((n, 2))
        design = np.column_stack([np.ones(n), x])
        y = (rng.random(n) < sigmoid(x[:, 0])).astype(float)
        w = rng.random(n) + 0.5
        fit = fit_logistic(design, y, weights=w)
        mu = expit(design @ fit.coefficients)
        score = design.T @ (w * (y - mu))
        assert np.max(np.abs(score)) <= 1e-8

    def test_large_n_sampling_score_converges(self):
        # At n = 200k float rounding of the score sum sits above 1e-9.
        ds = sim.generate(sim.SCENARIOS["D"], 200_000,
                          sim.derive_seed(0, "cli", 200_000, 2))
        fit = fit_logistic(build_balance_matrix(ds).c, ds.s)
        assert fit.converged

    def test_fractional_responses(self):
        rng = np.random.default_rng(11)
        n = 200
        design = np.column_stack([np.ones(n), rng.standard_normal(n)])
        y = expit(design @ np.array([0.3, 0.8]))
        fit = fit_logistic(design, y)
        assert np.allclose(fit.coefficients, [0.3, 0.8], atol=1e-6)

    def test_separation_flagged(self):
        # perfectly separated at a tiny covariate scale, so the coefficient
        # genuinely diverges instead of the score vanishing numerically
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        x = np.array([-0.003, -0.002, -0.001, 0.001, 0.002, 0.003])
        design = np.column_stack([np.ones(6), x])
        with pytest.warns(RuntimeWarning):
            fit = fit_logistic(design, y)
        assert fit.separated
        assert not fit.converged

    def test_equal_weights_match_unweighted(self):
        rng = np.random.default_rng(5)
        n = 300
        design = np.column_stack([np.ones(n), rng.standard_normal(n)])
        y = (rng.random(n) < 0.4).astype(float)
        fit1 = fit_logistic(design, y)
        fit2 = fit_logistic(design, y, weights=np.full(n, 2.5))
        assert np.allclose(fit1.coefficients, fit2.coefficients, atol=1e-8)


class TestLinear:
    def test_exact_fit_zero_residuals(self):
        rng = np.random.default_rng(2)
        design = np.column_stack([np.ones(30), rng.standard_normal((30, 2))])
        beta = np.array([1.0, -2.0, 0.5])
        y = design @ beta
        fit = fit_linear(design, y)
        assert np.allclose(fit.fitted, y, atol=1e-10)

    def test_intercept_only_mean(self):
        y = np.array([1.0, 2.0, 6.0])
        fit = fit_linear(np.ones((3, 1)), y)
        assert fit.coefficients[0] == pytest.approx(3.0)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(4)
        design = np.column_stack([np.ones(80), rng.standard_normal((80, 3))])
        y = rng.standard_normal(80)
        w = rng.random(80) + 0.2
        fit = fit_linear(design, y, weights=w)
        normal = np.linalg.solve(design.T @ (design * w[:, None]), design.T @ (w * y))
        assert np.max(np.abs(fit.coefficients - normal) / (1 + np.abs(normal))) < 1e-10

    def test_residuals_orthogonal(self):
        rng = np.random.default_rng(6)
        design = np.column_stack([np.ones(60), rng.standard_normal((60, 2))])
        y = rng.standard_normal(60)
        fit = fit_linear(design, y)
        assert np.max(np.abs(design.T @ (y - fit.fitted))) < 1e-9

    def test_outcome_regression_recovery(self):
        rng = np.random.default_rng(8)
        n = 100_000
        x = rng.standard_normal((n, 4))
        z = (rng.random(n) < 0.5).astype(float)
        mu0 = 2 - 3 * x[:, 0] - x[:, 1] + x[:, 2] + 3 * x[:, 3]
        tilt = -2 - x[:, 0] + 3 * x[:, 1] - 3 * x[:, 2] + x[:, 3]
        y = mu0 + z * tilt + rng.standard_normal(n)
        design = np.column_stack([np.ones(n), x, z[:, None], z[:, None] * x])
        fit = fit_linear(design, y)
        truth = np.array([2, -3, -1, 1, 3, -2, -1, 3, -3, 1], dtype=float)
        assert np.max(np.abs(fit.coefficients - truth)) < 0.05

    def test_rank_deficient_rejected(self):
        design = np.column_stack([np.ones(10), np.ones(10)])
        with pytest.raises(RankDeficientError):
            fit_linear(design, np.zeros(10))


class TestPredict:
    def test_zero_coefficients_logistic(self):
        fit = fit_logistic(np.ones((4, 1)), np.array([1.0, 0.0, 1.0, 0.0]))
        out = predict(fit, np.zeros((3, 1)))
        assert np.allclose(out, 0.5)

    def test_zero_coefficients_linear(self):
        fit = fit_linear(np.ones((4, 1)), np.zeros(4))
        out = predict(fit, np.ones((3, 1)))
        assert np.allclose(out, 0.0)

    def test_round_trip_matches_stored_fitted(self):
        rng = np.random.default_rng(10)
        design = np.column_stack([np.ones(120), rng.standard_normal((120, 2))])
        y = (rng.random(120) < 0.5).astype(float)
        fit = fit_logistic(design, y)
        assert np.max(np.abs(predict(fit, design) - fit.fitted)) < 1e-12

    def test_dimension_mismatch(self):
        fit = fit_linear(np.ones((4, 1)), np.zeros(4))
        with pytest.raises(DimensionMismatchError):
            predict(fit, np.ones((3, 2)))

    def test_clipping(self):
        from targetcal.glm import GlmFit

        fit = GlmFit(coefficients=np.array([30.0]), family="logistic",
                     converged=True, fitted=np.array([]))
        big = predict(fit, np.ones((2, 1)))
        assert np.all(big <= 1 - 1e-6)
        small = predict(fit, -np.ones((2, 1)))
        assert np.all(small >= 1e-6)
