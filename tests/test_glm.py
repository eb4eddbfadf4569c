import warnings

import numpy as np
import pytest

from targetcal import glm, sim
from targetcal.data import build_balance_matrix
from targetcal.errors import (DimensionMismatchError, NonFiniteError, OutOfRangeError,
                              RankDeficientError)
from targetcal.estimators import EstimatorKind, Fits, compute_tau
from targetcal.glm import clip_probability, expit, fit_linear, fit_logistic, logit, predict

import oracles
from conftest import sigmoid
from oracles import expit_two_branch, fit_logistic_irls


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
        fit = fit_logistic(design, y)
        mu = expit(design @ fit.coefficients)
        score = design.T @ (y - mu)
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

    def test_rank_deficient_rejected(self):
        design = np.column_stack([np.ones(10), np.full(10, 2.0)])
        with pytest.raises(RankDeficientError):
            fit_logistic(design, np.full(10, 0.5))

    def test_nan_response_is_a_typed_error(self):
        y = np.full(6, 0.5)
        y[2] = np.nan
        with pytest.raises(NonFiniteError):
            fit_logistic(np.column_stack([np.ones(6), np.arange(6.0)]), y)

    @pytest.mark.parametrize("cell", [np.nan, np.inf])
    def test_non_finite_design_is_a_typed_error(self, cell):
        design = np.column_stack([np.ones(6), np.arange(6.0)])
        design[2, 1] = cell
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="^logistic design column 1"):
                fit_logistic(design, np.full(6, 0.5))

    @pytest.mark.parametrize("cell", [-0.1, 1.5, np.inf, -np.inf])
    def test_response_outside_the_unit_interval_is_a_typed_error(self, cell):
        y = np.full(6, 0.5)
        y[2] = cell
        with pytest.raises(OutOfRangeError):
            fit_logistic(np.column_stack([np.ones(6), np.arange(6.0)]), y)


    def test_offset_of_another_length_is_a_typed_error(self):
        with pytest.raises(DimensionMismatchError, match="offset length"):
            fit_logistic(np.column_stack([np.ones(6), np.arange(6.0)]), np.full(6, 0.5),
                         offset=np.zeros(5))

    @pytest.mark.parametrize("cell", [np.nan, np.inf])
    def test_non_finite_offset_is_a_typed_error(self, cell):
        # Was coefficients [0, 0] with converged=False, and for inf a flood
        # of RuntimeWarnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="offset"):
                fit_logistic(np.column_stack([np.ones(6), np.arange(6.0)]), np.full(6, 0.5),
                             offset=np.full(6, cell))


class TestLinear:
    def test_exact_fit_zero_residuals(self):
        rng = np.random.default_rng(2)
        design = np.column_stack([np.ones(30), rng.standard_normal((30, 2))])
        beta = np.array([1.0, -2.0, 0.5])
        y = design @ beta
        fit = fit_linear(design, y)
        assert np.allclose(predict(fit, design), y, atol=1e-10)

    def test_intercept_only_mean(self):
        y = np.array([1.0, 2.0, 6.0])
        fit = fit_linear(np.ones((3, 1)), y)
        assert fit.coefficients[0] == pytest.approx(3.0)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(4)
        design = np.column_stack([np.ones(80), rng.standard_normal((80, 3))])
        y = rng.standard_normal(80)
        fit = fit_linear(design, y)
        normal = np.linalg.solve(design.T @ design, design.T @ y)
        assert np.max(np.abs(fit.coefficients - normal) / (1 + np.abs(normal))) < 1e-10

    def test_residuals_orthogonal(self):
        rng = np.random.default_rng(6)
        design = np.column_stack([np.ones(60), rng.standard_normal((60, 2))])
        y = rng.standard_normal(60)
        fit = fit_linear(design, y)
        assert np.max(np.abs(design.T @ (y - predict(fit, design)))) < 1e-9

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

    @pytest.mark.parametrize("cell", [np.nan, np.inf])
    def test_non_finite_design_is_a_typed_error(self, cell):
        design = np.column_stack([np.ones(6), np.arange(6.0)])
        design[2, 1] = cell
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="^linear design column 1"):
                fit_linear(design, np.arange(6.0))

    @pytest.mark.parametrize("cell", [np.nan, np.inf])
    def test_non_finite_response_is_a_typed_error(self, cell):
        y = np.arange(6.0)
        y[2] = cell
        with pytest.raises(NonFiniteError):
            fit_linear(np.column_stack([np.ones(6), np.arange(6.0)]), y)


class TestPredict:
    def test_zero_coefficients_logistic(self):
        fit = fit_logistic(np.ones((4, 1)), np.array([1.0, 0.0, 1.0, 0.0]))
        out = predict(fit, np.zeros((3, 1)))
        assert np.allclose(out, 0.5)

    def test_zero_coefficients_linear(self):
        fit = fit_linear(np.ones((4, 1)), np.zeros(4))
        out = predict(fit, np.ones((3, 1)))
        assert np.allclose(out, 0.0)

    def test_dimension_mismatch(self):
        fit = fit_linear(np.ones((4, 1)), np.zeros(4))
        with pytest.raises(DimensionMismatchError):
            predict(fit, np.ones((3, 2)))

    def test_clipping(self):
        from targetcal.glm import GlmFit

        fit = GlmFit(coefficients=np.array([30.0]), family="logistic", converged=True)
        big = predict(fit, np.ones((2, 1)))
        assert np.all(big <= 1 - 1e-6)
        small = predict(fit, -np.ones((2, 1)))
        assert np.all(small >= 1e-6)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def test_expit_matches_two_branch_oracle_bit_for_bit():
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-300, -1e-300,
             36.0, -36.0, 709.0, -709.0, 745.0, -745.0]
    x = np.concatenate([edges, 50.0 * np.random.default_rng(4).standard_normal(10_001)])
    assert np.array_equal(_bits(expit(x)), _bits(expit_two_branch(x)))


def _logistic_cases():
    rng = np.random.default_rng(8)
    n = 300
    design = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    y = (rng.random(n) < sigmoid(design[:, 1])).astype(float)
    yield "plain", design, y, None
    yield "offset", design, rng.uniform(0.05, 0.95, n), 0.5 * rng.standard_normal(n)
    x = np.array([-0.003, -0.002, -0.001, 0.001, 0.002, 0.003])
    yield "separated", np.column_stack([np.ones(6), x]), (x > 0).astype(float), None


@pytest.mark.parametrize("case", list(_logistic_cases()), ids=lambda case: case[0])
def test_fitted_is_the_mean_at_the_coefficients(case):
    # fit_logistic hands each accepted trial's mean on instead of recomputing
    # it, and judges convergence on it; that mean must be the one at the
    # returned coefficients. So the score recomputed there meets the fit's
    # tolerance (1e-9 at this n), and predict gives the same means.
    name, design, y, offset = case
    if name == "separated":
        with pytest.warns(RuntimeWarning, match="separated"):
            fit = fit_logistic(design, y, offset=offset)
        assert fit.separated
    else:
        fit = fit_logistic(design, y, offset=offset)
        assert fit.converged
    lp = design @ fit.coefficients + (0.0 if offset is None else offset)
    if fit.converged:
        assert np.max(np.abs(design.T @ (expit(lp) - y))) <= 1e-9
    if offset is None:
        assert np.array_equal(_bits(predict(fit, design)), _bits(clip_probability(expit(lp))))


def _near_separated(seed):
    """n=200, one covariate, slope 80: a likelihood flat enough that fitted
    means of many units sit beyond the 1e-6 clip."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(200)
    y = (rng.random(200) < expit(80.0 * x)).astype(float)
    return np.column_stack([np.ones(200), x]), y, None


def _tmle_fits(monkeypatch):
    """Every logistic fit TMLE makes (sampling and propensity scores, the two
    fractional initial fits and the offset fluctuation) on one n=300 draw of
    each scenario."""
    seen = []
    fit = glm.fit_logistic

    def record(design, y, offset=None, **kwargs):
        seen.append((design, y, offset))
        return fit(design, y, offset, **kwargs)

    monkeypatch.setattr(glm, "fit_logistic", record)
    for sid in sorted(sim.SCENARIOS):
        ds = sim.generate(sim.SCENARIOS[sid], 300, sim.derive_seed(5, sid, 300, 0, 0))
        compute_tau(ds.to_transport(), EstimatorKind.TMLE, Fits(ds, build_balance_matrix(ds)))
    monkeypatch.undo()
    return seen


def _test_logistic_inputs():
    """The inputs of TestLogistic, in its order."""
    yield np.ones((4, 1)), np.array([1.0, 0.0, 0.0, 0.0]), None
    rng = np.random.default_rng(1)
    y = rng.uniform(0.05, 0.95, 50)
    h = np.column_stack([rng.random(50) + 0.5, rng.random(50) + 0.5])
    h[:25, 1] = 0.0
    h[25:, 0] = 0.0
    yield h, y, logit(y)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((100_000, 4))
    design = np.column_stack([np.ones(100_000), x])
    y = (rng.random(100_000) < sigmoid(design @ np.array([0.0, 0.5, -0.5, 0.5, -0.5])))
    yield design, y.astype(float), None
    rng = np.random.default_rng(3)
    x = rng.standard_normal((400, 2))
    yield (np.column_stack([np.ones(400), x]),
           (rng.random(400) < sigmoid(x[:, 0])).astype(float), None)
    ds = sim.generate(sim.SCENARIOS["D"], 200_000, sim.derive_seed(0, "cli", 200_000, 2))
    yield build_balance_matrix(ds).c, ds.s.astype(float), None
    rng = np.random.default_rng(11)
    design = np.column_stack([np.ones(200), rng.standard_normal(200)])
    yield design, expit(design @ np.array([0.3, 0.8])), None
    x = np.array([-0.003, -0.002, -0.001, 0.001, 0.002, 0.003])
    yield np.column_stack([np.ones(6), x]), np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]), None


def test_driver_matches_the_parent_loop(monkeypatch, record_property):
    # The shared damped-Newton driver against the logistic fit's own former
    # loop (oracles.fit_logistic_irls): same flags, coefficients to 1e-12.
    panel = [*_test_logistic_inputs(), *_tmle_fits(monkeypatch), _near_separated(7)]
    identical = 0
    for i, (design, y, offset) in enumerate(panel):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the separated case
            new = fit_logistic(design, y, offset)
            old = fit_logistic_irls(design, y, offset)
        assert (new.converged, new.separated) == (old.converged, old.separated), i
        np.testing.assert_allclose(new.coefficients, old.coefficients, rtol=1e-12, atol=0,
                                   err_msg=str(i))
        identical += np.array_equal(_bits(new.coefficients), _bits(old.coefficients))
    record_property("bit_identical", identical)
    print(f"logistic panel: {identical} of {len(panel)} fits bit-identical")


@pytest.mark.parametrize("seed", [0, 6])
def test_near_separated_fit_converges(seed):
    # Most fitted means here sit beyond the 1e-6 clip. The objective is the
    # unclipped quasi-likelihood, whose gradient is the score, so Armijo's
    # rule keeps finding descent: on the clipped one, flat past the clip,
    # seed 0 stalls. The former loop stalls at seed 6.
    design, y, _ = _near_separated(seed)
    fit = fit_logistic(design, y)
    assert fit.converged and not fit.separated
    assert np.all(np.abs(design.T @ (y - expit(design @ fit.coefficients))) <= 1e-9)
    assert fit_logistic_irls(design, y).converged == (seed == 0)


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_separation_on_the_last_allowed_iteration(monkeypatch, cap):
    # The second step crosses SEPARATION_NORM here. With the cap at 2 it is
    # the last step allowed, and the fit is still flagged separated, as the
    # former loop flags it.
    x = np.array([-0.003, -0.002, -0.001, 0.001, 0.002, 0.003])
    design, y = np.column_stack([np.ones(6), x]), (x > 0).astype(float)
    monkeypatch.setattr(glm, "MAX_IRLS_ITER", cap)
    monkeypatch.setattr(oracles, "MAX_IRLS_ITER", cap)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        new, old = fit_logistic(design, y), fit_logistic_irls(design, y)
    assert (new.converged, new.separated) == (old.converged, old.separated) == (False, cap >= 2)
    assert np.array_equal(_bits(new.coefficients), _bits(old.coefficients))


@pytest.mark.parametrize("fit, what", [(fit_logistic, "logistic design"),
                                       (fit_linear, "linear design")])
@pytest.mark.parametrize("rank_check", [None, lambda: None])
def test_one_dimensional_design_is_a_typed_error(fit, what, rank_check):
    # Judged before the shape is read, whether or not the fit checks the rank.
    with pytest.raises(DimensionMismatchError,
                       match=f"^{what} must be two-dimensional, not 1-dimensional$"):
        fit(np.arange(6.0), np.full(6, 0.5), rank_check=rank_check)


@pytest.mark.parametrize("fit", [fit_logistic, fit_linear])
@pytest.mark.parametrize("length", [5, 7])
def test_response_of_another_length_is_a_typed_error(fit, length):
    with pytest.raises(DimensionMismatchError, match="^response length does not match design$"):
        fit(np.column_stack([np.ones(6), np.arange(6.0)]), np.full(length, 0.5))


@pytest.mark.parametrize("fit, what", [(fit_logistic, "logistic design"),
                                       (fit_linear, "linear design")])
@pytest.mark.parametrize("rank_check", [None, lambda: None])
def test_zero_column_design_is_a_typed_error(fit, what, rank_check):
    # Judged before the rank check, whose empty list of singular values has
    # no last entry, and whether or not the fit checks the rank.
    with pytest.raises(DimensionMismatchError, match=f"^{what} has no columns$"):
        fit(np.empty((5, 0)), np.full(5, 0.5), rank_check=rank_check)
