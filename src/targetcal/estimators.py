"""Target-population average treatment effect estimators: unadjusted,
G-computation, TMLE, augmented (transport and fusion), full-calibration
Hajek contrasts (transport and fusion), and the within-cohort benchmark.

Every estimator is a function of (dataset, fits): ``Fits`` holds one
dataset's balance matrix and target moments, and its nuisance fits and
calibration solves, each computed on first use, so estimators run on the
same dataset share them.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import glm, solver
from .data import BalanceMatrix, Dataset, target_moments
from .errors import DegenerateOutcomeError, EmptyArmError, ModeError, TargetcalError


class EstimatorKind(enum.Enum):
    UNADJ = "UNADJ"
    GCOMP = "GCOMP"
    TMLE = "TMLE"
    AUG_T = "AUG_T"
    AUG_F = "AUG_F"
    CAL_T = "CAL_T"
    CAL_F = "CAL_F"
    CBPS = "CBPS"


FUSION_ONLY = {EstimatorKind.AUG_F, EstimatorKind.CAL_F}


@dataclass
class TauEstimate:
    """A point estimate. ``estimate_with_ci`` fills in its standard error,
    interval and variance method; NaN and None mean not estimated."""

    tau_hat: float
    kind: EstimatorKind | None = None
    weights_used: np.ndarray | None = None
    nuisance: dict = field(default_factory=dict)
    se: float = float("nan")
    ci_low: float = float("nan")
    ci_high: float = float("nan")
    method: str | None = None


def _outcome_models(dataset: Dataset, c: BalanceMatrix, sample: int) -> tuple:
    """Main-terms linear fits of y on the balance columns, one per arm of the
    sample s == ``sample``: (models, mu0, mu1), mu predicted on every unit."""
    rows = dataset.s == sample
    c_rows = c.c[rows]
    z, y = dataset.observed(rows)
    models = []
    for arm in (0, 1):
        mask = z == arm
        if not mask.any():
            raise EmptyArmError(f"no units with z={arm} to fit the outcome model")
        models.append(glm.fit_linear(c_rows[mask], y[mask]))
    return models, glm.predict(models[0], c.c), glm.predict(models[1], c.c)


class _cached(cached_property):
    """A Fits cached_property that also caches a TargetcalError raised on
    first use (in ``Fits._failures``) and raises it again on later reads.

    The cache holds a copy without a traceback, and each read raises a fresh
    copy: a traceback's frames hold the Fits, and the reference cycle would
    keep every failed Fits alive until the garbage collector runs."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        failed = instance._failures.get(self.attrname)
        if failed is not None:
            raise copy.copy(failed)
        try:
            return super().__get__(instance, owner)
        except TargetcalError as exc:
            instance._failures[self.attrname] = copy.copy(exc)
            raise


class Fits:
    """One dataset's context: its balance matrix, the target moments theta0
    (the target-sample means of the balance columns), and its nuisance fits
    and calibration solves, each computed once, on first use.

    Every member except ``target_balance`` and ``fusion`` reads only the
    balance matrix, the sample indicator and study-sample treatment and
    outcome, so a Fits built on a fusion dataset also serves its transport
    view; ``fusion`` is the pair (``target_balance``, ``transport``). A member
    that raises caches its error, and every later read raises it again
    without fitting or solving. Readers share the cached arrays, so none may
    modify them (a solution's arrays are read-only).
    """

    def __init__(self, dataset: Dataset, c: BalanceMatrix):
        self.dataset = dataset
        self.c = c
        self.theta0 = target_moments(c, dataset.s)
        self._failures = {}

    @_cached
    def sampling(self) -> solver.DualSolution:
        """Study-sample weights calibrated to the target moments."""
        return solver.solve_entropy_dual(
            solver.assemble_sampling(self.c, self.dataset.s, self.theta0))

    @_cached
    def transport(self) -> solver.DualSolution:
        """Joint arm-balance and sampling calibration of the study sample."""
        return solver.solve_entropy_dual(
            solver.assemble_transport(self.c, self.dataset.s, self.dataset.z, self.theta0))

    @_cached
    def target_balance(self) -> solver.DualSolution:
        """Arm balance of the target sample aimed at theta0; reads target z.
        The target half of ``fusion``, and the CBPS weights in fusion mode."""
        if self.dataset.mode != "fusion":
            raise ModeError("requested z values include unobserved entries")
        return solver.solve_entropy_dual(solver.assemble_fusion(
            self.c, self.dataset.s, self.dataset.z, self.theta0))

    @property
    def fusion(self) -> tuple:
        """Per-sample arm-balance solves (target, study). The study-sample
        problem is the transport one, so the study half is ``self.transport``,
        read last; its error is raised prefixed with the half."""
        target = self.target_balance
        try:
            return target, self.transport
        except TargetcalError as exc:  # the cache keeps its own copy
            exc.args = (f"study-sample half (the transport problem): {exc}",)
            raise

    @_cached
    def rho(self) -> np.ndarray:
        """Logistic sampling score P(s=1 | c) on every unit."""
        fit = glm.fit_logistic(self.c.c, self.dataset.s.astype(float))
        return glm.predict(fit, self.c.c)

    @_cached
    def pi(self) -> np.ndarray:
        """Logistic propensity score, fit on the study sample, on every unit."""
        study = self.dataset.s == 1
        fit = glm.fit_logistic(self.c.c[study], self.dataset.z[study])
        return glm.predict(fit, self.c.c)

    @_cached
    def study_outcome(self) -> tuple:
        """Per-arm study-sample outcome models: (models, mu0, mu1)."""
        return _outcome_models(self.dataset, self.c, 1)


def _hajek_contrast(weights: np.ndarray, z: np.ndarray, y: np.ndarray) -> float:
    """Weighted treated mean minus weighted control mean.

    Self-normalized per arm, so the value is invariant to rescaling all
    weights by a positive constant; under the exact-balance constraints the
    two arm totals coincide and this equals the root of the tau estimating
    equation.
    """
    treated = z == 1
    control = z == 0
    if not (treated.any() and control.any()):
        raise EmptyArmError("both treatment arms are required")
    w1, w0 = weights[treated], weights[control]
    if w1.sum() <= 0 or w0.sum() <= 0:
        raise EmptyArmError("an arm carries zero total weight")
    return float(np.average(y[treated], weights=w1) - np.average(y[control], weights=w0))


def _cohort(dataset: Dataset) -> np.ndarray:
    """The benchmark cohort: the target sample when its outcomes are
    observed (fusion mode), else the study sample."""
    return dataset.s == (0 if dataset.mode == "fusion" else 1)


def tau_unadjusted(dataset: Dataset, fits: Fits) -> TauEstimate:
    """Crude difference of arm means within the benchmark cohort."""
    mask = _cohort(dataset)
    z, y = dataset.observed(mask)
    tau = _hajek_contrast(np.ones(mask.sum()), z, y)
    return TauEstimate(tau_hat=tau, nuisance={"z": z, "y": y})


def tau_gcomp(dataset: Dataset, fits: Fits) -> TauEstimate:
    """Outcome-regression standardization: fit per-arm means on the study
    sample, average their contrast over the target sample."""
    target = dataset.s == 0
    (fit0, fit1), mu0, mu1 = fits.study_outcome
    tau = float(np.mean(mu1[target] - mu0[target]))
    return TauEstimate(tau_hat=tau,
                       nuisance={"fit0": fit0, "fit1": fit1, "mu0": mu0, "mu1": mu1})


def tau_tmle(dataset: Dataset, fits: Fits) -> TauEstimate:
    """Targeted update of initial outcome fits on the standardized scale.

    Pipeline: standardize the study outcomes to [0, 1]; fit per-arm
    fractional-logistic initial means; take the sampling score and the
    propensity score from ``fits``; regress the standardized outcome on the
    two score-derived covariates with the initial fit as a fixed offset (no
    intercept); update, unstandardize, and average the updated contrast over
    the target sample. The nuisance holds the updated arm means ``mu0``,
    ``mu1`` and the sampling-score odds q = (n1/n0)(1 - rho)/rho, which weigh
    the study units in the influence variance.
    """
    c = fits.c
    study = dataset.s == 1
    target = dataset.s == 0
    z, y = dataset.observed(study)
    y_lo, y_hi = float(y.min()), float(y.max())
    if y_hi <= y_lo:
        raise DegenerateOutcomeError("study outcomes have zero range")
    y_star = (y - y_lo) / (y_hi - y_lo)

    c_study = c.c[study]
    initial = {}
    for arm in (0, 1):
        mask = z == arm
        initial[arm] = glm.fit_logistic(c_study[mask], y_star[mask])
    mu0_star = glm.predict(initial[0], c.c)
    mu1_star = glm.predict(initial[1], c.c)

    rho = fits.rho
    pi = fits.pi
    ratio0 = (1.0 - rho) / (rho * (1.0 - pi))
    ratio1 = (1.0 - rho) / (rho * pi)
    h0 = (1.0 - z) * ratio0[study]
    h1 = z * ratio1[study]
    offset = z * glm.logit(mu1_star[study]) + (1.0 - z) * glm.logit(mu0_star[study])
    fluct = glm.fit_logistic(np.column_stack([h0, h1]), y_star, offset=offset)
    eps0, eps1 = fluct.coefficients

    mu0 = y_lo + (y_hi - y_lo) * glm.expit(glm.logit(mu0_star) + eps0 * ratio0)
    mu1 = y_lo + (y_hi - y_lo) * glm.expit(glm.logit(mu1_star) + eps1 * ratio1)
    tau = float(np.mean(mu1[target] - mu0[target]))
    q = (dataset.n_study / dataset.n_target) * (1.0 - rho) / rho
    return TauEstimate(
        tau_hat=tau,
        nuisance={"epsilon": (float(eps0), float(eps1)), "q": q, "mu0": mu0, "mu1": mu1,
                  "outcome_range": (y_lo, y_hi)},
    )


def _augmented(dataset: Dataset, fits: Fits, outcome_sample: int) -> TauEstimate:
    study = dataset.s == 1
    target = dataset.s == 0
    z, y = dataset.observed(study)
    n1, n0 = dataset.n_study, dataset.n_target

    q = fits.sampling.weights
    pi_study = fits.pi[study]
    _, mu0, mu1 = (fits.study_outcome if outcome_sample == 1
                   else _outcome_models(dataset, fits.c, outcome_sample))

    resid = z * (y - mu1[study]) / pi_study - (1.0 - z) * (y - mu0[study]) / (1.0 - pi_study)
    tau = float(np.sum(q[study] * resid) / n1 + np.sum(mu1[target] - mu0[target]) / n0)
    return TauEstimate(tau_hat=tau, weights_used=q, nuisance={"q": q, "mu0": mu0, "mu1": mu1})


def tau_aug_transport(dataset: Dataset, fits: Fits) -> TauEstimate:
    """Augmented estimator: calibrated sampling weights de-bias study-sample
    outcome-model residuals, added to the target-sample model contrast."""
    return _augmented(dataset, fits, outcome_sample=1)


def tau_aug_fusion(dataset: Dataset, fits: Fits) -> TauEstimate:
    """Augmented estimator with outcome models fit on the target sample."""
    return _augmented(dataset, fits, outcome_sample=0)


def tau_cal_transport(dataset: Dataset, fits: Fits) -> TauEstimate:
    """Hajek contrast under the joint study-sample calibration weights."""
    study = dataset.s == 1
    sol = fits.transport
    tau = _hajek_contrast(sol.weights[study], *dataset.observed(study))
    return TauEstimate(tau_hat=tau, weights_used=sol.weights)


def tau_cal_fusion(dataset: Dataset, fits: Fits) -> TauEstimate:
    """Hajek contrast over all units under the per-sample calibration weights."""
    sol_target, sol_study = fits.fusion
    w = sol_target.weights + sol_study.weights
    tau = _hajek_contrast(w, dataset.z, dataset.y)
    return TauEstimate(tau_hat=tau, weights_used=w)


def tau_cbps_benchmark(dataset: Dataset, fits: Fits) -> TauEstimate:
    """Within-cohort benchmark: arm-balancing weights aimed at the benchmark
    cohort's own balance means, then a Hajek contrast. In fusion mode the
    cohort is the target sample and its means are theta0, so the weights are
    ``fits.target_balance``'s."""
    mask = _cohort(dataset)
    z, y = dataset.observed(mask)
    if dataset.mode == "fusion":
        w = fits.target_balance.weights[mask]
    else:
        c_sub = BalanceMatrix(fits.c.c[mask], names=fits.c.names)
        w = solver.solve_entropy_dual(solver.assemble_ate_benchmark(c_sub, z)).weights
    tau = _hajek_contrast(w, z, y)
    return TauEstimate(tau_hat=tau, weights_used=w, nuisance={"z": z, "y": y})


TAU = {
    EstimatorKind.UNADJ: tau_unadjusted,
    EstimatorKind.GCOMP: tau_gcomp,
    EstimatorKind.TMLE: tau_tmle,
    EstimatorKind.AUG_T: tau_aug_transport,
    EstimatorKind.AUG_F: tau_aug_fusion,
    EstimatorKind.CAL_T: tau_cal_transport,
    EstimatorKind.CAL_F: tau_cal_fusion,
    EstimatorKind.CBPS: tau_cbps_benchmark,
}


def compute_tau(dataset: Dataset, kind: EstimatorKind, fits: Fits) -> TauEstimate:
    """Point estimate of one kind."""
    if kind in FUSION_ONLY and dataset.mode != "fusion":
        raise ModeError(f"{kind.value} requires fusion mode")
    est = TAU[kind](dataset, fits)
    est.kind = kind
    return est
