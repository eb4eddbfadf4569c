"""Target-population average treatment effect estimators: unadjusted,
G-computation, TMLE, augmented (transport and fusion), full-calibration
Hajek contrasts (transport and fusion), and the within-cohort benchmark.

Every estimator is a function of (dataset, fits): ``Fits`` holds one
dataset's balance matrix and target moments, and its nuisance fits and
calibration solves, each computed on first use, so estimators run on the
same dataset share them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import glm, solver
from .data import BalanceMatrix, Dataset, check_full_rank, remember, target_moments
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


class Fits:
    """One dataset's context: its balance matrix, the target moments theta0
    (the target-sample means of the balance columns), and its nuisance fits,
    calibration solves and rank verdicts, each computed once, on first use,
    through ``data.remember``: one that raises caches its error, and every
    later read raises it again without fitting or solving.

    Every member except ``target_balance``, ``fusion`` and ``outcome(0)``
    reads only the balance matrix, the sample indicator and study-sample
    treatment and outcome, so a Fits built on a fusion dataset also serves
    its transport view; ``fusion`` is the pair (``target_balance``,
    ``transport``). Readers share the cached arrays, so none may modify them
    (a solution's arrays are read-only).

    Its fits and solves, TMLE's initial fits and the outcome models take the
    rank verdicts (see ``full_rank``) in place of their own rank checks.
    """

    def __init__(self, dataset: Dataset, c: BalanceMatrix):
        self.dataset = dataset
        self.c = c
        self.theta0 = target_moments(c, dataset.s)
        self._memo = {}

    def full_rank(self, sample: int | None = None, arm: int | None = None) -> None:
        """Raise the RankDeficientError of the balance matrix on one row set,
        if it has one: every unit (no ``sample``), the sample s == ``sample``,
        or its units with z == ``arm``. Each row set is checked once; the
        matrix holds its own verdict on every unit.
        """
        if sample is None:
            return self.c.full_rank()

        def check():
            rows = self.dataset.s == sample
            where = "balance matrix on the " + ("study" if sample == 1 else "target") + " sample"
            if arm is not None:
                rows = rows & (self.dataset.z == arm)
                where += f" arm z={arm}"
            check_full_rank(self.c.c[rows], where)

        remember(self._memo, ("full_rank", sample, arm), check)

    def arms_full_rank(self, sample: int) -> None:
        """The rank verdicts of a sample's two arms: those of the blocks of
        its transport or target-balance problem, each c on one arm."""
        for arm in (0, 1):
            self.full_rank(sample, arm)

    @property
    def sampling(self) -> solver.DualSolution:
        """Study-sample weights calibrated to the target moments."""
        return remember(self._memo, "sampling", lambda: solver.solve_entropy_dual(
            solver.assemble_sampling(self.c, self.dataset.s, self.theta0),
            rank_check=partial(self.full_rank, 1)))

    @property
    def transport(self) -> solver.DualSolution:
        """Each study arm calibrated to the target moments.

        An arm's block asks of its units what ``sampling`` asks of the study
        sample, so when ``sampling`` has already failed here with a Farkas
        direction d, d is a candidate certificate for each arm, which the
        solve tests before the arm's first step. No sampling solve is started
        for it."""
        def solve():
            return solver.solve_entropy_dual(
                solver.assemble_transport(self.c, self.dataset.s, self.dataset.z, self.theta0),
                rank_check=partial(self.arms_full_rank, 1),
                certificate=getattr(self._memo.get("sampling"), "direction", None))

        return remember(self._memo, "transport", solve)

    @property
    def target_balance(self) -> solver.DualSolution:
        """Each target arm calibrated to theta0; reads target z.
        The target half of ``fusion``, and the CBPS weights in fusion mode."""
        def solve():
            if self.dataset.mode != "fusion":
                raise ModeError("requested z values include unobserved entries")
            return solver.solve_entropy_dual(
                solver.assemble_fusion(self.c, self.dataset.s, self.dataset.z, self.theta0),
                rank_check=partial(self.arms_full_rank, 0))

        return remember(self._memo, "target_balance", solve)

    @property
    def fusion(self) -> tuple:
        """Per-sample arm-calibration solves (target, study). The study-sample
        problem is the transport one, so the study half is ``self.transport``.
        It is read first, and its error is raised prefixed with the half, so
        a failed study half leaves the target half unsolved."""
        try:
            study = self.transport
        except TargetcalError as exc:  # the cache keeps its own copy
            exc.args = (f"study-sample half (the transport problem): {exc}",)
            raise
        return self.target_balance, study

    @property
    def rho(self) -> np.ndarray:
        """Logistic sampling score P(s=1 | c) on every unit."""
        def fit():
            model = glm.fit_logistic(self.c.c, self.dataset.s.astype(float),
                                     rank_check=self.full_rank)
            return glm.predict(model, self.c.c)

        return remember(self._memo, "rho", fit)

    @property
    def pi(self) -> np.ndarray:
        """Logistic propensity score, fit on the study sample, on every unit."""
        def fit():
            study = self.dataset.s == 1
            model = glm.fit_logistic(self.c.c[study], self.dataset.z[study],
                                     rank_check=partial(self.full_rank, 1))
            return glm.predict(model, self.c.c)

        return remember(self._memo, "pi", fit)

    def outcome(self, sample: int) -> tuple:
        """Main-terms linear fits of y on the balance columns, one per arm of
        the sample s == ``sample``: (models, mu0, mu1), mu predicted on every
        unit. The target sample's (``sample=0``) read target z and y."""
        def fit():
            rows = self.dataset.s == sample
            c_rows = self.c.c[rows]
            z, y = self.dataset.observed(rows)
            models = []
            for arm in (0, 1):
                mask = z == arm
                if not mask.any():
                    raise EmptyArmError(f"no units with z={arm} to fit the outcome model")
                models.append(glm.fit_linear(c_rows[mask], y[mask],
                                             rank_check=partial(self.full_rank, sample, arm)))
            return models, glm.predict(models[0], self.c.c), glm.predict(models[1], self.c.c)

        return remember(self._memo, ("outcome", sample), fit)


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
    (fit0, fit1), mu0, mu1 = fits.outcome(1)
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
        initial[arm] = glm.fit_logistic(c_study[mask], y_star[mask],
                                        rank_check=partial(fits.full_rank, 1, arm))
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
    _, mu0, mu1 = fits.outcome(outcome_sample)

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
