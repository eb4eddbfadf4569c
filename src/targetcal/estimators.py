"""Target-population average treatment effect estimators: unadjusted,
G-computation, TMLE, augmented (transport and fusion), full-calibration
Hajek contrasts (transport and fusion), and the within-cohort benchmark.

Every estimator is a pure function of (dataset, balance matrix, moments);
the simulation harness may evaluate several kinds on one replicate
concurrently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import glm, solver
from .data import BalanceMatrix, Dataset, effective_sample_size
from .errors import DegenerateOutcomeError, EmptyArmError, ModeError


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
    tau_hat: float
    kind: EstimatorKind
    weights_used: np.ndarray | None = None
    nuisance: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


def _selector_mask(dataset: Dataset, sample_selector: str) -> np.ndarray:
    if sample_selector == "study":
        return dataset.s == 1
    if sample_selector == "target":
        return dataset.s == 0
    if sample_selector == "pooled":
        return np.ones(dataset.n, dtype=bool)
    raise ModeError(f"unknown sample selector '{sample_selector}'")


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


def _require_fusion(dataset: Dataset, what: str) -> None:
    if dataset.mode != "fusion":
        raise ModeError(f"{what} requires a fusion-mode dataset")


def _arm_outcome_fits(c_rows: np.ndarray, z: np.ndarray, y: np.ndarray):
    """Main-terms linear fits of y on the balance columns, one per arm."""
    fits = {}
    for arm in (0, 1):
        mask = z == arm
        if not mask.any():
            raise EmptyArmError(f"no units with z={arm} to fit the outcome model")
        fits[arm] = glm.fit_linear(c_rows[mask], y[mask])
    return fits


def _weight_diagnostics(weights: np.ndarray) -> dict:
    active = weights > 0
    return {
        "ess": effective_sample_size(weights[active]),
        "max_weight": float(weights.max()),
    }


def tau_unadjusted(dataset: Dataset, sample_selector: str = "study") -> TauEstimate:
    """Crude difference of arm means within the selected sample."""
    mask = _selector_mask(dataset, sample_selector)
    z = dataset.observed_z(mask)
    y = dataset.observed_y(mask)
    tau = _hajek_contrast(np.ones(mask.sum()), z, y)
    return TauEstimate(
        tau_hat=tau,
        kind=EstimatorKind.UNADJ,
        nuisance={"z": z, "y": y, "selector": sample_selector},
        diagnostics={},
    )


def tau_gcomp(dataset: Dataset, c: BalanceMatrix) -> TauEstimate:
    """Outcome-regression standardization: fit per-arm means on the study
    sample, average their contrast over the target sample."""
    study = dataset.s == 1
    target = dataset.s == 0
    z = dataset.observed_z(study)
    y = dataset.observed_y(study)
    fits = _arm_outcome_fits(c.c[study], z, y)
    mu0 = glm.predict(fits[0], c.c)
    mu1 = glm.predict(fits[1], c.c)
    tau = float(np.mean(mu1[target] - mu0[target]))
    return TauEstimate(
        tau_hat=tau,
        kind=EstimatorKind.GCOMP,
        nuisance={"fit0": fits[0], "fit1": fits[1], "mu0": mu0, "mu1": mu1},
        diagnostics={},
    )


def tau_tmle(dataset: Dataset, c: BalanceMatrix) -> TauEstimate:
    """Targeted update of initial outcome fits on the standardized scale.

    Pipeline: standardize the study outcomes to [0, 1]; fit per-arm
    fractional-logistic initial means; fit the sampling score on all units
    and the propensity score on the study sample; regress the standardized
    outcome on the two score-derived covariates with the initial fit as a
    fixed offset (no intercept); update, unstandardize, and average the
    updated contrast over the target sample.
    """
    s = dataset.s
    study = s == 1
    target = s == 0
    z = dataset.observed_z(study)
    y = dataset.observed_y(study)
    y_lo, y_hi = float(y.min()), float(y.max())
    if y_hi <= y_lo:
        raise DegenerateOutcomeError("study outcomes have zero range")
    y_star = (y - y_lo) / (y_hi - y_lo)

    c_study = c.c[study]
    fits = {}
    for arm in (0, 1):
        mask = z == arm
        if not mask.any():
            raise EmptyArmError(f"no study units with z={arm}")
        fits[arm] = glm.fit_logistic(c_study[mask], y_star[mask])
    mu0_star = glm.predict(fits[0], c.c)
    mu1_star = glm.predict(fits[1], c.c)

    rho_fit = glm.fit_logistic(c.c, s.astype(float))
    rho = glm.predict(rho_fit, c.c)
    pi_fit = glm.fit_logistic(c_study, z)
    pi = glm.predict(pi_fit, c.c)

    ratio0 = (1.0 - rho) / (rho * (1.0 - pi))
    ratio1 = (1.0 - rho) / (rho * pi)
    h0 = (1.0 - z) * ratio0[study]
    h1 = z * ratio1[study]
    offset = z * glm.logit(mu1_star[study]) + (1.0 - z) * glm.logit(mu0_star[study])
    fluct = glm.fit_logistic(np.column_stack([h0, h1]), y_star, offset=offset)
    eps0, eps1 = fluct.coefficients

    eta0 = y_lo + (y_hi - y_lo) * glm.expit(glm.logit(mu0_star) + eps0 * ratio0)
    eta1 = y_lo + (y_hi - y_lo) * glm.expit(glm.logit(mu1_star) + eps1 * ratio1)
    tau = float(np.mean(eta1[target] - eta0[target]))
    return TauEstimate(
        tau_hat=tau,
        kind=EstimatorKind.TMLE,
        nuisance={
            "rho": rho,
            "pi": pi,
            "epsilon": (float(eps0), float(eps1)),
            "eta0": eta0,
            "eta1": eta1,
            "outcome_range": (y_lo, y_hi),
        },
        diagnostics={},
    )


def _augmented(dataset: Dataset, c: BalanceMatrix, theta0, outcome_sample: int,
               kind: EstimatorKind) -> TauEstimate:
    s = dataset.s
    study = s == 1
    target = s == 0
    z = dataset.observed_z(study)
    y = dataset.observed_y(study)
    n1, n0 = dataset.n_study, dataset.n_target

    q_sol = solver.solve_entropy_dual(solver.assemble_sampling(c, s, theta0))
    q = q_sol.weights

    pi_fit = glm.fit_logistic(c.c[study], z)
    pi = glm.predict(pi_fit, c.c)
    pi_study = pi[study]

    fit_mask = s == outcome_sample
    fits = _arm_outcome_fits(
        c.c[fit_mask], dataset.observed_z(fit_mask), dataset.observed_y(fit_mask)
    )
    mu0 = glm.predict(fits[0], c.c)
    mu1 = glm.predict(fits[1], c.c)

    resid = z * (y - mu1[study]) / pi_study - (1.0 - z) * (y - mu0[study]) / (1.0 - pi_study)
    tau = float(np.sum(q[study] * resid) / n1 + np.sum(mu1[target] - mu0[target]) / n0)

    return TauEstimate(
        tau_hat=tau,
        kind=kind,
        weights_used=q,
        nuisance={
            "sampling_dual": q_sol,
            "pi_fit": pi_fit,
            "pi": pi,
            "mu0": mu0,
            "mu1": mu1,
        },
        diagnostics=_weight_diagnostics(q),
    )


def tau_aug_transport(dataset: Dataset, c: BalanceMatrix, theta0) -> TauEstimate:
    """Augmented estimator: calibrated sampling weights de-bias study-sample
    outcome-model residuals, added to the target-sample model contrast."""
    return _augmented(dataset, c, theta0, outcome_sample=1, kind=EstimatorKind.AUG_T)


def tau_aug_fusion(dataset: Dataset, c: BalanceMatrix, theta0) -> TauEstimate:
    """Augmented estimator with outcome models fit on the target sample."""
    _require_fusion(dataset, "AUG fusion")
    return _augmented(dataset, c, theta0, outcome_sample=0, kind=EstimatorKind.AUG_F)


def tau_cal_transport(dataset: Dataset, c: BalanceMatrix, theta0) -> TauEstimate:
    """Hajek contrast under the joint study-sample calibration weights."""
    s = dataset.s
    study = s == 1
    z = dataset.observed_z(study)
    y = dataset.observed_y(study)
    sol = solver.solve_entropy_dual(solver.assemble_transport(c, s, dataset.z, theta0))
    w = sol.weights
    tau = _hajek_contrast(w[study], z, y)
    return TauEstimate(
        tau_hat=tau,
        kind=EstimatorKind.CAL_T,
        weights_used=w,
        nuisance={"dual": sol},
        diagnostics=_weight_diagnostics(w),
    )


def tau_cal_fusion(dataset: Dataset, c: BalanceMatrix, theta0) -> TauEstimate:
    """Hajek contrast over all units under the per-sample calibration weights."""
    _require_fusion(dataset, "CAL fusion")
    s = dataset.s
    sol_target, sol_study = map(
        solver.solve_entropy_dual, solver.assemble_fusion(c, s, dataset.z, theta0)
    )
    w = sol_target.weights + sol_study.weights
    tau = _hajek_contrast(w, dataset.z, dataset.y)
    return TauEstimate(
        tau_hat=tau,
        kind=EstimatorKind.CAL_F,
        weights_used=w,
        nuisance={"dual_target": sol_target, "dual_study": sol_study},
        diagnostics=_weight_diagnostics(w),
    )


def tau_cbps_benchmark(dataset: Dataset, c: BalanceMatrix,
                       sample_selector: str = "study") -> TauEstimate:
    """Within-cohort benchmark: arm-balancing weights aimed at the selected
    cohort's own balance means, then a Hajek contrast."""
    mask = _selector_mask(dataset, sample_selector)
    z = dataset.observed_z(mask)
    y = dataset.observed_y(mask)
    c_sub = BalanceMatrix(c.c[mask], names=c.names)
    sol = solver.solve_entropy_dual(solver.assemble_ate_benchmark(c_sub, z))
    w = sol.weights
    tau = _hajek_contrast(w, z, y)
    return TauEstimate(
        tau_hat=tau,
        kind=EstimatorKind.CBPS,
        weights_used=w,
        nuisance={"dual": sol, "z": z, "y": y, "selector": sample_selector},
        diagnostics=_weight_diagnostics(w),
    )


def compute_tau(dataset: Dataset, c: BalanceMatrix, theta0, kind: EstimatorKind,
                sample_selector: str | None = None) -> TauEstimate:
    """Dispatch a point estimate by kind."""
    if kind in FUSION_ONLY:
        _require_fusion(dataset, kind.value)
    if kind is EstimatorKind.UNADJ:
        return tau_unadjusted(dataset, sample_selector or "study")
    if kind is EstimatorKind.GCOMP:
        return tau_gcomp(dataset, c)
    if kind is EstimatorKind.TMLE:
        return tau_tmle(dataset, c)
    if kind is EstimatorKind.AUG_T:
        return tau_aug_transport(dataset, c, theta0)
    if kind is EstimatorKind.AUG_F:
        return tau_aug_fusion(dataset, c, theta0)
    if kind is EstimatorKind.CAL_T:
        return tau_cal_transport(dataset, c, theta0)
    if kind is EstimatorKind.CAL_F:
        return tau_cal_fusion(dataset, c, theta0)
    if kind is EstimatorKind.CBPS:
        return tau_cbps_benchmark(dataset, c, sample_selector or "study")
    raise ModeError(f"unknown estimator kind {kind}")
