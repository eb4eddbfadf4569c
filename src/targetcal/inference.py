"""Variance estimation and confidence intervals.

The calibration estimators get an M-estimation sandwich built from one
stacked system of estimating equations over the calibrated groups (the
study sample for transport, both samples for data fusion): target moments,
one dual pair per group, effect. The augmented and TMLE estimators get a
plug-in influence-function variance.
Duals enter the stack in the (gamma, delta) parameterization, where the unit
weight is exp(-z c'delta - c'gamma); the solver's (lambda, gamma_joint)
vectors convert via gamma = gamma_joint - lambda, delta = 2 lambda, which
leaves the weights unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .data import BalanceMatrix, Dataset, target_moments
from .errors import (
    InvalidLevelError,
    MissingComponentsError,
    SingularJacobianError,
)
from .estimators import EstimatorKind, TauEstimate
from .solver import DualSolution


@dataclass(frozen=True)
class VarianceReport:
    se: float
    ci_low: float
    ci_high: float
    method: str
    level: float


def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF."""
    if not 0.0 < p < 1.0:
        raise InvalidLevelError("quantile argument must lie in (0, 1)")
    return NormalDist().inv_cdf(p)


def confidence_interval(tau_hat: float, se: float, level: float) -> tuple[float, float]:
    """Symmetric normal-quantile interval tau_hat +/- z * se."""
    if not 0.0 < level < 1.0:
        raise InvalidLevelError("confidence level must lie in (0, 1)")
    if se < 0:
        raise InvalidLevelError("standard error must be nonnegative")
    zq = normal_quantile(0.5 + level / 2.0)
    return tau_hat - zq * se, tau_hat + zq * se


def convert_dual(eta: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Map a joint dual [lambda, gamma_joint] to (gamma, delta)."""
    lam, gamma_joint = eta[:m], eta[m:]
    return gamma_joint - lam, 2.0 * lam


def _app_weights(cmat: np.ndarray, z: np.ndarray, gamma: np.ndarray,
                 delta: np.ndarray) -> np.ndarray:
    return np.exp(-(cmat @ gamma) - z * (cmat @ delta))


def calibration_system(
    cmat: np.ndarray,
    s: np.ndarray,
    z: np.ndarray,
    y: np.ndarray,
    nu: np.ndarray,
    groups: tuple,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked per-unit residuals and summed analytic Jacobian.

    ``groups`` holds the calibrated sample labels: (1,) for transport,
    (0, 1) for data fusion. Parameter vector nu = (theta0, gamma_g for g in
    groups, delta_g for g in groups, tau), length (2G + 1)m + 1 for G groups.
    Rows of the residual matrix: target-moment block, one
    sampling-constraint block and one arm-constraint block per group, effect
    equation. Treatment and outcome are zeroed outside the calibrated groups,
    so unobserved target-sample values never enter. All blocks vanish
    exactly at the fitted parameters because they restate the solver's
    converged constraints.
    """
    n, m = cmat.shape
    n_groups = len(groups)
    theta0 = nu[:m]
    tau = nu[-1]
    s = np.asarray(s, dtype=float)
    calibrated = np.isin(s, groups)
    z = np.where(calibrated, z, 0.0)
    y = np.where(calibrated, y, 0.0)

    # Per group: unit indicator, then the gamma and delta slices of nu.
    blocks = [((s == g).astype(float), slice((1 + j) * m, (2 + j) * m),
               slice((1 + n_groups + j) * m, (2 + n_groups + j) * m))
              for j, g in enumerate(groups)]
    p = np.zeros(n)
    for ind, g_rows, d_rows in blocks:
        p += ind * _app_weights(cmat, z, nu[g_rows], nu[d_rows])
    zp = z * p
    contrast = (2.0 * z - 1.0) * y - z * tau
    target = (s == 0).astype(float)

    k = len(nu)
    psi = np.zeros((n, k))
    psi[:, :m] = target[:, None] * (cmat - theta0)
    psi[:, -1] = p * contrast
    eye = np.eye(m)
    A = np.zeros((k, k))
    A[:m, :m] = -target.sum() * eye
    for ind, g_rows, d_rows in blocks:
        pg = ind * p
        zpg = ind * zp
        count = ind.sum()
        psi[:, g_rows] = pg[:, None] * cmat - np.outer(ind, theta0)
        psi[:, d_rows] = zpg[:, None] * cmat - np.outer(ind, theta0 / 2.0)
        Mg = cmat.T @ (cmat * pg[:, None])
        Tg = cmat.T @ (cmat * zpg[:, None])
        A[g_rows, :m] = -count * eye
        A[g_rows, g_rows] = -Mg
        A[g_rows, d_rows] = -Tg
        A[d_rows, :m] = -(count / 2.0) * eye
        A[d_rows, g_rows] = -Tg
        A[d_rows, d_rows] = -Tg
        A[-1, g_rows] = -(pg * contrast) @ cmat
        A[-1, d_rows] = -(zpg * (y - tau)) @ cmat
    A[-1, -1] = -zp.sum()
    return psi, A


def _check_solvable(A: np.ndarray) -> None:
    if not np.isfinite(A).all():
        raise SingularJacobianError("Jacobian contains non-finite entries")
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularJacobianError(f"Jacobian is numerically singular (cond {cond:.2e})")


def _sandwich_variance(
    dataset: Dataset,
    c: BalanceMatrix,
    duals: tuple,
    groups: tuple,
    tau_hat: float,
    level: float,
) -> VarianceReport:
    """Sandwich variance of tau_hat, one dual solution per calibrated group.

    Only the tau entry of A^-1 (psi' psi) A^-T is needed: with A' x = e_tau
    it equals ||psi x||^2.
    """
    theta0 = target_moments(c, dataset.s).theta0
    gammas, deltas = zip(*(convert_dual(dual.eta, c.m) for dual in duals))
    nu = np.concatenate([theta0, *gammas, *deltas, [tau_hat]])
    psi, A = calibration_system(c.c, dataset.s, dataset.z, dataset.y, nu, groups)
    _check_solvable(A)
    e_tau = np.zeros(len(nu))
    e_tau[-1] = 1.0
    x = np.linalg.solve(A.T, e_tau)
    se = math.sqrt(float(np.sum((psi @ x) ** 2)))
    low, high = confidence_interval(tau_hat, se, level)
    return VarianceReport(se=se, ci_low=low, ci_high=high, method="sandwich", level=level)


def sandwich_variance_transport(
    dataset: Dataset,
    c: BalanceMatrix,
    dual: DualSolution,
    tau_hat: float,
    level: float = 0.95,
) -> VarianceReport:
    """Robust variance for the transport calibration estimator (3m+1 stack)."""
    return _sandwich_variance(dataset, c, (dual,), (1,), tau_hat, level)


def sandwich_variance_fusion(
    dataset: Dataset,
    c: BalanceMatrix,
    dual_target: DualSolution,
    dual_study: DualSolution,
    tau_hat: float,
    level: float = 0.95,
) -> VarianceReport:
    """Robust variance for the data-fusion calibration estimator (5m+1 stack)."""
    return _sandwich_variance(dataset, c, (dual_target, dual_study), (0, 1), tau_hat, level)


def influence_variance(
    kind: EstimatorKind,
    dataset: Dataset,
    q: np.ndarray | None,
    pi: np.ndarray | None,
    mu1: np.ndarray | None,
    mu0: np.ndarray | None,
    tau_hat: float,
    level: float = 0.95,
) -> VarianceReport:
    """Plug-in influence-function variance for the augmented and TMLE paths.

    Study units contribute the weighted residual contrast scaled by n/n1;
    target units contribute the centered model contrast scaled by n/n0. The
    construction is an approximation (it takes the nuisance fits as fixed)
    and empirically errs conservative when models are misspecified.
    """
    if kind not in (EstimatorKind.AUG_T, EstimatorKind.AUG_F, EstimatorKind.TMLE):
        raise MissingComponentsError(f"influence variance not defined for {kind}")
    for name, comp in (("q", q), ("pi", pi), ("mu1", mu1), ("mu0", mu0)):
        if comp is None:
            raise MissingComponentsError(f"missing component '{name}' for {kind.value}")
    s = dataset.s
    study = s == 1
    target = s == 0
    n, n1, n0 = dataset.n, dataset.n_study, dataset.n_target
    z = dataset.observed_z(study)
    y = dataset.observed_y(study)
    resid = z * (y - mu1[study]) / pi[study] - (1.0 - z) * (y - mu0[study]) / (1.0 - pi[study])
    d = np.zeros(n)
    d[study] = (n / n1) * q[study] * resid
    d[target] = (n / n0) * (mu1[target] - mu0[target] - tau_hat)
    se = math.sqrt(float(np.mean(d ** 2)) / n)
    low, high = confidence_interval(tau_hat, se, level)
    return VarianceReport(se=se, ci_low=low, ci_high=high, method="influence", level=level)


def _welch_variance(y1: np.ndarray, y0: np.ndarray) -> float:
    v1 = y1.var(ddof=1) / len(y1) if len(y1) > 1 else 0.0
    v0 = y0.var(ddof=1) / len(y0) if len(y0) > 1 else 0.0
    return v1 + v0


def _weighted_welch_variance(y: np.ndarray, z: np.ndarray, w: np.ndarray) -> float:
    out = 0.0
    for arm in (0, 1):
        mask = z == arm
        wa, ya = w[mask], y[mask]
        mean = np.average(ya, weights=wa)
        var = np.average((ya - mean) ** 2, weights=wa)
        ess = wa.sum() ** 2 / np.sum(wa ** 2)
        out += var / max(ess - 1.0, 1.0)
    return out


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with its interval and the underlying components."""

    tau_hat: float
    se: float
    ci_low: float
    ci_high: float
    kind: EstimatorKind
    method: str
    level: float
    estimate: TauEstimate


def estimate_with_ci(
    dataset: Dataset,
    c: BalanceMatrix,
    theta0,
    kind: EstimatorKind,
    level: float = 0.95,
    sample_selector: str | None = None,
) -> EstimateReport:
    """Compute a point estimate and the matching variance for its kind.

    Calibration estimators get the M-estimation sandwich; augmented and TMLE
    estimators the plug-in influence variance; the benchmark estimators a
    descriptive approximation.
    """
    from .estimators import compute_tau

    est = compute_tau(dataset, c, theta0, kind, sample_selector=sample_selector)
    if kind is EstimatorKind.CAL_T:
        report = sandwich_variance_transport(dataset, c, est.nuisance["dual"],
                                             est.tau_hat, level)
    elif kind is EstimatorKind.CAL_F:
        report = sandwich_variance_fusion(dataset, c, est.nuisance["dual_target"],
                                          est.nuisance["dual_study"], est.tau_hat, level)
    elif kind in (EstimatorKind.AUG_T, EstimatorKind.AUG_F):
        report = influence_variance(kind, dataset, est.weights_used,
                                    est.nuisance["pi"], est.nuisance["mu1"],
                                    est.nuisance["mu0"], est.tau_hat, level)
    elif kind is EstimatorKind.TMLE:
        rho = est.nuisance["rho"]
        q_tmle = (dataset.n_study / dataset.n_target) * (1.0 - rho) / rho
        report = influence_variance(kind, dataset, q_tmle, est.nuisance["pi"],
                                    est.nuisance["eta1"], est.nuisance["eta0"],
                                    est.tau_hat, level)
    else:
        report = descriptive_variance(est, dataset, c, level)
    return EstimateReport(
        tau_hat=est.tau_hat,
        se=report.se,
        ci_low=report.ci_low,
        ci_high=report.ci_high,
        kind=kind,
        method=report.method,
        level=level,
        estimate=est,
    )


def descriptive_variance(estimate: TauEstimate, dataset: Dataset,
                         c: BalanceMatrix, level: float = 0.95) -> VarianceReport:
    """Approximate SEs for the benchmark estimators.

    UNADJ uses the Welch two-sample variance; CBPS a weighted Welch variance
    on effective sample sizes; GCOMP the outcome-regression delta method with
    HC0 coefficient covariances. All labeled method="influence" since they
    are plug-in influence approximations outside the sandwich stack.
    """
    kind = estimate.kind
    if kind is EstimatorKind.UNADJ:
        z, y = estimate.nuisance["z"], estimate.nuisance["y"]
        var = _welch_variance(y[z == 1], y[z == 0])
    elif kind is EstimatorKind.CBPS:
        z, y = estimate.nuisance["z"], estimate.nuisance["y"]
        w = estimate.weights_used
        var = _weighted_welch_variance(y, z, w)
    elif kind is EstimatorKind.GCOMP:
        target = dataset.s == 0
        study = dataset.s == 1
        cbar = c.c[target].mean(axis=0)
        z = dataset.observed_z(study)
        y = dataset.observed_y(study)
        var = 0.0
        for arm, key in ((0, "fit0"), (1, "fit1")):
            mask = z == arm
            design = c.c[study][mask]
            resid = y[mask] - design @ estimate.nuisance[key].coefficients
            xtx_inv = np.linalg.inv(design.T @ design)
            meat = design.T @ (design * (resid ** 2)[:, None])
            cov_beta = xtx_inv @ meat @ xtx_inv
            var += float(cbar @ cov_beta @ cbar)
        contrast = estimate.nuisance["mu1"][target] - estimate.nuisance["mu0"][target]
        var += float(np.sum((contrast - estimate.tau_hat) ** 2)) / dataset.n_target ** 2
    else:
        raise MissingComponentsError(f"no descriptive variance for {kind}")
    se = math.sqrt(max(var, 0.0))
    low, high = confidence_interval(estimate.tau_hat, se, level)
    return VarianceReport(se=se, ci_low=low, ci_high=high, method="influence", level=level)
