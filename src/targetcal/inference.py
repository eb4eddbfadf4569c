"""Variance estimation and confidence intervals.

The calibration estimators get an M-estimation sandwich built from one
stacked system of estimating equations over the calibrated groups (the
study sample for transport, both samples for data fusion): target moments,
one dual pair per group, effect. The augmented and TMLE estimators get a
plug-in influence-function variance. Every variance function maps
(dataset, fits, estimate) to a standard error: the data, its ``Fits``
context (balance matrix, target moments, nuisance fits and solves) and the
point estimate. ``estimate_with_ci`` builds the one normal interval.
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

from . import data
from .data import Dataset
from .errors import (
    InvalidLevelError,
    MissingComponentsError,
    SingularJacobianError,
)
from .estimators import EstimatorKind, Fits, TauEstimate, compute_tau


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


class CalibrationSystem:
    """Stacked estimating equations of a calibration estimator at nu.

    ``groups`` holds the calibrated sample labels: (1,) for transport,
    (0, 1) for data fusion. Parameter vector nu = (theta0, gamma_g for g in
    groups, delta_g for g in groups, tau), length (2G + 1)m + 1 for G groups.
    Columns of the residual matrix: target-moment block, one
    sampling-constraint block and one arm-constraint block per group, effect
    equation. Treatment and outcome are zeroed outside the calibrated groups,
    so unobserved target-sample values never enter. All blocks vanish
    exactly at the fitted parameters because they restate the solver's
    converged constraints.

    The per-unit terms are computed once; ``psi`` builds the residual rows
    of any slice of units from them and ``jacobian`` sums them over all.
    """

    def __init__(self, cmat: np.ndarray, s: np.ndarray, z: np.ndarray, y: np.ndarray,
                 nu: np.ndarray, groups: tuple):
        m = cmat.shape[1]
        n_groups = len(groups)
        self.cmat, self.nu, self.m = cmat, nu, m
        self.theta0, self.tau = nu[:m], nu[-1]
        s = np.asarray(s, dtype=float)
        calibrated = np.isin(s, groups)
        z = np.where(calibrated, z, 0.0)
        self.y = np.where(calibrated, y, 0.0)
        # Per group: unit indicator, then the gamma and delta slices of nu.
        self.blocks = [((s == g).astype(float), slice((1 + j) * m, (2 + j) * m),
                        slice((1 + n_groups + j) * m, (2 + n_groups + j) * m))
                       for j, g in enumerate(groups)]
        p = np.zeros(len(s))
        for ind, g_rows, d_rows in self.blocks:
            p += ind * _app_weights(cmat, z, nu[g_rows], nu[d_rows])
        self.p, self.zp = p, z * p
        self.contrast = (2.0 * z - 1.0) * self.y - z * self.tau
        self.target = (s == 0).astype(float)

    def psi(self, rows: slice = slice(None)) -> np.ndarray:
        """Per-unit residuals of the units in ``rows``, one row each."""
        m, theta0 = self.m, self.theta0
        cmat, p, zp = self.cmat[rows], self.p[rows], self.zp[rows]
        psi = np.zeros((len(cmat), len(self.nu)))
        psi[:, :m] = self.target[rows, None] * (cmat - theta0)
        psi[:, -1] = p * self.contrast[rows]
        for ind, g_rows, d_rows in self.blocks:
            ind = ind[rows]
            psi[:, g_rows] = (ind * p)[:, None] * cmat - np.outer(ind, theta0)
            psi[:, d_rows] = (ind * zp)[:, None] * cmat - np.outer(ind, theta0 / 2.0)
        return psi

    def jacobian(self) -> np.ndarray:
        """The residuals' analytic Jacobian, summed over all units."""
        m, cmat, k = self.m, self.cmat, len(self.nu)
        eye = np.eye(m)
        A = np.zeros((k, k))
        A[:m, :m] = -self.target.sum() * eye
        for ind, g_rows, d_rows in self.blocks:
            pg = ind * self.p
            zpg = ind * self.zp
            count = ind.sum()
            Mg = cmat.T @ (cmat * pg[:, None])
            Tg = cmat.T @ (cmat * zpg[:, None])
            A[g_rows, :m] = -count * eye
            A[g_rows, g_rows] = -Mg
            A[g_rows, d_rows] = -Tg
            A[d_rows, :m] = -(count / 2.0) * eye
            A[d_rows, g_rows] = -Tg
            A[d_rows, d_rows] = -Tg
            A[-1, g_rows] = -(pg * self.contrast) @ cmat
            A[-1, d_rows] = -(zpg * (self.y - self.tau)) @ cmat
        A[-1, -1] = -self.zp.sum()
        return A


def _check_solvable(A: np.ndarray) -> None:
    if not np.isfinite(A).all():
        raise SingularJacobianError("Jacobian contains non-finite entries")
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularJacobianError(f"Jacobian is numerically singular (cond {cond:.2e})")


def _sandwich_variance(dataset: Dataset, fits: Fits, duals: tuple, groups: tuple,
                       tau_hat: float) -> float:
    """Sandwich variance of tau_hat, one dual solution per calibrated group.

    Only the tau entry of A^-1 (psi' psi) A^-T is needed: with A' x = e_tau
    it equals ||psi x||^2. psi x is formed BLOCK_ROWS units at a time and
    its squares summed in one pass, so the SE has the bits the product of
    the whole psi gives.
    """
    c = fits.c
    gammas, deltas = zip(*(convert_dual(dual.eta, c.m) for dual in duals))
    nu = np.concatenate([fits.theta0, *gammas, *deltas, [tau_hat]])
    system = CalibrationSystem(c.c, dataset.s, dataset.z, dataset.y, nu, groups)
    A = system.jacobian()
    _check_solvable(A)
    e_tau = np.zeros(len(nu))
    e_tau[-1] = 1.0
    x = np.linalg.solve(A.T, e_tau)
    psi_x = np.empty(dataset.n)
    for start in range(0, dataset.n, data.BLOCK_ROWS):
        rows = slice(start, start + data.BLOCK_ROWS)
        psi_x[rows] = system.psi(rows) @ x
    return math.sqrt(float(np.sum(psi_x ** 2)))


def sandwich_variance_transport(dataset: Dataset, fits: Fits, estimate: TauEstimate) -> float:
    """Robust SE for the transport calibration estimator (3m+1 stack)."""
    return _sandwich_variance(dataset, fits, (fits.transport,), (1,), estimate.tau_hat)


def sandwich_variance_fusion(dataset: Dataset, fits: Fits, estimate: TauEstimate) -> float:
    """Robust SE for the data-fusion calibration estimator (5m+1 stack)."""
    return _sandwich_variance(dataset, fits, fits.fusion, (0, 1), estimate.tau_hat)


def influence_variance(dataset: Dataset, fits: Fits, estimate: TauEstimate) -> float:
    """Plug-in influence-function SE for the augmented and TMLE paths.

    Reads the estimate's sampling weights ``q`` and arm means ``mu0``,
    ``mu1`` (on every unit) from its nuisance. Study units contribute the
    q-weighted residual contrast scaled by n/n1; target units contribute the
    centered model contrast scaled by n/n0. The construction is an
    approximation (it takes the nuisance fits as fixed) and empirically errs
    conservative when models are misspecified.
    """
    try:
        q, mu0, mu1 = (estimate.nuisance[key] for key in ("q", "mu0", "mu1"))
    except KeyError:
        raise MissingComponentsError(
            f"influence variance not defined for {estimate.kind}") from None
    pi = fits.pi
    tau_hat = estimate.tau_hat
    study = dataset.s == 1
    target = dataset.s == 0
    n, n1, n0 = dataset.n, dataset.n_study, dataset.n_target
    z, y = dataset.observed(study)
    resid = z * (y - mu1[study]) / pi[study] - (1.0 - z) * (y - mu0[study]) / (1.0 - pi[study])
    d = np.zeros(n)
    d[study] = (n / n1) * q[study] * resid
    d[target] = (n / n0) * (mu1[target] - mu0[target] - tau_hat)
    return math.sqrt(float(np.mean(d ** 2)) / n)


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


def estimate_with_ci(dataset: Dataset, fits: Fits, *, kind: EstimatorKind,
                     level: float = 0.95) -> EstimateReport:
    """Compute a point estimate and the matching variance for its kind.

    Calibration estimators get the M-estimation sandwich; augmented and TMLE
    estimators the plug-in influence variance; the benchmark estimators a
    descriptive approximation. Pass one ``fits`` to every kind run on the
    same data (or on its transport view) to share its nuisance fits and
    solves.
    """
    est = compute_tau(dataset, kind, fits)
    if kind is EstimatorKind.CAL_T:
        variance, method = sandwich_variance_transport, "sandwich"
    elif kind is EstimatorKind.CAL_F:
        variance, method = sandwich_variance_fusion, "sandwich"
    elif kind in (EstimatorKind.TMLE, EstimatorKind.AUG_T, EstimatorKind.AUG_F):
        variance, method = influence_variance, "influence"
    else:
        variance, method = descriptive_variance, "influence"
    se = variance(dataset, fits, est)
    low, high = confidence_interval(est.tau_hat, se, level)
    return EstimateReport(tau_hat=est.tau_hat, se=se, ci_low=low, ci_high=high, kind=kind,
                          method=method, level=level, estimate=est)


def descriptive_variance(dataset: Dataset, fits: Fits, estimate: TauEstimate) -> float:
    """Approximate SEs for the benchmark estimators.

    UNADJ uses the Welch two-sample variance; CBPS a weighted Welch variance
    on effective sample sizes; GCOMP the outcome-regression delta method with
    HC0 coefficient covariances. ``estimate_with_ci`` labels all three
    method="influence": they are plug-in influence approximations outside the
    sandwich stack.
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
        cbar = fits.theta0
        z, y = dataset.observed(study)
        var = 0.0
        for arm, key in ((0, "fit0"), (1, "fit1")):
            mask = z == arm
            design = fits.c.c[study][mask]
            resid = y[mask] - design @ estimate.nuisance[key].coefficients
            xtx_inv = np.linalg.inv(design.T @ design)
            meat = design.T @ (design * (resid ** 2)[:, None])
            cov_beta = xtx_inv @ meat @ xtx_inv
            var += float(cbar @ cov_beta @ cbar)
        contrast = estimate.nuisance["mu1"][target] - estimate.nuisance["mu0"][target]
        var += float(np.sum((contrast - estimate.tau_hat) ** 2)) / dataset.n_target ** 2
    else:
        raise MissingComponentsError(f"no descriptive variance for {kind}")
    return math.sqrt(max(var, 0.0))
