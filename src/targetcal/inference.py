"""Variance estimation and confidence intervals.

The calibration estimators get an M-estimation sandwich built from one
stacked system of estimating equations over the calibrated groups (the
study sample for transport, both samples for data fusion): target moments,
one dual block per group, effect. The augmented and TMLE estimators get a
plug-in influence-function variance. Every variance function maps
(dataset, fits, estimate) to a standard error: the data, its ``Fits``
context (balance matrix, target moments, nuisance fits and solves) and the
point estimate. ``estimate_with_ci`` builds the one normal interval.
Each group's duals enter the stack as the solver returns them
(``DualSolution.eta``), so the dual block of the stack is the solver's own
gradient and its Jacobian block the solver's Hessian.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from . import data
from .data import Dataset
from .errors import (
    InvalidLevelError,
    MissingComponentsError,
    NonFiniteError,
    SingularJacobianError,
)
from .estimators import EstimatorKind, Fits, TauEstimate, compute_tau


def confidence_interval(tau_hat: float, se: float, level: float) -> tuple[float, float]:
    """Symmetric normal-quantile interval tau_hat +/- z * se."""
    if not 0.0 < level < 1.0:
        raise InvalidLevelError("confidence level must lie in (0, 1)")
    if se < 0:
        raise InvalidLevelError("standard error must be nonnegative")
    zq = NormalDist().inv_cdf(0.5 + level / 2.0)
    return tau_hat - zq * se, tau_hat + zq * se


class CalibrationSystem:
    """Stacked estimating equations of a calibration estimator at nu.

    ``groups`` holds the calibrated sample labels: (1,) for transport,
    (0, 1) for data fusion. Parameter vector nu = (theta0, eta_g for g in
    groups, tau), length (2G + 1)m + 1 for G groups, where eta_g is the
    group's ``DualSolution.eta``: unit i of group g has the solver's row
    a_i = [(2z_i - 1) c_i, c_i] and weight w_i = exp(-a_i . eta_g).
    Columns of the residual matrix: target-moment block, one dual block per
    group, effect equation. A unit's dual block is its term of the solver's
    gradient, w_i a_i - [0, theta0], so the block sums to minus that
    gradient and its Jacobian is minus the solver's Hessian sum_i w_i a_i
    a_i'. Treatment and outcome are zeroed outside the calibrated groups, so
    unobserved target-sample values never enter. All blocks vanish at the
    fitted parameters because they restate the solver's converged
    constraints.

    The per-unit terms are computed once; ``psi`` builds the residual rows
    of any slice of units from them and ``jacobian`` sums them over all.
    """

    def __init__(self, cmat: np.ndarray, s: np.ndarray, z: np.ndarray, y: np.ndarray,
                 nu: np.ndarray, groups: tuple):
        m = cmat.shape[1]
        self.cmat, self.nu, self.m = cmat, nu, m
        self.theta0, self.tau = nu[:m], nu[-1]
        s = np.asarray(s, dtype=float)
        calibrated = np.isin(s, groups)
        self.z = np.where(calibrated, z, 0.0)
        self.sign = 2.0 * self.z - 1.0
        # Per group: unit indicator, then the arm-contrast and calibration
        # halves of its eta in nu.
        self.blocks = [(s == g, slice((1 + 2 * j) * m, (2 + 2 * j) * m),
                        slice((2 + 2 * j) * m, (3 + 2 * j) * m))
                       for j, g in enumerate(groups)]
        self.weights = np.zeros(len(s))
        for ind, arm, cal in self.blocks:
            c_own = cmat[ind]
            self.weights[ind] = np.exp(-(self.sign[ind] * (c_own @ nu[arm]) + c_own @ nu[cal]))
        self.contrast = self.sign * np.where(calibrated, y, 0.0) - self.z * self.tau
        self.target = (s == 0).astype(float)

    def psi(self, rows: slice = slice(None)) -> np.ndarray:
        """Per-unit residuals of the units in ``rows``, one row each."""
        m, theta0 = self.m, self.theta0
        cmat, w = self.cmat[rows], self.weights[rows]
        psi = np.zeros((len(cmat), len(self.nu)))
        psi[:, :m] = self.target[rows, None] * (cmat - theta0)
        psi[:, -1] = w * self.contrast[rows]
        for ind, arm, cal in self.blocks:
            ind = ind[rows]
            wc = (ind * w)[:, None] * cmat
            psi[:, arm] = self.sign[rows, None] * wc
            psi[:, cal] = wc - np.outer(ind, theta0)
        return psi

    def jacobian(self) -> np.ndarray:
        """The residuals' analytic Jacobian, summed over all units."""
        m, cmat, k = self.m, self.cmat, len(self.nu)
        eye = np.eye(m)
        A = np.zeros((k, k))
        A[:m, :m] = -self.target.sum() * eye
        for ind, arm, cal in self.blocks:
            wg = ind * self.weights
            swg = self.sign * wg
            # The Hessian's blocks: sum w c c' on the diagonal, sum w (2z-1) c c' off it.
            same = -(cmat.T @ (cmat * wg[:, None]))
            cross = -(cmat.T @ (cmat * swg[:, None]))
            A[cal, :m] = -ind.sum() * eye
            A[arm, arm] = A[cal, cal] = same
            A[arm, cal] = A[cal, arm] = cross
            A[-1, arm] = -(swg * self.contrast) @ cmat
            A[-1, cal] = -(wg * self.contrast) @ cmat
        A[-1, -1] = -(self.z * self.weights).sum()
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
    nu = np.concatenate([fits.theta0, *(dual.eta for dual in duals), [tau_hat]])
    system = CalibrationSystem(fits.c.c, dataset.s, dataset.z, dataset.y, nu, groups)
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


def estimate_with_ci(dataset: Dataset, fits: Fits, *, kind: EstimatorKind,
                     level: float = 0.95) -> TauEstimate:
    """Compute a point estimate and fill in the matching variance for its kind.

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
    with np.errstate(over="ignore", invalid="ignore"):
        est.se = variance(dataset, fits, est)
    if not (math.isfinite(est.tau_hat) and math.isfinite(est.se)):
        raise NonFiniteError(f"{kind.value} estimate is not finite: tau_hat {est.tau_hat!r}, "
                             f"se {est.se!r}")
    est.ci_low, est.ci_high = confidence_interval(est.tau_hat, est.se, level)
    est.method = method
    return est


def descriptive_variance(dataset: Dataset, fits: Fits, estimate: TauEstimate) -> float:
    """Approximate SEs for the benchmark estimators.

    UNADJ and CBPS use a weighted Welch variance on effective sample sizes
    (with UNADJ's unit weights, the plain Welch variance); GCOMP the
    outcome-regression delta method with HC0 coefficient covariances.
    ``estimate_with_ci`` labels all three method="influence": they are
    plug-in influence approximations outside the sandwich stack.
    """
    kind = estimate.kind
    if kind in (EstimatorKind.UNADJ, EstimatorKind.CBPS):
        z, y = estimate.nuisance["z"], estimate.nuisance["y"]
        w = np.ones(len(y)) if estimate.weights_used is None else estimate.weights_used
        var = _weighted_welch_variance(y, z, w)
    elif kind is EstimatorKind.GCOMP:
        target = dataset.s == 0
        study = dataset.s == 1
        z, y = dataset.observed(study)
        var = 0.0
        for arm, key in ((0, "fit0"), (1, "fit1")):
            mask = z == arm
            design = fits.c.c[study][mask]
            resid = y[mask] - design @ estimate.nuisance[key].coefficients
            # theta0' (X'X)^-1 X' diag(r^2) X (X'X)^-1 theta0 = sum (h r)^2, where
            # h = X (X'X)^-1 theta0 is the minimum-norm solution of X' h = theta0.
            h = np.linalg.lstsq(design.T, fits.theta0, rcond=None)[0]
            var += float(np.sum((h * resid) ** 2))
        contrast = estimate.nuisance["mu1"][target] - estimate.nuisance["mu0"][target]
        var += float(np.sum((contrast - estimate.tau_hat) ** 2)) / dataset.n_target ** 2
    else:
        raise MissingComponentsError(f"no descriptive variance for {kind}")
    return math.sqrt(max(var, 0.0))
