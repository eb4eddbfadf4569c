"""Variance estimation and confidence intervals.

The calibration estimators get an M-estimation sandwich built from one
stacked system of estimating equations over the calibrated groups (the
study sample for transport, both samples for data fusion): target moments,
one dual block per treatment arm of each group, effect. The augmented and
TMLE estimators get a plug-in influence-function variance. Every variance function maps
(dataset, fits, estimate) to a standard error: the data, its ``Fits``
context (balance matrix, target moments, nuisance fits and solves) and the
point estimate. ``estimate_with_ci`` builds the one normal interval.
Each group's duals enter the stack as the solver returns them
(``DualSolution.eta``, one m-vector per arm), so each dual block of the
stack is the solver's own gradient for one arm and its Jacobian block the
solver's Hessian block.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

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
    if not 0.0 <= se < math.inf:  # false for NaN too
        raise InvalidLevelError("standard error must be finite and nonnegative")
    zq = NormalDist().inv_cdf(0.5 + level / 2.0)
    return tau_hat - zq * se, tau_hat + zq * se


class CalibrationSystem:
    """Stacked estimating equations of a calibration estimator at nu.

    ``groups`` holds the calibrated sample labels: (1,) for transport,
    (0, 1) for data fusion. Parameter vector nu = (theta0, lambda_ga for g in
    groups and arm a in (0, 1), tau), length (2G + 1)m + 1 for G groups;
    (lambda_g0, lambda_g1) is the group's ``DualSolution.eta``, so unit i of
    group g and arm a has weight w_i = exp(-c_i . lambda_ga). A unit's
    residual has a target-moment block (c_i - theta0 on the target sample),
    one block per (group, arm), [z_i = a] w_i c_i - theta0 / 2 on the
    group's units, which sums to minus the solver's gradient for that arm
    and has its Hessian as minus its Jacobian, and the effect equation
    w_i ((2z_i - 1) y_i - z_i tau). Each block is formed on its own rows
    only, so unobserved target-sample values never enter. All blocks vanish
    at the fitted parameters: they restate the solver's converged constraints.

    ``jacobian`` is the residuals' analytic Jacobian, summed over all units;
    ``psi_dot(x)`` is the residual matrix times x, formed without the matrix.
    """

    def __init__(self, cmat: np.ndarray, s: np.ndarray, z: np.ndarray, y: np.ndarray,
                 nu: np.ndarray, groups: tuple):
        m, k = cmat.shape[1], len(nu)
        self.cmat, self.theta0 = cmat, nu[:m]
        self.target = s == 0
        eye = np.eye(m)
        A = np.zeros((k, k))
        A[:m, :m] = -np.count_nonzero(self.target) * eye
        # Per (group, arm): the group's units and the arm's (masks), the
        # arm's lambda in nu, and on the arm's rows its c, weights and effect
        # residuals.
        self.blocks = []
        for j, g in enumerate(groups):
            group = s == g
            for arm in (0, 1):
                rows = group & (z == arm)
                lam = slice((1 + 2 * j + arm) * m, (2 + 2 * j + arm) * m)
                c_own = cmat[rows]
                w = np.exp(-(c_own @ nu[lam]))
                effect = w * ((2 * arm - 1) * y[rows] - arm * nu[-1])
                A[lam, lam] = -(c_own.T @ (c_own * w[:, None]))
                A[lam, :m] = -np.count_nonzero(group) / 2.0 * eye
                A[-1, lam] = -effect @ c_own
                A[-1, -1] -= arm * w.sum()
                self.blocks.append((group, rows, lam, c_own, w, effect))
        self.jacobian = A

    def psi_dot(self, x: np.ndarray) -> np.ndarray:
        """psi @ x for the residual matrix psi: one entry per unit."""
        cmat, theta0, m = self.cmat, self.theta0, len(self.theta0)
        out = np.zeros(len(cmat))
        out[self.target] = (cmat @ x[:m])[self.target] - theta0 @ x[:m]
        for group, rows, lam, c_own, w, effect in self.blocks:
            out[group] -= theta0 @ x[lam] / 2.0
            out[rows] += w * (c_own @ x[lam]) + effect * x[-1]
        return out


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
    it equals ||psi x||^2.
    """
    nu = np.concatenate([fits.theta0, *(dual.eta for dual in duals), [tau_hat]])
    system = CalibrationSystem(fits.c.c, dataset.s, dataset.z, dataset.y, nu, groups)
    _check_solvable(system.jacobian)
    e_tau = np.zeros(len(nu))
    e_tau[-1] = 1.0
    x = np.linalg.solve(system.jacobian.T, e_tau)
    return float(np.linalg.norm(system.psi_dot(x)))


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
