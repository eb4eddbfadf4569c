"""Variance estimation and confidence intervals.

The calibration estimators get an M-estimation sandwich built from one
stacked system of estimating equations over the calibrated groups (the
study sample for transport, both samples for data fusion): target moments,
one dual block per treatment arm of each group, effect. GCOMP, TMLE and
the augmented estimators get a plug-in influence-function variance from the
influence terms their point estimates keep. Every variance function maps
(dataset, fits, estimate) to a standard error: the data, its ``Fits``
context (balance matrix, target moments, nuisance fits and solves) and the
point estimate. ``estimate_with_ci`` builds the one normal interval.
Each group's duals enter the stack as the solver returns them
(``DualSolution.eta``, one m-vector per arm), so each dual block of the
stack is the solver's own gradient for one arm and its Jacobian block the
solver's Hessian block. The stacked Jacobian is block lower-triangular, so
the sandwich's tau entry comes by back-substitution, one m x m solve per
arm Hessian, and the Jacobian itself is never formed. There is no
condition-number gate: an arm Hessian is singular only on rank-deficient
rows, which ``Fits.arms_full_rank`` refuses before the solve.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .data import Dataset, effective_sample_size
from .errors import InvalidLevelError, MissingComponentsError, NonFiniteError
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

    ``blocks`` holds, per (group, arm) in the order of nu (arm 0 first),
    the group's and the arm's unit masks, the arm's slice of nu, and on the
    arm's rows its c, weights and effect residuals. ``psi_dot(x)`` is the
    residual matrix times x, formed without the matrix.
    """

    def __init__(self, cmat: np.ndarray, s: np.ndarray, z: np.ndarray, y: np.ndarray,
                 nu: np.ndarray, groups: tuple):
        m = cmat.shape[1]
        self.cmat, self.theta0 = cmat, nu[:m]
        self.target = s == 0
        self.blocks = []
        for j, g in enumerate(groups):
            group = s == g
            for arm in (0, 1):
                rows = group & (z == arm)
                lam = slice((1 + 2 * j + arm) * m, (2 + 2 * j + arm) * m)
                c_own = cmat[rows]
                w = np.exp(-(c_own @ nu[lam]))
                effect = w * ((2 * arm - 1) * y[rows] - arm * nu[-1])
                self.blocks.append((group, rows, lam, c_own, w, effect))

    def psi_dot(self, x: np.ndarray) -> np.ndarray:
        """psi @ x for the residual matrix psi: one entry per unit."""
        cmat, theta0, m = self.cmat, self.theta0, len(self.theta0)
        out = np.zeros(len(cmat))
        out[self.target] = (cmat @ x[:m])[self.target] - theta0 @ x[:m]
        for group, rows, lam, c_own, w, effect in self.blocks:
            out[group] -= theta0 @ x[lam] / 2.0
            out[rows] += w * (c_own @ x[lam]) + effect * x[-1]
        return out


def _sandwich_variance(dataset: Dataset, fits: Fits, duals: tuple, groups: tuple,
                       tau_hat: float) -> float:
    """Sandwich variance of tau_hat, one dual solution per calibrated group.

    Only the tau entry of A^-1 (psi' psi) A^-T is needed: with A' x = e_tau
    it equals ||psi x||^2. The Jacobian A is block lower-triangular in the
    order (theta0, lambda per (group, arm), tau): its theta0 block is
    -n0 I, each lambda block -H on the diagonal (H = c' diag(w) c, the
    solver's Hessian for that arm) and -(n_g / 2) I under theta0, and the
    tau row holds -(effect' c) per arm and -sum(w) over the treated arms.
    So A' x = e_tau solves by back-substitution, one m x m solve per arm,
    without forming A (Stefanski and Boos, "The calculus of M-estimation",
    Am. Stat. 56, 2002).
    """
    nu = np.concatenate([fits.theta0, *(dual.eta for dual in duals), [tau_hat]])
    system = CalibrationSystem(fits.c.c, dataset.s, dataset.z, dataset.y, nu, groups)
    m = len(fits.theta0)
    x = np.zeros(len(nu))
    x[-1] = -1.0 / sum(w.sum() for *_, w, _ in system.blocks[1::2])
    for group, _, lam, c_own, w, effect in system.blocks:
        hessian = c_own.T @ (c_own * w[:, None])
        x[lam] = np.linalg.solve(hessian, -(effect @ c_own) * x[-1])
        x[:m] -= np.count_nonzero(group) / 2.0 * x[lam]
    x[:m] /= np.count_nonzero(system.target)
    return float(np.linalg.norm(system.psi_dot(x)))


def sandwich_variance_transport(dataset: Dataset, fits: Fits, estimate: TauEstimate) -> float:
    """Robust SE for the transport calibration estimator (3m+1 stack)."""
    return _sandwich_variance(dataset, fits, (fits.transport,), (1,), estimate.tau_hat)


def sandwich_variance_fusion(dataset: Dataset, fits: Fits, estimate: TauEstimate) -> float:
    """Robust SE for the data-fusion calibration estimator (5m+1 stack)."""
    return _sandwich_variance(dataset, fits, fits.fusion, (0, 1), estimate.tau_hat)


def influence_variance(dataset: Dataset, fits: Fits, estimate: TauEstimate) -> float:
    """Plug-in influence-function SE for GCOMP, TMLE and the augmented paths.

    Reads from the estimate's nuisance the study units' influence terms
    ``phi`` and the arm means ``mu0``, ``mu1`` (on every unit). Study units
    contribute phi scaled by n/n1; target units contribute the centered
    model contrast scaled by n/n0. The construction is an approximation (it
    takes the nuisance fits as fixed) and empirically errs conservative when
    models are misspecified.
    """
    try:
        phi, mu0, mu1 = (estimate.nuisance[key] for key in ("phi", "mu0", "mu1"))
    except KeyError:
        raise MissingComponentsError(
            f"influence variance not defined for {estimate.kind}") from None
    target = dataset.s == 0
    n, n1, n0 = dataset.n, dataset.n_study, dataset.n_target
    d = np.zeros(n)
    d[dataset.s == 1] = (n / n1) * phi
    d[target] = (n / n0) * (mu1[target] - mu0[target] - estimate.tau_hat)
    return math.sqrt(float(np.mean(d ** 2)) / n)


def descriptive_variance(dataset: Dataset, fits: Fits, estimate: TauEstimate) -> float:
    """Approximate SE for the benchmark estimators UNADJ and CBPS: a
    weighted Welch variance on effective sample sizes over the cohort's
    ``z`` and ``y`` in the nuisance, under the estimate's weights (UNADJ
    keeps none: with unit weights, the plain Welch variance).
    ``estimate_with_ci`` labels it method="influence": a plug-in
    approximation outside the sandwich stack.
    """
    try:
        z, y = estimate.nuisance["z"], estimate.nuisance["y"]
    except KeyError:
        raise MissingComponentsError(
            f"descriptive variance not defined for {estimate.kind}") from None
    w = np.ones(len(y)) if estimate.weights_used is None else estimate.weights_used
    var = 0.0
    for arm in (0, 1):
        mask = z == arm
        wa, ya = w[mask], y[mask]
        mean = np.average(ya, weights=wa)
        ess = effective_sample_size(wa)
        var += np.average((ya - mean) ** 2, weights=wa) / max(ess - 1.0, 1.0)
    return math.sqrt(var)


def estimate_with_ci(dataset: Dataset, fits: Fits, *, kind: EstimatorKind,
                     level: float = 0.95) -> TauEstimate:
    """Compute a point estimate and fill in the matching variance for its kind.

    Calibration estimators get the M-estimation sandwich; GCOMP, TMLE and
    the augmented estimators the plug-in influence variance; the benchmark
    estimators UNADJ and CBPS a descriptive approximation. Pass one ``fits``
    to every kind run on the same data (or on its transport view) to share
    its nuisance fits and solves.
    """
    est = compute_tau(dataset, kind, fits)
    if kind is EstimatorKind.CAL_T:
        variance, method = sandwich_variance_transport, "sandwich"
    elif kind is EstimatorKind.CAL_F:
        variance, method = sandwich_variance_fusion, "sandwich"
    elif kind in (EstimatorKind.UNADJ, EstimatorKind.CBPS):
        variance, method = descriptive_variance, "influence"
    else:
        variance, method = influence_variance, "influence"
    with np.errstate(over="ignore", invalid="ignore"):
        est.se = variance(dataset, fits, est)
    if not (math.isfinite(est.tau_hat) and math.isfinite(est.se)):
        raise NonFiniteError(f"{kind.value} estimate is not finite: tau_hat {est.tau_hat!r}, "
                             f"se {est.se!r}")
    est.ci_low, est.ci_high = confidence_interval(est.tau_hat, est.se, level)
    est.method = method
    return est
