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
The sandwich reads each (group, arm) block of the stack straight from the
group's ``DualSolution``: the arm's rows and the solver's own weights on
them, so each dual block is the solver's gradient for one arm and its
Jacobian block the solver's Hessian. The stacked Jacobian is block
lower-triangular, so the sandwich's tau entry comes by back-substitution,
one m x m solve per arm Hessian, and neither the Jacobian nor the stacked
parameter vector is ever formed; ``tests/conftest.py`` keeps the stacked
system at an arbitrary parameter as the reference the tests check against.
There is no condition-number gate: an arm Hessian is singular only on
rank-deficient rows, which ``Fits.arms_full_rank`` refuses before the solve.
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


def _sandwich_variance(dataset: Dataset, fits: Fits, duals: tuple, groups: tuple,
                       tau_hat: float) -> float:
    """Sandwich variance of tau_hat, one dual solution per calibrated group.

    The stack (theta0, lambda per (group, arm), tau) has per unit a
    target-moment block c_i - theta0 on the target sample, per (group, arm)
    a block [z_i = a] w_i c_i - theta0 / 2 on the group's units, w the
    solver's weights, and the effect equation w_i ((2 z_i - 1) y_i - z_i tau).
    Each block reads its arm's rows only, so unobserved target-sample values
    never enter. With A' x = e_tau, the variance is ||psi x||^2. A is block
    lower-triangular: -n0 I for theta0; per arm -H on the diagonal (H =
    c' diag(w) c, the solver's Hessian) and -(n_g / 2) I under theta0; in
    the tau row -(effect' c) per arm and -sum(w) over the treated arms. So
    x comes by back-substitution, one m x m solve per arm (Stefanski and
    Boos, "The calculus of M-estimation", Am. Stat. 56, 2002). psi x is
    summed per unit in the stack's order: target term, then per arm the
    group's and the rows' terms.
    """
    c, theta0 = fits.c.c, fits.theta0
    target = dataset.s == 0
    blocks = []  # (group, rows, c, w, effect) per (group, arm), arm 0 first
    for dual, g in zip(duals, groups):
        group = dataset.s == g
        for arm in (0, 1):
            rows = group & (dataset.z == arm)
            w = dual.weights.compress(rows)  # as w[rows], at a quarter of its cost
            effect = w * ((2 * arm - 1) * dataset.y[rows] - arm * tau_hat)
            blocks.append((group, rows, c[rows], w, effect))
    x_tau = -1.0 / sum(w.sum() for *_, w, _ in blocks[1::2])
    x_lams = [np.linalg.solve(c_own.T @ (c_own * w[:, None]), -(effect @ c_own) * x_tau)
              for *_, c_own, w, effect in blocks]
    x_theta = np.zeros(len(theta0))
    for (group, *_), x_lam in zip(blocks, x_lams):
        x_theta -= np.count_nonzero(group) / 2.0 * x_lam
    x_theta /= np.count_nonzero(target)
    psi_x = np.zeros(dataset.n)
    psi_x[target] = (c @ x_theta)[target] - theta0 @ x_theta
    for (group, rows, c_own, w, effect), x_lam in zip(blocks, x_lams):
        psi_x[group] -= theta0 @ x_lam / 2.0
        psi_x[rows] += w * (c_own @ x_lam) + effect * x_tau
    return float(np.linalg.norm(psi_x))


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
