"""Minimal generalized-linear-model fitting for the nuisance models:
logistic scores, fractional-logistic outcome fits on a standardized scale,
and weighted least squares for outcome means.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import check_full_rank
from .errors import DimensionMismatchError

# Fitted and predicted probabilities are clipped to this open interval
# everywhere, which keeps clever-covariate ratios finite.
PROB_CLIP = 1e-6

# Coefficient max-norm beyond which a logistic fit is declared separated;
# the fit is truncated and flagged rather than aborted.
SEPARATION_NORM = 1e3

MAX_IRLS_ITER = 100


def logit(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    return np.log(p / (1.0 - p))


def expit(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def clip_probability(p: np.ndarray) -> np.ndarray:
    return np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)


@dataclass(frozen=True)
class GlmFit:
    """Coefficients plus the fitted values stored at fit time."""

    coefficients: np.ndarray
    family: str
    converged: bool
    fitted: np.ndarray
    separated: bool = False


def _quasi_loglik(y, mu, w) -> float:
    mu = clip_probability(mu)
    return float(np.sum(w * (y * np.log(mu) + (1.0 - y) * np.log(1.0 - mu))))


def fit_logistic(
    design: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray | None = None,
    offset: np.ndarray | None = None,
) -> GlmFit:
    """Weighted Bernoulli quasi-likelihood fit by Newton scoring.

    Accepts fractional responses in [0, 1] and an optional fixed offset added
    to the linear predictor. Step-halving keeps the quasi-deviance
    non-increasing. A diverging fit (coefficient max-norm above 1e3) is
    reported as separated and truncated.
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = design.shape
    if y.shape != (n,):
        raise DimensionMismatchError("response length does not match design")
    if np.any((y < 0) | (y > 1)):
        raise ValueError("logistic responses must lie in [0, 1]")
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    o = np.zeros(n) if offset is None else np.asarray(offset, dtype=float)
    check_full_rank(design * np.sqrt(w)[:, None], "logistic design")
    # Per-coefficient score tolerance: 1e-9 absolute, raised to what float
    # rounding of the score sum leaves reachable at large n.
    score_tol = np.maximum(1e-9, 1e-12 * (w @ np.abs(design)))

    beta = np.zeros(p)
    ll = _quasi_loglik(y, expit(o), w)
    converged = False
    separated = False
    for _ in range(MAX_IRLS_ITER):
        lp = design @ beta + o
        mu = expit(lp)
        score = design.T @ (w * (y - mu))
        if np.all(np.abs(score) <= score_tol):
            converged = True
            break
        info = (design * (w * mu * (1.0 - mu))[:, None]).T @ design
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            step = score
        t = 1.0
        for _ in range(40):
            trial = beta + t * step
            ll_trial = _quasi_loglik(y, expit(design @ trial + o), w)
            if ll_trial >= ll - 1e-12:
                beta, ll = trial, ll_trial
                break
            t *= 0.5
        else:
            break
        if np.max(np.abs(beta)) > SEPARATION_NORM:
            separated = True
            warnings.warn(
                "logistic fit appears separated; coefficients truncated",
                RuntimeWarning,
                stacklevel=2,
            )
            break
    fitted = clip_probability(expit(design @ beta + o))
    return GlmFit(
        coefficients=beta,
        family="logistic",
        converged=converged and not separated,
        fitted=fitted,
        separated=separated,
    )


def fit_linear(
    design: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray | None = None,
) -> GlmFit:
    """Weighted least squares via the scaled normal equations (lstsq)."""
    design = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    n, _ = design.shape
    if y.shape != (n,):
        raise DimensionMismatchError("response length does not match design")
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    sw = np.sqrt(w)
    check_full_rank(design * sw[:, None], "linear design")
    beta, *_ = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
    fitted = design @ beta
    return GlmFit(coefficients=beta, family="linear", converged=True, fitted=fitted)


def predict(fit: GlmFit, design: np.ndarray) -> np.ndarray:
    """Linear predictor through the family's inverse link.

    Logistic predictions are clipped to [PROB_CLIP, 1 - PROB_CLIP].
    """
    design = np.asarray(design, dtype=float)
    if design.ndim != 2 or design.shape[1] != fit.coefficients.shape[0]:
        raise DimensionMismatchError(
            f"design has {design.shape[1] if design.ndim == 2 else 'bad'} columns, "
            f"fit expects {fit.coefficients.shape[0]}"
        )
    lp = design @ fit.coefficients
    if fit.family == "logistic":
        return clip_probability(expit(lp))
    return lp
