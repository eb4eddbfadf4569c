"""Minimal generalized-linear-model fitting for the nuisance models:
logistic scores, fractional-logistic outcome fits on a standardized scale,
and least squares for outcome means.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import check_full_rank
from .errors import DimensionMismatchError, NonFiniteError, OutOfRangeError
from .solver import damped_newton

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
    """Logistic function from one e = exp(-|x|), so neither branch overflows;
    -|x| is taken as min(x, -x), which keeps the sign of a NaN."""
    x = np.asarray(x, dtype=float)
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def clip_probability(p: np.ndarray) -> np.ndarray:
    return np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)


@dataclass(frozen=True)
class GlmFit:
    """Coefficients and how the fit ended; ``predict`` gives fitted values."""

    coefficients: np.ndarray
    family: str
    converged: bool
    separated: bool = False


def _design_matrix(design, what: str) -> np.ndarray:
    """The design as a float array; one that is not two-dimensional, or has
    no column, is a DimensionMismatchError."""
    design = np.asarray(design, dtype=float)
    if design.ndim != 2:
        raise DimensionMismatchError(
            f"{what} must be two-dimensional, not {design.ndim}-dimensional")
    if not design.shape[1]:
        raise DimensionMismatchError(f"{what} has no columns")
    return design


def fit_logistic(design: np.ndarray, y: np.ndarray, offset: np.ndarray | None = None, *,
                 rank_check=None) -> GlmFit:
    """Bernoulli quasi-likelihood fit: solver.damped_newton on the negative
    quasi-log-likelihood, unclipped so that its gradient is the score.

    Accepts fractional responses in [0, 1] (NaN is a NonFiniteError, a value
    outside an OutOfRangeError) and an optional fixed offset of shape (n,),
    added to the linear predictor (another shape is a DimensionMismatchError,
    NaN or infinity a NonFiniteError). The fit has converged when every score
    entry is within its tolerance. A diverging fit (coefficient max-norm above
    SEPARATION_NORM) is reported as separated and truncated. ``rank_check``,
    when given, stands in for check_full_rank of the design (see
    solver.solve_entropy_dual).
    """
    design = _design_matrix(design, "logistic design")
    y = np.asarray(y, dtype=float)
    n, p = design.shape
    if y.shape != (n,):
        raise DimensionMismatchError("response length does not match design")
    if not ((y >= 0.0) & (y <= 1.0)).all():  # false for NaN too
        if np.isnan(y).any():
            raise NonFiniteError("logistic responses contain NaN")
        raise OutOfRangeError("logistic responses must lie in [0, 1]")
    if offset is not None:
        offset = np.asarray(offset, dtype=float)
        if offset.shape != (n,):
            raise DimensionMismatchError("offset length does not match design")
        if not np.isfinite(offset).all():
            raise NonFiniteError("logistic offset contains NaN or infinity")
    if rank_check is None:
        check_full_rank(design, "logistic design")
    else:
        rank_check()
    # Per-coefficient score tolerance: 1e-9 absolute, raised to what float
    # rounding of the score sum leaves reachable at large n. The column sums
    # are a dot product with ones: np.sum rounds some of them differently.
    score_tol = np.maximum(1e-9, 1e-12 * (np.ones(n) @ np.abs(design)))
    tolerances = score_tol.tolist()

    # softplus(lp) - y lp from expit's one exp; the mean is the point's state.
    def objective(beta):
        lp = design @ beta
        if offset is not None:
            lp += offset
        e = np.negative(lp)
        np.exp(np.minimum(lp, e, out=e), out=e)
        mu = np.where(lp >= 0, 1.0, e)
        mu /= e + 1.0
        total = np.maximum(lp, 0.0)
        total += np.log1p(e, out=e)
        total -= np.multiply(y, lp, out=lp)
        return float(total.sum()), mu

    def derivatives(beta, mu):
        return (design.T @ (mu - y),
                lambda: (design * (mu * (1.0 - mu))[:, None]).T @ design, mu)

    def stop(beta, _, grad):
        # A NaN coefficient or score entry fails both tests, as under numpy's max and all.
        return (_separated(beta) or
                all(abs(g) <= tol for g, tol in zip(grad.tolist(), tolerances)))

    beta, _, _, _, stopped = damped_newton(np.zeros(p), objective, derivatives, stop,
                                           score_tol, MAX_IRLS_ITER)
    separated = _separated(beta)
    if separated:
        warnings.warn(
            "logistic fit appears separated; coefficients truncated",
            RuntimeWarning,
            stacklevel=2,
        )
    return GlmFit(
        coefficients=beta,
        family="logistic",
        converged=stopped and not separated,
        separated=separated,
    )


def _separated(beta: np.ndarray) -> bool:
    """Coefficient max-norm above SEPARATION_NORM; false when any entry is
    NaN, as np.abs(beta).max() compares then."""
    sizes = [abs(b) for b in beta.tolist()]
    return max(sizes) > SEPARATION_NORM and not any(map(math.isnan, sizes))


def fit_linear(design: np.ndarray, y: np.ndarray, *, rank_check=None) -> GlmFit:
    """Ordinary least squares (lstsq). Coefficients that are not finite, as
    from a response with NaN or infinity, are a NonFiniteError;
    ``rank_check`` is as in fit_logistic."""
    design = _design_matrix(design, "linear design")
    y = np.asarray(y, dtype=float)
    if y.shape != (design.shape[0],):
        raise DimensionMismatchError("response length does not match design")
    if rank_check is None:
        check_full_rank(design, "linear design")
    else:
        rank_check()
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    if not all(map(math.isfinite, beta.tolist())):
        cause = "" if np.isfinite(y).all() else ": the response holds NaN or infinity"
        raise NonFiniteError(f"linear fit coefficients are not finite{cause}")
    return GlmFit(coefficients=beta, family="linear", converged=True)


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
