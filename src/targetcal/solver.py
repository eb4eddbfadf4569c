"""Newton solver for exponential-tilting dual objectives and the constraint
assembly behind every calibration problem in the package.

All calibration weights here solve a primal program of the form

    minimize   sum_i (w_i log w_i - w_i)      over active units
    subject to sum_i a_i w_i = b,

whose Lagrangian dual reduces to the smooth convex minimization

    f(eta) = sum_i exp(-a_i . eta) + b . eta,

with implied weights w_i = exp(-a_i . eta). Stationarity of f is
exactly the primal constraint set, so a converged dual solution delivers
exact balance up to the residual tolerance.

Every problem is one assembly of blocks over c, each a set of units whose
weighted c-total must equal a target total, with its own duals: the study
sample (total n1 * theta0) for the sampling problem, and each treatment arm
of a sample (total |sample| * theta / 2) for transport, fusion and the
within-cohort benchmark. f is a sum over blocks, so they solve independently:
solve_entropy_dual runs one Newton loop per block, in turn.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import RANK_TOL, BalanceMatrix, _freeze, check_full_rank
from .errors import EmptyArmError, EmptyTargetError, NotConvergedError

# Stopping rule defaults. The gradient of the dual equals the signed
# constraint violation, so the per-coordinate relative gradient target
# directly bounds the balance error; a solution still counts as converged if
# the line search stalls anywhere at or below RESIDUAL_TOL.
GRAD_TOL = 1e-10
RESIDUAL_TOL = 1e-8
MAX_ITER = 500
# Relative tolerance of the Farkas infeasibility test in solve_entropy_dual.
FARKAS_TOL = 1e-9
# A row whose weight is below eps times the largest (a gap in a_i . eta of
# -log(eps), about 36) adds nothing to the float sums of the gradient and the
# Hessian; only the rows within the gap still carry weight.
UNDERFLOW_GAP = -math.log(np.finfo(float).eps)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EntropyProblem:
    """Blocks of constraints over the weight-carrying units.

    Each of ``blocks`` is (a, b), the m-column rows and m targets of one
    a^T w = b with its own m duals. ``active_rows`` maps the blocks' rows,
    in turn, back to unit indices out of ``n_units`` so the returned weight
    vector can be full length. ``b`` is every block's targets in turn.
    """

    blocks: tuple
    active_rows: np.ndarray
    n_units: int

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(
            (np.asarray(a, dtype=float), np.asarray(b, dtype=float)) for a, b in self.blocks))
        object.__setattr__(self, "active_rows", np.asarray(self.active_rows, dtype=np.intp))

    @property
    def b(self) -> np.ndarray:
        return np.concatenate([b for _, b in self.blocks])


@dataclass(frozen=True)
class DualSolution:
    """Dual vector, implied weights, and convergence metadata."""

    eta: np.ndarray
    weights: np.ndarray
    iterations: int
    constraint_residual: float

    def __post_init__(self):  # shared by every reader of a Fits: read-only
        for name in ("eta", "weights"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))


def _dual_point(a: np.ndarray, b: np.ndarray, eta: np.ndarray) -> tuple:
    """A block's term of f at its duals eta, centering the exponent so
    overflow surfaces as inf, and the point (u, min(u), b . eta) for
    u = a @ eta, which the derivatives and the certificate reuse. The largest
    exponent is -min(u), and min(u) - u is the centred exponent to the bit
    (negation is exact)."""
    u = a @ eta
    u_min = float(u.min())
    b_eta = float(b @ eta)
    if -u_min > 700.0:
        return float("inf"), (u, u_min, b_eta)
    centred = np.subtract(u_min, u)
    total = float(np.exp(-u_min)) * float(np.exp(centred, out=centred).sum())
    return total + b_eta, (u, u_min, b_eta)


def _dual_derivatives(a: np.ndarray, b: np.ndarray, eta: np.ndarray, point: tuple) -> tuple:
    """At a point of _dual_point: the block's gradient b - a^T w, a function
    forming its Hessian a^T diag(w) a, and (point, w), for the weights
    w = exp(-u). Weights that overflow, as at a guarded trial, make the
    gradient NaN (solve_entropy_dual runs under one np.errstate that keeps
    this silent)."""
    w = np.negative(point[0])
    np.exp(w, out=w)
    return b - a.T @ w, lambda: (a * w[:, None]).T @ a, (point, w)


def damped_newton(x: np.ndarray, objective, derivatives, stop, scale: np.ndarray,
                  max_iter: int) -> tuple:
    """Minimize a smooth convex f from x by damped Newton steps: the one loop
    of solve_entropy_dual and glm.fit_logistic.

    ``objective(x)`` returns f(x) (inf on overflow) and a point that
    ``derivatives(x, point)`` reuses; that returns the gradient, a function
    forming the Hessian and the state read by ``stop(x, state, grad)``, which
    is true at an answer. ``scale`` is the size of each gradient coordinate.
    The step is Newton's, the gradient scaled to unit max-norm if the solve
    fails, or steepest descent if it does not descend; it is halved up to 80
    times until Armijo's 1e-4 holds. Below f's float resolution the full step
    must shrink the largest scaled gradient coordinate instead. The run ends
    when no step is taken, or at the cap, which is checked after the
    derivatives: ``max_iter=0`` returns the gradient at x. Accepted trials
    hand on their point, so none is evaluated twice. Returns (x, state, grad,
    iterations, stopped).
    """
    f, point = objective(x)
    ahead = None  # the derivatives at x when a guarded step formed them
    for iterations in range(1, max_iter + 2):
        grad, hessian, state = ahead or derivatives(x, point)
        if iterations > max_iter:
            return x, state, grad, max_iter, False
        if stop(x, state, grad):
            return x, state, grad, iterations, True
        try:
            step = np.linalg.solve(hessian(), -grad)
            if not all(map(math.isfinite, step.tolist())):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            step = -grad / max(float(np.abs(grad).max()), 1.0)
        slope = float(grad @ step)
        if slope >= 0.0:
            step = -grad
            slope = -float(grad @ grad)
        if -slope <= 1e-11 * (1.0 + abs(f)):
            trial = x + step
            f_trial, point_trial = objective(trial)
            ahead = derivatives(trial, point_trial)
            # A NaN gradient, where the trial's weights overflow, compares false.
            if not (np.abs(ahead[0]) / scale).max() < (np.abs(grad) / scale).max():
                return x, state, grad, iterations, False
        else:
            ahead, t = None, 1.0
            for _ in range(80):
                trial = x + step if t == 1.0 else x + t * step  # 1.0 * step is step
                f_trial, point_trial = objective(trial)
                if math.isfinite(f_trial) and f_trial <= f + 1e-4 * t * slope:
                    break
                t *= 0.5
            else:
                return x, state, grad, iterations, False
        x, f, point = trial, f_trial, point_trial


def _solve_block(a: np.ndarray, b: np.ndarray, candidate) -> tuple:
    """One block's damped_newton from eta = 0 (unit weights), each iterate
    also tested for a Farkas certificate of an infeasible primal
    (_certificate): a unit vector d with a_i . d >= 0 on the block's rows and
    b . d < 0 on its targets (up to FARKAS_TOL, relative to the block's
    max|a| and ||b||_1), so that no w >= 0 meets them. The test moves no
    iterate, and a feasible block meets it only when b lies within the
    tolerances of the boundary of the cone of its rows. A ``candidate`` d is
    tested first; if it passes, no step is taken. Returns (eta, w, grad,
    iterations, d) at the last iterate, d the certificate or None.
    """
    scale = 1.0 + np.abs(b)
    # a_i . d may dip below zero by rounding, in proportion to the size of
    # the entries of a; b . d must be clearly negative on the scale of b.
    tolerances = (-FARKAS_TOL * float(np.abs(a).max()), -FARKAS_TOL * float(np.abs(b).sum()))
    found = [None]  # the last certificate tested; one that passes ends the run
    if candidate is not None:
        found[0] = _certificate(a, b, _dual_point(a, b, candidate)[1], candidate, *tolerances)

    def stop(eta, state, grad):
        # Every entry within the tolerance, which a NaN entry is not.
        if all(abs(g) / s <= GRAD_TOL for g, s in zip(grad.tolist(), scale.tolist())):
            return True
        found[0] = _certificate(a, b, state[0], eta, *tolerances)
        return found[0] is not None

    eta, (_, w), grad, iterations, _ = damped_newton(
        np.zeros(len(b)), partial(_dual_point, a, b), partial(_dual_derivatives, a, b), stop,
        scale, MAX_ITER if found[0] is None else 0)
    return eta, w, grad, iterations, found[0]


def solve_entropy_dual(problem: EntropyProblem, *, rank_check=None,
                       certificate=None) -> DualSolution:
    """Minimize the dual block by block, each by _solve_block, so a block's
    iterates are those of a solve of it alone.

    The first block that is certified, or that ends above RESIDUAL_TOL (at
    MAX_ITER, or where a step cannot be taken), ends the solve; no later
    block is evaluated. A block that ends at or below RESIDUAL_TOL counts as
    converged. A failed solve raises NotConvergedError about the failing
    block alone: its index ``block`` (the arm, or 0 for the sampling
    problem), its certificate ``direction`` over its m constraints or None,
    its own ``iterations``, and its ``worst_constraint``, the largest
    relative violation at its last iterate. A solution's ``iterations`` is
    the largest count of any block. Each solve that passes the rank check
    logs one DEBUG record on ``log``, its args a dict of k, n_active,
    iterations, grad_norm, constraint_residual, converged, block (the failing
    block, whose figures these are, or None) and eta (of the blocks that ran).

    ``rank_check``, when given, stands in for check_full_rank of each
    block's rows: a function raising the RankDeficientError of a caller's
    verdict on the same rows (``Fits`` holds one per row set).

    ``certificate``, when given, is a candidate d of length m that each block
    tests before its first step; a block it certifies fails at iteration 0.
    ``Fits`` passes a failed sampling solve's direction to the transport
    problem.
    """
    blocks = problem.blocks
    if not all(rows.ndim == 2 and len(rows) for rows, _ in blocks):
        raise EmptyArmError("entropy problem has no active rows")
    if rank_check is None:
        for rows, _ in blocks:
            check_full_rank(rows, "constraint matrix")
    else:
        rank_check()
    eta, weights, figures, failed = [], [], (0, 0.0, 0.0), None
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (a, b) in enumerate(blocks):
            x, w, grad, count, d = _solve_block(a, b, certificate)
            eta.append(x)
            weights.append(w)
            violation = np.abs(grad) / (1.0 + np.abs(b))
            own = (count, float(np.max(np.abs(grad))), float(np.max(violation)))
            # A NaN entry is above the tolerance too.
            if d is not None or not own[2] <= RESIDUAL_TOL:
                failed, figures = k, own
                break
            figures = tuple(map(max, figures, own))
    iterations, grad_norm, residual = figures
    eta = np.concatenate(eta)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("solve %s", {"k": len(problem.b), "n_active": len(problem.active_rows),
                               "iterations": iterations, "grad_norm": grad_norm,
                               "constraint_residual": residual, "converged": failed is None,
                               "block": failed, "eta": eta.tolist()})
    if failed is not None:
        where = f"block {failed} of {len(blocks)}"
        if d is None:
            message = (f"entropy dual did not converge in {where} after {iterations} iterations "
                       f"(relative residual {residual:.3e}); the primal is likely infeasible")
        else:
            j = int(np.argmax(np.abs(d)))
            message = (f"entropy dual is infeasible: Farkas certificate for {where} at iteration "
                       f"{iterations} (relative residual {residual:.3e}); constraint {j} carries "
                       f"the largest weight {d[j]:+.3f} in the certifying direction")
        raise NotConvergedError(message, worst_constraint=int(np.argmax(violation)),
                                direction=d, iterations=iterations, block=failed)
    full = np.zeros(problem.n_units)
    full[problem.active_rows] = np.concatenate(weights)
    return DualSolution(eta=eta, weights=full, iterations=iterations,
                        constraint_residual=residual)


def _certificate(a, b, point, eta, row_tol, b_tol):
    """A Farkas certificate at the iterate eta, or None.

    The first candidate is d = eta / ||eta||, tested on the point
    (u, min(u), b . eta) of _dual_point, u = a @ eta being the product the
    weights need. When b . eta < 0 but that test fails while some
    rows' weights have underflowed, the second is eta projected onto the
    orthogonal complement of the rows that still carry weight. Along an
    infeasible problem's diverging dual, eta = t d + r with r bounded, so
    a @ eta / ||eta|| approaches a @ d only like 1/t, and rows with
    a_i . d = 0 can sit just below zero for many iterations. Those are the
    rows within UNDERFLOW_GAP of the smallest a_i . eta. The projection keeps
    d and puts those rows at zero at once; it must pass the same test as
    eta / ||eta||, over every active row.
    """
    u, u_min, b_eta = point
    if b_eta >= 0.0:  # the cheap half of the test first
        return None
    eta_norm = math.sqrt(eta @ eta)
    if b_eta < b_tol * eta_norm and u_min >= row_tol * eta_norm:
        return eta / eta_norm
    # Every row within the gap: the largest u_i - u_min is max(u) - u_min,
    # as subtracting u_min rounds monotonically (and NaN fails both tests).
    if float(u.max()) - u_min <= UNDERFLOW_GAP:
        return None
    heavy = u - u_min <= UNDERFLOW_GAP
    # The heavy rows' span, cut off like the rank check of the full matrix.
    _, sv, vt = np.linalg.svd(a[heavy], full_matrices=False)
    basis = vt[sv > RANK_TOL * sv[0]]
    if basis.shape[0] == a.shape[1]:
        return None
    d = eta - basis.T @ (basis @ eta)
    d_norm = math.sqrt(d @ d)
    if d_norm == 0.0:
        return None
    d /= d_norm
    if float(b @ d) < b_tol and float((a @ d).min()) >= row_tol:
        return d
    return None


def _assemble(c: BalanceMatrix, rows: np.ndarray, theta, label: str,
              z: np.ndarray | None = None) -> EntropyProblem:
    """The one constraint assembly: blocks over c whose units' weighted
    c-totals add up to |rows| * theta. Without ``z`` it is one block, the
    units in ``rows``; with it, one block per treatment arm of those units,
    each with half the total, so the arms are balanced against each other
    and, together, against the moments theta."""
    if rows.size == 0:
        raise EmptyTargetError(f"{label} is empty")
    blocks = [rows]
    if z is not None:
        z_act = np.asarray(z, dtype=float)[rows]
        blocks = [rows[z_act == arm] for arm in (0.0, 1.0)]
        for arm, own in enumerate(blocks):
            if own.size == 0:
                raise EmptyArmError(f"{label} has no units with z={arm}")
    total = rows.size * np.asarray(theta, dtype=float) / len(blocks)
    return EntropyProblem(blocks=[(c.c[own], total) for own in blocks],
                          active_rows=np.concatenate(blocks), n_units=c.n)


def assemble_sampling(c: BalanceMatrix, s: np.ndarray, theta0) -> EntropyProblem:
    """Inverse-odds-of-sampling calibration: reweight the study sample so its
    weighted balance moments equal the target-sample totals n1 * theta0."""
    return _assemble(c, np.flatnonzero(np.asarray(s) == 1), theta0, "study sample")


def assemble_transport(c: BalanceMatrix, s: np.ndarray, z: np.ndarray, theta0) -> EntropyProblem:
    """Joint treatment-contrast and sampling calibration over the study sample:
    each study arm aimed at the target moments theta0."""
    return _assemble(c, np.flatnonzero(np.asarray(s) == 1), theta0, "study sample", z)


def assemble_fusion(c: BalanceMatrix, s: np.ndarray, z: np.ndarray, theta0) -> EntropyProblem:
    """The target-sample half of data fusion: each target arm aimed at theta0,
    the weight-stabilization constraint set with totals n0 * theta0 / 2 per
    arm. The study-sample half is the assemble_transport problem."""
    return _assemble(c, np.flatnonzero(np.asarray(s) == 0), theta0, "sample s=0", z)


def assemble_ate_benchmark(c: BalanceMatrix, z: np.ndarray) -> EntropyProblem:
    """Single-sample special case: balance the two arms against the
    full-sample balance means (totals n * theta_full / 2 per arm)."""
    return _assemble(c, np.arange(c.n), c.c.mean(axis=0), "sample", z)
