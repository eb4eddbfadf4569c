"""Newton solver for exponential-tilting dual objectives and the constraint
assemblies behind every calibration problem in the package.

All calibration weights here solve a primal program of the form

    minimize   sum_i (w_i log w_i - w_i)      over active units
    subject to sum_i a_i w_i = b,

whose Lagrangian dual reduces to the smooth convex minimization

    f(eta) = sum_i exp(-a_i . eta) + b . eta,

with implied weights w_i = exp(-a_i . eta). Stationarity of f is
exactly the primal constraint set, so a converged dual solution delivers
exact balance up to the residual tolerance.

Every arm-balancing problem (transport, each sample of data fusion, the
within-cohort benchmark) comes from one assembly over a group of units:
rows [(2z-1) c_i, c_i] with targets [0, |group| * theta]. Only the group
and theta differ between them; the sampling problem keeps the c_i block
alone.
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
    """Signed constraint matrix over the weight-carrying units.

    ``a`` has one row per active unit; ``b`` holds the constraint targets;
    ``active_rows`` maps rows of ``a`` back to unit indices out of ``n_units``
    so the returned weight vector can be full length.
    """

    a: np.ndarray
    b: np.ndarray
    active_rows: np.ndarray
    n_units: int

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        object.__setattr__(self, "active_rows", np.asarray(self.active_rows, dtype=np.intp))


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


def _dual_point(problem: EntropyProblem, eta: np.ndarray) -> tuple:
    """f(eta), centering the exponent so overflow surfaces as inf, and the
    point (u, min(u), b . eta) for u = a @ eta, which the derivatives and the
    certificate reuse. The largest exponent is -min(u), and min(u) - u is the
    centred exponent to the bit (negation is exact)."""
    u = problem.a @ eta
    u_min = float(u.min())
    b_eta = float(problem.b @ eta)
    if -u_min > 700.0:
        return float("inf"), (u, u_min, b_eta)
    centred = np.subtract(u_min, u)
    total = float(np.exp(-u_min)) * float(np.exp(centred, out=centred).sum())
    return total + b_eta, (u, u_min, b_eta)


def _dual_derivatives(problem: EntropyProblem, eta: np.ndarray, point: tuple) -> tuple:
    """At a point of _dual_point: the gradient b - a^T w, a function forming
    the Hessian a^T diag(w) a, and (point, w), for the weights w = exp(-u).
    Weights that overflow, as at a guarded trial, make the gradient NaN
    (solve_entropy_dual runs under one np.errstate that keeps this silent)."""
    w = np.negative(point[0])
    np.exp(w, out=w)
    grad = problem.b - problem.a.T @ w
    return grad, lambda: (problem.a * w[:, None]).T @ problem.a, (point, w)


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
    when no step is taken, or at the cap. Accepted trials hand on their
    point, so none is evaluated twice. Returns (x, state, grad, iterations,
    stopped).
    """
    f, point = objective(x)
    ahead = None  # the derivatives at x when a guarded step formed them
    for iterations in range(1, max_iter + 1):
        grad, hessian, state = ahead or derivatives(x, point)
        ahead = None
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
            x, f, point = trial, f_trial, point_trial
        else:
            t = 1.0
            for _ in range(80):
                trial = x + step if t == 1.0 else x + t * step  # 1.0 * step is step
                f_trial, point_trial = objective(trial)
                if math.isfinite(f_trial) and f_trial <= f + 1e-4 * t * slope:
                    x, f, point = trial, f_trial, point_trial
                    break
                t *= 0.5
            else:
                return x, state, grad, iterations, False
    grad, _, state = ahead or derivatives(x, point)
    return x, state, grad, max_iter, False


def solve_entropy_dual(problem: EntropyProblem, *, rank_check=None,
                       certificate=None) -> DualSolution:
    """Minimize the dual by damped_newton from eta = 0 (unit weights).

    Every iterate is also tested for a Farkas certificate of an infeasible
    primal (_certificate): a unit vector d with a_i . d >= 0 on every active
    row and b . d < 0 (each up to FARKAS_TOL, relative to max|a| and
    ||b||_1). Then no w >= 0 satisfies a^T w = b, and the dual decreases
    without bound along d, so the solve stops there. The test moves no
    iterate. A feasible problem can meet it only through the tolerances,
    when b lies within them of the boundary of the cone spanned by the rows
    of a; elsewhere its iterates, and so its solution, are exactly those of
    the plain Newton loop.

    Raises NotConvergedError when a certificate is found (``direction``
    holds d), or when MAX_ITER iterations pass or a step cannot be taken
    with the constraints unmet (``direction`` is None). Either way
    ``worst_constraint`` names the constraint with the largest relative
    violation at the last iterate, and ``iterations`` counts the iterations.
    Each solve that passes the rank check logs one DEBUG record on ``log``,
    its args a dict of k, n_active, iterations, grad_norm,
    constraint_residual, converged and eta.

    ``rank_check``, when given, stands in for check_full_rank of ``a``: a
    function that raises the RankDeficientError of a caller's verdict on the
    same columns (``Fits`` passes the verdicts it holds per row set).

    ``certificate``, when given, is a candidate unit vector d, tested as an
    iterate is (_certificate, with this problem's tolerances) before the
    first step. If it passes, the solve raises at iteration 0 with
    ``direction`` set and ``worst_constraint`` read from the gradient at
    eta = 0, and logs its record; if not, it is ignored. ``Fits`` passes a
    sampling certificate lifted to the transport problem.
    """
    a, b = problem.a, problem.b
    if a.ndim != 2 or a.shape[0] == 0:
        raise EmptyArmError("entropy problem has no active rows")
    if rank_check is None:
        check_full_rank(a, "constraint matrix")
    else:
        rank_check()
    k = a.shape[1]
    b_scale = 1.0 + np.abs(b)
    scales = b_scale.tolist()

    # Certificate tolerances: a_i . d may dip below zero by rounding, in
    # proportion to the size of the entries of a; b . d must be clearly
    # negative on the scale of b.
    row_tol = -FARKAS_TOL * float(np.abs(a).max())
    b_tol = -FARKAS_TOL * float(np.abs(b).sum())
    direction = None
    if certificate is not None:
        u = a @ certificate
        direction = _certificate(a, b, (u, float(u.min()), float(b @ certificate)),
                                 certificate, row_tol, b_tol)

    def stop(eta, state, grad):
        nonlocal direction
        # Every entry within the tolerance, which a NaN entry is not.
        if all(abs(g) / scale <= GRAD_TOL for g, scale in zip(grad.tolist(), scales)):
            return True
        direction = _certificate(a, b, state[0], eta, row_tol, b_tol)
        return direction is not None

    if direction is not None:  # unit weights: the gradient at eta = 0
        eta, grad, iterations = np.zeros(k), b - a.T @ np.ones(a.shape[0]), 0
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            eta, (_, w), grad, iterations, _ = damped_newton(
                np.zeros(k), partial(_dual_point, problem), partial(_dual_derivatives, problem),
                stop, b_scale, MAX_ITER)
    violation = np.abs(grad) / b_scale
    residual = float(np.max(violation))
    converged = direction is None and residual <= RESIDUAL_TOL
    if log.isEnabledFor(logging.DEBUG):
        log.debug("solve %s", {"k": k, "n_active": a.shape[0], "iterations": iterations,
                               "grad_norm": float(np.max(np.abs(grad))),
                               "constraint_residual": residual, "converged": converged,
                               "eta": eta.tolist()})
    if direction is not None:
        j = _leading_constraint(direction)
        raise NotConvergedError(
            f"entropy dual is infeasible: Farkas certificate at iteration {iterations} "
            f"(relative residual {residual:.3e}); constraint {j} carries the largest "
            f"weight {direction[j]:+.3f} in the certifying direction",
            worst_constraint=int(np.argmax(violation)),
            direction=direction,
            iterations=iterations,
        )
    if not converged:
        raise NotConvergedError(
            f"entropy dual did not converge after {iterations} iterations "
            f"(relative residual {residual:.3e}); the primal is likely infeasible",
            worst_constraint=int(np.argmax(violation)),
            iterations=iterations,
        )
    weights = np.zeros(problem.n_units)
    weights[problem.active_rows] = w
    return DualSolution(eta=eta, weights=weights, iterations=iterations,
                        constraint_residual=residual)


def _leading_constraint(direction: np.ndarray) -> int:
    """The lowest index whose |d_j| is within a relative 1e-9 of the largest,
    so rounding never picks j or j + m of an arm-balance d = (+-v, v)."""
    size = np.abs(direction)
    return int(np.argmax(size >= (1.0 - 1e-9) * size.max()))


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


def _arm_balance(c: BalanceMatrix, z: np.ndarray, rows: np.ndarray, theta: np.ndarray,
                 label: str) -> EntropyProblem:
    """Arm balance plus calibration to theta over the units in ``rows``.

    Rows are [(2z-1)*c_i, c_i]; targets are [0, |rows| * theta], so a solution
    balances the two arms against each other (each arm total lands on
    |rows| * theta / 2) and the whole group against the moments theta.
    """
    if rows.size == 0:
        raise EmptyTargetError(f"{label} is empty")
    z_act = np.asarray(z, dtype=float)[rows]
    for arm in (0.0, 1.0):
        if not np.any(z_act == arm):
            raise EmptyArmError(f"{label} has no units with z={int(arm)}")
    c_act = c.c[rows]
    sign = (2.0 * z_act - 1.0)[:, None]
    a = np.hstack([sign * c_act, c_act])
    b = np.concatenate([np.zeros(c.m), rows.size * np.asarray(theta, dtype=float)])
    return EntropyProblem(a=a, b=b, active_rows=rows, n_units=len(z))


def assemble_sampling(c: BalanceMatrix, s: np.ndarray, theta0) -> EntropyProblem:
    """Inverse-odds-of-sampling calibration: reweight the study sample so its
    weighted balance moments equal the target-sample totals n1 * theta0."""
    s = np.asarray(s)
    active = np.flatnonzero(s == 1)
    if active.size == 0:
        raise EmptyTargetError("study sample is empty")
    n1 = active.size
    return EntropyProblem(a=c.c[active], b=n1 * np.asarray(theta0, dtype=float),
                          active_rows=active, n_units=len(s))


def assemble_transport(c: BalanceMatrix, s: np.ndarray, z: np.ndarray, theta0) -> EntropyProblem:
    """Joint treatment-contrast and sampling calibration over the study sample:
    the arm balance of the study sample aimed at the target moments theta0."""
    active = np.flatnonzero(np.asarray(s) == 1)
    return _arm_balance(c, z, active, theta0, "study sample")


def assemble_fusion(c: BalanceMatrix, s: np.ndarray, z: np.ndarray, theta0) -> EntropyProblem:
    """The target-sample half of data fusion: the arm balance of the target
    sample aimed at theta0, the weight-stabilization constraint set with
    totals n0 * theta0. The study-sample half is the assemble_transport
    problem."""
    return _arm_balance(c, z, np.flatnonzero(np.asarray(s) == 0), theta0, "sample s=0")


def assemble_ate_benchmark(c: BalanceMatrix, z: np.ndarray) -> EntropyProblem:
    """Single-sample special case: balance the two arms against the
    full-sample balance means (totals n * theta_full)."""
    return _arm_balance(c, z, np.arange(c.n), c.c.mean(axis=0), "sample")

