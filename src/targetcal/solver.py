"""Newton solver for exponential-tilting dual objectives and the constraint
assemblies behind every calibration problem in the package.

All calibration weights here solve a primal program of the form

    minimize   sum_i base_i * (w_i log w_i - w_i)      over active units
    subject to sum_i a_i w_i * base_i = b,

whose Lagrangian dual reduces to the smooth convex minimization

    f(eta) = sum_i base_i * exp(-a_i . eta) + b . eta,

with implied weights w_i = base_i * exp(-a_i . eta). Stationarity of f is
exactly the primal constraint set, so a converged dual solution delivers
exact balance up to the residual tolerance.

Every arm-balancing problem (transport, each sample of data fusion, the
within-cohort benchmark) comes from one assembly over a group of units:
rows [(2z-1) c_i, c_i] with targets [0, |group| * theta]. Only the group
and theta differ between them; the sampling problem keeps the c_i block
alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import BalanceMatrix, TargetMoments, check_full_rank
from .errors import EmptyArmError, EmptyTargetError, NotConvergedError

# Stopping rule defaults. The gradient of the dual equals the signed
# constraint violation, so the per-coordinate relative gradient target
# directly bounds the balance error; a solution still counts as converged if
# the line search stalls anywhere at or below RESIDUAL_TOL.
GRAD_TOL = 1e-10
RESIDUAL_TOL = 1e-8
MAX_ITER = 500

# Optional per-solve trace hook, installed by the CLI verbosity flag. It is
# called with a summary dict after every solve attempt.
_TRACE: Callable[[dict], None] | None = None


def set_trace_hook(hook: Callable[[dict], None] | None) -> None:
    global _TRACE
    _TRACE = hook


@dataclass(frozen=True)
class EntropyProblem:
    """Signed constraint matrix over the weight-carrying units.

    ``a`` has one row per active unit; ``b`` holds the constraint targets;
    ``active_rows`` maps rows of ``a`` back to unit indices out of ``n_units``
    so the returned weight vector can be full length. ``base`` is an optional
    base measure (used by the iterative calibration cross-check).
    """

    a: np.ndarray
    b: np.ndarray
    active_rows: np.ndarray
    n_units: int
    base: np.ndarray | None = None

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        object.__setattr__(self, "active_rows", np.asarray(self.active_rows, dtype=np.intp))
        if self.base is not None:
            object.__setattr__(self, "base", np.asarray(self.base, dtype=float))


@dataclass(frozen=True)
class DualSolution:
    """Dual vector, implied weights, and convergence metadata."""

    eta: np.ndarray
    weights: np.ndarray
    converged: bool
    iterations: int
    grad_norm: float
    constraint_residual: float


def dual_objective(problem: EntropyProblem, eta: np.ndarray) -> float:
    """Evaluate f(eta), centering the exponent so overflow surfaces as inf."""
    u = problem.a @ eta
    e = -u
    if problem.base is not None:
        e = e + np.log(problem.base)
    m = float(np.max(e))
    if m > 700.0:
        return float("inf")
    with np.errstate(over="ignore"):
        total = np.exp(m) * float(np.sum(np.exp(e - m)))
    return total + float(problem.b @ eta)


def dual_gradient(problem: EntropyProblem, eta: np.ndarray) -> np.ndarray:
    w = _active_weights(problem, eta)
    return problem.b - problem.a.T @ w


def _active_weights(problem: EntropyProblem, eta: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        w = np.exp(-(problem.a @ eta))
    if problem.base is not None:
        w = w * problem.base
    return w


def solve_entropy_dual(
    problem: EntropyProblem,
    tol: float | None = None,
    max_iter: int = MAX_ITER,
) -> DualSolution:
    """Minimize the dual by damped Newton with Armijo backtracking.

    Starts from eta = 0 (unit weights). Falls back to a gradient step when
    the Hessian solve fails numerically. Raises NotConvergedError when the
    iteration limit is exceeded, carrying the index of the worst-violated
    constraint; this typically signals an infeasible primal (severe overlap
    violation).
    """
    a, b = problem.a, problem.b
    if a.ndim != 2 or a.shape[0] == 0:
        raise EmptyArmError("entropy problem has no active rows")
    check_full_rank(a, "constraint matrix")
    k = a.shape[1]
    grad_tol = tol if tol is not None else GRAD_TOL
    b_scale = 1.0 + np.abs(b)

    eta = np.zeros(k)
    f_val = dual_objective(problem, eta)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w = _active_weights(problem, eta)
        grad = b - a.T @ w
        grad_norm = float(np.max(np.abs(grad)))
        if float(np.max(np.abs(grad) / b_scale)) <= grad_tol:
            break
        hess = (a * w[:, None]).T @ a
        try:
            step = np.linalg.solve(hess, -grad)
            if not np.isfinite(step).all():
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            scale = max(grad_norm, 1.0)
            step = -grad / scale
        slope = float(grad @ step)
        if slope >= 0.0:
            step = -grad
            slope = -float(grad @ grad)
        accepted = False
        if -slope <= 1e-11 * (1.0 + abs(f_val)):
            # Objective differences are below float resolution of f; take a
            # pure Newton step guarded by the gradient instead.
            trial = eta + step
            rel_now = float(np.max(np.abs(grad) / b_scale))
            # Weights that overflow at the trial make its gradient NaN, which
            # the isfinite guard below rejects.
            with np.errstate(invalid="ignore"):
                rel_trial = float(np.max(np.abs(dual_gradient(problem, trial)) / b_scale))
            if np.isfinite(rel_trial) and rel_trial < rel_now:
                eta = trial
                f_val = dual_objective(problem, eta)
                accepted = True
        else:
            t = 1.0
            for _ in range(80):
                trial = eta + t * step
                f_trial = dual_objective(problem, trial)
                if np.isfinite(f_trial) and f_trial <= f_val + 1e-4 * t * slope:
                    eta, f_val = trial, f_trial
                    accepted = True
                    break
                t *= 0.5
        if not accepted:
            # Step direction exhausted; report the violation as-is.
            break
    w = _active_weights(problem, eta)
    with np.errstate(invalid="ignore"):
        violation = np.abs(a.T @ w - b) / b_scale
        grad_norm = float(np.max(np.abs(b - a.T @ w)))
    residual = float(np.max(violation))
    converged = residual <= RESIDUAL_TOL
    if _TRACE is not None:
        _TRACE(
            {
                "k": k,
                "n_active": a.shape[0],
                "iterations": iterations,
                "grad_norm": grad_norm,
                "constraint_residual": residual,
                "converged": converged,
                "eta": eta.copy(),
            }
        )
    if not converged:
        raise NotConvergedError(
            f"entropy dual did not converge after {iterations} iterations "
            f"(relative residual {residual:.3e}); the primal is likely infeasible",
            worst_constraint=int(np.argmax(violation)),
        )
    weights = np.zeros(problem.n_units)
    weights[problem.active_rows] = w
    return DualSolution(
        eta=eta,
        weights=weights,
        converged=True,
        iterations=iterations,
        grad_norm=grad_norm,
        constraint_residual=residual,
    )


def _theta_vector(theta0) -> np.ndarray:
    return theta0.theta0 if isinstance(theta0, TargetMoments) else np.asarray(theta0, dtype=float)


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
    b = np.concatenate([np.zeros(c.m), rows.size * theta])
    return EntropyProblem(a=a, b=b, active_rows=rows, n_units=len(z))


def assemble_sampling(c: BalanceMatrix, s: np.ndarray, theta0) -> EntropyProblem:
    """Inverse-odds-of-sampling calibration: reweight the study sample so its
    weighted balance moments equal the target-sample totals n1 * theta0."""
    s = np.asarray(s)
    active = np.flatnonzero(s == 1)
    if active.size == 0:
        raise EmptyTargetError("study sample is empty")
    theta = _theta_vector(theta0)
    n1 = active.size
    return EntropyProblem(a=c.c[active], b=n1 * theta, active_rows=active, n_units=len(s))


def assemble_transport(c: BalanceMatrix, s: np.ndarray, z: np.ndarray, theta0) -> EntropyProblem:
    """Joint treatment-contrast and sampling calibration over the study sample:
    the arm balance of the study sample aimed at the target moments theta0."""
    active = np.flatnonzero(np.asarray(s) == 1)
    return _arm_balance(c, z, active, _theta_vector(theta0), "study sample")


def assemble_fusion(
    c: BalanceMatrix, s: np.ndarray, z: np.ndarray, theta0
) -> tuple[EntropyProblem, EntropyProblem]:
    """One arm balance per sample, both aimed at theta0.

    Returns (target-sample problem, study-sample problem); the target-sample
    block is the weight-stabilization constraint set with totals n0 * theta0.
    """
    s = np.asarray(s)
    theta = _theta_vector(theta0)
    return tuple(
        _arm_balance(c, z, np.flatnonzero(s == g), theta, f"sample s={g}") for g in (0, 1)
    )


def assemble_ate_benchmark(c: BalanceMatrix, z: np.ndarray) -> EntropyProblem:
    """Single-sample special case: balance the two arms against the
    full-sample balance means (totals n * theta_full)."""
    return _arm_balance(c, z, np.arange(c.n), c.c.mean(axis=0), "sample")


def iterative_calibration(
    c: BalanceMatrix,
    s: np.ndarray,
    z: np.ndarray,
    theta0,
    tol: float = 1e-12,
    max_outer: int = 500,
) -> DualSolution:
    """Alternating sampling-update / balance-update scheme.

    Each pass first re-tilts the current weights to hit the sampling
    constraints (with the running weights as base measure), then re-tilts to
    zero out the treatment contrast. The fixed point satisfies both
    constraint families and therefore coincides with the joint
    assemble_transport solution. Kept as an independent cross-check of the
    joint solver.
    """
    joint = assemble_transport(c, s, z, theta0)
    m = c.m
    # Contiguous copies: on strided views BLAS may sum in another order.
    contrast, c_act = (np.ascontiguousarray(block) for block in np.hsplit(joint.a, 2))
    n1 = c_act.shape[0]
    gamma_total = np.zeros(m)
    lambda_total = np.zeros(m)
    p = np.ones(n1)
    outer = 0
    for outer in range(1, max_outer + 1):
        samp = EntropyProblem(
            a=c_act, b=joint.b[m:], active_rows=np.arange(n1), n_units=n1, base=p
        )
        samp_sol = solve_entropy_dual(samp)
        gamma_total += samp_sol.eta
        q = p * np.exp(-(c_act @ samp_sol.eta))
        bal = EntropyProblem(
            a=contrast, b=joint.b[:m], active_rows=np.arange(n1), n_units=n1, base=q
        )
        bal_sol = solve_entropy_dual(bal)
        lambda_total += bal_sol.eta
        p_new = q * np.exp(-(contrast @ bal_sol.eta))
        delta = float(np.max(np.abs(p_new - p)))
        p = p_new
        if delta <= tol:
            break
    else:
        raise NotConvergedError(
            f"iterative calibration did not stabilize in {max_outer} passes"
        )
    eta = np.concatenate([lambda_total, gamma_total])
    resid_vec = np.abs(joint.a.T @ p - joint.b) / (1.0 + np.abs(joint.b))
    weights = np.zeros(joint.n_units)
    weights[joint.active_rows] = p
    return DualSolution(
        eta=eta,
        weights=weights,
        converged=True,
        iterations=outer,
        grad_norm=float(np.max(np.abs(joint.b - joint.a.T @ p))),
        constraint_residual=float(np.max(resid_vec)),
    )
