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
within-cohort benchmark. f is a sum over blocks, so they solve independently.
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


def damped_newton(x: list, objective, derivatives, stop, scale: list,
                  max_iter: int) -> tuple:
    """Minimize a smooth convex f from x by damped Newton steps: the one loop
    of solve_entropy_dual and glm.fit_logistic.

    x is a list of parts, and f a sum of one term per part. ``objective[k]``
    maps x_k to its term (inf on overflow) and a point that
    ``derivatives[k](x_k, point)`` reuses, for part k's gradient, a function
    forming its Hessian and its state. ``stop(x, states, grads)`` lists the
    parts not yet at an answer; ``scale[k]`` sizes part k's gradient. Each
    part listed steps on its own, as a run on it alone would: Newton's step,
    the gradient scaled to unit max-norm if the solve fails, or steepest
    descent if it does not descend, halved up to 80 times until Armijo's
    1e-4 holds; below its term's float resolution the full step must shrink
    its largest scaled gradient coordinate instead. The run ends when no part
    is listed, when a part takes no step, or at the cap. Accepted trials hand
    on their point. Returns (x, states, grads, iterations, stopped).
    """
    f, point = map(list, zip(*(objective[k](part) for k, part in enumerate(x))))
    derived = [None] * len(x)  # each part's derivatives at its x, if formed
    for iterations in range(1, max_iter + 2):
        derived = [done or derivatives[k](x[k], point[k]) for k, done in enumerate(derived)]
        grad, _, state = zip(*derived)
        if iterations > max_iter:
            return x, state, grad, max_iter, False
        moving = stop(x, state, grad)
        if not moving:
            return x, state, grad, iterations, True
        x_next, f_next, point_next = list(x), list(f), list(point)
        for k in moving:
            g, hessian, _ = derived[k]
            try:
                step = np.linalg.solve(hessian(), -g)
                if not all(map(math.isfinite, step.tolist())):
                    raise np.linalg.LinAlgError
            except np.linalg.LinAlgError:
                step = -g / max(float(np.abs(g).max()), 1.0)
            slope = float(g @ step)
            if slope >= 0.0:
                step = -g
                slope = -float(g @ g)
            if -slope <= 1e-11 * (1.0 + abs(f[k])):
                trial = x[k] + step
                f_trial, point_trial = objective[k](trial)
                ahead = derivatives[k](trial, point_trial)
                # A NaN gradient, where the trial's weights overflow, compares false.
                if not (np.abs(ahead[0]) / scale[k]).max() < (np.abs(g) / scale[k]).max():
                    return x, state, grad, iterations, False
            else:
                ahead, t = None, 1.0
                for _ in range(80):
                    trial = x[k] + step if t == 1.0 else x[k] + t * step  # 1.0 * step is step
                    f_trial, point_trial = objective[k](trial)
                    if math.isfinite(f_trial) and f_trial <= f[k] + 1e-4 * t * slope:
                        break
                    t *= 0.5
                else:
                    return x, state, grad, iterations, False
            x_next[k], f_next[k], point_next[k], derived[k] = trial, f_trial, point_trial, ahead
        x, f, point = x_next, f_next, point_next


def solve_entropy_dual(problem: EntropyProblem, *, rank_check=None,
                       certificate=None) -> DualSolution:
    """Minimize the dual by damped_newton from eta = 0 (unit weights), each
    block one part.

    Every iterate of a block is also tested for a Farkas certificate of an
    infeasible primal (_certificate): a unit vector d with a_i . d >= 0 on
    the block's rows and b . d < 0 on its targets (up to FARKAS_TOL, relative
    to the block's max|a| and ||b||_1), so that no w >= 0 meets them. The
    solve stops there. The test moves no iterate, and a feasible block meets
    it only when b lies within the tolerances of the boundary of the cone of
    its rows.

    Raises NotConvergedError when a certificate is found (``direction``
    holds d on the block's constraints and 0 elsewhere), or when MAX_ITER
    iterations pass or a step cannot be taken with the constraints unmet
    (``direction`` is None). ``worst_constraint`` names the constraint with
    the largest relative violation at the last iterate (constraint j is
    column j % m of block j // m), and ``iterations`` counts the iterations.
    Each solve that passes the rank check logs one DEBUG record on ``log``,
    its args a dict of k, n_active, iterations, grad_norm,
    constraint_residual, converged and eta.

    ``rank_check``, when given, stands in for check_full_rank of each
    block's rows: a function raising the RankDeficientError of a caller's
    verdict on the same rows (``Fits`` holds one per row set).

    ``certificate``, when given, is a candidate d over all constraints, each
    block's part tested as an iterate is before the first step. If one
    passes, the solve raises at iteration 0, ``worst_constraint`` read from
    the gradient at eta = 0, and logs its record; if none does, it is
    ignored. ``Fits`` passes a sampling certificate lifted to the transport
    problem.
    """
    blocks, b = problem.blocks, problem.b
    if not all(rows.ndim == 2 and len(rows) for rows, _ in blocks):
        raise EmptyArmError("entropy problem has no active rows")
    if rank_check is None:
        for rows, _ in blocks:
            check_full_rank(rows, "constraint matrix")
    else:
        rank_check()
    b_scale = [1.0 + np.abs(target) for _, target in blocks]

    # Certificate tolerances: a_i . d may dip below zero by rounding, in
    # proportion to the size of the entries of a; b . d must be clearly
    # negative on the scale of b.
    tolerances = [(-FARKAS_TOL * float(np.abs(rows).max()),
                   -FARKAS_TOL * float(np.abs(target).sum())) for rows, target in blocks]
    direction = None

    def certify(k, eta, point):
        nonlocal direction
        d = _certificate(*blocks[k], point, eta, *tolerances[k])
        if d is not None:
            direction = np.zeros(len(b))
            direction[k * len(d):(k + 1) * len(d)] = d
        return d is not None

    if certificate is not None:
        for k, candidate in enumerate(np.split(certificate, len(blocks))):
            if certify(k, candidate, _dual_point(*blocks[k], candidate)[1]):
                break

    def stop(eta, states, grads):
        moving = []
        for k, (g, scale) in enumerate(zip(grads, b_scale)):
            # Every entry within the tolerance, which a NaN entry is not.
            if all(abs(gj) / sj <= GRAD_TOL for gj, sj in zip(g.tolist(), scale.tolist())):
                continue
            if certify(k, eta[k], states[k][0]):
                return []
            moving.append(k)
        return moving

    # A candidate that passed leaves no step to take: the solve ends at eta = 0.
    with np.errstate(over="ignore", invalid="ignore"):
        eta, states, grad, iterations, _ = damped_newton(
            [np.zeros(len(target)) for _, target in blocks],
            [partial(_dual_point, *block) for block in blocks],
            [partial(_dual_derivatives, *block) for block in blocks], stop, b_scale,
            MAX_ITER if direction is None else 0)
    eta, grad = np.concatenate(eta), np.concatenate(grad)
    violation = np.abs(grad) / (1.0 + np.abs(b))
    residual = float(np.max(violation))
    converged = direction is None and residual <= RESIDUAL_TOL
    if log.isEnabledFor(logging.DEBUG):
        log.debug("solve %s", {"k": len(b), "n_active": len(problem.active_rows),
                               "iterations": iterations, "grad_norm": float(np.max(np.abs(grad))),
                               "constraint_residual": residual, "converged": converged,
                               "eta": eta.tolist()})
    if direction is not None:
        j = int(np.argmax(np.abs(direction)))
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
    weights[problem.active_rows] = np.concatenate([w for _, w in states])
    return DualSolution(eta=eta, weights=weights, iterations=iterations,
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
