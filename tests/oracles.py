"""Reference implementations kept only for tests to compare against: the
per-cell and per-column forms of the columnar data path in targetcal.data,
the sandwich variance that builds the whole residual matrix in the
(gamma, delta) parameterization of the duals (`convert_dual`,
`calibration_system_full_psi`, `sandwich_se_full_psi`), the stacked
arm-balance assembly with rows [(2z-1) c_i, c_i] and targets
[0, |rows| theta] that the per-arm blocks replaced (`stacked_arm_balance`),
the two-branch
logistic function glm.expit replaced, the logistic fit's own Newton loop
with its step-halving rules that glm.fit_logistic gave up for the solver's
shared damped-Newton driver (`fit_logistic_irls`), the alternating
sampling/balance calibration that cross-checks the joint transport solve,
the scenario draws that always compute the u transforms
(`transform_u_two_pass`, `generate_always_u`, `true_tau_always_u`), and
two checks on the exact tau0 of sim.true_tau: a Monte Carlo that weights
each draw by P(s=0 | x) (`true_tau_conditioned`) and scipy's adaptive
quadrature of the same 1-D integral (`true_tau_adaptive`).
`dual_objective` and `dual_gradient` evaluate the entropy dual and its
gradient at a flat eta (every block's duals in turn) through the solver's
own `_dual_point` and `_dual_derivatives`, so the finite-difference and
derivative-free checks test the code it runs; `dual_weights` gives the
weights of the active rows there.

`read_csv_columns_per_cell` parses one cell at a time with the csv module;
`export_scores_per_row` writes one row at a time; `smd_per_column` reduces
one balance column at a time with np.average / var. The parser keeps three
faults of the code it reproduces (an empty `s` cell raises TypeError, a
fractional `s` is truncated, and with `force_s` an `s` column is ignored),
so comparisons use inputs without them.
"""

import csv
import math
import warnings

import numpy as np
from scipy import integrate
from scipy.special import expit as sp_expit

from targetcal.data import Dataset, check_full_rank
from targetcal.errors import (
    DegenerateDrawError,
    DimensionMismatchError,
    EmptyArmError,
    NonFiniteError,
    NotConvergedError,
    SchemaError,
    ZeroVarianceError,
)
from targetcal.glm import MAX_IRLS_ITER, SEPARATION_NORM, GlmFit, clip_probability, expit
from targetcal.sim import SCENARIOS, _rng, derive_seed
from targetcal.solver import EntropyProblem, _dual_derivatives, _dual_point

# iterative_calibration: largest weight change that ends it, and pass limit.
ITERATIVE_TOL = 1e-12
ITERATIVE_MAX_OUTER = 500


def read_csv_columns_per_cell(path, mode="fusion", force_s=None):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        rows = [row for row in reader if row]
    for j, name in enumerate(header):
        if name in header[:j]:
            raise SchemaError(f"{path}: duplicate column '{name}'")
    known = {"s", "z", "y"}
    if force_s is None and "s" not in header:
        raise SchemaError(f"{path}: missing required column 's'")
    cov_names = [h for h in header if h not in known]
    if not cov_names:
        raise SchemaError(f"{path}: no covariate columns found")
    idx = {name: header.index(name) for name in header}

    def parse(row, name, required):
        if name not in idx:
            if required:
                raise SchemaError(f"{path}: missing required column '{name}'")
            return None
        cell = row[idx[name]].strip()
        if cell == "":
            return None
        try:
            return float(cell)
        except ValueError:
            raise SchemaError(f"{path}: non-numeric value '{cell}' in column '{name}'") from None

    n = len(rows)
    s = np.empty(n, dtype=np.int8)
    z = np.full(n, np.nan)
    y = np.full(n, np.nan)
    zo = np.zeros(n, dtype=bool)
    yo = np.zeros(n, dtype=bool)
    x = np.empty((n, len(cov_names)))
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise SchemaError(f"{path}: row {i + 2} has {len(row)} fields, expected {len(header)}")
        s[i] = int(force_s) if force_s is not None else int(parse(row, "s", True))
        if mode == "transport" and s[i] == 0:
            # dropped target-sample z/y: not parsed, only noted when given
            zo[i] = "z" in idx and row[idx["z"]].strip() != ""
            yo[i] = "y" in idx and row[idx["y"]].strip() != ""
        else:
            zv = parse(row, "z", mode == "fusion")
            yv = parse(row, "y", mode == "fusion")
            if zv is not None:
                z[i], zo[i] = zv, True
            if yv is not None:
                y[i], yo[i] = yv, True
        for j, name in enumerate(cov_names):
            cell = row[idx[name]].strip()
            try:
                x[i, j] = float(cell)
            except ValueError:
                raise SchemaError(
                    f"{path}: non-numeric value '{cell}' in covariate '{name}'"
                ) from None
    cols = {"s": s, "z": z, "y": y, "x": x, "z_observed": zo, "y_observed": yo}
    return cols, cov_names


def _parts(problem, eta):
    return np.split(np.asarray(eta, dtype=float), len(problem.blocks))


def dual_objective(problem, eta):
    return sum(_dual_point(*block, x)[0] for block, x in zip(problem.blocks, _parts(problem, eta)))


def dual_gradient(problem, eta):
    return np.concatenate([_dual_derivatives(*block, x, _dual_point(*block, x)[1])[0]
                           for block, x in zip(problem.blocks, _parts(problem, eta))])


def dual_weights(problem, eta):
    """exp(-a_i . eta_k) on the active rows, eta_k the duals of row i's block."""
    return np.concatenate([np.exp(-(a @ x))
                           for (a, _), x in zip(problem.blocks, _parts(problem, eta))])


def stacked_arm_balance(c, z, rows, theta):
    """The arm balance of the units in ``rows`` as one block of 2m columns:
    rows [(2z-1) c_i, c_i], targets [0, |rows| theta]. It asks what the two
    per-arm blocks of the solver's assembly ask (each arm's total is
    |rows| theta / 2), with duals (eta_arm, eta_cal) = ((l1 - l0) / 2,
    (l1 + l0) / 2) for the per-arm duals l0, l1."""
    z_act = np.asarray(z, dtype=float)[rows]
    c_act = c.c[rows]
    sign = (2.0 * z_act - 1.0)[:, None]
    b = np.concatenate([np.zeros(c.m), rows.size * np.asarray(theta)])
    return EntropyProblem(blocks=[(np.hstack([sign * c_act, c_act]), b)], active_rows=rows,
                          n_units=len(z))


def export_scores_per_row(rho_hat, pi_hat, dataset, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit_id", "s", "z", "sampling_score", "propensity_score"])
        for i in range(dataset.n):
            seen = dataset.mode == "fusion" or dataset.s[i] == 1
            z_field = repr(float(dataset.z[i])) if seen else ""
            writer.writerow(
                [i, int(dataset.s[i]), z_field, repr(float(rho_hat[i])), repr(float(pi_hat[i]))]
            )


def smd_per_column(c, group, weights=None):
    group = np.asarray(group).astype(int)
    mat = c.c
    n = mat.shape[0]
    if weights is None:
        weights = np.ones(n)
    weights = np.asarray(weights, dtype=float)
    g1 = group == 1
    g0 = group == 0
    if not (g1.any() and g0.any()):
        raise EmptyArmError("both comparison groups must be nonempty")
    out = np.zeros(mat.shape[1])
    for j in range(1, mat.shape[1]):
        col = mat[:, j]
        m1 = np.average(col[g1], weights=weights[g1])
        m0 = np.average(col[g0], weights=weights[g0])
        v1 = col[g1].var(ddof=1) if g1.sum() > 1 else 0.0
        v0 = col[g0].var(ddof=1) if g0.sum() > 1 else 0.0
        pooled = np.sqrt((v1 + v0) / 2.0)
        diff = abs(m1 - m0)
        if pooled == 0.0:
            if diff > 1e-12:
                raise ZeroVarianceError(
                    f"column {j} has zero pooled SD but differing group means"
                )
            out[j] = 0.0
        else:
            out[j] = diff / pooled
    return out


def convert_dual(eta, m):
    """Map a solver dual [lambda_0, lambda_1] (one m-vector per arm) to
    (gamma, delta), where the unit weight is exp(-z c'delta - c'gamma):
    gamma = lambda_0, delta = lambda_1 - lambda_0, which leaves the weights
    unchanged."""
    lam0, lam1 = eta[:m], eta[m:]
    return lam0, lam1 - lam0


def calibration_system_full_psi(
    cmat: np.ndarray,
    s: np.ndarray,
    z: np.ndarray,
    y: np.ndarray,
    nu: np.ndarray,
    groups: tuple,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked per-unit residuals, as one n x k matrix, and summed analytic
    Jacobian, each built in one pass over all units.

    ``groups`` holds the calibrated sample labels: (1,) for transport,
    (0, 1) for data fusion. Parameter vector nu = (theta0, gamma_g for g in
    groups, delta_g for g in groups, tau), length (2G + 1)m + 1 for G groups.
    Rows of the residual matrix: target-moment block, one
    sampling-constraint block and one arm-constraint block per group, effect
    equation. Treatment and outcome are zeroed outside the calibrated groups,
    so unobserved target-sample values never enter. All blocks vanish
    exactly at the fitted parameters because they restate the solver's
    converged constraints.
    """
    n, m = cmat.shape
    n_groups = len(groups)
    theta0 = nu[:m]
    tau = nu[-1]
    s = np.asarray(s, dtype=float)
    calibrated = np.isin(s, groups)
    z = np.where(calibrated, z, 0.0)
    y = np.where(calibrated, y, 0.0)

    # Per group: unit indicator, then the gamma and delta slices of nu.
    blocks = [((s == g).astype(float), slice((1 + j) * m, (2 + j) * m),
               slice((1 + n_groups + j) * m, (2 + n_groups + j) * m))
              for j, g in enumerate(groups)]
    p = np.zeros(n)
    for ind, g_rows, d_rows in blocks:
        p += ind * np.exp(-(cmat @ nu[g_rows]) - z * (cmat @ nu[d_rows]))
    zp = z * p
    contrast = (2.0 * z - 1.0) * y - z * tau
    target = (s == 0).astype(float)

    k = len(nu)
    psi = np.zeros((n, k))
    psi[:, :m] = target[:, None] * (cmat - theta0)
    psi[:, -1] = p * contrast
    eye = np.eye(m)
    A = np.zeros((k, k))
    A[:m, :m] = -target.sum() * eye
    for ind, g_rows, d_rows in blocks:
        pg = ind * p
        zpg = ind * zp
        count = ind.sum()
        psi[:, g_rows] = pg[:, None] * cmat - np.outer(ind, theta0)
        psi[:, d_rows] = zpg[:, None] * cmat - np.outer(ind, theta0 / 2.0)
        Mg = cmat.T @ (cmat * pg[:, None])
        Tg = cmat.T @ (cmat * zpg[:, None])
        A[g_rows, :m] = -count * eye
        A[g_rows, g_rows] = -Mg
        A[g_rows, d_rows] = -Tg
        A[d_rows, :m] = -(count / 2.0) * eye
        A[d_rows, g_rows] = -Tg
        A[d_rows, d_rows] = -Tg
        A[-1, g_rows] = -(pg * contrast) @ cmat
        A[-1, d_rows] = -(zpg * (y - tau)) @ cmat
    A[-1, -1] = -zp.sum()
    return psi, A


def sandwich_se_full_psi(dataset, fits, duals, groups, tau_hat):
    """The sandwich SE of tau_hat from the whole n x k residual matrix:
    ||psi x|| with A' x = e_tau, psi @ x formed in one product."""
    c = fits.c
    gammas, deltas = zip(*(convert_dual(dual.eta, c.m) for dual in duals))
    nu = np.concatenate([fits.theta0, *gammas, *deltas, [tau_hat]])
    psi, A = calibration_system_full_psi(c.c, dataset.s, dataset.z, dataset.y, nu, groups)
    e_tau = np.zeros(len(nu))
    e_tau[-1] = 1.0
    x = np.linalg.solve(A.T, e_tau)
    return math.sqrt(float(np.sum((psi @ x) ** 2)))


def expit_two_branch(x):
    """1 / (1 + exp(-x)) on x >= 0 and exp(x) / (1 + exp(x)) elsewhere, each
    computed on its own gathered subset and scattered back."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _quasi_loglik(y, mu) -> float:
    mu = clip_probability(mu)
    return float((y * np.log(mu) + (1.0 - y) * np.log(1.0 - mu)).sum())


def fit_logistic_irls(design, y, offset=None):
    """Bernoulli quasi-likelihood fit by Newton scoring, as glm.fit_logistic
    ran it before the shared driver: a step is accepted when the
    quasi-log-likelihood drops by no more than 1e-12, halved at most 40
    times, and the raw score is the fallback step."""
    design = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = design.shape
    if y.shape != (n,):
        raise DimensionMismatchError("response length does not match design")
    if np.any((y < 0) | (y > 1)):
        raise ValueError("logistic responses must lie in [0, 1]")
    o = np.zeros(n) if offset is None else np.asarray(offset, dtype=float)
    check_full_rank(design, "logistic design")
    # Per-coefficient score tolerance: 1e-9 absolute, raised to what float
    # rounding of the score sum leaves reachable at large n. The column sums
    # are a dot product with ones: np.sum rounds some of them differently.
    score_tol = np.maximum(1e-9, 1e-12 * (np.ones(n) @ np.abs(design)))

    # mu is always the mean at beta: an accepted trial hands on its own mean.
    beta = np.zeros(p)
    mu = expit(o)
    ll = _quasi_loglik(y, mu)
    converged = False
    separated = False
    for _ in range(MAX_IRLS_ITER):
        score = design.T @ (y - mu)
        if (np.abs(score) <= score_tol).all():
            converged = True
            break
        info = (design * (mu * (1.0 - mu))[:, None]).T @ design
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            step = score
        t = 1.0
        for _ in range(40):
            trial = beta + t * step
            mu_trial = expit(design @ trial + o)
            ll_trial = _quasi_loglik(y, mu_trial)
            if ll_trial >= ll - 1e-12:
                beta, mu, ll = trial, mu_trial, ll_trial
                break
            t *= 0.5
        else:
            break
        if np.abs(beta).max() > SEPARATION_NORM:
            separated = True
            warnings.warn(
                "logistic fit appears separated; coefficients truncated",
                RuntimeWarning,
                stacklevel=2,
            )
            break
    return GlmFit(
        coefficients=beta,
        family="logistic",
        converged=converged and not separated,
        separated=separated,
    )


def _tilt(a, b, base):
    """Re-tilt the base measure to meet a^T w = b: w = base * exp(-a @ eta),
    eta a root of the gradient b - a^T w, found by Newton steps each halved
    until the gradient norm drops (its own solver, not the one it checks)."""
    scale = 1.0 + np.abs(b)
    eta = np.zeros(a.shape[1])
    w = base
    grad = b - a.T @ w
    for _ in range(100):
        if np.max(np.abs(grad) / scale) <= 1e-12:
            break
        step = np.linalg.solve((a * w[:, None]).T @ a, -grad)
        norm = np.linalg.norm(grad)
        for t in 0.5 ** np.arange(60):
            with np.errstate(over="ignore", invalid="ignore"):
                w_t = base * np.exp(-(a @ (eta + t * step)))
                g_t = b - a.T @ w_t
            if np.linalg.norm(g_t) <= (1.0 - 1e-4 * t) * norm:
                break
        else:
            break  # the gradient no longer resolves a decrease
        eta, w, grad = eta + t * step, w_t, g_t
    if np.max(np.abs(grad) / scale) > 1e-8:
        raise NotConvergedError("base-measure tilt did not converge")
    return w


def iterative_calibration(c, s, z, theta0):
    """Alternating sampling-update / balance-update scheme.

    Each pass first re-tilts the current weights to hit the sampling
    constraints, then re-tilts them to zero out the treatment contrast. The
    fixed point satisfies both constraint families, so it coincides with the
    assemble_transport solution. Returns the full-length weights and the
    number of passes.
    """
    joint = stacked_arm_balance(c, z, np.flatnonzero(np.asarray(s) == 1), theta0)
    m = c.m
    contrast, c_act = np.hsplit(joint.blocks[0][0], 2)
    p = np.ones(c_act.shape[0])
    for passes in range(1, ITERATIVE_MAX_OUTER + 1):
        p_new = _tilt(contrast, joint.b[:m], _tilt(c_act, joint.b[m:], p))
        delta = float(np.max(np.abs(p_new - p)))
        p = p_new
        if delta <= ITERATIVE_TOL:
            break
    else:
        raise NotConvergedError(
            f"iterative calibration did not stabilize in {ITERATIVE_MAX_OUTER} passes")
    weights = np.zeros(joint.n_units)
    weights[joint.active_rows] = p
    return weights, passes


def transform_u_two_pass(x):
    """The u transforms stacked from separate columns and standardized by
    ``mean``/``std`` in a second pass."""
    x = np.asarray(x, dtype=float)
    prod = np.abs(x[:, 1] * x[:, 2])
    if np.any(prod == 0.0):
        raise NonFiniteError("log|x2*x3| undefined for a zero product")
    u = np.column_stack(
        [
            np.exp((x[:, 0] + x[:, 3]) / 2.0),
            x[:, 1] / (1.0 + np.exp(x[:, 0])),
            np.log(prod),
            (x[:, 2] + x[:, 3]) ** 2,
        ]
    )
    if not np.isfinite(u).all():
        raise NonFiniteError("misspecification transform produced non-finite values")
    mean = u.mean(axis=0)
    sd = u.std(axis=0)
    if np.any(sd == 0.0):
        raise NonFiniteError("degenerate transform column (zero variance)")
    return (u - mean) / sd


def generate_always_u(scenario, n, seed):
    """sim.generate with u computed whatever basis the models are on."""
    rng = _rng(seed)
    x = rng.standard_normal((n, scenario.covariate_dim))
    u = transform_u_two_pass(x)
    s = (rng.random(n) < expit(scenario.rho.evaluate(x, u))).astype(np.int8)
    pi_lin = np.where(s == 1, scenario.pi_study.evaluate(x, u),
                      scenario.pi_target.evaluate(x, u))
    z = (rng.random(n) < expit(pi_lin)).astype(float)
    mu0 = np.where(s == 1, scenario.mu0_study.evaluate(x, u),
                   scenario.mu0_target.evaluate(x, u))
    tilt = scenario.tilt.evaluate(x, u)
    y0 = mu0 + scenario.outcome_sd * rng.standard_normal(n)
    y1 = mu0 + tilt + scenario.outcome_sd * rng.standard_normal(n)
    y = z * y1 + (1.0 - z) * y0
    for sample in (0, 1):
        mask = s == sample
        if not mask.any():
            raise DegenerateDrawError(f"sample s={sample} came up empty")
        for arm in (0.0, 1.0):
            if not np.any(z[mask] == arm):
                raise DegenerateDrawError(f"sample s={sample} has an empty arm z={int(arm)}")
    return Dataset.fusion(s, z, y, x)


def true_tau_always_u(scenario, oracle_n, seed, chunk):
    """sim.true_tau's chunked Monte Carlo loop with u computed in every
    chunk, its draws keyed on the first scenario in SCENARIOS with the same
    rho, tilt and covariate count (its own id if none)."""
    estimand = next((sid for sid, spec in SCENARIOS.items()
                     if spec.rho == scenario.rho and spec.tilt == scenario.tilt
                     and spec.covariate_dim == scenario.covariate_dim), scenario.id)
    total = 0.0
    count = 0
    drawn = 0
    idx = 0
    while drawn < oracle_n:
        size = min(chunk, oracle_n - drawn)
        rng = _rng(derive_seed(seed, "true-tau", estimand, idx))
        x = rng.standard_normal((size, scenario.covariate_dim))
        u = transform_u_two_pass(x)
        s = rng.random(size) < expit(scenario.rho.evaluate(x, u))
        tilt = scenario.tilt.evaluate(x, u)
        total += float(tilt[~s].sum())
        count += int((~s).sum())
        drawn += size
        idx += 1
    return total / count


def true_tau_conditioned(scenario, oracle_n, seed, chunk=1_000_000):
    """E[tilt | s=0] as the mean tilt over ``oracle_n`` draws of x, each
    weighted by P(s=0 | x) = 1 - expit(rho) instead of drawing s, with the
    ratio estimator's delta-method standard error. Returns (tau0, se)."""
    rng = np.random.default_rng(seed)
    # sum w, sum w t, sum w^2, sum w^2 t, sum w^2 t^2
    sums = np.zeros(5)
    for start in range(0, oracle_n, chunk):
        x = rng.standard_normal((min(chunk, oracle_n - start), scenario.covariate_dim))
        u = transform_u_two_pass(x) if scenario.reads_u else None
        w = 1.0 - expit(scenario.rho.evaluate(x, u))
        t = scenario.tilt.evaluate(x, u)
        sums += [w.sum(), w @ t, w @ w, (w * w) @ t, (w * w) @ (t * t)]
    total, wt, ww, wwt, wwtt = sums
    tau0 = wt / total
    return tau0, math.sqrt(wwtt - 2.0 * tau0 * wwt + tau0 * tau0 * ww) / total


def true_tau_adaptive(scenario):
    """E[tilt | s=0] for rho and tilt on x: with v = a.x/|a| ~ N(0, 1),
    t0 + (t.a/|a|) E[v g(v)] / E[g(v)], g(v) = 1 - expit(a0 + |a| v), each
    integral by scipy's adaptive quadrature, split where g is steepest."""
    a0, *a = scenario.rho.coef
    t0, *t = scenario.tilt.coef
    norm = math.hypot(*a)
    if norm == 0.0:
        return float(t0)

    def integral(f):
        return integrate.quad(lambda v: f(v) * math.exp(-0.5 * v * v) * sp_expit(-(a0 + norm * v)),
                              -40.0, 40.0, points=[-a0 / norm], limit=400,
                              epsabs=0.0, epsrel=1e-13)[0]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        ratio = integral(lambda v: v) / integral(lambda v: 1.0)
    return t0 + float(np.dot(t, a)) / norm * ratio
