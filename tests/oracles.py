"""Reference implementations kept only for tests to compare against: the
per-cell and per-column forms of the columnar data path in targetcal.data,
the sandwich variance that builds the whole residual matrix
(`sandwich_se_full_psi`), the two-branch logistic function glm.expit
replaced, the alternating
sampling/balance calibration that cross-checks the joint transport solve,
and the scenario draws that always compute the u transforms
(`transform_u_two_pass`, `generate_always_u`, `true_tau_always_u`).

`read_csv_columns_per_cell` parses one cell at a time with the csv module;
`export_scores_per_row` writes one row at a time; `smd_per_column` reduces
one balance column at a time with np.average / var. The parser keeps two
faults of the code it reproduces (an empty `s` cell raises TypeError and a
fractional `s` is truncated), so comparisons use inputs without them.
"""

import csv
import math

import numpy as np

from targetcal.data import Dataset
from targetcal.errors import (
    DegenerateDrawError,
    EmptyArmError,
    NonFiniteError,
    NotConvergedError,
    SchemaError,
    ZeroVarianceError,
)
from targetcal.glm import expit
from targetcal.inference import convert_dual
from targetcal.sim import _rng, derive_seed
from targetcal.solver import assemble_transport

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
    joint assemble_transport solution. Returns the full-length weights and
    the number of passes.
    """
    joint = assemble_transport(c, s, z, theta0)
    m = c.m
    contrast, c_act = np.hsplit(joint.a, 2)
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
    """sim.true_tau's chunked oracle loop with u computed in every chunk."""
    total = 0.0
    count = 0
    drawn = 0
    idx = 0
    while drawn < oracle_n:
        size = min(chunk, oracle_n - drawn)
        rng = _rng(derive_seed(seed, "true-tau", scenario.id, idx))
        x = rng.standard_normal((size, scenario.covariate_dim))
        u = transform_u_two_pass(x)
        s = rng.random(size) < expit(scenario.rho.evaluate(x, u))
        tilt = scenario.tilt.evaluate(x, u)
        total += float(tilt[~s].sum())
        count += int((~s).sum())
        drawn += size
        idx += 1
    return total / count
