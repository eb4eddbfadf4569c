"""Shared fixtures and small dataset builders."""

import os

import numpy as np
import pytest

from targetcal import cli, data
from targetcal.data import Dataset, build_balance_matrix


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def draw_row_a(n: int, rng: np.random.Generator, noise_sd: float = 1.0):
    """Direct draw from the baseline generative models (no U transforms).

    Kept independent of the sim module so it can serve as an oracle for it.
    """
    x = rng.standard_normal((n, 4))
    s = (rng.random(n) < sigmoid(0.5 - 0.5 * x[:, 0] + 0.5 * x[:, 1]
                                 - 0.5 * x[:, 2] + 0.5 * x[:, 3])).astype(int)
    pi = sigmoid(0.5 * x[:, 0] - 0.5 * x[:, 1] + 0.5 * x[:, 2] - 0.5 * x[:, 3])
    z = (rng.random(n) < pi).astype(float)
    mu0 = 2 - 3 * x[:, 0] - x[:, 1] + x[:, 2] + 3 * x[:, 3]
    tilt = -2 - x[:, 0] + 3 * x[:, 1] - 3 * x[:, 2] + x[:, 3]
    y0 = mu0 + noise_sd * rng.standard_normal(n)
    y1 = mu0 + tilt + noise_sd * rng.standard_normal(n)
    y = z * y1 + (1 - z) * y0
    return Dataset.fusion(s, z, y, x)


def force_fork(patch: pytest.MonkeyPatch) -> list:
    """Make the CLI's text I/O share its work with a forked child at any
    size, as it does on a large input on a host with a second CPU: CSV ingest
    splits every body it can, and estimate and diagnose write scores.csv in a
    child. Returns the list of the pids forked from now on."""
    patch.setattr(data, "FORK_BYTES", 0)
    patch.setattr(data, "FORK_ROWS", 0)
    patch.setattr(cli, "FORK_ROWS", 0)
    patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    patch.setattr(os, "fork", spy)
    return pids


def assert_no_child() -> None:
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forked(monkeypatch):
    """The pids forked by the test, run as by force_fork."""
    return force_fork(monkeypatch)


@pytest.fixture
def baseline_draw():
    return draw_row_a(1500, np.random.default_rng(414))


@pytest.fixture
def baseline_balance(baseline_draw):
    return baseline_draw, build_balance_matrix(baseline_draw)


def tiny_dataset():
    """Six units, both samples and arms populated, hand-checkable."""
    s = [1, 1, 1, 1, 0, 0]
    z = [1, 0, 1, 0, 1, 0]
    y = [3.0, 1.0, 4.0, 2.0, 5.0, 1.0]
    x = np.array([[0.5], [1.0], [-1.0], [0.2], [0.8], [-0.4]])
    return Dataset.fusion(s, z, y, x)


def random_feasible_transport(rng, n=None, m=None):
    """A random transport instance with both samples and study arms
    populated and m balance columns (intercept included).

    Its calibration problem is usually feasible but not always, as nothing
    forces the study arms to cover the target moments: with small n and
    large m they may not. Criterion 6 (seed 606) draws two LP-infeasible
    instances (attempts 5 and 27: n=59, m=5 and n=69, m=10, each with 33
    study units); the solver certifies both and the test skips them."""
    n = n or int(rng.integers(50, 200))
    m = m or int(rng.integers(2, 5))
    d = m - 1
    x = rng.standard_normal((n, d)) if d else np.empty((n, 0))
    lin = 0.3 * x.sum(axis=1) if d else np.zeros(n)
    s = (rng.random(n) < sigmoid(0.4 + 0.5 * lin)).astype(int)
    z = (rng.random(n) < sigmoid(0.4 * lin)).astype(float)
    y = 1.0 + (x.sum(axis=1) if d else 0.0) + z * 2.0 + rng.standard_normal(n)
    # ensure both samples and study arms are populated
    s[:2] = 1, 1
    s[2] = 0
    z[0], z[1] = 1.0, 0.0
    return Dataset.fusion(s, z, y, x)


class CalibrationSystem:
    """Stacked estimating equations of a calibration estimator at an
    arbitrary nu: the reference that inference._sandwich_variance, which
    reads every block at the fit from the solver's own weights, and the
    finite-difference checks of criterion 8 are tested against.

    ``groups`` holds the calibrated sample labels: (1,) for transport,
    (0, 1) for data fusion. Parameter vector nu = (theta0, lambda_ga for g in
    groups and arm a in (0, 1), tau), length (2G + 1)m + 1 for G groups;
    (lambda_g0, lambda_g1) is the group's ``DualSolution.eta``, so unit i of
    group g and arm a has weight w_i = exp(-c_i . lambda_ga). A unit's
    residual has a target-moment block (c_i - theta0 on the target sample),
    one block per (group, arm), [z_i = a] w_i c_i - theta0 / 2 on the
    group's units, and the effect equation w_i ((2z_i - 1) y_i - z_i tau),
    each formed on its own rows only. All blocks vanish at the fitted
    parameters.

    ``blocks`` holds, per (group, arm) in the order of nu (arm 0 first),
    the group's and the arm's unit masks, the arm's slice of nu, and on the
    arm's rows its c, weights and effect residuals. ``psi_dot(x)`` is the
    residual matrix times x, formed without the matrix.
    """

    def __init__(self, cmat, s, z, y, nu, groups):
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

    def psi_dot(self, x):
        """psi @ x for the residual matrix psi: one entry per unit."""
        cmat, theta0, m = self.cmat, self.theta0, len(self.theta0)
        out = np.zeros(len(cmat))
        out[self.target] = (cmat @ x[:m])[self.target] - theta0 @ x[:m]
        for group, rows, lam, c_own, w, effect in self.blocks:
            out[group] -= theta0 @ x[lam] / 2.0
            out[rows] += w * (c_own @ x[lam]) + effect * x[-1]
        return out


def residual_matrix(system):
    """The whole residual matrix of a CalibrationSystem, column j psi @ e_j."""
    k = system.blocks[-1][2].stop + 1
    return np.column_stack([system.psi_dot(e) for e in np.eye(k)])


def jacobian(system):
    """The analytic Jacobian of a CalibrationSystem's residuals, summed over
    all units, placed from the system's own per-block values: -n0 I for
    theta0, and per (group, arm) -H = -c' diag(w) c, -(n_g / 2) I under
    theta0, -(effect' c) and -sum(w) (treated arms) in the tau row. The
    library solves A' x = e_tau by back-substitution over the same blocks
    and never forms A."""
    m = len(system.theta0)
    k = system.blocks[-1][2].stop + 1
    eye = np.eye(m)
    A = np.zeros((k, k))
    A[:m, :m] = -np.count_nonzero(system.target) * eye
    for index, (group, _, lam, c_own, w, effect) in enumerate(system.blocks):
        A[lam, lam] = -(c_own.T @ (c_own * w[:, None]))
        A[lam, :m] = -np.count_nonzero(group) / 2.0 * eye
        A[-1, lam] = -effect @ c_own
        A[-1, -1] -= index % 2 * w.sum()
    return A


def stacked_system(cmat, s, z, y, nu, groups):
    """The whole residual matrix and the Jacobian of the calibration system."""
    system = CalibrationSystem(cmat, s, z, y, nu, groups)
    return residual_matrix(system), jacobian(system)
