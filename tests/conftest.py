"""Shared fixtures and small dataset builders."""

import numpy as np
import pytest

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
