"""Acceptance suite: every shipped claim checked at its stated tolerance.

Campaigns are expensive, so they run once per session in shared fixtures;
each criterion prints one pass/fail line (visible with pytest -s) and the
collected lines are written to acceptance_report.txt next to the test tree.
"""

import os
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from targetcal.data import build_balance_matrix, standardized_mean_differences, target_moments
from targetcal.errors import NotConvergedError
from targetcal.estimators import EstimatorKind
from targetcal.sim import SCENARIOS, RunnerConfig, run_experiment, true_tau
from targetcal.solver import (
    EntropyProblem,
    assemble_sampling,
    assemble_transport,
    solve_entropy_dual,
)

from conftest import random_feasible_transport, stacked_system
from oracles import dual_gradient, dual_objective, dual_weights, iterative_calibration

REPS = 1000
WORKERS = min(4, os.cpu_count() or 1)
ORACLE_SEED = 1
ORACLE_DRAWS = 10_000_000

TABLE_TAU0 = {"A": -4.00, "B": -3.51, "C": -2.71, "D": -2.73,
              "E": -2.71, "F": -4.00, "G": -2.73, "H": -2.71}

_LINES = []


def check(criterion: str, ok: bool, detail: str) -> None:
    line = f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    _LINES.append(line)
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session", autouse=True)
def acceptance_report():
    yield
    path = Path(__file__).resolve().parent.parent / "acceptance_report.txt"
    path.write_text("\n".join(_LINES) + "\n")


@pytest.fixture(scope="session")
def tau0_oracle():
    return {
        sid: true_tau(SCENARIOS[sid], oracle_n=ORACLE_DRAWS, seed=ORACLE_SEED)
        for sid in "ABCDEFGH"
    }


def run_cell(scenarios, n, kinds, seed, tau0s, keep=False):
    cfg = RunnerConfig(
        scenarios=tuple(scenarios), ns=(n,), reps=REPS, kinds=tuple(kinds),
        seed=seed, workers=WORKERS, tau0_overrides={sid: tau0s[sid] for sid in scenarios},
        keep_replicates=keep,
    )
    return run_experiment(cfg)


@pytest.fixture(scope="session")
def campaign_a500(tau0_oracle):
    kinds = (EstimatorKind.TMLE, EstimatorKind.AUG_T, EstimatorKind.CAL_T,
             EstimatorKind.AUG_F, EstimatorKind.CAL_F)
    return run_cell("A", 500, kinds, seed=20250501, tau0s=tau0_oracle)


@pytest.fixture(scope="session")
def campaign_a2000(tau0_oracle):
    kinds = (EstimatorKind.CAL_T, EstimatorKind.AUG_T, EstimatorKind.CAL_F)
    return run_cell("A", 2000, kinds, seed=20252001, tau0s=tau0_oracle, keep=True)


@pytest.fixture(scope="session")
def campaign_d2000(tau0_oracle):
    kinds = (EstimatorKind.CAL_T, EstimatorKind.AUG_T, EstimatorKind.TMLE,
             EstimatorKind.AUG_F, EstimatorKind.CAL_F)
    return run_cell("D", 2000, kinds, seed=20252002, tau0s=tau0_oracle)


@pytest.fixture(scope="session")
def campaign_egh2000(tau0_oracle):
    kinds = (EstimatorKind.CAL_T, EstimatorKind.AUG_T, EstimatorKind.TMLE)
    return run_cell(("E", "G", "H"), 2000, kinds, seed=20252003, tau0s=tau0_oracle)


class TestCriterion1TableTwoScenarioA:
    def test_cal_transport_bias(self, campaign_a500):
        row = campaign_a500.row("A", 500, "CAL_T")
        ok = abs(row.bias - (-0.01)) <= 0.035
        check("criterion 1: CAL_T bias (A, n=500)", ok,
              f"bias={row.bias:+.4f}, target -0.01 +/- 0.035")

    @pytest.mark.parametrize("kind,target,tol", [
        ("CAL_T", 0.36, 0.10), ("CAL_F", 0.32, 0.10),
        ("AUG_T", 0.38, 0.10), ("TMLE", 0.45, 0.12),
    ])
    def test_rmse_reproduction(self, campaign_a500, kind, target, tol):
        row = campaign_a500.row("A", 500, kind)
        ok = abs(row.rmse - target) <= tol * target
        check(f"criterion 1: {kind} RMSE (A, n=500)", ok,
              f"rmse={row.rmse:.4f}, target {target} +/- {tol:.0%}")

    def test_runtime_envelope(self, campaign_a500):
        # every replicate accounted for; no silent drops
        for row in campaign_a500.rows:
            assert row.n_ok + row.n_failed == REPS


class TestCriterion2DoubleRobustness:
    @pytest.mark.parametrize("scenario", ["D", "E", "G", "H"])
    @pytest.mark.parametrize("kind", ["CAL_T", "AUG_T", "TMLE"])
    def test_transport_bias_bounded(self, campaign_d2000, campaign_egh2000,
                                    scenario, kind):
        table = campaign_d2000 if scenario == "D" else campaign_egh2000
        row = table.row(scenario, 2000, kind)
        ok = abs(row.bias) <= 0.06
        check(f"criterion 2: {kind} bias ({scenario}, n=2000)", ok,
              f"|bias|={abs(row.bias):.4f} <= 0.06")


class TestCriterion3ExchangeabilityFailure:
    def test_aug_fusion_biased(self, campaign_d2000):
        row = campaign_d2000.row("D", 2000, "AUG_F")
        ok = abs(row.bias - (-0.24)) <= 0.05
        check("criterion 3: AUG_F bias (D, n=2000)", ok,
              f"bias={row.bias:+.4f}, target -0.24 +/- 0.05")

    def test_cal_fusion_unbiased(self, campaign_d2000):
        row = campaign_d2000.row("D", 2000, "CAL_F")
        ok = abs(row.bias) <= 0.035
        check("criterion 3: CAL_F bias (D, n=2000)", ok,
              f"|bias|={abs(row.bias):.4f} <= 0.035")


class TestCriterion4Coverage:
    @pytest.mark.parametrize("kind,target", [
        ("CAL_T", 0.951), ("AUG_T", 0.954), ("CAL_F", 0.951),
    ])
    def test_coverage(self, campaign_a2000, kind, target):
        row = campaign_a2000.row("A", 2000, kind)
        ok = abs(row.coverage - target) <= 0.025
        check(f"criterion 4: {kind} coverage (A, n=2000)", ok,
              f"coverage={row.coverage:.3f}, target {target} +/- 0.025")


class TestCriterion5TauOracle:
    @pytest.mark.parametrize("scenario", list("ABCDEFGH"))
    def test_matches_table(self, tau0_oracle, scenario):
        got = tau0_oracle[scenario]
        want = TABLE_TAU0[scenario]
        ok = abs(got - want) <= 0.01
        check(f"criterion 5: tau0 oracle scenario {scenario}", ok,
              f"oracle={got:+.4f}, table {want:+.2f}, |diff|={abs(got - want):.4f} <= 0.01")


class TestCriterion6ExactBalance:
    def test_two_hundred_instances(self):
        rng = np.random.default_rng(606)
        converged = 0
        attempts = 0
        worst_resid = 0.0
        worst_smd = 0.0
        while converged < 200 and attempts < 400:
            attempts += 1
            n = int(rng.integers(50, 2001))
            m = int(rng.integers(2, 11))
            ds = random_feasible_transport(rng, n=n, m=m)
            c = build_balance_matrix(ds)
            theta0 = target_moments(c, ds.s)
            try:
                sol = solve_entropy_dual(assemble_transport(c, ds.s, ds.z, theta0))
            except NotConvergedError:
                continue
            converged += 1
            worst_resid = max(worst_resid, sol.constraint_residual)
            study = ds.s == 1
            weights = np.where(study, sol.weights, 1.0)
            smd_sample = standardized_mean_differences(c, ds.s.astype(int), weights)
            from targetcal.data import BalanceMatrix

            smd_arm = standardized_mean_differences(
                BalanceMatrix(c.c[study]), ds.z[study].astype(int), sol.weights[study])
            worst_smd = max(worst_smd, float(np.max(smd_sample)), float(np.max(smd_arm)))
        ok = converged >= 200 and worst_resid <= 1e-8 and worst_smd <= 1e-8
        check("criterion 6: exact balance over 200 instances", ok,
              f"converged={converged}/{attempts}, worst residual={worst_resid:.2e}, "
              f"worst SMD={worst_smd:.2e}")


class TestCriterion7OracleEquivalence:
    def test_fifty_instances(self):
        rng = np.random.default_rng(707)
        worst = 0.0
        done = 0
        while done < 50:
            n = int(rng.integers(20, 61))
            m = int(rng.integers(2, 4))
            ds = random_feasible_transport(rng, n=n, m=m)
            c = build_balance_matrix(ds)
            theta0 = target_moments(c, ds.s)
            if done % 2 == 0:
                prob = assemble_sampling(c, ds.s, theta0)
                k = c.m
            else:
                prob = assemble_transport(c, ds.s, ds.z, theta0)
                k = 2 * c.m
            try:
                sol = solve_entropy_dual(prob)
            except NotConvergedError:
                continue
            eta = np.zeros(k)
            f = lambda e: dual_objective(prob, e)
            for _ in range(3):
                # A tolerance below f's float resolution is never met and
                # every restart would run to maxfev; a few ulps of f at the
                # start point is the finest one that can be.
                res = minimize(
                    f, eta, method="Nelder-Mead",
                    options={"maxiter": 200_000, "maxfev": 200_000, "xatol": 1e-13,
                             "fatol": 4 * np.spacing(abs(f(eta))), "adaptive": True},
                )
                eta = res.x
            w_oracle = dual_weights(prob, eta)
            diff = float(np.max(np.abs(w_oracle - sol.weights[prob.active_rows])))
            worst = max(worst, diff)
            done += 1
        ok = worst <= 1e-5
        check("criterion 7: simplex-oracle weight agreement (50 instances)", ok,
              f"worst per-weight difference={worst:.2e} <= 1e-5")


class TestCriterion8DerivativeChecks:
    def test_dual_gradient(self):
        rng = np.random.default_rng(808)
        worst = 0.0
        for _ in range(10):
            n = int(rng.integers(30, 120))
            k = int(rng.integers(2, 5))
            a = rng.standard_normal((n, k))
            prob = EntropyProblem(blocks=[(a, rng.standard_normal(k) * 2)],
                                  active_rows=np.arange(n), n_units=n)
            eta = 0.3 * rng.standard_normal(k)
            grad = dual_gradient(prob, eta)
            fd = np.zeros(k)
            h = 1e-5
            for j in range(k):
                up, dn = eta.copy(), eta.copy()
                up[j] += h
                dn[j] -= h
                fd[j] = (dual_objective(prob, up) - dual_objective(prob, dn)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(grad - fd) / (1 + np.abs(fd)))))
        ok = worst <= 1e-5
        check("criterion 8: dual gradient vs finite differences", ok,
              f"worst relative error={worst:.2e} <= 1e-5")

    def test_sandwich_jacobians(self):
        rng = np.random.default_rng(809)
        worst = 0.0
        for trial in range(10):
            ds = random_feasible_transport(rng, n=100, m=3)
            c = build_balance_matrix(ds)
            theta0 = target_moments(c, ds.s)
            m = c.m
            if trial % 2 == 0:
                nu = np.concatenate([
                    theta0 + 0.05 * rng.standard_normal(m),
                    0.2 * rng.standard_normal(2 * m), [rng.standard_normal()]])
                system = lambda v: stacked_system(c.c, ds.s, ds.z, ds.y, v, groups=(1,))
            else:
                nu = np.concatenate([
                    theta0 + 0.05 * rng.standard_normal(m),
                    0.2 * rng.standard_normal(4 * m), [rng.standard_normal()]])
                system = lambda v: stacked_system(c.c, ds.s, ds.z, ds.y, v, groups=(0, 1))
            _, A = system(nu)
            k = len(nu)
            fd = np.zeros((k, k))
            h = 1e-6
            for j in range(k):
                up, dn = nu.copy(), nu.copy()
                up[j] += h
                dn[j] -= h
                fd[:, j] = (system(up)[0].sum(axis=0) - system(dn)[0].sum(axis=0)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(A - fd) / (1 + np.abs(fd)))))
        ok = worst <= 1e-5
        check("criterion 8: sandwich Jacobian vs finite differences", ok,
              f"worst relative error={worst:.2e} <= 1e-5")


class TestCriterion9IterativeEquivalence:
    def test_twenty_instances(self):
        rng = np.random.default_rng(909)
        worst = 0.0
        done = 0
        while done < 20:
            ds = random_feasible_transport(rng, n=int(rng.integers(60, 400)),
                                           m=int(rng.integers(2, 6)))
            c = build_balance_matrix(ds)
            theta0 = target_moments(c, ds.s)
            try:
                joint = solve_entropy_dual(assemble_transport(c, ds.s, ds.z, theta0))
                alt, _ = iterative_calibration(c, ds.s, ds.z, theta0)
            except NotConvergedError:
                continue
            worst = max(worst, float(np.max(np.abs(joint.weights - alt))))
            done += 1
        ok = worst <= 1e-6
        check("criterion 9: iterative calibration equals joint solve", ok,
              f"worst max-norm weight gap={worst:.2e} <= 1e-6 over 20 instances")


class TestCriterion10VarianceCalibration:
    @pytest.mark.parametrize("kind", ["CAL_T", "CAL_F"])
    def test_se_matches_replicate_variance(self, campaign_a2000, kind):
        reps = [r for r in campaign_a2000.replicates
                if r.kind == kind and not r.failed and np.isfinite(r.se)]
        taus = np.array([r.tau_hat for r in reps])
        ses = np.array([r.se for r in reps])
        ratio = float(np.mean(ses ** 2) / taus.var(ddof=1))
        ok = 0.85 <= ratio <= 1.15
        check(f"criterion 10: {kind} sandwich calibration (A, n=2000)", ok,
              f"mean SE^2 / empirical variance = {ratio:.3f} in [0.85, 1.15]")
