import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from targetcal.data import build_balance_matrix, target_moments
from targetcal.errors import NotConvergedError, RankDeficientError
from targetcal.sim import SCENARIOS, derive_seed, generate
from targetcal.solver import (
    EntropyProblem,
    assemble_ate_benchmark,
    assemble_fusion,
    assemble_sampling,
    assemble_transport,
    dual_gradient,
    dual_objective,
    iterative_calibration,
    solve_entropy_dual,
)

from conftest import draw_row_a, random_feasible_transport


def nelder_mead_eta(problem, k, maxiter=200_000):
    """Independent derivative-free minimization of the dual objective."""
    res = minimize(
        lambda eta: dual_objective(problem, eta),
        np.zeros(k),
        method="Nelder-Mead",
        options={"maxiter": maxiter, "maxfev": maxiter,
                 "xatol": 1e-12, "fatol": 1e-14, "adaptive": True},
    )
    return res.x


class TestSolveBasics:
    def test_intercept_only_unit_weights(self):
        prob = EntropyProblem(a=np.ones((4, 1)), b=np.array([4.0]),
                              active_rows=np.arange(4), n_units=4)
        sol = solve_entropy_dual(prob)
        assert np.allclose(sol.eta, 0.0, atol=1e-12)
        assert np.allclose(sol.weights, 1.0)

    def test_symmetric_two_unit(self):
        prob = EntropyProblem(a=np.array([[1.0, 1.0], [1.0, -1.0]]),
                              b=np.array([2.0, 0.0]),
                              active_rows=np.arange(2), n_units=2)
        sol = solve_entropy_dual(prob)
        assert np.allclose(sol.eta, 0.0, atol=1e-10)
        assert np.allclose(sol.weights, 1.0, atol=1e-10)

    def test_rank_deficient_rejected(self):
        a = np.column_stack([np.ones(5), np.ones(5)])
        prob = EntropyProblem(a=a, b=np.array([5.0, 5.0]),
                              active_rows=np.arange(5), n_units=5)
        with pytest.raises(RankDeficientError):
            solve_entropy_dual(prob)

    def test_infeasible_raises_with_worst_constraint(self):
        # Demand a weighted mean far outside the covariate hull.
        a = np.column_stack([np.ones(20), np.linspace(-1, 1, 20)])
        prob = EntropyProblem(a=a, b=np.array([20.0, 100.0]),
                              active_rows=np.arange(20), n_units=20)
        with pytest.raises(NotConvergedError) as err:
            solve_entropy_dual(prob, max_iter=60)
        assert err.value.worst_constraint is not None

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((30, 3))
        prob = EntropyProblem(a=a, b=rng.standard_normal(3),
                              active_rows=np.arange(30), n_units=30)
        for _ in range(10):
            eta = rng.standard_normal(3) * 0.5
            grad = dual_gradient(prob, eta)
            fd = np.zeros(3)
            h = 1e-5
            for j in range(3):
                e1, e2 = eta.copy(), eta.copy()
                e1[j] += h
                e2[j] -= h
                fd[j] = (dual_objective(prob, e1) - dual_objective(prob, e2)) / (2 * h)
            assert np.max(np.abs(grad - fd) / (1 + np.abs(fd))) < 1e-6

    def test_objective_monotone_under_backtracking(self):
        rng = np.random.default_rng(9)
        ds = random_feasible_transport(rng, n=120, m=4)
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        prob = assemble_transport(c, ds.s, ds.z, theta0)
        sol = solve_entropy_dual(prob)
        # replay a damped-Newton path identical to the solver's and check
        # each accepted step keeps the objective non-increasing
        eta = np.zeros(prob.a.shape[1])
        f_prev = dual_objective(prob, eta)
        for _ in range(sol.iterations):
            w = np.exp(-(prob.a @ eta))
            grad = prob.b - prob.a.T @ w
            hess = (prob.a * w[:, None]).T @ prob.a
            step = np.linalg.solve(hess, -grad)
            t = 1.0
            for _ in range(80):
                trial = eta + t * step
                f_t = dual_objective(prob, trial)
                if np.isfinite(f_t) and f_t <= f_prev + 1e-4 * t * float(grad @ step):
                    eta, f_new = trial, f_t
                    break
                t *= 0.5
            else:
                break
            assert f_new <= f_prev + 1e-10 * (1 + abs(f_prev))
            f_prev = f_new

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(21)
        ds = random_feasible_transport(rng, n=90, m=3)
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        prob = assemble_transport(c, ds.s, ds.z, theta0)
        sol = solve_entropy_dual(prob)
        kappa = 3.7
        scaled = EntropyProblem(a=prob.a, b=kappa * prob.b,
                                active_rows=prob.active_rows, n_units=prob.n_units)
        sol2 = solve_entropy_dual(scaled)
        m = c.m
        # only the plain-intercept coordinate (first column of the c block) moves
        expected = sol.eta.copy()
        expected[m] -= np.log(kappa)
        assert np.allclose(sol2.eta, expected, atol=1e-7)
        active = ds.s == 1
        ratio = sol2.weights[active] / sol.weights[active]
        assert np.allclose(ratio, kappa, rtol=1e-7)


class TestAssemblies:
    def test_sampling_balances_means(self):
        rng = np.random.default_rng(2)
        ds = random_feasible_transport(rng, n=150, m=4)
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        sol = solve_entropy_dual(assemble_sampling(c, ds.s, theta0))
        study = ds.s == 1
        target = ds.s == 0
        lhs = c.c[study].T @ sol.weights[study]
        rhs = c.c[target].sum(axis=0) * study.sum() / target.sum()
        # weighted study totals equal n1 * theta0 = (n1/n0) * target totals
        assert np.max(np.abs(lhs - rhs) / (1 + np.abs(rhs))) < 1e-8

    def test_sampling_already_balanced(self):
        x = np.array([[1.0], [2.0], [1.0], [2.0]])
        ds_s = np.array([1, 1, 0, 0])
        z = np.array([1.0, 0.0, 1.0, 0.0])
        from targetcal.data import Dataset

        ds = Dataset.fusion(ds_s, z, np.ones(4), x)
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        sol = solve_entropy_dual(assemble_sampling(c, ds.s, theta0))
        assert np.allclose(sol.eta, 0.0, atol=1e-9)

    def test_transport_constraints_hold(self):
        rng = np.random.default_rng(4)
        ds = random_feasible_transport(rng, n=160, m=4)
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        sol = solve_entropy_dual(assemble_transport(c, ds.s, ds.z, theta0))
        study = ds.s == 1
        w = sol.weights[study]
        z = ds.z[study]
        cs = c.c[study]
        n1 = study.sum()
        contrast = cs.T @ ((2 * z - 1) * w)
        total = cs.T @ w
        assert np.max(np.abs(contrast)) / n1 < 1e-8
        assert np.max(np.abs(total - n1 * theta0.theta0) / (1 + n1 * np.abs(theta0.theta0))) < 1e-8
        arm = cs.T @ (z * w)
        assert np.max(np.abs(arm - n1 * theta0.theta0 / 2) / (1 + np.abs(n1 * theta0.theta0 / 2))) < 1e-7

    def test_fusion_constraints_hold(self):
        rng = np.random.default_rng(6)
        ds = random_feasible_transport(rng, n=200, m=3)
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        for sample, prob in zip((0, 1), assemble_fusion(c, ds.s, ds.z, theta0)):
            sol = solve_entropy_dual(prob)
            mask = ds.s == sample
            w = sol.weights[mask]
            z = ds.z[mask]
            cm = c.c[mask]
            ns = mask.sum()
            assert np.max(np.abs(cm.T @ ((2 * z - 1) * w))) / ns < 1e-8
            total = cm.T @ w
            assert np.max(np.abs(total - ns * theta0.theta0) / (1 + ns * np.abs(theta0.theta0))) < 1e-8

    def test_benchmark_arms_match_full_means(self):
        rng = np.random.default_rng(12)
        ds = random_feasible_transport(rng, n=140, m=4)
        c = build_balance_matrix(ds)
        sol = solve_entropy_dual(assemble_ate_benchmark(c, ds.z))
        theta_full = c.c.mean(axis=0)
        n = ds.n
        for arm in (0.0, 1.0):
            mask = ds.z == arm
            tot = c.c[mask].T @ sol.weights[mask]
            assert np.max(np.abs(tot - n * theta_full / 2) / (1 + np.abs(n * theta_full / 2))) < 1e-7

    def test_balanced_randomized_study_unit_weights(self):
        # covariates identical across samples and arms, equal arm sizes
        x = np.array([[1.0], [2.0], [1.0], [2.0], [1.0], [2.0], [1.0], [2.0]])
        s = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        z = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0])
        from targetcal.data import Dataset

        ds = Dataset.fusion(s, z, np.ones(8), x)
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        sol = solve_entropy_dual(assemble_transport(c, ds.s, ds.z, theta0))
        assert sol.constraint_residual <= 1e-8
        assert np.allclose(sol.weights[ds.s == 1], 1.0, atol=1e-8)


class TestOracleAgreement:
    def test_small_instances_match_simplex_oracle(self):
        rng = np.random.default_rng(100)
        for trial in range(6):
            n = int(rng.integers(20, 60))
            m = int(rng.integers(2, 4))
            ds = random_feasible_transport(rng, n=n, m=m)
            c = build_balance_matrix(ds)
            theta0 = target_moments(c, ds.s)
            prob = assemble_sampling(c, ds.s, theta0)
            sol = solve_entropy_dual(prob)
            eta_nm = nelder_mead_eta(prob, c.m)
            w_nm = np.exp(-(prob.a @ eta_nm))
            assert np.max(np.abs(w_nm - sol.weights[prob.active_rows])) < 1e-5
            assert np.max(np.abs(eta_nm - sol.eta)) < 1e-5

    def test_transport_instance_matches_oracle(self):
        rng = np.random.default_rng(200)
        ds = random_feasible_transport(rng, n=40, m=2)
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        prob = assemble_transport(c, ds.s, ds.z, theta0)
        sol = solve_entropy_dual(prob)
        eta_nm = nelder_mead_eta(prob, 2 * c.m)
        w_nm = np.exp(-(prob.a @ eta_nm))
        assert np.max(np.abs(w_nm - sol.weights[prob.active_rows])) < 1e-5


class TestIterativeCalibration:
    def test_already_balanced_one_pass(self):
        x = np.array([[1.0], [2.0], [1.0], [2.0], [1.0], [2.0], [1.0], [2.0]])
        s = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        z = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0])
        from targetcal.data import Dataset

        ds = Dataset.fusion(s, z, np.ones(8), x)
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        sol = iterative_calibration(c, ds.s, ds.z, theta0)
        assert sol.iterations == 1
        assert np.allclose(sol.weights[ds.s == 1], 1.0, atol=1e-9)

    def test_matches_joint_solution(self):
        ds = draw_row_a(500, np.random.default_rng(55))
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        joint = solve_entropy_dual(assemble_transport(c, ds.s, ds.z, theta0))
        alt = iterative_calibration(c, ds.s, ds.z, theta0)
        assert np.max(np.abs(alt.weights - joint.weights)) < 1e-6

    def test_hajek_estimates_agree(self):
        rng = np.random.default_rng(77)
        ds = random_feasible_transport(rng, n=30, m=2)
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        joint = solve_entropy_dual(assemble_transport(c, ds.s, ds.z, theta0))
        alt = iterative_calibration(c, ds.s, ds.z, theta0)
        study = ds.s == 1

        def hajek(w):
            z = ds.z[study]
            y = ds.y[study]
            ws = w[study]
            return (np.average(y[z == 1], weights=ws[z == 1])
                    - np.average(y[z == 0], weights=ws[z == 0]))

        assert hajek(alt.weights) == pytest.approx(hajek(joint.weights), abs=1e-6)


def test_infeasible_solve_emits_no_warning():
    # A scenario-B replicate with no overlap: the pure-Newton branch tries a
    # point whose weights overflow; it must be rejected without a warning.
    ds = generate(SCENARIOS["B"], 500, derive_seed(7, "B", 500, 2, 0))
    c = build_balance_matrix(ds)
    theta0 = target_moments(c, ds.s)
    problems = [assemble_transport(c, ds.s, ds.z, theta0),
                assemble_fusion(c, ds.s, ds.z, theta0)[1]]
    for problem in problems:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotConvergedError):
                solve_entropy_dual(problem)


def test_exact_balance_over_random_instances():
    """Converged solutions satisfy the constraints and kill the SMDs."""
    from targetcal.data import standardized_mean_differences

    rng = np.random.default_rng(321)
    checked = 0
    for _ in range(30):
        ds = random_feasible_transport(rng)
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        try:
            sol = solve_entropy_dual(assemble_transport(c, ds.s, ds.z, theta0))
        except NotConvergedError:
            continue
        assert sol.constraint_residual <= 1e-8
        study = ds.s == 1
        weights = np.where(study, sol.weights, 1.0)
        smd_sample = standardized_mean_differences(c, ds.s.astype(int), weights)
        assert np.max(smd_sample) <= 1e-8
        checked += 1
    assert checked >= 25
