import logging
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import linprog, minimize

from targetcal import solver
from targetcal.data import BalanceMatrix, build_balance_matrix, target_moments
from targetcal.errors import (DegenerateDrawError, EmptyArmError, EmptyTargetError,
                              NotConvergedError, RankDeficientError)
from targetcal.sim import MAX_REDRAWS, SCENARIOS, derive_seed, generate
from targetcal.solver import (
    EntropyProblem,
    assemble_ate_benchmark,
    assemble_fusion,
    assemble_sampling,
    assemble_transport,
    solve_entropy_dual,
)

from conftest import draw_row_a, random_feasible_transport
from oracles import (
    dual_gradient,
    dual_objective,
    dual_weights,
    iterative_calibration,
    stacked_arm_balance,
)


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


# An intercept and one covariate on four units.
FOUR_UNITS = BalanceMatrix(np.column_stack([np.ones(4), np.arange(4.0)]))


class TestSolveBasics:
    def test_intercept_only_unit_weights(self):
        prob = EntropyProblem(blocks=[(np.ones((4, 1)), np.array([4.0]))],
                              active_rows=np.arange(4), n_units=4)
        sol = solve_entropy_dual(prob)
        assert np.allclose(sol.eta, 0.0, atol=1e-12)
        assert np.allclose(sol.weights, 1.0)

    def test_symmetric_two_unit(self):
        prob = EntropyProblem(blocks=[(np.array([[1.0, 1.0], [1.0, -1.0]]),
                                       np.array([2.0, 0.0]))],
                              active_rows=np.arange(2), n_units=2)
        sol = solve_entropy_dual(prob)
        assert np.allclose(sol.eta, 0.0, atol=1e-10)
        assert np.allclose(sol.weights, 1.0, atol=1e-10)

    def test_rank_deficient_rejected(self):
        a = np.column_stack([np.ones(5), np.ones(5)])
        prob = EntropyProblem(blocks=[(a, np.array([5.0, 5.0]))],
                              active_rows=np.arange(5), n_units=5)
        with pytest.raises(RankDeficientError):
            solve_entropy_dual(prob)

    @pytest.mark.parametrize("empty, error, message", [
        (lambda: solve_entropy_dual(EntropyProblem(blocks=[(np.empty((0, 2)), np.ones(2))],
                                                   active_rows=[], n_units=4)),
         EmptyArmError, "entropy problem has no active rows"),
        (lambda: assemble_sampling(FOUR_UNITS, np.zeros(4), np.ones(2)),
         EmptyTargetError, "study sample is empty"),
        (lambda: assemble_fusion(FOUR_UNITS, np.ones(4), np.array([1.0, 0.0, 1.0, 0.0]),
                                 np.ones(2)),
         EmptyTargetError, "sample s=0 is empty")], ids=["no_rows", "no_study", "no_target"])
    def test_empty_rows_are_typed_errors(self, empty, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            empty()

    def test_infeasible_raises_with_worst_constraint(self, monkeypatch):
        # Demand a weighted mean far outside the covariate hull.
        a = np.column_stack([np.ones(20), np.linspace(-1, 1, 20)])
        prob = EntropyProblem(blocks=[(a, np.array([20.0, 100.0]))],
                              active_rows=np.arange(20), n_units=20)
        monkeypatch.setattr(solver, "MAX_ITER", 60)
        with pytest.raises(NotConvergedError) as err:
            solve_entropy_dual(prob)
        assert err.value.worst_constraint is not None

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((30, 3))
        prob = EntropyProblem(blocks=[(a, rng.standard_normal(3))],
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
        # replay each arm's damped-Newton path, identical to the solver's, and
        # check each accepted step keeps the arm's term of the objective
        # non-increasing
        for a, b in prob.blocks:
            arm = EntropyProblem(blocks=[(a, b)], active_rows=np.arange(len(a)), n_units=len(a))
            eta = np.zeros(a.shape[1])
            f_prev = dual_objective(arm, eta)
            for _ in range(sol.iterations):
                w = np.exp(-(a @ eta))
                grad = b - a.T @ w
                hess = (a * w[:, None]).T @ a
                step = np.linalg.solve(hess, -grad)
                t = 1.0
                for _ in range(80):
                    trial = eta + t * step
                    f_t = dual_objective(arm, trial)
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
        scaled = EntropyProblem(blocks=[(a, kappa * b) for a, b in prob.blocks],
                                active_rows=prob.active_rows, n_units=prob.n_units)
        sol2 = solve_entropy_dual(scaled)
        m = c.m
        # only the intercept coordinate (first column) of each arm's block moves
        expected = sol.eta.copy()
        expected[[0, m]] -= np.log(kappa)
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
        assert np.max(np.abs(total - n1 * theta0) / (1 + n1 * np.abs(theta0))) < 1e-8
        arm = cs.T @ (z * w)
        assert np.max(np.abs(arm - n1 * theta0 / 2) / (1 + np.abs(n1 * theta0 / 2))) < 1e-7

    def test_fusion_constraints_hold(self):
        rng = np.random.default_rng(6)
        ds = random_feasible_transport(rng, n=200, m=3)
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        halves = (assemble_fusion(c, ds.s, ds.z, theta0),
                  assemble_transport(c, ds.s, ds.z, theta0))
        for sample, prob in zip((0, 1), halves):
            sol = solve_entropy_dual(prob)
            mask = ds.s == sample
            w = sol.weights[mask]
            z = ds.z[mask]
            cm = c.c[mask]
            ns = mask.sum()
            assert np.max(np.abs(cm.T @ ((2 * z - 1) * w))) / ns < 1e-8
            total = cm.T @ w
            assert np.max(np.abs(total - ns * theta0) / (1 + ns * np.abs(theta0))) < 1e-8

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
            w_nm = dual_weights(prob, eta_nm)
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
        w_nm = dual_weights(prob, eta_nm)
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
        weights, passes = iterative_calibration(c, ds.s, ds.z, theta0)
        assert passes == 1
        assert np.allclose(weights[ds.s == 1], 1.0, atol=1e-9)

    def test_matches_joint_solution(self):
        ds = draw_row_a(500, np.random.default_rng(55))
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        joint = solve_entropy_dual(assemble_transport(c, ds.s, ds.z, theta0))
        alt, _ = iterative_calibration(c, ds.s, ds.z, theta0)
        assert np.max(np.abs(alt - joint.weights)) < 1e-6

    def test_hajek_estimates_agree(self):
        rng = np.random.default_rng(77)
        ds = random_feasible_transport(rng, n=30, m=2)
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        joint = solve_entropy_dual(assemble_transport(c, ds.s, ds.z, theta0))
        alt, _ = iterative_calibration(c, ds.s, ds.z, theta0)
        study = ds.s == 1

        def hajek(w):
            z = ds.z[study]
            y = ds.y[study]
            ws = w[study]
            return (np.average(y[z == 1], weights=ws[z == 1])
                    - np.average(y[z == 0], weights=ws[z == 0]))

        assert hajek(alt) == pytest.approx(hajek(joint.weights), abs=1e-6)


def _overlap_violation():
    """A scenario-B replicate with no overlap: its transport problem, which is
    also the study-sample half of data fusion, is infeasible."""
    ds = generate(SCENARIOS["B"], 500, derive_seed(7, "B", 500, 2, 0))
    c = build_balance_matrix(ds)
    theta0 = target_moments(c, ds.s)
    return c, assemble_transport(c, ds.s, ds.z, theta0)


def test_infeasible_solve_emits_no_warning():
    # The pure-Newton branch tries a point whose weights overflow; it must be
    # rejected without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotConvergedError):
            solve_entropy_dual(_overlap_violation()[1])


def test_infeasible_solve_carries_farkas_certificate(monkeypatch):
    c, problem = _overlap_violation()
    monkeypatch.setattr(solver, "MAX_ITER", 50)
    with pytest.raises(NotConvergedError) as err:
        solve_entropy_dual(problem)
    d = err.value.direction
    assert d is not None, "no certificate within 50 iterations"
    assert d.shape == (c.m,)
    assert np.linalg.norm(d) == pytest.approx(1.0)
    # d belongs to the failing block, the arm; constraint j, the largest
    # |d_j|, is its balance column j.
    arm = err.value.block
    j = int(np.argmax(np.abs(d)))
    assert f"block {arm} of 2 " in str(err.value)
    assert f"constraint {j} " in str(err.value)
    # Read d as a separating hyperplane: every unit of the arm has
    # c_i . d >= 0 while its target, theta0 . d scaled, is negative, so the
    # arm does not cover the target moments.
    a, b = problem.blocks[arm]
    assert np.min(a @ d) >= -1e-9 * np.max(np.abs(a))
    assert b @ d < -1e-9 * np.sum(np.abs(b))
    assert 0 <= err.value.worst_constraint < c.m


def test_cap_tests_no_iterate_after_the_last_step(monkeypatch):
    # The certificate comes at the top of iteration k, on the iterate the
    # first k - 1 steps reach. A cap below k leaves that iterate untested:
    # the solve ends uncertified, after exactly the cap.
    _, problem = _overlap_violation()
    with pytest.raises(NotConvergedError) as err:
        solve_entropy_dual(problem)
    k = int(re.search(r"certificate for block 0 of 2 at iteration (\d+)",
                      str(err.value)).group(1))
    assert err.value.iterations == k
    for cap in range(1, k + 2):
        monkeypatch.setattr(solver, "MAX_ITER", cap)
        with pytest.raises(NotConvergedError) as err:
            solve_entropy_dual(problem)
        assert (err.value.block, err.value.iterations) == (0, min(cap, k))
        if cap < k:
            assert err.value.direction is None
            assert f"did not converge in block 0 of 2 after {cap} iterations" in str(err.value)
        else:
            assert f"block 0 of 2 at iteration {k} " in str(err.value)

def test_candidate_certificate_is_tested_before_the_first_step(caplog):
    # A candidate that passes the Farkas test ends the solve at iteration 0,
    # with one record; one that fails is ignored, and the solve runs as
    # without it.
    _, problem = _overlap_violation()
    with pytest.raises(NotConvergedError) as plain:
        solve_entropy_dual(problem)
    d = plain.value.direction
    with caplog.at_level(logging.DEBUG, logger="targetcal.solver"):
        with pytest.raises(NotConvergedError) as err:
            solve_entropy_dual(problem, certificate=d)
    # d is a unit vector up to rounding; the certificate is d / ||d||, as for an iterate.
    assert err.value.iterations == 0
    assert np.array_equal(err.value.direction, d / np.sqrt(d @ d))
    assert "Farkas certificate for block 0 of 2 at iteration 0 " in str(err.value)
    records = [r.args for r in caplog.records if r.name == "targetcal.solver"]
    assert [(r["iterations"], r["converged"], r["block"]) for r in records] == [(0, False, 0)]
    assert records[0]["eta"] == [0.0] * len(d)
    with pytest.raises(NotConvergedError) as ignored:
        solve_entropy_dual(problem, certificate=-d)
    assert str(ignored.value) == str(plain.value)
    assert np.array_equal(ignored.value.direction, d)


def test_failing_candidate_leaves_a_solution_bit_identical():
    ds = generate(SCENARIOS["A"], 300, derive_seed(2, "A", 300, 0, 0))
    c = build_balance_matrix(ds)
    problem = assemble_transport(c, ds.s, ds.z, target_moments(c, ds.s))
    candidate = np.zeros(c.m)
    candidate[0] = -1.0  # b . d < 0, but the rows' intercepts make a_i . d < 0
    plain = solve_entropy_dual(problem)
    tried = solve_entropy_dual(problem, certificate=candidate)
    assert plain.iterations == tried.iterations
    assert plain.eta.tobytes() == tried.eta.tobytes()
    assert plain.weights.tobytes() == tried.weights.tobytes()


def _draw(scenario, master, rep, n=500):
    """A replicate drawn as run_experiment draws it."""
    for attempt in range(MAX_REDRAWS):
        try:
            return generate(SCENARIOS[scenario], n, derive_seed(master, scenario, n, rep, attempt))
        except DegenerateDrawError:
            continue
    raise AssertionError("no draw")


def _verdict(problem):
    try:
        return "converged", solve_entropy_dual(problem)
    except NotConvergedError as exc:
        return ("uncertified" if exc.direction is None else "certified"), exc


def _arms(problem):
    """Each block of a problem as a one-block problem over the same units."""
    rows = np.split(problem.active_rows, np.cumsum([len(a) for a, _ in problem.blocks])[:-1])
    return [EntropyProblem(blocks=[block], active_rows=own, n_units=problem.n_units)
            for block, own in zip(problem.blocks, rows)]


@pytest.mark.parametrize("scenario", "ABCD")
def test_arms_match_stacked_reference_and_separate_solves(scenario):
    """The transport, fusion-target and benchmark problems of fixed draws,
    against the stacked [(2z-1) c, c] assembly they replaced and against
    their arms solved one at a time: the same verdict as the stacked
    problem, the same weights to a relative 1e-8 where both converge, and
    the separate arms' duals and weights to the bit. A failing problem fails
    as its first failing arm does, with that arm's block index, direction and
    iterations; a solution's iterations are the largest count of the arms."""
    verdicts = Counter()
    for rep in range(8):
        ds = _draw(scenario, 11, rep)
        c = build_balance_matrix(ds)
        theta0 = target_moments(c, ds.s)
        study, target = np.flatnonzero(ds.s == 1), np.flatnonzero(ds.s == 0)
        cohort = BalanceMatrix(c.c[study], names=c.names)
        cases = [
            (assemble_transport(c, ds.s, ds.z, theta0),
             stacked_arm_balance(c, ds.z, study, theta0)),
            (assemble_fusion(c, ds.s, ds.z, theta0), stacked_arm_balance(c, ds.z, target, theta0)),
            (assemble_ate_benchmark(cohort, ds.z[study]),
             stacked_arm_balance(cohort, ds.z[study], np.arange(study.size),
                                 cohort.c.mean(axis=0))),
        ]
        for problem, stacked in cases:
            verdict, got = _verdict(problem)
            assert verdict == _verdict(stacked)[0]
            verdicts[verdict] += 1
            arms = []
            for arm in _arms(problem):
                arms.append(_verdict(arm))
                if arms[-1][0] != "converged":
                    break
            if verdict != "converged":
                alone = arms[-1][1]
                assert (verdict, type(got)) == (arms[-1][0], type(alone))
                assert (got.block, got.iterations) == (len(arms) - 1, alone.iterations)
                assert (got.direction is None) == (alone.direction is None)
                assert got.direction is None or np.array_equal(got.direction, alone.direction)
                continue
            assert got.iterations == max(solved.iterations for _, solved in arms)
            rows = problem.active_rows
            reference = solve_entropy_dual(stacked).weights[rows]
            assert np.allclose(got.weights[rows], reference, rtol=1e-8, atol=0.0)
            assert np.array_equal(got.eta, np.concatenate([solved.eta for _, solved in arms]))
            assert np.array_equal(got.weights, sum(solved.weights for _, solved in arms))
    assert verdicts["converged"] > 0
    assert verdicts["uncertified"] == 0


def test_first_failing_block_ends_the_solve(monkeypatch, caplog):
    # The poor-overlap draw's control arm (block 0) is infeasible and its
    # treated arm is not. The control arm's certificate ends the solve; the
    # treated arm is never evaluated, not even at eta = 0, and the error is
    # the control arm's own.
    c, problem = _overlap_violation()
    control, treated = _arms(problem)
    with pytest.raises(NotConvergedError) as alone:
        solve_entropy_dual(control)
    assert solve_entropy_dual(treated).iterations > 0  # it would take steps
    treated_rows, dual_point = problem.blocks[1][0], solver._dual_point

    def recording(a, b, eta):
        assert a is not treated_rows, "the treated block was evaluated"
        return dual_point(a, b, eta)

    monkeypatch.setattr(solver, "_dual_point", recording)
    with caplog.at_level(logging.DEBUG, logger="targetcal.solver"):
        with pytest.raises(NotConvergedError) as err:
            solve_entropy_dual(problem)
    d = err.value.direction
    assert d.shape == (c.m,) and np.array_equal(d, alone.value.direction)
    assert (err.value.block, err.value.iterations, err.value.worst_constraint) == (
        0, alone.value.iterations, alone.value.worst_constraint)
    assert str(err.value) == str(alone.value).replace("block 0 of 1", "block 0 of 2")
    records = [r.args for r in caplog.records if r.name == "targetcal.solver"]
    assert len(records) == 1 and records[0]["block"] == 0
    assert records[0]["k"] == 2 * c.m and len(records[0]["eta"]) == c.m


def test_failure_names_its_own_block_and_count():
    # The A-H sweep's scenario-B replicate 4 (n=300, master seed 5): the
    # control arm converges in 10 iterations, then the treated arm is
    # certified at its own iteration 8, which the error reports.
    ds = _draw("B", 5, 4, n=300)
    c = build_balance_matrix(ds)
    problem = assemble_transport(c, ds.s, ds.z, target_moments(c, ds.s))
    control, _ = _arms(problem)
    assert solve_entropy_dual(control).iterations == 10
    with pytest.raises(NotConvergedError) as err:
        solve_entropy_dual(problem)
    assert (err.value.block, err.value.iterations) == (1, 8)
    assert err.value.direction.shape == (c.m,)
    assert "Farkas certificate for block 1 of 2 at iteration 8 " in str(err.value)


def _campaign_problems(scenario):
    """Every distinct sampling, transport and fusion (target-sample) problem
    of 40 fixed draws of ``scenario`` (n=500, master seeds 0-7, replicates
    0-4), drawn as run_experiment draws them; the study-sample half of fusion
    is the transport problem. Scenario B's are the draws the campaign_b500
    benchmark replays."""
    for master in range(8):
        for rep in range(5):
            for attempt in range(MAX_REDRAWS):
                try:
                    ds = generate(SCENARIOS[scenario], 500,
                                  derive_seed(master, scenario, 500, rep, attempt))
                    break
                except DegenerateDrawError:
                    continue
            c = build_balance_matrix(ds)
            theta0 = target_moments(c, ds.s)
            yield assemble_sampling(c, ds.s, theta0)
            yield assemble_transport(c, ds.s, ds.z, theta0)
            yield assemble_fusion(c, ds.s, ds.z, theta0)


# Scenario B has poor overlap, so sampling and transport problems fail;
# scenario C's steep propensity leaves a study or target arm unable to reach
# theta0. The last entry is the total Newton iterations of the problems that
# converge, which the certificate test must leave as they are.
@pytest.mark.parametrize("scenario, converged_iterations", [("B", 572), ("C", 699)],
                         ids=["B", "C"])
def test_certificates_agree_with_lp_feasibility(scenario, converged_iterations):
    """A certified problem has no w >= 0 that meets a_k^T w_k = b_k in every
    block k, and every other problem converges; an LP feasibility check
    decides each independently.
    Certificates come within a dozen Newton iterations."""
    verdicts = Counter()
    iterations = Counter()
    for problem in _campaign_problems(scenario):
        # Feasible exactly when every block is.
        lp = [linprog(np.zeros(len(a)), A_eq=a.T, b_eq=b, bounds=(0, None),
                      method="highs").status for a, b in problem.blocks]
        assert set(lp) <= {0, 2}  # feasible, infeasible
        try:
            count = solve_entropy_dual(problem).iterations
            verdict = "converged"
        except NotConvergedError as exc:
            count = exc.iterations
            verdict = "uncertified" if exc.direction is None else "certified"
        assert verdict == ("certified" if 2 in lp else "converged")
        if verdict == "certified":
            assert count <= 12
        verdicts[verdict] += 1
        iterations[verdict] += count
    assert verdicts["certified"] > 0 and verdicts["converged"] > 0
    assert iterations["converged"] == converged_iterations


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
