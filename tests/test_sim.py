import hashlib
import json
import logging
import math
import os
import subprocess
import sys
import threading
import time
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest

from targetcal import data, estimators, glm, sim, solver
from targetcal.errors import ConfigError, DegenerateDrawError, NonFiniteError
from targetcal.estimators import EstimatorKind
from targetcal.sim import (
    MAX_REDRAWS,
    SCENARIOS,
    LinearModel,
    RunnerConfig,
    ScenarioSpec,
    derive_seed,
    generate,
    run_experiment,
    transform_u,
    true_tau,
)

import oracles
from oracles import (
    generate_always_u,
    transform_u_two_pass,
    true_tau_adaptive,
    true_tau_always_u,
    true_tau_conditioned,
)

# Independent transcription of the generative-model coefficient table,
# re-typed by hand: (basis, intercept, four slopes) per model.
TRANSCRIPTION = {
    "A": {"rho": ("x", 0.5, -0.5, 0.5, -0.5, 0.5),
          "pi_study": ("x", 0.0, 0.5, -0.5, 0.5, -0.5),
          "pi_target": ("x", 0.0, 0.5, -0.5, 0.5, -0.5),
          "mu0_study": ("x", 2.0, -3.0, -1.0, 1.0, 3.0),
          "mu0_target": ("x", 2.0, -3.0, -1.0, 1.0, 3.0),
          "tilt": ("x", -2.0, -1.0, 3.0, -3.0, 1.0)},
    "B": {"rho": ("x", 2.0, -2.0, 2.0, -2.0, 2.0),
          "pi_study": ("x", 0.0, 0.5, -0.5, 0.5, -0.5),
          "pi_target": ("x", 0.0, 0.5, -0.5, 0.5, -0.5),
          "mu0_study": ("u", 2.0, -3.0, -1.0, 1.0, 3.0),
          "mu0_target": ("u", 2.0, -3.0, -1.0, 1.0, 3.0),
          "tilt": ("u", -2.0, -1.0, 3.0, -3.0, 1.0)},
    "C": {"rho": ("x", 0.5, -0.5, 0.5, -0.5, 0.5),
          "pi_study": ("x", 0.0, 2.0, -2.0, 2.0, -2.0),
          "pi_target": ("x", 0.0, 2.0, -2.0, 2.0, -2.0),
          "mu0_study": ("u", 2.0, -3.0, -1.0, 1.0, 3.0),
          "mu0_target": ("u", 2.0, -3.0, -1.0, 1.0, 3.0),
          "tilt": ("u", -2.0, -1.0, 3.0, -3.0, 1.0)},
    "D": {"rho": ("u", 0.5, -0.5, 0.5, -0.5, 0.5),
          "pi_study": ("u", 0.0, 0.5, -0.5, 0.5, -0.5),
          "pi_target": ("u", 0.0, 0.5, -0.5, 0.5, -0.5),
          "mu0_study": ("x", 2.0, -3.0, -1.0, 1.0, 3.0),
          "mu0_target": ("x", 0.0, 2.0, -2.0, -2.0, 2.0),
          "tilt": ("x", -2.0, -1.0, 3.0, -3.0, 1.0)},
    "E": {"rho": ("x", 0.5, -0.5, 0.5, -0.5, 0.5),
          "pi_study": ("x", 0.0, 0.5, -0.5, 0.5, -0.5),
          "pi_target": ("x", -0.5, 0.0, 0.0, 0.0, 0.0),
          "mu0_study": ("u", 2.0, -3.0, -1.0, 1.0, 3.0),
          "mu0_target": ("u", 2.0, -3.0, -1.0, 1.0, 3.0),
          "tilt": ("u", -2.0, -1.0, 3.0, -3.0, 1.0)},
    "F": {"rho": ("x", 0.5, -0.5, 0.5, -0.5, 0.5),
          "pi_study": ("x", 0.0, 0.5, -0.5, 0.5, -0.5),
          "pi_target": ("x", -0.5, 0.0, 0.0, 0.0, 0.0),
          "mu0_study": ("x", 2.0, -3.0, -1.0, 1.0, 3.0),
          "mu0_target": ("x", 0.0, 2.0, -2.0, -2.0, 2.0),
          "tilt": ("x", -2.0, -1.0, 3.0, -3.0, 1.0)},
    "G": {"rho": ("u", 0.5, -0.5, 0.5, -0.5, 0.5),
          "pi_study": ("u", 0.0, 0.5, -0.5, 0.5, -0.5),
          "pi_target": ("x", -0.5, 0.0, 0.0, 0.0, 0.0),
          "mu0_study": ("x", 2.0, -3.0, -1.0, 1.0, 3.0),
          "mu0_target": ("x", 0.0, 2.0, -2.0, -2.0, 2.0),
          "tilt": ("x", -2.0, -1.0, 3.0, -3.0, 1.0)},
    "H": {"rho": ("x", 0.5, -0.5, 0.5, -0.5, 0.5),
          "pi_study": ("x", 0.0, 0.5, -0.5, 0.5, -0.5),
          "pi_target": ("x", -0.5, 0.0, 0.0, 0.0, 0.0),
          "mu0_study": ("u", 2.0, -3.0, -1.0, 1.0, 3.0),
          "mu0_target": ("u", 0.0, 2.0, -2.0, -2.0, 2.0),
          "tilt": ("u", -2.0, -1.0, 3.0, -3.0, 1.0)},
}

# Checksum of the canonical serialization of the transcription above.
TRANSCRIPTION_SHA256 = "d4ccb070964971f52ba2d830044a7bf47f93d9d1fe97d616af2a4681f445692c"


def canonical_scenarios() -> str:
    payload = {}
    for sid, spec in sorted(SCENARIOS.items()):
        payload[sid] = {
            name: (model.basis,) + tuple(model.coef)
            for name, model in (
                ("rho", spec.rho), ("pi_study", spec.pi_study),
                ("pi_target", spec.pi_target), ("mu0_study", spec.mu0_study),
                ("mu0_target", spec.mu0_target), ("tilt", spec.tilt),
            )
        }
    return json.dumps(payload, sort_keys=True)


class TestScenarioTable:
    def test_matches_transcription(self):
        for sid, models in TRANSCRIPTION.items():
            spec = SCENARIOS[sid]
            for name, expected in models.items():
                model: LinearModel = getattr(spec, name)
                assert (model.basis,) + tuple(model.coef) == expected, (sid, name)

    def test_checksum_round_trip(self):
        digest = hashlib.sha256(canonical_scenarios().encode()).hexdigest()
        assert digest == TRANSCRIPTION_SHA256

    def test_all_eight_present(self):
        assert sorted(SCENARIOS) == list("ABCDEFGH")
        for spec in SCENARIOS.values():
            assert spec.outcome_sd == 1.0
            assert spec.covariate_dim == 4


class TestTransformU:
    def test_standardized_moments(self):
        rng = np.random.default_rng(1)
        u = transform_u(rng.standard_normal((5000, 4)))
        assert np.max(np.abs(u.mean(axis=0))) < 1e-12
        assert np.max(np.abs(u.std(axis=0) - 1.0)) < 1e-12

    def test_raw_u4_moments(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1_000_000, 4))
        raw = (x[:, 2] + x[:, 3]) ** 2
        assert raw.mean() == pytest.approx(2.0, rel=0.01)
        assert raw.var() == pytest.approx(8.0, rel=0.01)

    def test_raw_u3_mean(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1_000_000, 4))
        raw = np.log(np.abs(x[:, 1] * x[:, 2]))
        euler_gamma = 0.5772156649015329
        assert raw.mean() == pytest.approx(-(euler_gamma + math.log(2.0)), rel=0.01)

    def test_zero_product_guard(self):
        x = np.zeros((4, 4))
        with pytest.raises(NonFiniteError):
            transform_u(x)

    @pytest.mark.parametrize("shape", [(2, 4), (3, 4), (17, 4), (1000, 4), (65_537, 4),
                                       (301, 6)])
    def test_same_bits_as_two_pass(self, shape):
        x = np.random.default_rng(shape[0]).standard_normal(shape) * 1.7
        for layout in (x, np.asfortranarray(x), x[::-1]):
            assert transform_u(layout).tobytes() == transform_u_two_pass(layout).tobytes()

    @pytest.mark.parametrize("x", [
        np.zeros((4, 4)),                         # zero product
        np.tile([0.3, -1.2, 0.8, 2.0], (5, 1)),   # zero variance
        np.array([[800.0, 1.0, 1.0, 800.0], [0.1, 1.0, 1.0, 0.2]]),  # overflow
    ], ids=["zero_product", "zero_variance", "non_finite"])
    def test_errors_as_two_pass(self, x):
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError) as expected:
                transform_u_two_pass(x)
            with pytest.raises(NonFiniteError) as got:
                transform_u(x)
        assert str(got.value) == str(expected.value)


def check_oracle(spec, got):
    """got is true_tau(spec) at 20,000 draws, seed 3, in chunks of 7,000:
    the quadrature's value where rho and the tilt are on x (A and F), and
    otherwise the bits of the serial always-u loop."""
    if spec.rho.basis == spec.tilt.basis == "x":
        assert got == pytest.approx(true_tau_adaptive(spec), rel=0.0, abs=1e-12), spec.id
    else:
        assert got.hex() == true_tau_always_u(spec, 20_000, 3, chunk=7_000).hex(), spec.id


def _draw_bytes(dataset):
    return [np.ascontiguousarray(a).tobytes()
            for a in (dataset.s, dataset.z, dataset.y, dataset.x)]


class TestDrawsAgainstAlwaysU:
    """Draws skip transform_u where no model reads u, and must still be the
    bits of draws that always compute it."""

    @pytest.mark.parametrize("sid", sorted(SCENARIOS))
    def test_true_tau_bits(self, monkeypatch, sid):
        # Three chunks, the last one short.
        monkeypatch.setattr(sim, "ORACLE_CHUNK", 7_000)
        check_oracle(SCENARIOS[sid], true_tau(SCENARIOS[sid], oracle_n=20_000, seed=3))

    @pytest.mark.parametrize("sid", sorted(SCENARIOS))
    def test_generate_bits(self, sid):
        for n in (2, 40, 500, 20_000):
            seed = derive_seed(11, sid, n, 0, 0)
            try:
                expected = _draw_bytes(generate_always_u(SCENARIOS[sid], n, seed))
            except DegenerateDrawError as exc:
                with pytest.raises(DegenerateDrawError, match=str(exc)):
                    generate(SCENARIOS[sid], n, seed)
            else:
                assert _draw_bytes(generate(SCENARIOS[sid], n, seed)) == expected, n

    def test_transform_runs_only_where_u_is_read(self, monkeypatch):
        calls = []

        def counted(x):
            calls.append(len(x))
            return transform_u(x)

        monkeypatch.setattr(sim, "transform_u", counted)
        for sid, spec in sorted(SCENARIOS.items()):
            calls.clear()
            generate(spec, 500, derive_seed(2, sid, 500, 0, 0))
            true_tau(spec, oracle_n=1_000, seed=1)
            assert calls == ([] if sid in "AF" else [500, 1_000]), sid
            assert spec.reads_u == (sid not in "AF")

    def test_oracle_size_is_required(self):
        with pytest.raises(TypeError):
            true_tau(SCENARIOS["A"])


class TestGenerate:
    def test_deterministic(self):
        a = generate(SCENARIOS["B"], 400, seed=5)
        b = generate(SCENARIOS["B"], 400, seed=5)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.s, b.s)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.y, b.y)

    def test_seed_changes_draw(self):
        a = generate(SCENARIOS["A"], 400, seed=5)
        b = generate(SCENARIOS["A"], 400, seed=6)
        assert not np.array_equal(a.y, b.y)

    def test_scenario_e_target_propensity_constant(self):
        ds = generate(SCENARIOS["E"], 1_000_000, seed=8)
        target = ds.s == 0
        frac = ds.z[target].mean()
        assert frac == pytest.approx(1 / (1 + math.exp(0.5)), abs=0.005)

    def test_fusion_mode_output(self):
        ds = generate(SCENARIOS["H"], 300, seed=9)
        assert ds.mode == "fusion"

    def test_one_unit_rejected(self):
        with pytest.raises(ConfigError, match="need n >= 2"):
            generate(SCENARIOS["A"], 1, seed=0)

    def test_degenerate_draw_detected(self):
        steep = ScenarioSpec(
            "X",
            rho=LinearModel((12.0, 0.0, 0.0, 0.0, 0.0), "x"),
            pi_study=LinearModel((0.0, 0.5, -0.5, 0.5, -0.5), "x"),
            pi_target=LinearModel((0.0, 0.5, -0.5, 0.5, -0.5), "x"),
            mu0_study=LinearModel((0.0, 1.0, 0.0, 0.0, 0.0), "x"),
            mu0_target=LinearModel((0.0, 1.0, 0.0, 0.0, 0.0), "x"),
            tilt=LinearModel((1.0, 0.0, 0.0, 0.0, 0.0), "x"),
        )
        with pytest.raises(DegenerateDrawError):
            generate(steep, 50, seed=3)


class TestTrueTau:
    def test_matches_direct_target_mean(self):
        # independent oracle: rebuild the tilt average with plain numpy
        rng = np.random.default_rng(10)
        x = rng.standard_normal((400_000, 4))
        u_raw = np.column_stack([
            np.exp((x[:, 0] + x[:, 3]) / 2),
            x[:, 1] / (1 + np.exp(x[:, 0])),
            np.log(np.abs(x[:, 1] * x[:, 2])),
            (x[:, 2] + x[:, 3]) ** 2,
        ])
        u = (u_raw - u_raw.mean(axis=0)) / u_raw.std(axis=0)
        lin = 0.5 - 0.5 * x[:, 0] + 0.5 * x[:, 1] - 0.5 * x[:, 2] + 0.5 * x[:, 3]
        s = rng.random(400_000) < 1 / (1 + np.exp(-lin))
        tilt = -2 - u[:, 0] + 3 * u[:, 1] - 3 * u[:, 2] + u[:, 3]
        direct = tilt[~s].mean()
        value = true_tau(SCENARIOS["C"], oracle_n=400_000, seed=2)
        assert value == pytest.approx(direct, abs=0.03)

    def test_deterministic(self):
        a = true_tau(SCENARIOS["D"], oracle_n=200_000, seed=4)
        b = true_tau(SCENARIOS["D"], oracle_n=200_000, seed=4)
        assert a == b


class TestExactOracle:
    """Where rho and the tilt are both on x, true_tau is a quadrature that
    reads neither oracle_n nor seed; elsewhere scenarios with the same rho
    and tilt share one Monte Carlo estimand and its draws."""

    def test_a_and_f_are_minus_four(self):
        a = true_tau(SCENARIOS["A"], oracle_n=10_000_000, seed=1)
        assert abs(a + 4.0) <= 1e-12
        for sid, oracle_n, seed in [("F", 10_000_000, 1), ("A", 1, 0), ("F", 5, 99)]:
            assert true_tau(SCENARIOS[sid], oracle_n=oracle_n, seed=seed).hex() == a.hex()

    @pytest.mark.parametrize("rho", [(0.5, -0.5, 0.5, -0.5, 0.5), (2.0, -2.0, 2.0, -2.0, 2.0)],
                             ids=["A", "steep"])
    def test_matches_conditioned_monte_carlo(self, rho):
        spec = ScenarioSpec("X", LinearModel(rho, "x"), *_models(SCENARIOS["A"]))
        got = true_tau(spec, oracle_n=1, seed=0)
        mc, se = true_tau_conditioned(spec, 4_000_000, seed=7)
        assert abs(got - mc) <= 4.0 * se, (got, mc, se)

    @pytest.mark.parametrize("scale", [1.0, 10.0, 100.0])
    def test_matches_adaptive_quadrature(self, scale):
        # The grid's step shrinks with |a|, the slope of rho along v.
        rho = LinearModel((0.7, -scale, 2.0, -0.3 * scale, 2.0), "x")
        spec = ScenarioSpec("X", rho, *_models(SCENARIOS["F"]))
        got = true_tau(spec, oracle_n=1, seed=0)
        assert got == pytest.approx(true_tau_adaptive(spec), rel=0.0, abs=1e-12)

    def test_flat_rho_gives_tilt_intercept(self):
        spec = ScenarioSpec("X", LinearModel((1.5, 0.0, 0.0, 0.0, 0.0), "x"),
                            *_models(SCENARIOS["A"]))
        assert true_tau(spec, oracle_n=1, seed=0) == spec.tilt.coef[0] == -2.0

    def test_unreachable_target_sample(self):
        spec = ScenarioSpec("X", LinearModel((800.0, 0.5, 0.0, 0.0, 0.0), "x"),
                            *_models(SCENARIOS["A"]))
        with pytest.raises(DegenerateDrawError, match="probability zero"):
            true_tau(spec, oracle_n=1_000, seed=0)

    def test_grid_beyond_one_chunk_takes_monte_carlo(self, monkeypatch):
        # |a| = 40 needs a grid of 8,151 points, more than a 7,000-draw chunk.
        monkeypatch.setattr(sim, "ORACLE_CHUNK", 7_000)
        spec = ScenarioSpec("X", LinearModel((0.5, -20.0, 20.0, -20.0, 20.0), "x"),
                            *_models(SCENARIOS["A"]))
        got = true_tau(spec, oracle_n=20_000, seed=3)
        assert got.hex() == true_tau_always_u(spec, 20_000, 3, chunk=7_000).hex()

    def test_one_estimand_one_value(self, monkeypatch):
        monkeypatch.setattr(sim, "ORACLE_CHUNK", 7_000)
        taus = {sid: true_tau(spec, oracle_n=20_000, seed=3).hex()
                for sid, spec in SCENARIOS.items()}
        groups = ["AF", "B", "CEH", "DG"]
        for group in groups:
            assert {taus[sid] for sid in group} == {taus[group[0]]}, group
        assert len({taus[group[0]] for group in groups}) == len(groups)
        assert sim.true_taus("HDFB", oracle_n=20_000, seed=3) == {
            sid: float.fromhex(taus[sid]) for sid in "HDFB"}

    def test_campaign_runs_each_estimand_once(self, monkeypatch):
        calls = []

        def counted(spec, oracle_n, seed=0, _true_tau=true_tau):
            calls.append(spec.id)
            return _true_tau(spec, oracle_n, seed)

        monkeypatch.setattr(sim, "true_tau", counted)
        cfg = RunnerConfig(scenarios=tuple("FHGEC"), ns=(60,), reps=1,
                           kinds=(EstimatorKind.CAL_T,), seed=2, oracle_n=20_000,
                           tau0_overrides={"G": -2.7})
        echo = run_experiment(cfg).config["tau0"]
        assert calls == ["A", "C"]
        c = true_tau(SCENARIOS["C"], oracle_n=20_000, seed=2)
        assert echo == {"F": true_tau(SCENARIOS["A"], oracle_n=1), "H": c, "G": -2.7,
                        "E": c, "C": c}


def _models(spec):
    """spec's models after rho, in ScenarioSpec's order."""
    return spec.pi_study, spec.pi_target, spec.mu0_study, spec.mu0_target, spec.tilt


class TestOracleThreads:
    """true_tau runs its chunks on threads and adds their sums in chunk
    order, so its bits, its error and the threads left running are those of
    the serial loop in oracles.true_tau_always_u."""

    @pytest.fixture(autouse=True)
    def three_chunks(self, monkeypatch):
        # 20,000 draws in three chunks, the last one short.
        monkeypatch.setattr(sim, "ORACLE_CHUNK", 7_000)

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_bits_independent_of_cpu_count(self, monkeypatch, cpus):
        pools = []

        class RecordedPool(futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(sim.futures, "ThreadPoolExecutor", RecordedPool)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: cpus)
        before = threading.active_count()
        for sid, spec in sorted(SCENARIOS.items()):
            check_oracle(spec, true_tau(spec, oracle_n=20_000, seed=3))
        assert threading.active_count() == before
        # A and F are exact and start no pool.
        assert pools == [min(3, cpus)] * (len(SCENARIOS) - 2)

    def test_earliest_failing_chunk_raises(self, monkeypatch):
        # Chunks 1 and 2 fail, and chunk 1 fails last: an error taken in
        # the order the chunks finish would be chunk 2's.
        first_draw = {
            sim._rng(derive_seed(3, "true-tau", "B", idx)).standard_normal((7_000, 4))[0, 0]: idx
            for idx in range(3)
        }

        def failing(x, _transform=transform_u):
            idx = first_draw[x[0, 0]]
            if idx == 1:
                time.sleep(0.2)
            if idx:
                raise NonFiniteError(f"chunk {idx} failed")
            return _transform(x)

        monkeypatch.setattr(sim, "transform_u", failing)
        monkeypatch.setattr(oracles, "transform_u_two_pass", failing)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 4)
        with pytest.raises(NonFiniteError) as serial:
            true_tau_always_u(SCENARIOS["B"], 20_000, 3, chunk=7_000)
        before = threading.active_count()
        with pytest.raises(NonFiniteError) as threaded:
            true_tau(SCENARIOS["B"], oracle_n=20_000, seed=3)
        assert threading.active_count() == before
        assert type(threaded.value) is type(serial.value) is NonFiniteError
        assert str(threaded.value) == str(serial.value) == "chunk 1 failed"

    def test_no_draws_start_no_thread(self):
        before = threading.active_count()
        with pytest.raises(DegenerateDrawError, match="no target-sample units"):
            true_tau(SCENARIOS["B"], oracle_n=0)
        assert threading.active_count() == before


def test_import_leaves_the_process_pool_unloaded():
    # multiprocessing is loaded only when run_experiment starts processes.
    env = {**os.environ, "PYTHONPATH": str(Path(sim.__file__).parents[1])}
    code = ("import sys, targetcal.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'"
            " or m == 'concurrent.futures.process'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


class TestDeriveSeed:
    def test_component_sensitivity(self):
        base = derive_seed(7, "A", 500, 0)
        assert derive_seed(7, "A", 500, 1) != base
        assert derive_seed(7, "B", 500, 0) != base
        assert derive_seed(8, "A", 500, 0) != base
        assert derive_seed(7, "A", 2000, 0) != base

    def test_stable_values(self):
        # pinned so campaigns are reproducible across machines and versions
        assert derive_seed(0) == 16294208416658607535
        assert derive_seed(7, "A", 500, 0) == derive_seed(7, "A", 500, 0)


class TestRunner:
    def test_metrics_identities(self):
        cfg = RunnerConfig(scenarios=("A",), ns=(300,), reps=12,
                           kinds=(EstimatorKind.CAL_T, EstimatorKind.GCOMP),
                           seed=3, oracle_n=100_000, keep_replicates=True)
        table = run_experiment(cfg)
        for row in table.rows:
            assert row.n_ok + row.n_failed == 12
            assert row.rmse >= abs(row.bias) - 1e-12
            assert 0.0 <= row.coverage <= 1.0
        reps = [r for r in table.replicates if r.kind == "CAL_T"]
        taus = np.array([r.tau_hat for r in reps])
        row = table.row("A", 300, "CAL_T")
        with pytest.raises(KeyError):
            table.row("A", 301, "CAL_T")
        # rmse^2 = bias^2 + variance identity on the collected replicates
        assert row.rmse ** 2 == pytest.approx(
            row.bias ** 2 + taus.var(), abs=1e-10)

    def test_worker_independence(self):
        kinds = (EstimatorKind.CAL_T, EstimatorKind.AUG_T)
        base = RunnerConfig(scenarios=("A", "D"), ns=(200,), reps=6, kinds=kinds,
                            seed=21, oracle_n=50_000, keep_replicates=True)
        seq = run_experiment(base)
        par = run_experiment(RunnerConfig(scenarios=("A", "D"), ns=(200,), reps=6,
                                          kinds=kinds, seed=21, workers=2,
                                          oracle_n=50_000, keep_replicates=True))
        assert len(seq.replicates) == len(par.replicates)

        def same(u, v):
            return u == v or (math.isnan(u) and math.isnan(v))

        for a, b in zip(seq.replicates, par.replicates):
            assert (a.scenario, a.n, a.kind, a.rep, a.seed) == (b.scenario, b.n, b.kind, b.rep, b.seed)
            assert same(a.tau_hat, b.tau_hat)
            assert same(a.se, b.se)
            assert a.failed == b.failed

    def test_failed_replicates_recorded(self):
        # scenario C at tiny n produces occasional infeasible problems;
        # force failures by using a steep custom scenario via C at small n
        cfg = RunnerConfig(scenarios=("C",), ns=(30,), reps=20,
                           kinds=(EstimatorKind.CAL_T,), seed=5,
                           oracle_n=50_000, keep_replicates=True)
        table = run_experiment(cfg)
        row = table.rows[0]
        assert row.n_ok + row.n_failed == 20
        failed = [r for r in table.replicates if r.failed]
        assert all(r.error for r in failed)

    def test_small_n_fails_per_replicate(self):
        # At n=4 the balance matrix has fewer rows than columns; each
        # replicate records the error and the other sizes still run.
        cfg = RunnerConfig(scenarios=("A",), ns=(4, 60), reps=3,
                           kinds=(EstimatorKind.CAL_T,), seed=1,
                           tau0_overrides={"A": -4.0}, keep_replicates=True)
        table = run_experiment(cfg)
        assert [row.n for row in table.rows] == [4, 60]
        small = table.row("A", 4, "CAL_T")
        assert small.n_ok == 0 and small.n_failed == 3
        assert all(r.failed and r.error for r in table.replicates if r.n == 4)

    def test_degenerate_draw_names_its_class(self):
        # At n=3 every draw of scenario B leaves a sample or an arm empty.
        cfg = RunnerConfig(scenarios=("B",), ns=(3,), reps=20,
                           kinds=(EstimatorKind.CAL_T,), seed=5,
                           tau0_overrides={"B": 0.0}, keep_replicates=True)
        failed = [r for r in run_experiment(cfg).replicates if r.failed]
        assert failed
        for r in failed:
            assert r.error.startswith("DegenerateDrawError: ")
            assert r.error.endswith(f" (after {MAX_REDRAWS} draws)")

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            run_experiment(RunnerConfig(scenarios=("Z",), reps=1))
        with pytest.raises(ConfigError):
            run_experiment(RunnerConfig(reps=0))
        with pytest.raises(ConfigError, match="no sample sizes requested"):
            run_experiment(RunnerConfig(ns=()))
        with pytest.raises(ConfigError, match="no scenarios requested"):
            run_experiment(RunnerConfig(scenarios=()))
        with pytest.raises(ConfigError, match="no estimators requested"):
            run_experiment(RunnerConfig(kinds=()))
        # A count that is not an integer would fail inside the runner as a
        # TypeError, after the oracle has run. derive_seed folds the seed in
        # with int(), so a seed of 2.5 would run seed 2 and True seed 1.
        for bad, name in [({"reps": 2.5}, "reps"), ({"reps": True}, "reps"),
                          ({"ns": (200.5,)}, "sample size"), ({"ns": (True,)}, "sample size"),
                          ({"workers": 1.5}, "workers"), ({"oracle_n": 1e6}, "oracle_n"),
                          ({"seed": 2.5}, "seed"), ({"seed": True}, "seed"),
                          ({"seed": "3"}, "seed")]:
            with pytest.raises(ConfigError, match=f"^{name} must be an integer, not "):
                run_experiment(RunnerConfig(**bad))
        # A string level raised a bare TypeError; a string tau0 passed and
        # failed in the runner as a ValueError, a NaN one gave NaN bias and
        # coverage, and one for a scenario not requested was ignored.
        for bad, message in [({"level": "0.5"}, "confidence level must lie in"),
                             ({"tau0_overrides": {"A": "x"}}, "must be a finite number"),
                             ({"tau0_overrides": {"A": math.nan}}, "must be a finite number"),
                             ({"tau0_overrides": {"A": -4.0, "B": -3.5}},
                              "scenario 'B', which is not requested")]:
            with pytest.raises(ConfigError, match=message):
                run_experiment(RunnerConfig(reps=1, **bad))

    def test_any_integer_seed_accepted(self):
        for seed in (-1, 0, np.int64(7), 2 ** 70):
            RunnerConfig(seed=seed).validate()

    @pytest.mark.parametrize("cpus, expected", [(4, 4), (64, 6), (None, None)])
    def test_pool_bounded_by_tasks_and_cpus(self, monkeypatch, cpus, expected):
        # The pool forks all its processes at the first submit, so a huge
        # workers value must not reach it. The fake pool runs the tasks here.
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                assert chunksize == max(1, 6 // (expected * 8))
                return map(fn, tasks)

        monkeypatch.setattr(sim.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: cpus)
        kw = dict(scenarios=("A",), ns=(60,), reps=6, kinds=(EstimatorKind.CAL_T,),
                  seed=4, tau0_overrides={"A": -4.0}, keep_replicates=True)
        pooled = run_experiment(RunnerConfig(workers=10**6, **kw))
        serial = run_experiment(RunnerConfig(**kw))
        assert started == ([] if expected is None else [expected])
        assert pooled.replicates == serial.replicates

    def test_unknown_estimator_rejected(self):
        # Rejected before any replicate is drawn, as the CLI rejects it.
        cfg = RunnerConfig(kinds=("NOPE",), reps=1, tau0_overrides={"A": -4.0})
        with pytest.raises(ConfigError, match="unknown estimator 'NOPE'"):
            run_experiment(cfg)

    @pytest.mark.parametrize("field, values, named", [
        ("scenarios", ("A", "B", "A"), "scenario 'A'"),
        ("ns", (60, 60), "sample size '60'"),
        ("kinds", (EstimatorKind.CAL_T, "CAL_T"), "estimator 'CAL_T'"),
    ])
    def test_repeated_value_rejected(self, field, values, named):
        # A repeat would run its cells twice and pool both runs into one row.
        cfg = RunnerConfig(reps=1, tau0_overrides={"A": -4.0, "B": -3.5}, **{field: values})
        with pytest.raises(ConfigError, match=named):
            cfg.validate()

    @pytest.mark.parametrize("oracle_n", [0, -5])
    def test_oracle_n_must_be_positive(self, oracle_n):
        with pytest.raises(ConfigError, match="oracle_n must be >= 1"):
            RunnerConfig(oracle_n=oracle_n).validate()

    def test_smoke_two_reps_all_scenarios(self):
        cfg = RunnerConfig(scenarios=tuple("ABCDEFGH"), ns=(120,), reps=2,
                           kinds=(EstimatorKind.CAL_T,), seed=9, oracle_n=50_000)
        table = run_experiment(cfg)
        assert len(table.rows) == 8
        for row in table.rows:
            assert row.n_ok + row.n_failed == 2
            if row.n_ok:
                assert math.isfinite(row.bias)


def test_replicate_shares_one_nuisance_plan(monkeypatch):
    # TMLE, AUG_T and AUG_F share the propensity fit and TMLE's sampling
    # score; AUG_T and AUG_F share one sampling solve. Only TMLE's two
    # initial outcome fits and its fluctuation fit are its own. CAL_F takes
    # its study-sample solve from CAL_T, so three solves serve the replicate:
    # sampling, transport and the target-sample fusion half. The rank is
    # checked once per row set: the balance matrix when it is built (the
    # sampling score reads that verdict), the study sample (propensity score
    # and sampling solve), each study arm (outcome models, TMLE's initial
    # fits and the transport solve), each target arm (AUG_F's outcome models
    # and the fusion solve), and TMLE's fluctuation design.
    calls = {"fit_logistic": 0, "assemble_sampling": 0, "solve_entropy_dual": 0,
             "check_full_rank": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(glm, "fit_logistic", counted("fit_logistic", glm.fit_logistic))
    monkeypatch.setattr(solver, "assemble_sampling",
                        counted("assemble_sampling", solver.assemble_sampling))
    monkeypatch.setattr(solver, "solve_entropy_dual",
                        counted("solve_entropy_dual", solver.solve_entropy_dual))
    rank = counted("check_full_rank", data.check_full_rank)
    for module in (data, estimators, glm, solver):
        monkeypatch.setattr(module, "check_full_rank", rank)
    kinds = ("TMLE", "AUG_T", "CAL_T", "AUG_F", "CAL_F")
    results = sim._evaluate_replicate(("A", 500, 0, 0, kinds, 0.95))
    assert [r.kind for r in results if not r.failed] == list(kinds)
    assert calls == {"fit_logistic": 5, "assemble_sampling": 1, "solve_entropy_dual": 3,
                     "check_full_rank": 7}


def test_poor_overlap_replicate_skips_the_moot_solves(monkeypatch, caplog):
    # A scenario-B replicate whose sampling and transport problems are both
    # infeasible. AUG_T's sampling certificate, the same d in each arm, certifies
    # CAL_T's transport problem at iteration 0; AUG_F reads the cached
    # sampling failure, and CAL_F, whose study half fails, solves no target
    # half.
    solved = []
    for name in ("assemble_sampling", "assemble_transport", "assemble_fusion"):
        def tagged(*args, _name=name, _original=getattr(solver, name), **kwargs):
            solved.append(_name.removeprefix("assemble_"))
            return _original(*args, **kwargs)

        monkeypatch.setattr(solver, name, tagged)
    kinds = ("TMLE", "AUG_T", "CAL_T", "AUG_F", "CAL_F")
    with caplog.at_level(logging.DEBUG, logger="targetcal.solver"):
        results = sim._evaluate_replicate(("B", 500, 0, 1, kinds, 0.95))
    iterations = [r.args["iterations"] for r in caplog.records if r.name == "targetcal.solver"]
    assert [r.kind for r in results if r.failed] == ["AUG_T", "CAL_T", "AUG_F", "CAL_F"]
    assert solved == ["sampling", "transport"]
    assert len(iterations) == 2 and iterations[0] > 0 and iterations[1] == 0
