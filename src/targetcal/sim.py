"""Scenario generators, the Monte Carlo experiment runner, metric
computation, and the true-effect oracle.

Replicate seeds are derived from (master seed, scenario, n, replicate index)
with a SplitMix64 fold feeding numpy's counter-based Philox generator, so a
campaign is reproducible across machines and independent of worker count or
execution order.
"""

from __future__ import annotations

import math
import numbers
import os
from collections import defaultdict
from concurrent import futures
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import Dataset, build_balance_matrix
from .errors import ConfigError, DegenerateDrawError, NonFiniteError, TargetcalError
from .estimators import FUSION_ONLY, EstimatorKind, Fits
from .glm import expit
from .inference import estimate_with_ci

RNG_ALGORITHM = "numpy Philox4x64-10, SplitMix64-derived keys"

# Draws per chunk of the true-effect oracle, and fresh draws a replicate may
# take before it is recorded as degenerate.
ORACLE_CHUNK = 1_000_000
MAX_REDRAWS = 10

_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(*components) -> int:
    """Fold integer/string components into a 64-bit Philox key."""
    state = 0
    for comp in components:
        if isinstance(comp, str):
            for byte in comp.encode("utf-8"):
                state = _mix64(state ^ byte)
        else:
            state = _mix64(state ^ (int(comp) & _MASK64))
    return state


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True)
class LinearModel:
    """Intercept-plus-slopes linear form evaluated on x or u columns."""

    coef: tuple
    basis: str  # "x" or "u"

    def evaluate(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        mat = x if self.basis == "x" else u
        coef = np.asarray(self.coef, dtype=float)
        return coef[0] + mat @ coef[1:]


@dataclass(frozen=True)
class ScenarioSpec:
    """Generative models for one simulation scenario.

    mu1 = mu0 + tilt everywhere; the tilt never depends on the sample, so
    the target-population effect is E[tilt | s=0]. The outcome noise is
    homoscedastic normal with sd ``outcome_sd``.
    """

    id: str
    rho: LinearModel
    pi_study: LinearModel
    pi_target: LinearModel
    mu0_study: LinearModel
    mu0_target: LinearModel
    tilt: LinearModel
    outcome_sd: float = 1.0
    covariate_dim: int = 4

    @property
    def reads_u(self) -> bool:
        """Whether a model is on u: only then do draws compute transform_u."""
        return "u" in {m.basis for m in (self.rho, self.pi_study, self.pi_target,
                                         self.mu0_study, self.mu0_target, self.tilt)}


def _scenario_table() -> dict[str, ScenarioSpec]:
    rho_mild_x = LinearModel((0.5, -0.5, 0.5, -0.5, 0.5), "x")
    rho_mild_u = LinearModel((0.5, -0.5, 0.5, -0.5, 0.5), "u")
    rho_steep_x = LinearModel((2.0, -2.0, 2.0, -2.0, 2.0), "x")
    pi_mild_x = LinearModel((0.0, 0.5, -0.5, 0.5, -0.5), "x")
    pi_mild_u = LinearModel((0.0, 0.5, -0.5, 0.5, -0.5), "u")
    pi_steep_x = LinearModel((0.0, 2.0, -2.0, 2.0, -2.0), "x")
    pi_const = LinearModel((-0.5, 0.0, 0.0, 0.0, 0.0), "x")
    mu_base_x = LinearModel((2.0, -3.0, -1.0, 1.0, 3.0), "x")
    mu_base_u = LinearModel((2.0, -3.0, -1.0, 1.0, 3.0), "u")
    mu_alt_x = LinearModel((0.0, 2.0, -2.0, -2.0, 2.0), "x")
    mu_alt_u = LinearModel((0.0, 2.0, -2.0, -2.0, 2.0), "u")
    tilt_x = LinearModel((-2.0, -1.0, 3.0, -3.0, 1.0), "x")
    tilt_u = LinearModel((-2.0, -1.0, 3.0, -3.0, 1.0), "u")

    return {
        "A": ScenarioSpec("A", rho_mild_x, pi_mild_x, pi_mild_x,
                          mu_base_x, mu_base_x, tilt_x),
        "B": ScenarioSpec("B", rho_steep_x, pi_mild_x, pi_mild_x,
                          mu_base_u, mu_base_u, tilt_u),
        "C": ScenarioSpec("C", rho_mild_x, pi_steep_x, pi_steep_x,
                          mu_base_u, mu_base_u, tilt_u),
        "D": ScenarioSpec("D", rho_mild_u, pi_mild_u, pi_mild_u,
                          mu_base_x, mu_alt_x, tilt_x),
        "E": ScenarioSpec("E", rho_mild_x, pi_mild_x, pi_const,
                          mu_base_u, mu_base_u, tilt_u),
        "F": ScenarioSpec("F", rho_mild_x, pi_mild_x, pi_const,
                          mu_base_x, mu_alt_x, tilt_x),
        "G": ScenarioSpec("G", rho_mild_u, pi_mild_u, pi_const,
                          mu_base_x, mu_alt_x, tilt_x),
        "H": ScenarioSpec("H", rho_mild_x, pi_mild_x, pi_const,
                          mu_base_u, mu_alt_u, tilt_u),
    }


SCENARIOS = _scenario_table()

def transform_u(x: np.ndarray) -> np.ndarray:
    """Misspecification transforms of the covariates, each column centered
    and scaled by its own moments in ``x``; centered in place by the same
    reductions as ``(u - u.mean(0)) / u.std(0)``, so bit for bit equal."""
    x = np.asarray(x, dtype=float)
    prod = np.abs(x[:, 1] * x[:, 2])
    if np.any(prod == 0.0):
        raise NonFiniteError("log|x2*x3| undefined for a zero product")
    u = np.empty((len(x), 4))
    # exp and log fill contiguous buffers: a strided output may take another SIMD path.
    u[:, 0] = np.exp((x[:, 0] + x[:, 3]) / 2.0)
    np.divide(x[:, 1], 1.0 + np.exp(x[:, 0]), out=u[:, 1])
    u[:, 2] = np.log(prod)
    np.square(x[:, 2] + x[:, 3], out=u[:, 3])
    if not np.isfinite(u).all():
        raise NonFiniteError("misspecification transform produced non-finite values")
    u -= u.mean(axis=0)
    sd = np.sqrt(np.square(u).sum(axis=0) / len(u))
    if np.any(sd == 0.0):
        raise NonFiniteError("degenerate transform column (zero variance)")
    return np.divide(u, sd, out=u)


def generate(scenario: ScenarioSpec, n: int, seed: int) -> Dataset:
    """Draw a fusion-mode dataset from the scenario's generative models.

    Draw order is fixed: covariates, sample uniforms, treatment uniforms,
    control noise, treated noise. Raises DegenerateDrawError when a sample or
    a within-sample arm comes up empty.
    """
    if n < 2:
        raise ConfigError("need n >= 2")
    rng = _rng(seed)
    x = rng.standard_normal((n, scenario.covariate_dim))
    u = transform_u(x) if scenario.reads_u else None
    s = (rng.random(n) < expit(scenario.rho.evaluate(x, u))).astype(np.int8)
    pi_lin = np.where(
        s == 1,
        scenario.pi_study.evaluate(x, u),
        scenario.pi_target.evaluate(x, u),
    )
    z = (rng.random(n) < expit(pi_lin)).astype(float)
    mu0 = np.where(
        s == 1,
        scenario.mu0_study.evaluate(x, u),
        scenario.mu0_target.evaluate(x, u),
    )
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


def true_tau(scenario: ScenarioSpec, oracle_n: int, seed: int = 0) -> float:
    """Monte Carlo oracle for the target-population effect E[tilt | s=0].

    Simulates directly from the generative models in chunks (each chunk
    standardizes its transforms like one generated dataset); no outcome noise
    enters because the per-unit effect is the noise-free tilt. Chunks run on
    up to one thread per CPU, each from its own key, and their sums are added
    in chunk order, so the value has the same bits for any number of CPUs. A
    failure raises the earliest failing chunk's error.
    """
    sizes = [min(ORACLE_CHUNK, oracle_n - start) for start in range(0, oracle_n, ORACLE_CHUNK)]
    # map yields in chunk order and re-raises the first failure in that
    # order; leaving the block joins every thread. With no chunks the pool
    # starts no thread, and the DegenerateDrawError below is raised.
    threads = max(1, min(len(sizes), os.cpu_count() or 1))
    with futures.ThreadPoolExecutor(max_workers=threads) as pool:
        chunks = list(pool.map(partial(_oracle_chunk, scenario, seed), range(len(sizes)), sizes))
    # One float add per chunk, in chunk order (the builtin sum compensates
    # from Python 3.12 on, which would change the bits).
    total = 0.0
    count = 0
    for chunk_total, chunk_count in chunks:
        total += chunk_total
        count += chunk_count
    if count == 0:
        raise DegenerateDrawError("oracle produced no target-sample units")
    return total / count


def _oracle_chunk(scenario: ScenarioSpec, seed: int, idx: int, size: int) -> tuple:
    """Tilt sum and count over the target-sample units of oracle chunk ``idx``."""
    rng = _rng(derive_seed(seed, "true-tau", scenario.id, idx))
    x = rng.standard_normal((size, scenario.covariate_dim))
    u = transform_u(x) if scenario.reads_u else None
    s = rng.random(size) < expit(scenario.rho.evaluate(x, u))
    tilt = scenario.tilt.evaluate(x, u)
    return float(tilt[~s].sum()), int((~s).sum())


@dataclass
class ReplicateResult:
    scenario: str
    n: int
    kind: str
    rep: int
    seed: int
    tau_hat: float = math.nan
    se: float = math.nan
    ci_low: float = math.nan
    ci_high: float = math.nan
    failed: bool = False
    error: str = ""


@dataclass
class MetricsRow:
    scenario: str
    n: int
    kind: str
    tau0: float
    bias: float
    rmse: float
    coverage: float
    n_ok: int
    n_failed: int


@dataclass
class MetricsTable:
    rows: list
    config: dict
    replicates: list = field(default_factory=list)

    def row(self, scenario: str, n: int, kind: str) -> MetricsRow:
        for r in self.rows:
            if (r.scenario, r.n, r.kind) == (scenario, n, kind):
                return r
        raise KeyError((scenario, n, kind))


@dataclass
class RunnerConfig:
    scenarios: tuple = ("A",)
    ns: tuple = (500,)
    reps: int = 10
    kinds: tuple = (EstimatorKind.CAL_T,)
    seed: int = 0
    workers: int = 1
    level: float = 0.95
    oracle_n: int = 2_000_000
    tau0_overrides: dict = field(default_factory=dict)
    keep_replicates: bool = False

    def validate(self) -> None:
        if not self.scenarios:
            raise ConfigError("no scenarios requested")
        for sid in self.scenarios:
            if sid not in SCENARIOS:
                raise ConfigError(f"unknown scenario '{sid}'")
        if not self.kinds:
            raise ConfigError("no estimators requested")
        for kind in self.kinds:
            try:
                EstimatorKind(kind)
            except ValueError:
                raise ConfigError(f"unknown estimator '{kind}'") from None
        if not self.ns:
            raise ConfigError("no sample sizes requested")
        # Counts and the seed are integers, which a bool is not: 2.5 would
        # reach range(), and derive_seed would fold a seed of 2.5 in as 2.
        for name, value, least in [("seed", self.seed, None),
                                   ("reps", self.reps, 1), ("workers", self.workers, 1),
                                   ("oracle_n", self.oracle_n, 1),
                                   *(("sample size", n, 2) for n in self.ns)]:
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, not {value!r}")
            if least is not None and value < least:
                raise ConfigError(f"{name} must be >= {least}")
        if not (_is_real(self.level) and 0.0 < self.level < 1.0):
            raise ConfigError(f"confidence level must lie in (0, 1), not {self.level!r}")
        # A repeated value would run its cells twice and pool both runs.
        for label, values in (("scenario", self.scenarios), ("sample size", self.ns),
                              ("estimator", [getattr(k, "value", k) for k in self.kinds])):
            seen = set()
            for value in values:
                if value in seen:
                    raise ConfigError(f"{label} '{value}' is requested twice")
                seen.add(value)
        # A tau0 that is not a finite number would fail in the runner, or
        # turn every bias and coverage into NaN; one for a scenario not run
        # would go unused.
        for sid, tau0 in self.tau0_overrides.items():
            if sid not in self.scenarios:
                raise ConfigError(f"tau0 override for scenario '{sid}', which is not requested")
            if not (_is_real(tau0) and math.isfinite(tau0)):
                raise ConfigError(f"tau0 override for scenario '{sid}' must be a finite "
                                  f"number, not {tau0!r}")


def _is_real(value) -> bool:
    """A real number that is not a bool (a str or True is not a level or tau0)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _evaluate_replicate(task: tuple) -> list:
    """Generate one replicate and run every requested estimator on it."""
    scenario_id, n, rep, master_seed, kind_values, level = task
    scenario = SCENARIOS[scenario_id]
    results = []

    def failed(error: str, kinds: tuple = kind_values) -> list:
        return [ReplicateResult(scenario_id, n, kv, rep, seed, failed=True, error=error)
                for kv in kinds]

    for attempt in range(MAX_REDRAWS):
        seed = derive_seed(master_seed, scenario_id, n, rep, attempt)
        try:
            dataset = generate(scenario, n, seed)
            break
        except DegenerateDrawError as exc:
            error = f"{type(exc).__name__}: {exc} (after {MAX_REDRAWS} draws)"
    else:
        return failed(error)
    # One Fits serves both views (only its fusion member reads target-sample
    # data); the transport view keeps the other kinds from target outcomes.
    try:
        fits = Fits(dataset, build_balance_matrix(dataset))
    except TargetcalError as exc:
        return failed(f"{type(exc).__name__}: {exc}")
    transport_view = dataset.to_transport()
    for kv in kind_values:
        kind = EstimatorKind(kv)
        view = dataset if kind in FUSION_ONLY else transport_view
        try:
            est = estimate_with_ci(view, fits, kind=kind, level=level)
        except TargetcalError as exc:
            results += failed(f"{type(exc).__name__}: {exc}", (kv,))
            continue
        results.append(ReplicateResult(scenario_id, n, kv, rep, seed, tau_hat=est.tau_hat,
                                       se=est.se, ci_low=est.ci_low, ci_high=est.ci_high))
    return results


def run_experiment(config: RunnerConfig) -> MetricsTable:
    """Run the Monte Carlo campaign and aggregate bias, RMSE, and coverage.

    Deterministic for a given config and seed regardless of worker count:
    replicate seeds depend only on (seed, scenario, n, rep), and aggregation
    follows replicate order.
    """
    config.validate()
    kind_values = tuple(
        k.value if isinstance(k, EstimatorKind) else str(k) for k in config.kinds
    )
    tau0s = {}
    for sid in config.scenarios:
        if sid in config.tau0_overrides:
            tau0s[sid] = float(config.tau0_overrides[sid])
        else:
            tau0s[sid] = true_tau(SCENARIOS[sid], oracle_n=config.oracle_n, seed=config.seed)

    tasks = [
        (sid, n, rep, config.seed, kind_values, config.level)
        for sid in config.scenarios
        for n in config.ns
        for rep in range(config.reps)
    ]
    # The pool starts all its processes at once, so never more than there
    # are tasks or CPUs to run them.
    processes = min(config.workers, len(tasks), os.cpu_count() or 1)
    if processes > 1:
        chunksize = max(1, len(tasks) // (processes * 8))
        with futures.ProcessPoolExecutor(max_workers=processes) as pool:
            batches = list(pool.map(_evaluate_replicate, tasks, chunksize=chunksize))
    else:
        batches = [_evaluate_replicate(t) for t in tasks]
    replicates = [r for batch in batches for r in batch]

    cells = defaultdict(list)
    for r in replicates:
        cells[(r.scenario, r.n, r.kind)].append(r)
    rows = []
    for sid in config.scenarios:
        for n in config.ns:
            for kv in kind_values:
                cell = cells[(sid, n, kv)]
                ok = [r for r in cell if not r.failed]
                tau0 = tau0s[sid]
                if ok:
                    taus = np.array([r.tau_hat for r in ok])
                    bias = float(taus.mean() - tau0)
                    rmse = float(np.sqrt(np.mean((taus - tau0) ** 2)))
                    coverage = float(np.mean([r.ci_low <= tau0 <= r.ci_high for r in ok]))
                else:
                    bias = rmse = coverage = math.nan
                rows.append(
                    MetricsRow(
                        scenario=sid, n=n, kind=kv, tau0=tau0,
                        bias=bias, rmse=rmse, coverage=coverage,
                        n_ok=len(ok), n_failed=len(cell) - len(ok),
                    )
                )
    echo = {
        "scenarios": list(config.scenarios),
        "ns": list(config.ns),
        "reps": config.reps,
        "estimators": list(kind_values),
        "seed": config.seed,
        "workers": config.workers,
        "level": config.level,
        "oracle_n": config.oracle_n,
        "rng": RNG_ALGORITHM,
        "tau0": {k: tau0s[k] for k in config.scenarios},
    }
    return MetricsTable(
        rows=rows,
        config=echo,
        replicates=replicates if config.keep_replicates else [],
    )
