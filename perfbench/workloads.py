"""The benchmark's workloads: two Monte Carlo campaigns and the CLI on a large CSV.

Each workload is a closed loop with one caller. It drives only the public
API (`sim.run_experiment`, `sim.true_tau`, and the `targetcal` CLI as a
subprocess) and checks every output it times:

- campaign_a500: `run_experiment` on scenario A, n=500, estimators
  TMLE,AUG_T,CAL_T,AUG_F,CAL_F, workers=1. Every solve is feasible and the
  time is spread over GLM, solver, SMD, rank checks and sandwich. Each pass
  draws fresh replicates from the seed.
- campaign_b500: the same on scenario B, whose steep sampling score makes
  about half of the estimator calls end in an infeasible dual. A replicate's
  cost there is heavy-tailed (failing solves take 11 to 500 Newton
  iterations), so seed-drawn passes of the size a run allows would differ
  by about 20% from seed to seed. Every pass therefore replays one fixed set
  of draws, and every pass is compared replicate by replicate with the
  committed reference.
- cli_200k: `targetcal estimate` (all eight estimators) and then `targetcal
  diagnose`, fusion mode, as subprocesses on 200k-row scenario-D CSVs.
  Large n: logistic fits and per-row CSV ingest and export. Its cost per
  dataset is heavy-tailed too: on about a third of seed-drawn datasets a
  logistic fit (TMLE's targeting fit, or the sampling-score fit) needs many
  step-halved IRLS iterations or runs out of them, adding 4 to 26 s to a
  6 s estimate. So, like campaign_b500, it
  replays fixed datasets (the first three of the reference seed, fixed
  before their cost was known) and compares every output with the
  committed reference.
"""

from __future__ import annotations

import csv
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from targetcal import cli, sim
from targetcal.estimators import EstimatorKind

from tracer import Tracer, self_check

# Outputs must match the committed reference to this relative tolerance
# (absolute below magnitude 1). It sits far above the ~1e-13 differences a
# change of BLAS kernel or summation order makes, and far below any
# statistical effect; counts (n_ok, n_failed, which estimator failed and
# why) must match exactly.
REL_TOL = 1e-7

CAMPAIGN_KINDS = ("TMLE", "AUG_T", "CAL_T", "AUG_F", "CAL_F")
CLI_KINDS = ("UNADJ", "GCOMP", "TMLE", "AUG_T", "CAL_T", "AUG_F", "CAL_F", "CBPS")
CLI_N = 200_000
CLI_COVARIATES = ("x1", "x2", "x3", "x4")
ESTIMATE_FILES = ("results.csv", "results.txt", "smd.csv", "scores.csv", "config.json")
DIAGNOSE_FILES = ("smd.csv", "ess.csv", "scores.csv", "config.json")
WEIGHTINGS = ("sampling", "transport", "fusion")

CAMPAIGN_SETUP_REPEATS = 3
CLI_SETUP_REPEATS = 5
REFERENCE_SEED = 0

# Machine-speed probe for the campaigns. On the 2-vCPU VM this benchmark was
# built on, the same campaign pass ran anywhere from 50 to 88 replicates/s
# within one hour as the host's load changed, far more than any regression
# bound could absorb. A campaign run therefore interleaves a fixed kernel
# that never calls targetcal with its passes, and reports its time metrics
# scaled by the run's median probe time over PROBE_REFERENCE_S: the speed
# the program would show on a machine as fast as when the reference probe
# was taken (in a test, this cut the spread of 14 s blocks from 0.23 to
# 0.02). The raw figures and the scale are kept in the run record. The CLI
# workload is not scaled: its 200k-row subprocesses did not follow the
# probe (ten runs spread 0.15 both raw and scaled).
PROBE_REFERENCE_S = 0.032
PROBE_BURST = 5
_PROBE_MATRIX = np.random.default_rng(0).standard_normal((500, 10))


@dataclass(frozen=True)
class Campaign:
    scenario: str
    n: int
    pass_reps: int
    # 0: every pass draws fresh replicates from the seed. k > 0: passes cycle
    # through k fixed reference draw sets (master seeds 0..k-1).
    pools: int = 0

    def master_seed(self, seed: int, index: int) -> int:
        if self.pools:
            return index % self.pools
        return sim.derive_seed(seed, self.scenario, index)

    def config(self, master: int, reps: int, tau0: float) -> sim.RunnerConfig:
        return sim.RunnerConfig(
            scenarios=(self.scenario,), ns=(self.n,), reps=reps,
            kinds=tuple(EstimatorKind(k) for k in CAMPAIGN_KINDS),
            seed=master, workers=1, tau0_overrides={self.scenario: tau0},
            keep_replicates=True,
        )


@dataclass(frozen=True)
class CliRun:
    """One replicate runs `estimate` and then `diagnose` on one CSV; runs
    cycle through `datasets` fixed reference datasets."""

    commands: tuple = ("estimate", "diagnose")
    datasets: int = 3


WORKLOADS = {
    "campaign_a500": Campaign("A", 500, pass_reps=10),
    "campaign_b500": Campaign("B", 500, pass_reps=5, pools=8),
    "cli_200k": CliRun(),
}


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


class Context:
    """Where a run lives: the checkout's sources and a scratch directory."""

    def __init__(self, src: Path, workdir: Path, reference: dict):
        self.workdir = workdir
        self.reference = reference
        self.env = dict(os.environ, PYTHONPATH=str(src))  # for child interpreters


def _close(a: float | None, b: float | None) -> bool:
    """Equal within REL_TOL; None stands for NaN and matches only None."""
    if a is None or b is None:
        return a is b
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def _number(x: float) -> float | None:
    return None if math.isnan(x) else x


def probe_seconds() -> float:
    """Time one fixed kernel shaped like a replicate's work: small matrix
    products, exp, a 10x10 solve, an SVD and a Python loop."""
    a = _PROBE_MATRIX
    eta = np.full(a.shape[1], 0.01)
    start = time.perf_counter()
    for _ in range(400):
        w = np.exp(-(a @ eta))
        np.linalg.solve((a * w[:, None]).T @ a, a.T @ w)
        np.linalg.svd(a[:, :5], compute_uv=False)
        total = 0
        for i in range(300):
            total += i * i
    return time.perf_counter() - start


class SpeedProbe:
    """Probe times taken between a run's timed samples."""

    def __init__(self):
        self.samples = []

    def burst(self, count: int = PROBE_BURST) -> None:
        self.samples += [probe_seconds() for _ in range(count)]

    def scale(self) -> float:
        """How much slower than the reference the machine ran (>1: slower)."""
        return statistics.median(self.samples) / PROBE_REFERENCE_S


def _median_wall(ctx: Context, argv: list, repeats: int) -> tuple[float, list]:
    walls, outputs = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(argv, env=ctx.env, capture_output=True, text=True, check=True)
        walls.append(time.perf_counter() - start)
        outputs.append(proc.stdout.strip())
    return statistics.median(walls), outputs


# -- campaigns ---------------------------------------------------------------

_TRUE_TAU_CHILD = (
    "import sys\n"
    "from targetcal import sim\n"
    "print(repr(sim.true_tau(sim.SCENARIOS[sys.argv[1]], "
    "oracle_n=sim.RunnerConfig().oracle_n, seed=int(sys.argv[2]))))\n"
)


def campaign_setup(ctx: Context, spec: Campaign, seed: int) -> tuple[float, float]:
    """What `targetcal simulate` pays before its first replicate: interpreter
    start, `import targetcal`, and the true-effect oracle at the default
    oracle_n. Median over fresh processes; returns (setup_s, tau0)."""
    tau_seed = REFERENCE_SEED if spec.pools else seed
    wall, outputs = _median_wall(
        ctx, [sys.executable, "-c", _TRUE_TAU_CHILD, spec.scenario, str(tau_seed)],
        CAMPAIGN_SETUP_REPEATS,
    )
    taus = {float(o) for o in outputs}
    if len(taus) != 1:
        raise RuntimeError(f"true_tau is not deterministic: {sorted(taus)}")
    return wall, taus.pop()


def table_record(table) -> dict:
    return {
        "rows": [[r.kind, _number(r.bias), _number(r.rmse), _number(r.coverage),
                  r.n_ok, r.n_failed] for r in table.rows],
        "replicates": [[r.kind, r.rep, r.failed, r.error.split(":")[0],
                        _number(r.tau_hat), _number(r.se)] for r in table.replicates],
    }


def check_pass(table, cfg: sim.RunnerConfig, reference: dict | None) -> tuple[list, int]:
    """Structural checks on one campaign pass, plus an exact comparison with
    the reference when the pass replays reference draws. Returns
    (problems, replicates with a wrong output)."""
    problems = []
    bad_reps = set()
    if [r.kind for r in table.rows] != list(CAMPAIGN_KINDS):
        problems.append(f"metrics rows {[r.kind for r in table.rows]}")
    for r in table.rows:
        if r.n_ok + r.n_failed != cfg.reps:
            problems.append(f"{r.kind}: n_ok + n_failed = {r.n_ok + r.n_failed} != {cfg.reps}")
        if r.n_ok and not (math.isfinite(r.bias) and math.isfinite(r.rmse)
                           and 0.0 <= r.coverage <= 1.0):
            problems.append(f"{r.kind}: bias {r.bias}, rmse {r.rmse}, coverage {r.coverage}")
    for r in table.replicates:
        if r.failed:
            ok = r.error.split(":")[0].endswith("Error")
        else:
            ok = all(math.isfinite(v) for v in (r.tau_hat, r.se, r.ci_low, r.ci_high))
        if not ok:
            bad_reps.add(r.rep)
            problems.append(f"replicate {r.rep} {r.kind}: tau {r.tau_hat} se {r.se} "
                            f"error {r.error!r}")
    if len(table.replicates) != cfg.reps * len(CAMPAIGN_KINDS):
        problems.append(f"{len(table.replicates)} replicate results for {cfg.reps} replicates")
    if reference is not None:
        got = table_record(table)
        for mine, ref in zip(got["rows"], reference["rows"]):
            if mine[0] != ref[0] or mine[4:] != ref[4:] or not all(
                    _close(a, b) for a, b in zip(mine[1:4], ref[1:4])):
                problems.append(f"metrics row {mine} differs from reference {ref}")
        if len(got["replicates"]) != len(reference["replicates"]):
            problems.append("replicate count differs from reference")
        for mine, ref in zip(got["replicates"], reference["replicates"]):
            if mine[:4] != ref[:4] or not (_close(mine[4], ref[4]) and _close(mine[5], ref[5])):
                bad_reps.add(mine[1])
                problems.append(f"replicate {mine} differs from reference {ref}")
    return problems, len(bad_reps)


class PassLog:
    """Checks every campaign pass and keeps its time and failure tallies."""

    def __init__(self, spec: Campaign, reference: dict):
        self.spec = spec
        self.pool_refs = {p["seed"]: p for p in reference["pools"]} if spec.pools else {}
        self.problems = []
        self.failed = 0
        self.replicates = 0
        self.evaluations = 0
        self.ok = 0
        self.causes = Counter()
        self.times = defaultdict(list)  # master seed -> pass wall times

    def add(self, cfg: sim.RunnerConfig, table, seconds: float) -> None:
        problems, bad = check_pass(table, cfg, self.pool_refs.get(cfg.seed))
        self.problems += problems
        self.failed += bad
        self.replicates += cfg.reps
        self.evaluations += len(table.replicates)
        self.ok += sum(1 for r in table.replicates if not r.failed)
        self.causes += Counter(r.error.split(":")[0] for r in table.replicates if r.failed)
        self.times[cfg.seed].append(seconds)

    def replicates_per_s(self) -> float:
        reps = self.spec.pass_reps
        if self.spec.pools:
            # Whole cycles over the fixed draw sets: the same work every cycle.
            return self.replicates / sum(sum(t) for t in self.times.values())
        return statistics.median(reps / t for ts in self.times.values() for t in ts)


def run_passes(spec: Campaign, seed: int, tau0: float, seconds: float, log: PassLog,
               speed: SpeedProbe | None = None) -> list:
    """Run campaign passes for at least `seconds` (whole cycles of the fixed
    draw sets, if any), each after one speed probe; returns their configs."""
    configs = []
    start = time.perf_counter()
    while (not configs or time.perf_counter() - start < seconds
           or (spec.pools and len(configs) % spec.pools)):
        if speed is not None:
            speed.burst(1)
        cfg = spec.config(spec.master_seed(seed, len(configs)), spec.pass_reps, tau0)
        t0 = time.perf_counter()
        table = sim.run_experiment(cfg)
        log.add(cfg, table, time.perf_counter() - t0)
        configs.append(cfg)
    return configs


def _campaign_tau0(spec: Campaign, ref: dict, tau0: float, problems: list) -> float:
    """Check the oracle's value and return the tau0 the passes use."""
    if spec.pools:
        if not _close(tau0, ref["tau0"]):
            problems.append(f"true_tau {tau0!r} differs from reference {ref['tau0']!r}")
        return ref["tau0"]
    # Other seeds: the oracle's Monte Carlo error at 2M draws is about 0.005.
    if abs(tau0 - ref["tau0"]) > 0.05:
        problems.append(f"true_tau {tau0} far from reference {ref['tau0']}")
    return tau0


def run_campaign(ctx: Context, name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    spec = WORKLOADS[name]
    ref = ctx.reference["campaigns"][name]
    log = PassLog(spec, ref)
    problems = []
    if not spec.pools:
        # Gate: the reference draws must reproduce the committed table. (With
        # fixed draw sets, every pass is compared with the reference instead.)
        gate_ref = ref["pools"][0]
        cfg = spec.config(gate_ref["seed"], ref["reps"], ref["tau0"])
        gate_problems, _ = check_pass(sim.run_experiment(cfg), cfg, gate_ref)
        problems += [f"reference gate: {p}" for p in gate_problems]

    if trace:
        return _trace_campaign(ctx, spec, seed, seconds, ref, log, problems)

    speed = SpeedProbe()
    speed.burst()
    setup_s, tau0 = campaign_setup(ctx, spec, seed)
    tau0 = _campaign_tau0(spec, ref, tau0, problems)
    configs = run_passes(spec, seed, tau0, seconds, log, speed)
    speed.burst()
    scale = speed.scale()
    metrics = {
        "replicates_per_s": log.replicates_per_s() * scale,
        "ok_share": log.ok / log.evaluations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s / scale,
    }
    details = {"raw_replicates_per_s": log.replicates_per_s(), "raw_setup_s": setup_s,
               "speed_scale": scale, "probe_s": speed.samples,
               "passes": len(configs), "pass_reps": spec.pass_reps, "tau0": tau0,
               "pass_seconds": {str(k): v for k, v in log.times.items()},
               "estimator_evaluations": log.evaluations,
               "failed_evaluations_by_cause": dict(log.causes)}
    return Outcome(metrics, log.replicates, log.failed, problems + log.problems, details)


def _trace_campaign(ctx, spec, seed, seconds, ref, log, problems) -> Outcome:
    check = self_check(lambda: _self_check_input(ctx))
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.count_warnings():
            tau0 = sim.true_tau(sim.SCENARIOS[spec.scenario],
                                oracle_n=sim.RunnerConfig().oracle_n,
                                seed=REFERENCE_SEED if spec.pools else seed)
    finally:
        tracer.uninstall()
    tau0 = _campaign_tau0(spec, ref, tau0, problems)

    # Untraced passes for half the run, then the same passes traced.
    configs = run_passes(spec, seed, tau0, seconds / 2, log)
    untraced = sum(sum(t) for t in log.times.values())
    tracer.install()
    try:
        with tracer.count_warnings():
            start = time.perf_counter()
            tables = [sim.run_experiment(cfg) for cfg in configs]
            traced = time.perf_counter() - start
    finally:
        tracer.uninstall()
    for cfg, table in zip(configs, tables):
        log.add(cfg, table, 0.0)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = traced - untraced
    details = {"self_check": check, "untraced_s": untraced, "traced_s": traced,
               "passes": len(configs), "missing_functions": tracer.missing}
    return Outcome(metrics, log.replicates, log.failed, problems + log.problems, details,
                   tracer.span_records())


# -- CLI ---------------------------------------------------------------------

def write_dataset_csv(data, path: Path) -> None:
    """Write a fusion-mode Dataset in the CLI's CSV schema; repr() makes
    every float round-trip exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "z", "y", *CLI_COVARIATES])
        for s, z, y, x in zip(data.s.tolist(), data.z.tolist(), data.y.tolist(),
                              data.x.tolist()):
            writer.writerow([s, int(z), repr(y), *map(repr, x)])


def cli_dataset(seed: int, n: int, index: int = 0):
    return sim.generate(sim.SCENARIOS["D"], n, sim.derive_seed(seed, "cli", n, index))


def cli_argv(command: str, csv_path: Path, out: Path) -> list:
    argv = [command, "--mode", "fusion", "--input", str(csv_path), "--out", str(out)]
    if command == "estimate":
        argv += ["--estimators", ",".join(CLI_KINDS)]
    return argv


def _read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def cli_outputs(command: str, out: Path) -> dict:
    """The numbers a CLI run is judged on: (tau_hat, se) per estimator for
    estimate, (ess, max_weight) per weighting for diagnose."""
    if command == "estimate":
        return {r[0]: [float(r[1]), float(r[2])] for r in _read_rows(out / "results.csv")}
    return {r[0]: [float(r[1]), float(r[2])] for r in _read_rows(out / "ess.csv")}


def check_cli_outputs(command: str, out: Path, n: int, expected: dict | None) -> list:
    problems = []
    files = ESTIMATE_FILES if command == "estimate" else DIAGNOSE_FILES
    missing = [f for f in files if not (out / f).is_file()]
    if missing:
        return [f"{command}: missing output files {missing}"]
    with open(out / "scores.csv", "rb") as fh:
        lines = sum(1 for _ in fh)
    if lines != n + 1:
        problems.append(f"{command}: scores.csv has {lines} lines, expected {n + 1}")
    got = cli_outputs(command, out)
    wanted = CLI_KINDS if command == "estimate" else WEIGHTINGS
    if list(got) != list(wanted):
        problems.append(f"{command}: rows {list(got)}, expected {list(wanted)}")
    for key, values in got.items():
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{command}: {key} has non-finite output {values}")
        if expected is not None and key in expected and not all(
                _close(a, b) for a, b in zip(values, expected[key])):
            problems.append(f"{command}: {key} {values} differs from expected {expected[key]}")
    return problems


def _run_cli_child(ctx: Context, command: str, csv_path: Path, out: Path):
    """Run one CLI subcommand; returns (wall_s, exit code, peak RSS MB, stderr)."""
    shutil.rmtree(out, ignore_errors=True)
    err_path = out.with_suffix(".stderr")
    with open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "targetcal.cli", *cli_argv(command, csv_path, out)],
            env=ctx.env, stdout=subprocess.DEVNULL, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, err_path.read_text()


def _stderr_causes(text: str) -> Counter:
    """Failure classes from CLI stderr ("estimator K failed: Class: ..." and
    "error: Class: ...")."""
    causes = Counter()
    for line in text.splitlines():
        if line.startswith("estimator ") and " failed: " in line:
            causes[line.split(" failed: ", 1)[1].split(":")[0]] += 1
        elif line.startswith("error: "):
            causes[line[len("error: "):].split(":")[0]] += 1
    return causes


def run_cli(ctx: Context, name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """Run every subcommand on each fixed dataset in turn, for whole cycles
    and at least `seconds` of subcommand time, comparing every output with
    the committed reference. A replicate is one dataset through every
    subcommand; the rate is replicates over their summed time."""
    spec = WORKLOADS[name]
    refs = ctx.reference["cli"]["datasets"]
    csv_path = ctx.workdir / "cli.csv"
    if trace:
        return _trace_cli(ctx, spec.commands, csv_path, refs[0])

    setup_s, _ = _median_wall(ctx, [sys.executable, "-c", "import targetcal.cli"],
                              CLI_SETUP_REPEATS)
    walls = {command: [] for command in spec.commands}
    rss, ok_shares, causes, problems = [], [], Counter(), []
    failed = 0
    replicates = 0
    while (replicates % spec.datasets or replicates == 0
           or sum(map(sum, walls.values())) < seconds):
        index = replicates % spec.datasets
        write_dataset_csv(cli_dataset(REFERENCE_SEED, CLI_N, index), csv_path)
        for command in spec.commands:
            out = ctx.workdir / f"out-{command}"
            wall, code, peak, stderr = _run_cli_child(ctx, command, csv_path, out)
            walls[command].append(wall)
            rss.append(peak)
            causes += _stderr_causes(stderr)
            if code == 0:
                run_problems = check_cli_outputs(command, out, CLI_N, refs[index][command])
                produced = len(cli_outputs(command, out))
            else:
                run_problems = [f"{command} exited {code}: {stderr[-500:]}"]
                produced = 0
            ok_shares.append(produced / len(CLI_KINDS if command == "estimate" else WEIGHTINGS))
            failed += bool(run_problems)
            problems += [f"dataset {index}: {p}" for p in run_problems]
            shutil.rmtree(out, ignore_errors=True)
        replicates += 1
    metrics = {
        "replicates_per_s": replicates / sum(map(sum, walls.values())),
        "ok_share": statistics.fmean(ok_shares),
        "peak_rss_mb": max(rss),
        "setup_s": setup_s,
    }
    details = {"replicates": replicates, **{f"{c}_s": w for c, w in walls.items()},
               "peak_rss_mb": rss, "failed_evaluations_by_cause": dict(causes)}
    csv_path.unlink(missing_ok=True)
    return Outcome(metrics, replicates * len(spec.commands), failed, problems, details)


def _trace_cli(ctx, commands, csv_path, ref):
    check = self_check(lambda: _self_check_input(ctx))
    write_dataset_csv(cli_dataset(REFERENCE_SEED, CLI_N, 0), csv_path)
    walls, problems = [], []
    failed = 0
    tracer = Tracer()
    for traced in (False, True):
        if traced:
            tracer.install()
        wall = 0.0
        codes = {}
        try:
            with tracer.count_warnings():
                for command in commands:
                    out = ctx.workdir / f"out-{command}"
                    shutil.rmtree(out, ignore_errors=True)
                    t0 = time.perf_counter()
                    codes[command] = cli.main(cli_argv(command, csv_path, out))
                    wall += time.perf_counter() - t0
        finally:
            tracer.uninstall()
        walls.append(wall)
        for command, code in codes.items():
            out = ctx.workdir / f"out-{command}"
            run_problems = ([f"{command} returned {code}"] if code != 0
                            else check_cli_outputs(command, out, CLI_N, ref[command]))
            failed += bool(run_problems)
            problems += run_problems
            shutil.rmtree(out, ignore_errors=True)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = walls[1] - walls[0]
    details = {"self_check": check, "untraced_s": walls[0], "traced_s": walls[1],
               "missing_functions": tracer.missing}
    csv_path.unlink(missing_ok=True)
    return Outcome(metrics, 2 * len(commands), failed, problems, details, tracer.span_records())


def _self_check_input(ctx: Context) -> None:
    """A tiny fixed input that reaches every traced function: the oracle,
    one feasible and one infeasible replicate of every estimator, and both
    CLI subcommands in-process."""
    tau0 = sim.true_tau(sim.SCENARIOS["A"], oracle_n=20_000)
    for sid in ("A", "B"):
        sim.run_experiment(sim.RunnerConfig(
            scenarios=(sid,), ns=(200,), reps=1, kinds=tuple(EstimatorKind),
            seed=REFERENCE_SEED, tau0_overrides={sid: tau0},
        ))
    data = cli_dataset(REFERENCE_SEED, 400)
    csv_path = ctx.workdir / "selfcheck.csv"
    write_dataset_csv(data, csv_path)
    for command in ("estimate", "diagnose"):
        cli.main(cli_argv(command, csv_path, ctx.workdir / "selfcheck-out"))


# -- reference -----------------------------------------------------------------

def build_reference(ctx: Context) -> dict:
    """Outputs of this commit on the reference inputs (see REL_TOL)."""
    campaigns = {}
    for name, spec in WORKLOADS.items():
        if not isinstance(spec, Campaign):
            continue
        tau0 = sim.true_tau(sim.SCENARIOS[spec.scenario],
                            oracle_n=sim.RunnerConfig().oracle_n, seed=REFERENCE_SEED)
        reps = spec.pass_reps if spec.pools else 20
        pools = []
        for master in range(spec.pools) if spec.pools else (REFERENCE_SEED,):
            table = sim.run_experiment(spec.config(master, reps, tau0))
            pools.append({"seed": master, **table_record(table)})
        campaigns[name] = {"tau0": tau0, "reps": reps, "pools": pools}
    spec = WORKLOADS["cli_200k"]
    csv_path = ctx.workdir / "cli.csv"
    datasets = []
    for index in range(spec.datasets):
        write_dataset_csv(cli_dataset(REFERENCE_SEED, CLI_N, index), csv_path)
        outputs = {}
        for command in spec.commands:
            out = ctx.workdir / f"out-{command}"
            _, code, _, stderr = _run_cli_child(ctx, command, csv_path, out)
            if code != 0:
                raise RuntimeError(f"{command} failed on reference dataset {index}: {stderr}")
            outputs[command] = cli_outputs(command, out)
        datasets.append(outputs)
    csv_path.unlink(missing_ok=True)
    cli_ref = {"seed": REFERENCE_SEED, "n": CLI_N, "datasets": datasets}
    return {"campaigns": campaigns, "cli": cli_ref}
