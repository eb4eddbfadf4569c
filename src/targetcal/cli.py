"""Command-line front end: dataset estimation, simulation campaigns, and
balance/overlap diagnostics.

Every option is declared once, in OPTIONS. A run takes each option from its
flag, else from the JSON config file given by ``--config``, else from its
default; flag text and config values go through the option's one converter,
so a bad value is a ConfigError naming its key either way. The effective
configuration is echoed into the output directory for provenance, and
outputs are byte-identical across runs with the same configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .data import (FORK_ROWS, MODES, BalanceMatrix, BalanceSpec, Dataset,
                   build_balance_matrix, effective_sample_size, export_scores,
                   load_dataset_csv, second_cpu, standardized_mean_differences,
                   start_export_scores)
from .errors import ConfigError, TargetcalError
from .estimators import EstimatorKind, Fits
from .inference import estimate_with_ci
from .sim import RNG_ALGORITHM, SCENARIOS, RunnerConfig, run_experiment

# The Fits member that holds the calibration weights each estimator leaves in smd.csv.
WEIGHT_SETS = {EstimatorKind.AUG_T: "sampling", EstimatorKind.CAL_T: "transport",
               EstimatorKind.CAL_F: "fusion"}


def _string(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _switch(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _number(cast, value):
    """``value`` read by ``cast``. A bool is not a number, and an int takes
    only an integral value (1e6 reads, 2.5 does not)."""
    if isinstance(value, bool) or (cast is int and isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"cannot read {value!r} as {cast.__name__}")
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ValueError(f"cannot read {value!r} as {cast.__name__}") from None


_integer = partial(_number, int)


def _level(value) -> float:
    level = _number(float, value)
    if not 0.0 < level < 1.0:
        raise ValueError(f"must lie in (0, 1), got {level!r}")
    return level


def _mode(value) -> str:
    if value not in MODES:
        raise ValueError(f"expected one of {', '.join(MODES)}, got {value!r}")
    return value


def _estimators(value) -> tuple:
    names = [token.strip().upper() for token in _string(value).split(",") if token.strip()]
    if not names:
        raise ValueError("no estimators requested")
    for j, name in enumerate(names):
        if name not in EstimatorKind.__members__:
            raise ValueError(f"unknown estimator '{name}'")
        if name in names[:j]:
            raise ValueError(f"estimator '{name}' is requested twice")
    return tuple(EstimatorKind[name] for name in names)


class Option(NamedTuple):
    """Flag ``--name`` (dashes for underscores) and config key ``name``. ``convert`` reads
    flag text, JSON values and ``default`` (None: unset), raising ValueError if it cannot."""

    name: str
    convert: Callable
    default: object
    commands: tuple
    help: str


ESTIMATE, SIMULATE, DIAGNOSE = "estimate", "simulate", "diagnose"
# The estimators run when none are requested; estimate's depend on the mode.
DEFAULT_ESTIMATORS = {"transport": "UNADJ,GCOMP,TMLE,AUG_T,CAL_T",
                      "fusion": "UNADJ,GCOMP,TMLE,AUG_T,CAL_T,AUG_F,CAL_F,CBPS",
                      SIMULATE: "TMLE,AUG_T,CAL_T,AUG_F,CAL_F"}
ON_DATA = (ESTIMATE, DIAGNOSE)
OPTIONS = (
    Option("mode", _mode, "transport", ON_DATA, "transport, or fusion (target z, y observed)"),
    Option("input", _string, None, ON_DATA, "study CSV, or both samples with an s column"),
    Option("target_input", _string, None, ON_DATA, "optional CSV holding the target sample"),
    Option("estimators", _estimators, None, (ESTIMATE, SIMULATE),
           "comma-separated estimator kinds (default by mode or command: "
           + "; ".join(f"{key} {kinds}" for key, kinds in DEFAULT_ESTIMATORS.items()) + ")"),
    Option("balance_columns", _string, None, (ESTIMATE,),
           "balance columns such as x1,square:x2 (default: every covariate)"),
    Option("level", _level, RunnerConfig.level, (ESTIMATE, SIMULATE), "confidence level"),
    Option("scenarios", lambda v: tuple(_string(v).replace(" ", "").split(",")),
           ",".join(SCENARIOS), (SIMULATE,), "comma-separated scenario ids"),
    Option("sizes", lambda v: tuple(_integer(n) for n in _string(v).split(",")),
           "500,2000", (SIMULATE,), "comma-separated sample sizes"),
    Option("reps", _integer, RunnerConfig.reps, (SIMULATE,), "replicates per cell"),
    Option("seed", _integer, RunnerConfig.seed, (SIMULATE,), "master seed"),
    Option("workers", _integer, RunnerConfig.workers, (SIMULATE,), "worker processes"),
    Option("oracle_n", _integer, RunnerConfig.oracle_n, (SIMULATE,),
           "draws for the true-effect oracle"),
    Option("per_replicate", _switch, False, (SIMULATE,), "also write replicates.csv"),
    Option("out", lambda v: Path(_string(v)), "targetcal-out", (*ON_DATA, SIMULATE),
           "output directory"),
)

def _settings(args: argparse.Namespace) -> dict:
    """Every option of ``args.command``: its flag, else its config value, else its default.
    Unknown config keys are errors, values are checked even where a flag wins, null is unset."""
    options = [opt for opt in OPTIONS if args.command in opt.commands]
    given = {}
    if args.config is not None:
        try:
            given = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config}: not UTF-8 text "
                              f"(byte 0x{exc.object[exc.start]:02x})") from None
        if not isinstance(given, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = given.keys() - {opt.name for opt in options}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    settings = {}
    for opt in options:
        sources = (getattr(args, opt.name), given.get(opt.name), opt.default)
        try:
            values = [opt.convert(value) for value in sources if value is not None]
        except ValueError as exc:
            raise ConfigError(f"{opt.name}: {exc}") from None
        settings[opt.name] = values[0] if values else None
    return settings


def _write_csv(path: Path, header: list, rows: list) -> None:
    """CSV output with floats at full precision and locale-free."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                          for v in row] for row in rows)


def _write_text(path: Path, header: list, widths: list, rows: list) -> None:
    """A fixed-width text table, floats to 6 significant digits. Field j is
    ``widths[j]`` wide, one space included: the first field is left-aligned
    and ends in it, the others are right-aligned after it. A value that fills
    its field keeps the space and pushes the rest of its line right."""
    with open(path, "w") as fh:
        for row in [header, *rows]:
            for j, (value, width) in enumerate(zip(row, widths)):
                spec = f"{width - 1}{'.6g' if isinstance(value, float) else ''}"
                fh.write(f"{value:<{spec}} " if j == 0 else f" {value:>{spec}}")
            fh.write("\n")


def _echo_config(out: Path, command: str, effective: dict) -> None:
    with open(out / "config.json", "w") as fh:
        json.dump({"command": command, "rng": RNG_ALGORITHM, **effective}, fh, indent=2,
                  sort_keys=True,
                  default=lambda v: v.value if isinstance(v, EstimatorKind) else str(v))
        fh.write("\n")


def _parse_balance_spec(text: str | None, cov_names: list) -> BalanceSpec:
    """Parse "x1,x2,square:x3"-style balance column requests; every
    covariate when ``text`` is None.

    Each entry is a covariate name, optionally prefixed by a named
    transformation; the intercept is always implied.
    """
    if text is None:
        return BalanceSpec.identity(len(cov_names), names=cov_names)
    index = {name: j for j, name in enumerate(cov_names)}
    entries = []
    for token in filter(None, map(str.strip, text.split(","))):
        op, _, column = token.rpartition(":")
        if column not in index:
            raise ConfigError(f"unknown balance column '{column}'")
        entries.append((f"{op}({column})" if op else column, op or "identity", index[column]))
    if not entries:
        raise ConfigError("empty balance specification")
    return BalanceSpec(entries=tuple(entries))


def _smd_rows(dataset: Dataset, c: BalanceMatrix, weight_sets: dict) -> list:
    """Long-format SMD table: sample and treatment comparisons, one row per
    (comparison, balance column, weighting)."""
    study, everyone = dataset.s == 1, slice(None)
    comparisons = [("sample", c, dataset.s.astype(int), everyone),
                   ("treatment(study)", BalanceMatrix(c.c[study], names=c.names),
                    dataset.z[study].astype(int), study)]
    if dataset.mode == "fusion":
        comparisons.append(("treatment(pooled)", c, dataset.z.astype(int), everyone))
    rows = []
    for comparison, cmat, groups, units in comparisons:
        # All weightings in one call, so the comparison's pooled SD is computed once.
        weightings = {"unweighted": None, **{label: w[units] for label, w in weight_sets.items()}}
        for label, smd in standardized_mean_differences(cmat, groups, weightings).items():
            rows += [[comparison, c.names[j], label, smd[j]] for j in range(1, c.m)]
    return rows


def _weight_set(fits: Fits, label: str) -> np.ndarray:
    """One calibration weight set of ``fits`` for the SMD and ESS tables; the
    study-sample sets carry unit weight on the target sample."""
    if label == "fusion":
        sol_target, sol_study = fits.fusion
        return sol_target.weights + sol_study.weights
    return np.where(fits.dataset.s == 1, getattr(fits, label).weights, 1.0)


def _weight_summary(w: np.ndarray | None) -> list:
    """Effective sample size of the positive weights in ``w`` and the largest
    weight; NaN for both without weights."""
    if w is None:
        return [float("nan"), float("nan")]
    return [effective_sample_size(w[w > 0]), float(w.max())]


def _load(settings: dict) -> Fits:
    """Make the output directory, read the input CSV, and build the balance
    matrix and the Fits that estimate and diagnose share."""
    if settings["input"] is None:
        raise ConfigError("input: required, as a flag or in the config file")
    settings["out"].mkdir(parents=True, exist_ok=True)
    dataset, cov_names = load_dataset_csv(settings["input"], mode=settings["mode"],
                                          target_path=settings["target_input"])
    spec = _parse_balance_spec(settings.get("balance_columns"), cov_names)
    return Fits(dataset, build_balance_matrix(dataset, spec))


def _start_scores(fits: Fits, path: Path) -> Callable | None:
    """The join of a scores.csv writer started now in a forked child (see
    data.start_export_scores), when the sample has FORK_ROWS units and the
    host a second CPU; else None, and _write_balance writes scores.csv. A
    score fit that fails starts no writer either, so that _write_balance
    raises its error where it always has, and nor does a fork that fails.
    Fits caches both scores, so this adds no work."""
    if second_cpu(fits.dataset.n, FORK_ROWS):
        try:
            return start_export_scores(fits.rho, fits.pi, fits.dataset, path)
        except (TargetcalError, OSError):
            pass
    return None


def _write_balance(command: str, settings: dict, fits: Fits, labels, failures: list,
                   scores: Callable | None, **echo) -> dict:
    """Write smd.csv, scores.csv and config.json, and return the weight sets
    named by ``labels``. ``scores`` joins a scores.csv writer already started
    (see _start_scores), and raises its OSError. A weight set whose solve
    fails is left out, and its error is appended to ``failures``."""
    weight_sets = {}
    for label in labels:
        try:
            weight_sets[label] = _weight_set(fits, label)
        except TargetcalError as exc:
            failures.append(f"weighting {label} failed: {type(exc).__name__}: {exc}")
    out = settings["out"]
    _write_csv(out / "smd.csv", ["comparison", "column", "weighting", "smd"],
               _smd_rows(fits.dataset, fits.c, weight_sets))
    if scores is None:
        export_scores(fits.rho, fits.pi, fits.dataset, out / "scores.csv")
    else:
        scores()
    _echo_config(out, command, settings | echo)
    return weight_sets


def cmd_estimate(args: argparse.Namespace) -> list:
    """estimate effects from CSV data"""
    settings = _settings(args)
    if settings["estimators"] is None:
        settings["estimators"] = _estimators(DEFAULT_ESTIMATORS[settings["mode"]])
    fits = _load(settings)
    out = settings["out"]
    scores = _start_scores(fits, out / "scores.csv")
    try:
        results, failures, labels = [], [], []
        for kind in settings["estimators"]:
            try:
                est = estimate_with_ci(fits.dataset, fits, kind=kind, level=settings["level"])
                summary = _weight_summary(est.weights_used)
            except TargetcalError as exc:
                failures.append(f"estimator {kind.value} failed: {type(exc).__name__}: {exc}")
                continue
            results.append([kind.value, est.tau_hat, est.se, est.ci_low, est.ci_high, *summary,
                            est.method])
            if kind in WEIGHT_SETS:
                labels.append(WEIGHT_SETS[kind])

        _write_csv(out / "results.csv", ["estimator", "tau_hat", "se", "ci_low", "ci_high",
                                         "ess", "max_weight", "method"], results)
        _write_text(out / "results.txt", ["estimator", "tau_hat", "se", "ci_low", "ci_high"],
                    [10, 12, 12, 12, 12], [row[:5] for row in results])
        _write_balance(ESTIMATE, settings, fits, labels, failures, scores,
                       benchmark_sample="target" if settings["mode"] == "fusion" else "study")
    finally:
        if scores is not None:
            scores(kill=True)  # the writer, if an error left it running
    return failures


def cmd_simulate(args: argparse.Namespace) -> list:
    """run a Monte Carlo campaign"""
    settings = _settings(args)
    runner = RunnerConfig(
        scenarios=settings["scenarios"], ns=settings["sizes"], reps=settings["reps"],
        kinds=settings["estimators"] or _estimators(DEFAULT_ESTIMATORS[SIMULATE]),
        seed=settings["seed"], workers=settings["workers"], level=settings["level"],
        oracle_n=settings["oracle_n"], keep_replicates=settings["per_replicate"])
    out = settings["out"]
    out.mkdir(parents=True, exist_ok=True)
    table = run_experiment(runner)
    _write_csv(out / "metrics.csv", ["scenario", "n", "estimator", "tau0", "bias", "rmse",
                                     "coverage", "n_ok", "n_failed"],
               [[r.scenario, r.n, r.kind, r.tau0, r.bias, r.rmse, r.coverage, r.n_ok,
                 r.n_failed] for r in table.rows])
    _write_text(out / "metrics.txt", ["scenario", "n", "estimator", "tau0", "bias", "rmse",
                                      "coverage", "failed"], [9, 6, 10, 10, 10, 10, 10, 8],
                [[r.scenario, r.n, r.kind, r.tau0, r.bias, r.rmse, r.coverage, r.n_failed]
                 for r in table.rows])
    if runner.keep_replicates:
        _write_csv(out / "replicates.csv", ["scenario", "n", "estimator", "rep", "seed",
                                            "tau_hat", "se", "ci_low", "ci_high", "failed",
                                            "error"],
                   [[r.scenario, r.n, r.kind, r.rep, r.seed, r.tau_hat, r.se, r.ci_low,
                     r.ci_high, int(r.failed), r.error] for r in table.replicates])
    _echo_config(out, SIMULATE, table.config | {"out": str(out)})
    return []


def cmd_diagnose(args: argparse.Namespace) -> list:
    """balance and overlap diagnostics"""
    settings = _settings(args)
    fits = _load(settings)
    scores = _start_scores(fits, settings["out"] / "scores.csv")
    failures = []
    labels = ("sampling", "transport") + (("fusion",) if settings["mode"] == "fusion" else ())
    try:
        weight_sets = _write_balance(DIAGNOSE, settings, fits, labels, failures, scores)
    finally:
        if scores is not None:
            scores(kill=True)  # the writer, if an error left it running
    ess_rows = []
    for label, w in weight_sets.items():
        active = w > 0 if label == "fusion" else fits.dataset.s == 1
        ess_rows.append([label, *_weight_summary(w[active])])
    _write_csv(settings["out"] / "ess.csv", ["weighting", "ess", "max_weight"], ess_rows)
    return failures


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="targetcal", description="Target-population treatment effect estimation via "
        "calibration weighting, with a simulation harness and balance diagnostics.")
    parser.add_argument("--verbose", action="store_true",
                        help="debug logging, with one record per calibration solve")
    sub = parser.add_subparsers(dest="command", required=True)
    for func in (cmd_estimate, cmd_simulate, cmd_diagnose):
        command = func.__name__.removeprefix("cmd_")
        cmd = sub.add_parser(command, help=func.__doc__)
        for opt in (opt for opt in OPTIONS if command in opt.commands):
            switch = {"action": "store_const", "const": True} if opt.convert is _switch else {}
            shown = opt.default is not None and opt.convert is not _switch
            cmd.add_argument("--" + opt.name.replace("_", "-"), dest=opt.name, **switch,
                             help=f"{opt.help} (default: {opt.default})" if shown else opt.help)
        cmd.add_argument("--config", help="JSON config file of option keys (flags win)")
        cmd.set_defaults(func=func)
    return parser


def main(argv: list | None = None) -> int:
    """Run one command; exit 1, with the reasons on stderr, if any part failed."""
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)
    args = build_parser().parse_args(argv)
    root = logging.getLogger()
    level = root.level
    root.setLevel(logging.DEBUG if args.verbose else level)
    try:
        failures = args.func(args)
    except (TargetcalError, OSError, json.JSONDecodeError) as exc:
        failures = [f"error: {type(exc).__name__}: {exc}"]
    finally:
        root.setLevel(level)
    for message in failures:
        print(message, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
