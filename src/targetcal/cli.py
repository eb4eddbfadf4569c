"""Command-line front end: dataset estimation, simulation campaigns, and
balance/overlap diagnostics.

Runs are configured by flags, optionally merged over a JSON config file
(flags win). The effective configuration is echoed into the output directory
for provenance, and outputs are byte-identical across runs with the same
configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import solver
from .data import (
    MODES,
    BalanceMatrix,
    BalanceSpec,
    Dataset,
    build_balance_matrix,
    effective_sample_size,
    export_scores,
    load_dataset_csv,
    standardized_mean_differences,
)
from .errors import ConfigError, TargetcalError
from .estimators import EstimatorKind, Fits
from .inference import estimate_with_ci
from .sim import RNG_ALGORITHM, RunnerConfig, run_experiment

DEFAULT_ESTIMATORS = "UNADJ,GCOMP,TMLE,AUG_T,CAL_T"
DEFAULT_ESTIMATORS_FUSION = "UNADJ,GCOMP,TMLE,AUG_T,CAL_T,AUG_F,CAL_F,CBPS"
DEFAULT_SIM_ESTIMATORS = "TMLE,AUG_T,CAL_T,AUG_F,CAL_F"
# Config keys whose value has one JSON type, with how to write it: a list is
# a comma-separated string like the flag, a path a string, a switch a bool.
TYPED_KEYS = {
    **dict.fromkeys(("scenarios", "sizes", "estimators", "balance_columns"),
                    (str, "a comma-separated string")),
    **dict.fromkeys(("input", "target_input", "out"), (str, "a path string")),
    "per_replicate": (bool, "true or false"),
}

# The calibration weights each estimator leaves in smd.csv: the Fits member
# that holds them.
WEIGHT_SETS = {EstimatorKind.AUG_T: "sampling", EstimatorKind.CAL_T: "transport",
               EstimatorKind.CAL_F: "fusion"}


def _fmt(x) -> str:
    """Full-precision, locale-free float formatting for CSV output."""
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if x != x:
            return "nan"
        return repr(x)
    return str(x)


def _sig6(x: float) -> str:
    if x != x:
        return "nan"
    return f"{x:.6g}"


def _write_csv(path: Path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _load_config_file(path: str | None, allowed: set) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in TYPED_KEYS.keys() & raw.keys():
        kind, written = TYPED_KEYS[key]
        if raw[key] is not None and not isinstance(raw[key], kind):
            raise ConfigError(f"{key}: expected {written}, got {raw[key]!r}")
    return raw


def _number(key: str, value, cast, default=None):
    """A flag or config value converted by ``cast``; ``default`` when unset.

    A bool is not a number, and an int key takes only an integral value
    (1e6 reads, 2.5 does not)."""
    if value is None:
        return default
    if isinstance(value, bool) or (cast is int and isinstance(value, float)
                                   and not value.is_integer()):
        raise ConfigError(f"{key}: cannot read {value!r} as {cast.__name__}")
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: cannot read {value!r} as {cast.__name__}") from None


def _merge_config(args: argparse.Namespace, keys: set) -> dict:
    """Config-file values fill in wherever the flag was left at its default."""
    cfg = _load_config_file(args.config, keys)
    return {key: cfg.get(key) if getattr(args, key) is None else getattr(args, key)
            for key in keys}


def _echo_config(out: Path, command: str, effective: dict) -> None:
    payload = {"command": command, "rng": RNG_ALGORITHM}
    payload.update(effective)
    with open(out / "config.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _parse_estimators(text: str) -> list:
    kinds = []
    for token in text.split(","):
        token = token.strip().upper()
        if not token:
            continue
        try:
            kind = EstimatorKind(token)
        except ValueError:
            raise ConfigError(f"unknown estimator '{token}'") from None
        if kind in kinds:
            raise ConfigError(f"estimator '{token}' is requested twice")
        kinds.append(kind)
    if not kinds:
        raise ConfigError("no estimators requested")
    return kinds


def _load_input(mode: str, input_path: str,
                target_path: str | None) -> tuple[Dataset, list]:
    if mode not in MODES:
        raise ConfigError(f"unknown mode '{mode}'")
    return load_dataset_csv(input_path, mode=mode, target_path=target_path)


def _parse_balance_spec(text: str | None, cov_names: list) -> BalanceSpec | None:
    """Parse "x1,x2,square:x3"-style balance column requests.

    Each entry is a covariate name, optionally prefixed by a named
    transformation; the intercept is always implied.
    """
    if text is None:
        return None
    index = {name: j for j, name in enumerate(cov_names)}
    entries = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        op, _, column = token.rpartition(":")
        op = op or "identity"
        if column not in index:
            raise ConfigError(f"unknown balance column '{column}'")
        name = column if op == "identity" else f"{op}({column})"
        entries.append((name, op, index[column]))
    if not entries:
        raise ConfigError("empty balance specification")
    return BalanceSpec(entries=tuple(entries))


def _smd_rows(dataset: Dataset, c: BalanceMatrix, weight_sets: dict) -> list:
    """Long-format SMD table: sample and treatment comparisons, one row per
    (comparison, balance column, weighting)."""
    names = list(c.names) if c.names else [f"c{j}" for j in range(c.m)]
    study = dataset.s == 1
    everyone = slice(None)
    comparisons = [
        ("sample", c, dataset.s.astype(int), everyone),
        ("treatment(study)", BalanceMatrix(c.c[study], names=c.names),
         dataset.z[study].astype(int), study),
    ]
    if dataset.mode == "fusion":
        comparisons.append(("treatment(pooled)", c, dataset.z.astype(int), everyone))
    rows = []
    for comparison, cmat, groups, units in comparisons:
        for label, weights in {"unweighted": None, **weight_sets}.items():
            smd = standardized_mean_differences(
                cmat, groups, None if weights is None else weights[units])
            rows += [[comparison, names[j], label, smd[j]] for j in range(1, c.m)]
    return rows


def _weight_set(fits: Fits, label: str) -> np.ndarray:
    """One calibration weight set of ``fits`` for the SMD and ESS tables; the
    study-sample sets carry unit weight on the target sample."""
    if label == "fusion":
        sol_target, sol_study = fits.fusion
        return sol_target.weights + sol_study.weights
    return np.where(fits.dataset.s == 1, getattr(fits, label).weights, 1.0)


def _install_trace(out: Path) -> None:
    path = out / "solves.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(
            ["k", "n_active", "iterations", "grad_norm", "constraint_residual", "converged", "eta"]
        )

    def hook(record: dict) -> None:
        with open(path, "a", newline="") as fh:
            csv.writer(fh).writerow(
                [
                    record["k"],
                    record["n_active"],
                    record["iterations"],
                    _fmt(float(record["grad_norm"])),
                    _fmt(float(record["constraint_residual"])),
                    int(record["converged"]),
                    ";".join(_fmt(float(v)) for v in record["eta"]),
                ]
            )

    solver.set_trace_hook(hook)


def cmd_estimate(args: argparse.Namespace) -> int:
    keys = {"mode", "input", "target_input", "estimators", "level", "out",
            "balance_columns"}
    cfg = _merge_config(args, keys)
    mode = cfg["mode"] or "transport"
    if cfg["input"] is None:
        raise ConfigError("--input is required")
    level = _number("level", cfg["level"], float, 0.95)
    if not 0.0 < level < 1.0:
        raise ConfigError("level must lie in (0, 1)")
    out = Path(cfg["out"] or "targetcal-out")
    out.mkdir(parents=True, exist_ok=True)
    if args.verbose:
        _install_trace(out)

    dataset, cov_names = _load_input(mode, cfg["input"], cfg["target_input"])
    spec = _parse_balance_spec(cfg["balance_columns"], cov_names)
    if spec is None:
        spec = BalanceSpec.identity(dataset.x.shape[1], names=cov_names)
    c = build_balance_matrix(dataset, spec)
    default = DEFAULT_ESTIMATORS_FUSION if mode == "fusion" else DEFAULT_ESTIMATORS
    kinds = _parse_estimators(default if cfg["estimators"] is None else cfg["estimators"])
    fits = Fits(dataset, c)

    results, failures = [], []
    weight_sets = {}
    for kind in kinds:
        try:
            report = estimate_with_ci(dataset, fits, kind=kind, level=level)
        except TargetcalError as exc:
            failures.append((kind.value, f"{type(exc).__name__}: {exc}"))
            continue
        diag = report.estimate.diagnostics
        results.append(
            [kind.value, report.tau_hat, report.se, report.ci_low, report.ci_high,
             diag.get("ess", float("nan")), diag.get("max_weight", float("nan")),
             report.method]
        )
        if kind in WEIGHT_SETS:
            weight_sets[WEIGHT_SETS[kind]] = _weight_set(fits, WEIGHT_SETS[kind])

    _write_csv(out / "results.csv",
               ["estimator", "tau_hat", "se", "ci_low", "ci_high", "ess", "max_weight",
                "method"],
               results)
    with open(out / "results.txt", "w") as fh:
        fh.write(f"{'estimator':<10}{'tau_hat':>12}{'se':>12}{'ci_low':>12}{'ci_high':>12}\n")
        for row in results:
            fh.write(f"{row[0]:<10}{_sig6(row[1]):>12}{_sig6(row[2]):>12}"
                     f"{_sig6(row[3]):>12}{_sig6(row[4]):>12}\n")
    _write_csv(out / "smd.csv", ["comparison", "column", "weighting", "smd"],
               _smd_rows(dataset, c, weight_sets))
    export_scores(fits.rho, fits.pi, dataset, out / "scores.csv")
    _echo_config(out, "estimate",
                 {"mode": mode, "input": cfg["input"], "target_input": cfg["target_input"],
                  "estimators": [k.value for k in kinds], "level": level,
                  "balance_columns": cfg["balance_columns"],
                  "benchmark_sample": "target" if mode == "fusion" else "study",
                  "out": str(out)})
    for kind, message in failures:
        print(f"estimator {kind} failed: {message}", file=sys.stderr)
    return 1 if failures else 0


def cmd_simulate(args: argparse.Namespace) -> int:
    keys = {"scenarios", "sizes", "reps", "estimators", "level", "seed", "workers",
            "out", "u_standardize", "per_replicate", "oracle_n"}
    cfg = _merge_config(args, keys)
    scenarios = tuple((cfg["scenarios"] or "A,B,C,D,E,F,G,H").replace(" ", "").split(","))
    sizes = tuple(_number("sizes", v, int) for v in (cfg["sizes"] or "500,2000").split(","))
    kinds = _parse_estimators(DEFAULT_SIM_ESTIMATORS if cfg["estimators"] is None
                              else cfg["estimators"])
    runner = RunnerConfig(
        scenarios=scenarios,
        ns=sizes,
        reps=_number("reps", cfg["reps"], int, 10),
        kinds=tuple(kinds),
        seed=_number("seed", cfg["seed"], int, 0),
        workers=_number("workers", cfg["workers"], int, 1),
        level=_number("level", cfg["level"], float, 0.95),
        u_standardize=cfg["u_standardize"] or "empirical",
        oracle_n=_number("oracle_n", cfg["oracle_n"], int, 2_000_000),
        keep_replicates=bool(cfg["per_replicate"]),
    )
    out = Path(cfg["out"] or "targetcal-out")
    out.mkdir(parents=True, exist_ok=True)
    table = run_experiment(runner)
    _write_csv(
        out / "metrics.csv",
        ["scenario", "n", "estimator", "tau0", "bias", "rmse", "coverage",
         "n_ok", "n_failed"],
        [[r.scenario, r.n, r.kind, r.tau0, r.bias, r.rmse, r.coverage, r.n_ok, r.n_failed]
         for r in table.rows],
    )
    with open(out / "metrics.txt", "w") as fh:
        header = (f"{'scenario':<9}{'n':>6}{'estimator':>10}{'tau0':>10}{'bias':>10}"
                  f"{'rmse':>10}{'coverage':>10}{'failed':>8}\n")
        fh.write(header)
        for r in table.rows:
            fh.write(f"{r.scenario:<9}{r.n:>6}{r.kind:>10}{_sig6(r.tau0):>10}"
                     f"{_sig6(r.bias):>10}{_sig6(r.rmse):>10}{_sig6(r.coverage):>10}"
                     f"{r.n_failed:>8}\n")
    if runner.keep_replicates:
        _write_csv(
            out / "replicates.csv",
            ["scenario", "n", "estimator", "rep", "seed", "tau_hat", "se",
             "ci_low", "ci_high", "failed", "error"],
            [[r.scenario, r.n, r.kind, r.rep, r.seed, r.tau_hat, r.se,
              r.ci_low, r.ci_high, int(r.failed), r.error]
             for r in table.replicates],
        )
    _echo_config(out, "simulate", table.config | {"out": str(out)})
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    keys = {"mode", "input", "target_input", "out"}
    cfg = _merge_config(args, keys)
    mode = cfg["mode"] or "transport"
    if cfg["input"] is None:
        raise ConfigError("--input is required")
    out = Path(cfg["out"] or "targetcal-out")
    out.mkdir(parents=True, exist_ok=True)
    if args.verbose:
        _install_trace(out)
    dataset, cov_names = _load_input(mode, cfg["input"], cfg["target_input"])
    c = build_balance_matrix(dataset, BalanceSpec.identity(dataset.x.shape[1], names=cov_names))
    fits = Fits(dataset, c)
    labels = ("sampling", "transport") + (("fusion",) if dataset.mode == "fusion" else ())
    weight_sets = {label: _weight_set(fits, label) for label in labels}
    _write_csv(out / "smd.csv", ["comparison", "column", "weighting", "smd"],
               _smd_rows(dataset, c, weight_sets))
    ess_rows = []
    for label, w in weight_sets.items():
        active = w > 0 if label == "fusion" else dataset.s == 1
        ess_rows.append([label, effective_sample_size(w[active]), float(w[active].max())])
    _write_csv(out / "ess.csv", ["weighting", "ess", "max_weight"], ess_rows)
    export_scores(fits.rho, fits.pi, dataset, out / "scores.csv")
    _echo_config(out, "diagnose",
                 {"mode": mode, "input": cfg["input"], "target_input": cfg["target_input"],
                  "out": str(out)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="targetcal",
        description="Target-population treatment effect estimation via calibration "
                    "weighting, with a simulation harness and balance diagnostics.",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="verbose logging plus per-solve diagnostic dump")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate effects from CSV data")
    est.add_argument("--mode", choices=["transport", "fusion"], default=None)
    est.add_argument("--input", default=None, help="study CSV (or combined file with s column)")
    est.add_argument("--target-input", dest="target_input", default=None,
                     help="optional second CSV holding the target sample")
    est.add_argument("--estimators", default=None, help="comma-separated estimator kinds")
    est.add_argument("--level", type=float, default=None)
    est.add_argument("--out", default=None)
    est.add_argument("--config", default=None, help="JSON config file")
    est.add_argument("--balance-columns", dest="balance_columns", default=None)
    est.set_defaults(func=cmd_estimate)

    simp = sub.add_parser("simulate", help="run a Monte Carlo campaign")
    simp.add_argument("--scenarios", default=None,
                      help="comma-separated scenario ids (default A..H)")
    simp.add_argument("--sizes", default=None,
                      help="comma-separated sample sizes (default 500,2000)")
    simp.add_argument("--reps", type=int, default=None, help="replicates per cell")
    simp.add_argument("--estimators", default=None, help="comma-separated estimator kinds")
    simp.add_argument("--level", type=float, default=None, help="confidence level")
    simp.add_argument("--seed", type=int, default=None, help="master seed")
    simp.add_argument("--workers", type=int, default=None, help="worker processes")
    simp.add_argument("--u-standardize", dest="u_standardize",
                      choices=["empirical", "population"], default=None,
                      help="standardization of the misspecification transforms")
    simp.add_argument("--oracle-n", dest="oracle_n", type=int, default=None,
                      help="draws for the true-effect oracle")
    simp.add_argument("--per-replicate", dest="per_replicate", action="store_const",
                      const=True, default=None, help="also write per-replicate CSV")
    simp.add_argument("--out", default=None)
    simp.add_argument("--config", default=None, help="JSON config file")
    simp.set_defaults(func=cmd_simulate)

    diag = sub.add_parser("diagnose", help="balance and overlap diagnostics")
    diag.add_argument("--mode", choices=["transport", "fusion"], default=None)
    diag.add_argument("--input", default=None)
    diag.add_argument("--target-input", dest="target_input", default=None)
    diag.add_argument("--out", default=None)
    diag.add_argument("--config", default=None)
    diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv: list | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        logging.getLogger().setLevel(logging.DEBUG)
    try:
        return args.func(args)
    except (TargetcalError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        solver.set_trace_hook(None)


if __name__ == "__main__":
    sys.exit(main())
