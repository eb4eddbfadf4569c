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

from . import glm, solver
from .data import (
    BalanceMatrix,
    BalanceSpec,
    Dataset,
    build_balance_matrix,
    effective_sample_size,
    export_scores,
    read_csv_columns,
    standardized_mean_differences,
    target_moments,
)
from .errors import ConfigError, ModeError, SchemaError, TargetcalError
from .estimators import FUSION_ONLY, EstimatorKind
from .inference import estimate_with_ci
from .sim import RNG_ALGORITHM, RunnerConfig, run_experiment

log = logging.getLogger("targetcal")

DEFAULT_ESTIMATORS = "UNADJ,GCOMP,TMLE,AUG_T,CAL_T"
DEFAULT_ESTIMATORS_FUSION = "UNADJ,GCOMP,TMLE,AUG_T,CAL_T,AUG_F,CAL_F,CBPS"
DEFAULT_SIM_ESTIMATORS = "TMLE,AUG_T,CAL_T,AUG_F,CAL_F"


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
    return raw


def _merge_config(args: argparse.Namespace, keys: set) -> dict:
    """Config-file values fill in wherever the flag was left at its default."""
    cfg = _load_config_file(args.config, keys)
    merged = {}
    for key in keys:
        flag_val = getattr(args, key)
        if flag_val is not None:
            merged[key] = flag_val
        elif key in cfg:
            merged[key] = cfg[key]
        else:
            merged[key] = None
    return merged


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
            kinds.append(EstimatorKind(token))
        except ValueError:
            raise ConfigError(f"unknown estimator '{token}'") from None
    if not kinds:
        raise ConfigError("no estimators requested")
    return kinds


def _load_input(mode: str, input_path: str,
                target_path: str | None) -> tuple[Dataset, list]:
    if target_path is None:
        cols, names = read_csv_columns(input_path, mode=mode)
    else:
        study, study_names = read_csv_columns(input_path, mode=mode, force_s=1)
        target, target_names = read_csv_columns(
            target_path, mode="fusion" if mode == "fusion" else "transport", force_s=0
        )
        if study_names != target_names:
            raise SchemaError(
                "study and target files must share covariate columns "
                f"({study_names} vs {target_names})"
            )
        cols = {
            key: np.concatenate([study[key], target[key]])
            for key in ("s", "z", "y", "z_observed", "y_observed")
        }
        cols["x"] = np.vstack([study["x"], target["x"]])
        names = study_names
    if mode == "transport":
        target_rows = cols["s"] == 0
        observed = cols["z_observed"][target_rows] | cols["y_observed"][target_rows]
        if observed.any():
            log.warning(
                "transport mode: ignoring z/y observed for %d target-sample units",
                int(observed.sum()),
            )
        for key in ("z_observed", "y_observed"):
            cols[key] = cols[key] & (cols["s"] == 1)
        cols["z"] = np.where(cols["z_observed"], cols["z"], np.nan)
        cols["y"] = np.where(cols["y_observed"], cols["y"], np.nan)
    dataset = Dataset(**cols)
    if mode == "fusion" and dataset.mode != "fusion":
        raise ModeError("fusion mode requested but z/y are not observed everywhere")
    return dataset, names


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


def _fit_scores(dataset: Dataset, c: BalanceMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Logistic-MLE sampling and propensity scores on the balance columns."""
    rho_fit = glm.fit_logistic(c.c, dataset.s.astype(float))
    rho = glm.predict(rho_fit, c.c)
    study = dataset.s == 1
    pi_fit = glm.fit_logistic(c.c[study], dataset.observed_z(study))
    pi = glm.predict(pi_fit, c.c)
    return rho, pi


def _smd_rows(dataset: Dataset, c: BalanceMatrix, weight_sets: dict) -> list:
    """Long-format SMD table: sample and treatment comparisons, one row per
    (comparison, balance column, weighting)."""
    rows = []
    names = list(c.names) if c.names else [f"c{j}" for j in range(c.m)]
    comparisons = {"sample": dataset.s.astype(int)}
    weightings = {"unweighted": None, **weight_sets}
    for label, weights in weightings.items():
        smd = standardized_mean_differences(c, comparisons["sample"], weights)
        for j in range(1, c.m):
            rows.append(["sample", names[j], label, smd[j]])
    study = dataset.s == 1
    c_study = BalanceMatrix(c.c[study], names=c.names)
    z_study = dataset.observed_z(study).astype(int)
    for label, weights in weightings.items():
        w = None if weights is None else weights[study]
        smd = standardized_mean_differences(c_study, z_study, w)
        for j in range(1, c.m):
            rows.append(["treatment(study)", names[j], label, smd[j]])
    if dataset.mode == "fusion":
        z_all = dataset.z.astype(int)
        for label, weights in weightings.items():
            smd = standardized_mean_differences(c, z_all, weights)
            for j in range(1, c.m):
                rows.append(["treatment(pooled)", names[j], label, smd[j]])
    return rows


def _calibration_weight_sets(dataset: Dataset, c: BalanceMatrix, theta0) -> dict:
    """Sampling, transport, and (in fusion mode) fusion calibration weights,
    each padded with unit weights off their active sample."""
    out = {}
    q = solver.solve_entropy_dual(solver.assemble_sampling(c, dataset.s, theta0)).weights
    out["sampling"] = np.where(dataset.s == 1, q, 1.0)
    p = solver.solve_entropy_dual(
        solver.assemble_transport(c, dataset.s, dataset.z, theta0)
    ).weights
    out["transport"] = np.where(dataset.s == 1, p, 1.0)
    if dataset.mode == "fusion":
        sol_t, sol_s = solver.assemble_fusion(c, dataset.s, dataset.z, theta0)
        w = solver.solve_entropy_dual(sol_t).weights + solver.solve_entropy_dual(sol_s).weights
        out["fusion"] = w
    return out


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
    if mode not in ("transport", "fusion"):
        raise ConfigError(f"unknown mode '{mode}'")
    if cfg["input"] is None:
        raise ConfigError("--input is required")
    level = float(cfg["level"]) if cfg["level"] is not None else 0.95
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
    theta0 = target_moments(c, dataset.s)
    default = DEFAULT_ESTIMATORS_FUSION if mode == "fusion" else DEFAULT_ESTIMATORS
    kinds = _parse_estimators(cfg["estimators"] or default)
    benchmark_selector = "target" if mode == "fusion" else "study"

    results, failures = [], []
    weight_sets = {}
    for kind in kinds:
        try:
            if kind in FUSION_ONLY and mode != "fusion":
                raise ModeError(f"{kind.value} requires fusion mode")
            report = estimate_with_ci(dataset, c, theta0, kind, level=level,
                                      sample_selector=benchmark_selector)
            diag = report.estimate.diagnostics
            results.append(
                [kind.value, report.tau_hat, report.se, report.ci_low, report.ci_high,
                 diag.get("ess", float("nan")), diag.get("max_weight", float("nan")),
                 report.method]
            )
            if report.estimate.weights_used is not None and kind in (
                EstimatorKind.CAL_T, EstimatorKind.CAL_F, EstimatorKind.AUG_T,
            ):
                w = report.estimate.weights_used
                label = {"CAL_T": "transport", "CAL_F": "fusion", "AUG_T": "sampling"}[kind.value]
                if kind is EstimatorKind.CAL_F:
                    weight_sets[label] = w
                else:
                    weight_sets[label] = np.where(dataset.s == 1, w, 1.0)
        except TargetcalError as exc:
            failures.append((kind.value, f"{type(exc).__name__}: {exc}"))

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
    rho, pi = _fit_scores(dataset, c)
    export_scores(rho, pi, dataset, out / "scores.csv")
    _echo_config(out, "estimate",
                 {"mode": mode, "input": cfg["input"], "target_input": cfg["target_input"],
                  "estimators": [k.value for k in kinds], "level": level,
                  "benchmark_sample": benchmark_selector,
                  "out": str(out)})
    for kind, message in failures:
        print(f"estimator {kind} failed: {message}", file=sys.stderr)
    return 1 if failures else 0


def cmd_simulate(args: argparse.Namespace) -> int:
    keys = {"scenarios", "sizes", "reps", "estimators", "level", "seed", "workers",
            "out", "u_standardize", "per_replicate", "oracle_n"}
    cfg = _merge_config(args, keys)
    scenarios = tuple((cfg["scenarios"] or "A,B,C,D,E,F,G,H").replace(" ", "").split(","))
    sizes = tuple(int(v) for v in str(cfg["sizes"] or "500,2000").split(","))
    kinds = _parse_estimators(cfg["estimators"] or DEFAULT_SIM_ESTIMATORS)
    runner = RunnerConfig(
        scenarios=scenarios,
        ns=sizes,
        reps=int(cfg["reps"]) if cfg["reps"] is not None else 10,
        kinds=tuple(kinds),
        seed=int(cfg["seed"]) if cfg["seed"] is not None else 0,
        workers=int(cfg["workers"]) if cfg["workers"] is not None else 1,
        level=float(cfg["level"]) if cfg["level"] is not None else 0.95,
        u_standardize=cfg["u_standardize"] or "empirical",
        oracle_n=int(cfg["oracle_n"]) if cfg["oracle_n"] is not None else 2_000_000,
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
    theta0 = target_moments(c, dataset.s)
    weight_sets = _calibration_weight_sets(dataset, c, theta0)
    _write_csv(out / "smd.csv", ["comparison", "column", "weighting", "smd"],
               _smd_rows(dataset, c, weight_sets))
    ess_rows = []
    for label, w in weight_sets.items():
        active = w > 0
        if label in ("sampling", "transport"):
            active = dataset.s == 1
        ess_rows.append([label, effective_sample_size(w[active]), float(w[active].max())])
    _write_csv(out / "ess.csv", ["weighting", "ess", "max_weight"], ess_rows)
    rho, pi = _fit_scores(dataset, c)
    export_scores(rho, pi, dataset, out / "scores.csv")
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
