"""Benchmark for targetcal: Monte Carlo campaigns and the CLI on a large CSV.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign_a500 --seed 1 --seconds 14 --trace 0

The program under test is imported from the checkout's `src/`; the run
fails (exit 2, no result) when that tree is absent. Inputs are generated
from --seed, except that campaign_b500 and cli_200k replay fixed inputs
(see workloads.py for each workload and why it was chosen); every timed
output is checked before a number is reported.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json, measured
with tracing off. On the campaigns, its time metrics (replicates_per_s,
setup_s) are scaled to a reference machine speed by a probe kernel timed
between the passes, as the host's speed drifts by tens of percent (see
workloads.PROBE_REFERENCE_S); the raw figures are kept in the record.

--trace 1 traces the same workload in-process and prints the per-layer
metrics (see tracer.py), including trace.overhead_s, the traced minus the
untraced wall time of the same work.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A fuller record of the run (machine facts,
failures by cause, every sample, and in traced runs every span) is written
to .perfbench/ in the checkout.

BLAS runs single-threaded and one process works at a time, so threads x
processes is 1 on any machine.

    python3 perfbench/run.py --write-reference

recomputes perfbench/reference.json, the committed outputs the correctness
gates compare against; do that only for a change meant to alter results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 2 or Path(fields[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return fields[1]


def machine_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_text = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_text,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "threads_x_processes": 1,
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "targetcal" / "__init__.py").is_file():
        print(f"perfbench: no targetcal sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import targetcal

    if Path(targetcal.__file__).resolve().parent != (SRC / "targetcal").resolve():
        print(f"perfbench: imported targetcal from {targetcal.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    WORKDIR.mkdir(exist_ok=True)
    if args.write_reference:
        ctx = workloads.Context(SRC, WORKDIR, reference={})
        text = json.dumps(workloads.build_reference(ctx), indent=1, allow_nan=False)
        # One line per innermost list keeps the file short and diffs readable.
        text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                      lambda m: "[" + re.sub(r"\s*\n\s*", " ", m.group(1)) + "]", text)
        REFERENCE.write_text(text + "\n")
        print(f"wrote {REFERENCE}")
        return 0

    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    with open(REFERENCE) as fh:
        ctx = workloads.Context(SRC, WORKDIR, reference=json.load(fh))

    facts = machine_facts()
    run = workloads.run_campaign if args.workload.startswith("campaign") else workloads.run_cli
    outcome = run(ctx, args.workload, args.seed, args.seconds, bool(args.trace))
    if set(outcome.metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(outcome.metrics) ^ set(units))} "
                           "do not match BENCHMARK.json")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "metrics": outcome.metrics,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "problems": outcome.problems, "details": outcome.details}
    with open(WORKDIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if outcome.spans:
        with open(WORKDIR / f"{stem}-spans.json", "w") as fh:
            json.dump(outcome.spans, fh)

    if outcome.details.get("missing_functions"):
        print("perfbench: not traced, missing from the program: "
              + ", ".join(outcome.details["missing_functions"]), file=sys.stderr)
    print("machine: " + json.dumps(facts))
    print("details: " + json.dumps(outcome.details, default=str))
    for problem in outcome.problems[:20]:
        print(f"problem: {problem}")
    for name, value in outcome.metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome.metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
