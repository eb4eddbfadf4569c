"""The A-H sweep: every scenario A-H, all 8 estimator kinds, n=300, 12
replicates, master seed 5, run as a campaign runs them (768 records).

Each record holds the scenario, kind and replicate, tau and se as
``float.hex`` and, for a failed estimate, the error class and message.
``test_sweep.py`` recomputes the sweep against the committed
``sweep_reference.json``. A change meant to move numbers regenerates it:

    PYTHONPATH=src python tests/sweep.py

which first prints what moved against the committed file: the largest
relative tau and se move per kind, the count of records that moved, and
every failure class or message that changed. The change declares that.
"""

import json
import math
from pathlib import Path

from targetcal.estimators import EstimatorKind
from targetcal.sim import SCENARIOS, RunnerConfig, run_experiment

REFERENCE = Path(__file__).with_name("sweep_reference.json")
SCENARIO_IDS = tuple(sorted(SCENARIOS))
KINDS = tuple(EstimatorKind)


def sweep_records() -> list:
    # tau0 only enters the metrics rows, so no oracle runs.
    table = run_experiment(RunnerConfig(
        scenarios=SCENARIO_IDS, ns=(300,), reps=12, kinds=KINDS, seed=5,
        tau0_overrides=dict.fromkeys(SCENARIO_IDS, 0.0), keep_replicates=True))
    records = []
    for r in table.replicates:
        error_class, _, message = r.error.partition(": ")
        records.append({"scenario": r.scenario, "kind": r.kind, "rep": r.rep,
                        "tau": float.hex(r.tau_hat), "se": float.hex(r.se),
                        "error": error_class, "message": message})
    return records


def dumps(records: list) -> str:
    """One record per line, so a diff shows which records moved."""
    return "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n]\n"


def report(reference: list, records: list) -> list:
    """Lines saying what moved from ``reference`` to ``records``."""
    key = lambda r: (r["scenario"], r["kind"], r["rep"])  # noqa: E731
    before = {key(r): r for r in reference}
    largest = {kind.value: {"tau": 0.0, "se": 0.0} for kind in KINDS}
    moved, failures = 0, []
    for new in records:
        old = before.get(key(new))
        if old == new:
            continue
        moved += 1
        if old is None or (old["error"], old["message"]) != (new["error"], new["message"]):
            was = "absent" if old is None else f"{old['error']}: {old['message']}"
            failures.append(f"  {key(new)}: {was} -> {new['error']}: {new['message']}")
            continue
        if new["error"]:
            continue
        for field, size in largest[new["kind"]].items():
            got, want = float.fromhex(new[field]), float.fromhex(old[field])
            if got != want:
                move = abs(got - want) / abs(want) if want else math.inf
                largest[new["kind"]][field] = max(size, move)
    lines = [f"records moved: {moved} of {len(records)}"]
    lines += [f"{kind}: largest relative move tau {size['tau']:.2g}, se {size['se']:.2g}"
              for kind, size in largest.items()]
    return lines + [f"failures changed: {len(failures)}"] + failures


if __name__ == "__main__":
    records = sweep_records()
    if REFERENCE.exists():
        print("\n".join(report(json.loads(REFERENCE.read_text()), records)))
    REFERENCE.write_text(dumps(records))
