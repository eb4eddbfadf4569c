"""The A-H sweep: every scenario A-H, all 8 estimator kinds, n=300, 12
replicates, master seed 5, run as a campaign runs them (768 records).

Each record holds the scenario, kind and replicate, tau and se as
``float.hex`` and, for a failed estimate, the error class and message.
``test_sweep.py`` recomputes the sweep against the committed
``sweep_reference.json``. A change meant to move numbers regenerates it:

    PYTHONPATH=src python tests/sweep.py

and declares the largest relative move per kind.
"""

import json
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


if __name__ == "__main__":
    REFERENCE.write_text(dumps(sweep_records()))
