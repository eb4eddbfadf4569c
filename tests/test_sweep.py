import json
import math

from sweep import REFERENCE, sweep_records


def test_sweep_matches_reference(record_property):
    """The A-H sweep against its committed records: failure pattern and
    error classes exactly, tau and se to a relative 1e-9 (another CPU may
    take another SIMD path in exp)."""
    reference = json.loads(REFERENCE.read_text())
    records = sweep_records()
    key = lambda r: (r["scenario"], r["kind"], r["rep"])  # noqa: E731
    assert [key(r) for r in records] == [key(r) for r in reference]
    assert [r["error"] for r in records] == [r["error"] for r in reference]
    identical = 0
    for new, ref in zip(records, reference):
        if new == ref:
            identical += 1
        if new["error"]:
            continue
        for field in ("tau", "se"):
            got, want = float.fromhex(new[field]), float.fromhex(ref[field])
            assert math.isclose(got, want, rel_tol=1e-9), (key(new), field, got, want)
    record_property("bit_identical", identical)
    print(f"A-H sweep: {identical} of {len(records)} records bit-identical")
