"""The benchmark tracer (perfbench/tracer.py) finds every function it times.

A traced function that is renamed or dropped loses its per-layer span, and
the tracer only lists it in ``missing``; this test makes that a failure.
"""

import importlib.util
import sys
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        traced = {(fn.__module__, fn.__name__) for fn in tracer.originals}
        assert traced == {(module, name) for module, name, _ in tracer_module.SPANS}
    finally:
        tracer.uninstall()


def test_self_check_input_passes(tmp_path, monkeypatch):
    # The benchmark's own self-check: every traced call is counted once, as
    # a profiler on the original functions counts it. A traced function
    # called through a reference taken at import time escapes the tracer.
    perfbench = TRACER_PATH.parent
    monkeypatch.syspath_prepend(str(perfbench))
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  perfbench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    ctx = workloads.Context(perfbench.parent / "src", tmp_path, {})
    result = workloads.self_check(lambda: workloads._self_check_input(ctx))
    assert result["calls_checked"] > 0 and result["missing"] == []
