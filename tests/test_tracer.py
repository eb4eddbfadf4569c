"""The benchmark tracer (perfbench/tracer.py) finds every function it times.

A traced function that is renamed or dropped loses its per-layer span, and
the tracer only lists it in ``missing``; this test makes that a failure.
"""

import importlib.util
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
