"""The benchmark's tracer wraps package functions by name; a rename must
fail here, not only when the benchmark runs."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracer.WRAPPED if not hasattr(module, attr)]
    assert missing == []
