"""The benchmark's trace hooks must name entry points that exist.

`perfbench/tracer.py` wraps circhad functions by module and attribute name; a
renamed or moved function would otherwise fail only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import circhad
import circhad.cli  # noqa: F401  (the tracer wraps names bound in the CLI)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    targets = load_tracer().targets(circhad)
    assert targets
    for layer, module, attr, _ in targets:
        assert callable(getattr(module, attr, None)), f"{layer}: {module.__name__}.{attr} is missing"
