"""The benchmark's layer tracer must find every name it traces.

``benchmarks/tracing.py`` looks each ``TRACED`` name up with ``getattr``
and no default, so a renamed or deleted function would crash a traced
benchmark run.  These tests load the tracer from its file, without
writing bytecode next to it, and resolve every entry.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


tracing = _load_tracing()
TRACED = [(layer, name) for layer, names in tracing.TRACED.items() for name in names]


@pytest.mark.parametrize("layer, name", TRACED, ids=[f"{l}.{n}" for l, n in TRACED])
def test_traced_name_resolves(layer, name):
    owner = tracing.LAYER_MODULES[layer]
    for part in name.split("."):  # "Class.method" resolves the class first
        assert hasattr(owner, part), f"{layer}.{name} is traced but does not exist"
        owner = getattr(owner, part)
    assert callable(owner)

