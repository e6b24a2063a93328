"""The benchmark traces the program's functions by module and name
(bench/layers.py, WRAPPED); renaming or removing one of them must fail
here, not only in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_wrapped(monkeypatch):
    """WRAPPED from bench/layers.py, imported without touching bench/."""
    monkeypatch.syspath_prepend(str(BENCH))
    before = set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
        return layers.WRAPPED
    finally:
        for name in set(sys.modules) - before:  # bench's own modules: checks, tracing
            if str(getattr(sys.modules[name], "__file__", "")).startswith(str(BENCH)):
                del sys.modules[name]


def test_every_traced_function_exists(monkeypatch):
    wrapped = load_wrapped(monkeypatch)
    assert len(wrapped) >= 10
    missing = [
        f"{module}.{func}" for module, func, *_ in wrapped
        if not callable(getattr(importlib.import_module(module), func, None))
    ]
    assert missing == []
