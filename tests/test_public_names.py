"""Names that code outside the package reaches by attribute.

The benchmark's traced runs (``bench/spans.py``) replace the functions in
its ``TRACED`` list by module attribute, so moving or renaming one of them
must fail here rather than crash the traced benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import evsynth

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    traced = load_spans().TRACED
    assert traced
    missing = [f"{mod}.{name}" for mod, name in traced
               if not callable(getattr(importlib.import_module(f"evsynth.{mod}"),
                                       name, None))]
    assert missing == []


def test_exported_names_resolve():
    missing = [name for name in evsynth.__all__ if not hasattr(evsynth, name)]
    assert missing == []
