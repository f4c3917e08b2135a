"""The benchmark's traced runs find every function they trace.

``bench/spans.py`` swaps the functions named in its ``TRACED`` table for
span-recording wrappers, looking each one up by name in its ``raagcs``
module.  A rename or removal in the library would break ``--trace 1``
runs only; this test makes it fail here first.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_library_function():
    traced = load_spans().TRACED
    assert traced
    missing = []
    for layer, names in traced.items():
        module = importlib.import_module(f"raagcs.{layer}")
        missing += [
            f"raagcs.{layer}.{name}"
            for name in names
            if not callable(getattr(module, name, None))
        ]
    assert missing == []
