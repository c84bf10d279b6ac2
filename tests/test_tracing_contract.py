"""The benchmark's tracer wraps program functions by module and name.

perfbench/tracing.py lists them in PATCHES; a name the program drops makes the
benchmark's own self-test fail with an AttributeError. The list is read at test
time, so it may change without touching this test.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    missing = [
        f"{module}.{name}"
        for module, name, _ in tracing.PATCHES
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
