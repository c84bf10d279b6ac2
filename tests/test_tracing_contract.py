"""The benchmark's tracer wraps program functions by module and name.

perfbench/tracing.py lists them in PATCHES; a name the program drops makes the
benchmark's own self-test fail with an AttributeError. The program keeps
imports it does not call only for the tracer, marked `# noqa: F401`; one whose
PATCHES entry is gone is dead. The list is read at test time, so it may change
without touching these tests.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_TRACING = _ROOT / "perfbench" / "tracing.py"
_PACKAGE = _ROOT / "src" / "pencil"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    return tracing.PATCHES


def test_every_traced_name_resolves():
    missing = [
        f"{module}.{name}"
        for module, name, _ in _patches()
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_every_unused_import_is_traced():
    traced = {(module, name) for module, name, _ in _patches()}
    kept = []
    for path in sorted(_PACKAGE.glob("*.py")):
        source = path.read_text()
        marked = {i for i, line in enumerate(source.splitlines(), 1) if "# noqa: F401" in line}
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and marked & set(range(node.lineno, node.end_lineno + 1)):
                kept += [(f"pencil.{path.stem}", alias.asname or alias.name) for alias in node.names]
    assert kept
    assert [pair for pair in kept if pair not in traced] == []
