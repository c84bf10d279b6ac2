"""Export contract: no module lists a name it lacks, and the package
re-exports only names its modules export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pencil

# __main__ is left out: importing it runs the command line
MODULES = sorted(m.name for m in pkgutil.iter_modules(pencil.__path__) if not m.name.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(f"pencil.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"pencil.{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_reexports_only_exported_names():
    tree = ast.parse(Path(pencil.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, "pencil/__init__.py imports only from its own modules"
        module = importlib.import_module(f"pencil.{node.module}")
        assert [a.name for a in node.names if a.name not in module.__all__] == [], node.module
