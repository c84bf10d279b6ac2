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


# public names with no caller in the program or the benchmark, each kept for the reason given
KEPT_WITHOUT_CALLER = {
    "decay_order": "acceptance criterion 8 measures the decay order through it",
    "perturbation_negligibility": "acceptance criterion 9 measures the negligibility slopes through it",
    "xy_laplacian": "the monomial (x, y) Laplacian that the reconstruction oracle checks the banded one against",
}

ROOT = Path(__file__).resolve().parent.parent


def _public_definitions(tree: ast.Module) -> list[str]:
    """Module-level public functions and classes, and the public methods and properties of those classes."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [
                    sub.name for sub in node.body if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
                ]
    return names


def _references(tree: ast.Module, with_strings: bool) -> set[str]:
    """Names and attributes the code reads; string constants too where asked,
    as the benchmark names the functions it wraps by string."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif with_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_public_name_has_a_caller():
    # a definition, an import and an __all__ entry are not references; a use
    # in the package (the CLI included) or in perfbench/ is
    package = sorted((ROOT / "src" / "pencil").glob("*.py"))
    defined, used = [], set()
    for path in package:
        tree = ast.parse(path.read_text())
        defined += [(path.stem, name) for name in _public_definitions(tree)]
        used |= _references(tree, with_strings=False)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _references(ast.parse(path.read_text()), with_strings=True)
    assert sorted(set(KEPT_WITHOUT_CALLER) - {name for _, name in defined}) == []
    assert [(m, n) for m, n in defined if n not in used and n not in KEPT_WITHOUT_CALLER] == []
