"""Module hygiene: every exported name exists, no import or private
top-level name goes unused, no top-level name shadows a builtin, no module
reaches into a sibling's private names, and README's module table lists every
module.

A deletion that leaves an import, an ``__all__`` entry or a private helper
behind fails here rather than lingering as dead code.  A module-level
``class ValueError`` or ``def open`` would silently change what every later
use in that module means.
"""

import ast
import builtins
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "trijunction"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name each import binds -> its line, ``from __future__`` skipped."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"trijunction.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_no_import_goes_unused(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    # The root of every attribute chain (``np`` in ``np.linalg.eigh``) is a
    # Name node, so collecting Names covers attribute access too.
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert unused == {}


def top_level_names(tree: ast.Module) -> dict[str, int]:
    """Name each module-level def, class, assignment or import binds -> its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(imported_names(ast.Module(body=[node], type_ignores=[])))
    return names


@pytest.mark.parametrize("module", MODULES)
def test_no_top_level_name_shadows_a_builtin(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    shadowing = {
        name: line for name, line in top_level_names(tree).items() if hasattr(builtins, name)
    }
    assert shadowing == {}


@pytest.mark.parametrize("module", MODULES)
def test_every_private_top_level_name_is_used(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    private = {
        name: line
        for name, line in top_level_names(tree).items()
        if name.startswith("_") and not name.startswith("__")
    }
    unused = {name: line for name, line in private.items() if name not in read}
    assert unused == {}


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def sibling_private_names(tree: ast.Module) -> dict[str, int]:
    """``sibling._name`` -> line, for each private name a module imports from
    a sibling or reads off a sibling bound by ``from . import sibling``."""
    siblings, found = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            source = node.module or ""
            for alias in node.names:
                if is_private(alias.name):
                    found[f"{source}.{alias.name}"] = node.lineno
                elif node.module is None:
                    siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and is_private(node.attr)
        ):
            found[f"{node.value.id}.{node.attr}"] = node.lineno
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reads_a_sibling_private_name(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert sibling_private_names(tree) == {}


def test_every_module_has_a_readme_row():
    readme = (ROOT / "README.md").read_text()
    missing = [
        module
        for module in MODULES
        if module not in ("__init__", "__main__")
        and f"| `trijunction.{module}` |" not in readme
    ]
    assert missing == []
