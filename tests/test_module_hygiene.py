"""Module hygiene: every exported name exists and no import goes unused.

A deletion that leaves an import or an ``__all__`` entry behind fails here
rather than lingering as dead code.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trijunction"
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
