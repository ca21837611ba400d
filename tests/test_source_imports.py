"""Every name a library module imports is used in it: a deletion that leaves
an import behind fails here.  The package's __init__.py is exempt, as its
imports are the export list."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "bilinear_kernels")
                 .glob("*.py"))


def imported_names(tree: ast.Module) -> set[str]:
    """The names the module's imports bind (a dotted import binds its first
    part); the __future__ flags bind none."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    # A Name node is a use, an Attribute's base (np in np.zeros) among them.
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported_names(tree) - used) == []


def test_the_scan_sees_the_library():
    assert {"counting.py", "kernels.py", "structures.py"} <= {p.name for p in SOURCES}
