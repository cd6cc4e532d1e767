"""Every name a library module imports is used in that module.

__init__.py is skipped: its imports are the package's public API.
"""

import ast
from pathlib import Path

import pytest

import matroidlab

MODULES = sorted(p for p in Path(matroidlab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_check_finds_an_unused_import():
    source = "from .linalg import Subspace, rref_rows\nimport math\nSubspace(math.pi)\n"
    assert unused_imports(source) == [(1, "rref_rows")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
