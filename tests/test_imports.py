"""Every name a library module imports is used in that module, and every
function, class and constant a library module defines has a reader
outside the tests.

__init__.py is skipped by the import check: its imports are the
package's public API.
"""

import ast
from pathlib import Path

import pytest

import matroidlab

PACKAGE = Path(matroidlab.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the scripts and the benchmark call the library as users do
CALLERS = sorted(p for d in ("scripts", "bench")
                 for p in (Path(__file__).resolve().parent.parent / d).glob("*.py"))


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


def names_used(tree):
    """Every name the code in tree refers to, as a loaded or imported name or
    as an attribute.  A name only bound here is not a reference."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def defined_names(node):
    """The names a top-level statement defines: a function's or class's,
    or each plain name an assignment binds, dunder names such as
    __version__ excepted, since Python and packaging tools read them."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets
            if isinstance(t, ast.Name) and not t.id.startswith("__")]


def uncalled_definitions(library, callers):
    """(module, name) of each top-level function, class or constant of a
    library module that nothing refers to: not another library module
    (the imports of __init__.py, the package's API, count), not its own
    module outside the definition, and no source in callers.  library
    maps module names to sources."""
    parts = {mod: [(node, names_used(node)) for node in ast.parse(src).body]
             for mod, src in library.items()}
    used = {mod: set().union(*(u for _, u in nodes)) for mod, nodes in parts.items()}
    outside = set().union(*(names_used(ast.parse(src)) for src in callers))
    out = []
    for mod, nodes in parts.items():
        known = outside.union(*(u for m, u in used.items() if m != mod))
        for node, _ in nodes:
            own = set().union(*(u for n, u in nodes if n is not node))
            out += [(mod, name) for name in defined_names(node)
                    if name not in known | own]
    return out


def test_check_finds_an_uncalled_definition():
    library = {
        "a.py": "def used():\n    return kept()\n\ndef kept():\n    return kept()\n"
                "\ndef alone():\n    return alone()\n\nclass Api:\n    pass\n"
                "\nCAP = 12\nLIMIT: int = CAP\nORPHAN = LIMIT\n__version__ = '1'\n",
        "b.py": "from .a import LIMIT, used\n\nORPHAN = 0\n",
        "__init__.py": "from .a import Api\n",
    }
    assert uncalled_definitions(library, ["import a\na.b.used()\n"]) == [
        ("a.py", "alone"), ("a.py", "ORPHAN"), ("b.py", "ORPHAN")]


def test_every_library_definition_has_a_caller():
    library = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    callers = [p.read_text() for p in CALLERS]
    assert uncalled_definitions(library, callers) == []
