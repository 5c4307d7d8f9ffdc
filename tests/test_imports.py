"""Static checks on the package source."""

import ast
from pathlib import Path

import spnil

SOURCES = sorted(p for p in Path(spnil.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """Names an import statement binds that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_unused_import_check_sees_a_left_over_name():
    source = "from .splie import bracket, sp_basis\nimport random\n\nbracket(random)\n"
    assert unused_imports(source) == [(1, "sp_basis")]


def test_no_module_imports_a_name_it_never_uses():
    assert SOURCES
    found = {p.name: unused_imports(p.read_text()) for p in SOURCES}
    assert not {name: hits for name, hits in found.items() if hits}
