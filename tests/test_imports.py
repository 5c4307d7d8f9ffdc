"""Static checks on the package and test sources, and on what importing the
CLI loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import spnil

PACKAGE = sorted(Path(spnil.__file__).parent.glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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
    assert SOURCES and TESTS
    found = {p.name: unused_imports(p.read_text()) for p in SOURCES + TESTS}
    assert not {name: hits for name, hits in found.items() if hits}


def unused_helpers(sources, is_helper):
    """(module, name) of each top-level function or class in the sources, a
    dict of module name to text, whose name is_helper accepts and that no
    source references."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and is_helper(node.name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted((module, name) for module, name in defined if name not in used)


def private(name):
    return name.startswith("_")


def any_name(name):
    return True


def not_a_test(name):
    return not name.startswith("test_")


def test_unused_private_helper_check_sees_a_left_over_helper():
    sources = {
        "a": "def _kept(): pass\nclass _Left: pass\ndef public(): pass\n",
        "b": "from .a import _kept\n",
    }
    assert unused_helpers(sources, private) == [("a", "_Left")]
    # a package name is used once another module, __init__ included,
    # imports or calls it
    assert unused_helpers(sources, any_name) == [("a", "_Left"), ("a", "public")]
    exported = dict(sources, __init__="from .a import public\n")
    assert unused_helpers(exported, any_name) == [("a", "_Left")]
    # in the tests every function but a test_ one is a helper
    sources["b"] += "def oracle(): pass\ndef test_a(): _kept()\n"
    assert unused_helpers(sources, not_a_test) == [("a", "_Left"), ("a", "public"),
                                                   ("b", "oracle")]


def test_no_package_function_or_class_is_left_unused():
    # every top-level name is read by the package itself or exported by
    # __init__; one that only the tests call belongs in the tests
    found = unused_helpers({p.stem: p.read_text() for p in PACKAGE}, any_name)
    assert not found


def test_no_test_helper_is_left_unused():
    found = unused_helpers({p.stem: p.read_text() for p in TESTS}, not_a_test)
    assert not found


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    # every report is a fresh process, so what importing spnil.cli loads is
    # paid on each run; the records are named tuples and need neither module
    env = dict(os.environ, PYTHONPATH=str(Path(spnil.__file__).parents[1]))
    code = "import spnil.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "[]\n"
