"""What the package exports and what the test suite imports."""

import ast
import inspect
import sys
from pathlib import Path

import gatediscrim

TESTS = Path(__file__).parent


def test_all_lists_the_public_names_init_imports():
    tree = ast.parse(Path(gatediscrim.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {
        name
        for name in imported
        if not name.startswith("_") and not inspect.ismodule(getattr(gatediscrim, name))
    }
    assert len(set(gatediscrim.__all__)) == len(gatediscrim.__all__)
    assert set(gatediscrim.__all__) == public | {"__version__"}
    for name in gatediscrim.__all__:
        assert getattr(gatediscrim, name) is not None, name


def _absolute_imports(path):
    """(line, module) for each absolute import in a Python file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_suite_imports_only_declared_dependencies():
    # the `test` extra declares pytest and hypothesis; numpy is the package's
    # one dependency.  Anything else installed locally must not creep in
    allowed = set(sys.stdlib_module_names) | {"numpy", "pytest", "hypothesis"}
    allowed |= {"gatediscrim"} | {path.stem for path in TESTS.glob("*.py")}
    for path in sorted(TESTS.glob("*.py")):
        for line, name in _absolute_imports(path):
            assert name.split(".")[0] in allowed, f"{path.name}:{line} imports {name}"


def test_package_imports_only_the_stdlib_and_numpy():
    # numpy is the one runtime dependency, even where scipy is installed
    allowed = set(sys.stdlib_module_names) | {"numpy", "gatediscrim"}
    sources = sorted(Path(gatediscrim.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        for line, name in _absolute_imports(path):
            assert name.split(".")[0] in allowed, f"{path.name}:{line} imports {name}"
