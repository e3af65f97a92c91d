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


def test_wrap_angle_is_not_exported():
    # it trusts its input (a complex or string angle raises numpy's errors),
    # and a check would cost every hull; the package's modules import it
    assert "wrap_angle" not in gatediscrim.__all__
    assert not hasattr(gatediscrim, "wrap_angle")


def test_svg_draws_from_geometry_alone():
    # the figure is the hull's picture: svg reads the hull from geometry and
    # returns text, which the CLI writes as it writes every output
    tree = ast.parse((Path(gatediscrim.__file__).parent / "svg.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    assert "geometry" in imported
    assert not imported & {"discrimination", "files"}


def test_oracle_reads_only_the_scan_from_kernels():
    # the scan returns its winning state whole, angles and Bob's vector: the
    # oracle decodes no grid index and hands no root back to the kernels
    tree = ast.parse((Path(gatediscrim.__file__).parent / "oracle.py").read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "_kernels":
                used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "_kernels":
            used.update(alias.name for alias in node.names)
    assert used == {"alice_scan"}
