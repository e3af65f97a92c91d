"""What the package exports and what the test suite imports."""

import ast
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import gatediscrim

from conftest import g
from test_cli import CHILD_ENV

TESTS = Path(__file__).parent


def test_all_lists_the_public_names_init_imports():
    # the package's table maps each export and each submodule to its module
    exported = {name for names in gatediscrim._EXPORTS.values() for name in names}
    public = {
        name
        for name in exported | set(gatediscrim._EXPORTS)
        if not name.startswith("_") and not inspect.ismodule(getattr(gatediscrim, name))
    }
    assert len(set(gatediscrim.__all__)) == len(gatediscrim.__all__)
    assert set(gatediscrim.__all__) == public | {"__version__"}
    for name in gatediscrim.__all__:
        assert getattr(gatediscrim, name) is not None, name
    for module in gatediscrim._EXPORTS:
        assert inspect.ismodule(getattr(gatediscrim, module)), module
    star = {}
    exec("from gatediscrim import *", star)
    assert set(star) - {"__builtins__"} == set(gatediscrim.__all__)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(gatediscrim, "no_such_name")


# in a fresh interpreter, after `import gatediscrim`, the CLI on the
# arguments if there are any; the last stderr line holds the exit code and
# the package's modules that are loaded
_COLD_RUN = """
import sys
import gatediscrim
code = 0
if sys.argv[1:]:
    from gatediscrim import cli
    code = cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.startswith("gatediscrim"))
print(code, *loaded, file=sys.stderr)
"""
_ANALYSIS = {"discrimination", "geometry"}
# `_kernels` loads only when a search runs, `svg` only for a figure
_SEARCH_AND_FIGURE = {"oracle", "_kernels", "svg"}


@pytest.mark.parametrize(
    "argv, code, absent",
    [
        ([], 0, None),  # the package alone
        (["decompose", g("08")], 0, _ANALYSIS | _SEARCH_AND_FIGURE),
        (["discriminate", g("01"), g("04")], 1, _SEARCH_AND_FIGURE),
        (["decompose", g("09")], 2, {"discrimination"}),
        # a rejected gate file stops before the analysis is loaded
        (["discriminate", g("01"), g("09")], 2, {"discrimination"}),
    ],
    ids=["import", "decompose", "discriminate", "decompose-rejected",
         "discriminate-rejected"],
)
def test_a_cold_start_loads_only_what_the_request_runs(argv, code, absent):
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_RUN, *argv],
        env=CHILD_ENV,
        capture_output=True,
        text=True,
    )
    got, *loaded = proc.stderr.splitlines()[-1].split()
    assert int(got) == code, proc.stderr
    if absent is None:
        assert loaded == ["gatediscrim"]
    else:
        assert {name.removeprefix("gatediscrim.") for name in loaded}.isdisjoint(absent)


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


def test_the_hull_and_its_figure_import_no_numpy():
    # a hull is a few numbers, which stay Python floats (the four-number
    # rule in numerics' docstring)
    for name in ("geometry.py", "svg.py"):
        path = Path(gatediscrim.__file__).parent / name
        assert "numpy" not in {m.split(".")[0] for _, m in _absolute_imports(path)}, name


def test_gate_files_keep_no_number_rule():
    # a gate file's numbers pass the one real-number check in numerics; the
    # reader checks the file's layout only
    tree = ast.parse((Path(gatediscrim.__file__).parent / "files.py").read_text())
    float_checks = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and any(
            isinstance(n, ast.Name) and n.id == "float" for n in ast.walk(node.args[1])
        )
    ]
    assert float_checks == []


def test_oracle_reads_only_the_scan_from_kernels():
    # the scan returns its winning state whole, angles and Bob's vector: the
    # oracle decodes no grid index and hands no root back to the kernels.
    # Besides the scan it reads scan_grid, the grid a SearchConfig keeps
    tree = ast.parse((Path(gatediscrim.__file__).parent / "oracle.py").read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "_kernels":
                used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "_kernels":
            used.update(alias.name for alias in node.names)
    assert used == {"alice_scan", "scan_grid"}


# read only under `if _kernels.NUMBA_ENABLED:`, which is always False
_UNREAD_BY_BENCHMARK = {
    ("_kernels", "product_scan_numpy"),
    ("_kernels", "product_scan_numba"),
}


def _benchmark_reads(path):
    """(module, name) for each name a benchmark file imports from the
    package, and each attribute it reads from a package module it imported."""
    tree = ast.parse(path.read_text())
    modules = {}  # local name -> package module
    for node in ast.walk(tree):
        # an absolute `from` import always names its module
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] != "gatediscrim":
                continue
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                if node.module == "gatediscrim" and importlib.util.find_spec(full):
                    modules[alias.asname or alias.name] = full
                else:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top == "gatediscrim":
                    # without `as`, `import gatediscrim.x` binds the package
                    modules[alias.asname or top] = alias.name if alias.asname else top
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                yield modules[node.value.id], node.attr


def test_the_benchmark_reads_only_names_the_package_has():
    # the benchmark is no tier-1 test, so a deleted name it reads would only
    # show when it runs; its files are parsed, not imported
    from gatediscrim import _kernels

    assert not _kernels.NUMBA_ENABLED
    missing = set()
    for path in sorted((TESTS.parent / "perfbench").glob("*.py")):
        for module, name in _benchmark_reads(path):
            if not hasattr(importlib.import_module(module), name):
                missing.add((module.split(".")[-1], name))
    assert missing <= _UNREAD_BY_BENCHMARK, sorted(missing - _UNREAD_BY_BENCHMARK)


def test_every_imported_name_is_read():
    # no linter runs here
    package = Path(gatediscrim.__file__).parent
    unread = []
    for path in sorted(package.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            imported.update(dict.fromkeys(names, node.lineno))
        read = {
            n.id
            for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unread += [f"{path.name}:{n} {x}" for x, n in imported.items() if x not in read]
    assert unread == []
