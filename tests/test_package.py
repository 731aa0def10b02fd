"""Package surface: every exported name resolves, no module-level import
is left unused, the package imports nothing beyond the standard library and
its declared runtime dependency (numpy), and only topology.py grows a
deployment's FAP list, sets a FAP position or touches a deployment's private
columns."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import femtosim

MODULES = ["femtosim"] + [
    f"femtosim.{m.name}" for m in pkgutil.iter_modules(femtosim.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []
    assert len(set(exported)) == len(exported)


@pytest.mark.parametrize(
    "path", sorted(Path(femtosim.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names re-exported through __all__ count as used
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert unused == {}


# pyproject.toml's [project] dependencies; scipy is a test-only dependency
RUNTIME_DEPENDENCIES = {"numpy"}


def _undeclared_imports(source):
    """Top-level names of absolute imports anywhere in ``source`` that are
    neither in the standard library nor runtime dependencies."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots - set(sys.stdlib_module_names) - RUNTIME_DEPENDENCIES


@pytest.mark.parametrize(
    "path", sorted(Path(femtosim.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_imports_only_stdlib_and_runtime_dependencies(path):
    assert _undeclared_imports(path.read_text()) == set()


@pytest.mark.parametrize("snippet", [
    "from scipy import special",
    "import scipy.special as sp",
    "def f():\n    from scipy.special import exp1",
])
def test_dependency_guard_flags_scipy(snippet):
    assert _undeclared_imports(snippet) == {"scipy"}


def test_dependency_guard_allows_stdlib_numpy_and_relative():
    source = "import math\nimport numpy as np\nfrom . import son\nfrom .channel import x"
    assert _undeclared_imports(source) == set()


def _growth_outside_extend(source):
    """Line numbers that grow or rebind ``.faps`` or set ``.position``: calls
    of ``.faps.append``/``extend``/``insert``, and assignments to ``.faps``,
    ``.faps[...]`` or ``.position``.  FAPs join only through
    ``Deployment.extend``, which this does not flag."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr in ("append", "extend", "insert")
                    and isinstance(f.value, ast.Attribute) and f.value.attr == "faps"):
                lines.append(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Subscript):
                    t = t.value
                if isinstance(t, ast.Attribute) and t.attr in ("faps", "position"):
                    lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(Path(femtosim.__file__).parent.glob("*.py")) if p.name != "topology.py"],
    ids=lambda p: p.name,
)
def test_faps_grow_only_through_deployment_append(path):
    assert _growth_outside_extend(path.read_text()) == []


@pytest.mark.parametrize("snippet", [
    "dep.faps.append(fap)",
    "deployment.faps.extend(more)",
    "dep.faps = dep.faps[:2]",
    "dep.faps[1] = fap",
    "dep.faps += [fap]",
    "dep.faps[1].position = p",
    "fap.position = p",
])
def test_growth_guard_flags(snippet):
    assert _growth_outside_extend(snippet) == [1]


def test_growth_guard_allows_append_and_reads():
    source = "dep.extend(p)\nx = dep.faps[0].position\nfaps.append(f)\nlog.append(e)"
    assert _growth_outside_extend(source) == []


TOPOLOGY = Path(femtosim.__file__).parent / "topology.py"


def _private_columns():
    """Private attributes ``Deployment.__init__`` sets on ``self``: its FAP
    columns (``_pos``, ``_sector``, ``_edge``, ...) and the index over them."""
    tree = ast.parse(TOPOLOGY.read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Deployment")
    init = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    return {
        t.attr for n in ast.walk(init) if isinstance(n, (ast.Assign, ast.AnnAssign))
        for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
        if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
        and t.value.id == "self" and t.attr.startswith("_")
    }


def _private_column_reads(source):
    """Line numbers that touch a private ``Deployment`` attribute."""
    columns = _private_columns()
    return [n.lineno for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and n.attr in columns]


def test_private_columns_found():
    assert {"_pos", "_sector", "_tx_power", "_radius", "_edge", "_n"} <= _private_columns()


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(Path(femtosim.__file__).parent.glob("*.py")) if p != TOPOLOGY],
    ids=lambda p: p.name,
)
def test_deployment_columns_read_only_in_topology(path):
    assert _private_column_reads(path.read_text()) == []


@pytest.mark.parametrize("snippet", [
    "e = dep._edge[ids]",
    "deployment._sector[3] = 1",
    "x = self._dep._pos",
    "n = f(deployment._n)",
])
def test_private_column_guard_flags(snippet):
    assert _private_column_reads(snippet) == [1]


def test_private_column_guard_allows_public_views():
    source = "e = dep.edges()[ids]\ns = dep.sectors()\np = dep.positions()\nq = dep.plan"
    assert _private_column_reads(source) == []
