"""Package surface: every exported name resolves, no module-level import
is left unused."""

import ast
import importlib
import pkgutil
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
