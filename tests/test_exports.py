"""Every exported name resolves, and every import in the package is used.

Tools that walk the package by `__all__` (the benchmark's tracer among
them) look names up with a default, so a stale entry would vanish from
their view without an error; these tests make it one.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import riccati_lie

MODULES = [importlib.import_module(f"riccati_lie.{info.name}")
           for info in pkgutil.iter_modules(riccati_lie.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    names = getattr(module, "__all__", ())
    assert len(set(names)) == len(names), f"duplicate names in {module.__name__}.__all__"
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


def _package_reexports():
    """(module, name) for every `from .module import name` in __init__.py."""
    tree = ast.parse(inspect.getsource(riccati_lie))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                yield node.module, alias.name, alias.asname or alias.name


def test_every_package_reexport_resolves():
    reexports = list(_package_reexports())
    assert reexports
    for module, name, bound in reexports:
        source = importlib.import_module(f"riccati_lie.{module}")
        assert getattr(riccati_lie, bound) is getattr(source, name), f"riccati_lie.{bound}"
        # a re-exported name belongs to its module's public surface
        assert name in getattr(source, "__all__", (name,)), f"{module}.{name} not in __all__"


def test_the_hamiltonian_solve_is_exported_from_the_package_root():
    from riccati_lie import model

    assert riccati_lie.solve_hamiltonian is model.solve_hamiltonian


# (module, name) bound by an import that the module itself does not read
UNUSED_IMPORTS_KEPT = {
    # bench/tests/test_bench.py checks that the tracer rebinds `integrate` here too
    ("suites", "integrate"),
}


def _unused_imports(path):
    """Names a module binds by import and never reads.  A name counts as read
    when it is loaded anywhere in the module, annotations included, or listed
    in its `__all__`."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return {name: line for name, line in bound.items() if name not in read}


# __init__.py is left out: re-exporting what it imports is all it does, and
# test_every_package_reexport_resolves covers those names
@pytest.mark.parametrize("path", sorted(p for p in Path(riccati_lie.__file__).parent.glob("*.py")
                                        if p.name != "__init__.py"), ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = {name: line for name, line in _unused_imports(path).items()
              if (path.stem, name) not in UNUSED_IMPORTS_KEPT}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


def test_the_unused_import_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\nimport math, os.path\nfrom x import (a, b as c)\n"
                      "__all__ = ['a']\n\ndef f(v: c) -> None:\n    return os.sep\n")
    assert _unused_imports(module) == {"math": 2}


# (importing module, defining module, name): a private name one module reads
# from another, each a seam kept on purpose
PRIVATE_IMPORTS_KEPT = {
    # the chart conversion (x, p) <-> (u, sigma) of the half-plane O, which the
    # group action and the superposition rule share with the Hamiltonian solve
    ("liealg", "model", "_to_affine"), ("liealg", "model", "_from_affine"),
    ("superpose", "model", "_to_affine"), ("superpose", "model", "_from_affine"),
    ("superpose", "model", "_momentum_root"),
    # the one 17-digit number formatter, for the CLI's reports
    ("cli", "timefn", "_fmt"),
}


def _private_imports(path):
    """(defining module, name) for every private (leading underscore, not
    dunder) name a module imports from a sibling module, `from .module import _name`."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    yield node.module, alias.name


@pytest.mark.parametrize("path", sorted(Path(riccati_lie.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    crossing = [(module, name) for module, name in _private_imports(path)
                if (path.stem, module, name) not in PRIVATE_IMPORTS_KEPT]
    assert not crossing, f"{path.name} imports private names (module, name) {crossing}"


def test_the_private_import_check_sees_a_private_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from . import _a\nfrom .x import _b, c, __version__\nfrom .y import (d as _e, _f as g)\n"
                      "from z import _h\n")
    assert list(_private_imports(module)) == [("x", "_b"), ("y", "_f")]
