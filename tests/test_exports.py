"""Every exported name resolves.

Tools that walk the package by `__all__` (the benchmark's tracer among
them) look names up with a default, so a stale entry would vanish from
their view without an error; these tests make it one.
"""

import ast
import importlib
import inspect
import pkgutil

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
