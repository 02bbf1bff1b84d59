"""Every exported name resolves, every import in the package is used, only
`JetFn.eval` builds jets, only the two coefficient maps derive the drag pair,
only the time functions' read builder compiles source, and every coefficient
picture reads order 0 through its template.

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


# the modules whose public names the package root re-exports: all but cli and suites
REEXPORTED = ("errors", "integrator", "liealg", "model", "superpose", "timefn")


def _public_names(module):
    """A module's `__all__`, or, without one, what `import *` takes from it."""
    return getattr(module, "__all__", None) or [name for name in vars(module) if not name.startswith("_")]


def test_every_package_reexport_resolves():
    # the root's `__all__` is each re-exported module's public names, and each resolves, on first read, to the
    # same object
    expected = []
    for name in REEXPORTED:
        source = importlib.import_module(f"riccati_lie.{name}")
        for attr in _public_names(source):
            assert getattr(riccati_lie, attr) is getattr(source, attr), f"riccati_lie.{attr}"
        expected += _public_names(source)
    assert sorted(riccati_lie.__all__) == sorted(expected) and len(set(expected)) == len(expected)
    assert set(expected) <= set(dir(riccati_lie))
    namespace = {}
    exec("from riccati_lie import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(expected)
    assert all(namespace[name] is getattr(riccati_lie, name) for name in expected)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        riccati_lie.no_such_name
    # and binds no public name of its own, once every re-export is read, but its modules and version
    submodules = {name for name, value in vars(riccati_lie).items() if inspect.ismodule(value)}
    assert {name for name in vars(riccati_lie) if not name.startswith("_")} - submodules == set(expected)
    assert submodules <= {info.name for info in pkgutil.iter_modules(riccati_lie.__path__)}
    assert isinstance(riccati_lie.__version__, str)
    # and names none itself: one `from .module import *` per module it imports, all but the two that import
    # numpy, which `__getattr__` imports on a miss
    imports = [node for node in ast.parse(inspect.getsource(riccati_lie)).body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [(node.level, node.module, [a.name for a in node.names]) for node in imports] \
        == [(1, name, ["*"]) for name in REEXPORTED if name not in riccati_lie._LAZY]
    assert riccati_lie._LAZY == ("liealg", "superpose")


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
                      "__all__ = ['a']\n\ndef f(v: c) -> None:\n    import numpy as np\n    from y import d\n"
                      "    return os.sep, d\n")
    # a function-local import counts as the module's
    assert _unused_imports(module) == {"math": 2, "np": 7}


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


def _calls(path, name):
    """The function around each call of `name` in a module, as a method
    (`x.name(...)`) or a plain function (`name(...)`): "Class.method" or
    "function" ("" at module level), in source order."""
    calls = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and name in (getattr(child.func, "attr", None),
                                                        getattr(child.func, "id", None)):
                calls.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return calls


def _callers(name):
    return {(path.stem, scope) for path in Path(riccati_lie.__file__).parent.glob("*.py")
            for scope in _calls(path, name)}


def test_only_jetfn_eval_builds_jets():
    # every other reader of a picture goes through eval, which keeps the memo and
    # maps a jet overflow to NumericError in one place
    assert _callers("jets") == {("timefn", "JetFn.eval")}


def test_only_the_maps_derive_the_drag_pair():
    # (f0, f1) from (c2, c3) is stated once, in the two maps that need it: their jets call it,
    # and their order-0 templates call it as `drag`, the name `_MAP_NAMES` binds it to;
    # `map_defect` measures a drag pair by building a `RiccatiSpec`
    from riccati_lie import model

    assert _callers("_drag") == {("model", "RiccatiSpec.jets"), ("model", "_PotentialOfCubic.jets")}
    assert dict(model._MAP_NAMES)["drag"] is model._drag
    templates = {cls.__name__: cls.template for cls in (model.RiccatiSpec, model._CubicOfPotential,
                                                        model._PotentialOfCubic)}
    assert {name for name, (_, _, lines, _) in templates.items() if any("drag(" in line for line in lines)} \
        == {"RiccatiSpec", "_PotentialOfCubic"}


def test_only_the_read_builder_compiles_source():
    # one function turns a shape into code; a config's numbers reach that code as arguments only
    assert _callers("exec") == _callers("compile") == {("timefn", "_read_code")}


def test_every_picture_reads_order_0_through_its_template():
    # the four pictures of `model` each give their order 0 as a template, which only the pictures' own `eval`s
    # read, through `inline` and else `floats`; each compiles it with its field as `rhs`, which the commands hand
    # to the integrator, so no module calls the uncompiled fields `affine_rhs` and `riccati2_rhs`: the oracles and
    # tests do
    from riccati_lie import model, timefn

    pictures = {name: cls for name, cls in vars(model).items()
                if isinstance(cls, type) and issubclass(cls, timefn.Picture) and cls.__module__ == model.__name__}
    assert set(pictures) == {"PotentialSpec", "RiccatiSpec", "_CubicOfPotential", "_PotentialOfCubic"}
    assert all(cls.template is not None and cls.field is not None for cls in pictures.values())
    assert _callers("inline") == {("timefn", "JetFn.eval"), ("model", "PotentialSpec.eval")}
    assert _callers("affine_rhs") == _callers("riccati2_rhs") == set()
    assert _callers("floats") == {("timefn", "JetFn.eval"), ("model", "PotentialSpec.eval")}


def test_the_jets_call_check_sees_a_planted_call(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("x = P.jets(0.0, 0)\n\nclass A:\n    def f(self, P):\n        return P.jets(0.0, 1)\n\n"
                      "def g(R):\n    def h():\n        return R.jets(0.0, 0)\n    return jets(1), R.jets, h\n")
    assert _calls(module, "jets") == ["", "A.f", "g.h", "g"]
