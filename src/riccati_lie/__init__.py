"""Cubic second-order equations through their Hamiltonian picture.

The package maps the equation x'' + (f0 + f1 x) x' + c0 + c1 x + c2 x^2 +
c3 x^3 = 0 to a Hamiltonian system on the momentum half-plane, verifies
the five-field algebra governing that system, and reconstructs the general
solution from three particular solutions and two constants.

The root re-exports the public names of six modules: those of `errors`,
`integrator`, `model` and `timefn` when it is imported, and those of
`liealg` and `superpose`, the two that import numpy, on the first read of a
name it does not hold, so that `import riccati_lie` imports no numpy.
"""

from .errors import *
from .integrator import *
from .model import *
from .timefn import *

__version__ = "0.1.0"

# the re-exported modules that import numpy
_LAZY = ("liealg", "superpose")


def __getattr__(name):
    """A name of `liealg` or `superpose`, or `__all__`: the first read the
    root misses imports both modules and binds their public names and
    `__all__`, every public name the root then holds but its modules.  The
    name of one of the package's own modules is the import system's to
    bind, so that `from riccati_lie import cli` imports no numpy."""
    from importlib import import_module, util
    from types import ModuleType

    root = globals()
    if "__all__" not in root and util.find_spec(f"{__name__}.{name}") is None:
        for module in _LAZY:
            source = import_module(f"{__name__}.{module}")
            root.update((attr, getattr(source, attr)) for attr in source.__all__)
        root["__all__"] = [attr for attr, value in root.items()
                           if not attr.startswith("_") and not isinstance(value, ModuleType)]
    if name not in root:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return root[name]


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
