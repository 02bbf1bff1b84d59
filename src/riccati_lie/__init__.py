"""Cubic second-order equations through their Hamiltonian picture.

The package maps the equation x'' + (f0 + f1 x) x' + c0 + c1 x + c2 x^2 +
c3 x^3 = 0 to a Hamiltonian system on the momentum half-plane, verifies
the five-field algebra governing that system, and reconstructs the general
solution from three particular solutions and two constants.
"""

from .errors import *
from .integrator import *
from .liealg import *
from .model import *
from .superpose import *
from .timefn import *

__version__ = "0.1.0"
