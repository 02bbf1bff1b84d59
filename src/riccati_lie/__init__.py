"""Cubic second-order equations through their Hamiltonian picture.

The package maps the equation x'' + (f0 + f1 x) x' + c0 + c1 x + c2 x^2 +
c3 x^3 = 0 to a Hamiltonian system on the momentum half-plane, verifies
the five-field algebra governing that system, and reconstructs the general
solution from three particular solutions and two constants.
"""

from .errors import (
    BranchError,
    ConfigError,
    DomainError,
    GenericityError,
    GuardViolation,
    NumericError,
    RiccatiLieError,
    TimeFnSyntaxError,
)
from .integrator import Trajectory, hamiltonian_guard, integrate, sample_at
from .liealg import (
    COMMUTATION_TABLE,
    FUNDAMENTAL_CORRESPONDENCE,
    GroupElement,
    act,
    check_commutation_table,
    compose,
    decompose_rhs_check,
    fields,
    fundamental_vf,
    levi_structure_check,
    lie_bracket,
)
from .model import (
    LagrangianPoint,
    PhasePoint,
    PotentialSpec,
    RiccatiSpec,
    c0_defect,
    coefficients_from_potential,
    drag_defect,
    eval_U,
    hamilton_rhs,
    hamiltonian,
    hamiltonian_field,
    legendre_forward,
    legendre_inverse,
    potential_from_coefficients,
    riccati2_field,
    riccati2_rhs,
    solve_hamiltonian,
)
from .superpose import (
    Constants,
    PhaseTuple,
    constants_from_four,
    cyclic_integral,
    superpose_point,
    superpose_states,
    superpose_trajectory,
)
from .timefn import Cos, Exp, Poly, Sin, TimeFn, constant, parse_timefn, render_timefn

__version__ = "0.1.0"
