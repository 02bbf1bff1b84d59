"""Independent oracle for the integrator: scipy's DOP853 solves the same
equations in both coefficient pictures.

`integrate` + `sample_at` at tol 1e-10, and `solve_hamiltonian` at tol
1e-10 (which integrates the affine chart field, not the (x, p) field
DOP853 solves), must agree with `solve_ivp` (rtol = atol = 1e-12) on a
grid over [0, 1], for seeded random potentials, to 1e-7 relative to
max(1, |reference|).
"""

import numpy as np
import pytest

from riccati_lie import suites
from riccati_lie.errors import GuardViolation, NumericError
from riccati_lie.integrator import hamiltonian_guard, integrate, sample_at
from riccati_lie.model import (
    PhasePoint,
    coefficients_from_potential,
    hamiltonian_field,
    legendre_inverse,
    riccati2_field,
    solve_hamiltonian,
)
from riccati_lie.suites import random_potential

integrate_ivp = pytest.importorskip("scipy.integrate")

GRID = np.linspace(0.0, 1.0, 21)
BOUND = 1e-7


@pytest.fixture(scope="module")
def solved():
    """Six seeded problems that survive [0, 1] in every solve:
    {solve: [(DOP853 rhs, initial state, solution on GRID), ...]}."""
    rng = np.random.default_rng(1105)
    out = {"hamiltonian": [], "solve_hamiltonian": [], "riccati2": []}
    while len(out["riccati2"]) < 6:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(suites, "_LOW_ORDER_AMP", 0.3)
            P = random_potential(rng)
        s0 = PhasePoint(float(rng.uniform(-0.8, 0.8)), float(rng.uniform(-2.0, -0.5)))
        ham_rhs, lag_rhs = hamiltonian_field(P), riccati2_field(coefficients_from_potential(P))
        lag0 = tuple(legendre_inverse(P, 0.0, s0))
        try:
            got = {
                "hamiltonian": sample_at(integrate(ham_rhs, (0.0, tuple(s0)), 1.0, 1e-10,
                                                   guard=hamiltonian_guard, system="hamiltonian"), GRID),
                "solve_hamiltonian": solve_hamiltonian(P, s0, GRID, 1e-10).states,
                "riccati2": sample_at(integrate(lag_rhs, (0.0, lag0), 1.0, 1e-10, system="riccati2"), GRID),
            }
        except (NumericError, GuardViolation):
            continue
        out["hamiltonian"].append((ham_rhs, tuple(s0), got["hamiltonian"]))
        out["solve_hamiltonian"].append((ham_rhs, tuple(s0), got["solve_hamiltonian"]))
        out["riccati2"].append((lag_rhs, lag0, got["riccati2"]))
    return out


@pytest.mark.parametrize("system", ["hamiltonian", "solve_hamiltonian", "riccati2"])
def test_integrator_matches_dop853(solved, system):
    worst = 0.0
    for rhs, y0, got in solved[system]:
        ref = integrate_ivp.solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853",
                                      t_eval=GRID, rtol=1e-12, atol=1e-12)
        assert ref.success, ref.message
        want = ref.y.T
        worst = max(worst, float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))))
    assert worst <= BOUND
