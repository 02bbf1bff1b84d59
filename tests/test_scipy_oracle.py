"""Independent oracle for the integrator: scipy's DOP853 solves the same
equations in both coefficient pictures.

`integrate` + `sample_at` at tol 1e-10 must agree with `solve_ivp`
(rtol = atol = 1e-12) on a grid over [0, 1], for seeded random potentials,
to 1e-7 relative to max(1, |reference|).
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
)
from riccati_lie.suites import random_potential

integrate_ivp = pytest.importorskip("scipy.integrate")

GRID = np.linspace(0.0, 1.0, 21)
BOUND = 1e-7


@pytest.fixture(scope="module")
def solved():
    """Six seeded problems that survive [0, 1] in both pictures:
    {system: [(rhs, initial state, trajectory), ...]}."""
    rng = np.random.default_rng(1105)
    out = {"hamiltonian": [], "riccati2": []}
    while len(out["hamiltonian"]) < 6:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(suites, "_LOW_ORDER_AMP", 0.3)
            P = random_potential(rng)
        s0 = PhasePoint(float(rng.uniform(-0.8, 0.8)), float(rng.uniform(-2.0, -0.5)))
        problems = {
            "hamiltonian": (hamiltonian_field(P), tuple(s0), hamiltonian_guard),
            "riccati2": (riccati2_field(coefficients_from_potential(P)),
                         tuple(legendre_inverse(P, 0.0, s0)), None),
        }
        try:
            trajs = {system: integrate(rhs, (0.0, y0), 1.0, 1e-10, guard=guard, system=system)
                     for system, (rhs, y0, guard) in problems.items()}
        except (NumericError, GuardViolation):
            continue
        for system, (rhs, y0, _) in problems.items():
            out[system].append((rhs, y0, trajs[system]))
    return out


@pytest.mark.parametrize("system", ["hamiltonian", "riccati2"])
def test_integrator_matches_dop853(solved, system):
    worst = 0.0
    for rhs, y0, traj in solved[system]:
        ref = integrate_ivp.solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853",
                                      t_eval=GRID, rtol=1e-12, atol=1e-12)
        assert ref.success, ref.message
        got = sample_at(traj, GRID)
        want = ref.y.T
        worst = max(worst, float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))))
    assert worst <= BOUND
