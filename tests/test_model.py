"""Tests for the coefficient maps, Legendre transforms and both RHS."""

import math

import numpy as np
import pytest

from riccati_lie.errors import DomainError, GuardViolation, NumericError
from riccati_lie.integrator import hamiltonian_guard, integrate, sample_at
from riccati_lie.model import (
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
)
from riccati_lie.suites import random_potential
from riccati_lie.timefn import Exp, Poly, TimeFn, constant

GRID = np.linspace(0.0, 2.0, 21)


def canonical():
    return PotentialSpec(constant(0.0), constant(0.0), constant(1.0))


class TestEvalU:
    def test_pure_quadratic(self):
        assert eval_U(canonical(), 1.7, 2.0) == (4.0, 4.0)
        assert canonical().eval(1.7, 1) == (0.0, 0.0, 0.0)

    def test_zero_potential(self):
        P = PotentialSpec(constant(0.0), constant(0.0), constant(0.0))
        assert eval_U(P, 0.3, -1.2) == (0.0, 0.0)
        assert P.eval(0.3, 1) == (0.0, 0.0, 0.0)

    def test_time_dependent_constant_term(self):
        P = PotentialSpec(TimeFn((Poly((0.0, 1.0)),)), constant(0.0), constant(0.0))
        assert eval_U(P, 3.0, 5.0) == (3.0, 0.0)
        assert P.eval(3.0, 1) == (1.0, 0.0, 0.0)


class TestCoefficientsFromPotential:
    def test_canonical_cubic(self):
        R = coefficients_from_potential(canonical(), GRID)
        c0, c1, c2, c3, f0, f1 = R.eval(0.8)
        assert [c0, c1, c2, c3] == [0.0, 0.0, 0.0, 1.0]
        assert f0 == 0.0
        assert f1 == 3.0

    def test_shifted_potential(self):
        P = PotentialSpec(constant(1.0), constant(0.0), constant(1.0))
        R = coefficients_from_potential(P, GRID)
        assert list(R.eval(0.5)[:4]) == [0.0, 1.0, 0.0, 1.0]

    def test_exponential_a2(self):
        P = PotentialSpec(constant(0.0), constant(0.0), TimeFn((Exp(1.0, 1.0),)))
        R = coefficients_from_potential(P, GRID)
        for t in (0.0, 0.7, 1.3):
            c0, c1, c2, c3, f0, _ = R.eval(t)
            assert c3 == pytest.approx(math.exp(2 * t), rel=1e-14)
            assert c2 == pytest.approx(math.exp(t), rel=1e-14)
            assert c1 == 0.0
            assert c0 == 0.0
            # drag constraint: c2/sqrt(c3) - c3'/(2 c3) collapses to zero
            constraint = c2 / math.sqrt(c3) - R.eval(t, 1)[3] / (2 * c3)
            assert constraint == pytest.approx(0.0, abs=1e-14)
            assert f0 == 0.0

    def test_rejects_nonpositive_a2_on_grid(self):
        P = PotentialSpec(constant(0.0), constant(0.0), constant(-1.0))
        with pytest.raises(DomainError):
            coefficients_from_potential(P, GRID)

    def test_euler_lagrange_dual_route(self):
        # independent oracle: the acceleration read off the derived cubic
        # coefficients must equal -(3/2) U_x v - U_t - U_x U / 2 directly
        rng = np.random.default_rng(42)
        for _ in range(50):
            P = random_potential(rng)
            R = coefficients_from_potential(P)
            t = float(rng.uniform(0.0, 2.0))
            x = float(rng.uniform(-2.0, 2.0))
            v = float(rng.uniform(-2.0, 2.0))
            _, dvdt = riccati2_rhs(R, t, LagrangianPoint(x, v))
            U, U_x = eval_U(P, t, x)
            a0_t, a1_t, a2_t = P.eval(t, 1)
            U_t = a0_t + x * (a1_t + x * a2_t)
            direct = -1.5 * U_x * v - U_t - 0.5 * U_x * U
            assert dvdt == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_constraint_identity_random(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            R = coefficients_from_potential(random_potential(rng))
            for t in GRID:
                _, _, c2, c3, f0, f1 = R.eval(t)
                c3dot = R.eval(t, 1)[3]
                assert f1 == pytest.approx(3.0 * math.sqrt(c3), rel=1e-12)
                expected_f0 = c2 / math.sqrt(c3) - c3dot / (2.0 * c3)
                assert f0 == pytest.approx(expected_f0, rel=1e-12, abs=1e-12)

    def test_drag_pair_routes_agree(self):
        # two derivations of (f0, f1): straight from the potential, or the
        # constraint formulas applied to the derived cubic coefficients
        rng = np.random.default_rng(48)
        for _ in range(10):
            P = random_potential(rng)
            direct = coefficients_from_potential(P)
            recon = RiccatiSpec(direct.c0, direct.c1, direct.c2, direct.c3)
            for t in GRID[::2]:
                for a, b in zip(direct.eval(t)[4:], recon.eval(t)[4:]):
                    assert b == pytest.approx(a, rel=1e-12, abs=1e-12)
                # first derivatives must agree as well (nested-jet path)
                assert recon.eval(t, 1)[5] == pytest.approx(direct.eval(t, 1)[5], rel=1e-11, abs=1e-11)


class TestPotentialFromCoefficients:
    def test_roundtrip_canonical(self):
        R = coefficients_from_potential(canonical())
        P2 = potential_from_coefficients(R, GRID)
        assert c0_defect(R, P2, GRID) <= 1e-12
        for t in GRID:
            a0, a1, a2 = P2.eval(t)
            assert a0 == pytest.approx(0.0, abs=1e-13)
            assert a1 == pytest.approx(0.0, abs=1e-13)
            assert a2 == pytest.approx(1.0, rel=1e-13)

    def test_inconsistent_c0_surfaces_as_residual(self):
        R = RiccatiSpec(constant(1.0), constant(0.0), constant(0.0), constant(1.0))
        residual = c0_defect(R, potential_from_coefficients(R, GRID), GRID)
        assert residual == pytest.approx(1.0, rel=1e-12)

    def test_rejects_vanishing_c3(self):
        R = RiccatiSpec(constant(0.0), constant(0.0), constant(0.0), constant(0.0))
        with pytest.raises(DomainError):
            potential_from_coefficients(R, GRID)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            P = random_potential(rng)
            R = coefficients_from_potential(P)
            P2 = potential_from_coefficients(R, GRID)
            assert c0_defect(R, P2, GRID) <= 1e-10
            for t in GRID[::4]:
                for want, got in zip(P.eval(t), P2.eval(t)):
                    assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_coefficients_read_by_name(self):
        P = random_potential(np.random.default_rng(45))
        R = coefficients_from_potential(P)
        P2 = potential_from_coefficients(R, GRID)
        for picture in (R, P2, RiccatiSpec(R.c0, R.c1, R.c2, R.c3)):
            for t in (0.0, 0.9):
                for k in (0, 1):
                    got = tuple(getattr(picture, name).eval(t, k) for name in picture.names)
                    assert got == picture.eval(t, k)
        with pytest.raises(AttributeError):
            P2.c0

    def test_drag_defect(self):
        P = random_potential(np.random.default_rng(46))
        R = coefficients_from_potential(P)
        assert max(drag_defect(R, GRID)) <= 1e-12
        # a RiccatiSpec derives its drag pair by the very formula measured
        assert drag_defect(RiccatiSpec(R.c0, R.c1, R.c2, R.c3), GRID) == (0.0, 0.0)


class TestRiccati2Rhs:
    def test_canonical_examples(self):
        R = coefficients_from_potential(canonical())
        assert riccati2_rhs(R, 0.0, LagrangianPoint(0.0, 2.0)) == (2.0, 0.0)
        dx, dv = riccati2_rhs(R, 0.0, LagrangianPoint(1.0, 1.0))
        assert dx == 1.0
        assert dv == pytest.approx(-4.0, rel=1e-15)

    def test_rest_point_leaves_constant_term(self):
        R = RiccatiSpec(constant(0.7), constant(2.0), constant(-1.0), constant(4.0))
        dx, dv = riccati2_rhs(R, 0.3, LagrangianPoint(0.0, 0.0))
        assert dx == 0.0
        assert dv == pytest.approx(-0.7, rel=1e-15)


class TestHamiltonSide:
    def test_rhs_examples(self):
        P = canonical()
        assert hamilton_rhs(P, 0.0, PhasePoint(0.0, -0.25)) == (2.0, 0.0)
        dx, dp = hamilton_rhs(P, 0.0, PhasePoint(1.0, -1.0))
        assert dx == 0.0
        assert dp == -2.0

    def test_free_case_unit_speed(self):
        P = PotentialSpec(constant(0.0), constant(0.0), constant(0.0))
        for x in (-2.0, 0.0, 3.5):
            assert hamilton_rhs(P, 1.0, PhasePoint(x, -1.0)) == (1.0, 0.0)

    @pytest.mark.parametrize("p", [0.0, 1.0, float("nan")])
    def test_rhs_rejects_bad_momentum(self, p):
        with pytest.raises(DomainError):
            hamilton_rhs(canonical(), 0.0, PhasePoint(0.0, p))

    def test_hamiltonian_values(self):
        assert hamiltonian(canonical(), 0.0, PhasePoint(0.0, -0.25)) == -1.0
        P = PotentialSpec(constant(0.0), constant(0.0), constant(0.0))
        assert hamiltonian(P, 0.0, PhasePoint(7.0, -1.0)) == -2.0
        with pytest.raises(DomainError):
            hamiltonian(canonical(), 0.0, PhasePoint(0.0, 0.0))

    def test_rhs_is_gradient_of_hamiltonian(self):
        # central differences of h reproduce (dh/dp, -dh/dx)
        rng = np.random.default_rng(45)
        P = random_potential(rng)
        h = 1e-6
        for _ in range(100):
            t = float(rng.uniform(0.0, 2.0))
            x = float(rng.uniform(-3.0, 3.0))
            p = float(rng.uniform(-4.0, -0.25))
            dx, dp = hamilton_rhs(P, t, PhasePoint(x, p))
            dh_dp = (hamiltonian(P, t, PhasePoint(x, p + h)) - hamiltonian(P, t, PhasePoint(x, p - h))) / (2 * h)
            dh_dx = (hamiltonian(P, t, PhasePoint(x + h, p)) - hamiltonian(P, t, PhasePoint(x - h, p))) / (2 * h)
            assert abs(dx - dh_dp) < 1e-6
            assert abs(dp + dh_dx) < 1e-6


class TestLegendre:
    def test_forward_examples(self):
        P0 = PotentialSpec(constant(0.0), constant(0.0), constant(0.0))
        assert legendre_forward(P0, 0.0, LagrangianPoint(0.0, 1.0)) == PhasePoint(0.0, -1.0)
        assert legendre_forward(canonical(), 0.0, LagrangianPoint(0.0, 2.0)) == PhasePoint(0.0, -0.25)
        with pytest.raises(DomainError):
            legendre_forward(canonical(), 0.0, LagrangianPoint(1.0, -1.0))

    def test_inverse_examples(self):
        P0 = PotentialSpec(constant(0.0), constant(0.0), constant(0.0))
        assert legendre_inverse(P0, 0.0, PhasePoint(0.0, -1.0)) == LagrangianPoint(0.0, 1.0)
        assert legendre_inverse(canonical(), 0.0, PhasePoint(0.0, -0.25)) == LagrangianPoint(0.0, 2.0)
        assert legendre_inverse(canonical(), 0.0, PhasePoint(1.0, -1.0)) == LagrangianPoint(1.0, 0.0)
        with pytest.raises(DomainError):
            legendre_inverse(canonical(), 0.0, PhasePoint(0.0, 0.0))

    def test_roundtrips_random(self):
        rng = np.random.default_rng(46)
        for _ in range(100):
            P = random_potential(rng)
            t = float(rng.uniform(0.0, 2.0))
            x = float(rng.uniform(-2.0, 2.0))
            p = float(rng.uniform(-4.0, -0.25))
            back = legendre_forward(P, t, legendre_inverse(P, t, PhasePoint(x, p)))
            assert back.x == x
            assert back.p == pytest.approx(p, rel=1e-12)
            U, _ = eval_U(P, t, x)
            v = float(rng.uniform(0.05, 3.0)) - U  # v + U > 0 by construction
            there = legendre_forward(P, t, LagrangianPoint(x, v))
            again = legendre_inverse(P, t, there)
            assert again.v == pytest.approx(v, rel=1e-12, abs=1e-12)


class TestDynamicalEquivalence:
    def test_x_components_agree(self):
        # the velocity-picture flow and the Legendre-matched momentum-picture
        # flow must produce the same x(t)
        rng = np.random.default_rng(47)
        done = 0
        while done < 5:
            P = random_potential(rng, scale=0.3)
            R = coefficients_from_potential(P)
            x0 = float(rng.uniform(-0.8, 0.8))
            p0 = float(rng.uniform(-2.0, -0.5))
            lag0 = legendre_inverse(P, 0.0, PhasePoint(x0, p0))
            try:
                traj_h = integrate(
                    hamiltonian_field(P), (0.0, (x0, p0)), 1.0, 1e-10,
                    guard=hamiltonian_guard, system="hamiltonian",
                )
                traj_r = integrate(riccati2_field(R), (0.0, tuple(lag0)), 1.0, 1e-10, system="riccati2")
            except (NumericError, GuardViolation):
                continue
            for t in np.linspace(0.0, 1.0, 21):
                xh = sample_at(traj_h, t)[0]
                xr = sample_at(traj_r, t)[0]
                assert abs(xh - xr) < 1e-6
            done += 1
