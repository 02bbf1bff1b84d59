"""The cubic second-order equation, its potential data, and both pictures.

The equation treated by this package is

    x'' + (f0(t) + f1(t) x) x' + c0(t) + c1(t) x + c2(t) x**2 + c3(t) x**3 = 0

with c3 > 0 on the working interval and the drag coefficients tied to the
cubic ones by f1 = 3 sqrt(c3) and f0 = c2/sqrt(c3) - c3'/(2 c3).

It is the Euler-Lagrange equation of L(t, x, v) = 1/(v + U(t, x)) with the
quadratic potential U = a0(t) + a1(t) x + a2(t) x**2.  Expanding the
Euler-Lagrange equation and matching powers of x gives the coefficient
correspondence implemented here:

    c3 = a2**2              c1 = a1' + a1**2/2 + a0 a2      f1 = 3 a2
    c2 = a2' + 3 a1 a2 / 2  c0 = a0' + a0 a1 / 2            f0 = 3 a1 / 2

On the branch v + U > 0 the Legendre transform p = -1/(v + U)**2 is a
bijection onto the half-plane O = {p < 0}, where the dynamics becomes the
Hamiltonian system of h = -2 sqrt(-p) - p U:

    dx/dt = 1/sqrt(-p) - U(t, x),      dp/dt = p (a1 + 2 a2 x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError
from .timefn import Jet, JetFn

__all__ = [
    "PhasePoint",
    "LagrangianPoint",
    "PotentialSpec",
    "RiccatiSpec",
    "eval_U",
    "coefficients_from_potential",
    "potential_from_coefficients",
    "riccati2_rhs",
    "hamilton_rhs",
    "hamiltonian",
    "legendre_forward",
    "legendre_inverse",
    "hamiltonian_field",
    "riccati2_field",
]


class PhasePoint(NamedTuple):
    """Point of the momentum half-plane O; admissible iff p < 0."""

    x: float
    p: float


class LagrangianPoint(NamedTuple):
    """Velocity-picture point; the regular branch needs v + U(t, x) > 0."""

    x: float
    v: float


@dataclass(frozen=True)
class PotentialSpec:
    """Quadratic potential U = a0 + a1 x + a2 x^2 with time-function coefficients.

    Each field is any object with an exact `.eval(t, order)`.
    """

    a0: object
    a1: object
    a2: object


@dataclass(frozen=True)
class RiccatiSpec:
    """Coefficients of the cubic second-order equation, drag pair included."""

    c0: object
    c1: object
    c2: object
    c3: object
    f0: object
    f1: object

    @classmethod
    def from_cubic(cls, c0, c1, c2, c3) -> "RiccatiSpec":
        """Build a spec from the four cubic coefficients alone; the drag
        pair is derived through f1 = 3 sqrt(c3), f0 = c2/sqrt(c3) - c3'/(2 c3)."""

        def f1_jet(t, n):
            return 3.0 * Jet.of(c3, t, n).sqrt()

        def f0_jet(t, n):
            c3j = Jet.of(c3, t, n + 1)
            base = Jet.of(c3, t, n)
            return Jet.of(c2, t, n) / base.sqrt() - c3j.derivative() / (2.0 * base)

        return cls(c0, c1, c2, c3, JetFn(f0_jet), JetFn(f1_jet))


def _momentum_root(p) -> float:
    """sqrt(-p) on the half-plane O; DomainError for p >= 0 (or NaN)."""
    if not p < 0:
        raise DomainError(f"momentum must be negative (half-plane O), got p={p}")
    return math.sqrt(-p)


def eval_U(P: PotentialSpec, t: float, x: float):
    """Return (U, dU/dx, dU/dt) at (t, x)."""
    a0, a1, a2 = P.a0.eval(t), P.a1.eval(t), P.a2.eval(t)
    U = a0 + x * (a1 + x * a2)
    dU_dx = a1 + 2.0 * a2 * x
    dU_dt = P.a0.eval(t, 1) + x * (P.a1.eval(t, 1) + x * P.a2.eval(t, 1))
    return U, dU_dx, dU_dt


def coefficients_from_potential(P: PotentialSpec, grid=None) -> RiccatiSpec:
    """Map a potential to the cubic-equation coefficients.

    All six outputs are exact evaluators backed by the inputs' closed-form
    derivatives.  When a validation grid is supplied, a2 > 0 is checked on
    it (the correspondence uses sqrt(c3) = a2).
    """
    if grid is not None:
        for t in grid:
            if not P.a2.eval(float(t)) > 0.0:
                raise DomainError(f"a2(t) must be positive on the working interval; a2({t})={P.a2.eval(float(t))}")
    a0, a1, a2 = P.a0, P.a1, P.a2

    def c3_jet(t, n):
        j = Jet.of(a2, t, n)
        return j * j

    def c2_jet(t, n):
        return Jet.of(a2, t, n + 1).derivative() + 1.5 * (Jet.of(a1, t, n) * Jet.of(a2, t, n))

    def c1_jet(t, n):
        a1j = Jet.of(a1, t, n)
        return Jet.of(a1, t, n + 1).derivative() + 0.5 * (a1j * a1j) + Jet.of(a0, t, n) * Jet.of(a2, t, n)

    def c0_jet(t, n):
        return Jet.of(a0, t, n + 1).derivative() + 0.5 * (Jet.of(a0, t, n) * Jet.of(a1, t, n))

    def f1_jet(t, n):
        return 3.0 * Jet.of(a2, t, n)

    def f0_jet(t, n):
        return 1.5 * Jet.of(a1, t, n)

    return RiccatiSpec(JetFn(c0_jet), JetFn(c1_jet), JetFn(c2_jet), JetFn(c3_jet), JetFn(f0_jet), JetFn(f1_jet))


def potential_from_coefficients(R: RiccatiSpec, grid):
    """Invert the coefficient map on a working grid.

    Returns (potential evaluator, residual).  The map is overdetermined --
    four cubic coefficients against three potential ones -- so the c0
    component is not used in the reconstruction; the returned residual is
    sup over the grid of |c0 - a0' - a0 a1 / 2|, the consistency defect.
    """
    grid = [float(t) for t in grid]
    if not grid:
        raise ValueError("potential_from_coefficients needs a non-empty grid")
    for t in grid:
        if not R.c3.eval(t) > 0.0:
            raise DomainError(f"c3(t) must be positive on the working interval; c3({t})={R.c3.eval(t)}")
    c1, c2, c3 = R.c1, R.c2, R.c3

    def a2_jet(t, n):
        return Jet.of(c3, t, n).sqrt()

    def a1_jet(t, n):
        c3j = Jet.of(c3, t, n + 1)
        base = Jet.of(c3, t, n)
        return (2.0 / 3.0) * (Jet.of(c2, t, n) / base.sqrt() - c3j.derivative() / (2.0 * base))

    def a0_jet(t, n):
        a1d = a1_jet(t, n + 1).derivative()
        a1j = a1_jet(t, n)
        return (Jet.of(c1, t, n) - a1d - 0.5 * (a1j * a1j)) / a2_jet(t, n)

    P = PotentialSpec(JetFn(a0_jet), JetFn(a1_jet), JetFn(a2_jet))
    residual = max(
        abs(R.c0.eval(t) - P.a0.eval(t, 1) - 0.5 * P.a0.eval(t) * P.a1.eval(t)) for t in grid
    )
    return P, residual


def riccati2_rhs(R: RiccatiSpec, t: float, s: LagrangianPoint):
    """First-order form of the cubic equation: d(x, v)/dt."""
    x, v = s
    drag = R.f0.eval(t) + R.f1.eval(t) * x
    cubic = R.c0.eval(t) + x * (R.c1.eval(t) + x * (R.c2.eval(t) + x * R.c3.eval(t)))
    return (v, -drag * v - cubic)


def hamilton_rhs(P: PotentialSpec, t: float, s: PhasePoint):
    """d(x, p)/dt on the half-plane O."""
    x, p = s
    r = _momentum_root(p)
    U, dU_dx, _ = eval_U(P, t, x)
    return (1.0 / r - U, p * dU_dx)


def hamiltonian(P: PotentialSpec, t: float, s: PhasePoint) -> float:
    """h(t, x, p) = -2 sqrt(-p) - p U(t, x)."""
    x, p = s
    r = _momentum_root(p)
    U, _, _ = eval_U(P, t, x)
    return -2.0 * r - p * U


def legendre_forward(P: PotentialSpec, t: float, s: LagrangianPoint) -> PhasePoint:
    """(x, v) -> (x, -1/(v+U)^2); defined on the branch v + U > 0."""
    x, v = s
    U, _, _ = eval_U(P, t, x)
    w = v + U
    if not w > 0.0:
        raise DomainError(f"Legendre transform needs v + U > 0, got v + U = {w}")
    return PhasePoint(x, -1.0 / (w * w))


def legendre_inverse(P: PotentialSpec, t: float, s: PhasePoint) -> LagrangianPoint:
    """(x, p) -> (x, 1/sqrt(-p) - U); inverse of legendre_forward on O."""
    x, p = s
    r = _momentum_root(p)
    U, _, _ = eval_U(P, t, x)
    return LagrangianPoint(x, 1.0 / r - U)


def hamiltonian_field(P: PotentialSpec):
    """RHS closure over raw (x, p) pairs, for the integrator."""

    def rhs(t, y):
        return hamilton_rhs(P, t, y)

    return rhs


def riccati2_field(R: RiccatiSpec):
    """RHS closure over raw (x, v) pairs, for the integrator."""

    def rhs(t, y):
        return riccati2_rhs(R, t, y)

    return rhs
