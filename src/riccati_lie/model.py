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

Each coefficient picture is a `JetFn`: `eval(t, k)` of a potential
picture returns the k-th derivatives (a0, a1, a2), of a cubic picture
(c0, c1, c2, c3, f0, f1).  A cubic picture's `jets(t, n)` carries c3 one
order further, to n+1, because the drag pair needs c3'.

On the branch v + U > 0 the Legendre transform p = -1/(v + U)**2 is a
bijection onto the half-plane O = {p < 0}, where the dynamics becomes the
Hamiltonian system of h = -2 sqrt(-p) - p U:

    dx/dt = 1/sqrt(-p) - U(t, x),      dp/dt = p (a1 + 2 a2 x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
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
    "c0_defect",
    "drag_defect",
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
class PotentialSpec(JetFn):
    """Quadratic potential U = a0 + a1 x + a2 x^2 with time-function coefficients.

    Each field is any object with an exact `.eval(t, order)`; `eval(t, k)`
    returns the k-th derivatives (a0, a1, a2).
    """

    a0: object
    a1: object
    a2: object

    names = ("a0", "a1", "a2")

    def jets(self, t, n):
        return Jet.of(self.a0, t, n), Jet.of(self.a1, t, n), Jet.of(self.a2, t, n)


def _positive_c3(t, c3: float) -> None:
    if not c3 > 0.0:
        raise DomainError(f"c3(t) must be positive on the working interval; c3({t})={c3}")


def _drag(c2: Jet, c3: Jet):
    """(sqrt(c3), f0) from a c2 jet and a c3 jet one order longer, with
    f0 = c2/sqrt(c3) - c3'/(2 c3); the drag pair is (f0, 3 sqrt(c3))."""
    root = c3.sqrt()
    return root, c2 / root - c3.derivative() / (2.0 * c3)


@dataclass(frozen=True)
class RiccatiSpec(JetFn):
    """The four cubic coefficients; `eval(t, k)` returns the k-th derivatives
    (c0, c1, c2, c3, f0, f1), the drag pair derived from c2 and c3."""

    c0: object
    c1: object
    c2: object
    c3: object

    names = ("c0", "c1", "c2", "c3", "f0", "f1")

    def jets(self, t, n):
        c0, c1, c2 = Jet.of(self.c0, t, n), Jet.of(self.c1, t, n), Jet.of(self.c2, t, n)
        c3 = Jet.of(self.c3, t, n + 1)
        _positive_c3(t, c3.value)
        root, f0 = _drag(c2, c3)
        return c0, c1, c2, c3, f0, 3.0 * root


def _momentum_root(p) -> float:
    """sqrt(-p) on the half-plane O; DomainError for p >= 0 (or NaN)."""
    if not p < 0:
        raise DomainError(f"momentum must be negative (half-plane O), got p={p}")
    return math.sqrt(-p)


def eval_U(P: JetFn, t: float, x: float):
    """Return (U, dU/dx) at (t, x)."""
    a0, a1, a2 = P.eval(t)
    return a0 + x * (a1 + x * a2), a1 + 2.0 * a2 * x


@dataclass(frozen=True)
class _CubicOfPotential(JetFn):
    P: JetFn

    names = RiccatiSpec.names

    def jets(self, t, n):
        a0, a1, a2 = self.P.jets(t, n + 1)
        return (
            a0.derivative() + 0.5 * (a0 * a1),
            a1.derivative() + 0.5 * (a1 * a1) + a0 * a2,
            a2.derivative() + 1.5 * (a1 * a2),
            a2 * a2,
            1.5 * a1,
            3.0 * a2,
        )


def coefficients_from_potential(P: JetFn, grid=None) -> JetFn:
    """Map a potential to the cubic picture (c0, c1, c2, c3, f0, f1).

    Every output is exact, backed by the inputs' closed-form derivatives.
    When a validation grid is supplied, a2 > 0 is checked on it (the
    correspondence uses sqrt(c3) = a2).
    """
    if grid is not None:
        for t in grid:
            a2 = P.a2.eval(float(t))
            if not a2 > 0.0:
                raise DomainError(f"a2(t) must be positive on the working interval; a2({t})={a2}")
    return _CubicOfPotential(P)


@dataclass(frozen=True)
class _PotentialOfCubic(JetFn):
    R: JetFn

    names = PotentialSpec.names

    def jets(self, t, n):
        R = self.R
        c1, c2, c3 = Jet.of(R.c1, t, n), Jet.of(R.c2, t, n + 1), Jet.of(R.c3, t, n + 2)
        a2, f0 = _drag(c2, c3)
        a1 = (2.0 / 3.0) * f0
        return (c1 - a1.derivative() - 0.5 * (a1 * a1)) / a2, a1, a2


def potential_from_coefficients(R: JetFn, grid) -> JetFn:
    """Invert the coefficient map: the potential (a0, a1, a2) of a cubic
    picture, after checking c3 > 0 on the working grid.

    The map is overdetermined -- four cubic coefficients against three
    potential ones -- so c0 is not used; `c0_defect` measures how far it
    is from the value the potential implies.  c1, c2 and c3 are read as
    time functions: the fields of a `RiccatiSpec`, views of a derived one.
    """
    for t in map(float, grid):
        _positive_c3(t, R.c3.eval(t))
    return _PotentialOfCubic(R)


def c0_defect(R: JetFn, P: JetFn, grid) -> float:
    """Consistency defect of a cubic picture and a potential:
    sup over the grid of |c0 - a0' - a0 a1 / 2|."""
    worst = 0.0
    for t in map(float, grid):
        a0, a1, _ = P.jets(t, 1)
        worst = max(worst, abs(R.c0.eval(t) - a0.deriv(1) - 0.5 * a0.value * a1.value))
    return worst


def drag_defect(R: JetFn, grid):
    """Drag-pair defect of a cubic picture: sup over the grid of
    (|f1 - 3 sqrt(c3)|, |f0 - c2/sqrt(c3) + c3'/(2 c3)|)."""
    rows = []
    for t in map(float, grid):
        _, _, c2, c3, f0, f1 = R.jets(t, 0)
        root, drag = _drag(c2, c3)
        rows.append((abs(f1.value - 3.0 * root.value), abs(f0.value - drag.value)))
    return tuple(map(max, zip(*rows)))


def riccati2_rhs(R: JetFn, t: float, s: LagrangianPoint):
    """First-order form of the cubic equation: d(x, v)/dt."""
    x, v = s
    c0, c1, c2, c3, f0, f1 = R.eval(t)
    return (v, -(f0 + f1 * x) * v - (c0 + x * (c1 + x * (c2 + x * c3))))


def hamilton_rhs(P: JetFn, t: float, s: PhasePoint):
    """d(x, p)/dt on the half-plane O."""
    x, p = s
    r = _momentum_root(p)
    U, dU_dx = eval_U(P, t, x)
    return (1.0 / r - U, p * dU_dx)


def hamiltonian(P: JetFn, t: float, s: PhasePoint) -> float:
    """h(t, x, p) = -2 sqrt(-p) - p U(t, x)."""
    x, p = s
    r = _momentum_root(p)
    U, _ = eval_U(P, t, x)
    return -2.0 * r - p * U


def legendre_forward(P: JetFn, t: float, s: LagrangianPoint) -> PhasePoint:
    """(x, v) -> (x, -1/(v+U)^2); defined on the branch v + U > 0."""
    x, v = s
    U, _ = eval_U(P, t, x)
    w = v + U
    if not w > 0.0:
        raise DomainError(f"Legendre transform needs v + U > 0, got v + U = {w}")
    return PhasePoint(x, -1.0 / (w * w))


def legendre_inverse(P: JetFn, t: float, s: PhasePoint) -> LagrangianPoint:
    """(x, p) -> (x, 1/sqrt(-p) - U); inverse of legendre_forward on O."""
    x, p = s
    r = _momentum_root(p)
    U, _ = eval_U(P, t, x)
    return LagrangianPoint(x, 1.0 / r - U)


def hamiltonian_field(P: JetFn):
    """RHS over raw (x, p) pairs, for the integrator."""
    return partial(hamilton_rhs, P)


def riccati2_field(R: JetFn):
    """RHS over raw (x, v) pairs, for the integrator."""
    return partial(riccati2_rhs, R)
