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

`eval(t, k)` returns a picture's k-th derivatives: (a0, a1, a2) of a potential,
(c0, c1, c2, c3, f0, f1) of a cubic picture.  A `PotentialSpec` is its three
time functions, the Lie system's coefficients; a derived picture is a `JetFn`,
its map stated once over Taylor jets, which its reads trace into compiled
source.  Each picture states its field once, as `field` lines: a potential's
the chart field below, a cubic picture's the first-order form of the equation.
Its `rhs`, which the integrator runs, compiles them after its order-0 read;
`affine_rhs` and `riccati2_rhs` run them over any picture's `eval`.

On the branch v + U > 0 the Legendre transform p = -1/(v + U)**2 is a
bijection onto the half-plane O = {p < 0}, where the dynamics becomes the
Hamiltonian system of h = -2 sqrt(-p) - p U:

    dx/dt = 1/sqrt(-p) - U(t, x),      dp/dt = p (a1 + 2 a2 x).

`hamilton_rhs` is that system as the package defines it.  In the chart
(u, sigma) = (x sqrt(-p), sqrt(-p)) of O it is affine-linear,

    du/dt = 1 - a0 sigma - (a1/2) u,      dsigma/dt = a2 u + (a1/2) sigma,

with no square root and no division, so `solve_hamiltonian` integrates it
there without a domain guard and proves afterwards, on the dense output,
that the solution stayed inside O.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from itertools import chain
from typing import NamedTuple

from .errors import DomainError, GuardViolation, NumericError, RiccatiLieError
from .integrator import GUARD_P_MAX, GUARD_T_RESOLUTION, Trajectory, integrate, sample_at
from .timefn import Jet, JetFn, Picture, uncompiled_field

__all__ = [
    "PhasePoint",
    "LagrangianPoint",
    "PotentialSpec",
    "RiccatiSpec",
    "eval_U",
    "coefficients_from_potential",
    "potential_from_coefficients",
    "map_defect",
    "riccati2_rhs",
    "hamilton_rhs",
    "affine_rhs",
    "hamiltonian",
    "legendre_forward",
    "legendre_inverse",
    "hamiltonian_field",
    "solve_hamiltonian",
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
class PotentialSpec(Picture):
    """Quadratic potential U = a0 + a1 x + a2 x^2 with time-function coefficients.

    Each field is any object with an exact `.eval(t, order)`; `eval(t, k)`
    returns their k-th derivatives (a0, a1, a2): at order 0 through the
    identity `template`, at any higher order through each field's own `eval`.
    """

    a0: object
    a1: object
    a2: object

    names = ("a0", "a1", "a2")
    template = (("a0", 0, 0), ("a1", 1, 0), ("a2", 2, 0), "a0, a1, a2")  # order 0's lines: its fields' reads
    # the chart field d(u, sigma)/dt of `affine_rhs`, with y = (u, sigma)
    field = ("u, sigma = y", "half = 0.5 * a1", "1.0 - a0 * sigma - half * u, a2 * u + half * sigma")

    def _lines(self, order):
        return (self.a0, self.a1, self.a2), self.template

    def eval(self, t, order=0):
        if order:
            return self.a0.eval(t, order), self.a1.eval(t, order), self.a2.eval(t, order)
        return self.inline(t) or self.floats(t)


_WINDOW_T_RESOLUTION = 1e-9  # narrowest interval the window check refines to, relative to the window


def _positive(name, t, value: float) -> None:
    if type(value) is not float or not value > 0.0:  # traced, the test is a line of the read
        Jet.require(value > 0.0, lambda: DomainError(f"{name}(t) must be positive on the working interval; "
                                                     f"{name}({t})={value}"))


def _positive_on_window(name, f, grid) -> None:
    """DomainError unless the coefficient f, called name in messages, is
    positive on the whole window [grid[0], grid[-1]].

    With L >= |f'| on a segment [a, b], taken from the terms' closed-form
    derivatives on that segment, f > 0 on [a, b] whenever f(a) + f(b) >
    L (b - a).  That test is tried on the whole window first, from f at its
    two ends: where it holds, no grid node is read.  Where it fails, or a
    read or the bound raises, f is checked at every grid node in turn, and
    a segment between two nodes that the test does not prove is bisected,
    so only the intervals near a dip are refined, a steep part of the
    window does not tighten the test elsewhere, and an error names the
    first node or point, from the left, where f is not positive or not
    finite.  An f without a `slope_bound` (a `Coefficient` view of a
    derived picture) is checked at the nodes only.
    """
    if hasattr(f, "slope_bound"):
        a, b = float(grid[0]), float(grid[-1])
        try:
            fa, fb = f.eval(a), f.eval(b)
            if type(fa) is type(fb) is float and fa > 0.0 and fb > 0.0 and fa + fb > f.slope_bound(a, b) * (b - a):
                return
        except (ArithmeticError, RiccatiLieError):
            pass
    ts = [float(t) for t in grid]
    values = [f.eval(t) for t in ts]
    for t, value in zip(ts, values):
        _positive(name, t, value)
    if not hasattr(f, "slope_bound"):
        return
    slope = f.slope_bound(ts[0], ts[-1])
    finest = _WINDOW_T_RESOLUTION * (ts[-1] - ts[0])
    # segments (a, f(a), b, f(b)), popped left to right
    todo = list(zip(ts, values, ts[1:], values[1:]))[::-1]
    while todo:
        a, fa, b, fb = todo.pop()
        if fa + fb > slope * (b - a) or fa + fb > f.slope_bound(a, b) * (b - a):
            continue
        if b - a <= finest:
            raise DomainError(f"{name}(t) must be positive on the working interval; "
                              f"{name} is not bounded away from zero near t={a}")
        m = 0.5 * (a + b)
        fm = f.eval(m)
        _positive(name, m, fm)
        todo += [(m, fm, b, fb), (a, fa, m, fm)]


def _drag(c2, c3, dc3, root):
    """f0 = c2/sqrt(c3) - c3'/(2 c3) from c2, c3, c3' and root = sqrt(c3), as
    floats or as jets (c3 one order longer than c2); the drag pair is (f0, 3 root)."""
    return c2 / root - dc3 / (2.0 * c3)


@dataclass(frozen=True)
class RiccatiSpec(JetFn):
    """The four cubic coefficients; `eval(t, k)` returns the k-th derivatives
    (c0, c1, c2, c3, f0, f1), the drag pair derived from c2 and c3."""

    c0: object
    c1: object
    c2: object
    c3: object

    names = ("c0", "c1", "c2", "c3", "f0", "f1")
    # the first-order field d(x, v)/dt of `riccati2_rhs`, with y = (x, v)
    field = ("x, v = y", "v, -(f0 + f1 * x) * v - (c0 + x * (c1 + x * (c2 + x * c3)))")

    def jets(self, t, n):
        c3 = Jet.of(self.c3, t, n + 1)
        c0, c1, c2 = Jet.of(self.c0, t, n), Jet.of(self.c1, t, n), Jet.of(self.c2, t, n)
        _positive("c3", t, c3.coeffs[0])
        root = c3.sqrt()
        return c0, c1, c2, c3, _drag(c2, c3, c3.derivative(), root), 3.0 * root


def _momentum_root(p) -> float:
    """sqrt(-p) on the half-plane O; DomainError for p >= 0 (or NaN)."""
    if not p < 0:
        raise DomainError(f"momentum must be negative (half-plane O), got p={p}")
    return math.sqrt(-p)


def _to_affine(x, p):
    """(u, sigma) = (x sqrt(-p), sqrt(-p)) of numbers or of arrays of one shape,
    the chart of O in which the group R^2 x| SL(2, R) acts affinely and the
    superposition rule is affine; DomainError names the first p >= 0 (or NaN).
    Only arrays, whose callers hold numpy already, import it."""
    if isinstance(p, (int, float)):
        sigma = _momentum_root(p)
    else:
        import numpy as np

        if not (p < 0).all():
            _momentum_root(float(p.flat[np.argmin(p < 0)]))
        sigma = np.sqrt(-p)
    return x * sigma, sigma


def _from_affine(u, sigma):
    """(x, p) = (u/sigma, -sigma^2): the inverse of `_to_affine` on sigma > 0."""
    return u / sigma, -sigma * sigma


def eval_U(P: PotentialSpec | JetFn, t: float, x: float):
    """Return (U, dU/dx) at (t, x)."""
    a0, a1, a2 = P.eval(t)
    return a0 + x * (a1 + x * a2), a1 + 2.0 * a2 * x


@dataclass(frozen=True)
class _CubicOfPotential(JetFn):
    a0: object
    a1: object
    a2: object

    names, field = RiccatiSpec.names, RiccatiSpec.field

    def jets(self, t, n):
        a0, a1, a2 = [Jet.of(a, t, n + 1) for a in (self.a0, self.a1, self.a2)]
        return (
            a0.derivative() + 0.5 * (a0 * a1),
            a1.derivative() + 0.5 * (a1 * a1) + a0 * a2,
            a2.derivative() + 1.5 * (a1 * a2),
            a2 * a2,
            1.5 * a1,
            3.0 * a2,
        )


def coefficients_from_potential(P: PotentialSpec | JetFn, grid=None) -> JetFn:
    """Map a potential to the cubic picture (c0, c1, c2, c3, f0, f1).

    Every output is exact, backed by the inputs' closed-form derivatives.
    When a validation grid is supplied, a2 > 0 is checked on the whole
    window it spans, by the same rule as c3 > 0 in
    `potential_from_coefficients` (the correspondence uses sqrt(c3) = a2).
    """
    if grid is not None:
        _positive_on_window("a2", P.a2, grid)
    return _CubicOfPotential(P.a0, P.a1, P.a2)


@dataclass(frozen=True)
class _PotentialOfCubic(JetFn):
    c1: object
    c2: object
    c3: object

    names, field = PotentialSpec.names, PotentialSpec.field

    def jets(self, t, n):
        c3, c2, c1 = Jet.of(self.c3, t, n + 2), Jet.of(self.c2, t, n + 1), Jet.of(self.c1, t, n)
        a2 = c3.sqrt()
        a1 = (2.0 / 3.0) * _drag(c2, c3, c3.derivative(), a2)
        return (c1 - a1.derivative() - 0.5 * (a1 * a1)) / a2, a1, a2


def potential_from_coefficients(R: JetFn, grid) -> JetFn:
    """Invert the coefficient map: the potential (a0, a1, a2) of a cubic
    picture, after checking c3 > 0 on the whole window of the working grid.

    The three potential coefficients need only c1, c2 and c3 of the four;
    `map_defect` compares c0 with the c0 the map gives the result.  They are
    read as time functions: the fields of a `RiccatiSpec`, views of a derived one.
    """
    _positive_on_window("c3", R.c3, grid)
    return _PotentialOfCubic(R.c1, R.c2, R.c3)


def map_defect(R: JetFn, R2: JetFn, grid, names):
    """Sup over the grid of |R2 - R| for each named coefficient of two cubic
    pictures, R2 being R carried through the maps: the cubic picture of R's
    potential for c0, or `RiccatiSpec(R.c0, R.c1, R.c2, R.c3)` for the drag
    pair (f1, f0).  Each is read once per grid time, R2 first."""
    indices = [R.names.index(name) for name in names]
    reads = ((R2.eval(t), R.eval(t)) for t in map(float, grid))
    rows = [[abs(got[i] - want[i]) for i in indices] for got, want in reads]
    return tuple(map(max, zip(*rows)))


_CUBIC_FIELD = uncompiled_field(RiccatiSpec.names, RiccatiSpec.field)
_CHART_FIELD = uncompiled_field(PotentialSpec.names, PotentialSpec.field)


def riccati2_rhs(R: JetFn, t: float, s: LagrangianPoint):
    """First-order form of the cubic equation: d(x, v)/dt, the lines of `RiccatiSpec.field` over `R.eval(t)`;
    a cubic picture's compiled `rhs` runs them over its order-0 read."""
    return _CUBIC_FIELD(t, s, R.eval)


def hamilton_rhs(P: PotentialSpec | JetFn, t: float, s: PhasePoint):
    """d(x, p)/dt on the half-plane O."""
    x, p = s
    r = _momentum_root(p)
    U, dU_dx = eval_U(P, t, x)
    return (1.0 / r - U, p * dU_dx)


def affine_rhs(P: PotentialSpec | JetFn, t: float, s):
    """d(u, sigma)/dt: `hamilton_rhs` in the chart of `_to_affine`, defined on all of R^2; the lines of
    `PotentialSpec.field` over `P.eval(t)`, which a potential's compiled `rhs` runs over its order-0 read."""
    return _CHART_FIELD(t, s, P.eval)


def hamiltonian(P: PotentialSpec | JetFn, t: float, s: PhasePoint) -> float:
    """h(t, x, p) = -2 sqrt(-p) - p U(t, x)."""
    x, p = s
    r = _momentum_root(p)
    U, _ = eval_U(P, t, x)
    return -2.0 * r - p * U


def legendre_forward(P: PotentialSpec | JetFn, t: float, s: LagrangianPoint) -> PhasePoint:
    """(x, v) -> (x, -1/(v+U)^2); defined on the branch v + U > 0."""
    x, v = s
    U, _ = eval_U(P, t, x)
    w = v + U
    if not w > 0.0:
        raise DomainError(f"Legendre transform needs v + U > 0, got v + U = {w}")
    return PhasePoint(x, -1.0 / (w * w))


def legendre_inverse(P: PotentialSpec | JetFn, t: float, s: PhasePoint) -> LagrangianPoint:
    """(x, p) -> (x, 1/sqrt(-p) - U); inverse of legendre_forward on O."""
    x, p = s
    r = _momentum_root(p)
    U, _ = eval_U(P, t, x)
    return LagrangianPoint(x, 1.0 / r - U)


def hamiltonian_field(P: PotentialSpec | JetFn):
    """RHS over raw (x, p) pairs, for a guarded `integrate` in (x, p), which
    `bench/run.py`'s superposition workload runs and no command does."""
    return partial(hamilton_rhs, P)


# The chart solve's error control runs at a sixteenth of the caller's tol.
# With DP5, the Dormand-Prince 5(4) pair DOP853 replaced, it ran at a
# quarter: at tol itself it was less accurate than the guarded (x, p) solve
# it replaced (F0 drift over the simulate_hamiltonian bench configs, seeds
# 21-23, 9.69 -> 9.19, 9.75 -> 9.62 and 9.43 -> 9.43 correct digits), and at
# tol/4 it gained (9.69 -> 9.73, 9.75 -> 10.16, 9.43 -> 10.12).  DOP853 at
# tol/4 is no more accurate than DP5 there: verify_all err_digits over the
# 128 configs of seeds 21-23, DP5 -> DOP853, 9.84 -> 9.89, 9.79 -> 9.79 and
# 9.89 -> 9.81.  At tol/16 DOP853 reads 10.33, 10.27 and 10.35, while RHS
# calls per op still fall 2,673 -> 1,503, 2,622 -> 1,509 and 2,547 -> 1,473
# (in one process, on `bench/gen.py` inputs).
_CHART_TOL_FACTOR = 0.0625
_SIGMA_FLOOR = math.sqrt(-GUARD_P_MAX)  # sigma >= sqrt(1e-9) is p <= -1e-9


@cache
def _bernstein_rows(n):
    """The rows of the matrix taking the power-basis coefficients of a
    degree-n polynomial to its Bernstein ones, without their zeros."""
    return tuple(tuple(math.comb(j, k) / math.comb(n, k) for k in range(j + 1)) for j in range(n + 1))


def _bernstein(power):
    """The Bernstein coefficients of the polynomial with power-basis
    coefficients `power` in s on [0, 1], which bound it from below by their
    least and equal it at s = 0 and s = 1."""
    return [sum([w * c for w, c in zip(row, power)]) for row in _bernstein_rows(len(power) - 1)]


def _halves(coef):
    """Bernstein coefficients of a polynomial's halves [0, 1/2] and [1/2, 1]
    of its interval (de Casteljau at 1/2)."""
    left, right = [coef[0]], [coef[-1]]
    while len(coef) > 1:
        coef = [0.5 * (c + d) for c, d in zip(coef, coef[1:])]
        left.append(coef[0])
        right.append(coef[-1])
    return left, right[::-1]


def _stays_in_O(chart: Trajectory) -> None:
    """GuardViolation unless sigma >= sqrt(1e-9) on the whole dense output of
    a chart trajectory, between its nodes too.

    Each step's sigma is a polynomial in u on [0, 1], at least its value at
    u = 0 less the magnitudes of its other power-basis coefficients, which
    proves almost every step in a few float operations.  A step that bound
    does not prove is tried by the least of its Bernstein coefficients, which
    bounds it from below too, and then halved, left half first, until each
    piece is proved or the first piece that is not has shrunk to
    GUARD_T_RESOLUTION; its start is the exit time reported.  A NaN
    coefficient proves nothing.
    """
    ts, coeffs = chart.ts, chart.coeffs
    width = len(coeffs) // (len(ts) - 1)
    for i in range(len(ts) - 1):
        power = coeffs[i * width + 1:(i + 1) * width:2]  # sigma's coefficients of u**0 up to u**d
        if power[0] - sum(map(abs, power[1:])) >= _SIGMA_FLOOR:
            continue
        todo = [(ts[i], ts[i + 1], _bernstein(power))]
        while todo:
            a, b, coef = todo.pop()
            if all(c >= _SIGMA_FLOOR for c in coef):
                continue
            if b - a <= GUARD_T_RESOLUTION * max(1.0, abs(a)):
                raise GuardViolation(f"domain guard p <= {GUARD_P_MAX} violated just past t={a}",
                                     last_valid_t=a)
            m = 0.5 * (a + b)
            left, right = _halves(coef)
            todo += [(m, b, right), (a, m, left)]


def solve_hamiltonian(P: PotentialSpec | JetFn, s0, grid, tol) -> Trajectory:
    """The Hamiltonian solution of P from s0 = (x0, p0) at grid[0], as (x, p)
    rows at the grid times.

    s0 must satisfy p0 <= -1e-9 (DomainError otherwise).  It is converted to
    (u, sigma) once; DOP853 integrates the affine chart field, P's compiled
    `rhs`, up to grid[-1] with no guard, at _CHART_TOL_FACTOR times tol;
    `_stays_in_O` proves p <= -1e-9 on the whole solution, between the grid
    times too, or raises GuardViolation at the first exit; and the chart's
    dense output at the grid converts back to (x, p), or NumericError names
    the first grid time where it overflows.  The result carries no dense
    output: its ts is the grid, and its stats count the chart integration's
    steps.
    """
    x0, p0 = float(s0[0]), float(s0[1])
    if not p0 <= GUARD_P_MAX:
        raise DomainError(f"initial state {[x0, p0]} violates the domain guard p <= {GUARD_P_MAX}")
    grid = list(map(float, grid))
    chart = integrate(P.rhs, (grid[0], _to_affine(x0, p0)), grid[-1], _CHART_TOL_FACTOR * tol)
    _stays_in_O(chart)
    # sigma >= sqrt(1e-9) holds on the polynomials; a sample that rounds to 0 is reported as an overflow
    states = [_from_affine(u, sigma) if sigma else (math.nan, -0.0) for u, sigma in sample_at(chart, grid)]
    if not all(map(math.isfinite, chain.from_iterable(states))):
        t = next(t for t, state in zip(grid, states) if not all(map(math.isfinite, state)))
        raise NumericError(f"the solution overflows as (x, p) at t={t}")
    return Trajectory(ts=grid, states=states, system="hamiltonian", stats=chart.stats)
