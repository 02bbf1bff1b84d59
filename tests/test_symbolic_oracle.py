"""Independent oracle for the coefficient map: sympy re-derives it.

The cubic equation is re-derived from the Lagrangian L = 1/(v + U) with
U = a0(t) + a1(t) x + a2(t) x^2 for undefined functions a_i(t), without
reading the package's formulas.  Random potentials are then substituted
and the symbolic coefficients and their time derivatives are evaluated
at 40 digits, against the package's jet maps in both directions.

The superposition rule is checked the same way: sympy proves, over
symbols x_i and s_i = sqrt(-p_i) > 0, that the chart (u, s) = (x s, s)
the package applies the rule in gives the paper's (x, p) formulas.
"""

import numpy as np
import pytest

from riccati_lie.model import coefficients_from_potential, potential_from_coefficients
from riccati_lie.suites import random_potential
from riccati_lie.timefn import Cos, Exp, Poly, Sin

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

t, x, v, acc = sympy.symbols("t x v acc")
A = [sympy.Function(f"a{i}")(t) for i in range(3)]
ORDERS = (0, 1, 2)
TIMES = (0.0, 0.37, 1.1, 1.9)
BOUND = 1e-12


@pytest.fixture(scope="module")
def cubic_coefficients():
    """(c0, c1, c2, c3, f0, f1) in terms of the a_i(t), from Euler-Lagrange."""
    U = A[0] + A[1] * x + A[2] * x**2
    L = 1 / (v + U)

    def total_dt(f):  # along a path with x' = v, v' = acc
        return sympy.diff(f, t) + v * sympy.diff(f, x) + acc * sympy.diff(f, v)

    euler_lagrange = total_dt(sympy.diff(L, v)) - sympy.diff(L, x)
    (xdd,) = sympy.solve(euler_lagrange, acc)
    # x'' = -(f0 + f1 x) v - (c0 + c1 x + c2 x^2 + c3 x^3)
    poly = sympy.Poly(sympy.expand(-xdd), x, v)
    assert set(poly.monoms()) <= {(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1)}
    c = [poly.coeff_monomial(x**k) for k in range(4)]
    return (*c, poly.coeff_monomial(v), poly.coeff_monomial(x * v))


def symbolic(f):
    """A TimeFn as an exact sympy expression in t."""
    def exact(value):
        return sympy.Rational(float(value))

    out = 0
    for term in f.terms:
        if isinstance(term, Poly):
            out += sum(exact(c) * t**k for k, c in enumerate(term.coeffs))
        elif isinstance(term, (Sin, Cos)):
            trig = sympy.sin if isinstance(term, Sin) else sympy.cos
            out += exact(term.amp) * trig(exact(term.omega) * t + exact(term.phase))
        elif isinstance(term, Exp):
            out += exact(term.amp) * sympy.exp(exact(term.rate) * t)
    return out


def reference(exprs):
    """40-digit values of d^k expr / dt^k, indexed [k][i](time)."""
    fns = [sympy.lambdify(t, [sympy.diff(e, t, k) for e in exprs], "mpmath") for k in ORDERS]

    def at(k, time):
        with mpmath.workdps(40):
            return [float(val) for val in fns[k](mpmath.mpf(time))]

    return at


def assert_close(got, want, what):
    for g, w in zip(got, want):
        assert abs(g - w) <= BOUND * max(1.0, abs(w)), f"{what}: got {g!r}, want {w!r}"


@pytest.mark.parametrize("seed", range(4))
def test_coefficient_map_matches_symbolic_derivation(cubic_coefficients, seed):
    P = random_potential(np.random.default_rng(seed))
    a = [symbolic(f) for f in (P.a0, P.a1, P.a2)]
    exprs = [sympy.expand(e.subs(dict(zip(A, a))).doit()) for e in cubic_coefficients]
    want = reference(exprs)
    R = coefficients_from_potential(P)
    for k in ORDERS:
        for time in TIMES:
            assert_close(R.eval(time, k), want(k, time), f"cubic order {k} at t={time}")


@pytest.mark.parametrize("seed", range(4))
def test_inverse_map_recovers_potential(seed):
    P = random_potential(np.random.default_rng(seed))
    want = reference([symbolic(f) for f in (P.a0, P.a1, P.a2)])
    back = potential_from_coefficients(coefficients_from_potential(P), np.linspace(0.0, 2.0, 21))
    for k in ORDERS:
        for time in TIMES:
            assert_close(back.eval(time, k), want(k, time), f"potential order {k} at t={time}")



XS = sympy.symbols("x0:4", real=True)
SS = sympy.symbols("s0:4", positive=True)
K1, K2 = sympy.symbols("k1 k2", real=True)
F0 = sympy.symbols("F0", nonzero=True)


def chart(i):
    """Copy i in the chart (u, sigma) = (x sqrt(-p), sqrt(-p))."""
    return sympy.Matrix([XS[i] * SS[i], SS[i]])


def det(a, b, c):
    """det(b - a, c - a): twice the signed area of the triangle abc."""
    return sympy.Matrix.hstack(b - a, c - a).det()


def paper_rule():
    """The paper's (x0, p0) and the denominator of its x0."""
    (x1, x2, x3), (s1, s2, s3) = XS[1:], SS[1:]
    num = K1 * (s1 * x1 - s3 * x3) + K2 * (s2 * x2 - s1 * x1) - F0 * x1 * s1
    den = K1 * (s1 - s3) + K2 * (s2 - s1) - s1 * F0
    bracket = (K1 / F0) * (s3 - s1) + (K2 / F0) * (s1 - s2) + s1
    return num / den, -bracket**2, den


def affine_rule():
    """xi0 = xi1 + (k1/F0)(xi3 - xi1) - (k2/F0)(xi2 - xi1), as the package applies it."""
    xi1, xi2, xi3 = chart(1), chart(2), chart(3)
    return xi1 + (K1 / F0) * (xi3 - xi1) - (K2 / F0) * (xi2 - xi1)


def test_cyclic_sum_is_the_chart_determinant():
    (x1, x2, x3), (s1, s2, s3) = XS[1:], SS[1:]
    cyclic = (x1 - x2) * s1 * s2 + (x2 - x3) * s2 * s3 + (x3 - x1) * s3 * s1
    assert sympy.expand(cyclic - det(chart(1), chart(2), chart(3))) == 0


def test_x0_denominator_is_minus_F0_sigma0():
    _, _, den = paper_rule()
    sigma0 = affine_rule()[1]
    assert sympy.simplify(den + F0 * sigma0) == 0


def test_affine_rule_is_the_paper_rule():
    x0, p0, _ = paper_rule()
    u0, sigma0 = affine_rule()
    assert sympy.simplify(u0 / sigma0 - x0) == 0
    assert sympy.simplify(-sigma0**2 - p0) == 0
    # and it solves F1 = k1, F2 = k2 when F0 is the determinant of copies 1..3
    xi0 = affine_rule().subs(F0, det(chart(1), chart(2), chart(3)))
    assert sympy.simplify(det(xi0, chart(1), chart(2)) - K1) == 0
    assert sympy.simplify(det(xi0, chart(1), chart(3)) - K2) == 0
