"""Independent oracle for the coefficient map: sympy re-derives it.

The cubic equation is re-derived from the Lagrangian L = 1/(v + U) with
U = a0(t) + a1(t) x + a2(t) x^2 for undefined functions a_i(t), without
reading the package's formulas.  Random potentials are then substituted
and the symbolic coefficients and their time derivatives are evaluated
at 40 digits, against the package's jet maps in both directions.
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

