"""Independent oracle for the coefficient map: sympy re-derives it.

The cubic equation is re-derived from the Lagrangian L = 1/(v + U) with
U = a0(t) + a1(t) x + a2(t) x^2 for undefined functions a_i(t), without
reading the package's formulas.  Random potentials are then substituted
and the symbolic coefficients and their time derivatives are evaluated
at 40 digits, against the package's jet maps in both directions.

The superposition rule is checked the same way: sympy proves, over
symbols x_i and s_i = sqrt(-p_i) > 0, that the chart (u, s) = (x s, s)
the package applies the rule in gives the paper's (x, p) formulas.  It
also proves that the same chart carries the package's Hamiltonian field
to the affine-linear field `solve_hamiltonian` integrates.

The Taylor-jet arithmetic under both maps is checked on its own: jet
products, quotients, square roots and derivatives of random time functions
against the Taylor coefficients sympy differentiates out of F G, F / G,
sqrt(G) and F'.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati_lie import model
from riccati_lie.model import coefficients_from_potential, potential_from_coefficients
from riccati_lie.suites import random_potential
from riccati_lie.timefn import Cos, Exp, Jet, Poly, Sin, TimeFn

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


class SymbolicPotential:
    """A potential whose coefficients at any time are the symbols a0, a1, a2."""

    a = sympy.symbols("a0:3", real=True)

    def eval(self, time, order=0):
        return self.a


def test_hamiltonian_field_is_affine_in_the_chart(monkeypatch):
    # the push-forward of hamilton_rhs through (x, p) -> (x sqrt(-p), sqrt(-p)),
    # at the point with chart coordinates (u, sigma)
    u, time = sympy.symbols("u t", real=True)
    sigma = sympy.symbols("sigma", positive=True)
    X, P = sympy.symbols("X P", real=True)
    # the package's sqrt(-p) is a float root behind a sign check; sympy's takes symbols
    monkeypatch.setattr(model, "_momentum_root", lambda p: sympy.sqrt(-p))
    dx, dp = model.hamilton_rhs(SymbolicPotential(), time, (u / sigma, -sigma**2))
    to_chart = sympy.Matrix([X * sympy.sqrt(-P), sympy.sqrt(-P)])
    pushed = to_chart.jacobian([X, P]).subs({X: u / sigma, P: -sigma**2}) * sympy.Matrix([dx, dp])
    affine = sympy.Matrix(model.affine_rhs(SymbolicPotential(), time, (u, sigma)))
    assert sympy.simplify(pushed - affine) == sympy.zeros(2, 1)
    # u' = 1 - a0 sigma - (a1/2) u and sigma' = a2 u + (a1/2) sigma, as the model docstring states
    a0, a1, a2 = SymbolicPotential.a
    assert sympy.simplify(affine - sympy.Matrix([1 - a0 * sigma - a1 * u / 2, a2 * u + a1 * sigma / 2])) \
        == sympy.zeros(2, 1)


# --- Taylor jets ------------------------------------------------------------

JET_ORDER = 4  # highest jet order drawn
JET_BOUND = 1e-12  # relative to the largest Taylor coefficient of the result, or 1

# one term of each kind, their numbers as symbols: the time functions drawn below
NUMBERS = sympy.symbols("c0:4 A_s w_s phi_s A_c w_c phi_c A_e k_e")
GENERIC = (sum(c * t**k for k, c in enumerate(NUMBERS[:4]))
           + NUMBERS[4] * sympy.sin(NUMBERS[5] * t + NUMBERS[6])
           + NUMBERS[7] * sympy.cos(NUMBERS[8] * t + NUMBERS[9])
           + NUMBERS[10] * sympy.exp(NUMBERS[11] * t))
# d^j GENERIC / dt^j for j = 0 .. JET_ORDER + 1, as one mpmath function of (t, numbers)
GENERIC_DERIVATIVES = sympy.lambdify([t, NUMBERS], [GENERIC.diff(t, j) for j in range(JET_ORDER + 2)],
                                     "mpmath")

F, G = sympy.Function("F")(t), sympy.Function("G")(t)
JET_OPS = {"mul": F * G, "div": F / G, "sqrt": sympy.sqrt(G), "derivative": F.diff(t)}


@functools.lru_cache(maxsize=None)
def taylor_rule(op, n):
    """The Taylor coefficients 0..n of JET_OPS[op] at a point, as an mpmath
    function of the derivative lists (F, F', ...) and (G, G', ...) there."""
    fs, gs = sympy.symbols(f"f0:{n + 2}"), sympy.symbols(f"g0:{n + 2}")
    names = {F: fs[0], G: gs[0]}
    for j in range(1, n + 2):
        names[F.diff(t, j)], names[G.diff(t, j)] = fs[j], gs[j]
    coeffs = [(JET_OPS[op].diff(t, k) / sympy.factorial(k)).xreplace(names) for k in range(n + 1)]
    return sympy.lambdify([fs, gs], coeffs, "mpmath")


def generic_timefn(numbers):
    return TimeFn((Poly(numbers[:4]), Sin(*numbers[4:7]), Cos(*numbers[7:10]), Exp(*numbers[10:])))


_amp, _freq, _phase = st.floats(-2.0, 2.0), st.floats(-3.0, 3.0), st.floats(-math.pi, math.pi)
_numbers = st.tuples(_amp, _amp, _amp, _amp, _amp, _freq, _phase, _amp, _freq, _phase, _amp,
                     st.floats(-1.5, 1.5))


@settings(max_examples=200)
@given(_numbers, _numbers, st.floats(-1.5, 1.5), st.integers(0, JET_ORDER))
def test_jet_arithmetic_matches_sympy_taylor_coefficients(f_numbers, g_numbers, t0, n):
    # shift g's constant so that g(t0) >= 0.5: it divides, and it has a root
    g_numbers = (g_numbers[0] + 0.5 + abs(generic_timefn(g_numbers).eval(t0)),) + g_numbers[1:]
    f_jet, g_jet = Jet.of(generic_timefn(f_numbers), t0, n), Jet.of(generic_timefn(g_numbers), t0, n)
    results = {"mul": f_jet * g_jet, "div": f_jet / g_jet, "sqrt": g_jet.sqrt(),
               "derivative": f_jet.derivative()}
    with mpmath.workdps(40):
        f_derivs, g_derivs = (GENERIC_DERIVATIVES(mpmath.mpf(t0), [mpmath.mpf(v) for v in numbers])
                              for numbers in (f_numbers, g_numbers))
        for op, jet in results.items():
            m = len(jet.coeffs) - 1
            if m < 0:
                continue  # the derivative of an order-0 jet is empty
            want = [float(w) for w in taylor_rule(op, m)(f_derivs[:m + 2], g_derivs[:m + 2])]
            err = max(abs(got - w) for got, w in zip(jet.coeffs, want))
            assert err <= JET_BOUND * max(1.0, *map(abs, want)), (op, jet.coeffs, want)
    # a divisor that vanishes at the point has no quotient jet
    for zero in (0.0, -0.0):
        with pytest.raises(ZeroDivisionError, match="vanishing at the point"):
            f_jet / Jet((zero, *g_jet.coeffs[1:]))
