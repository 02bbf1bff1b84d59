"""Tests for the time-function layer: exact derivatives, grammar, jets."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riccati_lie.errors import DomainError, NumericError, RiccatiLieError, TimeFnSyntaxError
from riccati_lie.timefn import (
    Cos,
    Exp,
    Jet,
    JetFn,
    Poly,
    Sin,
    TimeFn,
    constant,
    parse_timefn,
    render_timefn,
)


def random_timefn(rng, scale=0.8):
    terms = [Poly(tuple(rng.uniform(-scale, scale, rng.integers(1, 4))))]
    if rng.uniform() < 0.7:
        terms.append(Sin(rng.uniform(-scale, scale), rng.uniform(0.3, 2.0), rng.uniform(0, 2 * math.pi)))
    if rng.uniform() < 0.5:
        terms.append(Cos(rng.uniform(-scale, scale), rng.uniform(0.3, 2.0), rng.uniform(0, 2 * math.pi)))
    if rng.uniform() < 0.5:
        terms.append(Exp(rng.uniform(-scale, scale), rng.uniform(-1.0, 1.0)))
    return TimeFn(tuple(terms))


# every finite double; the edges are also drawn on purpose
_EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
          1.7976931348623157e308, -1.7976931348623157e308)
_reals = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGES))
_terms = st.one_of(
    st.builds(lambda cs: Poly(tuple(cs)), st.lists(_reals, min_size=1, max_size=4)),
    st.builds(Sin, _reals, _reals, _reals),
    st.builds(Cos, _reals, _reals, _reals),
    st.builds(Exp, _reals, _reals),
)
_timefns = st.builds(lambda ts: TimeFn(tuple(ts)), st.lists(_terms, min_size=1, max_size=6))

# one and two terms, the sums that skip math.fsum, are drawn about half the time
_short_timefns = st.builds(lambda ts: TimeFn(tuple(ts)), st.lists(_terms, min_size=1, max_size=2))


# TimeFn.eval written as the plain math.fsum of the per-term formulas
_CYCLE = (math.sin, math.cos, lambda x: -math.sin(x), lambda x: -math.cos(x))


def _ref_term(term, t, n):
    if isinstance(term, Poly):
        acc = 0.0
        for k in range(n, len(term.coeffs)):
            acc += term.coeffs[k] * math.perm(k, n) * t ** (k - n)
        return acc
    if isinstance(term, Exp):
        return term.amp * term.rate**n * math.exp(term.rate * t)
    value = _CYCLE[(n + isinstance(term, Cos)) % 4](term.omega * t + term.phase)  # before omega**n can overflow
    return term.amp * term.omega**n * value


def _ref_eval(f, t, n):
    """A value that is not finite, on the way or in the sum, is a NumericError."""
    try:
        value = math.fsum([_ref_term(term, t, n) for term in f.terms])
    except (OverflowError, ValueError):
        raise NumericError from None
    if not math.isfinite(value):
        raise NumericError
    return value


# jet coefficients: also subnormals and magnitudes whose squares or sums overflow
_jet_reals = st.one_of(_reals, st.sampled_from((1e-310, -1e-310, 1.0, -1.0, 1e154, -1e154, 1.4e154)))
_jets = st.lists(_jet_reals, min_size=1, max_size=4)


# The jet operations written as the plain math.fsum Cauchy sums, for every length
def _ref_mul(a, b):
    return [math.fsum([a[j] * b[k - j] for j in range(k + 1)]) for k in range(min(len(a), len(b)))]


def _ref_div(a, b):
    if b[0] == 0.0:
        raise ZeroDivisionError
    out = []
    for k in range(min(len(a), len(b))):
        out.append((a[k] - math.fsum([b[j] * out[k - j] for j in range(1, k + 1)])) / b[0])
    return out


def _ref_sqrt(a):
    if not a[0] > 0.0:
        raise DomainError(a[0])
    out = [math.sqrt(a[0])]
    for k in range(1, len(a)):
        out.append((a[k] - math.fsum([out[j] * out[k - j] for j in range(1, k)])) / (2.0 * out[0]))
    return out


def _ref_of(f, t, n):
    derivs = [float(f.eval(t, k)) for k in range(n, -1, -1)][::-1]  # read from n down, as documented
    return [d / math.factorial(k) for k, d in enumerate(derivs)]


def _bits(compute):
    """float.hex of each coefficient compute() returns (a Jet or a list), or
    the class of the error it raised."""
    try:
        result = compute()
    except (ArithmeticError, ValueError, RiccatiLieError) as exc:
        return type(exc)
    return [c.hex() for c in getattr(result, "coeffs", result)]


@dataclass(frozen=True)
class _Square(JetFn):
    """f and f^2 as a derived picture, so `square` is a `Coefficient` view."""

    f: object

    names = ("f", "square")

    def jets(self, t, n):
        j = Jet.of(self.f, t, n)
        return j, j * j


class TestEval:
    def test_poly_value_and_derivative(self):
        f = TimeFn((Poly((1.0, 2.0, 3.0)),))
        assert f.eval(2.0) == 17.0
        assert f.eval(2.0, 1) == 14.0

    def test_sin_at_origin(self):
        f = TimeFn((Sin(2.0, 3.0, 0.0),))
        assert f.eval(0.0) == 0.0
        assert f.eval(0.0, 1) == 6.0

    def test_poly_derivatives_vanish_past_degree(self):
        f = TimeFn((Poly((1.0, 2.0, 3.0)), Poly((4.0,))))
        for order in (3, 4, 7):
            assert f.eval(1.3, order) == 0.0

    def test_exp_any_order(self):
        f = TimeFn((Exp(2.0, -0.5),))
        for n in range(5):
            expected = 2.0 * (-0.5) ** n * math.exp(-0.5 * 1.7)
            assert f.eval(1.7, n) == pytest.approx(expected, rel=1e-15)

    def test_high_order_trig_cycles(self):
        f = TimeFn((Cos(1.5, 2.0, 0.3),))
        assert f.eval(0.7, 4) == pytest.approx(2.0**4 * f.eval(0.7), rel=1e-15)

    def test_trig_derivatives_exact_for_every_order(self):
        amp, omega, phase = 1.3, 2.1, 0.4
        sin_cycle = (math.sin, math.cos, lambda x: -math.sin(x), lambda x: -math.cos(x))
        cos_cycle = (math.cos, lambda x: -math.sin(x), lambda x: -math.cos(x), math.sin)
        for t in (-2.9, -0.6, 0.0, 0.37, 1.7, 3.0):
            for k in range(8):
                theta = omega * t + phase
                assert Sin(amp, omega, phase).eval(t, k) == amp * omega**k * sin_cycle[k % 4](theta)
                assert Cos(amp, omega, phase).eval(t, k) == amp * omega**k * cos_cycle[k % 4](theta)

    def test_poly_value_is_the_plain_power_sum(self):
        # order 0 skips perm(k, 0) = 1; the sum must keep every bit
        rng = np.random.default_rng(11)
        for _ in range(2000):
            coeffs = [float(c) for c in rng.uniform(-5.0, 5.0, rng.integers(1, 7))]
            coeffs[int(rng.integers(len(coeffs)))] = -0.0
            t = float(rng.choice([0.0, -0.0, rng.uniform(-3.0, 3.0), rng.uniform(-1e3, 1e3)]))
            expected = 0.0
            for k, c in enumerate(coeffs):
                expected += c * math.perm(k, 0) * t**k
            assert repr(Poly(tuple(coeffs)).eval(t, 0)) == repr(expected)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            constant(1.0).eval(0.0, -1)

    @pytest.mark.parametrize("text, order", [
        ("exp 1 800", 0),           # a term's value
        ("sin 1 1e200 0", 2),       # a term's derivative factor, omega**2
        ("poly 1e308; poly 1e308", 0),  # the sum of finite terms
        ("sin 1 1e308 1e308", 0),   # a sine argument
        ("poly 1e308 1e308; poly -1e308 -1e308", 0),  # a sum of inf and -inf
        ("poly 1e308 1e308", 0),    # one term's own sum
        ("sin 1e308 10 0", 1),      # one term's amp * omega
        ("cos 1e308 10 -10", 1),    # one term's amp * omega * -sin(0.0), inf * -0.0: NaN
    ])
    def test_overflow_is_a_numeric_error_naming_t(self, text, order):
        with pytest.raises(NumericError, match=r"^overflow evaluating a time function at t=1\.0$"):
            parse_timefn(text).eval(1.0, order)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.one_of(_short_timefns, _timefns), st.sampled_from((0.0, -0.0, 0.5, -1.25, 3.0)), st.integers(0, 3))
    @example(TimeFn((Poly((-0.0,)), Poly((-0.0,)))), 0.0, 0)  # each poly's own loop gives 0.0
    @example(TimeFn((Sin(-0.0, 1.0, 0.0),)), 0.0, 0)  # a term's -0.0, where fsum gives 0.0
    @example(TimeFn((Sin(-0.0, 1.0, 0.0), Sin(-0.0, 1.0, 0.0))), 0.0, 0)  # -0.0 + -0.0 is -0.0, fsum's is 0.0
    @example(TimeFn((Poly((1.0, -0.0)),)), 0.5, 1)  # the term's own loop starts at 0.0: 0.0 + -0.0 is 0.0
    @example(TimeFn((Poly((1e308,)), Poly((1e308,)))), 0.5, 0)  # finite terms, a sum that overflows
    @example(TimeFn((Poly((1e308, 1e308)), Poly((-1e308, -1e308)))), 3.0, 0)  # inf + -inf
    def test_eval_matches_the_fsum_reference_bitwise(self, f, t, n):
        for term in f.terms:  # each term keeps its bits too, -0.0 included
            assert _bits(lambda: [term.eval(t, n)]) == _bits(lambda: [_ref_term(term, t, n)])
        got = _bits(lambda: [f.eval(t, n)])
        assert got == _bits(lambda: [_ref_eval(f, t, n)])
        if got is not NumericError:
            assert type(parse_timefn(render_timefn(f)).eval(t, n)) is float


class TestParser:
    def test_single_poly(self):
        f = parse_timefn("poly 0 0 1")
        assert f.terms == (Poly((0.0, 0.0, 1.0)),)
        assert f.eval(3.0) == 9.0

    def test_two_terms(self):
        f = parse_timefn("poly 1; sin 2 3 0")
        assert f.terms == (Poly((1.0,)), Sin(2.0, 3.0, 0.0))
        assert f.eval(0.0) == 1.0

    def test_scientific_notation(self):
        f = parse_timefn("exp 1e-3 -2.5E0")
        assert f.terms == (Exp(1e-3, -2.5),)

    def test_unknown_keyword_reports_position(self):
        with pytest.raises(TimeFnSyntaxError) as excinfo:
            parse_timefn("poli 1")
        assert "poli" in str(excinfo.value)
        assert excinfo.value.position == 0

    def test_bad_number_reports_position(self):
        with pytest.raises(TimeFnSyntaxError) as excinfo:
            parse_timefn("poly 1 x")
        assert excinfo.value.position == 7

    def test_position_in_second_term(self):
        with pytest.raises(TimeFnSyntaxError) as excinfo:
            parse_timefn("poly 1; blah 2")
        assert "blah" in str(excinfo.value)
        assert excinfo.value.position == 8

    def test_nonfinite_number_reports_token_and_position(self):
        with pytest.raises(TimeFnSyntaxError, match="finite number, got '-inf'") as excinfo:
            parse_timefn("poly 1; exp 1 -inf")
        assert excinfo.value.position == 14

    @pytest.mark.parametrize("text", ["", "poly", "sin 1 2", "cos 1 2 3 4", "exp 1", "poly 1;",
                                      "poly nan", "poly 1 inf", "sin 1 -inf 0", "exp NaN 1",
                                      "poly 1; cos 1 2 Infinity"])
    def test_malformed_terms_rejected(self, text):
        with pytest.raises(TimeFnSyntaxError):
            parse_timefn(text)

    def test_roundtrip_examples(self):
        for text in ("poly 0 0 1", "poly 1; sin 2 3 0", "exp 0.25 -1.5", "cos 1 2 3"):
            f = parse_timefn(text)
            assert parse_timefn(render_timefn(f)) == f
        # a sine and a cosine of the same numbers are different terms
        assert parse_timefn("sin 1 2 3") != parse_timefn("cos 1 2 3")
        assert render_timefn(parse_timefn("cos 1 2 3")) == "cos 1 2 3"

    def test_roundtrip_random(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            f = random_timefn(rng)
            assert parse_timefn(render_timefn(f)) == f

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(_timefns)
    @example(TimeFn((Poly((5e-324, -0.0, 1.7976931348623157e308)), Exp(-1e308, 2.2250738585072014e-308))))
    def test_roundtrip_property(self, f):
        text = render_timefn(f)
        assert parse_timefn(text) == f
        assert render_timefn(parse_timefn(text)) == text  # the sign of a zero survives too


class TestProperties:
    def test_linearity_of_term_sums(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            f, g = random_timefn(rng), random_timefn(rng)
            t = float(rng.uniform(-2, 2))
            order = int(rng.integers(0, 3))
            combined = TimeFn(f.terms + g.terms).eval(t, order)
            separate = f.eval(t, order) + g.eval(t, order)
            assert combined == pytest.approx(separate, rel=1e-14, abs=1e-14)

    def test_first_derivative_matches_central_difference(self):
        rng = np.random.default_rng(11)
        h = 1e-5
        for _ in range(100):
            f = random_timefn(rng)
            t = float(rng.uniform(-2, 2))
            fd = (f.eval(t + h) - f.eval(t - h)) / (2 * h)
            assert abs(fd - f.eval(t, 1)) < 1e-6

    def test_higher_derivatives_consistent(self):
        # order n+1 is the derivative of order n, checked by differences
        rng = np.random.default_rng(13)
        h = 1e-5
        for _ in range(40):
            f = random_timefn(rng)
            t = float(rng.uniform(-1.5, 1.5))
            for n in (1, 2):
                fd = (f.eval(t + h, n) - f.eval(t - h, n)) / (2 * h)
                assert abs(fd - f.eval(t, n + 1)) < 1e-5

    def test_slope_bound_covers_the_derivative_on_the_window(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            f = random_timefn(rng)
            t0 = float(rng.uniform(-2, 1))
            t1 = t0 + float(rng.uniform(0.1, 2))
            bound = f.slope_bound(t0, t1)
            # a polynomial's bound is tight, so both sides may differ in the last ulp
            assert max(abs(f.eval(t, 1)) for t in np.linspace(t0, t1, 201)) <= bound * (1 + 1e-14)
        # tight for a line, a growing exponential and a full trig period
        assert parse_timefn("poly 1 -3").slope_bound(-1.0, 2.0) == 3.0
        assert Exp(2.0, 0.5).slope_bound(0.0, 2.0) == math.e
        assert Cos(1.5, 4.0, 0.0).slope_bound(0.0, 1.0) == 6.0
        # local for a polynomial: (t - 10)**2 has |p'| <= 2 on [9, 11]
        assert parse_timefn("poly 100 -20 1").slope_bound(9.0, 11.0) == 2.0
        # and for a trig term: cos t has |f'| <= 0.1 on [-0.1, 0.1], around its maximum
        assert Cos(1.0, 1.0, 0.0).slope_bound(-0.1, 0.1) == 0.1


class TestJets:
    def test_jet_reads_back_derivatives(self):
        rng = np.random.default_rng(3)
        f = random_timefn(rng)
        jet = Jet.of(f, 0.4, 5)
        for n in range(6):
            assert jet.deriv(n) == pytest.approx(f.eval(0.4, n), rel=1e-13, abs=1e-13)

    def test_orders_past_the_factorial_table(self):
        f = TimeFn((Exp(1.5, 0.7), Poly((1.0, 2.0, 3.0))))
        jet = Jet.of(f, 0.4, 30)
        for k in range(31):
            assert jet.coeffs[k] == f.eval(0.4, k) / math.factorial(k)
            assert jet.deriv(k) == jet.coeffs[k] * math.factorial(k)

    def test_sqrt_jet_against_closed_form(self):
        # sqrt(1 + t^2): value t=2 -> sqrt5, d/dt = t/sqrt(1+t^2),
        # d2/dt2 = 1/(1+t^2)^(3/2)
        f = TimeFn((Poly((1.0, 0.0, 1.0)),))
        jet = Jet.of(f, 2.0, 2).sqrt()
        assert jet.deriv(0) == pytest.approx(math.sqrt(5.0), rel=1e-15)
        assert jet.deriv(1) == pytest.approx(2.0 / math.sqrt(5.0), rel=1e-15)
        assert jet.deriv(2) == pytest.approx(5.0**-1.5, rel=1e-14)

    def test_division_inverts_product(self):
        rng = np.random.default_rng(5)
        f, g = random_timefn(rng), random_timefn(rng)
        g = TimeFn(g.terms + constant(5.0).terms)  # keep g away from zero near the sample point
        t = 0.3
        prod = Jet.of(f, t, 4) * Jet.of(g, t, 4)
        back = prod / Jet.of(g, t, 4)
        for n in range(5):
            assert back.deriv(n) == pytest.approx(f.eval(t, n), rel=1e-12, abs=1e-12)

    def test_derivative_shifts_orders(self):
        f = TimeFn((Poly((1.0, -2.0, 0.5, 3.0)),))
        jet = Jet.of(f, 1.1, 4).derivative()
        for n in range(4):
            assert jet.deriv(n) == pytest.approx(f.eval(1.1, n + 1), rel=1e-14)

    def test_jetfn_is_a_time_function(self):
        f = TimeFn((Poly((0.0, 0.0, 1.0)),))  # t^2

        class Powers(JetFn):
            def jets(self, t, n):
                j = Jet.of(f, t, n)
                return j, j * j  # t^2, t^4

        assert Powers().eval(2.0) == (4.0, 16.0)
        assert Powers().eval(2.0, 1)[1] == pytest.approx(32.0, rel=1e-15)
        assert Powers().eval(2.0, 3) == (0.0, pytest.approx(48.0, rel=1e-15))
        with pytest.raises(ValueError):
            Powers().eval(2.0, -1)

    def test_sqrt_requires_positive_value(self):
        with pytest.raises(DomainError):
            Jet.of(constant(-1.0), 0.0, 2).sqrt()

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_jets, _jets, _jet_reals)
    @example([-0.0], [1.0], 1.0)  # fsum((-0.0,)) is 0.0, where -0.0 * 1.0 is -0.0
    @example([-0.0, -0.0], [1.0, 1.0], 1.0)  # and fsum((-0.0, -0.0)) is 0.0
    @example([1.0, 1e308], [1.0, 1.0], 1.0)  # fsum((1e308, 1e308)) raises OverflowError; a + gives inf
    @example([1.0, -0.0], [1.0, -0.0], 1.0)  # a quotient's -0.0 - fsum((-0.0,)) is -0.0, -0.0 - -0.0 is 0.0
    def test_arithmetic_matches_the_fsum_reference_bitwise(self, a, b, s):
        ja, jb = Jet(a), Jet(b)
        pairs = [
            (lambda: ja * jb, lambda: _ref_mul(a, b)),
            (lambda: ja / jb, lambda: _ref_div(a, b)),
            (ja.sqrt, lambda: _ref_sqrt(a)),
            (ja.derivative, lambda: [(k + 1) * c for k, c in enumerate(a[1:])]),
            (lambda: ja * s, lambda: [c * s for c in a]),
            (lambda: s * ja, lambda: [c * s for c in a]),
            (lambda: ja + jb, lambda: [x + y for x, y in zip(a, b)]),
            (lambda: ja - jb, lambda: [x - y for x, y in zip(a, b)]),
        ]
        for got, want in pairs:
            assert _bits(got) == _bits(want)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(_timefns, st.sampled_from((0.0, -0.0, 0.5, -1.25, 3.0)), st.integers(0, 3))
    @example(TimeFn((Poly((-0.0, -0.0)),)), 0.0, 1)
    # the time function overflows at order 3; the view's square is inf - inf at order 2
    @example(TimeFn((Sin(3.95504667344647e154, 1.0, 0.0), Exp(0.0, -5.643803094122362e102))), 0.5, 3)
    def test_of_matches_the_reference_bitwise(self, f, t, n):
        for g in (f, _Square(f).square):  # a time function, and a Coefficient view
            assert _bits(lambda: Jet.of(g, t, n)) == _bits(lambda: _ref_of(g, t, n))
