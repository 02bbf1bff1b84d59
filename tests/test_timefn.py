"""Tests for the time-function layer: exact derivatives, grammar, jets."""

import math

import numpy as np
import pytest

from riccati_lie.errors import DomainError, TimeFnSyntaxError
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

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            constant(1.0).eval(0.0, -1)


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

    @pytest.mark.parametrize("text", ["", "poly", "sin 1 2", "cos 1 2 3 4", "exp 1", "poly 1;"])
    def test_malformed_terms_rejected(self, text):
        with pytest.raises(TimeFnSyntaxError):
            parse_timefn(text)

    def test_roundtrip_examples(self):
        for text in ("poly 0 0 1", "poly 1; sin 2 3 0", "exp 0.25 -1.5", "cos 1 2 3"):
            f = parse_timefn(text)
            assert parse_timefn(render_timefn(f)) == f

    def test_roundtrip_random(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            f = random_timefn(rng)
            assert parse_timefn(render_timefn(f)) == f


class TestProperties:
    def test_linearity_of_term_sums(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            f, g = random_timefn(rng), random_timefn(rng)
            t = float(rng.uniform(-2, 2))
            order = int(rng.integers(0, 3))
            combined = (f + g).eval(t, order)
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


class TestJets:
    def test_jet_reads_back_derivatives(self):
        rng = np.random.default_rng(3)
        f = random_timefn(rng)
        jet = Jet.of(f, 0.4, 5)
        for n in range(6):
            assert jet.deriv(n) == pytest.approx(f.eval(0.4, n), rel=1e-13, abs=1e-13)

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
        g = g + constant(5.0)  # keep g away from zero near the sample point
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
