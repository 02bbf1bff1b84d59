"""Tests for the coefficient maps, Legendre transforms and both RHS."""

import dataclasses
import math
import pickle
import re
from array import array
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riccati_lie import cli, suites, timefn
from riccati_lie.errors import DomainError, GuardViolation, NumericError, RiccatiLieError
from riccati_lie.integrator import Trajectory, hamiltonian_guard, integrate, sample_at
from riccati_lie.model import (
    LagrangianPoint,
    PhasePoint,
    PotentialSpec,
    RiccatiSpec,
    affine_rhs,
    coefficients_from_potential,
    eval_U,
    hamilton_rhs,
    hamiltonian,
    hamiltonian_field,
    legendre_forward,
    legendre_inverse,
    map_defect,
    potential_from_coefficients,
    riccati2_rhs,
    solve_hamiltonian,
)
from riccati_lie.model import _PotentialOfCubic, _positive_on_window, _stays_in_O
from riccati_lie.suites import random_potential
from riccati_lie.timefn import Cos, Exp, Jet, JetFn, Poly, Sin, TimeFn, constant, parse_timefn
from test_timefn import _terms, _timefns, random_timefn

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


class TestPotentialSpec:
    def test_is_not_a_jet_picture(self):
        assert not isinstance(canonical(), JetFn)
        assert not hasattr(PotentialSpec, "jets")

    def test_eval_is_its_fields_eval_to_the_bit(self):
        # no jets between the fields and eval: (f^(k)/k!) k! would differ from f^(k) in the last bit
        rng = np.random.default_rng(49)
        for _ in range(40):
            P = random_potential(rng)
            for t in (0.0, -0.0, 0.37, 0.9, 1.25, 2.0, -1.7):
                for k in range(6):
                    assert repr(P.eval(t, k)) == repr(tuple(f.eval(t, k) for f in (P.a0, P.a1, P.a2)))


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
        assert map_defect(R, coefficients_from_potential(P2), GRID, ["c0"])[0] <= 1e-12
        for t in GRID:
            a0, a1, a2 = P2.eval(t)
            assert a0 == pytest.approx(0.0, abs=1e-13)
            assert a1 == pytest.approx(0.0, abs=1e-13)
            assert a2 == pytest.approx(1.0, rel=1e-13)

    def test_inconsistent_c0_surfaces_as_residual(self):
        R = RiccatiSpec(constant(1.0), constant(0.0), constant(0.0), constant(1.0))
        (residual,) = map_defect(R, coefficients_from_potential(potential_from_coefficients(R, GRID)), GRID, ["c0"])
        assert residual == pytest.approx(1.0, rel=1e-12)

    def test_c0_defect_compares_with_the_maps_c0(self):
        # the defect reads c0 off the coefficient map itself, to the last bit
        rng = np.random.default_rng(43)
        for _ in range(5):
            R = coefficients_from_potential(random_potential(rng))
            c0 = TimeFn((Poly(tuple(rng.uniform(-1.0, 1.0, 2))), Sin(0.3, 1.7, float(rng.uniform(0, 6)))))
            R = RiccatiSpec(c0, R.c1, R.c2, R.c3)
            P = potential_from_coefficients(R, GRID)

            def maps_c0(t):  # the map's c0 = a0' + a0 a1 / 2, written out
                a0, a1, _ = P.eval(t)
                return P.a0.eval(t, 1) + 0.5 * (a0 * a1)

            want = max(abs(R.c0.eval(t) - maps_c0(t)) for t in map(float, GRID))
            assert map_defect(R, coefficients_from_potential(P), GRID, ["c0"]) == (want,) and want > 0.0

    def test_rejects_vanishing_c3(self):
        R = RiccatiSpec(constant(0.0), constant(0.0), constant(0.0), constant(0.0))
        with pytest.raises(DomainError):
            potential_from_coefficients(R, GRID)

    def test_c3_is_decided_on_the_whole_window(self):
        def check(c3, t1=1.0):
            R = RiccatiSpec(constant(0.0), constant(0.0), constant(0.0), parse_timefn(c3))
            potential_from_coefficients(R, np.linspace(0.0, t1, 3))

        # negative between the nodes 0, 0.5, 1 only
        with pytest.raises(DomainError, match=r"c3\(0.25\)"):
            check("poly 1; cos 1.5 12.566370614359172 0")
        # (t - 0.3)**2 + 1e-6 dips to 1e-6 between nodes: proved positive by refining
        check("poly 0.090001 -0.6 1")
        # (t - 0.3)**2 - 1e-6 is negative only on (0.299, 0.301)
        with pytest.raises(DomainError, match="must be positive"):
            check("poly 0.089999 -0.6 1")
        # a double root between nodes: refining towards it reaches a point where c3 is 0
        with pytest.raises(DomainError, match=r"c3\(0.32999999\d*\)=0.0"):
            check("poly 0.1089 -0.66 1")
        # t**2 + 1e-20 is positive, but not provably so at the finest resolution
        with pytest.raises(DomainError, match="not bounded away from zero near t=0.0"):
            check("poly 1e-20 0 1")
        # steep only at the far end: |c3'| reaches 2 e^20 near t = 10, but each
        # segment is bounded with its own slope, so c3 >= 1 is proved quickly
        check("exp 1 2", t1=10.0)
        check("exp 1 1", t1=15.0)
        # (t - 10)**4 + 1 on [0, 20]: large cancelling coefficients near its minimum
        check("poly 10001 -4000 600 -40 1", t1=20.0)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            P = random_potential(rng)
            R = coefficients_from_potential(P)
            P2 = potential_from_coefficients(R, GRID)
            assert map_defect(R, coefficients_from_potential(P2), GRID, ["c0"])[0] <= 1e-10
            for t in GRID[::4]:
                for want, got in zip(P.eval(t), P2.eval(t)):
                    assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_coefficients_read_by_name(self):
        # the views are class properties declared from `names`, not looked up by a
        # `__getattr__` hook, which would keep CPython from specializing attribute reads
        assert not hasattr(JetFn, "__getattr__")
        P = random_potential(np.random.default_rng(45))
        R = coefficients_from_potential(P)
        P2 = potential_from_coefficients(R, GRID)
        for picture in (P, R, P2, RiccatiSpec(R.c0, R.c1, R.c2, R.c3)):
            for t in (0.0, 0.9):
                for k in (0, 1):
                    got = tuple(getattr(picture, name).eval(t, k) for name in picture.names)
                    assert got == picture.eval(t, k)
        with pytest.raises(AttributeError):
            P2.c0

    def test_drag_defect(self):
        P = random_potential(np.random.default_rng(46))
        R = coefficients_from_potential(P)
        R2 = RiccatiSpec(R.c0, R.c1, R.c2, R.c3)
        assert max(map_defect(R, R2, GRID, ["f1", "f0"])) <= 1e-12
        # a RiccatiSpec derives its drag pair by the very formula measured
        assert map_defect(R2, RiccatiSpec(R2.c0, R2.c1, R2.c2, R2.c3), GRID, ["f1", "f0"]) == (0.0, 0.0)

    def test_jet_overflow_is_a_numeric_error(self):
        # c3 = a2^2 and the inverse map's a1^2 overflow in the fsum of their first-order
        # jet terms; both map_defect sweeps reach the jets through eval, as every caller does.
        # An order-0 read of R builds no jets (its float form gives c3 = 1e308), an order-1 read does
        R = coefficients_from_potential(PotentialSpec(constant(0.0), constant(0.0),
                                                      parse_timefn("poly 1e154 1e154")))
        R2 = RiccatiSpec(constant(0.0), constant(0.0), parse_timefn("poly 1.5e154 1.5e154"), constant(1.0))
        P2 = potential_from_coefficients(R2, GRID)
        assert R.eval(0.0) == (0.0, 0.0, 1e154, 1e154 * 1e154, 0.0, 3.0 * 1e154)  # finite where the jets overflow
        for call in (lambda: R.eval(0.0, 1),
                     lambda: map_defect(R, RiccatiSpec(R.c0, R.c1, R.c2, R.c3), GRID, ["f1", "f0"]),
                     lambda: map_defect(R2, coefficients_from_potential(P2), GRID, ["c0"])):
            with pytest.raises(NumericError, match=r"^overflow evaluating the coefficient jets at t=0\.0$"):
                call()


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


# query times: both zeros, a NaN, and repeats
_MEMO_TIMES = (0.0, -0.0, math.nan, 0.3, 0.3, 0.7, 1.25)


class TestFieldMemo:
    def test_the_compiled_field_calls_no_eval(self):
        # a picture's compiled `rhs` reads its time functions directly, with no memo, and calls `eval` only where
        # that read fails: its trajectory is the uncompiled field's (seed 62: the solve rejects a step)
        R = coefficients_from_potential(random_potential(np.random.default_rng(62)))
        traj = integrate(partial(riccati2_rhs, R), (0.0, (0.1, 0.5)), 2.0, 1e-10)
        assert traj.stats.n_rejected > 0
        evals, compiled = [], dataclasses.replace(R)
        compiled.__dict__["eval"] = lambda t, order=0: evals.append(t) or R.eval(t, order)
        got = integrate(compiled.rhs, (0.0, (0.1, 0.5)), 2.0, 1e-10)
        assert not evals and got.stats == traj.stats and _bits(np.ravel(got.states)) == _bits(np.ravel(traj.states))

    def test_field_equals_rhs_across_repeated_and_moved_times(self):
        rng = np.random.default_rng(48)
        P = random_potential(rng)
        R = coefficients_from_potential(P)
        # raw terms as fields: their value at t = -0.0 keeps the sign of zero
        signed = PotentialSpec(Sin(1.0, 1.0, -0.0), Sin(1.0, 1.0, -0.0), constant(1.0))
        times = [0.3, 0.3, 0.3, 0.7, 0.7, 0.3, 0.0, -0.0, -0.0, 0.0]
        for rhs, picture, states in (
            (hamilton_rhs, P, [(0.2, -1.0), (-1.5, -0.3), (0.9, -2.5)]),
            (hamilton_rhs, signed, [(0.0, -1.0), (-0.0, -1.0)]),
            (riccati2_rhs, R, [(0.2, 1.0), (-1.5, -0.3), (0.9, 2.5)]),
        ):
            f = partial(rhs, picture)
            for k, t in enumerate(times):
                for s in states[k % len(states):] + states[:k % len(states)]:
                    # a fresh copy carries no memo
                    assert repr(f(t, s)) == repr(rhs(dataclasses.replace(picture), t, s))

    @settings(max_examples=200)
    @given(st.integers(0, 6),
           st.lists(st.tuples(st.sampled_from(_MEMO_TIMES), st.sampled_from((0, 1, 2, 3))), max_size=12))
    @example(3, [(0.0, 1), (-0.0, 0)])  # the signed cubic's f0 = 1.5 a1 is 0.0 at t = 0.0, -0.0 at t = -0.0
    def test_eval_equals_a_fresh_copys_for_any_call_sequence(self, which, calls):
        # a read of a lower order than the last build at its t is served from that build
        P = random_potential(np.random.default_rng(48))
        signed = PotentialSpec(Sin(1.0, 1.0, -0.0), Sin(1.0, 1.0, -0.0), constant(1.0))

        def fresh():  # the picture drawn, over bases of its own, so that no memo is shared
            R = coefficients_from_potential(P)
            return (lambda: P, lambda: signed, lambda: R, lambda: coefficients_from_potential(signed),
                    lambda: RiccatiSpec(R.c0, R.c1, R.c2, R.c3),
                    lambda: potential_from_coefficients(R, GRID),
                    lambda: coefficients_from_potential(potential_from_coefficients(R, GRID)))[which]()

        def read(picture, t, order):  # a time function is not finite at t = NaN
            try:
                return repr(picture.eval(t, order))
            except NumericError as exc:
                return repr(exc)

        picture = fresh()
        for t, order in calls:
            assert read(picture, t, order) == read(fresh(), t, order)


# the grammar over every finite double, where most functions overflow, moderate functions, and
# raw terms as fields, whose values keep the sign of zero and may overflow
_fns = st.one_of(_timefns, st.integers(0, 2**32 - 1).map(lambda seed: random_timefn(np.random.default_rng(seed))),
                 _terms)
_SIGNED = Sin(1.0, 1.0, -0.0)  # TestFieldMemo's signed field: -0.0 at t = -0.0


def _riccati_of_views(R):
    return RiccatiSpec(R.c0, R.c1, R.c2, R.c3)


def _potential_of_views(R):
    return _PotentialOfCubic(R.c1, R.c2, R.c3)


# each a fresh picture from four fields: no memo is shared between reads
_PICTURES = {
    "potential": lambda fs: coefficients_from_potential(PotentialSpec(*fs[:3])),
    "riccati": lambda fs: RiccatiSpec(*fs),
    "riccati-of-views": lambda fs: _riccati_of_views(coefficients_from_potential(PotentialSpec(*fs[:3]))),
    "signed-potential": lambda fs: coefficients_from_potential(PotentialSpec(_SIGNED, _SIGNED, fs[2])),
    "signed-riccati": lambda fs: RiccatiSpec(_SIGNED, _SIGNED, _SIGNED, fs[3]),
    # the derived potential of (c1, c2, c3), and of the views of the cubic picture of (a0, a1, a2)
    "derived-potential": lambda fs: _PotentialOfCubic(*fs[1:]),
    "derived-potential-of-views": lambda fs: _potential_of_views(coefficients_from_potential(PotentialSpec(*fs[:3]))),
    # the Lie system's coefficients: a potential's order 0 is the identity over its fields
    "potential-spec": lambda fs: PotentialSpec(*fs[:3]),
}


def _bits(values):
    return np.array(values, dtype=np.float64).view(np.int64).tolist()


# moderate numbers: every read is finite, and the jets do not overflow
_moderate = st.floats(-2.0, 2.0)
_moderate_timefns = st.builds(lambda ts: TimeFn(tuple(ts)), st.lists(st.one_of(
    st.builds(lambda cs: Poly(tuple(cs)), st.lists(_moderate, min_size=1, max_size=4)),
    st.builds(Sin, _moderate, _moderate, _moderate), st.builds(Cos, _moderate, _moderate, _moderate),
    st.builds(Exp, _moderate, _moderate)), min_size=1, max_size=3))


def _redrawn(term):
    numbers = st.lists(_moderate, min_size=len(term.params), max_size=len(term.params))
    return numbers.map(lambda xs: Poly(tuple(xs)) if isinstance(term, Poly) else type(term)(*xs))


def _of_numpy_floats(f):  # a picture reads such a leaf through its eval
    return TimeFn(tuple(Poly(tuple(map(np.float64, term.params))) if isinstance(term, Poly)
                        else type(term)(*map(np.float64, term.params)) for term in f.terms))


# the grammar's leaves, and moderate ones over numpy floats, whose overflow would warn
_leaves = st.one_of(_fns, _moderate_timefns.map(_of_numpy_floats))
_coordinates = st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False))


def _on_floats(picture):
    """picture as `jets` run on floats read it: its fields, and each view among them through `jets_read`."""
    return SimpleNamespace(**{field.name: SimpleNamespace(eval=partial(_view_read, value))
                              if isinstance(value := getattr(picture, field.name), timefn.Coefficient) else value
                              for field in dataclasses.fields(picture)})


def _view_read(view, t, order):
    return jets_read(view.picture, t, order)[view.index]


def jets_read(picture, t, order):
    """A derived picture's `eval(t, order)` from its `jets` run directly on floats, with no compiled read:
    `JetFn.eval`'s NumericError for an overflow in the jets and its check of the values."""
    try:
        jets = type(picture).jets(_on_floats(picture), t, order)
    except (OverflowError, ValueError):
        raise NumericError(f"overflow evaluating the coefficient jets at t={t}") from None
    values = tuple(jet.deriv(order) for jet in jets)
    for name, value in zip(picture.names, values):
        if not math.isfinite(value):
            raise NumericError(f"coefficient {name} is not finite at t={t}")
    return values


class TestFloatForms:
    """A potential, `RiccatiSpec`, the cubic picture of a potential and the
    derived potential read each order in plain floats, through functions
    compiled from their `jets` traced (a potential's order 0 from its identity
    template): a leaf that is a TimeFn of floats inlined, any other read through
    its `eval`.  The reference is a derived picture's `jets` run directly on
    floats (`jets_read`), and a potential's fields' own reads; their errors
    included.  Only a potential's read may raise what a raw term's formula
    raises: a derived picture's read raises RiccatiLieError."""

    @staticmethod
    def read(picture, t, order=0, jets=False):
        raw = (ArithmeticError, ValueError) if isinstance(picture, PotentialSpec) else ()
        try:
            if jets and isinstance(picture, PotentialSpec):
                return tuple(f.eval(t, order) for f in (picture.a0, picture.a1, picture.a2))
            return jets_read(picture, t, order) if jets else picture.eval(t, order)
        except (RiccatiLieError, *raw) as exc:
            return exc

    @staticmethod
    def assert_same(got, want, t, n, order=0):
        if isinstance(want, tuple):
            assert isinstance(got, tuple) and _bits(got) == _bits(want) and set(map(type, got)) == {float}
        elif order or "coefficient jets" not in str(want):  # past order 0 every error; at 0 a value not finite too
            assert (type(got), str(got)) == (type(want), str(want))
        elif isinstance(got, tuple):  # order 0 computes none of the extra order the jets overflowed in
            assert [type(v) for v in got] == [float] * n and all(map(math.isfinite, got))
        else:  # or the same error, or, where a value it does read is not finite, one naming it
            assert isinstance(got, NumericError)
            assert str(got) == str(want) or re.fullmatch(rf"coefficient [acf]\d is not finite at t={t}", str(got))

    @settings(max_examples=500)
    @given(st.sampled_from(tuple(_PICTURES)), st.lists(_fns, min_size=4, max_size=4),
           st.lists(st.floats(-1e3, 1e3), max_size=3))
    # c3 = a2^2 is 1e308 at t = 0, and its order-1 coefficient fsum((1e308, 1e308)) overflows
    @example("potential", [constant(0.0), constant(0.0), parse_timefn("poly 1e154 1e154"), constant(1.0)], [])
    # c1's a0 a2 is inf at order 0, and its order-1 coefficient fsum((inf, -inf)) raises
    @example("potential", [parse_timefn("poly 1e200 -1e200"), constant(0.0), parse_timefn("poly 1e200 1e200"),
                           constant(1.0)], [])
    # c3 = a2^2 is inf on both paths, with no jet overflow; and f0 = c2/sqrt(c3) is inf
    @example("potential", [constant(0.0), constant(0.0), parse_timefn("poly 1e200"), constant(1.0)], [])
    @example("riccati", [constant(0.0), constant(0.0), constant(1e308), constant(1e-300)], [])
    # c0 = 1e308 (1 + t) is inf at t = 1, where c0' is finite: a read past order 0 reads c0 too, and raises
    @example("riccati", [parse_timefn("poly 1e308 1e308"), constant(0.0), constant(0.0), constant(1.0)], [1.0])
    # the same configs for the derived potential: a1 = (2/3) c2/sqrt(c3) is inf, and a0 = c1/sqrt(c3) + ... -inf
    @example("derived-potential", [constant(0.0), constant(0.0), constant(1e308), constant(1e-300)], [])
    @example("derived-potential", [constant(0.0), constant(-1e200), constant(0.0), constant(1e-300)], [])
    # c2' - fsum((a2' c2/a2,)) is -0.0 - (-0.0 + 0.0), -0.0, where -0.0 - -0.0 is 0.0: a0's sign of zero
    @example("derived-potential", [constant(0.0), Sin(-0.0, 1.0, 0.0), Sin(-0.0, 1.0, 0.0), constant(1.0)], [])
    @example("derived-potential-of-views",
             [constant(0.0), constant(0.0), parse_timefn("poly 1e154 1e154"), constant(1.0)], [])
    @example("derived-potential-of-views", [parse_timefn("poly 1e200 -1e200"), constant(0.0),
                                            parse_timefn("poly 1e200 1e200"), constant(1.0)], [])
    @example("derived-potential-of-views", [constant(0.0), constant(0.0), parse_timefn("poly 1e200"),
                                            constant(1.0)], [])
    # a view read past order 0 raises the jets' overflow in an order no value needs, before c3 = a2^2 = 0.0 fails
    @example("riccati-of-views", [parse_timefn("sin 1 -3.836308318753482 0.6800912466702362; "
                                               "sin 704878.1473125673 0.6691396418329365 -1.6577230260173728"),
                                  parse_timefn("sin -0.923653304926007 4.274795589730463 2.8821631983847373; "
                                               "cos -1e154 1.9977455541295663 2.6651297966271867"),
                                  parse_timefn("sin 1.476251478230627e-249 2.6289607661833037 1.8979226133351883"),
                                  constant(1.0)], [])
    @example("riccati-of-views", [constant(0.0), parse_timefn("cos -1e154 2 2"), parse_timefn("sin 1e-249 2.6 1.9"),
                                  constant(1.0)], [])
    # -0.0 + -0.0 is -0.0, the sum's 0.0
    @example("potential-spec", [TimeFn((Sin(-0.0, 1.0, 0.0), Sin(-0.0, 1.0, 0.0)))] * 3 + [constant(1.0)], [])
    # a0's own sum overflows; a1's sum of terms does
    @example("potential-spec", [parse_timefn("poly 1e308 1e308"), constant(0.0), constant(1.0), constant(1.0)],
             [1.0])
    @example("potential-spec", [constant(0.0), parse_timefn("poly 1e308; poly 1e308"), constant(1.0),
                                constant(1.0)], [1.0])
    # finite values whose sum overflows
    @example("potential-spec", [constant(1e308), constant(1e308), constant(1.0), constant(1.0)], [])
    # a read raises; a read is NaN
    @example("potential-spec", [constant(1.0), parse_timefn("sin 1 1e308 1e308"), parse_timefn("exp 1 800"),
                                constant(1.0)], [1.0])
    @example("potential-spec", [constant(1.0), constant(1.0), parse_timefn("poly 1e308 1e308; poly -1e308 -1e308"),
                                constant(1.0)], [1.0])
    def test_each_order_is_the_jets_bits(self, kind, fs, times):
        n = len(_PICTURES[kind](fs).names)
        for t in [0.0, -0.0] + times:
            for order in (0,) if kind == "potential-spec" else (0, 1, 2):  # a potential's others are its fields' own
                self.assert_same(self.read(_PICTURES[kind](fs), t, order),
                                 self.read(_PICTURES[kind](fs), t, order, jets=True), t, n, order)

    @staticmethod
    def field(rhs, t, y):
        try:
            return rhs(t, y)
        except (RiccatiLieError, ArithmeticError, ValueError) as exc:
            return exc

    @settings(max_examples=400)
    @given(st.sampled_from(tuple(_PICTURES)), st.lists(_leaves, min_size=4, max_size=4),
           st.lists(st.floats(-1e3, 1e3), max_size=3), st.tuples(_coordinates, _coordinates))
    # signed zeros in the coefficients and the state
    @example("signed-potential", [constant(1.0)] * 4, [], (-0.0, -0.0))
    @example("signed-riccati", [constant(1.0)] * 4, [], (-0.0, 0.0))
    # `test_each_order_is_the_jets_bits`'s overflow configs: c3 = a2^2 overflows in its jets, c1's a0 a2 is inf, c3
    # and f0 are inf
    @example("potential", [constant(0.0), constant(0.0), parse_timefn("poly 1e154 1e154"), constant(1.0)], [],
             (0.5, 1.0))
    @example("potential", [parse_timefn("poly 1e200 -1e200"), constant(0.0), parse_timefn("poly 1e200 1e200"),
                           constant(1.0)], [], (0.5, 1.0))
    @example("potential", [constant(0.0), constant(0.0), parse_timefn("poly 1e200"), constant(1.0)], [], (0.5, 1.0))
    @example("riccati", [constant(0.0), constant(0.0), constant(1e308), constant(1e-300)], [], (0.5, 1.0))
    # finite coefficients whose sum overflows: the compiled read's check fails, and the field still returns
    @example("potential-spec", [parse_timefn("poly 1e308"), parse_timefn("poly 1e308"), constant(1.0),
                                constant(1.0)], [], (0.5, 1.0))
    @example("riccati", [constant(1e308), constant(1e308), constant(0.0), constant(1.0)], [], (0.5, 1.0))
    def test_the_compiled_field_is_the_uncompiled_ones(self, kind, fs, times, y):
        # each picture's `rhs` returns the bits of `affine_rhs` or `riccati2_rhs` on a fresh picture, or raises
        # the same error; a raw term's error too
        uncompiled = affine_rhs if len(_PICTURES[kind](fs).names) == 3 else riccati2_rhs
        for t in [0.0, -0.0] + times:
            got = self.field(_PICTURES[kind](fs).rhs, t, y)
            want = self.field(partial(uncompiled, _PICTURES[kind](fs)), t, y)
            if isinstance(want, tuple):
                assert isinstance(got, tuple) and _bits(got) == _bits(want) and set(map(type, got)) <= {float}
            else:
                assert (type(got), str(got)) == (type(want), str(want))

    @settings(max_examples=300)
    @given(st.lists(_timefns, min_size=3, max_size=3), st.sampled_from((0.0, -0.0, 0.5, -1.25, 3.0)))
    def test_a_potential_of_timefns_reads_its_fields_bits_inline(self, fs, t):
        # the path `affine_rhs` takes: three TimeFns of floats, read through the one compiled `inline`
        P = PotentialSpec(*fs)
        self.assert_same(self.read(P, t), self.read(PotentialSpec(*fs), t, jets=True), t, 3)
        assert P.inline is not None

    @pytest.mark.parametrize("kind", ["potential", "riccati", "derived-potential", "potential-spec",
                                      "riccati-of-views", "derived-potential-of-views"])
    def test_timefn_leaves_of_floats_are_read_inline(self, kind):
        floats = [parse_timefn(text) for text in ("poly 0.1 0.2; sin 0.3 2 0", "cos 0.5 1 0.25", "exp 0.2 -0.5",
                                                  "poly 2 0.5 0.25")]
        # a leaf that is a raw term, or holds a numpy float, is read through its eval (c2 or a2, a leaf of each),
        # and so is every leaf of a picture over views; the other leaves' terms are inlined
        for leaf, raw in ((floats[2], 0), (Sin(0.3, 2.0, 0.0), 1), (TimeFn((Poly((np.float64(0.1),)),)), 1)):
            fs = floats[:2] + [leaf] + floats[3:]
            picture = _PICTURES[kind](fs)
            want = _bits(self.read(_PICTURES[kind](fs), 0.37, jets=True))
            assert _bits(picture.inline(0.37)) == _bits(picture.eval(0.37)) == want
            code = picture.inline.__code__
            leaves = sum(name.startswith("leaf") for name in code.co_varnames[:code.co_argcount])
            assert leaves == (len(dataclasses.fields(picture)) if kind.endswith("views") else raw)

    @settings(max_examples=60)
    @given(st.lists(_moderate_timefns, min_size=4, max_size=4), st.data())
    def test_pictures_of_one_shape_share_their_code_and_read_their_own_numbers(self, fs, data):
        gs = [TimeFn(tuple(data.draw(_redrawn(term)) for term in f.terms)) for f in fs]  # fs' shapes, new numbers
        for kind in ("potential", "riccati", "derived-potential", "potential-spec"):
            pictures = _PICTURES[kind](fs), _PICTURES[kind](gs)
            for order in (0, 1, 2):
                for t in (0.0, 0.37, -1.25):
                    for which in (0, 1, 0):
                        got = self.read(pictures[which], t, order)
                        want = self.read(_PICTURES[kind]((fs, gs)[which]), t, order, jets=True)
                        assert repr(got) == repr(want) and (not isinstance(got, tuple) or _bits(got) == _bits(want))
            assert pictures[0].inline.__code__ is pictures[1].inline.__code__
            assert pictures[0].floats.__code__ is pictures[1].floats.__code__
            if kind != "potential-spec":  # a potential's higher orders are its fields' own reads
                for order in (1, 2):
                    for reads in ("_inlines", "_floats"):
                        codes = [getattr(picture, reads)[order].__code__ for picture in pictures]
                        assert codes[0] is codes[1]


    def test_a_field_that_is_no_time_function_is_read_on_its_own(self):
        R = coefficients_from_potential(random_potential(np.random.default_rng(7)))
        P = PotentialSpec(R.c0, constant(0.5), R.f1)
        want = _bits((R.c0.eval(0.3), 0.5, R.f1.eval(0.3)))
        assert _bits(P.inline(0.3)) == _bits(P.eval(0.3)) == _bits(P.floats(0.3)) == want

    @pytest.mark.parametrize("make", [
        lambda first, later: PotentialSpec(first, later, constant(1.0)),
        lambda first, later: RiccatiSpec(first, later, constant(0.0), constant(1.0)),
    ], ids=["potential-spec", "riccati"])
    def test_a_mixed_picture_raises_its_first_leafs_error(self, make):
        # an inlined leaf that overflows to inf without raising, read before a view whose eval raises: the read
        # raises the first leaf's error, as the leaves' own reads in template order do
        first = parse_timefn("poly 1e308 1e308")  # inf at t = 1
        later = RiccatiSpec(constant(0.0), constant(0.0), constant(1e308), constant(1e-300)).f0  # inf at any t
        with pytest.raises(NumericError, match=r"coefficient f0 is not finite at t=1\.0"):
            later.eval(1.0)
        picture = make(first, later)
        assert picture.inline(1.0) is None
        with pytest.raises(NumericError) as caught:
            picture.eval(1.0)
        assert str(caught.value) == "overflow evaluating a time function at t=1.0"

    def test_read_functions_pickle_without_their_compiled_reads(self):
        # the compiled reads are functions pickle cannot find by name: each object leaves them out
        fs = [parse_timefn("poly 1 2; sin 0.5 3 0.25"), parse_timefn("exp -1 0.5; cos 2 1 0"),
              parse_timefn("poly 0.5 -1 2 0.25 3")]
        P = PotentialSpec(*fs)
        times = (0.0, 0.37, -1.5)
        for obj in (fs[0], fs[1].terms[1], fs[2].terms[0]):
            reads = [obj.eval(t, order) for t in times for order in (0, 1, 2)]
            copy = pickle.loads(pickle.dumps(obj))
            assert copy == obj and copy is not obj
            assert _bits([copy.eval(t, order) for t in times for order in (0, 1, 2)]) == _bits(reads)
        # the pictures, after an order-0 read and a field read: each a read through its compiled map
        R = RiccatiSpec(*fs, parse_timefn("poly 2 0.5 0.25"))
        for picture in (P, R, coefficients_from_potential(P), potential_from_coefficients(R, GRID)):
            reads = [picture.eval(t) for t in times]
            fields = [picture.rhs(t, (0.25, -0.5)) for t in times]
            assert picture.inline is not None and "rhs" in vars(picture)
            copy = pickle.loads(pickle.dumps(picture))
            assert copy == picture and copy is not picture and not {"floats", "inline", "rhs"} & set(vars(copy))
            assert _bits([copy.eval(t) for t in times]) == _bits(reads)
            assert _bits([copy.rhs(t, (0.25, -0.5)) for t in times]) == _bits(fields)
            assert _bits([copy.eval(t, 2) for t in times]) == _bits([picture.eval(t, 2) for t in times])


class TestReadsThroughViews:
    """A picture built over another picture's views reads them as its jets
    do: each view through its picture's `eval`, once per order read."""

    TIMES = (0.3, 0.7, 1.25, 1.6)

    def test_round_trips_read_each_view_once_per_order(self):
        R = coefficients_from_potential(random_potential(np.random.default_rng(45)))
        derived_potential = potential_from_coefficients(R, GRID)
        for base, round_trip in ((derived_potential, coefficients_from_potential(derived_potential)),
                                 (R, potential_from_coefficients(R, GRID))):
            calls = []
            base.__dict__["eval"] = lambda t, order=0, base=base: calls.append(t) or type(base).eval(base, t, order)
            for order, t in enumerate(self.TIMES):
                calls.clear()
                assert _bits(round_trip.eval(t, order)) == _bits(jets_read(round_trip, t, order))
                # three views, to order n + 1 each (a's), or to n + 2, n + 1 and n (c3, c2 and c1)
                assert calls == [t] * 3 * (order + 2)

    # the report reads one picture at t0; `map_defect` reads each of its two pictures once per grid time, and the
    # one over views reads each view once per order its jets read: c3 to order 1, and c0, c1, c2, or a0, a1, a2 to
    # order 1; t0 = 0.0 and -0.0 are read like any other time
    @pytest.mark.parametrize("source, reads, t0", [
        pytest.param(text, reads, t0, id=name if t0 == "0.25" else f"{name}-t0={t0}")
        for t0 in ("0.25", "0.0", "-0.0")
        for name, text, reads in (
            ("potential", "[potential]\na0 = poly 0.2 -0.1\na1 = sin 0.4 1.3 0.2\na2 = poly 1 0.3\n",
             {"_CubicOfPotential": 1 + 11 + 11 * 5, "RiccatiSpec": 11, "view": 11 * 5}),
            ("riccati", "[riccati]\nc0 = cos 0.3 2 0\nc1 = poly 0.1 0.2\nc2 = exp 0.5 -0.4\nc3 = poly 1 0 0.5\n",
             {"_PotentialOfCubic": 1 + 11 * 6, "_CubicOfPotential": 11, "RiccatiSpec": 11, "view": 11 * 6}),
        )
    ])
    def test_derive_reads_each_picture_per_grid_time(self, source, reads, t0, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text(source + f"[run]\nt0 = {t0}\nt1 = {float(t0) + 1}\nstep = 0.1\n")
        assert cli.main(["derive", str(cfg)]) == cli.EXIT_OK
        report, counted = capsys.readouterr().out, []
        eval_, view_eval = JetFn.eval, timefn.Coefficient.eval
        monkeypatch.setattr(JetFn, "eval", lambda self, t, order=0: counted.append(type(self).__name__)
                            or eval_(self, t, order))
        monkeypatch.setattr(timefn.Coefficient, "eval", lambda self, t, order=0: counted.append("view")
                            or view_eval(self, t, order))
        assert cli.main(["derive", str(cfg)]) == cli.EXIT_OK
        assert capsys.readouterr().out == report
        assert {name: counted.count(name) for name in counted} == reads


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
    def test_x_components_agree(self, monkeypatch):
        # the velocity-picture flow and the Legendre-matched momentum-picture
        # flow must produce the same x(t)
        monkeypatch.setattr(suites, "_LOW_ORDER_AMP", 0.3)
        rng = np.random.default_rng(47)
        done = 0
        while done < 5:
            P = random_potential(rng)
            R = coefficients_from_potential(P)
            x0 = float(rng.uniform(-0.8, 0.8))
            p0 = float(rng.uniform(-2.0, -0.5))
            lag0 = legendre_inverse(P, 0.0, PhasePoint(x0, p0))
            try:
                traj_h = integrate(
                    hamiltonian_field(P), (0.0, (x0, p0)), 1.0, 1e-10,
                    guard=hamiltonian_guard, system="hamiltonian",
                )
                traj_r = integrate(partial(riccati2_rhs, R), (0.0, tuple(lag0)), 1.0, 1e-10, system="riccati2")
            except (NumericError, GuardViolation):
                continue
            for t in np.linspace(0.0, 1.0, 21):
                xh = sample_at(traj_h, t)[0]
                xr = sample_at(traj_r, t)[0]
                assert abs(xh - xr) < 1e-6
            done += 1


class TestSolveHamiltonian:
    def test_initial_state_error_is_the_guarded_integrators(self):
        for s0 in ((0.0, 1.0), (0.0, 0.0), (-0.0, -1e-10), (2.5, -9.99e-10)):
            with pytest.raises(DomainError) as chart:
                solve_hamiltonian(canonical(), s0, GRID, 1e-10)
            with pytest.raises(DomainError) as guarded:
                integrate(hamiltonian_field(canonical()), (0.0, s0), 2.0, 1e-10, guard=hamiltonian_guard)
            assert str(chart.value) == str(guarded.value)
            assert not isinstance(chart.value, GuardViolation)
        # p0 = -1e-9 is on the guard's side of its boundary
        assert solve_hamiltonian(canonical(), (0.0, -1e-9), np.linspace(0.0, 1e-3, 3), 1e-10).states[0][1] < 0

    def test_agrees_with_the_guarded_xp_solve(self):
        rng = np.random.default_rng(49)
        for _ in range(5):
            P = random_potential(rng)
            (chart,) = suites.draw_surviving_solutions(P, GRID, 1e-10, rng, 1)
            xp = integrate(hamiltonian_field(P), (0.0, tuple(chart.states[0])), 2.0, 1e-10,
                           guard=hamiltonian_guard)
            assert chart.system == "hamiltonian" and chart.coeffs is None
            np.testing.assert_array_equal(chart.ts, GRID)
            np.testing.assert_allclose(chart.states, sample_at(xp, GRID), rtol=1e-8, atol=1e-8)

    def test_nan_dense_output_is_no_proof(self):
        coeffs = array("d", [0.0, 1.0] + [0.0] * 8)  # (u, sigma) = (0, 1) + u (0, 0) + ... + u**4 (0, 0)
        chart = Trajectory([0.0, 1.0], [(0.0, 1.0), (0.0, 1.0)], coeffs=coeffs)
        _stays_in_O(chart)
        coeffs[7] = math.nan  # sigma's coefficient of u**3
        with pytest.raises(GuardViolation, match=r"violated just past t=0\.0$"):
            _stays_in_O(chart)


def _uniform(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# sigma on quartic steps at one of several scales around the floor sqrt(1e-9),
# each step's polynomial ending at the next node's state
@st.composite
def _charts(draw):
    floor = math.sqrt(1e-9)
    scale = draw(st.sampled_from([3e-6, 3e-5, 3e-4, 1e-2, 1.0]))
    n = draw(st.integers(1, 4))
    t0 = draw(_uniform(-2.0, 2.0))
    widths = draw(st.lists(_uniform(1e-3, 1.0), min_size=n, max_size=n))
    coeffs = np.zeros((n, 5, 2))  # [step, power of u from 0, (u, sigma)]
    coeffs[:, 1:, 1] = scale * np.reshape(draw(st.lists(_uniform(-3.0, 3.0), min_size=4 * n, max_size=4 * n)),
                                          (n, 4))
    sigma = [floor + scale * draw(_uniform(-0.2, 3.0))]
    for c in coeffs[:, 1:, 1]:
        sigma.append(sigma[-1] + float(c.sum()))
    coeffs[:, 0, 1] = sigma[:-1]
    ts = t0 + np.concatenate(([0.0], np.cumsum(widths)))
    return Trajectory(ts=ts.tolist(), states=[(0.0, s) for s in sigma], coeffs=array("d", coeffs.ravel().tolist()))


# a bounded time function drawn like test_timefn's random_timefn (by numpy,
# from a drawn seed, so that most have an interior minimum), on a grid of a
# few nodes that puts its least local minimum on [-2, 6] inside a segment,
# shifted so that its least value on 2,001 samples of the window is
# +-[1e-4, 1e-2]: half dip below zero, mostly between the nodes, and the rest
# come close to it.  A least value nearer zero is left to
# TestWindowProofNearATangent
@st.composite
def _windows(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = [Poly(tuple(rng.uniform(-0.8, 0.8, rng.integers(1, 4))))]
    for kind, chance in ((Sin, 0.7), (Cos, 0.5)):
        if rng.uniform() < chance:
            terms.append(kind(rng.uniform(-0.8, 0.8), rng.uniform(0.3, 2.0), rng.uniform(0, 2 * math.pi)))
    if rng.uniform() < 0.5:
        terms.append(Exp(rng.uniform(-0.8, 0.8), rng.uniform(-1.0, 1.0)))
    f = TimeFn(tuple(terms))
    wide = np.linspace(-2.0, 6.0, 401)
    values = np.array([f.eval(t) for t in wide.tolist()])
    inner = np.flatnonzero((values[1:-1] < values[:-2]) & (values[1:-1] <= values[2:])) + 1
    t_min = wide[min(inner, key=values.__getitem__) if inner.size else int(np.argmin(values))]
    nodes = draw(st.integers(2, 6))
    position = draw(st.integers(0, nodes - 2)) + draw(_uniform(0.05, 0.95))
    grid = t_min + draw(_uniform(0.02, 1.0)) * (np.arange(nodes) - position)
    samples = np.linspace(grid[0], grid[-1], 2001).tolist()
    least = draw(st.sampled_from((-1.0, 1.0))) * draw(_uniform(1e-4, 1e-2))
    shift = least - min(f.eval(t) for t in samples)
    return TimeFn((*terms, Poly((shift,)))), grid, samples


class TestPositivityProofsAreSound:
    """The two proofs behind exit 3 never pass a function that is not positive."""

    @settings(max_examples=200)
    @given(_charts())
    def test_stays_in_O(self, chart):
        floor = math.sqrt(1e-9)
        ts = chart.ts
        times = np.concatenate([np.linspace(a, b, 257) for a, b in zip(ts, ts[1:])])
        sigma = sample_at(chart, times)[:, 1]
        try:
            _stays_in_O(chart)
        except GuardViolation as exc:
            below = np.flatnonzero(sigma < floor - 1e-9)
            if below.size:
                assert exc.last_valid_t <= times[below[0]]
            return
        assert sigma.min() >= floor - 1e-12

    @settings(max_examples=200)
    @given(_windows())
    def test_positive_on_window(self, window):
        f, grid, samples = window
        dips = min(f.eval(t) for t in samples) <= 0.0
        try:
            _positive_on_window("f", f, grid)
        except DomainError:
            return
        assert not dips

    # (1 - 2t)^2 is positive at the nodes 0, 1/3, 2/3, 1 and zero at t = 0.5
    @pytest.mark.parametrize("a2", [Poly((1.0, -4.0, 4.0)), TimeFn((Poly((1.0, -4.0, 4.0)),))],
                             ids=["raw-term", "TimeFn"])
    def test_a_dip_between_nodes_is_found_in_a_raw_term_too(self, a2):
        grid = np.linspace(0.0, 1.0, 4)
        with pytest.raises(DomainError, match=r"^a2\(t\) must be positive"):
            coefficients_from_potential(PotentialSpec(constant(0.0), constant(0.0), a2), grid)


class TestWindowProofNearATangent:
    """A coefficient whose least value on the window is a tangent near zero
    is decided in few evaluations, and on the right side of zero."""

    def test_tangent_zero_is_decided_in_few_evaluations(self, monkeypatch):
        # 1 + sin(0.3 t) touches 0 at t = -5 pi/3; a trig slope bound of |A w| on
        # every segment needs over 30,000 evaluations for each case
        calls = []
        eval_ = TimeFn.eval
        monkeypatch.setattr(TimeFn, "eval", lambda f, t, order=0: calls.append(t) or eval_(f, t, order))
        grid = np.linspace(-8.0, -3.0, 501)
        with pytest.raises(DomainError):
            _positive_on_window("c3", parse_timefn("poly 1; sin 1 0.3 0"), grid)
        assert len(calls) <= 1000
        calls.clear()
        _positive_on_window("c3", parse_timefn("poly 1.00000001; sin 1 0.3 0"), grid)
        assert len(calls) <= 1000

    @settings(max_examples=300)
    @given(_uniform(0.1, 10.0), _uniform(8.0, 40.0), _uniform(0.0, 2 * math.pi),
           st.sampled_from((-1.0, 1.0)), _uniform(-6.0, -1.0))
    def test_passes_exactly_when_the_least_value_is_positive(self, amp, omega, phase, sign, digits):
        # A (1 + eps) + A cos(w t + phi) has least value A eps on [0, 1]: w >= 8
        # covers a full period
        eps = sign * 10.0**digits
        f = TimeFn((Poly((amp * (1.0 + eps),)), Cos(amp, omega, phase)))
        try:
            _positive_on_window("f", f, np.linspace(0.0, 1.0, 5))
        except DomainError:
            assert eps < 0.0
            return
        assert eps > 0.0
