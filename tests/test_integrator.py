"""Tests for the adaptive integrator, guards, and the dense output."""

import ast
import inspect
import math
import operator
import re
import struct
import textwrap
from array import array
from fractions import Fraction
from functools import partial, reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from riccati_lie import integrator
from riccati_lie.errors import DomainError, GuardViolation, NumericError, WorkBoundError
from riccati_lie.integrator import (
    Trajectory,
    hamiltonian_guard,
    integrate,
    sample_at,
)
from riccati_lie.model import (
    PhasePoint,
    PotentialSpec,
    _to_affine,
    affine_rhs,
    coefficients_from_potential,
    hamiltonian,
    hamiltonian_field,
    legendre_inverse,
    riccati2_rhs,
)
from riccati_lie.suites import draw_surviving_solutions, random_potential, suite_integrals
from riccati_lie.timefn import constant


def canonical_potential():
    return PotentialSpec(constant(0.0), constant(0.0), constant(1.0))


def canonical_solution(t):
    return np.array([2.0 * t / (1.0 + t * t), -((1.0 + t * t) ** 2) / 4.0])


def _coeffs(traj):
    """A trajectory's step polynomials as an array [step, power of u from 0, component]."""
    return np.frombuffer(traj.coeffs).reshape(len(traj.ts) - 1, -1, 2)


class TestIntegrate:
    def test_zero_field_is_constant(self):
        traj = integrate(lambda t, y: (0.0, 0.0), (0.0, (1.0, -1.0)), 5.0, 1e-10)
        assert np.all(np.array(traj.states) == [1.0, -1.0])
        assert np.all(_coeffs(traj)[:, 0] == [1.0, -1.0]) and np.all(_coeffs(traj)[:, 1:] == 0.0)
        assert traj.ts[0] == 0.0 and traj.ts[-1] == 5.0

    def test_free_particle_closed_form(self):
        P = PotentialSpec(constant(0.0), constant(0.0), constant(0.0))
        traj = integrate(hamiltonian_field(P), (0.0, (0.0, -1.0)), 2.0, 1e-10,
                         guard=hamiltonian_guard)
        states = np.array(traj.states)
        assert np.max(np.abs(states[:, 0] - traj.ts)) < 1e-10
        assert np.max(np.abs(states[:, 1] + 1.0)) < 1e-12

    def test_canonical_final_state(self):
        traj = integrate(hamiltonian_field(canonical_potential()), (0.0, (0.0, -0.25)),
                         1.0, 1e-10, guard=hamiltonian_guard)
        assert traj.ts[-1] == 1.0
        np.testing.assert_allclose(traj.states[-1], [1.0, -1.0], atol=1e-9)

    def test_times_strictly_increasing(self):
        traj = integrate(hamiltonian_field(canonical_potential()), (0.0, (0.0, -0.25)),
                         2.0, 1e-8, guard=hamiltonian_guard)
        assert np.all(np.diff(traj.ts) > 0.0)

    def test_stored_derivatives_match_rhs(self):
        # the linear coefficient of each step polynomial is h times the RHS at
        # the step's start, the first-same-as-last stage carried over
        rhs = hamiltonian_field(canonical_potential())
        traj = integrate(rhs, (0.0, (0.0, -0.25)), 2.0, 1e-10, guard=hamiltonian_guard)
        hs = np.diff(traj.ts)
        for i, t in enumerate(traj.ts[:-1]):
            np.testing.assert_allclose(_coeffs(traj)[i, 1] / hs[i], rhs(t, traj.states[i]), rtol=1e-14)

    def test_convergence_with_tolerance(self):
        rhs = hamiltonian_field(canonical_potential())
        errs = []
        for k in range(11):
            tol = 1e-5 * 0.5**k
            traj = integrate(rhs, (0.0, (0.0, -0.25)), 2.0, tol,
                             guard=hamiltonian_guard, max_step=2.0)
            errs.append(np.max(np.abs(traj.states[-1] - canonical_solution(2.0))))
        # tightening by 64x must not let the error grow (local plateaus
        # around step-count quantization are expected at coarser ratios)
        for i in range(len(errs) - 6):
            assert errs[i + 6] <= errs[i]
        assert max(errs[-3:]) < min(errs[:3])
        traj = integrate(rhs, (0.0, (0.0, -0.25)), 2.0, 1e-10, guard=hamiltonian_guard)
        assert np.max(np.abs(traj.states[-1] - canonical_solution(2.0))) <= 1e-8

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda t, y: (0.0, 0.0), (1.0, (0.0, -1.0)), 1.0, 1e-8)
        with pytest.raises(ValueError):
            integrate(lambda t, y: (0.0, 0.0), (0.0, (0.0, -1.0)), 1.0, 0.0)
        rhs = hamiltonian_field(canonical_potential())
        for t0, t1 in ((0.0, np.inf), (0.0, np.nan), (-np.inf, 1.0), (np.nan, 1.0)):
            with pytest.raises(ValueError):
                integrate(rhs, (t0, (0.1, -0.8)), t1, 1e-10)
        for max_step in (np.nan, np.inf, 0.0, -1.0):
            with pytest.raises(ValueError):
                integrate(rhs, (0.0, (0.1, -0.8)), 2.0, 1e-10, max_step=max_step)

    def test_rhs_and_guard_see_float_time_and_float_pair(self):
        times, states = [], []

        def rhs(t, y):
            times.append(t)
            states.append(y)
            return (y[1], -y[0])

        def guard(y):
            states.append(y)
            return True

        traj = integrate(rhs, (0.0, np.array([1.0, 0.0])), 1.0, 1e-8, guard=guard)
        assert len(times) == traj.stats.n_rhs and len(states) == 2 * traj.stats.n_rhs
        assert all(type(t) is float for t in times)
        for y in states:
            assert type(y) is tuple and len(y) == 2
            assert type(y[0]) is float and type(y[1]) is float

    def test_no_step_growth_right_after_a_rejection(self):
        # a forcing that jumps at t = 0.5 makes error control reject steps; the
        # trial step sizes are recovered from the stage times the RHS sees:
        # after the initial call and the starting-step probe, each trial makes
        # eleven calls, the last at t + h, and an accepted one four more; a
        # trial was accepted when that time is a trajectory node
        times = []

        def rhs(t, y):
            times.append(t)
            return (0.0 if t < 0.5 else 50.0), -y[1]

        traj = integrate(rhs, (0.0, (1.0, 1.0)), 1.0, 1e-8)
        nodes = set(traj.ts)
        trials, start, call = [], 0.0, 2
        while call < len(times):
            stage12 = times[call + 10]
            accepted = stage12 in nodes
            trials.append((stage12 - start, accepted))
            start = stage12 if accepted else start
            call += 15 if accepted else 11
        assert call == len(times)
        assert traj.stats.n_rejected > 0
        assert len(trials) == traj.stats.n_accepted + traj.stats.n_rejected
        after_rejection = [(h, h_next)
                           for (_, ok_prev), (h, ok), (h_next, _) in zip(trials, trials[1:], trials[2:])
                           if ok and not ok_prev]
        assert after_rejection
        for h, h_next in after_rejection:
            assert h_next <= h * (1.0 + 1e-9)

    @pytest.mark.parametrize("bad", ["nan", "inf", "guard"])
    def test_a_probe_that_is_not_finite_falls_back_to_a_thousandth_of_the_span(self, bad):
        # the field's second call is the starting-step probe: a value there that is not finite, or a probe
        # state the guard rejects, makes the first step span * 1e-3, whose stage 12 sits at t0 + h
        calls, checks = [], []

        def rhs(t, y):
            calls.append(t)
            return (float(bad), 0.0) if len(calls) == 2 and bad != "guard" else (y[1], -y[0])

        def guard(y):
            checks.append(y)
            return len(checks) != 2 or bad != "guard"

        traj = integrate(rhs, (0.0, (1.0, 0.0)), 2.0, 1e-8, guard=guard)
        assert calls[12 - (bad == "guard")] == 2.0 * 1e-3
        np.testing.assert_allclose(traj.states[-1], [math.cos(2.0), -math.sin(2.0)], atol=1e-7)

    def test_state_must_be_two_dimensional(self):
        # exactly two real numbers: a string of two digits or a (2, 1) array is not a state
        for y0 in ((1.0, -1.0, 0.5), (1.0,), ((1.0, -1.0),), "12", ("1", "2"), np.zeros((2, 1)), np.zeros(3), None,
                   1.0, (1.0, None), (1.0, 1j)):
            with pytest.raises(ValueError, match="the state must be two-dimensional, two real numbers"):
                integrate(lambda t, y: y, (0.0, y0), 1.0, 1e-8)

    @pytest.mark.parametrize("y0", [(1, -2), [1.0, -2.0], np.array([1.0, -2.0]), (np.float32(1.0), np.int64(-2)),
                                    (Fraction(1), -2.0)], ids=repr)
    def test_any_two_real_numbers_start_the_same_solve(self, y0):
        traj = integrate(lambda t, y: (y[1], -y[0]), (0.0, y0), 1.0, 1e-8)
        reference = integrate(lambda t, y: (y[1], -y[0]), (0.0, (1.0, -2.0)), 1.0, 1e-8)
        assert traj.states[0] == (1.0, -2.0) and type(traj.states[0][0]) is float
        assert traj.states == reference.states


class TestWorkBound:
    def test_the_bound_counts_trial_steps_and_names_t(self, monkeypatch):
        # a step cap of 0.01 takes about 100 steps over [0, 1], none rejected; a bound of 7 stops the 8th
        def solve():
            return integrate(lambda t, y: (1.0, 0.0), (0.0, (0.0, -1.0)), 1.0, 1e-8, max_step=0.01)

        ts = solve().ts
        monkeypatch.setattr(integrator, "MAX_STEPS", 7)
        with pytest.raises(WorkBoundError) as excinfo:
            solve()
        assert isinstance(excinfo.value, NumericError)
        assert str(excinfo.value) == f"integration work bound reached at t={ts[7]}: 7 trial steps"

    def test_rejected_steps_count_toward_the_bound(self, monkeypatch):
        # a forcing that jumps at t = 0.5 makes error control reject steps
        def rhs(t, y):
            return (0.0 if t < 0.5 else 50.0), -y[1]

        stats = integrate(rhs, (0.0, (1.0, 1.0)), 1.0, 1e-8).stats
        assert stats.n_rejected > 0
        monkeypatch.setattr(integrator, "MAX_STEPS", stats.n_accepted + stats.n_rejected)
        assert integrate(rhs, (0.0, (1.0, 1.0)), 1.0, 1e-8).stats == stats
        monkeypatch.setattr(integrator, "MAX_STEPS", stats.n_accepted + stats.n_rejected - 1)
        with pytest.raises(WorkBoundError):
            integrate(rhs, (0.0, (1.0, 1.0)), 1.0, 1e-8)


class TestFieldContract:
    """integrate stores each stage derivative as two scalars, so rhs must
    return exactly two numbers: a tuple or a shape-(2,) array."""

    @pytest.mark.parametrize("bad", [(1.0,), np.array([1.0]), (1.0, 2.0, 3.0), 1.0, None],
                             ids=["one", "one-array", "three", "scalar", "none"])
    @pytest.mark.parametrize("at_call", [1, 4], ids=["initial", "later-stage"])
    def test_a_field_of_other_than_two_values_is_rejected(self, bad, at_call):
        # a single value must not broadcast into both components
        calls = []

        def rhs(t, y):
            calls.append(t)
            return bad if len(calls) == at_call else (y[1], -y[0])

        with pytest.raises(ValueError) as excinfo:
            integrate(rhs, (0.0, (1.0, 0.0)), 1.0, 1e-8)
        assert len(calls) == at_call
        assert str(excinfo.value) == f"rhs must return two numbers; at t={calls[-1]} it returned {bad!r}"
        assert excinfo.value.__cause__ is None and excinfo.value.__suppress_context__

    @pytest.mark.parametrize("error", [ValueError("inside"), TypeError("inside"), ZeroDivisionError("inside")])
    @pytest.mark.parametrize("at_call", [1, 4], ids=["initial", "later-stage"])
    def test_an_error_raised_by_the_field_passes_through(self, error, at_call):
        calls = []

        def rhs(t, y):
            calls.append(t)
            if len(calls) == at_call:
                raise error
            return y[1], -y[0]

        with pytest.raises(type(error)) as excinfo:
            integrate(rhs, (0.0, (1.0, 0.0)), 1.0, 1e-8)
        assert excinfo.value is error

    def test_an_array_field_gives_the_tuple_field_bits(self):
        rhs = hamiltonian_field(canonical_potential())
        as_tuple = integrate(rhs, (0.0, (0.3, -0.4)), 2.0, 1e-10, guard=hamiltonian_guard)
        as_array = integrate(lambda t, y: np.array(rhs(t, y)), (0.0, (0.3, -0.4)), 2.0, 1e-10,
                             guard=hamiltonian_guard)
        assert as_array.stats == as_tuple.stats
        for name in ("ts", "states", "coeffs"):
            assert np.array(getattr(as_array, name)).tobytes() == np.array(getattr(as_tuple, name)).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_stage_that_is_not_finite_ends_in_step_underflow(self, bad):
        # every trial step that reaches past t = 0.5 sees the bad derivative
        def rhs(t, y):
            return (bad if t > 0.5 else 1.0), -y[1]

        with pytest.raises(NumericError) as excinfo:
            integrate(rhs, (0.0, (0.0, 1.0)), 1.0, 1e-8)
        message = str(excinfo.value)
        assert "\n" not in message
        assert message.startswith("step size underflow at t=")
        t_stop = float(message.split("t=")[1].split()[0])
        assert 0.5 - 1e-12 <= t_stop <= 0.5


class TestStageErrors:
    """Every stage reports a return that is not two numbers at its own time,
    and passes the field's own errors through."""

    @pytest.mark.parametrize("at_call", range(2, 20))
    # a pair of strings unpacks, and fails only in the arithmetic on it: a later stage's state, z, the error
    # or, for the last stage, the check that it is two numbers
    @pytest.mark.parametrize("bad", [None, ("a", "b"), ValueError("inside")], ids=["none", "strings", "error"])
    def test_each_stage_names_its_own_time(self, bad, at_call):
        # call 2 is the starting-step probe, calls 3-17 are stages 2-16 of the first step, which passes, and
        # calls 18 and 19 the next step's first two
        calls = []

        def rhs(t, y):
            calls.append(t)
            if len(calls) != at_call:
                return y[1], -y[0]
            if isinstance(bad, Exception):
                raise bad
            return bad

        with pytest.raises(ValueError) as excinfo:
            integrate(rhs, (0.0, (1.0, 0.0)), 1.0, 1e-8)
        assert len(calls) == at_call
        if isinstance(bad, Exception):
            assert excinfo.value is bad
        else:
            assert str(excinfo.value) == f"rhs must return two numbers; at t={calls[-1]} it returned {bad!r}"
            assert excinfo.value.__cause__ is None and excinfo.value.__suppress_context__


class TestGuards:
    def test_initial_violation_rejected(self):
        with pytest.raises(DomainError, match=r"violates the domain guard p <= -1e-09$"):
            integrate(lambda t, y: (0.0, 0.0), (0.0, (0.0, 1.0)), 1.0, 1e-8,
                      guard=hamiltonian_guard)

    def test_exit_reported_with_last_valid_time(self):
        # p rises linearly from -0.5 and crosses the guarded boundary at
        # t = 0.5 - 1e-9; bisection localizes the exit to ~1e-10 in t
        with pytest.raises(GuardViolation, match="guard p <= -1e-09 violated") as excinfo:
            integrate(lambda t, y: (0.0, 1.0), (0.0, (0.0, -0.5)), 1.0, 1e-10,
                      guard=hamiltonian_guard)
        t_exit = 0.5 - 1e-9
        assert t_exit - 1e-9 <= excinfo.value.last_valid_t <= t_exit

    def test_no_emitted_sample_violates_guard(self):
        try:
            integrate(lambda t, y: (0.0, 1.0), (0.0, (0.0, -0.5)), 1.0, 1e-10,
                      guard=hamiltonian_guard)
        except GuardViolation:
            pass
        traj = integrate(hamiltonian_field(canonical_potential()), (0.0, (0.0, -0.25)),
                         2.0, 1e-10, guard=hamiltonian_guard)
        assert np.all(np.array(traj.states)[:, 1] <= -1e-9)

    def test_blowup_reports_step_underflow(self):
        # dx/dt = x^2 from x=1 has a pole at t=1: a step size that underflows there ends a solve the integrator
        # cannot finish
        with pytest.raises(WorkBoundError) as excinfo:
            integrate(lambda t, y: (y[0] ** 2, 0.0), (0.0, (1.0, -1.0)), 2.0, 1e-8)
        message = str(excinfo.value)
        assert re.fullmatch(r"step size underflow at t=\S+ \(stiffness or finite-time blow-up\)", message)
        assert abs(float(message.split("t=")[1].split()[0]) - 1.0) < 1e-6


class TestEnergyDrift:
    def test_autonomous_hamiltonian_nearly_conserved(self):
        P = canonical_potential()
        traj = integrate(hamiltonian_field(P), (0.0, (0.0, -0.25)), 2.0, 1e-10,
                         guard=hamiltonian_guard, system="hamiltonian")
        h0 = hamiltonian(P, 0.0, PhasePoint(0.0, -0.25))
        assert h0 == -1.0
        drift = max(
            abs(hamiltonian(P, t, PhasePoint(*s)) - h0)
            for t, s in zip(traj.ts, traj.states)
        )
        assert drift <= 1e-7


class TestSampleAt:
    def test_nodes_are_exact(self):
        traj = integrate(hamiltonian_field(canonical_potential()), (0.0, (0.0, -0.25)),
                         2.0, 1e-8, guard=hamiltonian_guard)
        for i in (0, len(traj.ts) // 2, len(traj.ts) - 1):
            np.testing.assert_array_equal(sample_at(traj, traj.ts[i]), traj.states[i])
        # the end node returns the stored state, not the last polynomial at u = 1, in floats and in arrays
        traj = Trajectory(ts=[0.0, 1.0], states=[(0.0, 0.0), (5.0, 5.0)], coeffs=array("d", [0.0, 0.0, 1.0, 1.0]))
        assert sample_at(traj, 1.0) == (5.0, 5.0) and sample_at(traj, [0.5, 1.0]) == [(0.5, 0.5), (5.0, 5.0)]
        np.testing.assert_array_equal(sample_at(traj, np.array([0.5, 1.0])), [(0.5, 0.5), (5.0, 5.0)])

    def test_constant_trajectory_resamples_to_constant(self):
        traj = integrate(lambda t, y: (0.0, 0.0), (0.0, (1.0, -1.0)), 5.0, 1e-10)
        for t in (0.1, 2.3, 4.99):
            np.testing.assert_array_equal(sample_at(traj, t), [1.0, -1.0])

    def test_linear_solution_interpolates_exactly(self):
        P = PotentialSpec(constant(0.0), constant(0.0), constant(0.0))
        traj = integrate(hamiltonian_field(P), (0.0, (0.0, -1.0)), 2.0, 1e-10,
                         guard=hamiltonian_guard)
        s = sample_at(traj, 0.37)
        assert abs(s[0] - 0.37) < 1e-12
        assert abs(s[1] + 1.0) < 1e-12

    def test_exact_on_cubics(self):
        # step polynomials taken from a cubic's Taylor expansion at each node,
        # h^k y^(k) / k!, reproduce the cubic between the nodes
        ts = np.linspace(0.0, 2.0, 9)
        poly = lambda t: np.column_stack([t**3 - 2 * t**2 + 3 * t - 1, 2 * t**3 + t])
        dpoly = lambda t: np.column_stack([3 * t**2 - 4 * t + 3, 6 * t**2 + 1])
        d2poly = lambda t: np.column_stack([6 * t - 4, 12 * t])
        d3poly = lambda t: np.column_stack([np.full_like(t, 6.0), np.full_like(t, 12.0)])
        t, h = ts[:-1], np.diff(ts)[:, None]
        coeffs = np.stack([poly(t), h * dpoly(t), h**2 * d2poly(t) / 2, h**3 * d3poly(t) / 6,
                           np.zeros((len(t), 2))], axis=1)
        traj = Trajectory(ts=ts.tolist(), states=[tuple(s) for s in poly(ts).tolist()], system="generic",
                          coeffs=array("d", coeffs.ravel().tolist()))
        rng = np.random.default_rng(1)
        times = rng.uniform(0.0, 2.0, 50)
        for t in times:
            np.testing.assert_allclose(sample_at(traj, t), poly(np.array([t]))[0], atol=1e-12)
        # a degree other than the integrator's 7: the same bits in floats and in arrays
        np.testing.assert_array_equal(sample_at(traj, times), sample_at(traj, times.tolist()))

    def test_out_of_range_rejected(self):
        traj = integrate(lambda t, y: (0.0, 0.0), (0.0, (1.0, -1.0)), 1.0, 1e-10)
        for t in (-0.1, 1.1, np.nan, np.array([0.0, 0.5, 1.1, 1.0]), np.array([0.5, np.nan])):
            with pytest.raises(DomainError):
                sample_at(traj, t)

    def test_array_of_times_matches_scalar_calls_bitwise(self):
        traj = integrate(hamiltonian_field(canonical_potential()), (0.0, (0.0, -0.25)),
                         2.0, 1e-8, guard=hamiltonian_guard)
        rng = np.random.default_rng(2)
        # every node (t0 and t_end included) plus off-node times, unsorted
        times = np.concatenate([traj.ts, rng.uniform(0.0, 2.0, 200)])
        rng.shuffle(times)
        batch = sample_at(traj, times)
        assert batch.shape == (len(times), 2)
        np.testing.assert_array_equal(batch, np.vstack([sample_at(traj, t) for t in times]))
        np.testing.assert_array_equal(batch, sample_at(traj, times.tolist()))
        np.testing.assert_array_equal(sample_at(traj, np.array(traj.ts)), traj.states)
        assert sample_at(traj, traj.ts) == traj.states
        assert sample_at(traj, traj.ts[-1]) == traj.states[-1]

    def test_step_polynomials_end_at_the_next_state(self):
        # each step's continuous extension at u = 1 is that step's end state
        rng = np.random.default_rng(3)
        for _ in range(10):
            P = random_potential(rng)
            (solution,) = draw_surviving_solutions(P, np.linspace(0.0, 2.0, 2), 1e-10, rng, 1)
            s0 = PhasePoint(*solution.states[0])
            # the (x, p) field, the chart field solve_hamiltonian integrates, and riccati2
            trajs = [integrate(hamiltonian_field(P), (0.0, s0), 2.0, 1e-10, guard=hamiltonian_guard),
                     integrate(partial(affine_rhs, P), (0.0, _to_affine(*s0)), 2.0, 1e-10),
                     integrate(partial(riccati2_rhs, coefficients_from_potential(P)),
                               (0.0, legendre_inverse(P, 0.0, s0)), 2.0, 1e-10)]
            for traj in trajs:
                states, coeffs = np.array(traj.states), _coeffs(traj)
                assert coeffs.shape == (len(traj.ts) - 1, 8, 2)
                assert np.array_equal(coeffs[:, 0], states[:-1])
                end = states[:-1] + coeffs[:, 1:].sum(axis=1)
                scale = np.maximum(1.0, np.maximum(np.abs(states[:-1]), np.abs(states[1:])))
                assert np.all(np.abs(end - states[1:]) <= 4 * np.finfo(float).eps * scale)

    def test_integral_drift_checks_pass_on_seeded_potentials(self):
        # with cubic Hermite sampling, seed 1 failed the F0 drift check
        # (1.1e-7 against the 1e-7 threshold)
        for seed in range(12):
            rng = np.random.default_rng(seed)
            P = random_potential(rng)
            failed = [r.line() for r in suite_integrals(P, 0.0, 2.0, 1e-10, rng) if not r.passed]
            assert not failed, (seed, failed)

    def test_derivative_free_trajectories_not_resampled(self):
        traj = Trajectory(ts=[0.0, 1.0], states=[(0.0, 0.0), (0.0, 0.0)], system="superposed")
        with pytest.raises(ValueError):
            sample_at(traj, 0.5)


# floats of either sign over the whole exponent range, the moderate range the
# solves see, and the values a blow-up or an underflow produces
_STAGE_VALUES = st.one_of(
    st.floats(width=64),
    st.floats(-1e5, 1e5),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _dop853():
    """scipy's DOP853 tableau, which shares no code with the package."""
    return pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")


def _same_float(a, b):
    """Equal bit patterns; any two NaNs match, since their payloads depend on the hardware."""
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


class _Stop(Exception):
    pass


class TestStageSums:
    """integrate forms each stage state, the 8th-order state z among them, as
    y + h times the tableau row's left-to-right float sum over the earlier
    stage derivatives, without the row's zero weights: plain IEEE
    operations, the same bits on every host."""

    @settings(max_examples=300)
    @given(arrays(np.float64, (18, 2), elements=_STAGE_VALUES), st.tuples(_STAGE_VALUES, _STAGE_VALUES),
           st.sampled_from([1e-8, 1e300]))
    # 0.05 k rounds to -0.0 and keeps its sign: a sum that started from +0.0 would turn y = -0.0 into 0.0
    @example(np.full((18, 2), -5e-324), (-0.0, -0.0), 1e-8)
    @example(np.linspace(-3.0, 5.0, 36).reshape(18, 2), (0.5, -0.25), 1e300)  # stages 13-16 run
    def test_each_stage_state_is_the_left_to_right_float_sum(self, K, y, tol):
        # call 1 is stage 1 and call 2 the starting-step probe; calls 3-13 are stages 2-12 of the first trial
        # step and, where its error passes (tol 1e300 lets most pass), calls 14-17 are its stages 13-16,
        # stage 13 at (t0 + h, z); the 18th call is of the next trial step, unless a starting step near the
        # underflow bound (from a large first derivative) ends the solve after the first
        dop = _dop853()
        A, C = dop.A.tolist(), dop.C.tolist()
        log = []

        def rhs(t, state):
            log.append((t, state))
            if len(log) == len(K):
                raise _Stop
            return tuple(K[len(log) - 1].tolist())

        with pytest.raises((_Stop, WorkBoundError)):
            integrate(rhs, (0.0, y), 1.0, tol, max_step=0.5)
        k = K[:1].tolist() + K[2:].tolist()  # stage j's derivative is k[j - 1]
        h = log[12][0]  # stage 12 sits at t0 + h
        for j in range(2, 17 if len(log) > 13 and log[13][0] == h else 13):
            t, state = log[j]
            assert t == C[j - 1] * h, j
            for m in range(2):
                terms = [w * k[i][m] for i, w in enumerate(A[j - 1][:j - 1]) if w]
                assert _same_float(state[m], y[m] + h * reduce(operator.add, terms)), (j, m)


def _terms(node):
    """[(j, w, m)] of a sum w * kj_m +- ... written out left to right, term by term; a difference negates w."""
    if isinstance(node.op, ast.Mult):
        j, m = node.right.id.removeprefix("k").split("_")
        return [(int(j), ast.literal_eval(node.left), int(m))]
    assert isinstance(node.op, (ast.Add, ast.Sub)), ast.dump(node)
    (j, w, m), = _terms(node.right)
    return _terms(node.left) + [(j, -w if isinstance(node.op, ast.Sub) else w, m)]


def _row(node, m):
    """{j: the bits of w} of a written-out sum over component m's stage derivatives."""
    terms = _terms(node)
    assert {term[2] for term in terms} == {m} and all(type(w) is float for _, w, _ in terms)
    return {j: w.hex() for j, w, _ in terms}


def _state_row(node, m):
    """The row of a stage state y_m + h * (sum) written out for component m."""
    assert ast.unparse(node).startswith(f"y{m} + h * ("), ast.unparse(node)
    return _row(node.right.right, m)


def _scipy_row(weights):
    """{j: the bits of w} of a scipy row over the stage derivatives k1, k2, ..., zero weights left out."""
    return {j: w.hex() for j, w in enumerate(weights.tolist(), start=1) if w}


class TestWrittenOutWeights:
    """The weights `integrate` writes out as literals are scipy's DOP853
    coefficients, bit for bit, in both components: each stage's node and
    row (C and A), the 8th-order weights (B), the 5th- and 3rd-order error
    weights (E5 and E3), and the continuous extension's rows (D), which give
    its F3..F6."""

    def test_each_weight_is_scipys(self):
        dop = _dop853()
        tree = ast.parse(textwrap.dedent(inspect.getsource(integrator.integrate)))
        assigns = sorted((n for n in ast.walk(tree) if isinstance(n, ast.Assign)), key=lambda n: n.lineno)
        named = {n.targets[0].id: n.value for n in assigns if isinstance(n.targets[0], ast.Name)}
        stages, state = {}, None
        for node in assigns:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id == "u":
                state = [_state_row(value, m) for m, value in enumerate(node.value.elts)]
            elif len(node.targets) == 2 and isinstance(node.value, ast.Call) and node.value.func.id == "rhs":
                j = int(node.targets[1].elts[0].id.removeprefix("k").split("_")[0])
                time, arg = node.value.args
                c = 1.0 if ast.unparse(time.value) == "t + h" else ast.literal_eval(time.value.right.left)
                if ast.unparse(arg) == "(z0, z1)":
                    stages[j] = c, [_state_row(named[f"z{m}"], m) for m in range(2)]
                else:
                    stages[j] = c, state
        assert sorted(stages) == list(range(2, 17))
        for j, (c, rows) in stages.items():
            assert c.hex() == dop.C[j - 1].item().hex(), j
            assert rows == [_scipy_row(dop.A[j - 1, :j - 1])] * 2, j
        # stage 13 sits at (t + h, z): its row is B
        assert stages[13][1] == [_scipy_row(dop.B)] * 2
        for name, weights in (("q", dop.E5[:12]), ("r", dop.E3[:12])):
            for m in range(2):
                assert ast.unparse(named[f"{name}{m}"].right) == "sc"
                assert _row(named[f"{name}{m}"].left, m) == _scipy_row(weights), (name, m)
        assert not dop.E5[12] and not dop.E3[12]
        # F3..F6 are h times D's rows over the sixteen stage derivatives
        for r, weights in enumerate(dop.D, start=3):
            for m in range(2):
                assert ast.unparse(named[f"f{r}_{m}"].left) == "h"
                assert _row(named[f"f{r}_{m}"].right, m) == _scipy_row(weights), (r, m)


class TestDotRounding:
    """liealg.compose and the `verify` action check compute their products
    with `@` over stacks of 2x2 matrices, where one trial at a time would call
    `.dot` per matrix.  Both reach the same BLAS kernels; these pin how they
    round, to the bit pattern, so that a BLAS build where they differ fails
    here instead of shifting check residuals."""

    @settings(max_examples=300)
    @given(arrays(np.float64, (3, 2, 2), elements=_STAGE_VALUES), _STAGE_VALUES, _STAGE_VALUES)
    def test_two_by_two_products_are_the_matmul_bits(self, M, v0, v1):
        A, B, C = M
        with np.errstate(all="ignore"):
            assert np.array_equal(_bits(A.dot(B)), _bits(A @ B))
            assert np.array_equal(_bits(A.dot(B).dot(C)), _bits(A @ B @ C))
            assert np.array_equal(_bits(A.dot((v0, v1))), _bits(A @ (v0, v1)))

    @settings(max_examples=300)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        arrays(np.float64, (n, 2, 2), elements=_STAGE_VALUES), arrays(np.float64, (n, 2, 2), elements=_STAGE_VALUES),
        arrays(np.float64, (n, 2, 2), elements=_STAGE_VALUES), arrays(np.float64, (n, 2), elements=_STAGE_VALUES))))
    def test_stacked_products_are_the_per_slice_bits(self, stacks):
        A, B, C, v = stacks
        with np.errstate(all="ignore"):
            assert np.array_equal(_bits(A @ B), _bits([a.dot(b) for a, b in zip(A, B)]))
            assert np.array_equal(_bits(A @ B @ C), _bits([a.dot(b).dot(c) for a, b, c in zip(A, B, C)]))
            assert np.array_equal(_bits(A @ v[..., None]), _bits([a.dot(w)[:, None] for a, w in zip(A, v)]))
