"""Tests of the verification suites' verdicts and of their redraw branches."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from riccati_lie import liealg, superpose, suites
from riccati_lie.errors import DomainError, GenericityError, GuardViolation, NumericError
from riccati_lie.model import PotentialSpec
from riccati_lie.suites import (
    CheckResult,
    _relative_deviation,
    draw_surviving_solutions,
    random_phase_points,
    suite_action,
    suite_superposition,
)
from riccati_lie.timefn import constant

CANONICAL = PotentialSpec(constant(0.0), constant(0.0), constant(1.0))


class TestCheckResult:
    @pytest.mark.parametrize("residual, passed", [(0.0, True), (1.0, True), (1.5, False),
                                                  (float("nan"), False)])
    def test_verdict_is_read_off_the_residual(self, residual, passed):
        result = CheckResult("c", residual, 1.0)
        assert result.passed is passed
        assert result.line().startswith("PASS c " if passed else "FAIL c ")

    def test_relative_deviation_propagates_nan(self):
        want = np.array([[1.0, -1.0], [2.0, -2.0]])
        got = want.copy()
        assert suites._relative_deviation(got, want) == 0.0
        got[0, 1] = np.nan
        assert np.isnan(suites._relative_deviation(got, want))


def _failing_first(monkeypatch, module, name, errors):
    """Replace module.name by a wrapper raising errors[i] on call i, unless
    it is None, then calling through; returns the list of the arguments of
    every call."""
    real, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        calls.append(args)
        if len(calls) <= len(errors) and errors[len(calls) - 1] is not None:
            raise errors[len(calls) - 1]
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestDrawSurvivingSolutions:
    def test_failed_integrations_are_redrawn(self, monkeypatch):
        calls = _failing_first(monkeypatch, suites, "solve_hamiltonian",
                               [NumericError("blow-up"), GuardViolation("guard", 0.5)])
        grid = np.linspace(0.0, 0.5, 11)
        trajs = draw_surviving_solutions(CANONICAL, grid, 1e-8, np.random.default_rng(1), 2)
        assert len(trajs) == 2 and len(calls) == 4
        assert len({tuple(args[1]) for args in calls}) == 4  # a fresh point per draw
        assert all(args[2] is grid for args in calls)

    def test_gives_up_after_max_draws(self, monkeypatch):
        calls = _failing_first(monkeypatch, suites, "solve_hamiltonian",
                               [NumericError("blow-up")] * suites._MAX_DRAWS)
        with pytest.raises(NumericError, match=rf"^could not find 3 solutions .* in {suites._MAX_DRAWS} draws"):
            draw_surviving_solutions(CANONICAL, np.linspace(0.0, 1.0, 11), 1e-8, np.random.default_rng(2), 3)
        assert len(calls) == suites._MAX_DRAWS


class TestSuiteSuperposition:
    def test_degenerate_inversion_batch_is_redrawn_whole(self, monkeypatch):
        calls = _failing_first(monkeypatch, superpose, "superpose_states",
                               [GenericityError("degenerate")])
        results = suite_superposition(CANONICAL, 0.0, 0.5, 1e-8, np.random.default_rng(3), 7)
        first, second = calls[0][0], calls[1][0]
        assert first.shape == second.shape == (7, 6)
        assert not np.any(first == second)  # every trial drawn again
        assert [(r.name, r.passed) for r in results] == [
            ("superposition.algebraic_inversion", True), ("superposition.reconstruction", True)]

    # superpose_states call 0 is the algebraic inversion; the reconstructions follow it

    def test_degenerate_reconstruction_is_redrawn(self, monkeypatch):
        calls = _failing_first(monkeypatch, superpose, "superpose_states",
                               [None, GenericityError("degenerate")])
        results = suite_superposition(CANONICAL, 0.0, 0.5, 1e-8, np.random.default_rng(4), 5)
        assert len(calls) == 3 and not np.any(calls[1][0] == calls[2][0])  # three new solutions
        assert results[1].name == "superposition.reconstruction" and results[1].passed

    def test_reconstruction_gives_up_after_20_draws(self, monkeypatch):
        calls = _failing_first(monkeypatch, superpose, "superpose_states",
                               [None] + [GenericityError("degenerate")] * 21)
        with pytest.raises(GenericityError, match="^no generic four-solution configuration found in 20 draws$"):
            suite_superposition(CANONICAL, 0.0, 0.5, 1e-8, np.random.default_rng(5), 5)
        assert len(calls) == 1 + 20


# --- the action check drawn and checked one trial at a time: the oracle of the batch --------


def _unimodular_one_at_a_time(rng):
    shear_u = np.array([[1.0, rng.uniform(-0.4, 0.4)], [0.0, 1.0]])
    shear_l = np.array([[1.0, 0.0], [rng.uniform(-0.4, 0.4), 1.0]])
    d = rng.uniform(-0.4, 0.4)
    return shear_u.dot(shear_l).dot(np.diag([math.exp(d), math.exp(-d)]))


def _element_one_at_a_time(rng):
    return liealg.GroupElement(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.4), _unimodular_one_at_a_time(rng))


def _suite_action_one_trial_at_a_time(rng, trials):
    """suite_action with its composition trials drawn, acted on and redrawn one at a time."""
    points = np.array(random_phase_points(rng, trials))
    moved = liealg.act(liealg.GroupElement(0.0, 0.0), points)
    results = [CheckResult("action.identity", _relative_deviation(moved, points), 1e-15)]
    pairs = []
    while len(pairs) < trials:
        s = random_phase_points(rng, 1)[0]
        g1, g2 = _element_one_at_a_time(rng), _element_one_at_a_time(rng)
        try:
            pairs.append((liealg.act(liealg.compose(g1, g2), s), liealg.act(g1, liealg.act(g2, s))))
        except DomainError:
            pass
    once, twice = np.swapaxes(pairs, 0, 1)
    results.append(CheckResult("action.composition", _relative_deviation(twice, once), 1e-12))
    deviations = []
    for direction, (coeff, fid) in liealg.FUNDAMENTAL_CORRESPONDENCE.items():
        points = random_phase_points(rng, max(1, trials // 5))
        deviations.append(liealg.fundamental_vf(direction, points) - coeff * liealg.fields(points)[0][:, fid - 1])
    results.append(CheckResult("action.fundamental_fields", float(np.max(np.abs(deviations))), 1e-12))
    return results


def _record(results):
    return [(r.name, np.float64(r.residual).tobytes(), r.threshold) for r in results]


class TestSuiteAction:
    @pytest.mark.parametrize("trials", [1, 2, 7, 100])
    def test_the_batch_is_the_one_trial_at_a_time_check(self, monkeypatch, trials):
        masks, law = [], liealg.group_law

        def kept_rows(*args):
            out = law(*args)
            masks.append(out[2])
            return out

        monkeypatch.setattr(liealg, "group_law", kept_rows)
        for seed in range(200):
            batch, one_at_a_time = np.random.default_rng(seed), np.random.default_rng(seed)
            want = _suite_action_one_trial_at_a_time(one_at_a_time, trials)
            assert _record(suite_action(batch, trials)) == _record(want), seed
            assert batch.bit_generator.state == one_at_a_time.bit_generator.state, seed
        assert sum(np.sum(~mask) for mask in masks) > 0  # the redraw rounds ran

    def test_a_trial_whose_middle_point_leaves_O_is_redrawn(self, monkeypatch):
        # the first trial's g2 takes sigma ~ 1e-160 to ~1e-163, whose square
        # underflows: act(g1, act(g2, s)) would raise DomainError there, though
        # every new sigma is positive (g1 adds lambda5 = 0.3)
        draws = []

        class FirstTrialUnderflows:
            def __init__(self):
                self.rng = np.random.default_rng(7)  # its first five trials stay on O

            def uniform(self, low, high, size=None):
                out = self.rng.uniform(low, high, size)
                if np.shape(out)[-1:] == (12,):
                    if not draws:
                        out[0] = (0.5, -1e-320, 0.0, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, math.log(1e3))
                    draws.append(out.copy())
                return out

        results = suite_action(FirstTrialUnderflows(), 5)
        assert [len(d) for d in draws] == [5, 1]
        assert [(r.name, r.passed) for r in results] == [
            ("action.identity", True), ("action.composition", True), ("action.fundamental_fields", True)]
        g1, g2 = suites._elements(draws[0][:1, 2:7]), suites._elements(draws[0][:1, 7:])
        once, twice, on_O = liealg.group_law(g1, g2, draws[0][:1, :2])
        assert not on_O[0] and once[0, 1] < 0.0 and twice[0, 1] < 0.0  # only the middle point left O


_BOUNDS = st.tuples(st.floats(-10.0, 10.0), st.floats(0.0, 10.0)).map(lambda lw: (lw[0], lw[0] + lw[1]))


class TestBatchedDraws:
    """The composition check's one (n, 12) draw per round is the stream of
    per-trial scalar and size-1 draws, and its element builder the per-trial
    product, to the bit."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 2**63), st.integers(1, 40), st.lists(_BOUNDS, min_size=12, max_size=12))
    def test_one_draw_of_n_rows_is_the_per_trial_draws(self, seed, n, bounds):
        low, high = np.transpose(bounds)
        batch, one_at_a_time = np.random.default_rng(seed), np.random.default_rng(seed)
        got = batch.uniform(low, high, (n, 12))
        # per trial: x and p as size-1 draws, as random_phase_points(rng, 1) takes them, then scalars
        want = [[float(one_at_a_time.uniform(lo, hi, 1)[0]) if j < 2 else one_at_a_time.uniform(lo, hi)
                 for j, (lo, hi) in enumerate(bounds)] for _ in range(n)]
        assert got.tobytes() == np.array(want).tobytes()
        assert batch.bit_generator.state == one_at_a_time.bit_generator.state

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(arrays(np.float64, (8, 3), elements=st.floats(-0.4, 0.4)))
    def test_the_element_builder_is_the_per_trial_product(self, bcd):
        draws = np.column_stack((np.zeros((8, 2)), bcd))
        got = suites._elements(draws).A
        want = [np.array([[1.0, b], [0.0, 1.0]]).dot(np.array([[1.0, 0.0], [c, 1.0]]))
                .dot(np.diag([math.exp(d), math.exp(-d)])) for b, c, d in bcd.tolist()]
        assert got.tobytes() == np.array(want).tobytes()
