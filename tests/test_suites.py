"""Tests of the verification suites' verdicts and of their redraw branches."""

import numpy as np
import pytest

from riccati_lie import superpose, suites
from riccati_lie.errors import GenericityError, GuardViolation, NumericError
from riccati_lie.model import PotentialSpec
from riccati_lie.suites import CheckResult, draw_surviving_solutions, suite_superposition
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
