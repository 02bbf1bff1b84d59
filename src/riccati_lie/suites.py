"""Randomized verification suites behind the `verify` CLI command.

Each suite returns CheckResult records and passes when every one does.  All
randomness flows through a caller-supplied numpy Generator, so a run repeats
from the scenario seed.  A check that draws its cases as one batch (the group
law's in rounds, redrawing the cases that leave O) draws what drawing one case
at a time would: the same cases, residuals and final generator state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import liealg, superpose
from .errors import GenericityError, GuardViolation, NumericError, WorkBoundError
# nothing here calls `integrate` (solutions come from `solve_hamiltonian`); it stays
# bound because bench/tests/test_bench.py checks that the tracer rebinds it here too
from .integrator import integrate  # noqa: F401
from .model import PhasePoint, PotentialSpec, solve_hamiltonian
from .timefn import Cos, Poly, Sin, TimeFn

__all__ = [
    "CheckResult",
    "random_potential",
    "random_phase_points",
    "draw_surviving_solutions",
    "suite_brackets",
    "suite_action",
    "suite_integrals",
    "suite_superposition",
    "run_suites",
]

_LOW_ORDER_AMP = 0.4  # largest coefficient and sine amplitude of a random a0, a1
_A2_BASE = (0.8, 1.6)  # range of the constant part of a random a2
_A2_WOBBLE = 0.4  # largest cosine amplitude of a random a2, relative to its constant
_MAX_DRAWS = 80  # initial points tried per draw_surviving_solutions call
_CHECK_GRID = 41  # grid points of the drift and reconstruction checks
_ELEMENT_RANGES = ((-0.3, 0.3), (-0.2, 0.4)) + ((-0.4, 0.4),) * 3  # (lambda1, lambda5, b, c, d): see _elements
_X_RANGE, _P_RANGE = (-3.0, 3.0), (-4.0, -0.25)  # default ranges of random phase points


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        """residual <= threshold: a NaN residual, which numpy reductions keep, fails."""
        return self.residual <= self.threshold

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} residual={self.residual:.3e} threshold={self.threshold:.3e}"


def random_potential(rng) -> PotentialSpec:
    """Random quadratic potential with a2 bounded away from zero.

    a0, a1 are degree-1 polynomials plus one sine term, each coefficient
    and amplitude <= _LOW_ORDER_AMP; a2 is a constant in _A2_BASE plus a
    cosine whose amplitude is at most _A2_WOBBLE times that constant, so
    min a2 >= (1 - _A2_WOBBLE) * _A2_BASE[0].
    """

    def low_order(r):
        amp = _LOW_ORDER_AMP
        terms = [Poly(tuple(r.uniform(-amp, amp, 2).tolist()))]
        terms.append(Sin(r.uniform(-amp, amp), r.uniform(0.5, 2.0), r.uniform(0.0, 2.0 * math.pi)))
        return TimeFn(tuple(terms))

    base = rng.uniform(*_A2_BASE)
    amp = rng.uniform(0.0, _A2_WOBBLE * base)
    a2 = TimeFn((Poly((base,)), Cos(amp, rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi))))
    return PotentialSpec(low_order(rng), low_order(rng), a2)


def random_phase_points(rng, n: int, x_range=_X_RANGE, p_range=_P_RANGE):
    xs = rng.uniform(*x_range, n)
    ps = rng.uniform(*p_range, n)
    return [PhasePoint(float(x), float(p)) for x, p in zip(xs, ps)]


def _relative_deviation(got, want) -> float:
    """max |got - want| / max(1, max |want| of the row) over rows of (x, p) pairs; NaN if any is."""
    scale = np.maximum(1.0, np.max(np.abs(want), axis=-1, keepdims=True))
    return float(np.max(np.abs(got - want) / scale))


def draw_surviving_solutions(P, grid, tol, rng, n: int):
    """n Hamiltonian solutions of P from random initial points at grid[0],
    each a `solve_hamiltonian` result: (x, p) rows at the grid times.  A
    draw whose solution overflows as (x, p), or leaves the half-plane (p <= -1e-9) at
    any time of [grid[0], grid[-1]], between the grid times too, is redrawn;
    one the integrator cannot finish (`WorkBoundError`: its work bound, or
    a step size that underflows) ends the draws."""
    out = []
    for _ in range(_MAX_DRAWS):
        ic = random_phase_points(rng, 1, x_range=(-0.8, 0.8), p_range=(-2.0, -0.5))[0]
        try:
            out.append(solve_hamiltonian(P, ic, grid, tol))
        except WorkBoundError:  # the coefficients, not the draw, set the work
            raise
        except (NumericError, GuardViolation):
            continue
        if len(out) == n:
            return out
    raise NumericError(f"could not find {n} solutions surviving [{grid[0]}, {grid[-1]}] "
                       f"in {_MAX_DRAWS} draws")


def suite_brackets(P, t0, t1, rng, trials: int) -> list:
    """Commutation table, structure assertions, and the RHS decomposition at times in [t0, t1]."""
    table_res = liealg.check_commutation_table(random_phase_points(rng, trials))
    results = [CheckResult("brackets.commutation_table", table_res, 1e-10)]

    for name, ok in liealg.levi_structure_check().items():
        results.append(CheckResult(f"brackets.levi.{name}", 0.0 if ok else 1.0, 0.5))

    points = np.array(random_phase_points(rng, trials))
    res = liealg.decompose_rhs_check(P, rng.uniform(t0, t1, trials), points)
    worst = float(np.max(res / (1.0 + np.max(np.abs(points), axis=1))))
    results.append(CheckResult("brackets.rhs_decomposition", worst, 1e-14))
    return results


def _elements(draws) -> liealg.GroupElement:
    """The stack of elements of the rows (lambda1, lambda5, b, c, d) of draws: A = [[1, b], [0, 1]]
    [[1, 0], [c, 1]] diag(e^d, e^-d), left to right, with math.exp (np.exp rounds some d otherwise)."""
    lambda1, lambda5, b, c, d = draws.T
    one, zero = np.ones_like(b), np.zeros_like(b)
    shears = np.stack((one, b, zero, one, one, zero, c, one), axis=-1).reshape(-1, 2, 2, 2)
    dilation = np.array([(math.exp(v), 0.0, 0.0, math.exp(-v)) for v in d.tolist()]).reshape(-1, 2, 2)
    return liealg.GroupElement(lambda1, lambda5, shears[:, 0] @ shears[:, 1] @ dilation)


def suite_action(rng, trials: int) -> list:
    """Identity axiom, the group law, fundamental-field correspondences."""
    points = np.array(random_phase_points(rng, trials))
    moved = liealg.act(liealg.GroupElement(0.0, 0.0), points)
    results = [CheckResult("action.identity", _relative_deviation(moved, points), 1e-15)]

    # a trial is x, p, then g1's and g2's _ELEMENT_RANGES; a round draws the trials still missing
    low, high = np.transpose((_X_RANGE, _P_RANGE) + _ELEMENT_RANGES * 2)
    pairs = np.empty((2, 0, 2))  # (once, twice) rows of the trials kept
    while pairs.shape[1] < trials:
        draws = rng.uniform(low, high, (trials - pairs.shape[1], 12))
        *got, on_O = liealg.group_law(_elements(draws[:, 2:7]), _elements(draws[:, 7:]), draws[:, :2])
        pairs = np.concatenate((pairs, np.stack(got)[:, on_O]), axis=1)
    once, twice = pairs
    results.append(CheckResult("action.composition", _relative_deviation(twice, once), 1e-12))

    deviations = []
    n_dir = max(1, trials // 5)
    for direction, (coeff, fid) in liealg.FUNDAMENTAL_CORRESPONDENCE.items():
        points = random_phase_points(rng, n_dir)
        got = liealg.fundamental_vf(direction, points)
        deviations.append(got - coeff * liealg.fields(points)[0][:, fid - 1])
    worst = float(np.max(np.abs(deviations)))
    results.append(CheckResult("action.fundamental_fields", worst, 1e-12))
    return results


def suite_integrals(P, t0, t1, tol, rng) -> list:
    """Drift of F0, F1, F2 along four separately integrated solutions of P."""
    trajs = draw_surviving_solutions(P, np.linspace(t0, t1, _CHECK_GRID), tol, rng, 4)
    k = superpose.constants_from_four([tr.states.T for tr in trajs])
    values = np.column_stack((k.F0, k.k1, k.k2))
    drift = np.max(np.abs(values - values[0]), axis=0)
    thresholds = 1e-7 * np.maximum(1.0, np.abs(values[0]))
    return [CheckResult(f"integrals.{name}_drift", float(d), bound)
            for name, d, bound in zip(("F0", "F1", "F2"), drift, thresholds)]


def suite_superposition(P, t0, t1, tol, rng, trials: int) -> list:
    """Algebraic inversion of the rule and reconstruction against integration."""
    low, high = np.transpose((_X_RANGE, _P_RANGE))[..., None]
    while True:
        # trial by trial four x, then four p, as random_phase_points(rng, 4) draws them;
        # indexed [copy, coordinate, trial]
        copies = rng.uniform(low, high, (trials, 2, 4)).T
        try:
            got = superpose.superpose_states(copies[1:].reshape(6, trials).T,
                                             superpose.constants_from_four(copies))
        except GenericityError:
            continue  # a degenerate trial redraws the whole batch
        break
    results = [CheckResult("superposition.algebraic_inversion",
                           _relative_deviation(got, copies[0].T), 1e-9)]

    grid = np.linspace(t0, t1, _CHECK_GRID)
    for _ in range(20):
        sols = [tr.states for tr in draw_surviving_solutions(P, grid, tol, rng, 4)]
        k = superpose.constants_from_four([s[0] for s in sols])
        try:
            rec = superpose.superpose_states(np.hstack(sols[1:]), k, ts=grid)
        except GenericityError:
            continue
        break
    else:
        raise GenericityError("no generic four-solution configuration found in 20 draws")
    direct = sols[0]
    scale = max(1.0, float(np.max(np.abs(direct))))
    err = float(np.max(np.abs(rec - direct))) / scale
    results.append(CheckResult("superposition.reconstruction", err, 1e-5))
    return results


def run_suites(which: str, P, t0, t1, tol, rng, trials: int) -> list:
    """Dispatch by suite name ('all' runs everything)."""
    results = []
    if which in ("brackets", "all"):
        results.extend(suite_brackets(P, t0, t1, rng, trials))
    if which in ("action", "all"):
        results.extend(suite_action(rng, trials))
    if which in ("integrals", "all"):
        results.extend(suite_integrals(P, t0, t1, tol, rng))
    if which in ("superposition", "all"):
        results.extend(suite_superposition(P, t0, t1, tol, rng, trials))
    return results
