"""Randomized verification suites behind the `verify` CLI command.

Each suite returns a list of CheckResult records; a suite passes when
every record does.  All randomness flows through a caller-supplied
numpy Generator so runs are reproducible from the scenario seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import liealg, superpose
from .errors import DomainError, GenericityError, GuardViolation, NumericError
from .integrator import hamiltonian_guard, integrate, sample_at
from .model import PhasePoint, PotentialSpec, hamiltonian_field
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
_UNIMODULAR_SPREAD = 0.4  # range of the shear and log-dilation parameters of a random A


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    threshold: float

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
        terms = [Poly(tuple(r.uniform(-amp, amp, 2)))]
        terms.append(Sin(r.uniform(-amp, amp), r.uniform(0.5, 2.0), r.uniform(0.0, 2.0 * math.pi)))
        return TimeFn(tuple(terms))

    base = rng.uniform(*_A2_BASE)
    amp = rng.uniform(0.0, _A2_WOBBLE * base)
    a2 = TimeFn((Poly((base,)), Cos(amp, rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi))))
    return PotentialSpec(low_order(rng), low_order(rng), a2)


def random_phase_points(rng, n: int, x_range=(-3.0, 3.0), p_range=(-4.0, -0.25)):
    xs = rng.uniform(*x_range, n)
    ps = rng.uniform(*p_range, n)
    return [PhasePoint(float(x), float(p)) for x, p in zip(xs, ps)]


def draw_surviving_solutions(P, t0, t1, tol, rng, n: int):
    """Integrate n Hamiltonian solutions of P over [t0, t1] from random
    initial points, redrawing any that blow up or leave the half-plane."""
    out = []
    attempts = 0
    while len(out) < n:
        if attempts >= _MAX_DRAWS:
            raise NumericError(
                f"could not find {n} solutions surviving [{t0}, {t1}] in {_MAX_DRAWS} draws"
            )
        attempts += 1
        ic = random_phase_points(rng, 1, x_range=(-0.8, 0.8), p_range=(-2.0, -0.5))[0]
        try:
            traj = integrate(hamiltonian_field(P), (t0, ic), t1, tol,
                             guard=hamiltonian_guard, system="hamiltonian")
        except (NumericError, GuardViolation):
            continue
        out.append(traj)
    return out


def suite_brackets(P, rng, trials: int) -> list:
    """Commutation table, structure assertions, and the RHS decomposition."""
    points = random_phase_points(rng, trials)
    table_res = liealg.check_commutation_table(points)
    results = [CheckResult("brackets.commutation_table", table_res <= 1e-10, table_res, 1e-10)]

    for name, ok in liealg.levi_structure_check().items():
        results.append(CheckResult(f"brackets.levi.{name}", ok, 0.0 if ok else 1.0, 0.5))

    worst = 0.0
    for s in random_phase_points(rng, trials):
        t = float(rng.uniform(0.0, 2.0))
        res = liealg.decompose_rhs_check(P, t, s)
        worst = max(worst, res / (1.0 + max(abs(s.x), abs(s.p))))
    results.append(CheckResult("brackets.rhs_decomposition", worst <= 1e-14, worst, 1e-14))
    return results


def _random_unimodular(rng) -> np.ndarray:
    spread = _UNIMODULAR_SPREAD
    shear_u = np.array([[1.0, rng.uniform(-spread, spread)], [0.0, 1.0]])
    shear_l = np.array([[1.0, 0.0], [rng.uniform(-spread, spread), 1.0]])
    d = rng.uniform(-spread, spread)
    return shear_u @ shear_l @ np.diag([math.exp(d), math.exp(-d)])


def _random_element(rng) -> liealg.GroupElement:
    """A translation pair and a _random_unimodular matrix."""
    return liealg.GroupElement(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.4), _random_unimodular(rng))


def suite_action(rng, trials: int) -> list:
    """Identity axiom, the group law, fundamental-field correspondences."""
    results = []

    worst = 0.0
    for s in random_phase_points(rng, trials):
        moved = liealg.act(liealg.GroupElement(0.0, 0.0), s)
        scale = max(1.0, abs(s.x), abs(s.p))
        worst = max(worst, abs(moved.x - s.x) / scale, abs(moved.p - s.p) / scale)
    results.append(CheckResult("action.identity", worst <= 1e-15, worst, 1e-15))

    worst = 0.0
    checked = 0
    while checked < trials:
        s = random_phase_points(rng, 1)[0]
        g1, g2 = _random_element(rng), _random_element(rng)
        try:
            once = liealg.act(liealg.compose(g1, g2), s)
            twice = liealg.act(g1, liealg.act(g2, s))
        except DomainError:
            continue
        scale = max(1.0, abs(once.x), abs(once.p))
        worst = max(worst, abs(once.x - twice.x) / scale, abs(once.p - twice.p) / scale)
        checked += 1
    results.append(CheckResult("action.composition", worst <= 1e-12, worst, 1e-12))

    worst = 0.0
    n_dir = max(1, trials // 5)
    for direction, (coeff, fid) in liealg.FUNDAMENTAL_CORRESPONDENCE.items():
        points = random_phase_points(rng, n_dir)
        got = liealg.fundamental_vf(direction, points)
        want = coeff * liealg.fields(points)[0][:, fid - 1]
        worst = max(worst, float(np.max(np.abs(got - want))))
    results.append(CheckResult("action.fundamental_fields", worst <= 1e-12, worst, 1e-12))
    return results


def suite_integrals(P, t0, t1, tol, rng) -> list:
    """Drift of F0, F1, F2 along four simultaneously integrated solutions."""
    trajs = draw_surviving_solutions(P, t0, t1, tol, rng, 4)
    grid = np.linspace(t0, t1, _CHECK_GRID)
    k = superpose.constants_from_four([sample_at(tr, grid).T for tr in trajs])
    values = np.column_stack((k.F0, k.k1, k.k2))
    start, drift = values[0], np.max(np.abs(values - values[0]), axis=0)
    results = []
    for j, name in enumerate(("F0", "F1", "F2")):
        threshold = 1e-7 * max(1.0, abs(start[j]))
        results.append(CheckResult(f"integrals.{name}_drift", bool(drift[j] <= threshold),
                                   float(drift[j]), threshold))
    return results


def suite_superposition(P, t0, t1, tol, rng, trials: int) -> list:
    """Algebraic inversion of the rule and reconstruction against integration."""
    results = []

    worst = 0.0
    checked = 0
    while checked < trials:
        xi0, xi1, xi2, xi3 = random_phase_points(rng, 4)
        tup = superpose.PhaseTuple(xi0, xi1, xi2, xi3)
        try:
            rec = superpose.superpose_point(xi1, xi2, xi3, superpose.constants_from_four(tup))
        except GenericityError:
            continue
        scale = max(1.0, abs(xi0.x), abs(xi0.p))
        worst = max(worst, abs(rec.x - xi0.x) / scale, abs(rec.p - xi0.p) / scale)
        checked += 1
    results.append(CheckResult("superposition.algebraic_inversion", worst <= 1e-9, worst, 1e-9))

    for attempt in range(20):
        trajs = draw_surviving_solutions(P, t0, t1, tol, rng, 4)
        grid = np.linspace(t0, t1, _CHECK_GRID)
        k = superpose.constants_from_four(superpose.PhaseTuple(*(tr.states[0] for tr in trajs)))
        try:
            rec = superpose.superpose_trajectory(trajs[1], trajs[2], trajs[3], k, grid)
        except GenericityError:
            continue
        break
    else:
        raise GenericityError("no generic four-solution configuration found in 20 draws")
    direct = sample_at(trajs[0], grid)
    scale = max(1.0, float(np.max(np.abs(direct))))
    err = float(np.max(np.abs(rec.states - direct))) / scale
    results.append(CheckResult("superposition.reconstruction", err <= 1e-5, err, 1e-5))
    return results


def run_suites(which: str, P, t0, t1, tol, rng, trials: int) -> list:
    """Dispatch by suite name ('all' runs everything)."""
    results = []
    if which in ("brackets", "all"):
        results.extend(suite_brackets(P, rng, trials))
    if which in ("action", "all"):
        results.extend(suite_action(rng, trials))
    if which in ("integrals", "all"):
        results.extend(suite_integrals(P, t0, t1, tol, rng))
    if which in ("superposition", "all"):
        results.extend(suite_superposition(P, t0, t1, tol, rng, trials))
    return results
