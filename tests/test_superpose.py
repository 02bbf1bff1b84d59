"""Tests for the first integrals and the superposition rule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati_lie import suites
from riccati_lie.errors import BranchError, DomainError, GenericityError
from riccati_lie.integrator import hamiltonian_guard, integrate, sample_at
from riccati_lie.model import PhasePoint, PotentialSpec, hamiltonian_field
from riccati_lie.superpose import (
    Constants,
    PhaseTuple,
    constants_from_four,
    cyclic_integral,
    superpose_point,
    superpose_states,
    superpose_trajectory,
)
from riccati_lie.suites import random_phase_points, random_potential
from riccati_lie.timefn import constant

XI0 = PhasePoint(0.0, -1.0)
XI1 = PhasePoint(1.0, -1.0)
XI2 = PhasePoint(2.0, -4.0)
XI3 = PhasePoint(3.0, -9.0)


class TestIntegrals:
    def test_F0_values(self):
        assert cyclic_integral(XI1, XI2, PhasePoint(0.0, -1.0)) == pytest.approx(1.0, rel=1e-15)
        assert cyclic_integral(XI1, XI2, XI3) == pytest.approx(-2.0, rel=1e-15)

    def test_F0_collapses_on_coincident_copies(self):
        assert cyclic_integral(XI1, XI1, XI3) == pytest.approx(0.0, abs=1e-15)

    def test_F1_F2_values(self):
        assert cyclic_integral(XI0, XI1, XI2) == pytest.approx(1.0, rel=1e-15)
        assert cyclic_integral(XI0, XI1, XI3) == pytest.approx(2.0, rel=1e-15)
        assert cyclic_integral(XI0, XI0, XI2) == pytest.approx(0.0, abs=1e-15)

    def test_momentum_domain_enforced(self):
        with pytest.raises(DomainError):
            cyclic_integral(XI1, XI2, PhasePoint(1.0, 0.0))

    def test_F0_cyclic_invariance(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            a, b, c = random_phase_points(rng, 3)
            v1 = cyclic_integral(a, b, c)
            v2 = cyclic_integral(b, c, a)
            v3 = cyclic_integral(c, a, b)
            assert v2 == pytest.approx(v1, rel=1e-15, abs=1e-15)
            assert v3 == pytest.approx(v1, rel=1e-15, abs=1e-15)


class TestConstants:
    def test_worked_tuple(self):
        k = constants_from_four(PhaseTuple(XI0, XI1, XI2, XI3))
        assert (k.k1, k.k2, k.F0) == (pytest.approx(1.0), pytest.approx(2.0), pytest.approx(-2.0))

    def test_all_copies_equal(self):
        k = constants_from_four(PhaseTuple(XI1, XI1, XI1, XI1))
        assert (k.k1, k.k2, k.F0) == (0.0, 0.0, 0.0)

    def test_copy0_equal_copy1_cancels_constants(self):
        k = constants_from_four(PhaseTuple(XI1, XI1, XI2, XI3))
        assert k.k1 == pytest.approx(0.0, abs=1e-15)
        assert k.k2 == pytest.approx(0.0, abs=1e-15)
        assert k.F0 == pytest.approx(-2.0, rel=1e-15)


class TestSuperposePoint:
    def test_worked_example(self):
        rec = superpose_point(XI1, XI2, XI3, Constants(1.0, 2.0, -2.0))
        assert rec.x == pytest.approx(0.0, abs=1e-15)
        assert rec.p == pytest.approx(-1.0, rel=1e-15)

    def test_zero_constants_select_first_solution(self):
        k = Constants(0.0, 0.0, cyclic_integral(XI1, XI2, XI3))
        rec = superpose_point(XI1, XI2, XI3, k)
        assert rec.x == pytest.approx(XI1.x, rel=1e-14)
        assert rec.p == pytest.approx(XI1.p, rel=1e-14)

    def test_degenerate_configuration_rejected(self):
        # two coincident copies force F0 = 0
        k = Constants(1.0, 2.0, cyclic_integral(XI1, XI1, XI3))
        with pytest.raises(GenericityError):
            superpose_point(XI1, XI1, XI3, k)

    def test_branch_exit_rejected(self):
        # with F0 = -2, s1 = 1, s3 = 3 and k2 = 0 the sqrt(-p0) bracket is
        # 1 - k1, so k1 = 2 exits the branch while the denominator stays safe
        F0 = cyclic_integral(XI1, XI2, XI3)
        with pytest.raises(BranchError):
            superpose_point(XI1, XI2, XI3, Constants(2.0, 0.0, F0))

    def test_tiny_sigma0_is_not_a_genericity_fault(self):
        # as above with k1 = 1 - 2**-43: sigma0 = 2**-43, so |F0| sigma0 = 2**-42
        # is below eps_gen = 3e-12.  That product is the paper's x0 denominator,
        # which is no guard of its own: |F0| clears its guard and sigma0 > 0
        F0 = cyclic_integral(XI1, XI2, XI3)
        rec = superpose_point(XI1, XI2, XI3, Constants(1.0 - 2.0**-43, 0.0, F0))
        assert rec == pytest.approx((4.0 - 3.0 * 2.0**43, -(2.0**-86)), rel=1e-15)

    def test_default_threshold_trips_on_tiny_F0(self):
        # every magnitude at most 1: the threshold is 1e-12 itself
        a, b, c = PhasePoint(0.0, -1.0), PhasePoint(0.5, -0.25), PhasePoint(1.0, -1.0)
        with pytest.raises(GenericityError, match=r"\|F0\|=1e-13 <= 1e-12$"):
            superpose_point(a, b, c, Constants(1.0, -0.5, 1e-13))

    def test_inverse_property_random_tuples(self):
        rng = np.random.default_rng(52)
        checked = 0
        while checked < 1000:
            xi0, xi1, xi2, xi3 = random_phase_points(rng, 4)
            k = constants_from_four(PhaseTuple(xi0, xi1, xi2, xi3))
            try:
                rec = superpose_point(xi1, xi2, xi3, k)
            except GenericityError:
                continue
            scale = max(1.0, abs(xi0.x), abs(xi0.p))
            assert abs(rec.x - xi0.x) <= 1e-9 * scale
            assert abs(rec.p - xi0.p) <= 1e-9 * scale
            checked += 1

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-4.0, -0.25)),
                    min_size=4, max_size=4))
    def test_inversion_property(self, points):
        xi0, xi1, xi2, xi3 = (PhasePoint(x, p) for x, p in points)
        k = constants_from_four(PhaseTuple(xi0, xi1, xi2, xi3))
        try:
            rec = superpose_point(xi1, xi2, xi3, k)
        except GenericityError:
            return
        z0, z1, z2, z3 = map(_affine, (xi0, xi1, xi2, xi3))
        # rec = xi1 + (k1/F0)(xi3 - xi1) - (k2/F0)(xi2 - xi1) in (u, sigma), and
        # each weight k/F0 carries the rounding of its two determinants, which is
        # relative to their unsigned terms S: to first order eps (S_k + |k/F0| S0)/|F0|.
        # The worst error seen is 0.66 eps times this size; the bound is 9 eps
        S0, S1, S2 = _det_terms(z1, z2, z3), _det_terms(z0, z1, z2), _det_terms(z0, z1, z3)
        w1 = (S1 + abs(k.k1 / k.F0) * S0) / abs(k.F0)
        w2 = (S2 + abs(k.k2 / k.F0) * S0) / abs(k.F0)
        size = np.abs(z1) + w1 * (np.abs(z3) + np.abs(z1)) + w2 * (np.abs(z2) + np.abs(z1))
        assert np.all(np.abs(_affine(rec) - z0) <= 2e-15 * size)

    def test_recovered_constants_match(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            xi1, xi2, xi3 = random_phase_points(rng, 3)
            k1, k2 = rng.uniform(-1.0, 1.0, 2)
            k = Constants(float(k1), float(k2), cyclic_integral(xi1, xi2, xi3))
            try:
                rec = superpose_point(xi1, xi2, xi3, k)
            except (GenericityError, BranchError):
                continue
            back = constants_from_four(PhaseTuple(rec, xi1, xi2, xi3))
            assert back.k1 == pytest.approx(k.k1, rel=1e-9, abs=1e-9)
            assert back.k2 == pytest.approx(k.k2, rel=1e-9, abs=1e-9)


def _affine(q):
    """(u, sigma) = (x sqrt(-p), sqrt(-p)), where the rule is affine."""
    sigma = math.sqrt(-q.p)
    return np.array([q.x * sigma, sigma])


def _det_terms(a, b, c):
    """|(b - a)_u (c - a)_sigma| + |(b - a)_sigma (c - a)_u|: the size of the
    two products whose difference is det(b - a, c - a)."""
    (bu, bs), (cu, cs) = np.abs(b - a), np.abs(c - a)
    return bu * cs + bs * cu


def _rows(*triples):
    return np.array([[*a, *b, *c] for a, b, c in triples])


def _reference_point(xi1, xi2, xi3, k):
    """The rule in the paper's (x, p) closed form, in plain float
    arithmetic, guards left out."""
    (x1, p1), (x2, p2), (x3, p3) = xi1, xi2, xi3
    s1, s2, s3 = math.sqrt(-p1), math.sqrt(-p2), math.sqrt(-p3)
    num = k.k1 * (s1 * x1 - s3 * x3) + k.k2 * (s2 * x2 - s1 * x1) - k.F0 * x1 * s1
    den = k.k1 * (s1 - s3) + k.k2 * (s2 - s1) - s1 * k.F0
    bracket = (k.k1 / k.F0) * (s3 - s1) + (k.k2 / k.F0) * (s1 - s2) + s1
    return (num / den, -bracket * bracket)


class TestSuperposeStates:
    def test_rows_match_float_reference_bitwise(self):
        _, trajs = _four_canonical_trajectories()
        grid = np.linspace(0.0, 1.0, 101)
        k = constants_from_four(PhaseTuple(*(PhasePoint(*tr.states[0]) for tr in trajs)))
        rows = np.hstack([sample_at(tr, grid) for tr in trajs[1:]])
        points = [[PhasePoint(float(x), float(p)) for x, p in row.reshape(3, 2)] for row in rows]
        got = superpose_states(rows, k)
        np.testing.assert_array_equal([superpose_point(*pts, k) for pts in points], got)
        # the library applies the rule in (u, sigma), the reference in (x, p):
        # they agree to 6.7e-16 relative to max(1, |x0|, |p0|) on these rows
        want = np.array([_reference_point(*pts, k) for pts in points])
        scale = np.maximum(1.0, np.max(np.abs(want), axis=1, keepdims=True))
        assert np.all(np.abs(got - want) <= 2e-15 * scale)

    def test_array_constants_match_one_row_calls_bitwise(self):
        rng = np.random.default_rng(57)
        copies = [np.array(random_phase_points(rng, 50)).T for _ in range(4)]
        k = constants_from_four(copies)
        rows = np.vstack(copies[1:]).T  # x1, p1, x2, p2, x3, p3
        got = superpose_states(rows, k)
        want = [superpose_states(row, Constants(k1, k2, F0))
                for row, k1, k2, F0 in zip(rows, k.k1.tolist(), k.k2.tolist(), k.F0.tolist())]
        assert got.tobytes() == np.array(want).tobytes()

    def test_array_constants_name_the_first_degenerate_row(self):
        rows = _rows((XI1, XI2, XI3), (XI1, XI2, XI3), (XI1, XI1, XI3))
        k = Constants(np.array([1.0, 1.0, 1.0]), np.array([2.0, 2.0, 2.0]), np.array([-2.0, 0.0, 0.0]))
        with pytest.raises(GenericityError, match=r"^at t=0\.5: degenerate configuration: \|F0\|=0\.0 <="):
            superpose_states(rows, k, ts=np.array([0.0, 0.5, 1.0]))

    def test_first_offending_row_sets_the_error(self):
        F0 = cyclic_integral(XI1, XI2, XI3)
        k = Constants(0.5, 0.0, F0)
        good = (XI1, XI2, XI3)
        branch = (XI1, XI2, PhasePoint(3.0, -36.0))  # bracket = (0.5 / -2)(6 - 1) + 1 < 0
        off_plane = (XI1, XI2, PhasePoint(3.0, 0.5))
        ts = np.array([0.0, 0.5, 1.0])
        with pytest.raises(BranchError, match=r"^at t=0\.5: no p<0"):
            superpose_states(_rows(good, branch, off_plane), k, ts=ts)
        with pytest.raises(DomainError, match=r"^at t=0\.5: momentum"):
            superpose_states(_rows(good, off_plane, branch), k, ts=ts)
        with pytest.raises(DomainError, match=r"^momentum"):
            superpose_states(_rows(good, off_plane, branch), k)

    def test_genericity_threshold_scales_per_row(self):
        # eps = 1e-12 * 3 on the first row, 1e-12 * 30 on the second
        k = Constants(0.0, 0.0, 1e-11)
        far = (XI1, XI2, PhasePoint(30.0, -9.0))
        rows = _rows((XI1, XI2, XI3), far)
        np.testing.assert_array_equal(superpose_states(rows[:1], k), [XI1])
        with pytest.raises(GenericityError, match=r"^at t=2\.0: degenerate configuration: \|F0\|"):
            superpose_states(rows, k, ts=np.array([1.0, 2.0]))


def _four_canonical_trajectories(t1=1.0, tol=1e-10):
    P = PotentialSpec(constant(0.0), constant(0.0), constant(1.0))
    ics = [(0.0, -0.25), (0.3, -1.0), (-0.2, -0.8), (0.1, -2.0)]
    return P, [
        integrate(hamiltonian_field(P), (0.0, ic), t1, tol,
                  guard=hamiltonian_guard, system="hamiltonian")
        for ic in ics
    ]


class TestConservation:
    def test_integrals_constant_along_four_solutions(self):
        _, trajs = _four_canonical_trajectories(t1=2.0)
        grid = np.linspace(0.0, 2.0, 41)

        def values(t):
            pts = [PhasePoint(*sample_at(tr, t)) for tr in trajs]
            return np.array([
                cyclic_integral(pts[1], pts[2], pts[3]),
                cyclic_integral(pts[0], pts[1], pts[2]),
                cyclic_integral(pts[0], pts[1], pts[3]),
            ])

        start = values(0.0)
        for t in grid:
            drift = np.abs(values(t) - start)
            assert np.all(drift <= 1e-7 * np.maximum(1.0, np.abs(start)))


class TestSuperposeTrajectory:
    def test_reconstruction_matches_direct_integration(self):
        _, trajs = _four_canonical_trajectories()
        grid = np.linspace(0.0, 1.0, 101)
        pts0 = [PhasePoint(*sample_at(tr, 0.0)) for tr in trajs]
        k = constants_from_four(PhaseTuple(*pts0))
        rec = superpose_trajectory(trajs[1], trajs[2], trajs[3], k, grid)
        assert rec.system == "superposed"
        direct = np.vstack([sample_at(trajs[0], t) for t in grid])
        assert np.max(np.abs(rec.states - direct)) <= 1e-5

    def test_zero_constants_return_first_trajectory(self):
        _, trajs = _four_canonical_trajectories()
        grid = np.linspace(0.0, 1.0, 11)
        pts0 = [PhasePoint(*sample_at(tr, 0.0)) for tr in trajs]
        k = Constants(0.0, 0.0, cyclic_integral(pts0[1], pts0[2], pts0[3]))
        rec = superpose_trajectory(trajs[1], trajs[2], trajs[3], k, grid)
        resampled = np.vstack([sample_at(trajs[1], t) for t in grid])
        np.testing.assert_allclose(rec.states, resampled, rtol=1e-12, atol=1e-12)

    def test_grid_outside_range_rejected(self):
        _, trajs = _four_canonical_trajectories()
        pts0 = [PhasePoint(*sample_at(tr, 0.0)) for tr in trajs]
        k = constants_from_four(PhaseTuple(*pts0))
        with pytest.raises(DomainError):
            superpose_trajectory(trajs[1], trajs[2], trajs[3], k, [0.0, 1.5])

    def test_degenerate_error_carries_time(self):
        _, trajs = _four_canonical_trajectories()
        k = Constants(1.0, 2.0, 0.0)  # F0 = 0 is never generic
        with pytest.raises(GenericityError, match="t="):
            superpose_trajectory(trajs[1], trajs[2], trajs[3], k, [0.5])


class TestConservationRandom:
    def test_random_scenario(self, monkeypatch):
        monkeypatch.setattr(suites, "_LOW_ORDER_AMP", 0.3)
        rng = np.random.default_rng(54)
        from riccati_lie.suites import draw_surviving_solutions

        P = random_potential(rng)
        grid = np.linspace(0.0, 2.0, 21)
        trajs = draw_surviving_solutions(P, grid, 1e-10, rng, 4)
        pts = lambda i: [PhasePoint(*tr.states[i]) for tr in trajs]
        p0 = pts(0)
        start = np.array([
            cyclic_integral(p0[1], p0[2], p0[3]),
            cyclic_integral(p0[0], p0[1], p0[2]),
            cyclic_integral(p0[0], p0[1], p0[3]),
        ])
        for i in range(len(grid)):
            pt = pts(i)
            vals = np.array([
                cyclic_integral(pt[1], pt[2], pt[3]),
                cyclic_integral(pt[0], pt[1], pt[2]),
                cyclic_integral(pt[0], pt[1], pt[3]),
            ])
            assert np.all(np.abs(vals - start) <= 1e-7 * np.maximum(1.0, np.abs(start)))
