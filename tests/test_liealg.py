"""Tests for the five-field algebra and the semidirect group action."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati_lie.errors import DomainError
from riccati_lie.liealg import (
    COMMUTATION_TABLE,
    FIELD_IDS,
    FUNDAMENTAL_CORRESPONDENCE,
    GroupElement,
    act,
    check_commutation_table,
    compose,
    decompose_rhs_check,
    fields,
    fundamental_vf,
    group_law,
    levi_structure_check,
    lie_bracket,
)
from riccati_lie.model import PhasePoint, PotentialSpec
from riccati_lie.suites import _ELEMENT_RANGES, random_phase_points, random_potential
from riccati_lie.timefn import constant


class TestVectorFields:
    def test_closed_form_values(self):
        V, _ = fields(PhasePoint(0.0, -1.0))
        assert tuple(V[0]) == (1.0, 0.0)
        assert tuple(fields(PhasePoint(2.0, -1.0))[0][2]) == (2.0, 1.0)
        assert tuple(fields(PhasePoint(1.0, -4.0))[0][4]) == (0.5, 4.0)
        V, J = fields(PhasePoint(1.5, -2.0))
        assert V.shape == (5, 2) and J.shape == (5, 2, 2)

    def test_momentum_domain_enforced(self):
        for bad in (PhasePoint(0.0, 0.0), PhasePoint(0.0, 1.0), PhasePoint(0.0, math.nan)):
            with pytest.raises(DomainError, match="momentum"):
                fields(bad)
            for i in FIELD_IDS:
                with pytest.raises(DomainError):
                    lie_bracket(i, i, bad)
        batch = [(0.0, -1.0), (1.0, 0.5), (2.0, -2.0), (3.0, 0.0)]
        with pytest.raises(DomainError, match=r"got p=0\.5"):
            fields(np.array(batch))

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            lie_bracket(6, 1, PhasePoint(0.0, -1.0))

    def test_jacobian_closed_forms(self):
        np.testing.assert_array_equal(fields(PhasePoint(3.0, -2.0))[1][1], np.zeros((2, 2)))
        np.testing.assert_array_equal(
            fields(PhasePoint(1.0, -1.0))[1][3], [[2.0, 0.0], [2.0, -2.0]]
        )
        np.testing.assert_array_equal(
            fields(PhasePoint(0.0, -1.0))[1][0], [[0.0, 0.5], [0.0, 0.0]]
        )

    def test_jacobians_against_finite_differences(self):
        rng = np.random.default_rng(31)
        h = 1e-6
        for s in random_phase_points(rng, 30):
            J = fields(s)[1]
            fd = np.empty((5, 2, 2))
            for col, (dx, dp) in enumerate(((h, 0.0), (0.0, h))):
                plus = fields(PhasePoint(s.x + dx, s.p + dp))[0]
                minus = fields(PhasePoint(s.x - dx, s.p - dp))[0]
                fd[:, :, col] = (plus - minus) / (2 * h)
            np.testing.assert_allclose(J, fd, atol=1e-6)

    def test_batch_equals_one_point_calls_bitwise(self):
        points = np.array(random_phase_points(np.random.default_rng(30), 64))
        V, J = fields(points)
        assert V.shape == (64, 5, 2) and J.shape == (64, 5, 2, 2)
        for n, s in enumerate(points):
            V1, J1 = fields(s)
            assert V1.tobytes() == V[n].tobytes() and J1.tobytes() == J[n].tobytes()


def _numeric_bracket(F, G, s, h=1e-5):
    """[F, G] with the Jacobians of the callables taken by differences."""

    def jac(field, s):
        out = np.empty((2, 2))
        for col, (dx, dp) in enumerate(((h, 0.0), (0.0, h))):
            plus = field(PhasePoint(s.x + dx, s.p + dp))
            minus = field(PhasePoint(s.x - dx, s.p - dp))
            out[:, col] = (np.asarray(plus) - np.asarray(minus)) / (2 * h)
        return out

    return jac(G, s) @ np.asarray(F(s)) - jac(F, s) @ np.asarray(G(s))


class TestBrackets:
    def test_table_examples(self):
        s = PhasePoint(1.0, -1.0)
        V, _ = fields(s)
        assert lie_bracket(2, 3, s) == pytest.approx(tuple(V[1]))
        assert lie_bracket(2, 4, s) == pytest.approx(tuple(2 * V[2]))
        for s in random_phase_points(np.random.default_rng(0), 10):
            assert lie_bracket(1, 2, s) == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(32)
        for s in random_phase_points(rng, 20):
            for a in FIELD_IDS:
                for b in FIELD_IDS:
                    ab = lie_bracket(a, b, s)
                    ba = lie_bracket(b, a, s)
                    assert ab[0] == -ba[0] and ab[1] == -ba[1]

    def test_full_table_random_points(self):
        rng = np.random.default_rng(33)
        assert check_commutation_table(random_phase_points(rng, 100)) <= 1e-10

    def test_batch_equals_worst_single_point(self):
        points = random_phase_points(np.random.default_rng(40), 50)
        assert check_commutation_table(points) == max(check_commutation_table([s]) for s in points)

    def test_single_point(self):
        assert check_commutation_table([PhasePoint(0.0, -1.0)]) <= 1e-12

    def test_empty_point_list(self):
        assert check_commutation_table([]) == 0.0

    def test_jacobi_identity_numeric(self):
        # nested brackets need derivatives of the inner bracket, taken by
        # central differences
        rng = np.random.default_rng(34)
        for s in random_phase_points(rng, 10, x_range=(-2.0, 2.0), p_range=(-4.0, -0.5)):
            for (a, b, c) in ((1, 2, 3), (2, 3, 4), (1, 4, 5), (2, 4, 5), (3, 4, 5)):
                total = np.zeros(2)
                for (i, j, k) in ((a, b, c), (b, c, a), (c, a, b)):
                    inner = lambda s_, j=j, k=k: lie_bracket(j, k, s_)
                    outer = lambda s_, i=i: fields(s_)[0][i - 1]
                    total += _numeric_bracket(outer, inner, s)
                np.testing.assert_allclose(total, 0.0, atol=1e-9)


class TestLeviStructure:
    def test_all_assertions_pass(self):
        report = levi_structure_check()
        assert report == {
            "v2_closes": True,
            "v2_sl2_constants": True,
            "v1_abelian": True,
            "v1_ideal": True,
        }

    def test_table_entries_feed_the_check(self):
        assert COMMUTATION_TABLE[(2, 4)] == ((2.0, 3),)
        assert (1, 5) not in COMMUTATION_TABLE  # abelian radical
        assert COMMUTATION_TABLE[(1, 4)] == ((1.0, 5),)  # ideal property


class TestDecomposition:
    def test_canonical_point(self):
        P = PotentialSpec(constant(0.0), constant(0.0), constant(1.0))
        assert decompose_rhs_check(P, 0.0, PhasePoint(0.0, -0.25)) <= 1e-15

    def test_zero_potential_reduces_to_first_field(self):
        P = PotentialSpec(constant(0.0), constant(0.0), constant(0.0))
        for s in random_phase_points(np.random.default_rng(2), 10):
            assert decompose_rhs_check(P, 0.3, s) == 0.0

    def test_random_potentials(self):
        rng = np.random.default_rng(35)
        P = random_potential(rng)
        for s in random_phase_points(rng, 100):
            t = float(rng.uniform(0.0, 2.0))
            res = decompose_rhs_check(P, t, s)
            assert res <= 1e-14 * (1.0 + max(abs(s.x), abs(s.p)))

    def test_batch_equals_one_point_calls_bitwise(self):
        rng = np.random.default_rng(38)
        P = random_potential(rng)
        points = np.array(random_phase_points(rng, 40))
        ts = rng.uniform(0.0, 2.0, 40)
        got = decompose_rhs_check(P, ts, points)
        assert got.shape == (40,)
        want = [decompose_rhs_check(P, t, s) for t, s in zip(ts.tolist(), points)]
        assert got.tobytes() == np.array(want).tobytes()


ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])


class TestGroupElement:
    def test_unimodularity_enforced(self):
        with pytest.raises(ValueError):
            GroupElement(0.0, 0.0, np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            GroupElement(0.0, 0.0, np.eye(3))

    def test_a_stack_names_the_det_of_its_first_bad_slice(self):
        A = np.array([np.eye(2), np.diag([2.0, 0.5]), np.diag([3.0, 1.0]), np.diag([1.0, 5.0])])
        with pytest.raises(ValueError, match=r"^A must be unimodular, det A = 3\.0$"):
            GroupElement(np.zeros(4), np.zeros(4), A)
        GroupElement(np.zeros(2), np.zeros(2), A[:2])  # the unimodular slices pass

    @pytest.mark.parametrize("shape", [(4, 3, 3), (4, 2, 3), (2,), (3, 4, 2, 2)])
    def test_a_stack_of_other_than_2x2_matrices_is_rejected(self, shape):
        with pytest.raises(ValueError, match=r"^A must be a 2x2 matrix or an \(N, 2, 2\) stack"):
            GroupElement(0.0, 0.0, np.ones(shape))

    def test_matrix_defaults_to_identity(self):
        g = GroupElement(1.0, 2.0)
        assert (g.lambda1, g.lambda5) == (1.0, 2.0)
        np.testing.assert_array_equal(g.A, np.eye(2))

    def test_equality_and_hash_go_by_identity(self):
        # an array field has no truth value and no hash, so neither enters == or hash
        single, twin = GroupElement(0.0, 0.0), GroupElement(0.0, 0.0)
        stack = GroupElement(np.zeros(3), np.zeros(3), np.array([np.eye(2)] * 3))
        for g in (single, stack):
            assert g == g and not g != g
            assert hash(g) == object.__hash__(g)
        assert single != twin and single != stack
        assert len({single, twin, stack, single}) == 3


class TestAction:
    def test_identity_axiom(self):
        rng = np.random.default_rng(36)
        e = GroupElement(0.0, 0.0)
        for s in random_phase_points(rng, 50):
            moved = act(e, s)
            assert moved.x == pytest.approx(s.x, rel=1e-15, abs=1e-15)
            assert moved.p == pytest.approx(s.p, rel=1e-15)

    def test_translation_example(self):
        moved = act(GroupElement(1.0, 0.0), PhasePoint(0.0, -1.0))
        assert moved == PhasePoint(-1.0, -1.0)

    def test_dilation_example(self):
        g = GroupElement(0.0, 0.0, np.diag([2.0, 0.5]))
        moved = act(g, PhasePoint(1.0, -1.0))
        assert moved.x == pytest.approx(4.0, rel=1e-15)
        assert moved.p == pytest.approx(-0.25, rel=1e-15)

    def test_result_stays_in_half_plane(self):
        rng = np.random.default_rng(37)
        for s in random_phase_points(rng, 50):
            g = GroupElement(rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.4))
            assert act(g, s).p < 0.0

    def test_singular_fraction_rejected(self):
        # where gamma x + delta = 0 the new sigma is lambda5 alone
        g = GroupElement(0.0, 0.0, ROTATION)
        with pytest.raises(DomainError, match="orbit"):
            act(g, PhasePoint(0.0, -1.0))

    def test_orbit_exit_rejected(self):
        with pytest.raises(DomainError, match="orbit"):
            act(GroupElement(0.0, -10.0), PhasePoint(0.0, -1.0))

    def test_nonnegative_momentum_rejected(self):
        with pytest.raises(DomainError):
            act(GroupElement(0.0, 0.0), PhasePoint(0.0, 0.5))

    def test_affine_convention_negative_identity(self):
        # (u, sigma) = (0.5, 1) -> (-0.5, -1) + (0, 3) = (-0.5, 2)
        moved = act(GroupElement(0.0, 3.0, -np.eye(2)), PhasePoint(0.5, -1.0))
        assert moved == PhasePoint(-0.25, -4.0)

    def test_batch_equals_one_point_calls_bitwise(self):
        rng = np.random.default_rng(39)
        points = np.array(random_phase_points(rng, 30))
        g = _random_element(rng)
        got = act(g, points)
        assert got.shape == (30, 2)
        assert got.tobytes() == np.array([act(g, s) for s in points.tolist()]).tobytes()

    def test_batch_orbit_exit_names_the_smallest_sigma(self):
        # sigma' = sigma - 2 over the rows (x, -1), (x, -9), (x, -0.25): -1, 1, -1.5
        points = np.array([[0.0, -1.0], [0.0, -9.0], [0.0, -0.25]])
        with pytest.raises(DomainError, match=r"sigma = -1\.5 <= 0"):
            act(GroupElement(0.0, -2.0), points)

    def test_affine_convention_through_the_pole(self):
        # gamma x + delta = 0 at x = 0; (u, sigma) = (0, 1) -> (-1, 0) + (0, 1)
        moved = act(GroupElement(0.0, 1.0, ROTATION), PhasePoint(0.0, -1.0))
        assert moved == PhasePoint(-1.0, -1.0)


def _unimodular(shear_u, shear_l, log_dilation):
    upper = np.array([[1.0, shear_u], [0.0, 1.0]])
    lower = np.array([[1.0, 0.0], [shear_l, 1.0]])
    return upper @ lower @ np.diag([math.exp(log_dilation), math.exp(-log_dilation)])


def _affine(q):
    """(u, sigma) = (x sqrt(-p), sqrt(-p)), where the action is affine."""
    sigma = math.sqrt(-q.p)
    return np.array([q.x * sigma, sigma])


_elements = st.builds(
    lambda l1, l5, b, c, d: GroupElement(l1, l5, _unimodular(b, c, d)),
    *[st.floats(-1.0, 1.0)] * 2, *[st.floats(-2.0, 2.0)] * 3,
)


def _random_element(rng):
    """One group element drawn from the ranges of the `verify` action check."""
    l1, l5, b, c, d = (rng.uniform(low, high) for low, high in _ELEMENT_RANGES)
    return GroupElement(l1, l5, _unimodular(b, c, d))


def _random_stack(rng, n):
    """n elements drawn as by _random_element, one at a time, and stacked."""
    elements = [_random_element(rng) for _ in range(n)]
    return elements, GroupElement(*(np.array([getattr(g, name) for g in elements])
                                    for name in ("lambda1", "lambda5", "A")))


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _acts_on(g, s):
    """Whether act(g, s) stays on O."""
    try:
        act(g, s)
    except DomainError:
        return False
    return True


class TestCompose:
    def test_translations_add(self):
        g = compose(GroupElement(1.0, 0.0), GroupElement(2.0, 3.0))
        assert (g.lambda1, g.lambda5) == (3.0, 3.0)
        np.testing.assert_array_equal(g.A, np.eye(2))

    def test_matrices_multiply(self):
        A, B = np.array([[1.0, 0.5], [0.0, 1.0]]), np.diag([2.0, 0.5])
        g = compose(GroupElement(0.0, 0.0, A), GroupElement(0.0, 0.0, B))
        assert (g.lambda1, g.lambda5) == (0.0, 0.0)
        np.testing.assert_array_equal(g.A, A @ B)

    def test_mixed_example(self):
        # tau = (-lambda1, lambda5): A1 tau2 + tau1 = diag(2, 1/2) (0, 1) + (-1, 0)
        g1 = GroupElement(1.0, 0.0, np.diag([2.0, 0.5]))
        g2 = GroupElement(0.0, 1.0, np.array([[1.0, 1.0], [0.0, 1.0]]))
        g = compose(g1, g2)
        assert (g.lambda1, g.lambda5) == (1.0, 0.5)
        np.testing.assert_array_equal(g.A, [[2.0, 2.0], [0.0, 0.5]])
        # (u, sigma) = (0.5, 1) -> (1.5, 2) under g2 -> (2, 1) under g1
        s = PhasePoint(0.5, -1.0)
        assert act(g2, s) == PhasePoint(0.75, -4.0)
        assert act(g, s) == act(g1, act(g2, s)) == PhasePoint(2.0, -1.0)

    def test_action_morphism_property(self):
        rng = np.random.default_rng(38)
        checked = 0
        while checked < 50:
            s = random_phase_points(rng, 1)[0]
            g1, g2 = _random_element(rng), _random_element(rng)
            try:
                once = act(compose(g1, g2), s)
                twice = act(g1, act(g2, s))
            except DomainError:
                continue
            scale = max(1.0, abs(once.x), abs(once.p))
            assert abs(once.x - twice.x) <= 1e-12 * scale
            assert abs(once.p - twice.p) <= 1e-12 * scale
            checked += 1

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.floats(-3.0, 3.0), st.floats(-4.0, -0.25), _elements, _elements)
    def test_group_law_property(self, x, p, g1, g2):
        s = PhasePoint(x, p)
        try:
            once = act(compose(g1, g2), s)
            twice = act(g1, act(g2, s))
        except DomainError:
            return
        # size of the affine terms: |A1| (|A2| |xi| + |tau2|) + |tau1|
        tau1, tau2 = (np.abs([g.lambda1, g.lambda5]) for g in (g1, g2))
        size = np.abs(g1.A) @ (np.abs(g2.A) @ np.abs(_affine(s)) + tau2) + tau1
        assert np.all(np.abs(_affine(once) - _affine(twice)) <= 1e-14 * size)

    def test_stacks_compose_slice_by_slice_bitwise(self):
        rng = np.random.default_rng(40)
        (ones1, stack1), (ones2, stack2) = _random_stack(rng, 300), _random_stack(rng, 300)
        got = compose(stack1, stack2)
        want = [compose(g1, g2) for g1, g2 in zip(ones1, ones2)]
        for name in ("lambda1", "lambda5", "A"):
            assert np.array_equal(_bits(getattr(got, name)), _bits([getattr(g, name) for g in want]))

    def test_a_stack_acts_slice_by_slice_bitwise(self):
        rng = np.random.default_rng(41)
        ones, stack = _random_stack(rng, 300)
        points = np.array(random_phase_points(rng, 300))
        stays = np.array([_acts_on(g, s) for g, s in zip(ones, points.tolist())])
        assert 200 < stays.sum() < 300  # rows on both sides
        kept = [g for g, ok in zip(ones, stays) if ok]
        moved = act(GroupElement(stack.lambda1[stays], stack.lambda5[stays], stack.A[stays]), points[stays])
        assert np.array_equal(_bits(moved), _bits([act(g, s) for g, s in zip(kept, points[stays].tolist())]))
        with pytest.raises(DomainError, match="orbit"):
            act(stack, points)

    @pytest.mark.parametrize("stacked", [True, False], ids=["stacks", "one-element-each"])
    def test_the_batch_law_is_the_bits_of_the_three_calls(self, stacked):
        rng = np.random.default_rng(43 if stacked else 40)  # seeds with rows on both sides
        if stacked:
            (ones1, g1), (ones2, g2) = _random_stack(rng, 300), _random_stack(rng, 300)
        else:
            g1, g2 = _random_element(rng), _random_element(rng)
            ones1, ones2 = [g1] * 300, [g2] * 300
        points = np.array(random_phase_points(rng, 300))
        once, twice, on_O = group_law(g1, g2, points)
        for i, (one1, one2, s) in enumerate(zip(ones1, ones2, points.tolist())):
            try:
                want = act(compose(one1, one2), s), act(one1, act(one2, s))
            except DomainError:
                assert not on_O[i]
                continue
            assert on_O[i]
            assert np.array_equal(_bits((once[i], twice[i])), _bits(want))
        assert 0 < on_O.sum() < 300  # both branches are taken

    def test_a_middle_sigma_whose_square_underflows_is_masked(self):
        # sigma = sqrt(1e-320) ~ 1e-160; g2 scales it by 1e-3 to ~1e-163 > 0, whose
        # square underflows, so the middle point has p = -0.0 and g1 cannot act on it,
        # though g1's own sigma would be 0.5 > 0
        g1, g2 = GroupElement(0.0, 0.5), GroupElement(0.0, 0.0, np.diag([1e3, 1e-3]))
        s = PhasePoint(0.5, -1e-320)
        middle = act(g2, s)
        assert middle.p == 0.0 and math.copysign(1.0, middle.p) == -1.0
        with pytest.raises(DomainError):
            act(g1, middle)
        once, twice, on_O = group_law(g1, g2, np.array([s, [0.5, -1.0]]))
        assert on_O.tolist() == [False, True]
        assert np.array_equal(_bits(once[1]), _bits(act(compose(g1, g2), PhasePoint(0.5, -1.0))))

    def test_the_batch_law_rejects_a_point_off_O(self):
        with pytest.raises(DomainError, match="p=0.5"):
            group_law(GroupElement(0.0, 0.0), GroupElement(0.0, 0.0), np.array([[0.0, -1.0], [0.0, 0.5]]))


class TestFundamentalFields:
    def test_translation_direction_examples(self):
        got = fundamental_vf("lambda1", PhasePoint(0.0, -1.0))
        assert got == pytest.approx((-1.0, 0.0), abs=1e-12)

    def test_shear_direction_example(self):
        got = fundamental_vf("beta", PhasePoint(1.0, -1.0))
        assert got == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_dilation_direction_example(self):
        got = fundamental_vf("diag", PhasePoint(1.0, -1.0))
        assert got == pytest.approx((2.0, 2.0), abs=1e-12)

    def test_all_correspondences_at_random_points(self):
        rng = np.random.default_rng(39)
        for direction, (coeff, fid) in FUNDAMENTAL_CORRESPONDENCE.items():
            for s in random_phase_points(rng, 20):
                got = np.asarray(fundamental_vf(direction, s))
                want = coeff * fields(s)[0][fid - 1]
                np.testing.assert_allclose(got, want, atol=1e-12)

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            fundamental_vf("alpha", PhasePoint(0.0, -1.0))
