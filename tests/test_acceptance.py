"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
"""

from functools import partial

import numpy as np

from riccati_lie import cli, liealg, suites
from riccati_lie.errors import DomainError, GenericityError, GuardViolation, NumericError
from riccati_lie.integrator import hamiltonian_guard, integrate, sample_at
from riccati_lie.model import (
    PhasePoint,
    PotentialSpec,
    coefficients_from_potential,
    hamiltonian_field,
    legendre_inverse,
    map_defect,
    potential_from_coefficients,
    riccati2_rhs,
    solve_hamiltonian,
)
from riccati_lie.superpose import (
    Constants,
    PhaseTuple,
    constants_from_four,
    cyclic_integral,
    superpose_point,
    superpose_states,
)
from riccati_lie.suites import (
    draw_surviving_solutions,
    random_phase_points,
    random_potential,
)
from riccati_lie.timefn import constant


def report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")
    assert passed, f"criterion {number} {name}: {detail}"


def canonical_potential():
    return PotentialSpec(constant(0.0), constant(0.0), constant(1.0))


def analytic_x(t):
    return 2.0 * t / (1.0 + t * t)


def analytic_p(t):
    return -((1.0 + t * t) ** 2) / 4.0


def test_criterion_01_canonical_analytic_oracle():
    # the potential (0, 0, 1) produces exactly x'' + 3 x x' + x^3 = 0
    R = coefficients_from_potential(canonical_potential())
    assert R.eval(0.37) == (0.0, 0.0, 0.0, 1.0, 0.0, 3.0)

    # substitution check: the candidate solves that equation identically
    ts = np.linspace(0.0, 2.0, 201)
    x = analytic_x(ts)
    dx = (2.0 - 2.0 * ts**2) / (1.0 + ts**2) ** 2
    ddx = (4.0 * ts**3 - 12.0 * ts) / (1.0 + ts**2) ** 3
    assert np.max(np.abs(ddx + 3.0 * x * dx + x**3)) < 1e-13

    traj = integrate(
        hamiltonian_field(canonical_potential()), (0.0, (0.0, -0.25)), 2.0, 1e-10,
        guard=hamiltonian_guard, system="hamiltonian",
    )
    grid = np.linspace(0.0, 2.0, 401)
    err = max(
        max(abs(sample_at(traj, t)[0] - analytic_x(t)),
            abs(sample_at(traj, t)[1] - analytic_p(t)))
        for t in grid
    )
    # the path `simulate` runs: the chart solve, sampled on the same grid
    chart = solve_hamiltonian(canonical_potential(), (0.0, -0.25), grid, 1e-10).states
    exact = np.column_stack((analytic_x(grid), analytic_p(grid)))
    err = max(err, float(np.max(np.abs(chart - exact))))
    report(1, "canonical analytic oracle", err <= 1e-6, f"sup err {err:.3e} <= 1e-6")


def _draw_equivalence_scenario(rng, grid):
    """x on the grid from both pictures: the Hamiltonian one as `simulate` solves it."""
    while True:
        P = random_potential(rng)
        R = coefficients_from_potential(P)
        ic = random_phase_points(rng, 1, x_range=(-0.8, 0.8), p_range=(-2.0, -0.5))[0]
        lag0 = legendre_inverse(P, 0.0, ic)
        try:
            traj_h = solve_hamiltonian(P, ic, grid, 1e-10)
            traj_r = integrate(partial(riccati2_rhs, R), (0.0, tuple(lag0)), 1.0, 1e-10,
                               system="riccati2")
        except (NumericError, GuardViolation):
            continue
        return traj_h.states[:, 0], sample_at(traj_r, grid)[:, 0]


def test_criterion_02_lagrangian_hamiltonian_equivalence(monkeypatch):
    monkeypatch.setattr(suites, "_LOW_ORDER_AMP", 0.3)
    rng = np.random.default_rng(1002)
    grid = np.linspace(0.0, 1.0, 51)
    worst = 0.0
    for _ in range(20):
        x_h, x_r = _draw_equivalence_scenario(rng, grid)
        worst = max(worst, float(np.max(np.abs(x_h - x_r))))
    report(2, "velocity/momentum picture equivalence", worst <= 1e-6,
           f"x sup err {worst:.3e} <= 1e-6 over 20 scenarios")


def _integral_triplet(points):
    return np.array([
        cyclic_integral(points[1], points[2], points[3]),
        cyclic_integral(points[0], points[1], points[2]),
        cyclic_integral(points[0], points[1], points[3]),
    ])


def test_criterion_03_first_integral_conservation(monkeypatch):
    monkeypatch.setattr(suites, "_LOW_ORDER_AMP", 0.3)
    rng = np.random.default_rng(1003)
    grid = np.linspace(0.0, 2.0, 41)
    worst_ratio = 0.0
    for _ in range(20):
        trajs = draw_surviving_solutions(random_potential(rng), grid, 1e-10, rng, 4)
        start = _integral_triplet([PhasePoint(*tr.states[0]) for tr in trajs])
        allowed = 1e-7 * np.maximum(1.0, np.abs(start))
        for i in range(len(grid)):
            vals = _integral_triplet([PhasePoint(*tr.states[i]) for tr in trajs])
            worst_ratio = max(worst_ratio, float(np.max(np.abs(vals - start) / allowed)))
    report(3, "first-integral conservation", worst_ratio <= 1.0,
           f"max drift/threshold {worst_ratio:.3e} <= 1 over 20 scenarios")


def test_criterion_04_superposition_reconstruction(monkeypatch):
    monkeypatch.setattr(suites, "_LOW_ORDER_AMP", 0.3)
    rng = np.random.default_rng(1004)
    grid = np.linspace(0.0, 1.0, 51)
    worst = 0.0
    done = 0
    while done < 20:
        sols = [tr.states for tr in draw_surviving_solutions(random_potential(rng), grid, 1e-10, rng, 4)]
        k = constants_from_four(PhaseTuple(*(PhasePoint(*s[0]) for s in sols)))
        try:
            rec = superpose_states(np.hstack(sols[1:]), k, ts=grid)
        except GenericityError:
            continue
        direct = sols[0]
        rel = np.max(np.abs(rec - direct)) / max(1.0, float(np.max(np.abs(direct))))
        worst = max(worst, float(rel))
        done += 1
    report(4, "superposition reconstruction", worst <= 1e-5,
           f"relative sup err {worst:.3e} <= 1e-5 over 20 scenarios")


def test_criterion_05_algebraic_inversion():
    rng = np.random.default_rng(1005)
    worst = 0.0
    checked = 0
    while checked < 1000:
        xi0, xi1, xi2, xi3 = random_phase_points(rng, 4)
        k = constants_from_four(PhaseTuple(xi0, xi1, xi2, xi3))
        try:
            rec = superpose_point(xi1, xi2, xi3, k)
        except GenericityError:
            continue
        scale = max(1.0, abs(xi0.x), abs(xi0.p))
        worst = max(worst, abs(rec.x - xi0.x) / scale, abs(rec.p - xi0.p) / scale)
        checked += 1

    worked = superpose_point(
        PhasePoint(1.0, -1.0), PhasePoint(2.0, -4.0), PhasePoint(3.0, -9.0),
        Constants(1.0, 2.0, -2.0),
    )
    exact = abs(worked.x - 0.0) <= 1e-15 and abs(worked.p + 1.0) <= 1e-15
    report(5, "algebraic inversion of the rule", worst <= 1e-9 and exact,
           f"max rel err {worst:.3e} <= 1e-9 over 1000 tuples; worked tuple -> "
           f"({worked.x}, {worked.p})")


def test_criterion_06_bracket_table_and_structure():
    rng = np.random.default_rng(1006)
    residual = liealg.check_commutation_table(random_phase_points(rng, 100))
    levi = liealg.levi_structure_check()
    report(6, "bracket table and Levi structure",
           residual <= 1e-10 and all(levi.values()),
           f"table residual {residual:.3e} <= 1e-10; structure {levi}")


def test_criterion_07_rhs_decomposition():
    rng = np.random.default_rng(1007)
    P = random_potential(rng)
    worst = 0.0
    for s in random_phase_points(rng, 100):
        t = float(rng.uniform(0.0, 2.0))
        res = liealg.decompose_rhs_check(P, t, s)
        worst = max(worst, res / (1.0 + max(abs(s.x), abs(s.p))))
    report(7, "dynamics decomposition identity", worst <= 1e-14,
           f"relative residual {worst:.3e} <= 1e-14 at 100 points")


def test_criterion_08_group_action():
    rng = np.random.default_rng(1008)

    identity_worst = 0.0
    e = liealg.GroupElement(0.0, 0.0)
    for s in random_phase_points(rng, 100):
        moved = liealg.act(e, s)
        scale = max(1.0, abs(s.x), abs(s.p))
        identity_worst = max(identity_worst, abs(moved.x - s.x) / scale, abs(moved.p - s.p) / scale)

    compose_worst = 0.0
    checked = 0
    while checked < 100:
        s = random_phase_points(rng, 1)[0]
        l1, l5 = rng.uniform(-0.3, 0.3, 2), rng.uniform(-0.2, 0.4, 2)
        d1, d2 = rng.uniform(-0.4, 0.4, 2)
        g1 = liealg.GroupElement(l1[0], l5[0], np.array([[1.0, d1], [0.0, 1.0]]))
        g2 = liealg.GroupElement(l1[1], l5[1], np.array([[1.0, 0.0], [d2, 1.0]]))
        try:
            once = liealg.act(liealg.compose(g1, g2), s)
            twice = liealg.act(g1, liealg.act(g2, s))
        except DomainError:
            continue
        scale = max(1.0, abs(once.x), abs(once.p))
        compose_worst = max(compose_worst, abs(once.x - twice.x) / scale,
                            abs(once.p - twice.p) / scale)
        checked += 1

    fundamental_worst = 0.0
    for direction, (coeff, fid) in liealg.FUNDAMENTAL_CORRESPONDENCE.items():
        for s in random_phase_points(rng, 20):
            got = np.asarray(liealg.fundamental_vf(direction, s))
            want = coeff * liealg.fields(s)[0][fid - 1]
            fundamental_worst = max(fundamental_worst, float(np.max(np.abs(got - want))))

    passed = identity_worst <= 1e-15 and compose_worst <= 1e-12 and fundamental_worst <= 1e-6
    report(8, "group action axioms", passed,
           f"identity {identity_worst:.1e} <= 1e-15, composition {compose_worst:.1e} <= 1e-12, "
           f"fundamental fields {fundamental_worst:.1e} <= 1e-6")


def test_criterion_09_coefficient_maps(monkeypatch):
    # a2's constant drawn from [1, 2], as this criterion's 0.5 floor assumes
    monkeypatch.setattr(suites, "_A2_BASE", (1.0, 2.0))
    rng = np.random.default_rng(1009)
    grid = np.linspace(0.0, 2.0, 21)
    round_worst = 0.0
    defect_worst = 0.0
    constraint_worst = 0.0
    for _ in range(50):
        P = random_potential(rng)
        assert min(P.eval(t)[2] for t in grid) >= 0.5
        R = coefficients_from_potential(P, grid)
        P2 = potential_from_coefficients(R, grid)
        defect_worst = max(defect_worst, *map_defect(R, coefficients_from_potential(P2), grid, ["c0"]))
        for t in grid[::5]:
            for want, got in zip(P.eval(t), P2.eval(t)):
                round_worst = max(round_worst, abs(got - want) / max(1.0, abs(want)))
            _, _, c2, c3, f0, f1 = R.eval(t)
            f1_res = abs(f1 - 3.0 * np.sqrt(c3)) / max(1.0, abs(f1))
            f0_expected = c2 / np.sqrt(c3) - R.eval(t, 1)[3] / (2.0 * c3)
            f0_res = abs(f0 - f0_expected) / max(1.0, abs(f0_expected))
            constraint_worst = max(constraint_worst, f1_res, f0_res)
    passed = round_worst <= 1e-10 and defect_worst <= 1e-10 and constraint_worst <= 1e-12
    report(9, "coefficient map roundtrip", passed,
           f"roundtrip {round_worst:.1e} <= 1e-10, c0 defect {defect_worst:.1e} <= 1e-10, "
           f"constraints {constraint_worst:.1e} <= 1e-12 over 50 potentials")


CANONICAL_INI = """\
[potential]
a0 = poly 0
a1 = poly 0
a2 = poly 1

[run]
t0 = 0.0
t1 = 1.0
step = 0.01
tol = 1e-10
seed = 7

[ics]
ic1 = 0.0 -0.25
ic2 = 0.3 -1.0
ic3 = -0.2 -0.8
ic4 = 0.1 -2.0
"""


def test_criterion_10_cli_roundtrip_and_error_classes(tmp_path):
    cfg = tmp_path / "scenario.ini"
    cfg.write_text(CANONICAL_INI)

    out = tmp_path / "sol.csv"
    assert cli.main(["simulate", str(cfg), "--ic", "0", "--out", str(out)]) == 0
    _, data = cli.read_csv(str(out))
    again = tmp_path / "again.csv"
    cli.write_csv(str(again), ["t", "x", "p"], data)
    _, data2 = cli.read_csv(str(again))
    roundtrip_exact = bool(np.array_equal(data, data2))

    bad_ic = cli.main(["simulate", str(cfg), "--ic", "0.0,1.0", "--out", str(tmp_path / "x.csv")])
    riccati_cfg = tmp_path / "r.ini"
    riccati_cfg.write_text("[riccati]\nc0 = poly 0\nc1 = poly 0\nc2 = poly 0\nc3 = poly -1\n"
                           "\n[run]\nt0 = 0\nt1 = 1\n")
    bad_c3 = cli.main(["derive", str(riccati_cfg)])

    table = tmp_path / "dup.csv"
    sol = tmp_path / "s.csv"
    cli.main(["simulate", str(cfg), "--ic", "1", "--out", str(sol)])
    _, sdata = cli.read_csv(str(sol))
    rows = np.column_stack([sdata[:, 0], sdata[:, 1:3], sdata[:, 1:3], sdata[:, 1:3]])
    cli.write_csv(str(table), ["t", "x1", "p1", "x2", "p2", "x3", "p3"], rows)
    coincident = cli.main(["superpose", str(cfg), "--sols", str(table),
                           "--fourth-ic", "0.0,-0.25", "--out", str(tmp_path / "y.csv")])

    passed = (
        roundtrip_exact
        and bad_ic == cli.EXIT_DOMAIN
        and bad_c3 == cli.EXIT_DOMAIN
        and coincident == cli.EXIT_GENERICITY
    )
    report(10, "CLI formats and error classes", passed,
           f"roundtrip exact={roundtrip_exact}, p>=0 IC -> {bad_ic}, c3<=0 -> {bad_c3}, "
           f"coincident solutions -> {coincident}")
