"""Closed-form oracles for every constant potential.

For constant (a0, a1, a2), the Hamiltonian system in the chart ξ = (u, σ) = (x√−p, √−p) is
ξ' = Mξ + e1 with the trace-free M = [[−a1/2, −a0], [a2, a1/2]], so that

    (ξ(t), 1) = exp(tG) (ξ0, 1),    G = [[M, e1], [0, 0]],

elliptic, hyperbolic or parabolic by the sign of det M = a0 a2 − a1²/4.  A solution leaves the
half-plane p <= -1e-9 at the first root of σ = √1e-9.  The cubic equation's solution from (x0, v0)
is x = X/S, where (X, S) solves ξ' = Mξ + w0 e1 from (x0, 1), w0 = v0 + U(x0) > 0: it blows up at
the first root of S.  The reference evaluates these in mpmath at 40 digits, with `mpmath.expm`,
and shares no code with the package.

Each bound is a round figure above the largest error measured over 2,000 draws of its property
(1,000 derandomized, 1,000 random) plus twelve solutions that leave O; the comment next to it
gives that largest error.
"""

import contextlib
import io
import math
import os
import re
import tempfile

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riccati_lie import cli
from riccati_lie.errors import GuardViolation
from riccati_lie.model import PotentialSpec, solve_hamiltonian
from riccati_lie.superpose import PhaseTuple, constants_from_four, superpose_states
from riccati_lie.timefn import constant

DPS = 40
STEP = 1 / 16  # the grid 0, 1/16, ..., 2: exact binary times, each exp(STEP G) times the last
GRID = np.arange(33) * STEP
TOL = 1e-10
FLOOR = math.sqrt(1e-9)  # sigma at the half-plane's guard p = -1e-9
SCAN = 512  # steps of the scan for a first root over [0, 2]

SOLVE_ERR = 2e-9  # (x, p) on the grid, relative to max(1, |.|): 9.0e-10
EXIT_T_ERR = 5e-10  # `GuardViolation.last_valid_t` against the first root of sigma = FLOOR: 1.5e-10
SUPERPOSE_ERR = 5e-12  # the fourth solution from three exact ones, relative to max(1, |.|): 1.3e-12
RICCATI2_ERR = 1e-8  # x of `simulate --system riccati2`, relative to max(1, |x|): 3.0e-9
BLOWUP_T_ERR = 5e-10  # its step-size underflow time against the first root of S: 1.5e-10


@st.composite
def constant_potentials(draw):
    """(a0, a1, a2) in [-1.5, 1.5]^3 of one regime drawn; a parabolic one has det M = 0 exactly: a0 = ±(r/8)²,
    a1 = 2 (r/8)(s/8) and a2 = ±(s/8)², products of small dyadic numbers, whose float arithmetic is exact."""
    regime = draw(st.sampled_from(("elliptic", "hyperbolic", "parabolic")))
    if regime == "parabolic":
        r, s, sign = draw(st.integers(-9, 9)), draw(st.integers(-9, 9)), draw(st.sampled_from((1, -1)))
        return sign * (r / 8) ** 2, 2 * (r / 8) * (s / 8), sign * (s / 8) ** 2
    coefficient = st.floats(-1.5, 1.5)
    a = draw(st.tuples(coefficient, coefficient, coefficient).filter(
        lambda a: (a[0] * a[2] - a[1] * a[1] / 4 > 0) == (regime == "elliptic") and a[0] * a[2] != a[1] * a[1] / 4))
    return a


phase_points = st.tuples(st.floats(-1.0, 1.0), st.floats(0.3, 2.0).map(lambda q: -q))


def _area(points):
    """F0 of three (x, p) points: twice the signed area of their chart points' triangle."""
    (u1, s1), (u2, s2), (u3, s3) = [(x * math.sqrt(-p), math.sqrt(-p)) for x, p in points]
    return (u2 - u1) * (s3 - s1) - (s2 - s1) * (u3 - u1)


# four points, whose last three are far from collinear: the rule divides by their F0
four_points = st.lists(phase_points, min_size=4, max_size=4).filter(lambda ics: abs(_area(ics[1:])) >= 0.05)


def _generator(a, w=1.0):
    """G = [[M, w e1], [0, 0]] at 40 digits."""
    a0, a1, a2 = map(mpmath.mpf, a)
    return mpmath.matrix([[-a1 / 2, -a0, w], [a2, a1 / 2, 0], [0, 0, 0]])


def _on_grid(G, xi0):
    """exp(t G) (xi0, 1) at every grid time, as rows of its first two entries."""
    step, v, rows = mpmath.expm(G * mpmath.mpf(STEP)), mpmath.matrix([xi0[0], xi0[1], 1]), []
    for _ in GRID:
        rows.append((v[0], v[1]))
        v = step * v
    return rows


def _first_root(G, xi0, level):
    """The first t in (0, 2] where the second entry of exp(t G) (xi0, 1) falls to level, or None: a scan of SCAN
    steps finds the step it falls below level in, and a bracketing solver the root in it."""
    start = mpmath.matrix([xi0[0], xi0[1], 1])
    step, v = mpmath.expm(G * mpmath.mpf(2) / SCAN), start
    for k in range(SCAN):
        v = step * v
        if v[1] <= level:
            return mpmath.findroot(lambda t: (mpmath.expm(G * t) * start)[1] - level,
                                   (mpmath.mpf(2 * k) / SCAN, mpmath.mpf(2 * (k + 1)) / SCAN), solver="anderson")
    return None


def _chart(x, p):
    sigma = mpmath.sqrt(-mpmath.mpf(p))
    return x * sigma, sigma


def _relative(got, want):
    """Largest |got - want| / max(1, |want|) over the rows."""
    return max(float(abs(g - w) / max(1, abs(w))) for g, w in zip(np.ravel(got).tolist(), want))


def solve_error(a, ic):
    """('grid', error) of `solve_hamiltonian` on the grid, or ('exit', error) of the time it reports leaving O."""
    with mpmath.workdps(DPS):
        G, xi0 = _generator(a), _chart(*ic)
        root = _first_root(G, xi0, mpmath.mpf(FLOOR))
        try:
            got = solve_hamiltonian(PotentialSpec(*map(constant, a)), ic, GRID, TOL).states
        except GuardViolation as exc:
            assert root is not None, f"left O at {exc.last_valid_t}, the reference stays"
            return "exit", float(abs(exc.last_valid_t - root))
        assert root is None, f"the reference leaves O at {float(root)}"
        return "grid", _relative(got, [z for u, s in _on_grid(G, xi0) for z in (u / s, -s * s)])


def superpose_error(a, ics):
    """Error of the fourth solution `superpose_states` rebuilds from three exact ones, on the grid times at which all
    four stay in O, or None where one leaves it before the grid's second time."""
    with mpmath.workdps(DPS):
        G = _generator(a)
        sols = [_on_grid(G, _chart(*ic)) for ic in ics]
        n = next((i for i, rows in enumerate(zip(*sols)) if not all(s > FLOOR for _, s in rows)), len(GRID))
        if n < 2:
            return None
        xp = [[(float(u / s), float(-s * s)) for u, s in rows[:n]] for rows in sols]
        k = constants_from_four(PhaseTuple(*ics))
        got = superpose_states(np.hstack([np.array(rows) for rows in xp[1:]]), k)
        return _relative(got, [z for u, s in sols[0][:n] for z in (u / s, -s * s)])


def riccati2_error(a, ic):
    """('grid', error) of x from `simulate --system riccati2`, started at the Lagrangian point of the Hamiltonian
    ic, or ('blowup', error) of the step-size underflow time it exits 5 at; a2 > 0."""
    x0, p0 = ic
    v0 = 1 / math.sqrt(-p0) - (a[0] + x0 * (a[1] + x0 * a[2]))
    fields = "".join(f"{name} = poly {value!r}\n" for name, value in zip(("a0", "a1", "a2"), a))
    with tempfile.TemporaryDirectory() as tmp:
        config, out = os.path.join(tmp, "c.ini"), os.path.join(tmp, "out.csv")
        with open(config, "w") as fh:
            fh.write(f"[potential]\n{fields}[run]\nt0 = 0\nt1 = 2\nstep = {STEP!r}\ntol = {TOL!r}\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(["simulate", config, "--system", "riccati2", f"--ic={x0!r},{v0!r}", "--out", out])
        got = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1] if rc == cli.EXIT_OK else None
    with mpmath.workdps(DPS):
        x0, v0 = mpmath.mpf(x0), mpmath.mpf(v0)
        G = _generator(a, v0 + a[0] + x0 * (a[1] + x0 * a[2]))
        root = _first_root(G, (x0, 1), 0)
        if root is None:
            assert rc == cli.EXIT_OK, err.getvalue()
            return "grid", _relative(got, [X / S for X, S in _on_grid(G, (x0, 1))])
    assert rc == cli.EXIT_NUMERIC, f"exit {rc}; the reference blows up at {float(root)}"
    (t_stop,) = re.fullmatch(r"numeric failure: step size underflow at t=(\S+) \(stiffness or finite-time blow-up\)\n",
                             err.getvalue()).groups()
    return "blowup", float(abs(float(t_stop) - root))


# a solution of each regime that leaves O, and whose Lagrangian picture blows up, before t = 2
LEAVING = [((0.81, -0.86, 0.99), (-0.87, -1.7)),  # elliptic
           ((0.06, -1.01, 0.7), (-0.99, -1.42)),  # hyperbolic
           ((1.265625, -1.125, 0.25), (-1.0, -1.0))]  # parabolic: r = -9, s = 4


def _examples(pairs):
    def decorate(test):
        for pair in pairs:
            test = example(*pair)(test)
        return test
    return decorate


@settings(max_examples=150)
@given(constant_potentials(), phase_points)
@_examples(LEAVING)
def test_solve_hamiltonian_is_the_flow_until_it_leaves_O(a, ic):
    kind, error = solve_error(a, ic)
    assert error <= {"grid": SOLVE_ERR, "exit": EXIT_T_ERR}[kind], kind


@settings(max_examples=150)
@given(constant_potentials(), four_points)
def test_superpose_states_rebuilds_a_fourth_exact_solution(a, ics):
    error = superpose_error(a, ics)
    assert error is None or error <= SUPERPOSE_ERR


@settings(max_examples=100)
@given(constant_potentials().filter(lambda a: a[2] > 0), phase_points)
@_examples(LEAVING)
def test_simulate_riccati2_is_x_over_s_until_s_vanishes(a, ic):
    kind, error = riccati2_error(a, ic)
    assert error <= {"grid": RICCATI2_ERR, "blowup": BLOWUP_T_ERR}[kind], kind
