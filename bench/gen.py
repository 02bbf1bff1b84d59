"""Seeded inputs and scipy references for one benchmark workload.

    python3 bench/gen.py --workload NAME --seed N --out DIR --src SRC

Runs in its own process, so the process that times the program never
imports scipy.  It writes the config and table files the program reads,
plus `manifest.json` (the op cycle and the generator's parameters) and
`refs.npz` (reference solutions) that the timing process checks outputs
against.  Every initial condition is screened with scipy's DOP853 at
rtol = atol = 1e-12, never with the program's own integrator, so ops that
would leave the half-plane are not generated.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np
from scipy.integrate import solve_ivp

import refmath

T0, T1 = 0.0, 2.0
STEP = 0.01            # simulate grid: 201 points
TABLE_STEP = 0.001     # superpose grid: 2,001 points
TOL = 1e-10
REF_TOL = 1e-12
# simulate_*: accuracy varies by a decade between potentials, so a run
# spreads its ops over several, three ICs (one F0 triple) per config
SIM_ICS = 3
N_SIM_POTENTIALS = 16
N_RIC_POTENTIALS = 16
RICCATI2_TRACE_CYCLE = 12
N_TABLES = 12           # superpose_table: one fourth IC per SUPERPOSE_PATTERN entry each
# verify_all: its cost follows the potential (160-260 ms per op across
# potentials), so ops spread over many potentials, each with its own seed
N_VERIFY_CONFIGS = 128
N_OP_SEEDS = 4096       # a multiple of N_VERIFY_CONFIGS
VERIFY_TRACE_CYCLE = 16
MAX_DEFECT = 1e-12

RICCATI2_PATTERN = ("riccati", "potential")
# The two superpose paths have distinct latency modes (~60 and ~125 ms).
# A 2:1 mix puts the median and p90 inside one mode each; with 1:1 the
# median falls in the gap between the modes and jumps between runs.
SUPERPOSE_PATTERN = ("csv", "csv", "library")

P = np.polynomial.polynomial


def grid(step):
    return np.linspace(T0, T1, round((T1 - T0) / step) + 1)


# --- potentials -------------------------------------------------------------


def draw_potential(rng):
    """Potential shaped like `suites.random_potential`: a0, a1 are a line
    plus a sine, a2 a constant plus a cosine, with min a2 >= 0.48."""

    def low_order():
        return [["poly", [float(v) for v in rng.uniform(-0.4, 0.4, 2)]],
                ["sin", float(rng.uniform(-0.4, 0.4)), float(rng.uniform(0.5, 2.0)),
                 float(rng.uniform(0.0, 2.0 * math.pi))]]

    a0, a1 = low_order(), low_order()
    base = float(rng.uniform(0.8, 1.6))
    a2 = [["poly", [base]], ["cos", float(rng.uniform(0.0, 0.4 * base)), float(rng.uniform(0.5, 2.0)),
                             float(rng.uniform(0.0, 2.0 * math.pi))]]
    return {"a0": a0, "a1": a1, "a2": a2}


def draw_poly_potential(rng):
    """Quadratic-in-t polynomial potential with a2 >= 0.4 on the window."""
    t = grid(STEP)
    while True:
        a0 = rng.uniform(-0.4, 0.4, 3)
        a1 = rng.uniform(-0.4, 0.4, 3)
        a2 = np.concatenate(([rng.uniform(0.8, 1.6)], rng.uniform(-0.1, 0.1, 2)))
        if P.polyval(t, a2).min() >= 0.4:
            return [a0, a1, a2]


def cubic_from_potential(a0, a1, a2):
    """Exact polynomial products c0..c3 of the coefficient map."""
    c3 = P.polymul(a2, a2)
    c2 = P.polyadd(P.polyder(a2), 1.5 * P.polymul(a1, a2))
    c1 = P.polyadd(P.polyadd(P.polyder(a1), 0.5 * P.polymul(a1, a1)), P.polymul(a0, a2))
    c0 = P.polyadd(P.polyder(a0), 0.5 * P.polymul(a0, a1))
    return [c0, c1, c2, c3]


def parse_poly(text):
    """Coefficients of a single-term `poly c0 c1 ...` config value."""
    kind, *values = text.split()
    if kind != "poly":
        raise ValueError(f"expected a poly term, got {text!r}")
    return np.array([float(v) for v in values])


def map_defect(a_texts, c_texts):
    """Sup over a fine grid of the residuals of all four coefficient relations
    (c3 = a2^2, c2 = a2' + 3 a1 a2/2, c1 = a1' + a1^2/2 + a0 a2,
    c0 = a0' + a0 a1/2), evaluated on the rendered text read back."""
    a0, a1, a2 = (parse_poly(s) for s in a_texts)
    t = grid(TABLE_STEP)
    want = cubic_from_potential(a0, a1, a2)
    got = [parse_poly(s) for s in c_texts]
    return max(float(np.max(np.abs(P.polyval(t, g) - P.polyval(t, w)))) for g, w in zip(got, want))


def render(terms):
    from riccati_lie.timefn import Cos, Poly, Sin, TimeFn, render_timefn

    kinds = {"sin": Sin, "cos": Cos}
    return render_timefn(TimeFn(tuple(
        Poly(tuple(term[1])) if term[0] == "poly" else kinds[term[0]](*term[1:]) for term in terms
    )))


def write_config(path, section, fields, step, ics=()):
    lines = [f"[{section}]"] + [f"{k} = {v}" for k, v in fields.items()]
    lines += ["", "[run]", f"t0 = {T0!r}", f"t1 = {T1!r}", f"step = {step!r}", f"tol = {TOL!r}", "seed = 0"]
    if ics:
        lines += ["", "[ics]"] + [f"ic{i} = {a!r} {b!r}" for i, (a, b) in enumerate(ics)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def potential_config(path, pot, step, ics=()):
    write_config(path, "potential", {k: render(pot[k]) for k in ("a0", "a1", "a2")}, step, ics)


# --- references ---------------------------------------------------------------


def reference(pot, ic, ts):
    """Direct DOP853 solution sampled at ts, or None if it leaves the
    half-plane (p > -1e-2) or grows past |x| = 10."""
    try:
        sol = solve_ivp(refmath.hamilton_rhs(pot), (ts[0], ts[-1]), list(ic), method="DOP853",
                        rtol=REF_TOL, atol=REF_TOL, t_eval=ts)
    except refmath.LeftHalfPlane:
        return None
    if sol.status != 0 or sol.y.shape[1] != len(ts):
        return None
    x, p = sol.y
    if not (np.all(np.isfinite(sol.y)) and p.max() < -1e-2 and np.abs(x).max() < 10.0):
        return None
    return np.column_stack((ts, x, p))


def screened_ics(pot, rng, n, ts, max_attempts=2000):
    """n initial conditions whose reference solutions stay in the half-plane."""
    ics, refs = [], []
    for _ in range(max_attempts):
        ic = (float(rng.uniform(-0.8, 0.8)), float(rng.uniform(-2.0, -0.5)))
        ref = reference(pot, ic, ts)
        if ref is not None:
            ics.append(ic)
            refs.append(ref)
            if len(ics) == n:
                return ics, refs
    raise RuntimeError(f"only {len(ics)} of {n} initial conditions survive the window")


def reconstruction_margin(refs, fourth):
    """min over the grid of |x0 denominator| / scale when `fourth` is
    rebuilt from three reference solutions; numpy, from the rule."""
    (_, x1, p1), (_, x2, p2), (_, x3, p3) = (r.T for r in refs)
    s1, s2, s3 = np.sqrt(-p1), np.sqrt(-p2), np.sqrt(-p3)
    F0 = float(refmath.cyclic_F0(x1[0], p1[0], x2[0], p2[0], x3[0], p3[0]))
    x0, p0 = fourth
    k1 = float(refmath.cyclic_F0(x0, p0, x1[0], p1[0], x2[0], p2[0]))
    k2 = float(refmath.cyclic_F0(x0, p0, x1[0], p1[0], x3[0], p3[0]))
    den = k1 * (s1 - s3) + k2 * (s2 - s1) - s1 * F0
    return float(np.min(np.abs(den))) / max(1.0, abs(k1), abs(k2))


def draw_table(rng, ts):
    """A potential, three reference solutions with |F0| >= 1e-2, and one
    fourth IC per SUPERPOSE_PATTERN entry whose reconstruction stays
    generic on the whole grid."""
    for _ in range(50):
        pot = draw_potential(rng)
        three_ics, three = screened_ics(pot, rng, 3, ts)
        (x1, p1), (x2, p2), (x3, p3) = three_ics
        if abs(refmath.cyclic_F0(x1, p1, x2, p2, x3, p3)) < 1e-2:
            continue
        fourths = []
        for _ in range(200):
            (ic,), (sol,) = screened_ics(pot, rng, 1, ts)
            if reconstruction_margin(three, ic) >= 1e-3:
                fourths.append((ic, sol))
                if len(fourths) == len(SUPERPOSE_PATTERN):
                    return pot, three_ics, three, fourths
    raise RuntimeError("no generic three-solution configuration found")


# --- workloads ------------------------------------------------------------------


def gen_simulate_hamiltonian(rng, out):
    ts = grid(STEP)
    ops, refs = [], {}
    for i in range(N_SIM_POTENTIALS):
        pot = draw_potential(rng)
        ics, sols = screened_ics(pot, rng, SIM_ICS, ts)
        potential_config(os.path.join(out, f"hamiltonian{i}.ini"), pot, STEP, ics)
        for j, sol in enumerate(sols):
            refs[f"ref{i}_{j}"] = sol
            ops.append({"config": f"hamiltonian{i}.ini", "system": "hamiltonian", "ic": j,
                        "ref": f"ref{i}_{j}", "group": f"hamiltonian{i}"})
    return {"ops": ops}, refs


def gen_simulate_riccati2(rng, out):
    ts = grid(STEP)
    ops, pots, refs, defects = [], [], {}, []
    for i in range(N_RIC_POTENTIALS):
        a = draw_poly_potential(rng)
        pot = {k: [["poly", [float(c) for c in coeffs]]] for k, coeffs in zip(("a0", "a1", "a2"), a)}
        ics, sols = screened_ics(pot, rng, SIM_ICS, ts)
        lag_ics = [(x, 1.0 / math.sqrt(-p) - float(refmath.potential_U(pot, T0, x))) for x, p in ics]
        c_texts = [render([["poly", [float(v) for v in c]]]) for c in cubic_from_potential(*a)]
        defect = map_defect([render(pot[k]) for k in ("a0", "a1", "a2")], c_texts)
        if not defect <= MAX_DEFECT:
            raise RuntimeError(f"generated [riccati] config is inconsistent: defect {defect:.3e} > {MAX_DEFECT}")
        write_config(os.path.join(out, f"riccati{i}.ini"), "riccati",
                     dict(zip(("c0", "c1", "c2", "c3"), c_texts)), STEP, lag_ics)
        potential_config(os.path.join(out, f"potential{i}.ini"), pot, STEP, lag_ics)
        for j, sol in enumerate(sols):
            refs[f"ref{i}_{j}"] = sol
            for source in RICCATI2_PATTERN:
                ops.append({"config": f"{source}{i}.ini", "system": "riccati2", "ic": j, "pot": i,
                            "ref": f"ref{i}_{j}", "group": f"{source}{i}"})
        pots.append(pot)
        defects.append(defect)
    return ({"ops": ops, "potentials": pots, "riccati_defect": max(defects),
             "trace_cycle": RICCATI2_TRACE_CYCLE}, refs)


def gen_superpose_table(rng, out):
    ts = grid(TABLE_STEP)
    ops, refs, tables = [], {}, []
    for i in range(N_TABLES):
        pot, three_ics, three, fourths = draw_table(rng, ts)
        potential_config(os.path.join(out, f"superpose{i}.ini"), pot, TABLE_STEP)
        with open(os.path.join(out, f"three{i}.csv"), "w") as fh:
            fh.write("t,x1,p1,x2,p2,x3,p3\n")
            for row in np.column_stack([ts] + [r[:, 1:] for r in three]):
                fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")
        for j, (path, (ic, sol)) in enumerate(zip(SUPERPOSE_PATTERN, fourths)):
            refs[f"fourth{i}_{j}"] = sol
            ops.append({"config": f"superpose{i}.ini", "table": i, "path": path, "fourth": list(ic),
                        "ref": f"fourth{i}_{j}"})
        tables.append({"csv": f"three{i}.csv", "three_ics": three_ics})
    return {"ops": ops, "tables": tables}, refs


def gen_verify_all(rng, out):
    ops = []
    for i in range(N_VERIFY_CONFIGS):
        potential_config(os.path.join(out, f"verify{i}.ini"), draw_potential(rng), STEP)
        ops.append({"config": f"verify{i}.ini"})
    op_seeds = [int(s) for s in rng.integers(1, 2**31 - 1, N_OP_SEEDS)]
    return {"ops": ops, "op_seeds": op_seeds, "trace_cycle": VERIFY_TRACE_CYCLE}, {}


GENERATORS = {
    "simulate_hamiltonian": gen_simulate_hamiltonian,
    "simulate_riccati2": gen_simulate_riccati2,
    "superpose_table": gen_superpose_table,
    "verify_all": gen_verify_all,
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--src", required=True, help="directory holding the riccati_lie package")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    # workloads draw from distinct streams of the same seed
    rng = np.random.default_rng([args.seed, list(GENERATORS).index(args.workload)])
    manifest, refs = GENERATORS[args.workload](rng, args.out)
    np.savez(os.path.join(args.out, "refs.npz"), **refs)
    with open(os.path.join(args.out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
