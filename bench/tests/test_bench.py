"""Tests of the benchmark's own logic: python3 -m pytest bench/tests -q"""

import importlib.util
import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import refmath  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


# --- percentile and sample-count rule -----------------------------------------------


def test_p90_needs_one_hundred_ops_for_ten_samples_beyond_it():
    assert run.samples_beyond(100, 90) == 10
    assert run.samples_beyond(99, 90) == 9
    assert run.samples_beyond(250, 90) == 25
    assert run.MIN_OPS == 100


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))  # order does not matter
    assert run.nearest_rank(values, 90) == 90
    assert run.nearest_rank(values, 50) == 50
    assert run.nearest_rank([7.0], 90) == 7.0
    assert run.nearest_rank([1, 2, 3], 90) == 3


def test_op_budget_depends_on_workload_and_seconds_only():
    assert set(run.OPS_PER_SECOND) == set(run.WORKLOADS)
    assert run.op_budget("verify_all", 25) == round(25 * run.OPS_PER_SECOND["verify_all"])
    assert run.op_budget("simulate_hamiltonian", 25) == run.op_budget("simulate_hamiltonian", 25.0)
    assert run.op_budget("verify_all", 1) == run.MIN_OPS  # never fewer than the p90 rule needs


# --- self time on nested spans ------------------------------------------------------


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    # A [0, 10] holds B [1, 5] (which holds C [2, 4]) and B [6, 7]
    tr = tracing.Tracer(clock=FakeClock([0, 1, 2, 4, 5, 6, 7, 10]))
    tr.enter("A")
    tr.enter("B")
    tr.enter("C")
    tr.exit()
    tr.exit()
    tr.enter("B")
    tr.exit()
    tr.exit()
    assert tr.total == {"A": 10, "B": 5, "C": 2}
    assert tr.self_time == {"A": 5, "B": 3, "C": 2}
    assert tr.calls["B"] == 2 and tr.calls[("B", "A")] == 2 and tr.calls[("C", "B")] == 1
    # self times add up to the root span's duration
    assert sum(tr.self_time.values()) == tr.total["A"]


def test_counts_and_errors_are_attributed_to_the_innermost_span():
    tr = tracing.Tracer(clock=FakeClock([0, 1, 2, 3]))
    tr.count("f")
    tr.enter("A")
    tr.count("f")
    tr.enter("B")
    tr.exit(KeyError("x"))
    tr.exit()
    assert tr.counts["f"] == 2
    assert tr.counts[("f", None)] == 1 and tr.counts[("f", "A")] == 1
    assert tr.counted_within("f", ("A", "B")) == 1
    assert tr.events["B.raised.KeyError"] == 1 and tr.events["B.raised.LookupError"] == 1


# --- wrappers on the live package ----------------------------------------------------


def test_wrappers_cover_every_binding_and_are_removed():
    from riccati_lie import cli, integrator, suites, superpose
    from riccati_lie.timefn import Jet

    original = integrator.integrate
    original_of = Jet.__dict__["of"]
    tr = tracing.Tracer()
    inst = tracing.Installation(tr)
    try:
        assert inst.missing == []
        assert cli.integrate is integrator.integrate is suites.integrate
        assert integrator.integrate is not original
        assert superpose.sample_at is integrator.sample_at
        cfg = ROOT / "bench" / "tests" / "_canonical_unused.ini"  # never written; load fails cleanly
        assert cli.main(["derive", str(cfg)]) == 2
    finally:
        inst.remove()
    assert integrator.integrate is original and cli.integrate is original and suites.integrate is original
    assert Jet.__dict__["of"] is original_of
    assert tr.calls["cli.main"] == 1 and tr.calls["cli.load_scenario"] == 1


def test_missing_public_names_are_reported_not_fatal():
    pkg = types.ModuleType("fakepkg")
    model = types.ModuleType("fakepkg.model")

    def hamilton_rhs(P, t, s):
        return s

    hamilton_rhs.__module__ = "fakepkg.model"
    model.hamilton_rhs = hamilton_rhs
    model.__all__ = ["hamilton_rhs", "eval_U"]  # eval_U listed but gone
    sys.modules.update({"fakepkg": pkg, "fakepkg.model": model})
    try:
        tr = tracing.Tracer()
        inst = tracing.Installation(tr, package="fakepkg")
        assert model.hamilton_rhs(None, 0.0, 3) == 3
        inst.remove()
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.model"]
    assert "model.hamilton_rhs" not in inst.missing
    assert "model.eval_U" in inst.missing and "integrator.integrate" in inst.missing
    assert tr.calls["model.hamilton_rhs"] == 1
    assert model.hamilton_rhs is hamilton_rhs


class FakeWorkload:
    def error_values(self):
        return [1e-9, 1e-10, 1e-11]


def test_benchmark_json_lists_exactly_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tally = run.Tally()
    for seconds in (0.01, 0.03, 0.02):
        tally.add(seconds, run.PROBE_REF_S, run.Outcome(True))
    e2e = run.end_to_end(FakeWorkload(), tally, 0.25)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, u) for k, (_, u) in e2e.items()]
    per_layer = tracing.layer_metrics(tracing.Tracer(), 1, 1.0)
    trace_names = {"trace.untraced_ops_per_s", "trace.traced_ops_per_s", "trace.overhead_ratio",
                   "trace.traced_ops", "trace.missing_names"}
    assert {m["name"] for m in spec["per_layer"]} == set(per_layer) | trace_names
    assert all(per_layer[m["name"]][1] == m["unit"] for m in spec["per_layer"] if m["name"] in per_layer)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_end_to_end_values():
    tally = run.Tally()
    for seconds in (0.01, 0.03, 0.02):
        tally.add(seconds, 2 * run.PROBE_REF_S, run.Outcome(True))  # probe twice as slow: half the time
    tally.add(0.04, run.PROBE_REF_S, run.Outcome(False))
    e2e = run.end_to_end(FakeWorkload(), tally, 0.25)
    assert e2e["op_p50_ms"][0] == pytest.approx(12.5)
    assert e2e["op_p90_ms"][0] == pytest.approx(40.0)
    assert e2e["ops_per_s"][0] == pytest.approx(4 / 0.07)
    assert e2e["err_digits"][0] == pytest.approx(10.0)
    assert e2e["pass_ratio"][0] == 0.75


# --- canonical oracle -------------------------------------------------------------------


def _acceptance_module():
    path = ROOT / "tests" / "test_acceptance.py"
    spec = importlib.util.spec_from_file_location("acceptance_for_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_canonical_oracle_matches_the_acceptance_test_solution():
    acc = _acceptance_module()
    t = np.linspace(0.0, 2.0, 201)
    x, p, v = refmath.canonical_solution(0.0, -0.25, t)
    assert np.max(np.abs(x - acc.analytic_x(t))) <= 1e-15
    assert np.max(np.abs(p - acc.analytic_p(t))) <= 1e-15
    # v = 1/sqrt(-p) - U with U = x^2 in the Lagrangian picture, and v = x'
    assert np.max(np.abs(v - (1.0 / np.sqrt(-p) - x * x))) <= 1e-14
    assert np.max(np.abs(v - np.gradient(x, t, edge_order=2))) <= 1e-3


@pytest.mark.parametrize("x0, p0", [(0.3, -0.7), (0.0, -2.0), (0.45, -0.2)])
def test_canonical_oracle_solves_the_cubic_equation(x0, p0):
    # x'' + 3 x x' + x^3 = 0, with x' = v taken from the formula
    t = np.linspace(0.0, 2.0, 4001)
    x, p, v = refmath.canonical_solution(x0, p0, t)
    assert x[0] == x0 and abs(p[0] - p0) <= 1e-15
    dv = np.gradient(v, t, edge_order=2)
    assert np.max(np.abs(dv + 3.0 * x * v + x**3)[2:-2]) <= 1e-5


# --- polynomial [riccati] generator ------------------------------------------------------


def test_riccati_generator_is_exactly_consistent(tmp_path):
    manifest, refs = gen.gen_simulate_riccati2(np.random.default_rng([7, 1]), str(tmp_path))
    assert manifest["riccati_defect"] <= gen.MAX_DEFECT
    from riccati_lie import cli

    ric = cli.load_scenario(str(tmp_path / "riccati0.ini"))
    pot = cli.load_scenario(str(tmp_path / "potential0.ini"))
    assert ric.source == "riccati" and ric.c0_residual <= 1e-12
    for t in (0.0, 0.77, 2.0):
        for name in ("a0", "a1", "a2"):
            want = getattr(pot.potential, name).eval(t)
            assert math.isclose(getattr(ric.potential, name).eval(t), want, rel_tol=1e-12, abs_tol=1e-12)
    # each config's ICs are the same phase points seen through the Legendre map
    p0 = refmath.momentum_from_velocity(manifest["potentials"][0], 0.0, *np.array(ric.ics).T)
    assert np.allclose(p0, [refs[f"ref0_{j}"][0, 2] for j in range(len(ric.ics))], rtol=1e-14, atol=0)


def test_map_defect_sees_an_inconsistent_c0():
    a = gen.draw_poly_potential(np.random.default_rng(3))
    c = gen.cubic_from_potential(*a)
    a_texts = ["poly " + " ".join(repr(float(v)) for v in coeffs) for coeffs in a]
    c_texts = ["poly " + " ".join(repr(float(v)) for v in coeffs) for coeffs in c]
    assert gen.map_defect(a_texts, c_texts) <= 1e-15
    c_texts[0] = c_texts[0] + " 1e-6"
    assert gen.map_defect(a_texts, c_texts) >= 1e-6
