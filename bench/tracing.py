"""Span and count tracing of `riccati_lie`, installed from outside the package.

`Installation(tracer)` wraps the public functions of each module and rebinds
every `riccati_lie` module attribute that is the same function object
(`integrate`, for one, is bound in `integrator`, `cli` and `suites`), so
calls are seen whichever module they come through.  Sub-microsecond
callees get count-only wrappers; their time stays in the caller's self
time.  A name that no longer exists is reported as missing, not an error.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter

LAYERS = ("cli", "timefn", "model", "integrator", "superpose", "liealg", "suites")

# cli's command bodies (cmd_*) stay inside cli.main's self time
CLI_PUBLIC = ("main", "load_scenario", "scenario_seed", "read_csv", "write_csv")

COUNT_ONLY = ("model.eval_U", "integrator.hamiltonian_guard", "liealg.vf_eval", "liealg.vf_jacobian")

# (class, method) pairs wrapped count-only; Jet.__init__ counts jet constructions
COUNT_ONLY_METHODS = (("TimeFn", "eval"), ("JetFn", "eval"), ("Jet", "of"), ("Jet", "__init__"))

RHS_SPANS = ("model.hamilton_rhs", "model.riccati2_rhs")

# names the per-layer metrics read; any that is absent is reported
REQUIRED = (
    "cli.main", "cli.load_scenario", "cli.read_csv", "cli.write_csv",
    "integrator.integrate", "integrator.sample_at",
    "model.hamilton_rhs", "model.riccati2_rhs", "model.eval_U", "model.potential_from_coefficients",
    "timefn.TimeFn.eval", "timefn.JetFn.eval", "timefn.Jet.of", "timefn.Jet.__init__",
    "superpose.superpose_point", "superpose.superpose_trajectory",
    "liealg.check_commutation_table", "liealg.lie_bracket", "liealg.act", "liealg.fundamental_vf",
    "liealg.decompose_rhs_check",
    "suites.suite_brackets", "suites.suite_action", "suites.suite_integrals", "suites.suite_superposition",
    "suites.draw_surviving_solutions",
)


class Tracer:
    """Nested spans aggregated per name, plus call counts and events.

    A span's self time is its duration minus the durations of its direct
    child spans; calls are strictly nested (one thread), so children never
    overlap.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []              # [name, start, time covered by children]
        self.calls = Counter()        # span name, or (name, parent span) -> calls
        self.total = Counter()        # span name -> seconds, children included
        self.self_time = Counter()    # span name -> seconds, children excluded
        self.counts = Counter()       # name or (name, innermost span) -> calls
        self.events = Counter()       # named tallies from return values and errors

    def enter(self, name):
        self._stack.append([name, self.clock(), 0.0])

    def exit(self, error=None):
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.calls[(name, self._stack[-1][0] if self._stack else None)] += 1
        self.total[name] += duration
        self.self_time[name] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        if error is not None:
            for cls in type(error).__mro__:
                self.events[f"{name}.raised.{cls.__name__}"] += 1

    def count(self, name):
        self.counts[name] += 1
        self.counts[(name, self._stack[-1][0] if self._stack else None)] += 1

    def counted_within(self, name, spans):
        return sum(self.counts[(name, span)] for span in spans)


def _timed(tracer, name, fn, on_return):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.exit(exc)
            raise
        tracer.exit()
        if on_return is not None:
            on_return(tracer, result)
        return result

    return wrapper


def _counted(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _integrate_returned(tracer, traj):
    stats = traj.stats
    tracer.events["integrate.rhs"] += stats.n_rhs
    tracer.events["integrate.accepted"] += stats.n_accepted
    tracer.events["integrate.rejected"] += stats.n_rejected


def _draw_returned(tracer, trajs):
    tracer.events["draw.returned"] += len(trajs)


ON_RETURN = {
    "integrator.integrate": _integrate_returned,
    "suites.draw_surviving_solutions": _draw_returned,
}


def _public_functions(mod, layer):
    names = CLI_PUBLIC if layer == "cli" else getattr(mod, "__all__", ())
    for attr in names:
        fn = getattr(mod, attr, None)
        if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
            yield attr, fn


class Installation:
    """Wrappers installed on the live package; `remove()` restores it."""

    def __init__(self, tracer, package="riccati_lie"):
        self.installed = set()
        self._restore = []
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for layer in LAYERS:
            mod = sys.modules.get(f"{package}.{layer}")
            if mod is None:
                continue
            for attr, fn in _public_functions(mod, layer):
                name = f"{layer}.{attr}"
                wrapper = (_counted(tracer, name, fn) if name in COUNT_ONLY
                           else _timed(tracer, name, fn, ON_RETURN.get(name)))
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._set(holder, key, wrapper)
                self.installed.add(name)
        timefn = sys.modules.get(f"{package}.timefn")
        for cls_name, attr in COUNT_ONLY_METHODS:
            cls = getattr(timefn, cls_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                continue
            name = f"timefn.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(_counted(tracer, name, raw.__func__))
            else:
                wrapped = _counted(tracer, name, raw)
            self._set(cls, attr, wrapped)
            self.installed.add(name)
        self.missing = sorted(set(REQUIRED) - self.installed)

    def _set(self, holder, key, value):
        self._restore.append((holder, key, vars(holder)[key]))
        setattr(holder, key, value)

    def remove(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()


def _per(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, n_ops, op_seconds):
    """Per-layer metrics of a traced phase: {name: (value, unit)}.

    n_ops and op_seconds are the number and summed wall time of the traced
    ops.  Self and total times are per call ("_us") or per op ("_per_op");
    "_per_rhs" counts are calls made inside an RHS span per RHS span.
    """
    rhs = tr.events["integrate.rhs"]
    accepted, rejected = tr.events["integrate.accepted"], tr.events["integrate.rejected"]
    rhs_spans = sum(tr.calls[n] for n in RHS_SPANS)

    def self_us(name):
        return (_per(tr.self_time[name], tr.calls[name]) * 1e6, "us")

    def calls_per_op(name):
        return (tr.calls[name] / n_ops, "count")

    def ms_per_op(name, times=None):
        return ((times or tr.total)[name] / n_ops * 1e3, "ms")

    def counted_per_op(name):
        return (tr.counts[name] / n_ops, "count")

    def per_rhs(name):
        return (_per(tr.counted_within(name, RHS_SPANS), rhs_spans), "count")

    draws = tr.calls[("integrator.integrate", "suites.draw_surviving_solutions")]
    m = {
        "integrator.integrate.self_us_per_rhs": (_per(tr.self_time["integrator.integrate"], rhs) * 1e6, "us"),
        "integrator.rhs_calls_per_op": (rhs / n_ops, "count"),
        "integrator.accepted_per_op": (accepted / n_ops, "count"),
        "integrator.rejected_per_op": (rejected / n_ops, "count"),
        "integrator.accept_ratio": (_per(accepted, accepted + rejected), "ratio"),
        "integrator.sample_at.self_us": self_us("integrator.sample_at"),
        "integrator.sample_at.calls_per_op": calls_per_op("integrator.sample_at"),
        "model.hamilton_rhs.self_us": self_us("model.hamilton_rhs"),
        "model.hamilton_rhs.calls_per_op": calls_per_op("model.hamilton_rhs"),
        "model.eval_U.calls_per_op": counted_per_op("model.eval_U"),
        "model.riccati2_rhs.self_us": self_us("model.riccati2_rhs"),
        "model.riccati2_rhs.calls_per_op": calls_per_op("model.riccati2_rhs"),
        "model.potential_from_coefficients.ms_per_op": ms_per_op("model.potential_from_coefficients"),
        "timefn.TimeFn.eval.calls_per_rhs": per_rhs("timefn.TimeFn.eval"),
        "timefn.JetFn.eval.calls_per_rhs": per_rhs("timefn.JetFn.eval"),
        "timefn.Jet.of.calls_per_rhs": per_rhs("timefn.Jet.of"),
        "timefn.Jet.created_per_rhs": per_rhs("timefn.Jet.__init__"),
        "superpose.superpose_point.self_us": self_us("superpose.superpose_point"),
        "superpose.superpose_point.calls_per_op": calls_per_op("superpose.superpose_point"),
        "superpose.superpose_trajectory.self_ms_per_op": ms_per_op("superpose.superpose_trajectory", tr.self_time),
        "superpose.genericity_errors_per_op": (
            tr.events["superpose.superpose_point.raised.GenericityError"] / n_ops, "count"),
        "cli.load_scenario.self_ms_per_op": ms_per_op("cli.load_scenario", tr.self_time),
        "cli.read_csv.ms_per_op": ms_per_op("cli.read_csv"),
        "cli.write_csv.ms_per_op": ms_per_op("cli.write_csv"),
        "cli.main.self_ms_per_op": ms_per_op("cli.main", tr.self_time),
        "liealg.check_commutation_table.ms_per_op": ms_per_op("liealg.check_commutation_table"),
        "liealg.lie_bracket.calls_per_op": calls_per_op("liealg.lie_bracket"),
        "liealg.act.self_us": self_us("liealg.act"),
        "liealg.act.calls_per_op": calls_per_op("liealg.act"),
        "liealg.fundamental_vf.ms_per_op": ms_per_op("liealg.fundamental_vf"),
        "liealg.decompose_rhs_check.ms_per_op": ms_per_op("liealg.decompose_rhs_check"),
        "suites.suite_brackets.ms_per_op": ms_per_op("suites.suite_brackets"),
        "suites.suite_action.ms_per_op": ms_per_op("suites.suite_action"),
        "suites.suite_integrals.ms_per_op": ms_per_op("suites.suite_integrals"),
        "suites.suite_superposition.ms_per_op": ms_per_op("suites.suite_superposition"),
        "suites.draw_surviving_solutions.accept_ratio": (_per(tr.events["draw.returned"], draws), "ratio"),
    }
    # each layer's self time as a share of op time: the most a faster layer can save
    for layer in LAYERS:
        spent = sum(t for name, t in tr.self_time.items() if name.startswith(layer + "."))
        m[f"share.{layer}_pct"] = (100.0 * _per(spent, op_seconds), "%")
    return m
