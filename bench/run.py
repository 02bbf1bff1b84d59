"""Benchmark of the riccati-lie pipeline: simulate, superpose and verify.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S     # a table of every workload
    python3 bench/run.py ... --record FILE                        # append results to a record
    python3 bench/run.py --compare A.json B.json                  # medians and ratios B/A

Run from the repository root.  One process, one thread, a closed loop with
one caller: each op is one `riccati_lie.cli.main(argv)` call (or, on the
library path of `superpose_table`, one library call), and the next op
starts when the previous one returns.  Inputs come from `--seed` through
bench/gen.py, which runs in its own process; the program only sees the
generated config and table files.  Before timing, the canonical potential's
closed-form solution checks `simulate` in both pictures.

A run performs a fixed number of ops, set by the workload and --seconds
(see OPS_PER_SECOND), so a seed always runs the same ops.  With --trace 0
the run times ops untraced and prints the end-to-end metrics; with
--trace 1 it times a short untraced phase, then repeats a fixed cycle of
ops with tracing wrappers installed and prints per-layer metrics.  The
last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import refmath
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
HIGH_PCT = 90
MIN_TAIL = 10              # samples beyond the reported high percentile
MAX_RUN_SECONDS = 150.0    # hard cap on the ops of a run, on a machine far slower than expected
SETUP_SAMPLES = 7
CHECK_TOL = 1e-6           # per-op relative deviation from the scipy reference
ORACLE_TOL = 1e-6
LIBRARY_MAX_STEP = 0.01    # superpose_table's library-path trajectories
UNTRACED_SHARE = 0.25      # of a traced run, spent untraced to size the overhead
SEED_ENV_VAR = "RICCATI_LIE_SEED"

# Ops are single-threaded and CPU-bound, so an op's latency is the CPU time
# the process spends in it.  On a shared virtual machine the wall clock also
# counts time the hypervisor gives to other guests: on an Intel Xeon VM with
# two vCPUs that tripled the spread of a fixed 50 ms loop (IQR 22% of the
# median against 8%).
CLOCK = time.process_time

# The CPU itself runs up to 1.6x faster or slower from one few-second window
# to the next, as other guests load the physical core (Intel Xeon VM, two
# vCPUs).  A fixed pure-Python probe timed between consecutive ops tracks
# that speed, and every op time is scaled to the speed at which the probe
# takes PROBE_REF_S.  On that VM the median op time of 5-second windows
# varied with IQR 15.7% of the median raw and 2.0% scaled.
PROBE_REF_S = 6e-4


def speed_probe():
    """CPU seconds of a fixed pure-Python loop: the machine's current speed."""
    start = CLOCK()
    acc, slots = 0.0, {}
    for i in range(3000):
        acc += (i * 0.5) ** 0.5
        slots[i & 63] = acc
    return CLOCK() - start


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, failed oracle)."""


# --- statistics ----------------------------------------------------------------


def samples_beyond(n, pct):
    """Samples strictly above the nearest-rank pct-th percentile of n."""
    return n - math.ceil(n * pct / 100.0)


MIN_OPS = next(n for n in range(1, 10_000) if samples_beyond(n, HIGH_PCT) >= MIN_TAIL)


def nearest_rank(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * pct / 100.0) - 1)]


# --- output checks ---------------------------------------------------------------


def read_table(path):
    """An output CSV as an array, or None when it is missing or malformed."""
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError):
        return None


def rel_dev(got, ref):
    """max |got - ref| over the (x, p) columns, relative to max(1, max |ref|)."""
    return float(np.max(np.abs(got - ref))) / max(1.0, float(np.max(np.abs(ref))))


class Outcome:
    """An op's exit code plus what its check found: ok (success and a
    correct output), or a documented failure, or a wrong answer."""

    def __init__(self, ok, wrong=False, note=""):
        self.ok, self.wrong, self.note = ok, wrong, note


def cli_call(cli, argv):
    """Run cli.main(argv) with its output captured; returns (seconds, rc,
    stdout).  rc is a string naming the exception if one escaped main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = CLOCK()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a wrong answer, not a documented exit
            rc = f"uncaught {type(exc).__name__}: {exc}"
        elapsed = CLOCK() - start
    return elapsed, rc, out.getvalue()


def exit_outcome(rc):
    """Outcome of an op that did not exit 0: a documented failure, or a
    wrong answer when an exception escaped."""
    return Outcome(False, wrong=isinstance(rc, str), note=f"exit {rc}")


# --- workloads -------------------------------------------------------------------


class Workload:
    """One workload's op cycle over generated inputs.

    run(k) performs op k (the cycle repeats) and returns (seconds, result);
    check(k, result) is untimed and returns an Outcome.  error_values()
    gives one error per distinct input seen.
    """

    def __init__(self, rl, work, manifest, refs):
        self.rl, self.work, self.manifest, self.refs = rl, work, manifest, refs
        self.ops = manifest["ops"]
        self.trace_cycle = manifest.get("trace_cycle", len(self.ops))
        self.errors = {}  # input key -> error; a repeated input overwrites its entry

    def error_values(self):
        return list(self.errors.values())

    def path(self, name):
        return os.path.join(self.work, name)

    def spec(self, k):
        return self.ops[k % len(self.ops)]


class Simulate(Workload):
    """simulate --system hamiltonian|riccati2 on the 201-point grid.

    Error: drift of F0 along the outputs of a config's three ICs, relative
    to max(1, |F0(t0)|); riccati2 outputs are mapped to p = -1/(v+U)^2
    with U from the generator's own parameters.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.outputs = {}  # (config group, ic) -> (x, p) on the grid

    def error_values(self):
        triples = {}
        for (group, ic), xp in sorted(self.outputs.items()):
            triples.setdefault(group, []).append(xp)
        return [refmath.f0_drift(t) for t in triples.values() if len(t) == 3]

    def run(self, k):
        spec = self.spec(k)
        argv = ["simulate", self.path(spec["config"]), "--system", spec["system"],
                "--ic", str(spec["ic"]), "--out", self.path("out.csv")]
        seconds, rc, _ = cli_call(self.rl.cli, argv)
        return seconds, rc

    def check(self, k, rc):
        if rc != 0:
            return exit_outcome(rc)
        spec = self.spec(k)
        ref = self.refs[spec["ref"]]
        out = read_table(self.path("out.csv"))
        if out is None or out.shape != ref.shape or not np.array_equal(out[:, 0], ref[:, 0]):
            return Outcome(False, wrong=True, note="output unreadable, or its shape or grid differs")
        t, x, y = out.T
        if spec["system"] == "riccati2":
            p = refmath.momentum_from_velocity(self.manifest["potentials"][spec["pot"]], t, x, y)
        else:
            p = y
        dev = rel_dev(np.column_stack((x, p)), ref[:, 1:])
        if not dev <= CHECK_TOL:
            return Outcome(False, wrong=True, note=f"deviation {dev:.3e} from reference")
        self.outputs[(spec["group"], spec["ic"])] = (x, p)
        return Outcome(True)


class Superpose(Workload):
    """Reconstruct a fourth solution on 2,001 grid points from three.

    The csv path runs `superpose --fourth-ic` on the three-solution table;
    the library path runs constants_from_four + superpose_trajectory on
    three trajectories the program integrates before timing starts, with
    the step cap `simulate` uses on a 0.01 grid.
    Error: relative deviation from the scipy solution of the fourth IC.
    """

    def __init__(self, *args):
        super().__init__(*args)
        rl = self.rl
        self.grid = self.refs[self.ops[0]["ref"]][:, 0]
        self.trajs = {}
        for spec in self.ops:
            if spec["table"] in self.trajs:
                continue
            sc = rl.cli.load_scenario(self.path(spec["config"]))
            rhs = rl.model.hamiltonian_field(sc.potential)
            self.trajs[spec["table"]] = [
                rl.integrator.integrate(rhs, (sc.t0, ic), sc.t1, sc.tol, guard=rl.integrator.hamiltonian_guard,
                                        max_step=LIBRARY_MAX_STEP, system="hamiltonian")
                for ic in self.manifest["tables"][spec["table"]]["three_ics"]
            ]

    def run(self, k):
        spec = self.spec(k)
        x0, p0 = spec["fourth"]
        if spec["path"] == "csv":
            table = self.manifest["tables"][spec["table"]]["csv"]
            argv = ["superpose", self.path(spec["config"]), "--sols", self.path(table),
                    f"--fourth-ic={x0!r},{p0!r}", "--out", self.path("rec.csv")]
            seconds, rc, _ = cli_call(self.rl.cli, argv)
            return seconds, (rc, None)
        sp, PhasePoint = self.rl.superpose, self.rl.model.PhasePoint
        trajs = self.trajs[spec["table"]]
        start = CLOCK()
        try:
            points = [PhasePoint(x0, p0)] + [PhasePoint(*tr.states[0]) for tr in trajs]
            k_const = sp.constants_from_four(sp.PhaseTuple(*points))
            rec = sp.superpose_trajectory(*trajs, k_const, self.grid)
        except self.rl.errors.RiccatiLieError as exc:
            return CLOCK() - start, (exc, None)
        except Exception as exc:
            return CLOCK() - start, (f"uncaught {type(exc).__name__}: {exc}", None)
        return CLOCK() - start, (0, rec.states)

    def check(self, k, result):
        rc, states = result
        if isinstance(rc, self.rl.errors.RiccatiLieError):
            return Outcome(False, note=f"raised {type(rc).__name__}")
        if rc != 0:
            return exit_outcome(rc)
        if states is None:
            out = read_table(self.path("rec.csv"))
            if out is None or out.shape != (len(self.grid), 3) or not np.array_equal(out[:, 0], self.grid):
                return Outcome(False, wrong=True, note="output unreadable, or its grid differs from the table's")
            states = out[:, 1:]
        spec = self.spec(k)
        dev = rel_dev(states, self.refs[spec["ref"]][:, 1:])
        if not dev <= CHECK_TOL:
            return Outcome(False, wrong=True, note=f"deviation {dev:.3e} from reference")
        self.errors[(spec["path"], spec["ref"])] = dev
        return Outcome(True)


CHECK_LINE = re.compile(r"^(PASS|FAIL) (\S+) residual=(\S+) threshold=(\S+)$")
SUMMARY_LINE = re.compile(r"^(\d+)/(\d+) checks passed$")


class Verify(Workload):
    """verify all --trials 100, one potential config and one scenario seed
    per op.

    An op passes when it exits 0.  Exit 1 with consistent FAIL lines is a
    failed op, not a wrong answer.  Error: the largest residual any check
    printed.  `worst_ratio` keeps the largest residual/threshold, which
    exceeds 1 when a check failed.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.op_seeds = self.manifest["op_seeds"]
        self.worst_ratio = 0.0

    def run(self, k):
        os.environ[SEED_ENV_VAR] = str(self.op_seeds[k % len(self.op_seeds)])
        argv = ["verify", "all", self.path(self.spec(k)["config"]), "--trials", "100"]
        seconds, rc, stdout = cli_call(self.rl.cli, argv)
        return seconds, (rc, stdout)

    def check(self, k, result):
        rc, stdout = result
        lines = stdout.splitlines()
        if rc not in (0, 1):
            return exit_outcome(rc)
        checks = [CHECK_LINE.match(line) for line in lines[:-1]]
        summary = SUMMARY_LINE.match(lines[-1]) if lines else None
        if not lines or summary is None or not all(checks):
            return Outcome(False, wrong=True, note="malformed verify output")
        failed = sum(m.group(1) == "FAIL" for m in checks)
        if int(summary.group(2)) != len(checks) or int(summary.group(1)) != len(checks) - failed \
                or (rc == 1) != (failed > 0):
            return Outcome(False, wrong=True, note="exit code and PASS/FAIL lines disagree")
        residuals = [(float(m.group(3)), float(m.group(4))) for m in checks]
        self.worst_ratio = max([self.worst_ratio] + [r / t for r, t in residuals if t > 0])
        self.errors[k % len(self.op_seeds)] = max(r for r, _ in residuals)
        return Outcome(rc == 0, note="" if rc == 0 else "verification FAIL")


KINDS = {
    "simulate_hamiltonian": Simulate,
    "simulate_riccati2": Simulate,
    "superpose_table": Superpose,
    "verify_all": Verify,
}
WORKLOADS = tuple(KINDS)

# Ops per second of wall time, checks included, of each workload at the
# baseline commit on an Intel Xeon VM with two vCPUs (records/baseline.json).
# A run performs --seconds times this many ops, a count fixed in advance
# rather than a time-bound loop: verify_all fails a few percent of its ops
# at baseline (integrals drift checks), and a time-bound loop would run a
# different number of ops, and so count a different number of failures, each
# time the same seed runs.  On that machine a run lasts about --seconds.
OPS_PER_SECOND = {
    "simulate_hamiltonian": 22.0,
    "simulate_riccati2": 5.0,
    "superpose_table": 14.0,
    "verify_all": 6.2,
}


def op_budget(workload, seconds):
    """Ops in a run: a function of the workload and --seconds only."""
    return max(MIN_OPS, round(seconds * OPS_PER_SECOND[workload]))


# --- the program under test ------------------------------------------------------------


class Program:
    """The riccati_lie modules, imported from the checkout's src/ only."""

    def __init__(self, src):
        sys.path.insert(0, src)
        import riccati_lie
        import riccati_lie.cli
        import riccati_lie.errors
        import riccati_lie.integrator
        import riccati_lie.model
        import riccati_lie.superpose

        where = os.path.dirname(os.path.abspath(riccati_lie.__file__))
        if where != os.path.join(src, "riccati_lie"):
            raise BenchError(f"riccati_lie imported from {where}, not from {src}")
        self.cli = riccati_lie.cli
        self.errors = riccati_lie.errors
        self.integrator = riccati_lie.integrator
        self.model = riccati_lie.model
        self.superpose = riccati_lie.superpose


SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); import riccati_lie, riccati_lie.cli; "
    "riccati_lie.cli.build_parser(); import time; print('ready', repr(time.thread_time()))"
)


def setup_seconds(src, root):
    """Median CPU time the main thread of a fresh interpreter spends from
    its start until it has imported riccati_lie and built the CLI parser,
    i.e. until its first op is ready.  The main thread only: numpy's import
    starts BLAS threads whose start-up spinning varies from run to run.
    Not scaled by the speed probe, which in a just-started process does
    not track the import's speed.  One unmeasured spawn first, so compiled
    bytecode exists."""
    code = SETUP_CODE.format(src=src)
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True)
        words = proc.stdout.split()
        if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
            raise BenchError(f"a fresh process could not import riccati_lie:\n{proc.stderr}")
        samples.append(float(words[1]))
    return statistics.median(samples[1:])


def preflight_oracle(rl, work, rng):
    """simulate in both pictures under the canonical potential (0, 0, 1),
    against the closed form; returns the sup error over the grid."""
    cfg = os.path.join(work, "canonical.ini")
    with open(cfg, "w") as fh:
        fh.write("[potential]\na0 = poly 0\na1 = poly 0\na2 = poly 1\n\n"
                 "[run]\nt0 = 0.0\nt1 = 2.0\nstep = 0.01\ntol = 1e-10\nseed = 0\n")
    # x0 >= 0 keeps y = 1 + x0 t + C t^2 positive on the window
    ics = [(0.0, -0.25)] + [(float(rng.uniform(0.0, 0.5)), float(rng.uniform(-1.0, -0.2))) for _ in range(2)]
    out = os.path.join(work, "oracle.csv")
    worst = 0.0
    for x0, p0 in ics:
        v0 = 1.0 / math.sqrt(-p0) - x0 * x0
        for system, pair in (("hamiltonian", (x0, p0)), ("riccati2", (x0, v0))):
            _, rc, _ = cli_call(rl.cli, ["simulate", cfg, "--system", system,
                                         f"--ic={pair[0]!r},{pair[1]!r}", "--out", out])
            if rc != 0:
                raise BenchError(f"oracle simulate --system {system} from {pair} exited {rc}")
            table = read_table(out)
            if table is None:
                raise BenchError(f"oracle simulate --system {system} wrote no readable table")
            t, x, y = table.T
            x_exact, p_exact, v_exact = refmath.canonical_solution(x0, p0, t)
            y_exact = p_exact if system == "hamiltonian" else v_exact
            worst = max(worst, float(np.max(np.abs(x - x_exact))), float(np.max(np.abs(y - y_exact))))
    return worst


# --- one run ----------------------------------------------------------------------


def generate(workload, seed, work, src):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "gen.py"), "--workload", workload, "--seed", str(seed),
         "--out", work, "--src", src],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise BenchError(f"input generation failed:\n{proc.stderr}")
    with open(os.path.join(work, "manifest.json")) as fh:
        manifest = json.load(fh)
    with np.load(os.path.join(work, "refs.npz")) as data:
        refs = {k: data[k] for k in data.files}
    return manifest, refs


class Tally:
    """Latencies and outcomes of the ops of one phase; `seconds` as
    measured, `scaled` at the probe's reference speed."""

    def __init__(self):
        self.seconds, self.scaled, self.ok, self.wrong, self.notes = [], [], 0, 0, []

    def add(self, seconds, speed, outcome):
        self.seconds.append(seconds)
        self.scaled.append(seconds * PROBE_REF_S / speed)
        self.ok += outcome.ok
        self.wrong += outcome.wrong
        if outcome.note and len(self.notes) < 5:
            self.notes.append(outcome.note)

    @property
    def n(self):
        return len(self.seconds)


def run_ops(wl, tally, first, count=None, until=None):
    """Run ops first, first+1, ... until `count` ops ran or the clock passes `until`."""
    k = first
    before = speed_probe()
    while (count is None or k - first < count) and (until is None or time.perf_counter() < until):
        seconds, result = wl.run(k)
        after = speed_probe()
        tally.add(seconds, 0.5 * (before + after), wl.check(k, result))
        before = after
        k += 1
    return k


def error_digits(errors):
    """-log10 of the median error over distinct inputs: correct digits.

    A median over many inputs, in decades, repeats across seeds; the
    largest error of a run does not (it spans a decade between seeds).
    """
    return -math.log10(max(statistics.median(errors), 1e-17)) if errors else 0.0


def end_to_end(wl, tally, setup_s):
    lat = tally.scaled
    print(f"unscaled op CPU time: median {statistics.median(tally.seconds) * 1e3:.3f} ms, "
          f"p{HIGH_PCT} {nearest_rank(tally.seconds, HIGH_PCT) * 1e3:.3f} ms over {tally.n} ops")
    errors = wl.error_values()
    if errors:
        print(f"error over {len(errors)} distinct inputs: median {statistics.median(errors):.3e}, "
              f"max {max(errors):.3e}")
    if isinstance(wl, Verify):
        print(f"largest residual/threshold of any check: {wl.worst_ratio:.3f}")
    return {
        "ops_per_s": (tally.n / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (nearest_rank(lat, HIGH_PCT) * 1e3, "ms"),
        "err_digits": (error_digits(errors), "digits"),
        "pass_ratio": (tally.ok / tally.n, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def measure(workload, seed, seconds, traced, root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "riccati_lie", "__init__.py")):
        raise BenchError(f"no riccati_lie package under {src}; run from the repository root")
    work = os.path.join(root, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work)
    saved_seed = os.environ.get(SEED_ENV_VAR)
    try:
        manifest, refs = generate(workload, seed, work, src)
        setup_s = None if traced else setup_seconds(src, root)
        rl = Program(src)
        oracle = preflight_oracle(rl, work, np.random.default_rng(seed))
        if not oracle <= ORACLE_TOL:
            raise BenchError(f"pre-flight oracle: sup error {oracle:.3e} > {ORACLE_TOL}")
        print(f"pre-flight oracle: sup error {oracle:.3e} <= {ORACLE_TOL}")
        wl = KINDS[workload](rl, work, manifest, refs)
        for k in range(min(3, len(wl.ops))):  # warm-up, untimed and unchecked
            wl.run(k)
        n_ops = op_budget(workload, seconds)
        deadline = time.perf_counter() + MAX_RUN_SECONDS
        measured = Tally()
        if not traced:
            run_ops(wl, measured, 0, count=n_ops, until=deadline)
            metrics, tallies = end_to_end(wl, measured, setup_s), [measured]
        else:
            metrics, tallies = traced_metrics(wl, measured, n_ops, deadline)
    finally:
        if saved_seed is None:
            os.environ.pop(SEED_ENV_VAR, None)
        else:
            os.environ[SEED_ENV_VAR] = saved_seed
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # only when no other run is using it
            os.rmdir(os.path.dirname(work))
    attempted = sum(t.n for t in tallies)
    failed = attempted - sum(t.ok for t in tallies)
    wrong = sum(t.wrong for t in tallies)
    for note in sorted({n for t in tallies for n in t.notes}):
        print(f"op note: {note}")
    print(f"{workload}: {attempted} ops, {failed} failed, {wrong} wrong answers"
          + ("" if traced else f", {samples_beyond(attempted, HIGH_PCT)} samples beyond p{HIGH_PCT}"))
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def traced_metrics(wl, untraced, n_ops, deadline):
    """An untraced phase of a share of the run's n_ops sizes the tracing
    overhead; then whole cycles of ops, the rest of n_ops rounded up, run
    traced, so per-op counts are exact for a seed."""
    run_ops(wl, untraced, 0, count=math.ceil(UNTRACED_SHARE * n_ops), until=deadline)
    tracer = tracing.Tracer(clock=CLOCK)
    installed = tracing.Installation(tracer)
    traced = Tally()
    try:
        for _ in range(max(1, math.ceil((n_ops - untraced.n) / wl.trace_cycle))):
            run_ops(wl, traced, 0, count=wl.trace_cycle)
            if time.perf_counter() >= deadline:
                break
    finally:
        installed.remove()
    if installed.missing:
        print("missing: " + " ".join(installed.missing))
    metrics = tracing.layer_metrics(tracer, traced.n, sum(traced.seconds))
    untraced_rate = untraced.n / sum(untraced.scaled) if untraced.n else 0.0
    traced_rate = traced.n / sum(traced.scaled)
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
    metrics["trace.traced_ops"] = (traced.n, "count")
    metrics["trace.missing_names"] = (len(installed.missing), "count")
    return metrics, [untraced, traced]


# --- records ------------------------------------------------------------------------


def environment(root):
    """What a record needs to be compared with another."""
    from importlib import metadata

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    pkg = os.path.join(root, "src", "riccati_lie")
    src_lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy"),
        "nproc": os.cpu_count(), "cpu": cpu, "commit": commit, "src_lines": src_lines,
    }


def append_record(path, root, entry):
    record = {"env": environment(root), "runs": []}
    if os.path.exists(path):
        with open(path) as fh:
            record = json.load(fh)
    record["runs"].append(entry)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)


def medians(record):
    """{(workload, metric): (median value, unit)} over a record's runs."""
    values = {}
    for run in record["runs"]:
        for name, m in run["result"]["metrics"].items():
            values.setdefault((run["workload"], name), ([], m["unit"]))[0].append(m["value"])
    return {key: (statistics.median(vals), unit) for key, (vals, unit) in values.items()}


def compare(path_a, path_b):
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    ma, mb = medians(a), medians(b)
    print(f"A: {path_a} commit={a['env'].get('commit')} src_lines={a['env'].get('src_lines')}")
    print(f"B: {path_b} commit={b['env'].get('commit')} src_lines={b['env'].get('src_lines')}")
    print(f"{'workload':22} {'metric':46} {'A':>12} {'B':>12} {'B/A':>8}  unit")
    for key in sorted(set(ma) & set(mb)):
        (va, unit), (vb, _) = ma[key], mb[key]
        ratio = f"{vb / va:8.3f}" if va else "     n/a"
        print(f"{key[0]:22} {key[1]:46} {va:12.5g} {vb:12.5g} {ratio}  {unit}")
    for key in sorted(set(ma) ^ set(mb)):
        print(f"{key[0]:22} {key[1]:46} only in {'A' if key in ma else 'B'}")


# --- entry point -------------------------------------------------------------------------


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.record:
            cmd += ["--record", args.record]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"{workload} failed with exit code {proc.returncode}")
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    for workload, result in results.items():
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:46} {m['value']:14.6g} {m['unit']}")
    return results


def main(argv=None):
    ap = argparse.ArgumentParser(description="riccati-lie pipeline benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="sets the ops of a run: about this many seconds at the baseline rate")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append this run's result and environment to a JSON record")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="print medians and ratios B/A of two records")
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        ap.error("--workload is required unless --compare is given")
    root = os.getcwd()
    try:
        if args.workload == "all":
            print(json.dumps(run_all(args)))
            return 0
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    if args.record:
        append_record(args.record, root, {"workload": args.workload, "seed": args.seed,
                                          "seconds": args.seconds, "trace": args.trace, "result": result})
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
