"""Replay the benchmark's generated inputs through the CLI, and hash or compare every op.

    python3 tools/replay.py --seeds 21 22 23 [--src SRC]                # one hash per op
    python3 tools/replay.py --seeds 21 22 23 [--src SRC] --keep FILE    # keep each op's output too
    python3 tools/replay.py --compare A B                               # compare two kept runs

For each seed, `bench/gen.py` writes the inputs of all four workloads to a
temporary directory, run against SRC (default: this checkout's `src`), and
each op then runs through `riccati_lie.cli.main` in this one process:

- `derive` on every config;
- `simulate` under both systems on every simulate config and IC;
- every CSV-path `superpose` op;
- `verify all --trials 100` on every verify_all config, under its op seed.

Each op prints one line: its seed, workload and argv, then the sha256 of its
exit code, stdout, stderr and output file.  Ops run from the input directory
with relative paths, so the lines of two checkouts compare with `diff`.

`--keep FILE` also writes each op's exit code, stdout, stderr and output
file to FILE, one JSON object a line.  `--compare A B` reads two such files,
kept on two checkouts, and prints a row per workload: its ops, how many are
byte-identical, whether every exit code, every PASS/FAIL line and every
output shape are equal, and the largest relative difference |a - b| / max(1,
|a|) over the numbers of the output tables and of the stdout lines, A being
the first file.  It exits 1 when an exit code, a PASS/FAIL line or a shape
differs, or an op is in one file only.  Nothing is written under `bench/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GEN = os.path.join(ROOT, "bench", "gen.py")
WORKLOADS = ("simulate_hamiltonian", "simulate_riccati2", "superpose_table", "verify_all")
OUT = "out.csv"  # every op's output file, removed before each op
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def generate(workload, seed, out, src):
    """The manifest of one workload's inputs, which `bench/gen.py` writes to out."""
    os.makedirs(out)
    subprocess.run([sys.executable, GEN, "--workload", workload, "--seed", str(seed), "--out", out, "--src", src],
                   check=True, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    with open(os.path.join(out, "manifest.json")) as fh:
        return json.load(fh)


def ops(workload, manifest):
    """(argv, op seed or None) of each op the replay runs on one workload's inputs, paths relative to its directory."""
    specs = manifest["ops"]
    for config in sorted(dict.fromkeys(spec["config"] for spec in specs)):
        yield ["derive", config], None
    if workload.startswith("simulate"):
        for spec in specs:
            for system in ("hamiltonian", "riccati2"):
                yield ["simulate", spec["config"], "--system", system, "--ic", str(spec["ic"]), "--out", OUT], None
    elif workload == "superpose_table":
        for spec in specs:
            if spec["path"] == "csv":
                x0, p0 = spec["fourth"]
                yield ["superpose", spec["config"], "--sols", manifest["tables"][spec["table"]]["csv"],
                       f"--fourth-ic={x0!r},{p0!r}", "--out", OUT], None
    else:
        for spec, seed in zip(specs, manifest["op_seeds"]):
            yield ["verify", "all", spec["config"], "--trials", "100"], seed


def run(cli, argv, seed):
    """The exit code, stdout, stderr and output file (text, or None) of one `cli.main` call."""
    if os.path.exists(OUT):
        os.remove(OUT)
    os.environ.pop(cli.SEED_ENV_VAR, None)
    if seed is not None:
        os.environ[cli.SEED_ENV_VAR] = str(seed)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an escaped exception is part of what the op did
            rc = f"uncaught {type(exc).__name__}: {exc}"
    table = None
    if os.path.exists(OUT):
        with open(OUT) as fh:
            table = fh.read()
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "out": table}


def digest(result):
    """sha256 over an op's exit code, stdout, stderr and output file."""
    sha = hashlib.sha256()
    for part in (repr(result["rc"]), result["stdout"], result["stderr"]):
        sha.update(part.encode() + b"\0")
    if result["out"] is not None:
        sha.update(result["out"].encode())
    return sha.hexdigest()


def replay(seeds, src, keep=None):
    sys.path.insert(0, src)
    from riccati_lie import cli

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, (open(keep, "w") if keep else contextlib.nullcontext()) as kept:
        for seed in seeds:
            for workload in WORKLOADS:
                work = os.path.join(tmp, f"{workload}-{seed}")
                manifest = generate(workload, seed, work, src)
                os.chdir(work)
                try:
                    for op, op_seed in ops(workload, manifest):
                        label = " ".join(op) + ("" if op_seed is None else f" seed={op_seed}")
                        result = run(cli, op, op_seed)
                        print(f"{seed} {workload} {label} {digest(result)}", flush=True)
                        if kept:
                            kept.write(json.dumps({"seed": seed, "workload": workload, "op": label, **result}) + "\n")
                finally:
                    os.chdir(home)


# --- comparing two kept runs -------------------------------------------------------


def _numbers(text):
    """The numbers of a text, row by row: a CSV table's cells after its header, or a stdout's numbers."""
    return [[float(x) for x in NUMBER.findall(line)] for line in text.splitlines()]


def _verdicts(stdout):
    """The PASS/FAIL lines of a `verify` stdout without their numbers, and its summary line."""
    return [line.split(" residual=")[0] for line in stdout.splitlines() if line.startswith(("PASS ", "FAIL "))] \
        + [line for line in stdout.splitlines() if line.endswith("checks passed")]


def _rel_diff(a_rows, b_rows):
    """max |a - b| / max(1, |a|) over two equally shaped lists of rows, or None when their shapes differ; two NaNs
    are equal, and a NaN or inf against any other value is an infinite difference."""
    if [len(r) for r in a_rows] != [len(r) for r in b_rows]:
        return None
    worst = 0.0
    for ra, rb in zip(a_rows, b_rows):
        for a, b in zip(ra, rb):
            if a == b or (math.isnan(a) and math.isnan(b)):
                continue
            diff = abs(a - b) / max(1.0, abs(a))
            worst = max(worst, diff if math.isfinite(diff) else math.inf)
    return worst


def compare(path_a, path_b):
    def load(path):
        with open(path) as fh:
            return {(r["seed"], r["workload"], r["op"]): r for r in map(json.loads, fh)}

    a, b = load(path_a), load(path_b)
    ok = a.keys() == b.keys()
    if not ok:
        print(f"ops in one file only: {len(a.keys() ^ b.keys())}")
    rows = {}
    for key in sorted(a.keys() & b.keys(), key=lambda k: (WORKLOADS.index(k[1]), k[0])):
        ra, rb = a[key], b[key]
        row = rows.setdefault(key[1], {"ops": 0, "identical": 0, "rc": True, "verdicts": True, "shapes": True,
                                       "worst": 0.0, "where": None})
        row["ops"] += 1
        row["identical"] += all(ra[f] == rb[f] for f in ("rc", "stdout", "stderr", "out"))
        row["rc"] &= ra["rc"] == rb["rc"]
        row["verdicts"] &= _verdicts(ra["stdout"]) == _verdicts(rb["stdout"])
        for field in ("out", "stdout"):
            if (ra[field] is None) != (rb[field] is None):
                row["shapes"] = False
                continue
            if ra[field] is None:
                continue
            diff = _rel_diff(_numbers(ra[field]), _numbers(rb[field]))
            if diff is None:
                row["shapes"] = False
            elif diff > row["worst"]:
                row["worst"], row["where"] = diff, f"seed {key[0]}: {key[2]} ({field})"
    print(f"A: {path_a}\nB: {path_b}")
    for workload, row in rows.items():
        ok &= row["rc"] and row["verdicts"] and row["shapes"]
        print(f"{workload}: {row['ops']} ops, {row['identical']} byte-identical; exit codes equal: {row['rc']}, "
              f"PASS/FAIL lines equal: {row['verdicts']}, shapes equal: {row['shapes']}; "
              f"largest relative difference {row['worst']:.3g}" + (f" at {row['where']}" if row["where"] else ""))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding the riccati_lie package")
    ap.add_argument("--keep", metavar="FILE", help="also write each op's output to FILE, a JSON object a line")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two files written by --keep")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.seeds:
        ap.error("--seeds is required unless --compare is given")
    replay(args.seeds, os.path.abspath(args.src), args.keep and os.path.abspath(args.keep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
