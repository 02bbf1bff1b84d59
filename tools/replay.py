"""Replay the benchmark's generated inputs through the CLI and hash every op.

    python3 tools/replay.py --seeds 21 22 23 [--src SRC]

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
Nothing is written under `bench/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GEN = os.path.join(ROOT, "bench", "gen.py")
WORKLOADS = ("simulate_hamiltonian", "simulate_riccati2", "superpose_table", "verify_all")
OUT = "out.csv"  # every op's output file, removed before each op


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
    """sha256 over the exit code, stdout, stderr and output file of one `cli.main` call."""
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
    digest = hashlib.sha256()
    for part in (repr(rc), out.getvalue(), err.getvalue()):
        digest.update(part.encode() + b"\0")
    if os.path.exists(OUT):
        with open(OUT, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding the riccati_lie package")
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    from riccati_lie import cli

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for workload in WORKLOADS:
                work = os.path.join(tmp, f"{workload}-{seed}")
                manifest = generate(workload, seed, work, src)
                os.chdir(work)
                try:
                    for op, op_seed in ops(workload, manifest):
                        label = " ".join(op) + ("" if op_seed is None else f" seed={op_seed}")
                        print(f"{seed} {workload} {label} {run(cli, op, op_seed)}", flush=True)
                finally:
                    os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
