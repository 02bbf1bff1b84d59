"""Command-line front end: simulate, derive, superpose, verify.

Configuration files are flat INI with a [potential] or [riccati] section
holding time-function expressions in the term grammar, an optional [run]
section whose keys default to the values shown (`RUN_DEFAULTS`), and an
optional [ics] section listing initial conditions one per key, of any name;
any other section or key (`CONFIG_KEYS`) is a config error::

    [potential]
    a0 = poly 0
    a1 = poly 0
    a2 = poly 1

    [run]
    t0 = 0.0
    t1 = 1.0
    step = 0.01
    tol = 1e-10
    seed = 0

    [ics]
    ic1 = 0.0 -0.25
    ic2 = 0.5 -1.0

All numeric output is CSV with a header row and 17-significant-digit
decimals, which reproduces IEEE doubles bit-for-bit on re-read.

Exit codes (`EXITS`): 0 success, 1 verification failure, 2 usage/config/parse
error or `verify --trials` outside 1..MAX_TRIALS, 3 domain, 4 genericity, 5 numeric.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import suites
from .errors import ConfigError, DomainError, GenericityError, NumericError, RiccatiLieError
from .integrator import integrate, sample_at
from .model import (
    PotentialSpec,
    RiccatiSpec,
    coefficients_from_potential,
    map_defect,
    potential_from_coefficients,
    solve_hamiltonian,
)
from .superpose import Constants, PhaseTuple, constants_from_four, cyclic_integral, superpose_states
from .timefn import FLOAT_SPEC, JetFn, _fmt, parse_timefn

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_GENERICITY = 4
EXIT_NUMERIC = 5
EXITS = (  # (error class, stderr label, exit code); no class here subclasses another
    (ConfigError, "config error", EXIT_CONFIG),
    (DomainError, "domain error", EXIT_DOMAIN),
    (GenericityError, "genericity error", EXIT_GENERICITY),
    (NumericError, "numeric failure", EXIT_NUMERIC),
)

# each [run] key with its default, in the order `load_scenario` unpacks them
RUN_DEFAULTS = {"t0": "0.0", "t1": "1.0", "step": "0.01", "tol": "1e-10", "seed": "0"}
# each section a config may hold, with the keys it may hold (None: any key)
CONFIG_KEYS = {"potential": PotentialSpec.names, "riccati": RiccatiSpec.names[:4], "run": tuple(RUN_DEFAULTS),
               "ics": None}
SEED_ENV_VAR = "RICCATI_LIE_SEED"
MAX_GRID_STEPS = 10**6  # output grid steps a [run] may ask for: ~150 MB of grid and sample arrays
MAX_TRIALS = 10**5  # `verify --trials` cap: `verify all` peaks near 150 MB RSS at this count
CSV_BLOCK_ROWS = 4096  # table rows `read_csv` converts per pass: bounds the cell strings alive at once


# --- scenario loading -----------------------------------------------------


@dataclass
class Scenario:
    potential: PotentialSpec | JetFn  # (a0, a1, a2)
    riccati: JetFn                    # (c0, c1, c2, c3, f0, f1)
    t0: float
    t1: float
    grid: np.ndarray      # output grid: [t0, t1] in round((t1 - t0)/step) >= 1 equal steps
    tol: float
    seed: int
    ics: list
    source: str           # "potential" | "riccati"

    @property
    def c0_residual(self) -> float:
        """`map_defect` of c0 on the grid, computed on read."""
        return map_defect(self.riccati, coefficients_from_potential(self.potential), self.grid, ["c0"])[0]


def _get_float(cfg, key):
    raw = cfg.get("run", key, fallback=RUN_DEFAULTS[key])
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[run] {key} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[run] {key} must be finite, got {raw!r}")
    return value


def _parse_pair(raw: str):
    try:
        pair = tuple(float(v) for v in raw.replace(",", " ").split())
    except ValueError:
        pair = ()
    if len(pair) != 2 or not all(map(math.isfinite, pair)):
        raise ConfigError(f"expected two finite numbers, got {raw!r}")
    return pair


def load_scenario(path: str) -> Scenario:
    # no section inherits [DEFAULT]: it is an ordinary section, and not one of CONFIG_KEYS
    cfg = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        read = cfg.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in cfg.sections():  # file order; configparser lower-cases the keys
        if section not in CONFIG_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cfg.options(section):
            if CONFIG_KEYS[section] is not None and key not in CONFIG_KEYS[section]:
                raise ConfigError(f"unknown key [{section}] {key}")

    has_pot = cfg.has_section("potential")
    has_ric = cfg.has_section("riccati")
    if has_pot == has_ric:
        raise ConfigError("config needs exactly one of [potential] or [riccati]")

    t0, t1, step, tol, seed = (_get_float(cfg, key) for key in RUN_DEFAULTS)
    if not (seed.is_integer() and seed >= 0):
        raise ConfigError(f"[run] seed must be a non-negative integer, got {seed}")
    if not t1 > t0:
        raise ConfigError(f"[run] needs t1 > t0, got t0={t0}, t1={t1}")
    if not step > 0.0:
        raise ConfigError(f"[run] step must be positive, got {step}")
    if not (t1 - t0) / step <= MAX_GRID_STEPS:
        raise ConfigError(f"[run] step {step} splits [t0, t1] into more than {MAX_GRID_STEPS} steps")
    if not tol > 0.0:
        raise ConfigError(f"[run] tol must be positive, got {tol}")

    ics = [_parse_pair(raw) for raw in cfg["ics"].values()] if cfg.has_section("ics") else []

    grid = np.linspace(t0, t1, max(1, round((t1 - t0) / step)) + 1)
    source = "potential" if has_pot else "riccati"
    fns = []
    for key in CONFIG_KEYS[source]:  # in turn: a bad coefficient is named before a later missing one
        if not cfg.has_option(source, key):
            raise ConfigError(f"missing [{source}] {key}")
        fns.append(parse_timefn(cfg.get(source, key)))
    if has_pot:
        P = PotentialSpec(*fns)
        # no grid validation here: a2 > 0 is needed by the coefficient
        # correspondence (checked in `derive`), not by simulation itself
        R = coefficients_from_potential(P)
    else:
        R = RiccatiSpec(*fns)
        P = potential_from_coefficients(R, grid)  # checks c3 > 0 on the whole window
    return Scenario(P, R, t0, t1, grid, tol, int(seed), ics, source)


def scenario_seed(scenario: Scenario) -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    try:
        seed = scenario.seed if raw is None else int(raw)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ConfigError(f"{SEED_ENV_VAR} must be a non-negative integer, got {raw!r}")
    return seed


# --- CSV ------------------------------------------------------------------


def _write_table(path: str, *parts: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.writelines(parts)
    except OSError as exc:
        raise ConfigError(f"cannot write table {path}: {exc}") from exc


def write_csv(path: str, header, rows) -> str:
    """One line per row, every cell formatted as `_fmt` does, by one `%`
    template for the whole table; returns the text of the rows."""
    table = np.asarray(rows, dtype=float)
    n_rows, n_cols = table.shape
    row = ",".join(["%" + FLOAT_SPEC] * n_cols) + "\n"
    text = (row * n_rows) % tuple(table.ravel().tolist())  # floats format faster than numpy scalars
    _write_table(path, ",".join(header) + "\n", text)
    return text


def read_csv(path: str):
    """Read a solution table; returns (header, data array).

    Validates finite numeric cells and a strictly increasing first (time)
    column.  Blank lines are skipped; an error names the file's own line.
    """
    try:
        with open(path) as fh:
            stripped = [line.strip() for line in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read table {path}: {exc}") from exc
    lines = [line for line in stripped if line]
    if len(lines) < 2:
        raise ConfigError(f"table {path} needs a header and at least one row")

    def where(row):  # the file's line number of data row `row`, counted from 0
        return f"{path}:{[n for n, line in enumerate(stripped, start=1) if line][row + 1]}"

    header, rows = lines[0].split(","), lines[1:]
    n_cols = len(header)
    # the rows before the first one of another width convert in blocks, one run of cells each
    n_uniform = next((row for row, line in enumerate(rows) if line.count(",") != n_cols - 1), len(rows))
    data = np.empty((n_uniform, n_cols))
    for start in range(0, n_uniform, CSV_BLOCK_ROWS):
        block = rows[start:min(start + CSV_BLOCK_ROWS, n_uniform)]
        try:
            data[start:start + len(block)] = np.fromiter(
                map(float, ",".join(block).split(",")), float, len(block) * n_cols).reshape(-1, n_cols)
        except ValueError:
            for row, line in enumerate(block, start):
                try:
                    [float(c) for c in line.split(",")]
                except ValueError:
                    raise ConfigError(f"{where(row)}: non-numeric cell") from None
    if n_uniform < len(rows):
        raise ConfigError(f"{where(n_uniform)}: expected {n_cols} cells, got {rows[n_uniform].count(',') + 1}")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise ConfigError(f"{where(int(finite.argmin()))}: non-finite cell")
    late = np.diff(data[:, 0]) <= 0
    if late.any():
        raise ConfigError(f"{where(int(late.argmax()) + 1)}: time column must be strictly increasing")
    return header, data


# --- commands ---------------------------------------------------------------


def _resolve_ic(raw: str, scenario: Scenario):
    try:
        index = int(raw)
    except ValueError:
        return _parse_pair(raw)
    if not 0 <= index < len(scenario.ics):
        raise ConfigError(f"IC index {index} out of range; config has {len(scenario.ics)} ICs")
    return scenario.ics[index]


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.config)
    ic = _resolve_ic(args.ic, scenario)
    grid = scenario.grid
    if args.system == "hamiltonian":
        # an IC with p > -1e-9 raises DomainError, a solution leaving it GuardViolation
        traj = solve_hamiltonian(scenario.potential, ic, grid, scenario.tol)
        header, states = ["t", "x", "p"], traj.states
    else:
        traj = integrate(scenario.riccati.rhs, (scenario.t0, ic), scenario.t1, scenario.tol, system=args.system)
        header, states = ["t", "x", "v"], sample_at(traj, grid)
    rows = np.column_stack((grid, states))
    write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} samples to {args.out} "
          f"({traj.stats.n_accepted} steps, {traj.stats.n_rhs} RHS evaluations)")
    return EXIT_OK


def cmd_derive(args) -> int:
    """Print the report once all of it is computed: a failure leaves stdout empty."""
    scenario = load_scenario(args.config)
    grid = scenario.grid
    t0 = scenario.t0
    R, P = scenario.riccati, scenario.potential
    lines = [f"source = {scenario.source}"]
    if scenario.source == "potential":
        coefficients_from_potential(P, grid)  # a2 > 0 validation
        lines += [f"{name}(t0) = {_fmt(value)}" for name, value in zip(R.names, R.eval(t0))]
        res_f1, res_f0 = map_defect(R, RiccatiSpec(R.c0, R.c1, R.c2, R.c3), grid, ["f1", "f0"])
        lines += [f"f1_constraint_residual = {_fmt(res_f1)}", f"f0_constraint_residual = {_fmt(res_f0)}"]
    else:
        lines += [f"{name}(t0) = {_fmt(value)}" for name, value in zip(P.names, P.eval(t0))]
        lines.append(f"c0_defect_residual = {_fmt(scenario.c0_residual)}")
    print("\n".join(lines))
    return EXIT_OK


def _constants_from_row(args, sols) -> Constants:
    """Constants from the first table row, x1, p1, x2, p2, x3, p3."""
    xi1, xi2, xi3 = sols.reshape(3, 2)
    F0 = cyclic_integral(xi1, xi2, xi3)
    if args.k1 is not None or args.k2 is not None:
        if args.k1 is None or args.k2 is None:
            raise ConfigError("--k1 and --k2 must be given together")
        if not (math.isfinite(args.k1) and math.isfinite(args.k2)):
            raise ConfigError(f"--k1 and --k2 must be finite, got {args.k1}, {args.k2}")
        return Constants(args.k1, args.k2, F0)
    if args.fourth_ic is None:
        raise ConfigError("need either --k1/--k2 or --fourth-ic")
    return constants_from_four(PhaseTuple(_parse_pair(args.fourth_ic), xi1, xi2, xi3))


def cmd_superpose(args) -> int:
    load_scenario(args.config)  # validates the scenario the table came from
    header, data = read_csv(args.sols)
    if len(header) != 7:
        raise ConfigError(
            f"solution table must have columns t,x1,p1,x2,p2,x3,p3; got {len(header)}"
        )
    ts, sols = data[:, 0], data[:, 1:]
    states = superpose_states(sols, _constants_from_row(args, sols[0]), ts=ts)
    text = write_csv(args.out, ["t", "x0", "p0"], np.column_stack((ts, states)))
    root, ext = os.path.splitext(args.out)
    upsilon_path = f"{root}_upsilon{ext or '.csv'}"
    # the x-only view is the written table's lines without their last (p0) cell
    _write_table(upsilon_path, "t,x0\n", "\n".join([line.rpartition(",")[0] for line in text.split("\n")]))
    print(f"wrote {len(ts)} reconstructed samples to {args.out} "
          f"(x-only view: {upsilon_path})")
    return EXIT_OK


def cmd_verify(args) -> int:
    if not 1 <= args.trials <= MAX_TRIALS:
        raise ConfigError(f"--trials must be in 1..{MAX_TRIALS}, got {args.trials}")
    scenario = load_scenario(args.config)
    rng = np.random.default_rng(scenario_seed(scenario))
    results = suites.run_suites(
        args.suite, scenario.potential, scenario.t0, scenario.t1,
        scenario.tol, rng, args.trials,
    )
    for result in results:
        print(result.line())
    n_failed = sum(not r.passed for r in results)
    print(f"{len(results) - n_failed}/{len(results)} checks passed")
    return EXIT_OK if n_failed == 0 else EXIT_FAIL


# --- entry point ------------------------------------------------------------


class _UsageParser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is one stderr line, without the usage block
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


@cache  # built on first use, once per process; it holds no command function
def build_parser() -> argparse.ArgumentParser:
    parser = _UsageParser(
        prog="riccati-lie",
        description="Simulate, transform and verify cubic second-order equations "
                    "through their Hamiltonian picture and superposition rule.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate one initial condition, write CSV")
    p.add_argument("config")
    p.add_argument("--system", choices=("hamiltonian", "riccati2"), default="hamiltonian")
    p.add_argument("--ic", default="0", help="index into config ICs, or a literal 'x,p' / 'x,v' pair")
    p.add_argument("--out", required=True)

    p = sub.add_parser("derive", help="print the coefficient map and its residuals")
    p.add_argument("config")

    p = sub.add_parser("superpose", help="reconstruct a fourth solution from a table of three")
    p.add_argument("config")
    p.add_argument("--sols", required=True, help="CSV with columns t,x1,p1,x2,p2,x3,p3")
    p.add_argument("--k1", type=float)
    p.add_argument("--k2", type=float)
    p.add_argument("--fourth-ic", help="'x,p' at t0; constants are extracted from it")
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="run randomized verification suites")
    p.add_argument("suite", choices=("integrals", "brackets", "action", "superposition", "all"))
    p.add_argument("config")
    p.add_argument("--trials", type=int, default=100)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)  # looked up per call: a rebound cmd_* takes effect
    except RiccatiLieError as exc:
        for cls, label, code in EXITS:
            if isinstance(exc, cls):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
