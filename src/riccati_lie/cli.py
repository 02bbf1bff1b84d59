"""Command-line front end: simulate, derive, superpose, verify.

Configuration files are flat INI with a [potential] or [riccati] section
holding time-function expressions in the term grammar, a [run] section
with the time window and integrator settings, and an optional [ics]
section listing initial conditions one per key::

    [potential]
    a0 = poly 0
    a1 = poly 0
    a2 = poly 1

    [run]
    t0 = 0.0
    t1 = 1.0
    step = 0.01
    tol = 1e-10
    seed = 1234

    [ics]
    ic1 = 0.0 -0.25
    ic2 = 0.5 -1.0

All numeric output is CSV with a header row and 17-significant-digit
decimals, which reproduces IEEE doubles bit-for-bit on re-read.

Exit codes: 0 success, 1 verification failure, 2 config/parse error,
3 domain error, 4 genericity error, 5 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import suites
from .errors import ConfigError, DomainError, GenericityError, NumericError
from .integrator import integrate, sample_at
from .model import (
    PotentialSpec,
    RiccatiSpec,
    coefficients_from_potential,
    map_defect,
    potential_from_coefficients,
    riccati2_rhs,
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

SEED_ENV_VAR = "RICCATI_LIE_SEED"
MAX_GRID_STEPS = 10**6  # output grid steps a [run] may ask for: ~150 MB of grid and sample arrays


# --- scenario loading -----------------------------------------------------


@dataclass
class Scenario:
    potential: PotentialSpec | JetFn  # (a0, a1, a2)
    riccati: JetFn                    # (c0, c1, c2, c3, f0, f1)
    t0: float
    t1: float
    step: float
    tol: float
    seed: int
    ics: list
    source: str           # "potential" | "riccati"

    def grid(self) -> np.ndarray:
        return _grid(self.t0, self.t1, self.step)

    @property
    def c0_residual(self) -> float:
        """`map_defect` of c0 on the grid, computed on read."""
        return map_defect(self.riccati, coefficients_from_potential(self.potential), self.grid(), ["c0"])[0]


def _grid(t0: float, t1: float, step: float) -> np.ndarray:
    """Output grid: [t0, t1] split into round((t1 - t0)/step) >= 1 equal steps."""
    return np.linspace(t0, t1, max(1, round((t1 - t0) / step)) + 1)


def _get(cfg, section, key, default=None):
    if cfg.has_option(section, key):
        return cfg.get(section, key)
    if default is None:
        raise ConfigError(f"missing [{section}] {key}")
    return default


def _get_float(cfg, section, key, default=None):
    raw = _get(cfg, section, key, default)
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} must be finite, got {raw!r}")
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
    cfg = configparser.ConfigParser(interpolation=None)
    try:
        read = cfg.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    has_pot = cfg.has_section("potential")
    has_ric = cfg.has_section("riccati")
    if has_pot == has_ric:
        raise ConfigError("config needs exactly one of [potential] or [riccati]")

    t0 = _get_float(cfg, "run", "t0", "0.0")
    t1 = _get_float(cfg, "run", "t1", "1.0")
    step = _get_float(cfg, "run", "step", "0.01")
    tol = _get_float(cfg, "run", "tol", "1e-10")
    seed = _get_float(cfg, "run", "seed", "0")
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

    ics = [_parse_pair(cfg.get("ics", key)) for key in cfg["ics"]] if cfg.has_section("ics") else []

    grid = _grid(t0, t1, step)
    if has_pot:
        P = PotentialSpec(*(parse_timefn(_get(cfg, "potential", a)) for a in PotentialSpec.names))
        # no grid validation here: a2 > 0 is needed by the coefficient
        # correspondence (checked in `derive`), not by simulation itself
        R = coefficients_from_potential(P)
        source = "potential"
    else:
        R = RiccatiSpec(*(parse_timefn(_get(cfg, "riccati", c)) for c in RiccatiSpec.names[:4]))
        P = potential_from_coefficients(R, grid)  # checks c3 > 0 on the whole window
        source = "riccati"
    return Scenario(P, R, t0, t1, step, tol, int(seed), ics, source)


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


def write_csv(path: str, header, rows) -> None:
    """One line per row, every cell formatted as `_fmt` does, by one `%`
    template for the whole table."""
    table = np.asarray(rows, dtype=float)
    n_rows, n_cols = table.shape
    row = ",".join(["%" + FLOAT_SPEC] * n_cols) + "\n"
    cells = tuple(table.ravel().tolist())  # floats format faster than numpy scalars
    try:
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            fh.write((row * n_rows) % cells)
    except OSError as exc:
        raise ConfigError(f"cannot write table {path}: {exc}") from exc


def read_csv(path: str):
    """Read a solution table; returns (header, data array).

    Validates finite numeric cells and a strictly increasing first (time)
    column.
    """
    try:
        with open(path) as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read table {path}: {exc}") from exc
    if len(lines) < 2:
        raise ConfigError(f"table {path} needs a header and at least one row")
    header = lines[0].split(",")
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ConfigError(f"{path}:{ln}: expected {len(header)} cells, got {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            raise ConfigError(f"{path}:{ln}: non-numeric cell") from None
    data = np.array(rows)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise ConfigError(f"{path}:{int(finite.argmin()) + 2}: non-finite cell")
    if np.any(np.diff(data[:, 0]) <= 0):
        raise ConfigError(f"table {path}: time column must be strictly increasing")
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
    grid = scenario.grid()
    if args.system == "hamiltonian":
        # an IC with p > -1e-9 raises DomainError, a solution leaving it GuardViolation
        traj = solve_hamiltonian(scenario.potential, ic, grid, scenario.tol)
        header, states = ["t", "x", "p"], traj.states
    else:
        traj = integrate(partial(riccati2_rhs, scenario.riccati), (scenario.t0, ic), scenario.t1,
                         scenario.tol, system=args.system)
        header, states = ["t", "x", "v"], sample_at(traj, grid)
    rows = np.column_stack((grid, states))
    write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} samples to {args.out} "
          f"({traj.stats.n_accepted} steps, {traj.stats.n_rhs} RHS evaluations)")
    return EXIT_OK


def cmd_derive(args) -> int:
    """Print the report once all of it is computed: a failure leaves stdout empty."""
    scenario = load_scenario(args.config)
    grid = scenario.grid()
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
    write_csv(args.out, ["t", "x0", "p0"], np.column_stack((ts, states)))
    root, ext = os.path.splitext(args.out)
    upsilon_path = f"{root}_upsilon{ext or '.csv'}"
    write_csv(upsilon_path, ["t", "x0"], np.column_stack((ts, states[:, 0])))
    print(f"wrote {len(ts)} reconstructed samples to {args.out} "
          f"(x-only view: {upsilon_path})")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {args.trials}")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("derive", help="print the coefficient map and its residuals")
    p.add_argument("config")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("superpose", help="reconstruct a fourth solution from a table of three")
    p.add_argument("config")
    p.add_argument("--sols", required=True, help="CSV with columns t,x1,p1,x2,p2,x3,p3")
    p.add_argument("--k1", type=float)
    p.add_argument("--k2", type=float)
    p.add_argument("--fourth-ic", help="'x,p' at t0; constants are extracted from it")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_superpose)

    p = sub.add_parser("verify", help="run randomized verification suites")
    p.add_argument("suite", choices=("integrals", "brackets", "action", "superposition", "all"))
    p.add_argument("config")
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GenericityError as exc:
        print(f"genericity error: {exc}", file=sys.stderr)
        return EXIT_GENERICITY
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
