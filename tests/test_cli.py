"""End-to-end tests of the command-line interface and its file formats."""

import configparser
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riccati_lie import cli, errors, integrator, liealg, suites
from riccati_lie.timefn import TimeFn, render_timefn
from test_model import _fns

CANONICAL = """\
[potential]
a0 = poly 0
a1 = poly 0
a2 = poly 1

[run]
t0 = 0.0
t1 = 1.0
step = 0.01
tol = 1e-10
seed = 99

[ics]
ic1 = 0.0 -0.25
ic2 = 0.3 -1.0
ic3 = -0.2 -0.8
ic4 = 0.1 -2.0
"""

FREE = """\
[potential]
a0 = poly 0
a1 = poly 0
a2 = poly 0

[run]
t0 = 0.0
t1 = 1.0
step = 0.01
tol = 1e-10

[ics]
ic1 = 0.0 -1.0
"""

RICCATI = """\
[riccati]
c0 = poly 0
c1 = poly 0
c2 = poly 0
c3 = poly 1

[run]
t0 = 0.0
t1 = 1.0
step = 0.1
tol = 1e-10
"""


@pytest.fixture
def config(tmp_path):
    def write(text, name="scenario.ini"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def read_table(path):
    return np.loadtxt(path, delimiter=",", skiprows=1)


# a1 = 1.7e308 is finite, but a1 x overflows for |x| > 1.06, in the RHS and in
# its decomposition alike, so the residual is inf - inf
NAN_RESIDUAL = CANONICAL.replace("a1 = poly 0", "a1 = poly 1.7e308")


class TestSimulate:
    def test_canonical_scenario(self, config, tmp_path):
        out = tmp_path / "sol.csv"
        rc = cli.main(["simulate", config(CANONICAL), "--ic", "0", "--out", str(out)])
        assert rc == 0
        data = read_table(out)
        assert data.shape == (101, 3)
        np.testing.assert_allclose(data[-1], [1.0, 1.0, -1.0], atol=1e-6)

    def test_zero_potential_unit_speed(self, config, tmp_path):
        out = tmp_path / "free.csv"
        rc = cli.main(["simulate", config(FREE), "--ic", "0", "--out", str(out)])
        assert rc == 0
        data = read_table(out)
        assert np.max(np.abs(data[:, 1] - data[:, 0])) <= 1e-10
        assert np.all(data[:, 2] == -1.0)

    def test_literal_ic_flag(self, config, tmp_path):
        out = tmp_path / "lit.csv"
        rc = cli.main(["simulate", config(CANONICAL), "--ic", "0.0,-0.25", "--out", str(out)])
        assert rc == 0
        np.testing.assert_allclose(read_table(out)[-1], [1.0, 1.0, -1.0], atol=1e-6)

    def test_riccati2_system(self, config, tmp_path):
        out = tmp_path / "lag.csv"
        rc = cli.main(["simulate", config(CANONICAL), "--system", "riccati2",
                       "--ic", "0.0,2.0", "--out", str(out)])
        assert rc == 0
        data = read_table(out)
        # Legendre-matched start of the canonical analytic solution
        np.testing.assert_allclose(data[-1][1], 1.0, atol=1e-6)

    # the first step is span * 1e-3, floored at the underflow threshold: 1e-15
    # would stop integrate before any step
    @pytest.mark.parametrize("system, ic, exact_y", [
        ("hamiltonian", "0.0,-0.25", lambda t: -((1.0 + t * t) ** 2) / 4.0),
        ("riccati2", "0.0,2.0", lambda t: (2.0 - 2.0 * t * t) / (1.0 + t * t) ** 2),
    ], ids=["hamiltonian", "riccati2"])
    def test_a_window_of_1e_12_matches_the_closed_form(self, config, tmp_path, system, ic, exact_y):
        out = tmp_path / "tiny.csv"
        cfg = config(CANONICAL.replace("t1 = 1.0", "t1 = 1e-12").replace("step = 0.01", "step = 1e-13"))
        assert cli.main(["simulate", cfg, "--system", system, f"--ic={ic}", "--out", str(out)]) == cli.EXIT_OK
        t, x, y = read_table(out).T
        assert len(t) == 11 and t[-1] == 1e-12
        np.testing.assert_allclose(x, 2.0 * t / (1.0 + t * t), rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(y, exact_y(t), rtol=1e-14)

    def test_bad_momentum_ic_is_domain_error(self, config, tmp_path, capsys):
        # p = -1e-10 is negative but inside the integrator's guard band
        for ic in ("0.0,1.0", "0,0", "0,-1e-10"):
            rc = cli.main(["simulate", config(CANONICAL), f"--ic={ic}",
                           "--out", str(tmp_path / "x.csv")])
            assert rc == cli.EXIT_DOMAIN, ic
            (line,) = capsys.readouterr().err.splitlines()
            assert "p <= -1e-09" in line, line

    @pytest.mark.parametrize("ic, t1, between_nodes", [
        # sigma = 0.4 - t + t^2/2 falls through the floor and stays below it
        ("-2.5,-0.16", 1.0, False),
        # sigma = (t - 1)^2 / 2 dips below the floor near t = 1 and comes back,
        # inside one step: only the step's polynomial sees the dip
        ("-2.0,-0.25", 2.0, True),
    ])
    def test_orbit_exit_names_the_first_floor_crossing(self, config, tmp_path, capsys, monkeypatch,
                                                       ic, t1, between_nodes):
        from riccati_lie import model

        charts = []  # the chart trajectory solve_hamiltonian checks
        real = model.integrate
        monkeypatch.setattr(model, "integrate", lambda *args, **kw: charts.append(real(*args, **kw)) or charts[-1])
        cfg = config(CANONICAL.replace("t1 = 1.0", f"t1 = {t1}"))
        rc = cli.main(["simulate", cfg, f"--ic={ic}", "--out", str(tmp_path / "x.csv")])
        assert rc == cli.EXIT_DOMAIN
        (line,) = capsys.readouterr().err.splitlines()
        match = re.fullmatch(r"domain error: domain guard p <= -1e-09 violated just past t=(\S+)", line)
        assert match, line
        # the potential (0, 0, 1) gives u' = 1, sigma' = u in the chart, so from
        # (u0, sigma0) sigma is sigma0 + u0 t + t^2/2, which first meets the floor
        # sqrt(1e-9) (p = -1e-9) at
        x0, p0 = map(float, ic.split(","))
        sigma0 = math.sqrt(-p0)
        u0, floor = x0 * sigma0, math.sqrt(1e-9)
        t_exit = -u0 - math.sqrt(u0 * u0 - 2.0 * (sigma0 - floor))
        assert abs(float(match.group(1)) - t_exit) <= 1e-6
        (chart,) = charts
        assert bool(np.all(np.array(chart.states)[:, 1] >= floor)) is between_nodes

    def test_step_line_counts_the_chart_integration(self, config, tmp_path, capsys):
        from riccati_lie.model import PotentialSpec, solve_hamiltonian
        from riccati_lie.timefn import constant

        P = PotentialSpec(constant(0.0), constant(0.0), constant(1.0))
        stats = solve_hamiltonian(P, (0.3, -1.0), np.linspace(0.0, 1.0, 101), 1e-10).stats
        assert cli.main(["simulate", config(CANONICAL), "--ic", "1", "--out", str(tmp_path / "x.csv")]) == 0
        assert capsys.readouterr().out.endswith(f"({stats.n_accepted} steps, {stats.n_rhs} RHS evaluations)\n")

    def test_hamiltonian_picture_of_a_riccati_config_matches_its_potential(self, config, tmp_path):
        # a polynomial potential and its exact cubic picture, from polynomial
        # products; the [riccati] config's Hamiltonian solve recovers the
        # potential through the inverse map, which no bench workload runs
        poly = np.polynomial.polynomial
        rng = np.random.default_rng(15)
        t = np.linspace(0.0, 1.0, 101)
        run = "\n[run]\nt0 = 0.0\nt1 = 1.0\nstep = 0.01\ntol = 1e-10\n\n[ics]\n"
        for _ in range(6):
            a0, a1 = rng.uniform(-0.4, 0.4, 3), rng.uniform(-0.4, 0.4, 3)
            a2 = np.concatenate(([rng.uniform(0.8, 1.6)], rng.uniform(-0.1, 0.1, 2)))
            assert poly.polyval(t, a2).min() >= 0.4
            cubic = [poly.polyadd(poly.polyder(a0), 0.5 * poly.polymul(a0, a1)),
                     poly.polyadd(poly.polyadd(poly.polyder(a1), 0.5 * poly.polymul(a1, a1)),
                                  poly.polymul(a0, a2)),
                     poly.polyadd(poly.polyder(a2), 1.5 * poly.polymul(a1, a2)),
                     poly.polymul(a2, a2)]
            xs, ps = rng.uniform(-0.5, 0.5, 2).tolist(), rng.uniform(-2.0, -0.5, 2).tolist()
            ics = "".join(f"ic{i} = {x!r} {p!r}\n" for i, (x, p) in enumerate(zip(xs, ps)))
            tables = []
            for section, names, coeffs in (("potential", ("a0", "a1", "a2"), (a0, a1, a2)),
                                           ("riccati", ("c0", "c1", "c2", "c3"), cubic)):
                fields = "".join(f"{name} = poly {' '.join(map(repr, c.tolist()))}\n"
                                 for name, c in zip(names, coeffs))
                cfg = config(f"[{section}]\n{fields}{run}{ics}", name=f"{section}.ini")
                for i in range(2):
                    out = tmp_path / f"{section}{i}.csv"
                    assert cli.main(["simulate", cfg, "--system", "hamiltonian", "--ic", str(i),
                                     "--out", str(out)]) == cli.EXIT_OK
                    tables.append(read_table(out))
            for direct, recovered in zip(tables[:2], tables[2:]):
                assert direct.shape == recovered.shape == (101, 3)
                assert np.all(np.abs(recovered - direct) <= 1e-9 * np.maximum(1.0, np.abs(direct)))

    def test_blowup_is_numeric_failure(self, config, tmp_path):
        # --ic=... keeps argparse from reading the leading minus as a flag
        rc = cli.main(["simulate", config(CANONICAL), "--system", "riccati2",
                       "--ic=-2.0,-3.0", "--out", str(tmp_path / "x.csv")])
        assert rc == cli.EXIT_NUMERIC

    def test_ic_index_out_of_range(self, config, tmp_path, capsys):
        rc = cli.main(["simulate", config(FREE), "--ic", "5", "--out", str(tmp_path / "x.csv")])
        assert rc == cli.EXIT_CONFIG
        capsys.readouterr()
        # non-finite literal pairs are config errors too, before any integration
        for system, ic in [("hamiltonian", "nan,-1"), ("hamiltonian", "inf,-1"),
                           ("hamiltonian", "0,-inf"), ("riccati2", "nan,1")]:
            rc = cli.main(["simulate", config(CANONICAL), "--system", system, f"--ic={ic}",
                           "--out", str(tmp_path / "x.csv")])
            assert rc == cli.EXIT_CONFIG
            assert len(capsys.readouterr().err.splitlines()) == 1
        rc = cli.main(["simulate", config(FREE + "ic2 = nan -1.0\n"), "--out", str(tmp_path / "x.csv")])
        assert rc == cli.EXIT_CONFIG

    def test_c3_dipping_between_grid_nodes_is_domain_error(self, config, tmp_path, capsys):
        # c3 = 1 + 1.5 cos(4 pi t) is positive at the grid nodes 0, 0.5, 1 and
        # negative near t = 0.25; loading the config rejects the window, so
        # every command and picture fails the same way before integrating
        cfg = config(RICCATI.replace("c3 = poly 1", "c3 = poly 1; cos 1.5 12.566370614359172 0")
                     .replace("step = 0.1", "step = 0.5"))
        out = str(tmp_path / "x.csv")
        for argv in (["derive", cfg],
                     ["simulate", cfg, "--system", "riccati2", "--ic=0,1", "--out", out],
                     ["simulate", cfg, "--system", "riccati2", "--ic=0,-1", "--out", out],
                     ["simulate", cfg, "--system", "hamiltonian", "--ic=0,-1", "--out", out]):
            assert cli.main(argv) == cli.EXIT_DOMAIN, argv
            err = capsys.readouterr().err
            assert err.startswith("domain error: c3(t) must be positive")
            assert len(err.splitlines()) == 1


# finite doubles, with signed zeros, subnormals and the largest magnitudes always in reach
_cells = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1.5e-310,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _tables(draw):
    """(table with strictly increasing times, [(line index, blank line)] to insert)."""
    n_rows, n_cols = draw(st.integers(1, 50)), draw(st.integers(1, 9))
    times = sorted(draw(st.lists(_cells, min_size=n_rows, max_size=n_rows, unique=True)))
    rest = draw(st.lists(st.lists(_cells, min_size=n_cols - 1, max_size=n_cols - 1),
                         min_size=n_rows, max_size=n_rows))
    blanks = draw(st.lists(st.tuples(st.integers(0, n_rows + 1), st.sampled_from(["", " ", "\t", "  \t "]))))
    return np.array([[t, *r] for t, r in zip(times, rest)]), blanks


class TestCsvRoundtrip:
    @settings(max_examples=200)
    @given(_tables())
    def test_write_then_read_returns_the_same_bits(self, tmp_path_factory, drawn):
        table, blanks = drawn
        header = ["t"] + [f"c{i}" for i in range(1, table.shape[1])]
        path = tmp_path_factory.mktemp("roundtrip") / "table.csv"
        cli.write_csv(str(path), header, table)
        lines = path.read_text().split("\n")
        for at, blank in blanks:
            lines.insert(at, blank)
        path.write_text("\n".join(lines))
        got_header, data = cli.read_csv(str(path))
        assert got_header == header
        np.testing.assert_array_equal(data.view(np.int64), table.view(np.int64))

    def test_seventeen_digit_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        rows = [(t, x, p) for t, x, p in zip(np.sort(rng.uniform(0, 1, 40)),
                                             rng.standard_normal(40),
                                             -np.exp(rng.standard_normal(40)))]
        path = tmp_path / "table.csv"
        cli.write_csv(str(path), ["t", "x", "p"], rows)
        header, data = cli.read_csv(str(path))
        assert header == ["t", "x", "p"]
        np.testing.assert_array_equal(data, np.array(rows))

    def test_table_bytes_match_per_cell_format(self, tmp_path):
        from riccati_lie.timefn import _fmt

        rows = [(0.0, -0.0, 5e-324), (1e16, 1.0 / 3.0, float("nan")), (-2.5e-310, float("inf"), -1e-300)]
        path = tmp_path / "table.csv"
        cli.write_csv(str(path), ["t", "x", "p"], rows)
        expected = "t,x,p\n" + "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
        assert path.read_bytes() == expected.encode()

    def test_simulate_output_reproduces_in_process_values(self, config, tmp_path):
        from riccati_lie.model import PotentialSpec, solve_hamiltonian
        from riccati_lie.timefn import constant

        out = tmp_path / "sol.csv"
        cli.main(["simulate", config(CANONICAL), "--ic", "0", "--out", str(out)])
        _, data = cli.read_csv(str(out))
        P = PotentialSpec(constant(0.0), constant(0.0), constant(1.0))
        traj = solve_hamiltonian(P, (0.0, -0.25), np.linspace(0.0, 1.0, 101), 1e-10)
        np.testing.assert_array_equal(data[:, 0], traj.ts)
        np.testing.assert_array_equal(data[:, 1:], traj.states)

    def test_malformed_tables_rejected(self, tmp_path):
        bad_cell = tmp_path / "bad.csv"
        bad_cell.write_text("t,x,p\n0.0,1.0,oops\n")
        with pytest.raises(cli.ConfigError):
            cli.read_csv(str(bad_cell))
        bad_time = tmp_path / "time.csv"
        bad_time.write_text("t,x,p\n1.0,0,-1\n0.5,0,-1\n")
        with pytest.raises(cli.ConfigError):
            cli.read_csv(str(bad_time))
        nan_time = tmp_path / "nan.csv"
        nan_time.write_text("t,x,p\n0.0,0,-1\nnan,0,-1\n1.0,0,-1\n")
        with pytest.raises(cli.ConfigError, match="non-finite"):
            cli.read_csv(str(nan_time))
        not_utf8 = tmp_path / "bytes.csv"
        not_utf8.write_bytes(b"t,x,p\n0.0,0,-1\xff\n")
        with pytest.raises(cli.ConfigError, match="cannot read table"):
            cli.read_csv(str(not_utf8))

    @pytest.mark.parametrize("text, message", [
        ("t,x\n\n0,1\n1,x\n", ":4: non-numeric cell"),
        ("t,x\n0,1\n\n\n2,nan\n", ":5: non-finite cell"),
        ("\nt,x\n  \n0,1\n\n1,2,3\n", ":6: expected 2 cells, got 3"),
        ("t,x\n1,1\n\n0,2\n", ":4: time column must be strictly increasing"),
    ], ids=["non-numeric", "non-finite", "ragged", "time-order"])
    def test_an_error_names_the_files_own_line_past_blank_lines(self, tmp_path, text, message):
        table = tmp_path / "blank.csv"
        table.write_text(text)
        with pytest.raises(cli.ConfigError, match=f"^{re.escape(str(table) + message)}$"):
            cli.read_csv(str(table))

    @pytest.mark.parametrize("text, message", [
        ("t,x\n0,x\n1,2,3\n", ":2: non-numeric cell"),
        ("t,x\n0,1,2\n1,x\n", ":2: expected 2 cells, got 3"),
        ("t,x\n0,nan\n1,x\n", ":3: non-numeric cell"),
        ("t,x\n1,nan\n0,2\n", ":2: non-finite cell"),
    ], ids=["non-numeric-before-ragged", "ragged-before-non-numeric", "parse-before-finiteness",
            "finiteness-before-time-order"])
    def test_cell_errors_in_file_order_then_non_finite_then_time_order(self, tmp_path, text, message):
        table = tmp_path / "order.csv"
        table.write_text(text)
        with pytest.raises(cli.ConfigError, match=f"^{re.escape(str(table) + message)}$"):
            cli.read_csv(str(table))

    def test_blank_lines_are_skipped(self, tmp_path):
        table = tmp_path / "blank.csv"
        table.write_text("\nt,x\n\n0,1\n \n1,2\n\n")
        header, data = cli.read_csv(str(table))
        assert header == ["t", "x"]
        np.testing.assert_array_equal(data, [[0.0, 1.0], [1.0, 2.0]])


class TestDerive:
    def test_potential_source(self, config, capsys):
        rc = cli.main(["derive", config(CANONICAL)])
        assert rc == 0
        lines = dict(
            line.split(" = ") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert lines["source"] == "potential"
        assert [float(lines[f"c{i}(t0)"]) for i in range(4)] == [0.0, 0.0, 0.0, 1.0]
        assert float(lines["f0(t0)"]) == 0.0
        assert float(lines["f1(t0)"]) == 3.0
        assert float(lines["f1_constraint_residual"]) == 0.0
        assert float(lines["f0_constraint_residual"]) == 0.0

    def test_riccati_source(self, config, capsys):
        rc = cli.main(["derive", config(RICCATI)])
        assert rc == 0
        lines = dict(
            line.split(" = ") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert lines["source"] == "riccati"
        assert [float(lines[f"a{i}(t0)"]) for i in range(3)] == [0.0, 0.0, 1.0]
        assert float(lines["c0_defect_residual"]) <= 1e-12

    @pytest.mark.parametrize("edit, rc, message", [
        # a0 overflows past t = 0.89 once the residual sweep reaches it
        (("a0 = poly 0", "a0 = exp 1 800"), cli.EXIT_NUMERIC,
         "numeric failure: overflow evaluating a time function at t="),
        # a2 = 1 - 2 t^2 turns negative at t = 0.71
        (("a2 = poly 1", "a2 = poly 1 0 -2"), cli.EXIT_DOMAIN, "domain error: a2(t) must be positive"),
    ])
    def test_failure_prints_no_partial_report(self, config, capsys, edit, rc, message):
        assert cli.main(["derive", config(CANONICAL.replace(*edit))]) == rc
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(message), line

    def test_nonpositive_c3_rejected(self, config):
        rc = cli.main(["derive", config(RICCATI.replace("c3 = poly 1", "c3 = poly -1"))])
        assert rc == cli.EXIT_DOMAIN

    LONG_POLY = "poly 1" + " 0" * 170 + " 1e-10"  # 1 + 1e-10 t^171 >= 1 on [0, 1]

    @pytest.mark.parametrize("source, argv", [
        *[("riccati", argv) for argv in (["derive", "CONFIG"], ["simulate", "CONFIG", "--ic=0,-1", "--out", "OUT"],
                                          ["simulate", "CONFIG", "--system", "riccati2", "--ic=0,0.5", "--out", "OUT"],
                                          ["verify", "all", "CONFIG", "--trials", "3"])],
        ("potential", ["derive", "CONFIG"]),
    ], ids=["riccati-derive", "riccati-hamiltonian", "riccati-riccati2", "riccati-verify", "potential-derive"])
    def test_a_long_poly_passes_the_window_check(self, config, tmp_path, capsys, source, argv):
        # c3 or a2 of 172 coefficients: the window check's slope bound reads the poly's Taylor coefficients at the
        # midpoint in floats, where its derivatives' perm(171, j) overflowed once converted to a float
        text = RICCATI.replace("c3 = poly 1", f"c3 = {self.LONG_POLY}") if source == "riccati" \
            else CANONICAL.replace("a2 = poly 1", f"a2 = {self.LONG_POLY}")
        path = config(text)
        argv = [path if arg == "CONFIG" else str(tmp_path / "out.csv") if arg == "OUT" else arg for arg in argv]
        assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().err == ""

    def test_nonpositive_a2_rejected_for_potential_derive(self, config, tmp_path, capsys):
        rc = cli.main(["derive", config(FREE)])
        assert rc == cli.EXIT_DOMAIN
        # a2 = 1 + 1.5 cos(4 pi t) is positive at the grid nodes 0, 0.5, 1 and
        # negative near t = 0.25: derive rejects the window, while simulate,
        # which does not need a2 > 0, still runs
        capsys.readouterr()
        cfg = config(CANONICAL.replace("a2 = poly 1", "a2 = poly 1; cos 1.5 12.566370614359172 0")
                     .replace("step = 0.01", "step = 0.5"))
        assert cli.main(["derive", cfg]) == cli.EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("domain error: a2(t) must be positive")
        assert len(err.splitlines()) == 1
        assert cli.main(["simulate", cfg, "--ic", "0", "--out", str(tmp_path / "x.csv")]) == cli.EXIT_OK


def _write_three_solution_table(config, tmp_path, ics=(1, 2, 3)):
    cols = []
    for i in ics:
        out = tmp_path / f"s{i}.csv"
        assert cli.main(["simulate", config, "--ic", str(i), "--out", str(out)]) == 0
        cols.append(read_table(out))
    table = tmp_path / "three.csv"
    rows = np.column_stack([cols[0][:, 0]] + [c[:, 1:3] for c in cols])
    cli.write_csv(str(table), ["t", "x1", "p1", "x2", "p2", "x3", "p3"], rows)
    return str(table)


class TestSuperposeCommand:
    def test_fourth_ic_reconstruction(self, config, tmp_path):
        cfg = config(CANONICAL)
        table = _write_three_solution_table(cfg, tmp_path)
        out = tmp_path / "rec.csv"
        rc = cli.main(["superpose", cfg, "--sols", table, "--fourth-ic", "0.0,-0.25",
                       "--out", str(out)])
        assert rc == 0
        direct = tmp_path / "direct.csv"
        cli.main(["simulate", cfg, "--ic", "0", "--out", str(direct)])
        rec, ref = read_table(out), read_table(direct)
        assert np.max(np.abs(rec[:, 1:] - ref[:, 1:])) <= 1e-5
        upsilon = read_table(tmp_path / "rec_upsilon.csv")
        np.testing.assert_array_equal(upsilon[:, 1], rec[:, 1])
        # byte for byte, each x-only line is the table's line without its last cell
        expected = "".join(line.rpartition(",")[0] + "\n" for line in out.read_text().splitlines())
        assert (tmp_path / "rec_upsilon.csv").read_bytes() == expected.encode()

    def test_zero_constants_return_first_solution(self, config, tmp_path):
        cfg = config(CANONICAL)
        table = _write_three_solution_table(cfg, tmp_path)
        out = tmp_path / "rec0.csv"
        rc = cli.main(["superpose", cfg, "--sols", table, "--k1", "0", "--k2", "0",
                       "--out", str(out)])
        assert rc == 0
        rec = read_table(out)
        first = read_table(tmp_path / "s1.csv")
        np.testing.assert_allclose(rec[:, 1:], first[:, 1:], rtol=1e-12, atol=1e-12)

    def test_coincident_solutions_genericity_error(self, config, tmp_path):
        cfg = config(CANONICAL)
        table = _write_three_solution_table(cfg, tmp_path, ics=(1, 1, 3))
        rc = cli.main(["superpose", cfg, "--sols", table, "--fourth-ic", "0.0,-0.25",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == cli.EXIT_GENERICITY

    def test_constants_flags_must_pair(self, config, tmp_path):
        cfg = config(CANONICAL)
        table = _write_three_solution_table(cfg, tmp_path)
        rc = cli.main(["superpose", cfg, "--sols", table, "--k1", "1",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == cli.EXIT_CONFIG
        # non-finite constants or fourth IC are config errors, not branch failures
        for extra in (["--k1", "nan", "--k2", "0"], ["--k1", "0", "--k2", "inf"],
                      ["--fourth-ic=nan,-0.5"], ["--fourth-ic=0,-inf"]):
            rc = cli.main(["superpose", cfg, "--sols", table, *extra, "--out", str(tmp_path / "x.csv")])
            assert rc == cli.EXIT_CONFIG

    def test_table_path_matches_library_path_bitwise(self, config, tmp_path):
        from riccati_lie.model import PhasePoint, solve_hamiltonian
        from riccati_lie.superpose import PhaseTuple, constants_from_four, superpose_states

        cfg = config(CANONICAL)
        table = _write_three_solution_table(cfg, tmp_path)
        out = tmp_path / "rec.csv"
        assert cli.main(["superpose", cfg, "--sols", table, "--fourth-ic", "0.0,-0.25",
                         "--out", str(out)]) == 0
        _, rec = cli.read_csv(str(out))
        sc = cli.load_scenario(cfg)
        grid = sc.grid
        trajs = [solve_hamiltonian(sc.potential, sc.ics[i], grid, sc.tol) for i in (1, 2, 3)]
        k = constants_from_four(PhaseTuple(PhasePoint(0.0, -0.25), *(tr.states[0] for tr in trajs)))
        lib = superpose_states(np.hstack([tr.states for tr in trajs]), k, ts=grid)
        np.testing.assert_array_equal(rec[:, 0], grid)
        np.testing.assert_array_equal(rec[:, 1:], lib)

    def test_wrong_column_count_rejected(self, config, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x1,p1\n0.0,0.0,-1.0\n")
        rc = cli.main(["superpose", config(CANONICAL), "--sols", str(bad),
                       "--k1", "0", "--k2", "0", "--out", str(tmp_path / "x.csv")])
        assert rc == cli.EXIT_CONFIG


class TestVerify:
    def test_brackets_suite_passes(self, config, capsys):
        rc = cli.main(["verify", "brackets", config(CANONICAL), "--trials", "40"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS brackets.commutation_table" in out
        assert "FAIL" not in out

    def test_action_suite_checks(self, config, capsys):
        rc = cli.main(["verify", "action", config(CANONICAL)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert [line.split()[:2] for line in lines[:-1]] == [
            ["PASS", "action.identity"],
            ["PASS", "action.composition"],
            ["PASS", "action.fundamental_fields"],
        ]
        assert lines[-1] == "3/3 checks passed"

    def test_all_suites_pass(self, config, capsys):
        rc = cli.main(["verify", "all", config(CANONICAL), "--trials", "30"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "superposition.reconstruction" in out
        assert "integrals.F0_drift" in out

    def test_corrupted_bracket_table_fails(self, config, capsys, monkeypatch):
        corrupted = dict(liealg.COMMUTATION_TABLE)
        corrupted[(2, 4)] = ((2.5, 3),)
        monkeypatch.setattr(liealg, "COMMUTATION_TABLE", corrupted)
        rc = cli.main(["verify", "brackets", config(CANONICAL), "--trials", "20"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_FAIL
        assert "FAIL brackets.commutation_table" in out

    def test_nan_residual_fails(self, config, capsys):
        rc = cli.main(["verify", "brackets", config(NAN_RESIDUAL), "--trials", "20"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_FAIL
        assert "FAIL brackets.rhs_decomposition residual=nan threshold=1.000e-14" in out.splitlines()

    # checked before anything is allocated: 10**12 trials exhaust memory, 10**23 numpy's dimension limit
    @pytest.mark.parametrize("trials", ["0", "-3", str(cli.MAX_TRIALS + 1), str(10**12), str(10**23)])
    def test_no_trials_is_a_config_error(self, config, capsys, trials):
        rc = cli.main(["verify", "brackets", config(CANONICAL), "--trials", trials])
        assert rc == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        (line,) = captured.err.splitlines()
        assert line == f"config error: --trials must be in 1..{cli.MAX_TRIALS}, got {trials}"

    def test_env_seed_override(self, config, monkeypatch):
        scenario = cli.load_scenario(config(CANONICAL))
        assert cli.scenario_seed(scenario) == 99
        monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
        assert cli.scenario_seed(scenario) == 123
        for bad in ("not-a-number", "-4"):
            monkeypatch.setenv(cli.SEED_ENV_VAR, bad)
            with pytest.raises(cli.ConfigError):
                cli.scenario_seed(scenario)


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        rc = cli.main(["derive", str(tmp_path / "nope.ini")])
        assert rc == cli.EXIT_CONFIG

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bytes.ini"
        path.write_bytes(CANONICAL.replace("poly 1", "poly 1\xff").encode("latin-1"))
        rc = cli.main(["derive", str(path)])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: cannot parse")

    # each is one line naming the file's line, where the standard library's INI parser printed two or three
    @pytest.mark.parametrize("text, line", [
        pytest.param(CANONICAL.replace("a1 = poly 0\n", "a1 = poly 0\ngarbage line\n"), 4, id="stray-line"),
        pytest.param("a0 = poly 0\n" + CANONICAL, 1, id="key-before-any-section"),
        pytest.param(CANONICAL + "\n[potential]\n", 19, id="duplicate-section"),
        pytest.param(CANONICAL.replace("a2 = poly 1\n", "a2 = poly 1\nA0 = poly 2\n"), 5, id="duplicate-key"),
        pytest.param(CANONICAL.replace("a1 = poly 0\n", "a1 = poly 0\n= poly 2\n"), 4, id="empty-key"),
        pytest.param(CANONICAL.replace("t1 = 1.0", "t1 1.0"), 8, id="no-delimiter"),
    ])
    def test_a_malformed_config_is_one_line(self, config, capsys, text, line):
        path = config(text)
        assert cli.main(["derive", path]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        (err,) = captured.err.splitlines()
        assert err.startswith(f"config error: cannot parse {path}: line {line}: "), err

    def test_both_sections_rejected(self, config):
        rc = cli.main(["derive", config(CANONICAL + "\n[riccati]\nc0 = poly 0\n")])
        assert rc == cli.EXIT_CONFIG

    def test_neither_section_rejected(self, config):
        rc = cli.main(["derive", config("[run]\nt0 = 0\nt1 = 1\n")])
        assert rc == cli.EXIT_CONFIG

    def test_bad_timefn_grammar(self, config, capsys):
        for line, bad in (("a2 = poly 1", "a2 = poli 1"), ("a0 = poly 0", "a0 = poly 0%")):
            rc = cli.main(["derive", config(CANONICAL.replace(line, bad))])
            assert rc == cli.EXIT_CONFIG
            assert len(capsys.readouterr().err.splitlines()) == 1

    def test_bad_window(self, config):
        rc = cli.main(["derive", config(CANONICAL.replace("t1 = 1.0", "t1 = -1.0"))])
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize("key, value", [("t1", "inf"), ("t0", "-inf"), ("step", "nan"), ("tol", "inf"),
                                            ("seed", "1.5"), ("seed", "-1"), ("tol", "1e-10%"),
                                            ("step", "0"), ("step", "-0.01"), ("tol", "0"),
                                            ("tol", "-1e-10")])
    def test_nonfinite_run_values(self, config, capsys, key, value):
        text = "\n".join(f"{key} = {value}" if line.startswith(f"{key} =") else line
                         for line in CANONICAL.splitlines())
        rc = cli.main(["derive", config(text)])
        assert rc == cli.EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: [run] {key} ")

    # both fail before any grid is built: an infinite width, and 10**15 steps
    @pytest.mark.parametrize("command, run", [(["verify", "brackets"], {"t0": "-1e308", "t1": "1e308"}),
                                              (["derive"], {"step": "1e-15"})])
    def test_grid_over_the_step_limit(self, config, capsys, command, run):
        text = CANONICAL
        for key, value in run.items():
            text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert cli.main([*command, config(text)]) == cli.EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: [run] step ") and f"more than {cli.MAX_GRID_STEPS} steps" in line

    @pytest.mark.parametrize("case, message", [
        ("missing_coefficient", "missing [potential] a1"),
        ("non_numeric_ic", "expected two finite numbers, got 'zero,-1'"),
        ("header_only_table", "needs a header and at least one row"),
        ("ragged_row", ":3: expected 7 cells, got 4"),
        ("no_constants", "need either --k1/--k2 or --fourth-ic"),
    ])
    def test_bad_input_is_one_config_error_line(self, config, tmp_path, capsys, case, message):
        cfg = config(CANONICAL)
        out = str(tmp_path / "x.csv")
        header = "t,x1,p1,x2,p2,x3,p3\n"
        row = "0.0,0.0,-0.25,0.3,-1.0,-0.2,-0.8\n"
        table = tmp_path / "three.csv"
        table.write_text({"header_only_table": header,
                          "ragged_row": header + row + "0.01,0.0,-0.25,0.3\n"}.get(case, header + row))
        superpose = ["superpose", cfg, "--sols", str(table), "--out", out]
        argv = {
            "missing_coefficient": ["derive", config(CANONICAL.replace("a1 = poly 0\n", ""), "a.ini")],
            "non_numeric_ic": ["simulate", cfg, "--ic=zero,-1", "--out", out],
            "header_only_table": superpose + ["--k1", "0", "--k2", "0"],
            "ragged_row": superpose + ["--k1", "0", "--k2", "0"],
            "no_constants": superpose,
        }[case]
        assert cli.main(argv) == cli.EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: ") and message in line, line

    def test_a_bad_coefficient_is_named_before_a_later_missing_one(self, config, capsys):
        text = CANONICAL.replace("a0 = poly 0", "a0 = poli 0").replace("a1 = poly 0\n", "")
        assert cli.main(["derive", config(text)]) == cli.EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: ") and "poli" in line and "missing" not in line, line

    def test_unwritable_output(self, config, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "x.csv"
        rc = cli.main(["simulate", config(CANONICAL), "--ic", "0", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: cannot write table")

    def test_error_classes_are_distinct(self):
        codes = {cli.EXIT_OK, cli.EXIT_FAIL, cli.EXIT_CONFIG, cli.EXIT_DOMAIN,
                 cli.EXIT_GENERICITY, cli.EXIT_NUMERIC}
        assert len(codes) == 6

    # each error class's documented exit code and stderr label, and its constructor arguments
    DOCUMENTED = {
        "ConfigError": (2, "config error", ("bad",)),
        "TimeFnSyntaxError": (2, "config error", ("bad", 3)),
        "DomainError": (3, "domain error", ("bad",)),
        "GuardViolation": (3, "domain error", ("bad", 0.5)),
        "GenericityError": (4, "genericity error", ("bad",)),
        "BranchError": (4, "genericity error", ("bad",)),
        "NumericError": (5, "numeric failure", ("bad",)),
        "WorkBoundError": (5, "numeric failure", ("bad",)),
    }

    @pytest.mark.parametrize("cls", [
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.RiccatiLieError) and cls is not errors.RiccatiLieError
    ], ids=lambda cls: cls.__name__)
    def test_exit_table_covers_every_error_class(self, capsys, monkeypatch, cls):
        rc, label, args = self.DOCUMENTED[cls.__name__]

        def command(_):
            raise cls(*args)

        monkeypatch.setattr(cli, "cmd_derive", command)
        assert cli.main(["derive", "unread.ini"]) == rc
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line == f"{label}: {cls(*args)}"


# the pieces of an INI text: headers, keys with either delimiter, comments, blank, indented and stray lines
_INDENTS = st.sampled_from(("", "", " ", "  ", "\t", "\x0c", "\u3000"))
_HEADERS = st.builds("[{}]{}".format,
                     st.sampled_from(("potential", "run", "DEFAULT", "Run", "ics", " ics ", "a]b", "]")),
                     st.sampled_from(("", "", " trailing", "]", " = 1")))
_KEY_LINES = st.builds("{}{}{}{}{}".format,
                       st.sampled_from(("a0", "A0", "a1", "a2", "t0", "T1", "step", "ic1", "ic2", "x y", "", "İ")),
                       st.sampled_from(("", " ", "\t")), st.sampled_from("=:"), st.sampled_from(("", " ", "  ")),
                       st.sampled_from(("poly 1", "", "a=b", "1:2", " x ", "[run]", "# no comment", "v\t")))
_COMMENTS = st.builds("{}{}".format, st.sampled_from("#;"), st.sampled_from(("", " c", " a = 1")))
_CONTINUATIONS = st.builds("{}{}".format, st.sampled_from((" ", "  ", "\t", "    ")),
                           st.sampled_from(("more", "[potential]", "k = v", "# c", "")))
_STRAYS = st.sampled_from(("garbage line", "[]", "[]x", "x[y]", "\ufeffa = 1"))
_INI_LINES = st.one_of(st.builds("{}{}".format, _INDENTS, st.one_of(_KEY_LINES, _HEADERS, _COMMENTS)), _KEY_LINES,
                       _CONTINUATIONS, st.sampled_from(("", "   ")))
# a header first, after a few comment or blank lines and one time in five a key; sometimes a stray line later
_INI_TEXTS = st.builds(lambda before, key, header, after, stray: [*before, *key, header, *after[:stray[0]],
                                                                  *stray[1:], *after[stray[0]:]],
                       st.lists(_COMMENTS | st.sampled_from(("", "   ")), max_size=2),
                       st.sampled_from((False,) * 4 + (True,)).flatmap(lambda k: st.tuples(*[_KEY_LINES] * k)),
                       _HEADERS, st.lists(_INI_LINES, max_size=12),
                       st.tuples(st.integers(0, 12)) | st.tuples(st.integers(0, 12), _STRAYS))


class TestReadConfig:
    """`cli._read_config` reads what the standard library's INI parser reads,
    as `load_scenario` configured it before, and rejects what it rejects."""

    @settings(max_examples=300)
    @given(_INI_TEXTS, st.sampled_from(("\n", "\r\n", "\r")), st.booleans())
    def test_the_reader_is_the_standard_parser(self, tmp_path_factory, lines, newline, last):
        path = tmp_path_factory.getbasetemp() / "reader.ini"
        path.write_bytes((newline.join(lines) + newline * last).encode())
        oracle = configparser.ConfigParser(interpolation=None, default_section="")
        try:
            oracle.read(path)
        except configparser.Error:
            with pytest.raises(errors.ConfigError, match=rf"^cannot parse {re.escape(str(path))}: line \d+: "):
                cli._read_config(str(path))
            return
        got = cli._read_config(str(path))
        assert [(name, list(keys.items())) for name, keys in got.items()] == \
            [(name, oracle.items(name, raw=True)) for name in oracle.sections()]


class TestRunDefaults:
    """A [run] key is the file's [run] value, else the built-in default."""

    POTENTIAL = "[potential]\na0 = poly 0\na1 = poly 0\na2 = poly 1\n"

    @pytest.mark.parametrize("run, t0, t1, n, tol, seed", [
        pytest.param("", 0.0, 1.0, 101, 1e-10, 0, id="no-run"),
        pytest.param("[run]\nt1 = 2.0\ntol = 1e-8\nseed = 7\n", 0.0, 2.0, 201, 1e-8, 7, id="partial-run"),
    ])
    def test_key_lookup(self, config, run, t0, t1, n, tol, seed):
        sc = cli.load_scenario(config(self.POTENTIAL + run))
        assert (sc.t0, sc.t1, sc.tol, sc.seed) == (t0, t1, tol, seed)
        np.testing.assert_array_equal(sc.grid, np.linspace(t0, t1, n))

    @settings(max_examples=300)
    @given(st.floats(-1e3, 1e3), st.floats(1e-6, 1e3), st.integers(1, 2000))
    def test_the_grid_is_numpys_linspace_to_the_bit(self, tmp_path_factory, t0, span, n):
        # `load_scenario` builds the grid in floats by numpy's formula
        path = tmp_path_factory.mktemp("grid") / "scenario.ini"
        path.write_text(self.POTENTIAL + f"[run]\nt0 = {t0!r}\nt1 = {t0 + span!r}\nstep = {span / n!r}\n")
        sc = cli.load_scenario(str(path))
        expected = np.linspace(sc.t0, sc.t1, max(1, round((sc.t1 - sc.t0) / (span / n))) + 1)
        assert np.array(sc.grid).view(np.int64).tolist() == expected.view(np.int64).tolist()

    def test_key_case_is_folded(self, config):
        sc = cli.load_scenario(config(self.POTENTIAL + "[run]\nT1 = 2\n"))
        assert (sc.t1, len(sc.grid)) == (2.0, 201)

    def test_an_ics_key_named_as_a_run_key_is_an_ic(self, config, tmp_path):
        path = config(self.POTENTIAL + "[run]\nt1 = 2\n[ics]\nt1 = 0.5 -2\nic1 = 0.0 -1.0\n")
        sc = cli.load_scenario(path)
        assert (sc.t1, sc.ics) == (2.0, [(0.5, -2.0), (0.0, -1.0)])
        assert cli.main(["simulate", path, "--ic", "1", "--out", str(tmp_path / "out.csv")]) == cli.EXIT_OK


class TestConfigKeys:
    """`CONFIG_KEYS` is the rule: a section or key outside it is a config
    error, named before any other, the first one in file order."""

    POTENTIAL = TestRunDefaults.POTENTIAL
    RICCATI = "[riccati]\nc0 = poly 0\nc1 = poly 0\nc2 = poly 0\nc3 = poly 1\n"
    RUN = "[run]\nt1 = 0.5\nstep = 0.1\n"

    @pytest.mark.parametrize("text, unknown", [
        pytest.param(POTENTIAL + "[Run]\nt1 = 5\n", "section [Run]", id="Run"),
        pytest.param("[DEFAULT]\nt1 = 5\n" + POTENTIAL + RUN, "section [DEFAULT]", id="DEFAULT"),
        pytest.param(POTENTIAL + RUN + "[ic]\nic1 = 0.0 -1.0\n", "section [ic]", id="ic"),
        pytest.param(POTENTIAL + RUN + "tl = 5\n", "key [run] tl", id="run-tl"),
        pytest.param(POTENTIAL + "a3 = poly 1\n" + RUN, "key [potential] a3", id="potential-a3"),
        pytest.param(RICCATI + "f0 = poly 0\n" + RUN, "key [riccati] f0", id="riccati-f0"),
    ])
    @pytest.mark.parametrize("command", [
        ["simulate", "CONFIG", "--ic=0,-1", "--out", "OUT"],
        ["derive", "CONFIG"],
        ["superpose", "CONFIG", "--sols", "SOLS", "--k1", "1", "--k2", "1", "--out", "OUT"],
        ["verify", "all", "CONFIG", "--trials", "1"],
    ], ids=lambda command: command[0])
    def test_an_unknown_section_or_key_is_one_config_error(self, config, tmp_path, capsys, text, unknown, command):
        sols = tmp_path / "three.csv"
        sols.write_text("t,x1,p1,x2,p2,x3,p3\n0.0,0.0,-0.25,0.3,-1.0,-0.2,-0.8\n")
        files = {"CONFIG": config(text), "SOLS": str(sols), "OUT": str(tmp_path / "out.csv")}
        before = sorted(tmp_path.iterdir())
        assert cli.main([files.get(arg, arg) for arg in command]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"config error: unknown {unknown}\n")
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("text, unknown", [
        # before "exactly one of [potential] or [riccati]", either way round
        pytest.param("[Run]\nt1 = 5\n", "section [Run]", id="neither"),
        pytest.param(POTENTIAL + RICCATI + "[ic]\n", "section [ic]", id="both"),
        # before a bad [run] value, and before a missing coefficient
        pytest.param(POTENTIAL + "[run]\nt1 = nan\n[ic]\n", "section [ic]", id="bad-run-value"),
        pytest.param("[potential]\na0 = poly 0\n[ic]\n", "section [ic]", id="missing-coefficient"),
        # the first in file order
        pytest.param(POTENTIAL + "a3 = poly 1\n[Run]\n", "key [potential] a3", id="key-then-section"),
        pytest.param("[Run]\n" + POTENTIAL + "a3 = poly 1\n", "section [Run]", id="section-then-key"),
        pytest.param(POTENTIAL + "[run]\ntl = 5\nstep = 0.1\ntoll = 1\n", "key [run] tl", id="two-keys"),
    ])
    def test_the_first_unknown_is_named_before_any_other_error(self, config, capsys, text, unknown):
        assert cli.main(["derive", config(text)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: unknown {unknown}\n"

    @staticmethod
    def examples():
        """The README's `ini` block and the module docstring's example config."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.M | re.S)
        (example,) = re.findall(r"::\n\n((?:    .*\n|\n)+)", cli.__doc__)
        return {"README": block, "docstring": textwrap.dedent(example)}

    @pytest.mark.parametrize("name", ["README", "docstring"])
    def test_the_documented_config_loads_and_is_in_the_table(self, config, name):
        path = config(self.examples()[name])
        cfg = cli._read_config(path)
        assert set(cfg) == {"potential", "run", "ics"}
        for section in ("potential", "run"):
            assert list(cfg[section]) == list(cli.CONFIG_KEYS[section])
        # every [run] value shown is its default
        assert cfg["run"] == cli.RUN_DEFAULTS
        sc = cli.load_scenario(path)
        assert (sc.source, len(sc.ics)) == ("potential", 2)


class TestOverflow:
    """Inputs whose numbers leave the float range: exit 5 (4 where a draw
    finds no generic configuration), one stderr line, no numpy warning (the
    suite turns a RuntimeWarning into an error) and no output file."""

    BIG_A2 = CANONICAL.replace("a2 = poly 1", "a2 = poly 1e154 1e154")
    HUGE_A2 = CANONICAL.replace("a2 = poly 1", "a2 = poly 1e200")
    HUGE_A0 = RICCATI.replace("c1 = poly 0", "c1 = poly -1e200").replace("c3 = poly 1", "c3 = poly 1e-300")
    COARSE = CANONICAL.replace("step = 0.01", "step = 0.5")
    INF_MINUS_INF = BIG_A2.replace("a0 = poly 0", "a0 = poly 1e200 -1e200").replace("1e154 1e154", "1e200 1e200")
    # 1e308 (1 + t) is finite at t = 0 and inf from t = 0.797..., in one term's own sum
    POLY_OVERFLOW = CANONICAL.replace("a0 = poly 0", "a0 = poly 1e308 1e308")
    A0_OVERFLOW = "[potential]\na0 = poly 1e308 1e308\na1 = poly 0\na2 = poly 1\n\n" \
                  "[run]\nt0 = 1\nt1 = 3\nstep = 0.5\n"
    # c3 = 1e308 (1 + t) is inf at t = 1, a node of the window check
    C3_OVERFLOW = "[riccati]\nc0 = poly 0\nc1 = poly 0\nc2 = poly 0\nc3 = poly 1e308 1e308\n\n" \
                  "[run]\nt0 = 0\nt1 = 2\nstep = 0.5\n"

    @pytest.mark.parametrize("text, argv, rc, message", [
        # the RHS reads order 0 only, in floats: c3 = a2^2 overflows once a2 passes ~1.34e154, at
        # t = 0.3408, and the first stage time past it is named (the jets overflow at t0 in
        # fsum((1e308, 1e308)) of c3's order 1)
        pytest.param(BIG_A2, ["simulate", "CONFIG", "--system", "riccati2", "--ic=0,0", "--out", "OUT"],
                     cli.EXIT_NUMERIC, "numeric failure: coefficient c3 is not finite at t=0.3614662829",
                     id="jets-simulate"),
        pytest.param(BIG_A2, ["derive", "CONFIG"], cli.EXIT_NUMERIC,
                     "numeric failure: overflow evaluating the coefficient jets at t=0.0", id="jets-derive"),
        # c1's a0 a2 product is 1e200 * 1e200 at order 0 (its order-1 sum is fsum's inf - inf)
        pytest.param(INF_MINUS_INF, ["derive", "CONFIG"], cli.EXIT_NUMERIC,
                     "numeric failure: coefficient c1 is not finite at t=0.0", id="jets-inf-minus-inf"),
        # c3 = a2^2 is inf at order 0, with no jet overflow, in the report's read and in the RHS
        pytest.param(HUGE_A2, ["derive", "CONFIG"], cli.EXIT_NUMERIC,
                     "numeric failure: coefficient c3 is not finite at t=0.0", id="c3-derive"),
        pytest.param(HUGE_A2, ["simulate", "CONFIG", "--system", "riccati2", "--ic=0,0", "--out", "OUT"],
                     cli.EXIT_NUMERIC, "numeric failure: coefficient c3 is not finite at t=0.0", id="c3-riccati2"),
        # the Hamiltonian picture reads a0, a1 and a2 only, never c3: p = -sigma^2 is what overflows
        pytest.param(HUGE_A2, ["simulate", "CONFIG", "--ic=0,-0.25", "--out", "OUT"], cli.EXIT_NUMERIC,
                     "numeric failure: the solution overflows as (x, p) at t=0.01", id="c3-hamiltonian"),
        # the derived potential's a0 = c1 / sqrt(c3) + ... is -1e200 / 1e-150
        pytest.param(HUGE_A0, ["derive", "CONFIG"], cli.EXIT_NUMERIC,
                     "numeric failure: coefficient a0 is not finite at t=0.0", id="a0-derive"),
        pytest.param(HUGE_A0, ["simulate", "CONFIG", "--ic=0,-1", "--out", "OUT"], cli.EXIT_NUMERIC,
                     "numeric failure: coefficient a0 is not finite at t=0.0", id="a0-hamiltonian"),
        # sigma stays finite in the chart, but p = -sigma^2 does not at t = 0.5
        pytest.param(COARSE, ["simulate", "CONFIG", "--ic=1e300,-1", "--out", "OUT"], cli.EXIT_NUMERIC,
                     "numeric failure: the solution overflows as (x, p) at t=0.5", id="xp-simulate"),
        pytest.param(COARSE, ["simulate", "CONFIG", "--system", "riccati2", "--ic=1e200,0", "--out", "OUT"],
                     cli.EXIT_NUMERIC, "numeric failure: step size underflow at t=0.0", id="stages-riccati2"),
        pytest.param(CANONICAL.replace("a1 = poly 0", "a1 = poly 1e200 1e200"),
                     ["simulate", "CONFIG", "--ic=0,-1", "--out", "OUT"], cli.EXIT_NUMERIC,
                     "numeric failure: step size underflow at t=0.0", id="stages-hamiltonian"),
        # a time function read where it is not finite: c0 = a0' + ... at t0 = 1, and c3 on the window
        pytest.param(A0_OVERFLOW, ["derive", "CONFIG"], cli.EXIT_NUMERIC,
                     "numeric failure: overflow evaluating a time function at t=1.0", id="timefn-derive-potential"),
        pytest.param(C3_OVERFLOW, ["derive", "CONFIG"], cli.EXIT_NUMERIC,
                     "numeric failure: overflow evaluating a time function at t=1.0", id="timefn-derive-riccati"),
        pytest.param(POLY_OVERFLOW, ["verify", "brackets", "CONFIG", "--trials", "20"], cli.EXIT_NUMERIC,
                     "numeric failure: overflow evaluating a time function at t=0.8", id="timefn-verify"),
        pytest.param(BIG_A2, ["verify", "all", "CONFIG", "--trials", "3"], cli.EXIT_GENERICITY,
                     "genericity error: no generic four-solution configuration found", id="verify"),
        # the weights k/F0 = 1e305 times sigma differences of 1e100 overflow in the rule's sums
        pytest.param(CANONICAL, ["superpose", "CONFIG", "--sols", "TINY_F0", "--k1", "1e305", "--k2", "1e305",
                                 "--out", "OUT"], cli.EXIT_GENERICITY,
                     "genericity error: at t=0.0: degenerate configuration", id="superpose-sigma0"),
        # u0 = 1.7e308 + 1.7e308 overflows while sigma0 = 2
        pytest.param(CANONICAL, ["superpose", "CONFIG", "--sols", "WIDE_U", "--k1=-1.7e308", "--k2=-1.7e308",
                                 "--out", "OUT"], cli.EXIT_NUMERIC,
                     "numeric failure: at t=0.0: the reconstruction overflows as (x0, p0)", id="superpose-u0"),
        # F0 = 1e250 * 2e150 overflows; k/F0 = 0 would pass copy 1 off as the answer
        pytest.param(CANONICAL, ["superpose", "CONFIG", "--sols", "HUGE_F0", "--k1", "1", "--k2", "1",
                                 "--out", "OUT"], cli.EXIT_NUMERIC,
                     "numeric failure: at t=0.0: the constants overflow", id="superpose-F0-k"),
        pytest.param(CANONICAL, ["superpose", "CONFIG", "--sols", "HUGE_F0", "--fourth-ic=0,-2",
                                 "--out", "OUT"], cli.EXIT_NUMERIC,
                     "numeric failure: at t=0.0: the constants overflow", id="superpose-F0-fourth"),
        # the fourth copy (u, sigma) = (1e308, 1e8) makes k1 = inf - inf = NaN, while F0 = 4
        pytest.param(CANONICAL, ["superpose", "CONFIG", "--sols", "UNIT_F0", "--fourth-ic=1e300,-1e16",
                                 "--out", "OUT"], cli.EXIT_NUMERIC,
                     "numeric failure: at t=0.0: the constants overflow: k1=nan", id="superpose-k1-fourth"),
    ])
    def test_exit_code_and_one_stderr_line(self, config, tmp_path, capsys, text, argv, rc, message):
        out = tmp_path / "out.csv"
        paths = {"CONFIG": config(text), "OUT": str(out)}
        for name, row in (("TINY_F0", "0.0,0.0,-1.0,1e-200,-1e200,0.0,-1e200"),
                          ("WIDE_U", "0.0,0.0,-1.0,-1.7e308,-1.0,0.85e308,-4.0"),
                          ("HUGE_F0", "0.0,0.0,-1.0,1e100,-1e300,0.0,-4e300"),
                          ("UNIT_F0", "0.0,0.0,-1.0,1.0,-4.0,0.0,-9.0")):
            paths[name] = config(f"t,x1,p1,x2,p2,x3,p3\n{row}\n", f"{name}.csv")
        assert cli.main([paths.get(arg, arg) for arg in argv]) == rc
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith(message), line
        assert captured.out == ""
        assert not out.exists()


class TestWorkBound:
    """A coefficient the integrator cannot resolve, a sine of frequency 1e154
    in a0: the solve stops after integrator.MAX_STEPS trial steps, about a
    second of CPU, with exit 5 and one stderr line, and `verify` does not
    redraw it."""

    FAST = ("[potential]\na0 = sin 1.369184274815411 1e+154 -0.954876122057045; "
            "poly -0.015484652803268606 -4.38997601733773e-117\n"
            "a1 = sin 2.5864370119821286e-90 -0.38512606754029033 -1.49154657398456\n"
            "a2 = poly 1.8072908990248429 0.1\n\n[run]\nt0 = 0\nt1 = 1\nstep = 0.01\ntol = 1e-8\n")

    @pytest.mark.parametrize("argv", [["simulate", "CONFIG", "--ic=0,-1", "--out", "OUT"],
                                      ["verify", "all", "CONFIG", "--trials", "100"]], ids=["simulate", "verify"])
    def test_exit_code_and_one_stderr_line(self, config, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        paths = {"CONFIG": config(self.FAST), "OUT": str(out)}
        assert cli.main([paths.get(arg, arg) for arg in argv]) == cli.EXIT_NUMERIC
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        stop = re.fullmatch(rf"numeric failure: integration work bound reached at t=(\S+): "
                            rf"{integrator.MAX_STEPS} trial steps", line)
        assert stop and 0.0 < float(stop[1]) < 1e-4, line
        assert captured.out == ""
        assert not out.exists()

    # a quartic a0 of size 3e16 over a window of width 1e-3: the chart solve's step size underflows at one t,
    # whatever the initial point, so `verify` ends on its first draw
    UNDERFLOW = ("[potential]\na0 = poly -0.29999999999999999 -0.29999999999999999 0 -29551120510194752\n"
                 "a1 = poly -0.15841878718873015\na2 = poly -0.15841878718873015\n\n"
                 "[run]\nt0 = -2.08274666541109\nt1 = -2.08174666541109\nstep = 1e-4\ntol = 1e-10\n")

    def test_a_step_size_underflow_ends_verify_on_its_first_solve(self, config, capsys, monkeypatch):
        real, calls = suites.solve_hamiltonian, []
        monkeypatch.setattr(suites, "solve_hamiltonian", lambda *args: calls.append(args) or real(*args))
        assert cli.main(["verify", "all", config(self.UNDERFLOW), "--trials", "3"]) == cli.EXIT_NUMERIC
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert re.fullmatch(r"numeric failure: step size underflow at t=-2\.08274\d+ "
                            r"\(stiffness or finite-time blow-up\)", line), line
        assert captured.out == "" and len(calls) == 1


@st.composite
def _configs(draw):
    """Config text of either source: each coefficient a draw of `test_model`'s fields over the term grammar
    (a raw term as a one-term sum), with a drawn [run] window and one to three ICs."""
    source = draw(st.sampled_from(("potential", "riccati")))
    fns = [draw(_fns) for _ in cli.CONFIG_KEYS[source]]
    t0, width, n = draw(st.floats(-5.0, 5.0)), draw(st.floats(1e-3, 2.0)), draw(st.integers(1, 100))
    tol, seed = draw(st.sampled_from((1e-6, 1e-8, 1e-10))), draw(st.integers(0, 2**32))
    ics = draw(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), min_size=1, max_size=3))
    return "\n".join([f"[{source}]", *[f"{key} = {render_timefn(f if isinstance(f, TimeFn) else TimeFn((f,)))}"
                                       for key, f in zip(cli.CONFIG_KEYS[source], fns)],
                      "[run]", f"t0 = {t0!r}", f"t1 = {t0 + width!r}", f"step = {width / n!r}", f"tol = {tol!r}",
                      f"seed = {seed}", "[ics]", *[f"ic{i} = {x!r} {y!r}" for i, (x, y) in enumerate(ics)]]) + "\n"


class TestEveryCommand:
    """Any config of the grammar, through every command that reads a config: exit 0 with every number
    it prints or writes finite, or 1 with FAIL lines, or an error exit (2-5) with one stderr line,
    nothing on stdout and no output file; never a traceback.

    The grammar reaches coefficients the integrator cannot resolve, whose solves run to the work bound, and
    `verify` redraws a solution that fails up to 80 times.  The bound is lowered to WORK trial steps,
    about fifty times the largest solve of the benchmark's inputs, so that every example ends within seconds."""

    WORK = 2_000

    COMMANDS = (["derive", "CONFIG"], ["simulate", "CONFIG", "--system", "hamiltonian", "--out", "OUT"],
                ["simulate", "CONFIG", "--system", "riccati2", "--out", "OUT"],
                ["verify", "all", "CONFIG", "--trials", "3"])

    @staticmethod
    def run(argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
        return rc, stdout.getvalue(), stderr.getvalue()

    @settings(max_examples=200)
    @given(_configs())
    # a derived coefficient that is not finite, which `derive` once printed as c3(t0) = inf with exit 0
    @example(CANONICAL.replace("a2 = poly 1", "a2 = poly 1e200"))
    def test_exit_0_with_finite_numbers_or_one_stderr_line(self, tmp_path_factory, text):
        where = tmp_path_factory.mktemp("every-command")
        paths = {"CONFIG": str(where / "scenario.ini"), "OUT": str(where / "out.csv")}
        (where / "scenario.ini").write_text(text)
        for argv in self.COMMANDS:
            with mock.patch.object(integrator, "MAX_STEPS", self.WORK):
                rc, stdout, stderr = self.run([paths.get(arg, arg) for arg in argv])
            out = where / "out.csv"
            written = out.read_text() if out.exists() else ""
            assert rc in (0, 1, 2, 3, 4, 5), argv
            if rc == 1:
                assert argv[0] == "verify" and re.search(r"^FAIL ", stdout, re.M) and stderr == "", argv
            elif rc:
                assert len(stderr.splitlines()) == 1 and stdout == "" and not out.exists(), (argv, stderr)
            else:
                assert stderr == "" and not re.search(r"\b(inf|nan)\b", stdout + written, re.I), argv
            out.unlink(missing_ok=True)


class TestEntryPoint:
    """The installed entry point, `python -m riccati_lie.cli`, in a fresh process."""

    @staticmethod
    def a0(text):
        return CANONICAL.replace("a0 = poly 0", f"a0 = {text}")

    @pytest.mark.parametrize("text, argv, rc, message", [
        pytest.param(CANONICAL, ["derive", "CONFIG"], cli.EXIT_OK, None, id="canonical-derive"),
        pytest.param(a0("poly nan"), ["simulate", "CONFIG", "--ic=0,-1", "--out", "x.csv"], cli.EXIT_CONFIG,
                     "config error: expected a finite number, got 'nan' (at position 5)", id="nan-simulate"),
        pytest.param(a0("poly nan"), ["derive", "CONFIG"], cli.EXIT_CONFIG,
                     "config error: expected a finite number", id="nan-derive"),
        pytest.param(a0("poly nan"), ["verify", "brackets", "CONFIG"], cli.EXIT_CONFIG,
                     "config error: expected a finite number", id="nan-verify"),
        pytest.param(a0("exp 1 800"), ["derive", "CONFIG"], cli.EXIT_NUMERIC,
                     "numeric failure: overflow evaluating a time function at t=", id="overflow-derive"),
        pytest.param(a0("exp 1 800"), ["verify", "brackets", "CONFIG"], cli.EXIT_NUMERIC,
                     "numeric failure: overflow evaluating a time function at t=", id="overflow-verify"),
        # the decomposition draws its times from the window [0, 1], where e^700 is finite
        pytest.param(a0("exp 1 700"), ["verify", "brackets", "CONFIG"], cli.EXIT_OK, None, id="window-verify"),
        pytest.param(NAN_RESIDUAL, ["verify", "brackets", "CONFIG", "--trials", "20"], cli.EXIT_FAIL,
                     None, id="nan-residual-verify"),
        # argparse usage errors: one line, without the usage block
        pytest.param(CANONICAL, [], cli.EXIT_CONFIG,
                     "riccati-lie: error: the following arguments are required: command", id="no-arguments"),
        pytest.param(CANONICAL, ["solve", "CONFIG"], cli.EXIT_CONFIG,
                     "riccati-lie: error: argument command: invalid choice: 'solve'", id="unknown-command"),
        pytest.param(CANONICAL, ["simulate", "CONFIG"], cli.EXIT_CONFIG,
                     "riccati-lie simulate: error: the following arguments are required: --out",
                     id="simulate-without-out"),
        pytest.param(CANONICAL, ["simulate", "CONFIG", "--system", "foo", "--out", "x.csv"], cli.EXIT_CONFIG,
                     "riccati-lie simulate: error: argument --system: invalid choice: 'foo'", id="unknown-system"),
        pytest.param(CANONICAL, ["verify", "all", "CONFIG", "--trials", "abc"], cli.EXIT_CONFIG,
                     "riccati-lie verify: error: argument --trials: invalid int value: 'abc'", id="trials-not-int"),
        pytest.param(CANONICAL, ["derive", "CONFIG", "--bogus"], cli.EXIT_CONFIG,
                     "riccati-lie: error: unrecognized arguments: --bogus", id="unknown-flag"),
    ])
    def test_exit_code_and_one_stderr_line(self, config, tmp_path, text, argv, rc, message):
        path = config(text)
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        argv = [path if arg == "CONFIG" else arg for arg in argv]
        proc = subprocess.run([sys.executable, "-m", "riccati_lie.cli", *argv],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == rc, proc.stderr
        assert "Traceback" not in proc.stderr
        if message is None:
            assert proc.stderr == ""
        else:
            assert proc.stdout == ""
            (line,) = proc.stderr.splitlines()
            assert line.startswith(message), line


# run in a fresh interpreter by TestFreshProcess: the package's modules each command imports, in order
FRESH_PROCESS = """
import json, sys
import riccati_lie
from riccati_lie import cli, timefn
import riccati_lie.cli

# the traces built and the reads compiled by the imports: the two uncompiled fields of `model`, and no picture's read
print(json.dumps([timefn._trace.cache_info().currsize, timefn._read_code.cache_info().currsize]))

def loaded():
    return sorted(name for name in ("configparser", "numpy", "riccati_lie.liealg", "riccati_lie.superpose",
                                    "riccati_lie.suites") if name in sys.modules)

cfg = sys.argv[1]
steps = [("import", 0, loaded())]
for i in (1, 2, 3):
    steps.append(("simulate", cli.main(["simulate", cfg, "--ic", str(i), "--out", f"s{i}.csv"]), loaded()))
steps.append(("simulate-riccati2", cli.main(["simulate", cfg, "--system", "riccati2", "--ic", "0.1,0.5",
                                             "--out", "r.csv"]), loaded()))
steps.append(("derive", cli.main(["derive", cfg]), loaded()))
tables = [open(f"s{i}.csv").read().split() for i in (1, 2, 3)]
with open("three.csv", "w") as fh:
    fh.writelines(",".join([a, b.split(",", 1)[1], c.split(",", 1)[1]]) + "\\n" for a, b, c in zip(*tables))
steps.append(("superpose", cli.main(["superpose", cfg, "--sols", "three.csv", "--fourth-ic", "0.0,-0.25",
                                     "--out", "rec.csv"]), loaded()))
steps.append(("verify", cli.main(["verify", "all", cfg, "--trials", "3"]), loaded()))
print(json.dumps(steps))
"""


class TestFreshProcess:
    """`import riccati_lie`, `simulate` in both pictures and `derive` import no numpy; `superpose` and `verify`
    import it, and their modules, when they run.  The imports trace no picture and compile no picture's read."""

    def test_numpy_is_imported_by_superpose_and_verify_only(self, config, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", FRESH_PROCESS, config(CANONICAL)],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        built, steps = json.loads(lines[0]), json.loads(lines[-1])
        assert built == [0, 2]
        assert [(name, rc) for name, rc, _ in steps] == [
            ("import", 0), ("simulate", 0), ("simulate", 0), ("simulate", 0), ("simulate-riccati2", 0),
            ("derive", 0), ("superpose", 0), ("verify", 0)]
        assert all(modules == [] for name, _, modules in steps[:6])
        assert steps[6][2] == ["numpy", "riccati_lie.superpose"]
        assert steps[7][2] == ["numpy", "riccati_lie.liealg", "riccati_lie.suites", "riccati_lie.superpose"]


class TestParserReuse:
    """`main` parses with one parser per process; its reuse shows in no namespace, message or help text."""

    ARGVS = [
        ["simulate", "a.ini", "--out", "o.csv"],
        ["simulate", "a.ini", "--system", "riccati2", "--ic", "0.5,-1.0", "--out", "o.csv"],
        ["simulate", "a.ini", "--ic=-0.5,-1", "--out", "o.csv"],
        ["simulate", "a.ini", "--ic", "-0.5,-1", "--out", "o.csv"],  # an option-like value: a usage error
        ["simulate", "a.ini"],
        ["superpose", "a.ini", "--sols", "s.csv", "--k1", "1.5", "--k2", "-2", "--out", "o.csv"],
        ["superpose", "a.ini", "--sols", "s.csv", "--fourth-ic=0.1,-0.2", "--out", "o.csv"],
        ["superpose", "a.ini", "--sols", "s.csv", "--k1", "abc", "--out", "o.csv"],
        ["simulate", "a.ini", "--out", "o.csv"],  # no --k1, --sols or --fourth-ic left over
        ["derive", "a.ini"],
        ["derive", "a.ini", "--bogus"],
        ["verify", "brackets", "a.ini", "--trials", "7"],
        ["verify", "all", "a.ini"],  # --trials back at its default
        ["verify", "all", "a.ini", "--trials", "abc"],
        ["verify", "nosuch", "a.ini"],
        ["solve", "a.ini"],
        [],
        ["simulate", "a.ini", "--system", "foo", "--out", "o.csv"],
        ["superpose", "a.ini", "--k1", "1", "--out", "o.csv"],
    ]
    COMMANDS = ([], ["simulate"], ["derive"], ["superpose"], ["verify"])

    @staticmethod
    def parse(parser, argv, capsys):
        """(namespace dict or exit code, stdout, stderr) of one parse."""
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    def helps(self, parser, capsys):
        return [self.parse(parser, [*command, "--help"], capsys) for command in self.COMMANDS]

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_a_reused_parser_parses_as_a_fresh_one(self, capsys):
        fresh = cli.build_parser.__wrapped__
        shared = cli.build_parser()
        helps = self.helps(fresh(), capsys)
        assert all(rc == 0 and out.startswith("usage: riccati-lie") and err == "" for rc, out, err in helps)
        assert self.helps(shared, capsys) == helps
        for argv in self.ARGVS:
            got = self.parse(shared, argv, capsys)
            assert got == self.parse(fresh(), argv, capsys), argv
            if isinstance(got[0], int):  # a usage error: exit 2 and one stderr line
                assert got[0] == cli.EXIT_CONFIG and got[1] == "" and len(got[2].splitlines()) == 1, argv
        assert self.helps(shared, capsys) == helps
        assert cli.build_parser() is shared

    def test_a_command_rebound_after_a_first_call_takes_effect(self, config, tmp_path, capsys, monkeypatch):
        path = config(CANONICAL)
        assert cli.main(["simulate", path, "--out", str(tmp_path / "first.csv")]) == cli.EXIT_OK
        calls = []
        monkeypatch.setattr(cli, "cmd_simulate", lambda args: calls.append(args.out) or cli.EXIT_FAIL)
        second = str(tmp_path / "second.csv")
        assert cli.main(["simulate", path, "--out", second]) == cli.EXIT_FAIL
        assert calls == [second]
        assert not os.path.exists(second)
