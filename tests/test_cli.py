"""End-to-end tests of the command-line interface and its file formats."""

import numpy as np
import pytest

from riccati_lie import cli, liealg

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

    def test_bad_momentum_ic_is_domain_error(self, config, tmp_path):
        rc = cli.main(["simulate", config(CANONICAL), "--ic", "0.0,1.0",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == cli.EXIT_DOMAIN

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
        # negative near t = 0.25, where the integrator evaluates it
        cfg = config(RICCATI.replace("c3 = poly 1", "c3 = poly 1; cos 1.5 12.566370614359172 0")
                     .replace("step = 0.1", "step = 0.5"))
        assert cli.main(["derive", cfg]) == 0
        capsys.readouterr()
        rc = cli.main(["simulate", cfg, "--system", "riccati2", "--ic=0,1", "--out", str(tmp_path / "x.csv")])
        assert rc == cli.EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("domain error: c3(t) must be positive")
        assert len(err.splitlines()) == 1


class TestCsvRoundtrip:
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

    def test_simulate_output_reproduces_in_process_values(self, config, tmp_path):
        from riccati_lie.integrator import hamiltonian_guard, integrate, sample_at
        from riccati_lie.model import PotentialSpec, hamiltonian_field
        from riccati_lie.timefn import constant

        out = tmp_path / "sol.csv"
        cli.main(["simulate", config(CANONICAL), "--ic", "0", "--out", str(out)])
        _, data = cli.read_csv(str(out))
        P = PotentialSpec(constant(0.0), constant(0.0), constant(1.0))
        traj = integrate(hamiltonian_field(P), (0.0, (0.0, -0.25)), 1.0, 1e-10,
                         guard=hamiltonian_guard, max_step=0.01, system="hamiltonian")
        for row in data[:: len(data) // 10]:
            np.testing.assert_array_equal(row[1:], sample_at(traj, row[0]))

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

    def test_nonpositive_c3_rejected(self, config):
        rc = cli.main(["derive", config(RICCATI.replace("c3 = poly 1", "c3 = poly -1"))])
        assert rc == cli.EXIT_DOMAIN

    def test_nonpositive_a2_rejected_for_potential_derive(self, config):
        rc = cli.main(["derive", config(FREE)])
        assert rc == cli.EXIT_DOMAIN


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
        from riccati_lie.integrator import hamiltonian_guard, integrate
        from riccati_lie.model import PhasePoint, hamiltonian_field
        from riccati_lie.superpose import PhaseTuple, constants_from_four, superpose_trajectory

        cfg = config(CANONICAL)
        table = _write_three_solution_table(cfg, tmp_path)
        out = tmp_path / "rec.csv"
        assert cli.main(["superpose", cfg, "--sols", table, "--fourth-ic", "0.0,-0.25",
                         "--out", str(out)]) == 0
        _, rec = cli.read_csv(str(out))
        sc = cli.load_scenario(cfg)
        trajs = [integrate(hamiltonian_field(sc.potential), (sc.t0, sc.ics[i]), sc.t1, sc.tol,
                           guard=hamiltonian_guard, max_step=sc.step) for i in (1, 2, 3)]
        k = constants_from_four(PhaseTuple(PhasePoint(0.0, -0.25), *(tr.states[0] for tr in trajs)))
        lib = superpose_trajectory(*trajs, k, sc.grid())
        np.testing.assert_array_equal(rec[:, 0], lib.ts)
        np.testing.assert_array_equal(rec[:, 1:], lib.states)

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

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_is_a_config_error(self, config, capsys, trials):
        rc = cli.main(["verify", "brackets", config(CANONICAL), "--trials", trials])
        assert rc == cli.EXIT_CONFIG
        assert "PASS" not in capsys.readouterr().out

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

    def test_both_sections_rejected(self, config):
        rc = cli.main(["derive", config(CANONICAL + "\n[riccati]\nc0 = poly 0\n")])
        assert rc == cli.EXIT_CONFIG

    def test_neither_section_rejected(self, config):
        rc = cli.main(["derive", config("[run]\nt0 = 0\nt1 = 1\n")])
        assert rc == cli.EXIT_CONFIG

    def test_bad_timefn_grammar(self, config):
        rc = cli.main(["derive", config(CANONICAL.replace("a2 = poly 1", "a2 = poli 1"))])
        assert rc == cli.EXIT_CONFIG

    def test_bad_window(self, config):
        rc = cli.main(["derive", config(CANONICAL.replace("t1 = 1.0", "t1 = -1.0"))])
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize("key, value", [("t1", "inf"), ("t0", "-inf"), ("step", "nan"), ("tol", "inf"),
                                            ("seed", "1.5"), ("seed", "-1")])
    def test_nonfinite_run_values(self, config, key, value):
        text = "\n".join(f"{key} = {value}" if line.startswith(f"{key} =") else line
                         for line in CANONICAL.splitlines())
        rc = cli.main(["derive", config(text)])
        assert rc == cli.EXIT_CONFIG

    def test_unwritable_output(self, config, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "x.csv"
        rc = cli.main(["simulate", config(CANONICAL), "--ic", "0", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: cannot write table")

    def test_error_classes_are_distinct(self):
        codes = {cli.EXIT_OK, cli.EXIT_FAIL, cli.EXIT_CONFIG, cli.EXIT_DOMAIN,
                 cli.EXIT_GENERICITY, cli.EXIT_NUMERIC}
        assert len(codes) == 6
