import os
import subprocess
import sys

import pytest

from clarith import induction, oracles
from clarith.cli import main

from conftest import COUNTER_TEXT, FIXTURES, TWO_DISJUNCT_TEXT, read_fixture


@pytest.fixture
def formula_file(tmp_path):
    p = tmp_path / "game.clf"
    p.write_text(TWO_DISJUNCT_TEXT + "\n")
    return str(p)


@pytest.fixture
def env_file(tmp_path):
    p = tmp_path / "env.txt"
    p.write_text("#! the constant, then two game moves\n"
                 "#1001\n0.#10\n@1 1.#1\n")
    return str(p)


def fixture(name):
    return os.path.join(FIXTURES, name)


class TestFmt:
    def test_census_report(self, formula_file, capsys):
        assert main(["fmt", "check", formula_file]) == 0
        out = capsys.readouterr().out
        assert "e_top: 2" in out
        assert "D: 5" in out
        assert "free variables: x" in out
        assert "G is identity on 0..8: yes" in out

    def test_missing_file(self, capsys):
        assert main(["fmt", "check", "/nonexistent.clf"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_parse_failure(self, tmp_path, capsys):
        p = tmp_path / "bad.clf"
        p.write_text("ada [ oops\n")
        assert main(["fmt", "check", str(p)]) == 1


class TestRepeatedCalls:
    def test_successive_commands_in_one_process(self, formula_file,
                                                monkeypatch, capsys):
        play = ["play", fixture("bigmove.hpm"), formula_file, "--env", "x=9"]
        assert main(["fmt", "check", formula_file]) == 0
        census = capsys.readouterr().out
        assert main(play + ["--fuel", "30"]) == 0
        played = capsys.readouterr().out
        # a --fuel given before must not stick to a later call
        monkeypatch.setenv("CLARITH_FUEL_DEFAULT", "30")
        assert main(play) == 0
        assert capsys.readouterr().out == played
        assert main(["fmt", "check", formula_file]) == 0
        assert capsys.readouterr().out == census
        assert "e_top: 2" in census and "winner:" in played


class TestUsageErrors:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["transform", "mystery"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("cases", ["-3", "0"])
    def test_oracle_cases_below_one(self, cases, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "fetch", "--cases", cases])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err


class TestPlay:
    def test_match_with_scripted_environment(self, formula_file, env_file,
                                             capsys):
        rc = main(["play", fixture("bigmove.hpm"), formula_file,
                   "--env", env_file, "--fuel", "60"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "T 0.1.#1111111" in out
        assert "winner:" in out
        assert "meter:" in out

    def test_inline_constants(self, formula_file, capsys):
        rc = main(["play", fixture("bigmove.hpm"), formula_file,
                   "--env", "x=9", "--fuel", "30"])
        assert rc == 0


class TestTransform:
    def test_reason_wrapper_truncates(self, formula_file, env_file, capsys):
        rc = main(["transform", "reason", "--machine", fixture("bigmove.hpm"),
                   "--f", formula_file, "--play", "--env", env_file,
                   "--fuel", "3000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "T 0.1.#1111" in out
        assert "T 0.1.#11111" not in out
        assert "T 1.1.#0" in out

    def test_vasa_wrapper(self, formula_file, tmp_path, capsys):
        # constants come from --consts, so the env plays game moves only
        env = tmp_path / "vasa-env.txt"
        env.write_text("0.#10\n@1 1.#1\n")
        rc = main(["transform", "vasa", "--machine", fixture("legal.hpm"),
                   "--f", formula_file, "--consts", "x=9",
                   "--play", "--env", str(env), "--fuel", "60"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "T 0.1.#11" in out

    def test_vasa_bad_consts(self, formula_file, capsys):
        rc = main(["transform", "vasa", "--machine", fixture("legal.hpm"),
                   "--f", formula_file, "--consts", "junk"])
        assert rc == 1

    def test_comprehension(self, tmp_path, capsys):
        p = tmp_path / "p.clf"
        p.write_text("p(y)\n")
        rc = main(["transform", "compr", "--premise", fixture("always_yes.hpm"),
                   "--p", str(p), "--y", "y", "--bound", "3", "--play"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "conclusion: ade d [3]" in out
        assert "T #111" in out

    def test_undecided_winner_names_the_atom_once(self, tmp_path, capsys):
        p = tmp_path / "p.clf"
        p.write_text("q(y, d)\n")
        env = tmp_path / "env.txt"
        env.write_text("#11\n")
        rc = main(["transform", "compr", "--premise", fixture("always_yes.hpm"),
                   "--p", str(p), "--y", "y", "--bound", "3", "--play",
                   "--env", str(env)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert "winner: undecided (no evaluator for atom 'q')" in lines

    def test_induction_with_trace_and_diag(self, tmp_path, capsys):
        concl = tmp_path / "concl.clf"
        concl.write_text("ada x [val 100] ade v [1] (v = 0)\n")
        trace = tmp_path / "trace.jsonl"
        rc = main(["transform", "induct", "--n", fixture("n_const.hpm"),
                   "--k", fixture("k_const.hpm"), "--f", str(concl),
                   "--env", "k=2", "--trace", str(trace),
                   "--play", "--fuel", "4000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "T 1.#" in out
        assert "winner: T" in out
        assert trace.exists()

        rc = main(["diag", "induct", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rank strictly increasing: yes" in out
        assert "birthtimes:" in out

    def test_induction_statute_uses_the_loaded_machines(
            self, tmp_path, capsys, monkeypatch):
        built = []
        real = induction.build_induction_solver

        def capture(*args, **kw):
            built.append(real(*args, **kw))
            return built[-1]

        monkeypatch.setattr(induction, "build_induction_solver", capture)
        concl = tmp_path / "concl.clf"
        concl.write_text("ada x [val 100] ade v [1] (v = 0)\n")
        # bigmove.hpm has r=8, g=0, q=5; legal.hpm has r=7, g=1, q=6
        assert main(["transform", "induct", "--n", fixture("bigmove.hpm"),
                     "--k", fixture("legal.hpm"), "--f", str(concl),
                     "--env", "k=2", "--play", "--fuel", "20"]) == 0
        params = built[0]._diag_base["statute_params"]
        assert (params["r"], params["g"], params["q"]) == (8, 1, 6)

    def test_induction_prints_runner_faults(self, tmp_path, capsys, monkeypatch):
        real = induction.build_induction_solver

        def faulted(*args, **kw):
            runner = real(*args, **kw)
            runner.faults.append("premise went silent")
            return runner

        monkeypatch.setattr(induction, "build_induction_solver", faulted)
        concl = tmp_path / "concl.clf"
        concl.write_text("ada x [val 100] ade v [1] (v = 0)\n")
        assert main(["transform", "induct", "--n", fixture("n_const.hpm"),
                     "--k", fixture("k_const.hpm"), "--f", str(concl),
                     "--env", "k=2", "--play", "--fuel", "20"]) == 0
        assert "faults:\n  premise went silent\n" in capsys.readouterr().out


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def run_cli(args, **env):
    """Run the CLI in a fresh interpreter; (exit code, stderr)."""
    full_env = dict(os.environ, PYTHONPATH=SRC, **env)
    proc = subprocess.run([sys.executable, "-m", "clarith.cli", *args],
                          capture_output=True, text=True, env=full_env,
                          timeout=60)
    return proc.returncode, proc.stderr


class TestInputErrorsExitOne:
    @pytest.fixture
    def choice_free(self, tmp_path):
        p = tmp_path / "flat.clf"
        p.write_text("p(x)\n")
        return str(p)

    def assert_clean_error(self, rc, err):
        assert rc == 1
        assert "error:" in err
        assert "Traceback" not in err

    def test_reason_on_choice_free_formula(self, choice_free):
        rc, err = run_cli(["transform", "reason", "--machine",
                           fixture("bigmove.hpm"), "--f", choice_free])
        self.assert_clean_error(rc, err)
        assert "choice operator" in err

    def test_vasa_on_choice_free_formula(self, choice_free):
        rc, err = run_cli(["transform", "vasa", "--machine",
                           fixture("legal.hpm"), "--f", choice_free,
                           "--consts", "x=9"])
        self.assert_clean_error(rc, err)
        assert "choice operator" in err

    @pytest.mark.parametrize("value", ["lots", "0", "-5"])
    def test_bad_fuel_default(self, formula_file, value):
        rc, err = run_cli(["play", fixture("bigmove.hpm"), formula_file,
                           "--env", "x=9"], CLARITH_FUEL_DEFAULT=value)
        self.assert_clean_error(rc, err)
        assert "CLARITH_FUEL_DEFAULT" in err

    def test_bad_fuel_default_in_comprehension(self, tmp_path):
        # --fuel is given, so only the comprehension runner reads the setting
        p = tmp_path / "p.clf"
        p.write_text("p(y)\n")
        rc, err = run_cli(["transform", "compr", "--premise",
                           fixture("always_yes.hpm"), "--p", str(p),
                           "--y", "y", "--bound", "3", "--fuel", "50"],
                          CLARITH_FUEL_DEFAULT="many")
        self.assert_clean_error(rc, err)

    def test_unparsable_comprehension_bound(self, tmp_path):
        p = tmp_path / "p.clf"
        p.write_text("p(y)\n")
        rc, err = run_cli(["transform", "compr", "--premise",
                           fixture("always_yes.hpm"), "--p", str(p),
                           "--y", "y", "--bound", "max("])
        self.assert_clean_error(rc, err)
        assert "--bound" in err

    def test_malformed_machine_file(self, tmp_path, formula_file):
        p = tmp_path / "twice.hpm"
        p.write_text(read_fixture("legal.hpm")
                     + "delta: a0, _, _ -> halt, _, S, S\n")
        rc, err = run_cli(["play", str(p), formula_file, "--env", "x=9"])
        self.assert_clean_error(rc, err)
        assert "line 20: a second transition" in err

    def test_undeclared_source_state(self, tmp_path, formula_file):
        p = tmp_path / "ghost.hpm"
        p.write_text(read_fixture("legal.hpm")
                     + "delta: ghost, _, _ -> halt, _, S, S\n")
        rc, err = run_cli(["play", str(p), formula_file, "--env", "x=9"])
        self.assert_clean_error(rc, err)
        assert "line 20: source state 'ghost' not declared" in err

    def test_meter_bad_label(self, tmp_path):
        p = tmp_path / "run.txt"
        p.write_text("B #1\nX 0.#1\n")
        rc, err = run_cli(["meter", str(p)])
        self.assert_clean_error(rc, err)
        assert "line 2: label must be T or B" in err

    @pytest.mark.parametrize("line, complaint", [
        ("not json", "line 1 is not JSON"),
        ('{"a": 1}', "line 1 lacks iteration"),
        ('{"iteration":0,"rank":1,"master_scale":1,"U":0,"classification":"x",'
         '"entries":5}', "line 1: entries is not a list of [int, int] pairs"),
        ('{"iteration":0,"rank":"1","master_scale":1,"U":0,'
         '"classification":"x","entries":[]}', "line 1: rank is not an integer"),
        ('{"iteration":0,"rank":1,"master_scale":1,"U":0,"classification":3,'
         '"entries":[[0,1]]}', "line 1: classification is not a string"),
        ('{"iteration":0,"rank":1,"master_scale":1,"U":0,"classification":"x",'
         '"entries":[[0,"1"]]}', "line 1: entries is not a list of [int, int] pairs"),
    ], ids=["not-json", "no-trace-key", "entries-not-a-list", "rank-not-int",
            "classification-not-str", "entry-not-int-pair"])
    def test_diag_bad_trace_line(self, tmp_path, line, complaint):
        p = tmp_path / "trace.jsonl"
        p.write_text(line + "\n")
        rc, err = run_cli(["diag", "induct", str(p)])
        self.assert_clean_error(rc, err)
        assert complaint in err

    def test_induct_conclusion_without_value_bounded_ada(self, formula_file):
        rc, err = run_cli(["transform", "induct", "--n", fixture("n_const.hpm"),
                           "--k", fixture("k_const.hpm"), "--f", formula_file])
        self.assert_clean_error(rc, err)
        assert "value-bounded" in err


class TestMeter:
    def test_report_from_run_file(self, tmp_path, capsys):
        p = tmp_path / "run.txt"
        p.write_text("B #1001\nT 0.1.#11\nB 1.#1\nT 1.1.#0\n")
        assert main(["meter", str(p)]) == 0
        out = capsys.readouterr().out
        assert "amplitude:" in out
        assert "max_timecost:" in out


class TestOracle:
    def test_fetch_suite(self, capsys):
        assert main(["oracle", "fetch", "--cases", "25", "--seed", "1"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_windup_suite(self, capsys):
        assert main(["oracle", "windup"]) == 0

    def test_sim_suite(self, capsys):
        assert main(["oracle", "sim", "--cases", "60", "--seed", "2"]) == 0

    def test_compr_suite(self, capsys):
        assert main(["oracle", "compr", "--cases", "5"]) == 0

    def test_unknown_suite(self, capsys):
        assert main(["oracle", "no-such-suite"]) == 2

    def test_violation_exit_code(self, monkeypatch, capsys):
        monkeypatch.setitem(oracles.SUITES, "doomed",
                            (lambda rng, cases: "planted counterexample", 1))
        assert main(["oracle", "doomed"]) == 3
        assert "FAIL: planted counterexample" in capsys.readouterr().out
