import io
import os
import subprocess
import sys

import pytest

import clarith.formula as fm
from clarith import game, hpm, induction, oracles
from clarith.cli import main

from conftest import (BLIND_CONCLUSION, FIXTURES, TWO_DISJUNCT_TEXT,
                      read_fixture)


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

    def test_bound_lines_of_a_non_identity_aggregate(self, tmp_path, capsys):
        p = tmp_path / "two_units.clf"
        p.write_text("(ada y [|x| + 1] p(y)) v (ade z [max(|x|, 3)] q(z))\n")
        assert main(["fmt", "check", str(p)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-3:] == [
            "subaggregate f: 0->3 1->3 2->3 3->4 4->5 5->6 6->7 7->8 8->9",
            "superaggregate G: 0->4 1->4 2->4 3->5 4->6 5->7 6->8 7->9 8->10",
            "G is identity on 0..8: no",
        ]

    def test_missing_file(self, capsys):
        assert main(["fmt", "check", "/nonexistent.clf"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_parse_failure(self, tmp_path, capsys):
        p = tmp_path / "bad.clf"
        p.write_text("ada [ oops\n")
        assert main(["fmt", "check", str(p)]) == 1

    @pytest.mark.parametrize("text, printed", [
        ("(x)' = y", "x' = y"), ("(|x|) <= y", "|x| <= y"),
    ])
    def test_atom_opening_with_a_parenthesized_term(self, tmp_path, capsys,
                                                    text, printed):
        p = tmp_path / "term.clf"
        p.write_text(text + "\n")
        assert main(["fmt", "check", str(p)]) == 0
        assert f"formula: {printed}\n" in capsys.readouterr().out


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


    def test_induct_trace_without_play(self, tmp_path, capsys):
        concl = tmp_path / "concl.clf"
        concl.write_text("ada x [val 100] ade v [1] (v = 0)\n")
        trace = tmp_path / "trace.jsonl"
        assert main(["transform", "induct", "--n", fixture("n_const.hpm"),
                     "--k", fixture("k_const.hpm"), "--f", str(concl),
                     "--trace", str(trace)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--play" in err
        assert not trace.exists()


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

    def test_repeated_inline_names_are_all_played(self, formula_file,
                                                  capsys):
        rc = main(["play", fixture("legal.hpm"), formula_file,
                   "--env", "x=9,x=3", "--fuel", "60"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("B #1001\nB #11\n")

    def test_repl_stops_prompting_at_end_of_input(self, formula_file,
                                                  monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO("#101\n#11\n"))
        rc = main(["play", fixture("legal.hpm"), formula_file,
                   "--env", "repl", "--fuel", "50"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "B #101\n" in out and "B #11\n" in out
        # two moves read, then one prompt that meets the end of input
        assert out.count("B> ") == 3

    def test_repl_prompts_once_per_cycle(self, formula_file, monkeypatch,
                                         capsys):
        """The prompt reads a line each cycle, a blank line being a
        cycle with no ⊥ move, so `play` polls the machine once per cycle
        for it and takes no stretch: each line is one cycle, and the
        output is the per-cycle loop's, byte for byte."""
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            "#1001\n\n\n0.#10\n\n\n\n\n\n1.#1\n\n\n"))
        rc = main(["play", fixture("legal.hpm"), formula_file,
                   "--env", "repl", "--fuel", "30"])
        assert (rc, capsys.readouterr().out) == (0, "B> " * 13 + (
            "B #1001\nT 0.1.#11\nB 0.#10\nB 1.#1\nT 1.1.#0\n"
            "winner: B (first illegal move by T)\n"
            'meter: {"amplitude": {"4": 2}, "max_spacecost": 4, '
            '"spacecost_by_background": {"4": 4}, "max_timecost": 8}\n'))

    def test_winner_after_an_illegal_environment_move(self, tmp_path,
                                                       capsys):
        """The second ⊥ move resolves T's unit: B loses the run."""
        f = tmp_path / "eq.clf"
        f.write_text("ade y [|x|] (y = x)\n")
        env = tmp_path / "env.txt"
        env.write_text("#1001\n#1\n")
        assert main(["play", fixture("bigmove.hpm"), str(f),
                     "--env", str(env), "--fuel", "40"]) == 0
        assert capsys.readouterr().out.splitlines()[:4] == [
            "B #1001", "B #1", "T 0.1.#1111111",
            "winner: T (first illegal move by B)"]

    def test_no_env_plays_as_one_stretch(self, formula_file, monkeypatch,
                                         capsys):
        """Without --env the env is the script of no entries, whose
        horizon is unbounded: the whole play is one stretch, one
        `run_until` call through every move, and prints what one cycle
        per env call prints."""
        calls = []

        def counted(*args, run_until=hpm.run_until):
            calls.append(args[2:])
            return run_until(*args)

        monkeypatch.setattr(hpm, "run_until", counted)
        assert main(["play", fixture("echo.hpm"), formula_file,
                     "--fuel", "30"]) == 0
        assert capsys.readouterr().out == "T #1\n" * 8 + (
            "winner: T (environment never instantiated the game)\n"
            'meter: {"amplitude": {"1": 1}, "max_spacecost": 0, '
            '"spacecost_by_background": {"1": 0}, "max_timecost": 4}\n')
        assert calls == [(30, (), float("inf"))]

    def test_winner_of_an_uninstantiated_game(self, tmp_path, capsys):
        f = tmp_path / "eq.clf"
        f.write_text("ade y [|x|] (y = x)\n")
        assert main(["play", fixture("bigmove.hpm"), str(f),
                     "--fuel", "5"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "winner: T (environment never instantiated the game)")


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

    @pytest.mark.parametrize("name", ["y", "d", "v"])
    def test_comprehension_conclusion_parses_back(self, tmp_path, capsys, name):
        p = tmp_path / "p.clf"
        p.write_text("p(y)\n")
        assert main(["transform", "compr", "--premise", fixture("always_yes.hpm"),
                     "--p", str(p), "--y", name, "--bound", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("conclusion: ") and out.endswith("\n")
        text = out[len("conclusion: "):-1]
        assert fm.to_text(fm.parse_formula(text)) == text

    def test_comprehension_of_a_successor_atom(self, tmp_path, capsys):
        # the conclusion prints x'' postfix, so it reads back and --y passes
        p = tmp_path / "p.clf"
        p.write_text("y'' = 11\n")
        assert main(["transform", "compr", "--premise", fixture("always_yes.hpm"),
                     "--p", str(p), "--y", "y", "--bound", "3"]) == 0
        (line,) = [ln for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith("conclusion: ")]
        assert "y'' = 11" in line

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

    def test_induction_under_a_blind_quantifier(self, tmp_path, capsys):
        concl = tmp_path / "concl.clf"
        concl.write_text(BLIND_CONCLUSION + "\n")
        assert main(["transform", "induct", "--n", fixture("n_const.hpm"),
                     "--k", fixture("k_const.hpm"), "--f", str(concl),
                     "--env", "k=3,x=2", "--play", "--fuel", "200"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "T 1.#" in lines
        assert "winner: T" in lines

    # bigmove.hpm has r=8, g=0, q=5; legal.hpm has r=7, g=1, q=6; both
    # const machines have r=4, g=0, q=5, so g stays 0 with no default mixed in
    @pytest.mark.parametrize("n, k, rgq", [
        ("bigmove.hpm", "legal.hpm", (8, 1, 6)),
        ("n_const.hpm", "k_const.hpm", (4, 0, 5)),
    ], ids=["bigmove-legal", "const"])
    def test_induction_statute_uses_the_loaded_machines(
            self, tmp_path, capsys, monkeypatch, n, k, rgq):
        built = []
        real = induction.build_induction_solver

        def capture(*args, **kw):
            built.append(real(*args, **kw))
            return built[-1]

        monkeypatch.setattr(induction, "build_induction_solver", capture)
        concl = tmp_path / "concl.clf"
        concl.write_text("ada x [val 100] ade v [1] (v = 0)\n")
        assert main(["transform", "induct", "--n", fixture(n),
                     "--k", fixture(k), "--f", str(concl),
                     "--env", "k=2", "--play", "--fuel", "20"]) == 0
        params = built[0].statute_params
        assert (params["r"], params["g"], params["q"]) == rgq

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

    @pytest.mark.parametrize("head, flag", [
        (["play", fixture("legal.hpm")], "--env"),
        (["transform", "vasa", "--machine", fixture("legal.hpm"), "--f"],
         "--consts"),
    ], ids=["play-env", "vasa-consts"])
    def test_negative_constant(self, formula_file, head, flag):
        rc, err = run_cli(head + [formula_file, flag, "x=-1"])
        self.assert_clean_error(rc, err)
        assert (f"error: {flag}: bad value in 'x=-1', want a natural number"
                in err)

    @pytest.mark.parametrize("consts, wanted", [
        ("x=9,y=4", "--consts: 'y' is not among the formula's free "
                    "variables: x"),
        ("x=9,x=4", "--consts: 'x' is given more than once"),
    ], ids=["unknown-name", "repeated-name"])
    def test_vasa_consts_names(self, formula_file, consts, wanted):
        rc, err = run_cli(["transform", "vasa", "--machine",
                           fixture("legal.hpm"), "--f", formula_file,
                           "--consts", consts])
        self.assert_clean_error(rc, err)
        assert f"error: {wanted}" in err

    def test_bad_env_is_reported_before_the_banner(self, formula_file,
                                                   capsys):
        rc = main(["transform", "reason", "--machine", fixture("legal.hpm"),
                   "--f", formula_file, "--env", "=5", "--play"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: --env: bad assignment '=5'" in err

    @pytest.mark.parametrize("name", ["", "1", "x y", "ada"],
                             ids=["empty", "digit", "space", "keyword"])
    def test_comprehension_y_that_does_not_parse_back(self, tmp_path, name):
        p = tmp_path / "p.clf"
        p.write_text("p(y)\n")
        rc, err = run_cli(["transform", "compr", "--premise",
                           fixture("always_yes.hpm"), "--p", str(p),
                           "--y", name, "--bound", "3"])
        self.assert_clean_error(rc, err)
        assert f"error: --y: {name!r}" in err

    def test_unparsable_comprehension_bound(self, tmp_path):
        p = tmp_path / "p.clf"
        p.write_text("p(y)\n")
        rc, err = run_cli(["transform", "compr", "--premise",
                           fixture("always_yes.hpm"), "--p", str(p),
                           "--y", "y", "--bound", "max("])
        self.assert_clean_error(rc, err)
        assert "--bound" in err

    def test_comprehension_bound_with_a_non_decimal_digit(self, tmp_path):
        # '\u00b2' is a digit to str.isdigit but not a decimal digit
        p = tmp_path / "p.clf"
        p.write_text("p(y)\n")
        rc, err = run_cli(["transform", "compr", "--premise",
                           fixture("always_yes.hpm"), "--p", str(p),
                           "--y", "y", "--bound", "\u00b2"])
        self.assert_clean_error(rc, err)
        assert "error: --bound: expected a bound at 0: '\u00b2'" in err

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

    def test_bare_append(self, tmp_path, formula_file):
        p = tmp_path / "bare.hpm"
        p.write_text("states: a\nstart: a\nworktapes: 0\nalphabet: 0\n"
                     "delta: a, T -> a, S, append\n")
        rc, err = run_cli(["play", str(p), formula_file, "--env", "x=9"])
        self.assert_clean_error(rc, err)
        assert f"error: {p}: line 5: append wants a quoted string" in err

    @pytest.mark.parametrize("value", ["-1", "x"])
    def test_bad_worktapes(self, tmp_path, formula_file, value):
        p = tmp_path / "tapes.hpm"
        p.write_text(f"states: a\nstart: a\nworktapes: {value}\nalphabet: 0\n")
        rc, err = run_cli(["play", str(p), formula_file, "--env", "x=9"])
        self.assert_clean_error(rc, err)
        assert "line 3: worktapes must be a non-negative integer" in err

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

    @pytest.mark.parametrize("line", ["@x #1", "@ #1"])
    def test_env_script_bad_delay(self, tmp_path, formula_file, line):
        env = tmp_path / "env.txt"
        env.write_text(f"#1001\n{line}\n")
        rc, err = run_cli(["play", fixture("bigmove.hpm"), formula_file,
                           "--env", str(env)])
        self.assert_clean_error(rc, err)
        head = line.split()[0]
        assert f"error: {env}: line 2: bad delay {head!r}" in err

    def test_non_utf8_env_script(self, tmp_path, formula_file):
        env = tmp_path / "env.txt"
        env.write_bytes(b"#1001\n\xff0.#10\n")
        rc, err = run_cli(["play", fixture("bigmove.hpm"), formula_file,
                           "--env", str(env)])
        self.assert_clean_error(rc, err)
        assert f"error: {env}: 'utf-8' codec can't decode" in err

    def test_non_utf8_diag_trace(self, tmp_path):
        p = tmp_path / "trace.jsonl"
        p.write_bytes(b'{"iteration": \xfe}\n')
        rc, err = run_cli(["diag", "induct", str(p)])
        self.assert_clean_error(rc, err)
        assert f"error: {p}: 'utf-8' codec can't decode" in err

    def test_unwritable_induct_trace(self, tmp_path):
        f = tmp_path / "concl.clf"
        f.write_text("ada x [val 100] ade v [1] (v = 0)\n")
        trace = tmp_path / "missing-dir" / "t.jsonl"
        rc, err = run_cli(["transform", "induct", "--n", fixture("n_const.hpm"),
                           "--k", fixture("k_const.hpm"), "--f", str(f),
                           "--env", "k=2", "--play", "--fuel", "50",
                           "--trace", str(trace)])
        self.assert_clean_error(rc, err)
        assert f"error: {trace}: No such file or directory" in err

    @pytest.mark.parametrize("text", ["~" * 3000 + "p(x)", "~" * 989 + "p(x)"],
                             ids=["too-deep-to-parse", "too-deep-to-analyze"])
    def test_deeply_nested_formula(self, tmp_path, text):
        p = tmp_path / "deep.clf"
        p.write_text(text + "\n")
        rc, err = run_cli(["fmt", "check", str(p)])
        self.assert_clean_error(rc, err)
        assert "error: input nested too deeply" in err

    def test_nested_parentheses(self, tmp_path):
        """Parentheses cost the parser more stack than `~`: 200 levels
        check, 300 fail cleanly."""
        p = tmp_path / "parens.clf"
        p.write_text("(" * 200 + "p(x)" + ")" * 200 + "\n")
        assert run_cli(["fmt", "check", str(p)]) == (0, "")
        p.write_text("(" * 300 + "p(x)" + ")" * 300 + "\n")
        rc, err = run_cli(["fmt", "check", str(p)])
        self.assert_clean_error(rc, err)
        assert "error: input nested too deeply" in err

    def test_deeply_nested_comprehension_bound(self, tmp_path):
        p = tmp_path / "p.clf"
        p.write_text("p(y)\n")
        rc, err = run_cli(["transform", "compr", "--premise",
                           fixture("always_yes.hpm"), "--p", str(p), "--y", "y",
                           "--bound", "(" * 3000 + "1" + ")" * 3000])
        self.assert_clean_error(rc, err)
        assert "error: input nested too deeply" in err


def test_closed_stdout_exits_one_without_a_traceback():
    """A reader that has gone away before the first write, as with
    `clarith oracle sim | head -0`."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "clarith.cli", "oracle", "sim",
             "--cases", "5"], stdout=write_end, stderr=subprocess.PIPE,
            text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_python_dash_m_clarith_runs_the_cli(formula_file, capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "clarith", "fmt", "check", formula_file],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60)
    assert main(["fmt", "check", formula_file]) == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, capsys.readouterr().out, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_one_without_a_traceback():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "clarith.cli", "oracle", "sim",
             "--cases", "5"], stdout=full, stderr=subprocess.PIPE,
            text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == "error: standard output: No space left on device\n"


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

    @pytest.mark.parametrize("wrong, report", [
        ("closes", "FAIL: windup mismatch on Semiposition([('T', '#')] open)"),
        ("refuses", "FAIL: windup rejected Semiposition([('T', '0.#1')] open), "
                    "but search closes it"),
    ], ids=["closes", "refuses"])
    def test_windup_suite_catches_both_wrong_answers(self, wrong, report,
                                                     monkeypatch, capsys):
        """A windup that closes a dead buffer, or refuses a buffer that
        is a move already; 400 cases exceed the 317 buffers refused."""
        real = game.windup

        def fake(v, f, c_env):
            try:
                got = real(v, f, c_env)
            except ValueError:
                if wrong == "closes":
                    return ""
                raise
            if wrong == "refuses" and got == "":
                raise ValueError("refused")
            return got

        monkeypatch.setattr(game, "windup", fake)
        assert main(["oracle", "windup", "--cases", "400", "--seed", "0"]) == 3
        assert capsys.readouterr().out.startswith(report)

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
