import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

import clarith.formula as fm
from clarith.bounds import Nat, parse_bound
from clarith.cli import main
from clarith.comprehension import (
    ComprehensionRunner,
    SimulationFault,
    _one_verdict,
    comprehension_conclusion,
)
from clarith.game import is_canonical_numer, numer_value, wins
from clarith.hpm import DEFAULT_FUEL, BadFuelSetting, ScriptStrategy

from conftest import FIXTURES


def bit_premise(mask, n_constants=1):
    """Decides Bit(y, mask): yes lands in the left disjunct."""

    def fn(run, waited):
        bots = [m for label, m in run if label == "B"]
        if len(bots) < n_constants or any(label == "T" for label, _ in run):
            return None
        j = numer_value(bots[-1][1:])
        return "0.#" if (mask >> j) & 1 else "1.#"

    return ScriptStrategy(fn)


def silent_premise():
    return ScriptStrategy(lambda run, waited: None)


def babbling_premise():
    return ScriptStrategy(lambda run, waited: "#11")


class TestConclusionShape:
    def test_structure(self):
        p = fm.parse_formula("Bit(y, 101)")
        g = comprehension_conclusion(p, "y", Nat(3))
        assert isinstance(g, fm.ChoiceEx) and g.kind == "size"
        assert isinstance(g.body, fm.BlindAll)
        assert g.var == "d" and g.body.var == "y"

    def test_single_machine_move(self):
        p = fm.parse_formula("Bit(y, 101)")
        g = comprehension_conclusion(p, "y", Nat(3))
        census = fm.choice_census(g)
        assert (census["e_top"], census["e_bot"]) == (1, 0)


class TestChoiceVariable:
    """The choice variable is named apart from the premise and bound."""

    def test_free_d_in_the_premise_is_not_captured(self):
        p = fm.parse_formula("q(y, d)")
        g = comprehension_conclusion(p, "y", Nat(3))
        assert g.var == "d1"
        assert fm.free_vars(g) == ["d"]

    def test_skips_every_taken_name(self):
        p = fm.parse_formula("q(y, d, d1)")
        g = comprehension_conclusion(p, "d2", parse_bound("|d3|"))
        assert g.var == "d4"
        assert set(fm.free_vars(g)) == {"y", "d", "d1", "d3"}

    def test_constant_for_a_free_d_is_a_legal_move(self, tmp_path, capsys):
        p = tmp_path / "p.clf"
        p.write_text("q(y, d)\n")
        env = tmp_path / "env.txt"
        env.write_text("#11\n")
        rc = main(["transform", "compr", "--premise",
                   os.path.join(FIXTURES, "always_yes.hpm"), "--p", str(p),
                   "--y", "y", "--bound", "3", "--play", "--env", str(env)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "conclusion: ade d1 [3]" in out and "q(y, d)" in out
        assert "B #11" in out and "T #111" in out
        assert "illegal" not in out


class TestVerdicts:
    def test_left_disjunct_means_true(self):
        assert _one_verdict(bit_premise(0b101), [0], fuel=50) is True

    def test_right_disjunct_means_false(self):
        assert _one_verdict(bit_premise(0b101), [1], fuel=50) is False

    def test_silence_faults(self):
        with pytest.raises(SimulationFault):
            _one_verdict(silent_premise(), [0], fuel=20)

    def test_unaddressed_move_faults(self):
        with pytest.raises(SimulationFault):
            _one_verdict(babbling_premise(), [0], fuel=20)


class TestRunner:
    def assemble(self, mask, c):
        p = fm.Atom("Bit", (fm.TVar("y"), fm.TConst(format(mask, "b") if mask else "")))
        runner = ComprehensionRunner(bit_premise(mask), p, "y", Nat(c))
        used, _, made = runner.stretch((), 1)
        assert used == 1 and [k for k, _ in made] == [1] * len(made)
        return runner, [m for _, m in made]

    def test_worked_example(self):
        runner, moves = self.assemble(0b101, 3)
        assert moves == ["#101"]
        assert runner.faults == []

    def test_zero_bound_yields_zero(self):
        _, moves = self.assemble(0b101, 0)
        assert moves == ["#"]

    def test_always_false_yields_zero(self):
        _, moves = self.assemble(0, 2)
        assert moves == ["#"]

    def test_leading_falses_are_skipped(self):
        _, moves = self.assemble(0b001, 3)
        assert moves == ["#1"]

    def test_bits_above_the_bound_are_ignored(self):
        _, moves = self.assemble(0b1101, 2)
        assert moves == ["#1"]

    def test_answers_exactly_once(self):
        runner, moves = self.assemble(0b11, 2)
        assert moves == ["#11"]
        assert runner.stretch((), 1)[2] == []

    def test_fault_recorded_and_silent(self, monkeypatch):
        monkeypatch.setenv("CLARITH_FUEL_DEFAULT", "20")
        p = fm.parse_formula("Bit(y, 101)")
        runner = ComprehensionRunner(silent_premise(), p, "y", Nat(2))
        assert runner.stretch((), 1)[2] == []
        assert len(runner.faults) == 1

    def test_waits_for_constants(self):
        p = fm.parse_formula("Bit(y, x)")
        runner = ComprehensionRunner(bit_premise(5, n_constants=2), p, "y",
                                     parse_bound("|x|"))
        assert runner.var_order == ["x"]
        assert runner.stretch((), 1)[2] == []
        moves = runner.stretch((("B", "#101"),), 1)[2]
        assert moves == [(1, "#101")]

    def test_reads_constants_in_the_conclusions_order(self):
        p = fm.parse_formula("Bit(y, c) & q(e, y, a)")
        bound = parse_bound("|f|*|b|+|d|*|f|")
        runner = ComprehensionRunner(bit_premise(3), p, "y", bound)
        assert runner.var_order == ["f", "b", "d", "c", "e", "a"]
        assert runner.var_order == fm.free_vars(
            comprehension_conclusion(p, "y", bound))

    def test_the_judge_binds_the_same_constants(self, tmp_path, capsys):
        # the bound only holds the move if a is bound to 1000 and b to 1
        p = tmp_path / "p.clf"
        p.write_text("y = y\n")
        rc = main(["transform", "compr", "--premise",
                   os.path.join(FIXTURES, "always_yes.hpm"), "--p", str(p),
                   "--y", "y", "--bound", "|a|*|a|+|b|", "--env", "a=1000,b=1",
                   "--play"])
        assert rc == 0
        assert "winner: T\n" in capsys.readouterr().out


class TestAgainstDirectComputation:
    @given(st.integers(min_value=0, max_value=255),
           st.integers(min_value=0, max_value=8))
    def test_assembled_constant_matches_the_mask(self, mask, c):
        truncated = mask & ((1 << c) - 1)
        p = fm.Atom("Bit", (fm.TVar("y"),
                            fm.TConst(format(mask, "b") if mask else "")))
        runner = ComprehensionRunner(bit_premise(mask), p, "y", Nat(c))
        ((_, move),) = runner.stretch((), 1)[2]
        assert is_canonical_numer(move[1:])
        assert numer_value(move[1:]) == truncated

    @given(st.integers(min_value=0, max_value=255),
           st.integers(min_value=1, max_value=8))
    def test_single_move_wins_the_conclusion_game(self, mask, c):
        # with a zero bound no constant fits the size condition, so the
        # conclusion game is unwinnable and excluded here
        p = fm.Atom("Bit", (fm.TVar("y"),
                            fm.TConst(format(mask, "b") if mask else "")))
        g = comprehension_conclusion(p, "y", Nat(c))
        runner = ComprehensionRunner(bit_premise(mask), p, "y", Nat(c))
        ((_, move),) = runner.stretch((), 1)[2]
        assert wins(g, {}, (("T", move),)) == "T"


def runner_fuel():
    return ComprehensionRunner(silent_premise(), fm.Atom("p", (fm.TVar("y"),)),
                               "y", Nat(2)).fuel


class TestFuelDefault:
    def test_fallback(self, monkeypatch):
        monkeypatch.delenv("CLARITH_FUEL_DEFAULT", raising=False)
        assert runner_fuel() == DEFAULT_FUEL

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv("CLARITH_FUEL_DEFAULT", "123")
        assert runner_fuel() == 123

    @pytest.mark.parametrize("value", ["", "1e3", "0", "-1"])
    def test_rejects_values_that_are_not_positive_integers(self, monkeypatch,
                                                           value):
        monkeypatch.setenv("CLARITH_FUEL_DEFAULT", value)
        with pytest.raises(BadFuelSetting):
            runner_fuel()
