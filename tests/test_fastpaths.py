"""Each linear-time fast path of the play loop against its rescanning twin."""

import random

from hypothesis import given
from hypothesis import strategies as st

from clarith import zoo
from clarith.cli import _script_env, main
from clarith.game import first_illegal_index, magnitude
from clarith.hpm import (
    Configuration,
    Meter,
    initial_configuration,
    play,
    run_symbol,
    run_tape_length,
    step,
)
from clarith.wrappers import VasaRunner

from conftest import FIXTURES, TWO_DISJUNCT_TEXT, make_scripted_env

labmoves = st.tuples(st.sampled_from("TB"), st.text(alphabet="01#.", max_size=6))
runs = st.lists(labmoves, max_size=12)


def fresh(cfg):
    """The same configuration with its run tape cells dropped."""
    return cfg.replace(run=cfg.run)


def assert_tape_matches(cfg, positions):
    tape = cfg.tape()
    assert len(tape) == run_tape_length(cfg.run)
    for pos in positions:
        got = tape[pos] if pos < len(tape) else "_"
        assert got == run_symbol(cfg.run, pos)


class TestRunTape:
    @given(runs, st.lists(st.integers(1, 4), max_size=12),
           st.lists(st.integers(0, 90), max_size=10))
    def test_extended_tape_matches_rescan(self, run, chunks, positions):
        cfg = initial_configuration(zoo.random_machine(random.Random(0)))
        i = 0
        for size in chunks + [len(run)]:
            cfg = cfg.extend(run[i:i + size])
            i += size
            assert_tape_matches(cfg, positions)
        assert cfg.run == tuple(run)

    @given(runs, st.lists(st.integers(0, 90), max_size=10))
    def test_tape_of_a_directly_built_configuration(self, run, positions):
        cfg = Configuration("q", (), (), run, 0, "", 0, 0)
        assert_tape_matches(cfg, positions)
        assert_tape_matches(cfg.replace(run=run[:len(run) // 2]), positions)

    @given(runs, runs, st.integers(0, 2 ** 30))
    def test_steps_with_different_incoming_moves_are_independent(
            self, first, second, seed):
        spec = zoo.random_machine(random.Random(seed))
        base = step(spec, initial_configuration(spec), [("B", "#1")])
        base_run = base.run
        base.tape()
        a = step(spec, base, [("B", m) for _, m in first])
        b = step(spec, base, [("B", m) for _, m in second])
        for _ in range(20):
            a, b = step(spec, a), step(spec, b)
            for cfg in (base, a, b):
                assert_tape_matches(cfg, range(run_tape_length(cfg.run) + 1))
        assert a.run[len(base_run):][:len(first)] == tuple(
            ("B", m) for _, m in first)
        assert b.run[len(base_run):][:len(second)] == tuple(
            ("B", m) for _, m in second)

    @given(st.integers(0, 2 ** 30))
    def test_trajectory_matches_stepping_without_cells(self, seed):
        rng = random.Random(seed)
        spec = zoo.random_machine(rng)
        fast = slow = initial_configuration(spec)
        for _ in range(60):
            incoming = [("B", "#1")] if rng.random() < 0.1 else []
            fast = step(spec, fast, incoming)
            slow = step(spec, fresh(slow), incoming)
            assert fast == slow


class TestMeter:
    @given(runs, st.lists(st.integers(0, 3), max_size=20))
    def test_running_background_matches_rescan(self, run, chunks):
        meter = Meter()
        end = 0
        for cycle, size in enumerate(chunks + [len(run)]):
            end = min(len(run), end + size)
            prefix = tuple(run[:end])
            meter.record_cycle(cycle, prefix, 0, [], False)
            want = max([1] + [magnitude(m) for label, m in prefix if label == "B"])
            assert meter.background == want


class TestScriptEnv:
    @given(st.lists(st.tuples(st.integers(0, 4), st.text("01#.", max_size=3)),
                    max_size=6),
           runs, st.lists(st.integers(0, 3), max_size=20))
    def test_incremental_count_matches_rescan(self, entries, run, chunks):
        fast = _script_env(entries)
        slow = make_scripted_env(entries)
        end = 0
        for size in chunks + [len(run)]:
            end = min(len(run), end + size)
            assert fast(tuple(run[:end])) == slow(tuple(run[:end]))


class ReplayVasa(VasaRunner):
    """VasaRunner deciding legality by replaying the whole run each poll."""

    def _turned_illegal(self, visible_run):
        return first_illegal_index(self.formula, self.c_env, visible_run) is not None


def retire_cycle(runner, env, fuel):
    """The played run and the index of the poll that retired the runner."""
    retired = []
    poll = runner.poll

    def watched(run):
        out = poll(run)
        retired.append(runner.retired)
        return out

    runner.poll = watched
    run = play(runner, env, fuel)["run"]
    return run, retired.index(True) if True in retired else None


def assert_same_retirement(spec, formula, c_env, entries, fuel=80):
    fast = VasaRunner(spec, formula, c_env)
    slow = ReplayVasa(spec, formula, c_env)
    got = retire_cycle(fast, make_scripted_env(entries), fuel)
    want = retire_cycle(slow, make_scripted_env(entries), fuel)
    assert got == want
    return got


class TestVasaLegality:
    SCRIPTS = {
        "legal": [(0, "0.#10"), (1, "1.#1")],
        "illegal-open": [(0, "0.#10"), (1, "1.#1"), (1, "0.#1")],
        "illegal-late": [(0, "0.#10"), (1, "1.#1"), (2, "1.#1")],
    }

    def test_scripts_on_the_legal_machine(self, legal_machine,
                                          two_disjunct_formula):
        retired = {}
        for name, entries in self.SCRIPTS.items():
            _, cycle = assert_same_retirement(
                legal_machine, two_disjunct_formula, {"x": 9}, entries)
            retired[name] = cycle is not None
        assert retired == {"legal": False, "illegal-open": True,
                           "illegal-late": True}

    def test_zoo_machines(self, two_disjunct_formula):
        rng = random.Random(7)
        retired_at = set()
        for _ in range(40):
            spec = zoo.random_machine(rng)
            entries = [(0, "0.#1")] + zoo.random_schedule(rng, spec)
            _, cycle = assert_same_retirement(
                spec, two_disjunct_formula, {"x": 9}, entries)
            retired_at.add(cycle)
        assert len(retired_at - {None}) > 1


class TestCliBoundary:
    def _vasa(self, tmp_path, consts):
        f = tmp_path / "game.clf"
        f.write_text(TWO_DISJUNCT_TEXT + "\n")
        return ["transform", "vasa", "--machine", f"{FIXTURES}/legal.hpm",
                "--f", str(f), "--consts", consts, "--play"]

    def _play(self, tmp_path, fuel):
        f = tmp_path / "game.clf"
        f.write_text(TWO_DISJUNCT_TEXT + "\n")
        return ["play", f"{FIXTURES}/legal.hpm", str(f), "--fuel", fuel]

    def _exit_code(self, argv):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

    def test_fuel_zero_and_negative_are_usage_errors(self, tmp_path, capsys):
        for fuel in ("0", "-1"):
            assert self._exit_code(self._play(tmp_path, fuel)) == 2
            err = capsys.readouterr().err
            assert "--fuel" in err and "Traceback" not in err

    def test_fuel_one_runs_one_cycle(self, tmp_path, capsys):
        assert self._exit_code(self._play(tmp_path, "1")) == 0
        assert "winner:" in capsys.readouterr().out

    def test_absent_fuel_uses_the_default(self, tmp_path, capsys, monkeypatch):
        # legal.hpm answers the first B move on the cycle after it
        argv = self._play(tmp_path, "1")[:-2] + ["--env", "x=9"]
        for default, answered in (("1", False), ("2", True)):
            monkeypatch.setenv("CLARITH_FUEL_DEFAULT", default)
            assert self._exit_code(argv) == 0
            assert ("T 0.1.#11" in capsys.readouterr().out) == answered

    def test_bad_constant_value(self, tmp_path, capsys):
        assert self._exit_code(self._vasa(tmp_path, "x=abc")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_missing_constant(self, tmp_path, capsys):
        assert self._exit_code(self._vasa(tmp_path, "y=3")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "x" in err
