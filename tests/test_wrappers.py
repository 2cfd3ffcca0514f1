import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clarith.formula as fm
from clarith import wrappers, zoo
from clarith.game import first_illegal_index, is_quasilegal
from clarith.hpm import (
    History,
    HPMStrategy,
    StrategyRunner,
    initial_sketch,
    play,
)
from clarith.wrappers import (
    FetchError,
    ReasonRunner,
    VasaRunner,
    fetch_symbol,
    update_sketch,
)

from conftest import make_scripted_env

ENV_MOVES = [(0, "#1001"), (0, "0.#10"), (1, "1.#1")]


class TestFetch:
    HISTORY = [("B", 5), ("B", 4), ("T", 12), ("B", 4), ("T", 6)]
    BOTS = ["#1001", "0.#10", "1.#1"]

    def fetch(self, spec, k, n):
        return fetch_symbol(spec, History(self.HISTORY), k, n, self.BOTS)

    def test_replays_every_symbol_of_the_first_move(self, bigmove_machine):
        got = "".join(self.fetch(bigmove_machine, 0, n) for n in range(1, 13))
        assert got == "0.1.#1111111"

    def test_replays_the_second_move(self, bigmove_machine):
        got = "".join(self.fetch(bigmove_machine, 1, n) for n in range(1, 7))
        assert got == "1.1.#0"

    def test_rejects_unknown_move(self, bigmove_machine):
        with pytest.raises(FetchError):
            self.fetch(bigmove_machine, 5, 1)

    def test_rejects_offset_outside_move(self, bigmove_machine):
        with pytest.raises(FetchError):
            self.fetch(bigmove_machine, 0, 13)


class TestReasonRunner:
    def test_emits_truncated_moves(self, bigmove_machine, two_disjunct_formula):
        runner = ReasonRunner(bigmove_machine, two_disjunct_formula)
        out = play(runner, make_scripted_env(ENV_MOVES), fuel=3000)
        tops = tuple(lm for lm in out["run"] if lm[0] == "T")
        assert tops == (("T", "0.1.#1111"), ("T", "1.1.#0"))
        assert runner.faults == []

    def test_run_is_legal(self, bigmove_machine, two_disjunct_formula):
        runner = ReasonRunner(bigmove_machine, two_disjunct_formula)
        out = play(runner, make_scripted_env(ENV_MOVES), fuel=3000)
        # the first env move carries the constant; the game run starts after
        game_run = out["run"][1:]
        assert first_illegal_index(two_disjunct_formula, {"x": 9}, game_run) is None

    def test_waits_for_constants(self, bigmove_machine, two_disjunct_formula):
        runner = ReasonRunner(bigmove_machine, two_disjunct_formula)
        assert runner.poll(()) == []
        assert runner.ctx is None

    def test_restarts_on_every_new_move(self, bigmove_machine,
                                        two_disjunct_formula):
        runner = ReasonRunner(bigmove_machine, two_disjunct_formula)
        play(runner, make_scripted_env(ENV_MOVES), fuel=3000)
        # one per constant batch, one per later env move, one per own move
        assert runner.restarts == 5

    def test_is_deterministic(self, bigmove_machine, two_disjunct_formula):
        outs = []
        for _ in range(2):
            runner = ReasonRunner(bigmove_machine, two_disjunct_formula)
            out = play(runner, make_scripted_env(ENV_MOVES), fuel=3000)
            outs.append(tuple(lm for lm in out["run"] if lm[0] == "T"))
        assert outs[0] == outs[1]

    def test_reports_no_storage_spacecost(self, bigmove_machine,
                                          two_disjunct_formula):
        runner = ReasonRunner(bigmove_machine, two_disjunct_formula)
        assert runner.spacecost() == 0

    def test_fault_is_recorded_once(self, bigmove_machine,
                                    two_disjunct_formula, monkeypatch):
        # two replay cycles are too few to fetch back the first move
        monkeypatch.setattr(wrappers, "FETCH_CAP", 2)
        runner = ReasonRunner(bigmove_machine, two_disjunct_formula)
        out = play(runner, make_scripted_env(ENV_MOVES), fuel=3000)
        tops = tuple(lm for lm in out["run"] if lm[0] == "T")
        assert tops == (("T", "0.1.#1111"),)
        assert runner.faults == ["replay did not reproduce the requested symbol"]

    def test_builder_rejects_choice_free_formula(self, bigmove_machine):
        with pytest.raises(ValueError):
            ReasonRunner(bigmove_machine, fm.parse_formula("p(x)"))


class TestReasonIdle:
    """Once the wrapped machine has halted and no record arrives, the
    runner is idle and resimulates nothing."""

    def test_idle_polls_make_no_update(self, bigmove_machine,
                                       two_disjunct_formula,
                                       resimulation_calls):
        runner = ReasonRunner(bigmove_machine, two_disjunct_formula)
        run = play(runner, make_scripted_env(ENV_MOVES), fuel=300)["run"]
        assert runner.idle and runner.faults == []
        resimulation_calls.clear()
        for _ in range(20):
            assert runner.poll(run) == []
        assert runner.stretch(run, 1000) == (1000, 0, [])
        assert resimulation_calls == []

    def test_calls_stay_flat_past_the_halt(self, bigmove_machine,
                                           two_disjunct_formula,
                                           resimulation_calls):
        counts = set()
        for fuel in (300, 3000):
            for reads_run in (True, False):
                resimulation_calls.clear()
                runner = ReasonRunner(bigmove_machine, two_disjunct_formula)
                play(runner, make_scripted_env(ENV_MOVES), fuel, reads_run)
                counts.add(len(resimulation_calls))
        assert len(counts) == 1 and counts != {0}

    def test_a_new_record_wakes_an_idle_runner(self, bigmove_machine,
                                               two_disjunct_formula):
        runner = ReasonRunner(bigmove_machine, two_disjunct_formula)
        run = [("B", "#1001"), ("B", "0.#10")]
        for _ in range(100):
            run += [("T", m) for m in runner.poll(run)]
        assert runner.idle and run[-1] == ("T", "0.1.#1111")
        run.append(("B", "1.#1"))
        used, _, made = runner.stretch(run, 100)
        assert made == ["1.1.#0"] and used < 100 and not runner.idle


class TestReasonKeepsNoMoves:
    """The README's claim: the wrapper's memory of the run is (label,
    size) records, one per move, and numeric indexes, no move contents."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 30))
    def test_history_holds_numbers_only(self, seed):
        rng = random.Random(seed)
        spec = zoo.random_machine(rng)
        entries = [(0, "#101")] + zoo.random_schedule(rng, spec)
        f = fm.parse_formula("ada x [|s|] (ade y [|s|] p(x,y))")
        runner = ReasonRunner(spec, f)
        run = play(runner, make_scripted_env(entries), fuel=300)["run"]
        history = runner.history
        assert all(label in ("T", "B") and type(size) is int
                   for label, size in history)
        indexes = [*history.starts, *history.ordinals, *history.top_at,
                   history.bots]
        assert all(type(i) is int for i in indexes)
        assert runner.faults == [] and len(history) == len(run)
        assert [label for label, _ in history] == [label for label, _ in run]
        assert [size for label, size in history if label == "B"] == [
            len(m) for label, m in run if label == "B"]


class TestResimulationIndexOrder:
    def test_call_graph_respects_history_indices(self, bigmove_machine,
                                                 two_disjunct_formula,
                                                 resimulation_calls):
        runner = ReasonRunner(bigmove_machine, two_disjunct_formula)
        play(runner, make_scripted_env(ENV_MOVES), fuel=3000)
        fetches = [c for c in resimulation_calls if c[0] == "fetch"]
        callbacks = [c for c in resimulation_calls
                     if c[0] == "update" and c[2] is not None]
        assert fetches and callbacks
        assert all(i_fetch < i_update for _, i_fetch, i_update in fetches)
        assert all(i_update <= i_fetch for _, i_update, i_fetch in callbacks)


class TestUpdateSketch:
    def test_matches_direct_advance_without_own_moves(self, bigmove_machine,
                                                      two_disjunct_ctx):
        history = History([("B", 5)])
        s = initial_sketch(bigmove_machine)
        nxt = update_sketch(bigmove_machine, history, s, ["#1001"],
                            two_disjunct_ctx)
        assert nxt.state == "a1" and nxt.runhead == 1


class TestVasaRunner:
    def test_mimics_on_legal_runs(self, legal_machine, two_disjunct_formula):
        env = make_scripted_env(ENV_MOVES[1:])
        raw = play(StrategyRunner(HPMStrategy(legal_machine)), env, fuel=60)
        wrapped = VasaRunner(
            legal_machine, two_disjunct_formula, {"x": 9})
        env2 = make_scripted_env(ENV_MOVES[1:])
        got = play(wrapped, env2, fuel=60)
        assert got["run"] == raw["run"]

    def test_spacecost_matches_wrapped_machine(self, legal_machine,
                                               two_disjunct_formula):
        env_entries = ENV_MOVES[1:]
        raw = StrategyRunner(HPMStrategy(legal_machine))
        wrapped = VasaRunner(
            legal_machine, two_disjunct_formula, {"x": 9})
        run_a = run_b = ()
        pending_a = make_scripted_env(env_entries)
        pending_b = make_scripted_env(env_entries)
        for _ in range(60):
            mv = pending_a(run_a)
            if mv is not None:
                run_a = run_a + (("B", mv),)
            for m in raw.poll(run_a):
                run_a = run_a + (("T", m),)
            mv = pending_b(run_b)
            if mv is not None:
                run_b = run_b + (("B", mv),)
            for m in wrapped.poll(run_b):
                run_b = run_b + (("T", m),)
            assert wrapped.spacecost() == raw.spacecost()

    def test_retires_after_illegal_environment_move(self, legal_machine,
                                                    two_disjunct_formula):
        wrapped = VasaRunner(
            legal_machine, two_disjunct_formula, {"x": 9})
        env = make_scripted_env([(0, "0.#10"), (0, "0.#10")])
        out = play(wrapped, env, fuel=60)
        assert wrapped.retired
        run = out["run"]
        bad = first_illegal_index(two_disjunct_formula, {"x": 9}, run)
        after = [lm for lm in run[bad + 1:] if lm[0] == "T"]
        assert len(after) <= 1
        assert is_quasilegal(two_disjunct_formula, run, "T")

    def test_emitted_windup_completes_the_buffer(self, legal_machine,
                                                 two_disjunct_formula):
        wrapped = VasaRunner(
            legal_machine, two_disjunct_formula, {"x": 9})
        run = (("B", "0.#10"),)
        assert wrapped.poll(run) == []
        assert wrapped.st.buffer == "0.1.#11"
        run_bad = run + (("B", "0.#10"),)
        final = wrapped.poll(run_bad)
        assert wrapped.retired
        assert final == ["0.1.#11"]

    def test_stays_silent_once_retired(self, legal_machine,
                                       two_disjunct_formula):
        wrapped = VasaRunner(
            legal_machine, two_disjunct_formula, {"x": 9})
        bad = (("T", "0.#1"),)
        assert wrapped.poll(bad) == []
        assert wrapped.retired
        assert wrapped.poll(bad) == []

    def test_builder_rejects_choice_free_formula(self, legal_machine):
        with pytest.raises(ValueError):
            VasaRunner(legal_machine, fm.parse_formula("p(x)"), {"x": 1})
