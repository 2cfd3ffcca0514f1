import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarith.cli import _script_env
from clarith.game import TruncationContext, track_append, truncate
from clarith.hpm import (
    BLANK,
    Configuration,
    History,
    HPMStrategy,
    Meter,
    ScriptStrategy,
    StrategyRunner,
    history_prefix,
    initial_configuration,
    initial_sketch,
    meter_report,
    parse_hpm,
    play,
    run_symbol,
    run_tape_length,
    sketch_advance,
    sketch_of_configuration,
    spacecost,
    step,
)

from conftest import (
    read_fixture,
    shape_cases,
    without_horizon,
)


class TestParsing:
    def test_fields(self, bigmove_machine):
        assert bigmove_machine.start == "a0"
        assert bigmove_machine.move_states == {"m1", "m2"}
        assert bigmove_machine.worktapes == 0

    def test_census_counts_blank(self, bigmove_machine):
        assert bigmove_machine.census() == {"r": 8, "g": 0, "q": 5}

    def test_append_string(self, bigmove_machine):
        row = bigmove_machine.delta[("a1", "B", ())]
        assert row[0] == "go1" and row[4] == "0.1.#1111111"

    def test_missing_declaration(self):
        with pytest.raises(ValueError):
            parse_hpm("states: a\nstart: a\nworktapes: 0\n")

    def test_bad_direction(self):
        text = read_fixture("legal.hpm") + "delta: halt, _, _ -> halt, _, U, S\n"
        with pytest.raises(ValueError):
            parse_hpm(text)

    def test_arity_mismatch(self):
        text = read_fixture("legal.hpm") + "delta: halt, _, _ -> halt, S\n"
        with pytest.raises(ValueError):
            parse_hpm(text)

    def test_undeclared_start(self):
        with pytest.raises(ValueError):
            parse_hpm("states: a\nstart: b\nworktapes: 0\nalphabet: 0\n")

    @pytest.mark.parametrize("row, complaint", [
        ("a0, _, _ -> halt, _, S, S", "first given on line 7"),
        ("halt, _ -> halt, S", "0 work symbols, but worktapes is 1"),
        ("halt, _, Y -> halt, _, S, S", "work symbol 'Y' not in the alphabet"),
        ("halt, _, _ -> halt, Y, S, S", "work symbol 'Y' not in the alphabet"),
        ("halt, _, _ -> nowhere, _, S, S", "target state 'nowhere' not declared"),
        ("ghost, _, _ -> halt, _, S, S", "source state 'ghost' not declared"),
        ("halt, , _ -> halt, _, S, S", "run symbol '' is not one character"),
        ("halt, 01, _ -> halt, _, S, S",
         "run symbol '01' is not one character"),
    ], ids=["duplicate-key", "work-arity", "read-symbol", "write-symbol",
            "target-state", "source-state", "empty-run-symbol",
            "long-run-symbol"])
    def test_rejects_malformed_rows_by_line(self, row, complaint):
        text = read_fixture("legal.hpm") + f"delta: {row}\n"
        with pytest.raises(ValueError) as err:
            parse_hpm(text)
        assert str(err.value).startswith(f"line {len(text.splitlines())}: ")
        assert complaint in str(err.value)

    def test_alphabet_symbols_are_one_character(self):
        # a two-character symbol would fill one cell and leave the head
        # on a symbol that no row names
        text = ("states: a\nstart: a\nworktapes: 1\nalphabet: 0 1 xy\n"
                "delta: a, _, _ -> a, xy, S, R\n")
        with pytest.raises(ValueError, match="^line 4: alphabet symbol 'xy' "
                                             "is not one character$"):
            parse_hpm(text)

    @pytest.mark.parametrize("rhs", ["a, S, append", 'a, S, append "',
                                     "a, S, append 0", 'a, S, appendix "0"'])
    def test_append_wants_a_quoted_string(self, rhs):
        text = ("states: a\nstart: a\nworktapes: 0\nalphabet: 0\n"
                f"delta: a, T -> {rhs}\n")
        with pytest.raises(ValueError,
                           match="^line 5: append wants a quoted string$"):
            parse_hpm(text)

    @pytest.mark.parametrize("value", ["-1", "x", "1.5", ""])
    def test_worktapes_must_be_a_non_negative_integer(self, value):
        text = f"states: a\nstart: a\nworktapes: {value}\nalphabet: 0\n"
        with pytest.raises(ValueError, match="^line 3: worktapes must be a "
                                             "non-negative integer$"):
            parse_hpm(text)

    @pytest.mark.parametrize("rhs, complaint", [
        ("halt, _, U, S", "bad direction 'U'"),
        ("halt, _, S", "delta rhs arity mismatch"),
        ("nowhere, _, S, S", "target state 'nowhere' not declared"),
        ("halt, Y, S, S", "work symbol 'Y' not in the alphabet"),
    ], ids=["direction", "arity", "target-state", "write-symbol"])
    def test_a_shared_malformed_rhs_is_reported_on_its_first_line(
            self, rhs, complaint):
        text = (read_fixture("legal.hpm") + f"delta: halt, 0, _ -> {rhs}\n"
                + f"delta: halt, 1, _ -> {rhs}\n")
        with pytest.raises(ValueError) as err:
            parse_hpm(text)
        assert str(err.value) == f"line 20: {complaint}"

    def test_a_shared_rhs_is_checked_against_each_rows_arity(self):
        # rows 20 and 21 share a right-hand side that fits one work tape
        text = (read_fixture("legal.hpm") + "delta: halt, 0, _ -> halt, _, S, S\n"
                + "delta: halt, 1 -> halt, _, S, S\n")
        with pytest.raises(ValueError,
                           match="^line 21: delta rhs arity mismatch$"):
            parse_hpm(text)

    def test_rows_with_one_rhs_share_one_parsed_row(self, legal_machine):
        delta = legal_machine.delta
        assert delta[("b2", "0", ("_",))] is delta[("b2", "1", ("_",))]

    def test_compiled_table(self, legal_machine):
        table = legal_machine.table
        assert len(table) == len(legal_machine.delta)
        assert table[("a0", "B", "_")] == ("go1", ("X",), 0, (1,),
                                           "0.1.#11", False)
        assert table[("b2", "0", "_")] == ("b2", ("_",), 1, (0,), "", True)
        assert table[("m1", "B", "_")][5] is True


class TestRunTape:
    RUN = (("B", "#1001"), ("T", "0.#"))

    def test_length(self):
        assert run_tape_length(self.RUN) == 6 + 4

    def test_symbols(self):
        cells = [run_symbol(self.RUN, i) for i in range(11)]
        assert "".join(cells) == "B#1001T0.#" + BLANK

    def test_blank_past_the_end(self):
        assert run_symbol((), 0) == BLANK


class TestStepping:
    def test_idle_without_matching_row(self, bigmove_machine):
        cfg = initial_configuration(bigmove_machine)
        cfg2 = step(bigmove_machine, cfg)
        assert cfg2.state == "a0" and cfg2.cycle == 1
        assert cfg2.last_append == "" and cfg2.last_move is None

    def test_incoming_moves_absorbed_before_reading(self, bigmove_machine):
        cfg = initial_configuration(bigmove_machine)
        cfg2 = step(bigmove_machine, cfg, incoming=(("B", "#1"),))
        assert cfg2.run == (("B", "#1"),)
        assert cfg2.state == "a1" and cfg2.runhead == 1

    def test_buffer_flush_on_move_state(self, bigmove_machine):
        env = _script_env([(0, "#1001"), (0, "0.#10")])
        out = play(StrategyRunner(HPMStrategy(bigmove_machine)), env, fuel=40)
        tops = tuple(lm for lm in out["run"] if lm[0] == "T")
        assert tops == (("T", "0.1.#1111111"),)

    def test_full_exchange(self, bigmove_machine):
        env = _script_env([(0, "#1001"), (0, "0.#10"), (1, "1.#1")])
        out = play(StrategyRunner(HPMStrategy(bigmove_machine)), env, fuel=60)
        tops = tuple(lm for lm in out["run"] if lm[0] == "T")
        assert tops == (("T", "0.1.#1111111"), ("T", "1.1.#0"))

    def test_runhead_clamped_at_frontier(self, bigmove_machine):
        cfg = initial_configuration(bigmove_machine)
        cfg = step(bigmove_machine, cfg, incoming=(("B", ""),))
        # a1 reads blank at cell 1 and stays put forever
        for _ in range(5):
            cfg = step(bigmove_machine, cfg)
        assert cfg.runhead == 1 and cfg.state == "a1"

    def test_worktape_write_and_clamp(self, legal_machine):
        cfg = initial_configuration(legal_machine)
        cfg = step(legal_machine, cfg, incoming=(("B", "#1"),))
        assert cfg.tapes == ("X",) and cfg.heads == (1,)
        cfg2 = step(legal_machine, cfg)
        assert cfg2.tapes == ("XX",) and cfg2.heads == (2,)

    def test_spacecost_counts_written_cells(self, legal_machine):
        env = _script_env([(0, "#1001")])
        runner = StrategyRunner(HPMStrategy(legal_machine))
        play(runner, env, fuel=10)
        assert spacecost(runner.st) == 2

    def test_spacecost_empty(self, bigmove_machine):
        assert spacecost(initial_configuration(bigmove_machine)) == 0

    def test_equal_fields_make_equal_configurations(self, bigmove_machine):
        cfg = initial_configuration(bigmove_machine)
        start = bigmove_machine.start
        assert Configuration(start, (), (), (), 0, "", 0, 0) == cfg
        assert Configuration(start, (), (), (), 0, "", 3, 0) != cfg


class TestScriptStrategy:
    def test_waited_counter_resets_on_move(self):
        calls = []

        def fn(run, waited):
            calls.append(waited)
            return "#1" if waited == 2 else None

        runner = StrategyRunner(ScriptStrategy(fn))
        made = []
        for _ in range(6):
            made += runner.stretch((), 1)[2]
        assert calls == [0, 1, 2, 0, 1, 2]
        assert len(made) == 2

    def test_feed_shows_environment_moves(self):
        seen = []

        def fn(run, waited):
            seen.append(run)
            return None

        runner = StrategyRunner(ScriptStrategy(fn))
        runner.stretch((("B", "#1"),), 1)
        assert seen[-1] == (("B", "#1"),)


class TestMeter:
    def test_amplitude_tracks_own_magnitude_per_background(self):
        m = Meter()
        m.record_cycle(0, "#101", 0, [])
        assert m.background == 3
        m.record_cycle(5, None, 2, [(1, "#11")])
        rep = meter_report(m)
        assert rep["amplitude"] == {3: 2}
        assert rep["max_spacecost"] == 2
        assert rep["max_timecost"] == 5
        assert m.background == 3

    def test_background_floor_is_one(self):
        m = Meter()
        m.record_cycle(0, None, 0, [])
        assert m.background == 1

    def test_timecost_measured_from_last_event(self):
        m = Meter()
        m.record_cycle(0, "#", 0, [])
        m.record_cycle(3, None, 0, [(1, "#")])
        assert m.max_timecost == 3
        m.record_cycle(4, None, 0, [(1, "#1")])
        assert m.max_timecost == 3      # 1 since the move at cycle 3, not 4
        m.record_cycle(9, None, 0, [(1, "#1")])
        assert m.max_timecost == 5

    def test_a_stretch_meters_each_move_at_its_own_cycle(self):
        """One call for cycles 10 to 19, with moves at 12 and 19: the
        times are 2 since the ⊥ move and 7 since the move at 12."""
        m = Meter()
        m.record_cycle(10, "#1", 3, [(3, "#"), (10, "#11")])
        assert m.max_timecost == 7
        assert meter_report(m)["amplitude"] == {1: 2}
        m.record_cycle(20, None, 0, [(9, "#")])
        assert m.max_timecost == 9      # cycle 28, 9 after the move at 19


class StretchOnly:
    """A runner with `stretch` and nothing else: it records the ⊥ moves,
    limit and budget it is handed and makes one move, three cycles into
    its second stretch, at a peak of 4 cells."""

    def __init__(self):
        self.calls = []

    def stretch(self, incoming, limit, budget):
        self.calls.append((incoming, limit, budget))
        if len(self.calls) == 2 and limit >= 3:
            return 3, 4, [(3, "#1")]
        return limit, 0, []


class TestPlay:
    def test_drives_a_runner_through_stretch_alone(self):
        """No `poll` and no `spacecost`: a stretch of one cycle on a
        horizon of 0, here an entry already due, else to the end of the
        fuel, through as many moves as the env's horizon, here unbounded
        from its last entry on.  The ⊥ move #1 comes before the second
        stretch's first cycle, cycle 1, so the move at its third cycle,
        cycle 3, is metered 2 cycles after it."""
        runner = StretchOnly()
        out = play(runner, _script_env([(0, "#11"), (0, "#1")]),
                   fuel=10)
        inf = float("inf")
        assert runner.calls == [((("B", "#11"),), 1, 1),
                                ((("B", "#1"),), 9, inf), ((), 6, inf)]
        assert out["run"] == (("B", "#11"), ("B", "#1"), ("T", "#1"))
        rep = meter_report(out["meter"])
        assert (rep["max_spacecost"], rep["max_timecost"]) == (4, 2)

    def test_an_env_of_no_run_gets_one_cycle_per_call(self):
        runner = StretchOnly()
        play(runner, without_horizon(_script_env([(0, "#11")])), fuel=4)
        assert runner.calls == [((("B", "#11"),), 1, 1)] + [((), 1, 1)] * 3

    def test_the_horizon_is_the_move_budget(self):
        """The entry at @2 is two ⊤ moves off when the env plays the one
        before it, then one once the runner has moved."""
        runner = StretchOnly()
        play(runner, _script_env([(0, "#11"), (0, "#1"), (2, "0.#1")]),
             fuel=10)
        assert runner.calls == [((("B", "#11"),), 1, 1),
                                ((("B", "#1"),), 9, 2), ((), 6, 1)]


class SpyRunner(StrategyRunner):
    """A `StrategyRunner` over a script that moves #1 once it has waited
    `every` cycles, recording every labmove each stretch is handed."""

    def __init__(self, every):
        super().__init__(ScriptStrategy(
            lambda run, waited: "#1" if waited + 1 >= every else None))
        self.handed = []

    def stretch(self, incoming, limit, budget=1):
        self.handed += incoming
        return StrategyRunner.stretch(self, incoming, limit, budget)


class TestPlayHandsOnlyNewMoves:
    """The runner contract: each stretch is handed the ⊥ moves that
    entered the run since the last, so the runner sees each env move
    once, in order, as a ⊥ labmove, and never a ⊤ move."""

    @settings(max_examples=60, deadline=None)
    @given(entries=st.lists(st.tuples(st.integers(-1, 6),
                                      st.sampled_from(["#1", "#10", "0.#1"])),
                            max_size=8),
           every=st.integers(1, 4), horizon=st.booleans(),
           fuel=st.integers(1, 40))
    def test_each_env_move_once_in_order(self, entries, every, horizon, fuel):
        runner = SpyRunner(every)
        env = _script_env(entries)
        run = play(runner, env if horizon else without_horizon(env), fuel)["run"]
        assert runner.handed == [lm for lm in run if lm[0] == "B"]
        assert runner.st[0] == run


class TestHistoryPrefix:
    HIST = [("B", 2), ("T", 3), ("B", 1), ("T", 4)]

    def test_before_first_own_move(self):
        assert history_prefix(self.HIST, 0) == [("B", 2)]

    def test_between_own_moves(self):
        assert history_prefix(self.HIST, 1) == [("B", 2), ("T", 3), ("B", 1)]

    def test_past_the_end(self):
        assert history_prefix(self.HIST, 9) == self.HIST


class TestSketch:
    def _coherence(self, spec, ctx, schedule, cycles):
        cfg = initial_configuration(spec)
        sk = initial_sketch(spec)
        pending = sorted(schedule)
        flushes = []
        for cycle in range(cycles):
            incoming = []
            while pending and pending[0][0] <= cycle:
                incoming.append(("B", pending.pop(0)[1]))
            now = cfg.run + tuple(incoming)
            hist = History((l, len(m)) for l, m in now)
            bots = [m for l, m in now if l == "B"]
            tops = [m for l, m in now if l == "T"]

            def fetch(spec, history, ordinal, offset, bots, tops=tops):
                return tops[ordinal][offset - 1]

            nxt = sketch_advance(spec, sk, hist, bots, fetch, ctx)
            cfg = step(spec, cfg, incoming)
            assert nxt == sketch_of_configuration(cfg, ctx)
            if nxt.moves_made > sk.moves_made:
                append = nxt.last_append
                trunc, _ = track_append(sk.trunc, sk._shape, append, ctx)
                flushes.append((trunc, sk.buffer_len + len(append)))
            sk = nxt
        return flushes

    def test_initial_agrees_with_initial_configuration(self, bigmove_machine,
                                                       two_disjunct_ctx):
        cfg = initial_configuration(bigmove_machine)
        assert initial_sketch(bigmove_machine) == sketch_of_configuration(
            cfg, two_disjunct_ctx)

    def test_cycle_by_cycle_coherence(self, bigmove_machine, two_disjunct_ctx):
        flushes = self._coherence(
            bigmove_machine, two_disjunct_ctx,
            [(0, "#1001"), (12, "0.#10"), (25, "1.#1")], 60)
        assert flushes == [("0.1.#1111", 12), ("1.1.#0", 6)]

    def test_coherence_with_worktape_machine(self, legal_machine,
                                             two_disjunct_ctx):
        flushes = self._coherence(
            legal_machine, two_disjunct_ctx,
            [(0, "#1001"), (9, "0.#10"), (20, "1.#1")], 50)
        assert flushes == [("0.1.#11", 7), ("1.1.#0", 6)]

    def test_truncation_tracker_abandons_bad_buffers(self, bigmove_machine,
                                                     two_disjunct_ctx):
        cfg = Configuration(bigmove_machine.start, (), (), (), 0, "0.x1", 0, 0)
        sk = sketch_of_configuration(cfg, two_disjunct_ctx)
        assert sk.trunc == "0." and sk.buffer_len == 4


class TestTruncationTracker:
    """The sketch's incremental truncation against `truncate`."""

    SPEC = parse_hpm(read_fixture("bigmove.hpm"))

    @given(shape_cases(), st.lists(st.integers(1, 4), max_size=8))
    def test_sketch_and_chunked_tracker_match_truncate(self, case, chunks):
        f, c, s = case
        ctx = TruncationContext(f, {"s": c})
        want = truncate(s, ctx)
        cfg = Configuration(self.SPEC.start, (), (), (), 0, s, 0, 0)
        assert sketch_of_configuration(cfg, ctx).trunc == want
        trunc, shape, i = "", 0, 0
        for size in chunks + [len(s)]:
            trunc, shape = track_append(trunc, shape, s[i:i + size], ctx)
            i += size
        assert trunc == want
