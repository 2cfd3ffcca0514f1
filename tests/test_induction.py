import copy
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clarith.formula as fm
from clarith import zoo
from clarith.bounds import bitsize, unarify
from clarith.game import (constant_moves, int_to_numer, numer_value, opening,
                          split_move, wins)
from clarith.hpm import HPMStrategy, ScriptStrategy, parse_hpm
from clarith.induction import (
    InductionRunner,
    SimContractError,
    build_induction_solver,
    central_triple,
    check_sim_triple,
    diagnostics,
    iteration_rank,
    organ,
    rank_base,
    sim,
    validate_aggregation,
)
from clarith.oracles import SteppedMachine

from conftest import (
    BLIND_CONCLUSION,
    COUNTER_TEXT,
    counter_k_script,
    counter_n_script,
    drive_solver,
    read_fixture,
)


def once(move):
    """Plays one fixed move, then goes quiet."""

    def fn(run, waited):
        if any(label == "T" for label, _ in run):
            return None
        return move

    return ScriptStrategy(fn)


def ask_then_answer():
    """Queries the antecedent once, then echoes the reply as consequent."""

    def fn(run, waited):
        own = [m for label, m in run if label == "T"]
        if not own:
            return "0.#0"
        if len(own) == 1 and any(
                label == "B" and m.startswith("0.") for label, m in run):
            return "1.#1"
        return None

    return ScriptStrategy(fn)


SILENT = ScriptStrategy(lambda run, waited: None)


class TestOrgansAndBodies:
    def test_organ_normalizes(self):
        assert organ(["#1"], 3) == (("#1",), 3)

    def test_organ_rejects_zero_scale(self):
        with pytest.raises(ValueError):
            organ((), 0)


class TestSimContract:
    def test_right_body_must_be_nonempty(self):
        with pytest.raises(SimContractError):
            check_sim_triple((), (), 1)

    def test_left_body_must_be_empty_at_zero(self):
        with pytest.raises(SimContractError):
            check_sim_triple((organ((), 1),), (organ((), 1),), 0)


class TestSim:
    def test_positive_bullet(self):
        s, u = sim((), (organ(("#",), 3),), 1, once("1.#1"))
        assert s == ("+", (("#1",), 3))

    def test_negative_bullet(self):
        s, u = sim((), (organ(("#",), 3),), 1, once("0.#1"))
        assert s == ("-", (("#1",), 3))

    def test_zero_level_moves_are_unprefixed(self):
        s, u = sim((), (organ(("#",), 3),), 0, once("#1"))
        assert s == ("+", (("#1",), 3))

    def test_silence_exhausts_the_scale(self):
        s, u = sim((), (organ(("#",), 4),), 1, SILENT)
        assert s == ("-", ((), 4))

    def test_scale_too_small_to_answer(self):
        waits = ScriptStrategy(
            lambda run, waited: "1.#1" if waited >= 5 else None)
        s, _ = sim((), (organ(("#",), 3),), 1, waits)
        assert s[0] == "-"
        s2, _ = sim((), (organ(("#",), 9),), 1, waits)
        assert s2[0] == "+"

    def test_answer_after_an_antecedent_query(self):
        a = (organ(("#1",), 4),)
        b = (organ(("#0",), 4),)
        s, _ = sim(a, b, 1, ask_then_answer())
        assert s == ("+", (("#1",), 4))


def started(strategy, state):
    """strategy, with state as its initial state."""
    twin = copy.copy(strategy)
    twin.initial = lambda: state
    return twin


def hpm_fixture(name):
    return HPMStrategy(parse_hpm(read_fixture(name)))


# step premises by name: two answer at once, two scan their run tape
# first, and three are scripted
TWIN_PREMISES = {
    "n_const": hpm_fixture("n_const.hpm"),
    "k_const": hpm_fixture("k_const.hpm"),
    "bigmove": hpm_fixture("bigmove.hpm"),
    "legal": hpm_fixture("legal.hpm"),
    "counter0": counter_k_script(0),
    "counter2": counter_k_script(2),
    "ask": ask_then_answer(),
}

organs = st.builds(organ, st.lists(st.sampled_from(("#", "#1", "#10", "1.#")),
                                   max_size=2),
                   st.integers(1, 16))


class TestOpenedPremise:
    """A level n > 0 replays the step premise from its opened state, the
    state fed the constants' moves once per run, fed just #<n-1>.  Each
    replay must match one from a state fed all of those moves afresh,
    and must leave the opened state as it was for the next level."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(TWIN_PREMISES)), st.lists(organs, max_size=3),
           st.lists(organs, min_size=1, max_size=3), st.integers(1, 6),
           st.lists(st.integers(0, 9), max_size=2))
    # a second replay whose run still held the first one's moves would
    # see a second ⊥ move here and answer within 4 steps
    @example("bigmove", [], [organ((), 4)], 1, [])
    def test_replays_from_the_opened_state_match_fresh_ones(
            self, name, a, b, n, values):
        strategy = TWIN_PREMISES[name]
        a, b, opening = tuple(a), tuple(b), constant_moves(values)
        fresh = strategy.feed(strategy.initial(),
                              opening + constant_moves((n - 1,)))
        expected = sim(a, b, n, started(strategy, fresh))
        k_open = strategy.feed(strategy.initial(), opening)
        level = (("B", "#" + int_to_numer(n - 1)),)
        for _ in range(2):
            state = strategy.feed(k_open, level)
            assert sim(a, b, n, started(strategy, state)) == expected


class TestSimCells:
    """Sim's U over premises with a work tape is the most cells any
    work tape holds after a simulated cycle, as `oracles.SteppedMachine`,
    the twin `oracle sim` also checks against, counts them when it steps
    the machine with `hpm.step`.  Seed -1 draws legal.hpm, a seed from 0
    `zoo.random_machine`."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-1, 9), st.lists(organs, max_size=3),
           st.lists(organs, min_size=1, max_size=3), st.integers(0, 6))
    # the peak is reached on the last cycle of an organ
    @example(-1, [], [organ(("#",), 2)], 1)
    @example(0, [], [organ((), 3)], 0)
    def test_u_is_the_most_cells_after_any_cycle(self, seed, a, b, n):
        spec = (parse_hpm(read_fixture("legal.hpm")) if seed < 0
                else zoo.random_machine(random.Random(seed)))
        a, b = (tuple(a) if n else ()), tuple(b)
        twin = SteppedMachine(spec)
        signed, _ = sim(a, b, n, twin)
        assert sim(a, b, n, HPMStrategy(spec)) == (signed, twin.cells)


def entry(idx, *sizes_and_scales):
    return [idx, [organ(("#",) * moves, scale) for moves, scale in sizes_and_scales]]


class TestAggregations:
    def ok_entries(self, k=5):
        return [
            [2, [organ((), 1), organ((), 1), organ((), 1), organ((), 1)]],
            [3, [organ((), 1), organ((), 1)]],
            [k, [organ((), 2)]],
        ]

    def test_valid(self):
        assert validate_aggregation(self.ok_entries(), 5) == "ok"

    def test_last_entry_must_sit_at_k_with_odd_size(self):
        assert validate_aggregation(self.ok_entries(), 6) == "violated-i"
        bad = self.ok_entries()
        bad[-1][1].append(organ((), 1))
        assert validate_aggregation(bad, 5) == "violated-i"

    def test_indices_strictly_increase(self):
        bad = self.ok_entries()
        bad[1][0] = 2
        assert validate_aggregation(bad, 5) == "violated-ii"

    def test_even_sizes_never_follow_odd_sizes(self):
        bad = [
            [1, [organ((), 1)]],
            [2, [organ((), 1), organ((), 1)]],
            [5, [organ((), 1)]],
        ]
        assert validate_aggregation(bad, 5) == "violated-iii"

    def test_even_sizes_strictly_decrease(self):
        bad = [
            [1, [organ((), 1), organ((), 1)]],
            [2, [organ((), 1), organ((), 1)]],
            [5, [organ((), 1)]],
        ]
        assert validate_aggregation(bad, 5) == "violated-iv"

    def test_common_odd_sizes_strictly_increase(self):
        bad = [
            [1, [organ((), 1), organ((), 1), organ((), 1)]],
            [2, [organ((), 1)]],
            [5, [organ((), 1)]],
        ]
        assert validate_aggregation(bad, 5) == "violated-v"

    def test_no_empty_bodies(self):
        bad = [[2, []], [5, [organ((), 1)]]]
        assert validate_aggregation(bad, 5) == "violated-vi"
        bad2 = self.ok_entries()
        bad2[1][1] = []
        assert validate_aggregation(bad2, 5) in ("violated-iii", "violated-vi")

    def test_central_triple_with_left_neighbor(self):
        entries = [
            [2, [organ((), 1), organ((), 1)]],
            [3, [organ(("#1",), 1)]],
            [5, [organ((), 2), organ((), 2), organ((), 2)]],
        ]
        left, right, n, pos = central_triple(entries, 5)
        assert n == 3 and pos == 1
        assert right == (organ(("#1",), 1),)
        assert left == (organ((), 1), organ((), 1))

    def test_central_triple_without_left_neighbor(self):
        entries = [
            [1, [organ((), 1), organ((), 1)]],
            [3, [organ(("#1",), 1)]],
            [5, [organ((), 2), organ((), 2), organ((), 2)]],
        ]
        left, right, n, pos = central_triple(entries, 5)
        assert n == 3 and pos == 1 and left == ()

    def test_central_triple_at_master(self):
        entries = [[5, [organ((), 4)]]]
        left, right, n, pos = central_triple(entries, 5)
        assert n == 5 and pos == 0 and left == () and right == (organ((), 4),)

    def test_central_triple_rejects_invalid(self):
        with pytest.raises(ValueError):
            central_triple([[1, [organ((), 1)]]], 5)


class TestPremiseOpening:
    """Each premise starts from the conclusion's constants as ⊥ moves,
    canonical, and the step premise also from #<n-1>."""

    def test_premises_see_the_constants_first(self):
        first_runs = {}

        def recording(name):
            def fn(run, waited):
                first_runs.setdefault(name, run)
                return None
            return ScriptStrategy(fn)

        concl = fm.parse_formula("ada x [val 1000] ade v [|s|] (v = x)")
        runner = build_induction_solver(recording("n"), recording("k"), concl)
        run = (("B", "#0101"), ("B", "#11"))
        for _ in range(200):
            runner.poll(run)
        assert first_runs == {"n": (("B", "#101"),),
                              "k": (("B", "#101"), ("B", "#10"))}


class TestBlindConclusion:
    """A conclusion may open with blind quantifiers before its ada."""

    def test_conclusion_under_a_blind_quantifier(self):
        concl = fm.parse_formula(BLIND_CONCLUSION)
        runner = InductionRunner(
            HPMStrategy(parse_hpm(read_fixture("n_const.hpm"))),
            HPMStrategy(parse_hpm(read_fixture("k_const.hpm"))), concl)
        # k = 3, then x = 2; drive_solver sorts by cycle, so the cycles differ
        run = drive_solver(runner, [(0, "#11"), (1, "#10")])
        assert runner.locked
        assert [m for label, m in run if label == "T"] == ["1.#"]
        env, rest = opening(fm.free_vars(concl), run)
        assert wins(concl, env, rest) == "T"


class TestCounterGame:
    """A counting game: the conclusion asks for v = x given x <= 1000."""

    def _solve(self, k, delay=0):
        concl = fm.parse_formula(COUNTER_TEXT)
        runner = build_induction_solver(
            counter_n_script(), counter_k_script(delay), concl)
        run = drive_solver(runner, [(0, "#" + int_to_numer(k))])
        return concl, runner, run

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_reaches_and_announces_the_target(self, k):
        concl, runner, run = self._solve(k)
        tops = [m for label, m in run if label == "T"]
        assert tops == ["1.#" + int_to_numer(k)]
        assert wins(concl, {}, run) == "T"
        assert runner.faults == []

    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_every_iteration_is_a_valid_aggregation(self, k):
        _, runner, _ = self._solve(k)
        d = diagnostics(runner)
        assert d["iterations"] > 0
        assert all(v == "ok" for v in d["validity"])

    @pytest.mark.parametrize("k", [2, 5, 8])
    def test_ranks_strictly_increase(self, k):
        _, runner, _ = self._solve(k)
        d = diagnostics(runner)
        assert all(a < b for a, b in zip(d["ranks"], d["ranks"][1:]))

    def test_entry_sizes_stay_below_the_cap(self):
        _, runner, _ = self._solve(8)
        d = diagnostics(runner)
        assert d["max_entry_size"] <= 2 * runner.census["e_top"] + 1

    def test_classification_mix(self):
        _, runner, _ = self._solve(5)
        classes = set(diagnostics(runner)["classifications"])
        assert "locking(2.1.2)" in classes
        assert "repeating(2.2.1)" in classes

    def test_slow_step_solver_forces_scale_doubling(self):
        _, runner, run = self._solve(3, delay=3)
        classes = set(diagnostics(runner)["classifications"])
        assert "restarting(2.2.2.1)" in classes
        tops = [m for label, m in run if label == "T"]
        assert tops == ["1.#11"]

    def test_zero_target_replays_the_base_solver(self):
        concl = fm.parse_formula(COUNTER_TEXT)
        runner = build_induction_solver(
            counter_n_script(), counter_k_script(), concl)
        run = (("B", "#"),)
        moves = []
        for _ in range(10):
            moves.extend(runner.poll(run))
        assert moves == ["1.#"]
        assert wins(concl, {}, run + (("T", "1.#"),)) == "T"

    def test_failed_antecedent_wins_by_silence(self):
        concl = fm.parse_formula(COUNTER_TEXT)
        runner = build_induction_solver(
            counter_n_script(), counter_k_script(), concl)
        run = (("B", "#" + int_to_numer(1001)),)
        for _ in range(10):
            assert runner.poll(run) == []
        assert wins(concl, {}, run) == "T"

    def test_rejects_malformed_conclusion(self):
        with pytest.raises(ValueError):
            InductionRunner(counter_n_script(), counter_k_script(),
                            fm.parse_formula("ade v [3] (v = v)"))


class TestMidRunEnvironmentMove:
    """The conclusion's own game has an environment choice made late."""

    CONCL_TEXT = "ada x [val 1000] (ada y [3] ade v [3] (y <= v))"

    @staticmethod
    def _n_fn(run, waited):
        if any(label == "T" for label, _ in run):
            return None
        ys = [m for label, m in run if label == "B"]
        if not ys:
            return None
        _, numer = split_move(ys[-1])
        return "1.#" + int_to_numer(numer_value(numer or ""))

    @staticmethod
    def _k_fn(run, waited):
        cons_env = [m for l, m in run if l == "B" and m.startswith("1.")]
        ante_env = [m for l, m in run if l == "B" and m.startswith("0.1.")]
        own_ante = [m for l, m in run if l == "T" and m.startswith("0.")]
        own_cons = [m for l, m in run if l == "T" and m.startswith("1.")]
        if cons_env and not own_ante:
            _, numer = split_move(cons_env[0])
            return "0.#" + (numer or "")
        if ante_env and not own_cons:
            _, numer = split_move(ante_env[0])
            return "1.1.#" + (numer or "")
        return None

    def _solve(self, k):
        concl = fm.parse_formula(self.CONCL_TEXT)
        runner = build_induction_solver(
            ScriptStrategy(self._n_fn), ScriptStrategy(self._k_fn), concl)
        run = drive_solver(runner, [(0, "#" + int_to_numer(k)), (5, "1.#10")])
        return concl, runner, run

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_absorbs_the_new_move_and_still_wins(self, k):
        concl, runner, run = self._solve(k)
        tops = [m for label, m in run if label == "T"]
        assert tops == ["1.1.#10"]
        assert wins(concl, {}, run) == "T"

    def test_interruption_is_classified_as_a_restart(self):
        _, runner, _ = self._solve(2)
        classes = set(diagnostics(runner)["classifications"])
        assert "restarting(new-move)" in classes

    def test_ranks_still_increase_through_restarts(self):
        _, runner, _ = self._solve(4)
        d = diagnostics(runner)
        assert all(a < b for a, b in zip(d["ranks"], d["ranks"][1:]))
        assert all(v == "ok" for v in d["validity"])

    def test_zero_target_answers_a_late_consequent_move(self):
        """At k = 0 the base premise is replayed as it stands, one cycle
        per poll: it waits, silent, until the consequent move that the
        env makes at poll 4 is fed to it, then answers it once."""
        concl = fm.parse_formula(self.CONCL_TEXT)
        runner = build_induction_solver(
            ScriptStrategy(self._n_fn), ScriptStrategy(self._k_fn), concl)
        run = (("B", "#"),)
        made = []
        for i in range(12):
            if i == 4:
                run += (("B", "1.#10"),)
            for m in runner.poll(run):
                made.append((i, m))
                run += (("T", m),)
        assert made == [(4, "1.1.#10")]
        assert runner.trace == [] and not runner.locked
        assert wins(concl, {}, run) == "T"

    def test_new_move_ends_the_wait_at_the_statute_limit(self):
        """A silent base premise makes the master scale double up to the
        statute limit; the synchronizer then waits for a consequent
        move, and that move restarts it as 2.2.2.2."""
        concl = fm.parse_formula(self.CONCL_TEXT)
        runner = build_induction_solver(
            ScriptStrategy(lambda run, waited: None),
            ScriptStrategy(self._k_fn), concl)
        run = (("B", "#1"),)

        def poll(times):
            for _ in range(times):
                assert runner.poll(run) == []

        poll(1000)
        waiting = len(runner.trace)
        assert runner.trace[-2]["classification"] == "restarting(2.2.2.1)"
        poll(500)
        assert len(runner.trace) == waiting
        run += (("B", "1.#10"),)
        poll(2)
        rec, after = runner.trace[waiting:waiting + 2]
        assert rec["classification"] == "restarting(2.2.2.2)"
        (k, master), = after["entries"]
        assert k == 1 and master[-1] == (("#10",), 1)
        d = diagnostics(runner)
        assert all(a < b for a, b in zip(d["ranks"], d["ranks"][1:]))


class TestCarriedCount:
    """The synchronizer carries the count of consequent moves absorbed
    into the master body instead of recounting them: at every record,
    the master's odd organs hold exactly one move per earlier absorbing
    restart, as only those append there, and they are the first
    consequent moves in the order they arrived."""

    ABSORBING = ("restarting(new-move)", "restarting(2.2.2.2)")

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(
        st.tuples(st.just("midrun"), st.integers(1, 12),
                  st.lists(st.tuples(st.integers(1, 300), st.integers(0, 7)),
                           min_size=1, max_size=2)),
        st.tuples(st.just("counter"), st.integers(1, 12), st.integers(0, 3))))
    def test_odd_organs_hold_one_move_per_absorbing_restart(self, case):
        kind, k, extra = case
        env = [(0, "#" + int_to_numer(k))]
        if kind == "midrun":
            game = TestMidRunEnvironmentMove
            runner = build_induction_solver(
                ScriptStrategy(game._n_fn), ScriptStrategy(game._k_fn),
                fm.parse_formula(game.CONCL_TEXT))
            env += [(poll, "1.#" + int_to_numer(v)) for poll, v in extra]
        else:
            runner = build_induction_solver(
                counter_n_script(), counter_k_script(extra),
                fm.parse_formula(COUNTER_TEXT))
        drive_solver(runner, env, max_cycles=3000)
        assert runner.locked
        arrived = [m[2:] for _, m in sorted(env[1:])]
        absorbed = 0
        for rec in runner.trace:
            master = rec["entries"][-1][1]
            odd = [m for payload, _ in master[0::2]
                   for m in payload]
            assert odd == arrived[:absorbed]
            absorbed += rec["classification"] in self.ABSORBING


class TestIterationCounts:
    """Iterations, polls and classifications at k=32, as recorded before
    the synchronizer's bookkeeping became incremental: making each
    iteration cheaper must not change how many there are."""

    # 50 settle polls after the lock run this many further iterations
    AFTER_LOCK = (["locking(2.1.2)"] + ["repeating(2.2.1)"] * 32
                  + ["repeating(2.1.1)"] + ["repeating(2.2.1)"] * 15)

    @staticmethod
    def countdown(k):
        """Each index from k down to 1 answered after as many 2.2.1 steps."""
        out = []
        for j in range(k, 0, -1):
            out += ["repeating(2.2.1)"] * j + ["repeating(2.1.1)"]
        return out

    @staticmethod
    def drive(runner, env):
        polls = 0
        inner = runner.poll

        def poll(run):
            nonlocal polls
            polls += 1
            return inner(run)

        runner.poll = poll
        drive_solver(runner, env)
        assert runner.locked
        return polls, [rec["classification"] for rec in runner.trace]

    def test_counter_game(self):
        runner = build_induction_solver(
            counter_n_script(), counter_k_script(0), fm.parse_formula(COUNTER_TEXT))
        polls, classes = self.drive(runner, [(0, "#" + int_to_numer(32))])
        assert (polls, len(classes)) == (644, 609)
        assert classes == self.countdown(32) + self.AFTER_LOCK

    def test_counter_game_locks_at_a_triangular_iteration(self):
        """With the undelayed step premise the lock comes at iteration
        (k+1)(k+2)/2 exactly: each index j from k down to 1 takes j + 1
        iterations, and the lock one more."""
        for k in [*range(1, 41), 100]:
            runner = build_induction_solver(
                counter_n_script(), counter_k_script(0),
                fm.parse_formula(COUNTER_TEXT))
            drive_solver(runner, [(0, "#" + int_to_numer(k))], settle=0)
            assert runner.locked, k
            assert len(runner.trace) == (k + 1) * (k + 2) // 2, k
            assert runner.trace[-1]["classification"].startswith("locking"), k

    def test_delayed_counter_game(self):
        """A step premise that waits 3 steps before answering runs
        multi-step simulations and doubles the master scale twice."""
        runner = build_induction_solver(
            counter_n_script(), counter_k_script(3), fm.parse_formula(COUNTER_TEXT))
        polls, classes = self.drive(runner, [(0, "#" + int_to_numer(32))])
        assert (polls, len(classes)) == (2627, 703)
        assert Counter(classes) == {"locking(2.1.2)": 1, "repeating(2.1.1)": 34,
                                    "repeating(2.2.1)": 666,
                                    "restarting(2.2.2.1)": 2}

    def test_mid_run_game(self):
        game = TestMidRunEnvironmentMove
        runner = build_induction_solver(
            ScriptStrategy(game._n_fn), ScriptStrategy(game._k_fn),
            fm.parse_formula(game.CONCL_TEXT))
        polls, classes = self.drive(
            runner, [(0, "#" + int_to_numer(32)), (5, "1.#10")])
        assert (polls, len(classes)) == (649, 614)
        assert classes == (["repeating(2.2.1)"] * 4 + ["restarting(new-move)"]
                           + self.countdown(32) + self.AFTER_LOCK)


class TestDiagnostics:
    def test_empty_trace(self):
        concl = fm.parse_formula(COUNTER_TEXT)
        runner = build_induction_solver(
            counter_n_script(), counter_k_script(), concl)
        d = diagnostics(runner)
        assert d["iterations"] == 0 and d["ranks"] == []

    def test_rank_base_covers_every_digit(self):
        concl = fm.parse_formula(COUNTER_TEXT)
        runner = build_induction_solver(
            counter_n_script(), counter_k_script(), concl)
        drive_solver(runner, [(0, "#111")])
        base = runner.rank_base
        assert base == rank_base(bitsize(7), runner.census,
                                 runner.statute_params, unarify(runner.bound))
        assert base > unarify(runner.bound)(bitsize(7))
        assert base > 2 * runner.census["e_top"] + 1
        for rec in runner.trace:
            for idx, body in rec["entries"][:-1]:
                assert idx + 1 < base and rec["entries"][-1][0] - idx < base

    def test_scripted_premises_count_as_the_default_census(self):
        concl = fm.parse_formula(COUNTER_TEXT)
        runner = build_induction_solver(
            counter_n_script(), counter_k_script(), concl)
        runner.poll((("B", "#111"),))
        params = runner.statute_params
        assert (params["r"], params["g"], params["q"]) == (1, 1, 2)

    def test_rank_is_a_weighted_digit_sum(self):
        rec = {
            "entries": [(0, ((("#",), 1),)), (3, ((("#",), 2), (("#",), 2)))],
            "master_scale": 2,
        }
        census = {"e_top": 1, "e_bot": 1}
        # d = 3; digit j=1 (odd) gets k - 0 = 3
        base = 10
        expected = 3 * 10 + 2 * 10**4 + 1 * 10**5 + 2 * 10**6
        assert iteration_rank(rec, base, census) == expected

    def test_birthtimes_and_locking_indices(self):
        concl = fm.parse_formula(COUNTER_TEXT)
        runner = build_induction_solver(
            counter_n_script(), counter_k_script(), concl)
        drive_solver(runner, [(0, "#11")])
        d = diagnostics(runner)
        assert d["locking"]
        assert d["birthtimes"][3] == 0
        assert min(d["birthtimes"].values()) == 0
