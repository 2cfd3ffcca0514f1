"""Each linear-time fast path of the play loop, the reason wrapper's
history and the induction synchronizer against its rescanning twin, the
shared machine transition against its plain statement, and game
positions read off the formula's analysis against positions kept as
rewritten trees."""

import copy
import math
import os
import random
import sys
import types
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import clarith.formula as fm
from clarith import hpm, induction, oracles, wrappers, zoo
from clarith.cli import _script_env, main
from clarith.bounds import Nat, bitsize, parse_bound
from clarith.comprehension import ComprehensionRunner
from clarith.game import (
    GamePosition,
    IllegalMove,
    LegalityResult,
    TruncationContext,
    first_illegal_index,
    int_to_numer,
    is_binary,
    is_canonical_numer,
    is_quasilegal,
    legal_status,
    magnitude,
    numer_value,
    split_move,
    wins,
)
from clarith.hpm import (
    BLANK,
    DIRS,
    Configuration,
    History,
    HPMSpec,
    Meter,
    _transition,
    history_prefix,
    HPMStrategy,
    initial_configuration,
    meter_report,
    parse_hpm,
    play,
    run_symbol,
    run_tape_length,
    run_until,
    spacecost,
    step,
    StrategyRunner,
)
from clarith.induction import (
    build_induction_solver,
    central_triple,
    organ,
    validate_aggregation,
)
from clarith.wrappers import ReasonRunner, VasaRunner

from conftest import (
    COUNTER_TEXT,
    FIXTURES,
    TWO_DISJUNCT_TEXT,
    counter_k_script,
    counter_n_script,
    drive_solver,
    formulas,
    make_scripted_env,
    read_fixture,
    without_horizon,
)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(FIXTURES)), "perfbench")

labmoves = st.tuples(st.sampled_from("TB"), st.text(alphabet="01#.", max_size=6))
runs = st.lists(labmoves, max_size=12)


def fresh(cfg):
    """The same configuration with a run log of its own and its work-tape
    cell counts taken afresh."""
    return Configuration(cfg.state, cfg.tapes, cfg.heads, cfg.run, cfg.runhead,
                         cfg.buffer, cfg.cycle, cfg.moves_made,
                         cfg.last_append, cfg.last_move)


def spacecost_twin(cfg):
    """spacecost by rescanning the work tapes."""
    return max((len(t) - t.count(BLANK) for t in cfg.tapes), default=0)


def rewriting_machine(rng):
    """A two-tape machine with a row for every key, writing and erasing
    cells anywhere its heads go, so cell counts fall as well as rise."""
    states = ["q0", "q1", "q2", "m"]
    syms = "01X" + BLANK
    delta = {}
    for q in states:
        for runsym in "TB01#." + BLANK:
            for worksyms in ((a, b) for a in syms for b in syms):
                delta[(q, runsym, worksyms)] = (
                    rng.choice(states), (rng.choice(syms), rng.choice(syms)),
                    rng.choice(DIRS), (rng.choice(DIRS), rng.choice(DIRS)),
                    rng.choice(("", "0", "#1")))
    return HPMSpec(states=states, start="q0", move_states=["m"], worktapes=2,
                   alphabet="01X", delta=delta)


def assert_tape_matches(cfg, positions):
    tape = cfg.log.cells[:cfg.log.starts[cfg.length]]
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
        half = Configuration("q", (), (), run[:len(run) // 2], 0, "", 0, 0)
        assert_tape_matches(half, positions)

    @given(runs, runs, st.integers(0, 2 ** 30))
    def test_steps_with_different_incoming_moves_are_independent(
            self, first, second, seed):
        spec = zoo.random_machine(random.Random(seed))
        base = step(spec, initial_configuration(spec), [("B", "#1")])
        base_run = base.run
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

    @settings(max_examples=40)
    @given(st.integers(0, 2 ** 30), st.integers(0, 6), st.integers(0, 40))
    def test_branch_from_an_older_configuration_forks_the_log(
            self, seed, before, after):
        spec = zoo.random_machine(random.Random(seed))
        older = step(spec, initial_configuration(spec), [("B", "#1")])
        for _ in range(before):
            older = step(spec, older)
        younger = step(spec, older, [("B", "0.#")])
        for _ in range(after):
            younger = step(spec, younger)
        younger_run = younger.run
        assert younger.log is older.log
        assert len(older.log.moves) > older.length
        incoming = (("B", "1.#10"),)
        branch = step(spec, older, incoming)
        assert branch.log is not older.log
        assert branch.run[:older.length + 1] == older.run + incoming
        for _ in range(20):
            branch = step(spec, branch)
        for cfg in (older, younger, branch):
            assert_tape_matches(cfg, range(run_tape_length(cfg.run) + 1))
        assert younger.run == younger_run
        assert step(spec, younger) == step(spec, fresh(younger))

    @settings(max_examples=60)
    @given(st.sampled_from(("echo.hpm", "zoo")), st.integers(0, 2 ** 30),
           st.integers(0, 4), st.integers(0, 40), st.integers(2, 5))
    def test_a_stretch_from_an_older_configuration_forks_once(
            self, kind, seed, before, after, budget):
        """`run_until` through two or more moves from a configuration
        whose log a younger one has appended to: the first move forks
        the log, and the rest are pushed onto the fork."""
        if kind == "echo.hpm":
            spec = parse_hpm(read_fixture(kind))
        else:
            spec = zoo.random_machine(random.Random(seed), phases=4)
        older = step(spec, initial_configuration(spec), [("B", "#1")])
        for _ in range(before):
            older = step(spec, older)
        younger = step(spec, older, [("B", "0.#")])
        for _ in range(after):
            younger = step(spec, younger)
        assert younger.log is older.log
        younger_run = younger.run
        cells, starts = list(younger.log.cells), list(younger.log.starts)
        forks, owned = [], hpm.RunLog.owned

        def counted(log, length):
            out = owned(log, length)
            if out is not log:
                forks.append(out)
            return out

        with patch.object(hpm.RunLog, "owned", counted):
            branch, _, _, made = run_until(spec, older, 400, (), budget)
        assume(len(made) >= 2)
        assert forks == [branch.log] and branch.log is not older.log
        assert len(branch.log.moves) == branch.length
        assert branch.run == older.run + tuple(("T", m) for _, m in made)
        assert younger.run == younger_run
        assert (younger.log.cells, younger.log.starts) == (cells, starts)
        assert_tape_matches(branch, range(run_tape_length(branch.run) + 1))

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


class TestCellCounts:
    @pytest.mark.parametrize("machines", [zoo.random_machine, rewriting_machine],
                             ids=["zoo", "rewriting"])
    def test_carried_counts_match_rescan_on_branching_trajectories(
            self, machines):
        fell = False
        for seed in range(30):
            rng = random.Random(seed)
            spec = machines(rng)
            seen = [initial_configuration(spec)]
            for _ in range(80):
                base = seen[-1] if rng.random() < 0.8 else rng.choice(seen)
                incoming = [("B", "#1")] if rng.random() < 0.1 else []
                cfg = step(spec, base, incoming)
                assert cfg.counts == tuple(
                    len(t) - t.count(BLANK) for t in cfg.tapes)
                assert spacecost(cfg) == spacecost_twin(cfg)
                fell |= any(c < b for c, b in zip(cfg.counts, base.counts))
                seen.append(cfg)
        assert fell == (machines is rewriting_machine)


def meter_rescan(cycles):
    """(background, spacecost, amplitude, max_timecost) of `Meter`, each
    read afresh off every (⊥ move, cells, moves made) cycle given."""
    bg, space, amplitude, timecost = 1, {}, {}, 0
    for c, (env_move, cells, made) in enumerate(cycles):
        bg = max([1] + [magnitude(e) for e, _, _ in cycles[:c + 1]
                        if e is not None])
        space[bg] = max(cells, space.get(bg, cells))
        if made:
            last_event = max([0] + [i for i, (e, _, m) in enumerate(cycles[:c + 1])
                                    if e is not None or (m and i < c)])
            timecost = max(timecost, c - last_event)
        for _, m in made:
            amplitude[bg] = max(amplitude.get(bg, 0), magnitude(m))
    return bg, space, amplitude, timecost


moves = st.text(alphabet="01#.", max_size=6)
# each cycle a stretch of one cycle, its moves made at its first
meter_cycles = st.lists(st.tuples(
    st.none() | moves, st.integers(0, 9),
    st.lists(moves, max_size=2).map(lambda ms: [(1, m) for m in ms])),
    max_size=16)
# a stretch: its ⊥ move, or None, and its cycles as (cells, own move or
# None), so its moves come at increasing k, and it may make none
stretch_cycles = st.tuples(
    st.none() | moves,
    st.lists(st.tuples(st.integers(0, 9), st.none() | moves), min_size=1,
             max_size=8))


class TestMeter:
    @settings(max_examples=300)
    @example([(None, 0, []), (None, 3, [])])
    @example([("#11", 2, []), (None, 1, [(1, "0.#1")]), (None, 4, [])])
    @given(meter_cycles)
    def test_running_background_matches_rescan(self, cycles):
        """The background and every reading, after each cycle, with random
        cells, ⊥ moves and moves made, so quiet cycles (neither side
        moving) raise the space reading as well as busy ones."""
        meter = Meter()
        for cycle, args in enumerate(cycles):
            meter.record_cycle(cycle, *args)
            assert (meter.background, meter.spacecost, meter.amplitude,
                    meter.max_timecost) == meter_rescan(cycles[:cycle + 1])

    @settings(max_examples=300)
    @example([])
    @example([(None, [(0, "0"), (1, None), (2, None)]),
              (None, [(0, None), (3, "1#1")])])
    @example([("#11", [(2, "0.#1"), (1, None)]), (None, [(1, "#1")])])
    @given(st.lists(stretch_cycles, max_size=6))
    def test_one_record_per_stretch_matches_rescan(self, stretches):
        """Each stretch's cycles drawn as (cells, move or None), its ⊥
        move, or none, before its first, and one `record_cycle` for it:
        moves at increasing k from 1, and stretches with no move.  The
        examples: a gap from a move in one stretch to a move in the next,
        and a ⊥ move followed by a move at k = 1, the first cycle."""
        meter, history, cycle = Meter(), [], 0
        for env_move, cycles in stretches:
            made = [(k, m) for k, (_, m) in enumerate(cycles, 1)
                    if m is not None]
            meter.record_cycle(cycle, env_move, max(c for c, _ in cycles),
                               made)
            history += [(env_move if k == 1 else None, c,
                         [] if m is None else [(1, m)])
                        for k, (c, m) in enumerate(cycles, 1)]
            cycle += len(cycles)
            assert (meter.background, meter.spacecost, meter.amplitude,
                    meter.max_timecost) == meter_rescan(history)


@given(st.text(alphabet="01#.2 ", max_size=8))
def test_binary_check_matches_a_character_scan(s):
    """`magnitude` reads every move the meter records through it."""
    assert is_binary(s) == all(c in "01" for c in s)


class TestScriptEnv:
    @given(st.lists(st.tuples(st.integers(-2, 4), st.text("01#.", max_size=3)),
                    max_size=6),
           runs, st.lists(st.integers(0, 3), max_size=20))
    def test_incremental_count_matches_rescan(self, entries, run, chunks):
        fast = _script_env(entries)
        slow = make_scripted_env(entries)
        end = 0
        for size in chunks + [len(run)]:
            end = min(len(run), end + size)
            assert fast(tuple(run[:end])) == slow(tuple(run[:end]))

    def test_a_move_comes_with_the_horizon_to_the_next_entry(self):
        """@3 is three ⊤ moves off when @0 plays; @1 and @-1 are already
        due when the entry before each plays, so they come with 0; the
        last entry comes with no bound."""
        env = _script_env([(0, "a"), (3, "b"), (1, "c"), (-1, "d")])
        tops = (("T", "1"),) * 3
        assert [env(()), env(tops[:1]), env(tops), env(tops), env(tops),
                env(tops)] == [("a", 3), (None, 2), ("b", 0), ("c", 0),
                               ("d", math.inf), (None, math.inf)]


class TestHistory:
    @given(st.lists(st.tuples(st.sampled_from("TB"), st.integers(0, 5)),
                    max_size=14))
    def test_indexes_match_rescans_after_every_append(self, records):
        history = History()
        for n, record in enumerate(records, 1):
            history.append(record)
            grown = records[:n]
            assert list(history) == grown and len(history) == n
            tops = sum(1 for label, _ in grown if label == "T")
            assert (len(history.top_at), history.bots) == (tops, n - tops)
            for m in range(tops + 2):
                prefix = history_prefix(grown, m)
                visible = history.top_at[m] if m < tops else n
                assert visible == len(prefix)
                assert history.starts[visible] == sum(1 + size for _, size in prefix)
            cells = []
            ordinals = {"T": 0, "B": 0}
            for idx, (label, size) in enumerate(grown):
                for offset in range(1 + size):
                    cells.append((idx, offset, ordinals[label]))
                ordinals[label] += 1
            for pos, (idx, offset, ordinal) in enumerate(cells):
                start = history.starts[idx]
                assert start <= pos < history.starts[idx + 1]
                assert (pos - start, history.ordinals[idx]) == (offset, ordinal)


# The statement of one transition, with the tape writes and head moves
# spelled out as helpers.

def _leftmost_blank(content):
    i = content.find(BLANK)
    return i if i >= 0 else len(content)


def _write_cell(content, pos, sym):
    if pos >= len(content):
        if sym == BLANK:
            return content
        content = content + BLANK * (pos - len(content)) + sym
    else:
        content = content[:pos] + sym + content[pos + 1:]
    return content.rstrip(BLANK)


def _move_head(h, d, limit):
    if d == "L":
        return max(0, h - 1)
    if d == "R":
        return min(h + 1, limit)
    return h


def transition_spec(spec, state, runsym, tapes, heads, runhead, run_len):
    worksyms = tuple(t[h] if h < len(t) else BLANK for t, h in zip(tapes, heads))
    row = spec.delta.get((state, runsym, worksyms))
    if row is None:
        return None
    q2, writes, d_run, dirs, append = row
    tapes2 = []
    heads2 = []
    for t, h, w, d in zip(tapes, heads, writes, dirs):
        t2 = _write_cell(t, h, w)
        heads2.append(_move_head(h, d, _leftmost_blank(t2)))
        tapes2.append(t2)
    return (q2, tuple(tapes2), tuple(heads2),
            _move_head(runhead, d_run, run_len), append)


WORK_SYMBOLS = "01X" + BLANK


@st.composite
def transitions(draw):
    """(spec, state, run symbol, tapes, heads, run head, run length).

    Tapes carry interior and trailing blanks; heads (never negative, as
    no transition makes them so) sit anywhere up to two cells past the
    tape's end, so at, before and past its leftmost blank.  The spec's
    rows are random; one usually matches the configuration.
    """
    n = draw(st.integers(0, 3))
    tapes = tuple(draw(st.text(alphabet=WORK_SYMBOLS, max_size=6))
                  for _ in range(n))
    heads = tuple(draw(st.integers(0, len(t) + 2)) for t in tapes)
    run_len = draw(st.integers(0, 8))
    runhead = draw(st.integers(0, run_len + 2))
    runsym = draw(st.sampled_from("TB01#." + BLANK))
    symbols = st.sampled_from(WORK_SYMBOLS)
    directions = st.sampled_from(DIRS)
    keys = st.tuples(st.sampled_from("qr"), st.sampled_from("TB01#." + BLANK),
                     st.tuples(*[symbols] * n))
    rows = st.tuples(st.sampled_from("qr"), st.tuples(*[symbols] * n),
                     directions, st.tuples(*[directions] * n),
                     st.text(alphabet="01#.", max_size=2))
    delta = draw(st.dictionaries(keys, rows, max_size=4))
    if draw(st.integers(0, 3)):
        read = tuple(t[h] if h < len(t) else BLANK for t, h in zip(tapes, heads))
        delta[("q", runsym, read)] = draw(rows)
    spec = HPMSpec(states="qr", start="q", move_states="r", worktapes=n,
                   alphabet="01X", delta=delta)
    return spec, "q", runsym, tapes, heads, runhead, run_len


def transition_case(rows, tapes, heads, runhead=0, run_len=0, runsym="T"):
    """A `transitions` case whose spec holds `rows`, keyed from state q."""
    delta = {("q", runsym, key): row for key, row in rows.items()}
    spec = HPMSpec(states="qr", start="q", move_states="r",
                   worktapes=len(tapes), alphabet="01X", delta=delta)
    return spec, "q", runsym, tuple(tapes), tuple(heads), runhead, run_len


class TestTransition:
    """The compiled table against the statement, with one example for
    each path it takes: a `still` row that must strip trailing blanks
    under its head and one that must leave interior blanks alone, the
    one-tape key, no tapes, several tapes, a right move stopping at the
    leftmost blank, and a run head past run_len under L, R and S."""

    @settings(max_examples=400)
    @example(transition_case({("_",): ("q", ("_",), "S", ("S",), "")},
                             ["0_1__"], [3]))
    @example(transition_case({("0",): ("r", ("0",), "R", ("S",), "1")},
                             ["01_"], [0], 1, 3))
    @example(transition_case({("_",): ("q", ("_",), "L", ("S",), "")},
                             ["0_1"], [1], 2, 3))
    @example(transition_case({("_",): ("q", ("_",), "S", ("S",), "")},
                             ["0_1"], [5]))
    @example(transition_case({("1",): ("q", ("1",), "S", ("R",), "")},
                             ["0_11"], [2]))
    @example(transition_case({(): ("r", (), "R", (), "0")}, [], [], 1, 4))
    @example(transition_case({("0", "1"): ("q", ("0", "1"), "S", ("S", "S"),
                                           "")}, ["0_", "1"], [0, 0]))
    @example(transition_case({("0", "_"): ("q", ("X", "1"), "R", ("R", "L"),
                                           "#")}, ["0", "1_1"], [0, 1], 4, 4))
    @example(transition_case({(): ("q", (), "L", (), "")}, [], [], 6, 4))
    @example(transition_case({(): ("q", (), "R", (), "")}, [], [], 6, 4))
    @example(transition_case({(): ("q", (), "S", (), "")}, [], [], 6, 4))
    @example(transition_case({("_",): ("q", ("_",), "R", ("S",), "")},
                             ["1"], [1], 5, 3))
    @given(transitions())
    def test_matches_the_spec(self, case):
        assert _transition(*case) == transition_spec(*case)


class ReplayVasa(VasaRunner):
    """VasaRunner deciding legality by replaying the whole run each
    stretch: it rebuilds the run from the entries it was handed and the
    moves it made, and before every stretch its position goes back to
    the start and the moves it checks before the entries are that whole
    run."""

    def __init__(self, spec, formula, c_env):
        super().__init__(spec, formula, c_env)
        self.past = ()  # the whole run before this stretch

    def stretch(self, incoming, limit, budget=1):
        pos = self.position
        self.position = GamePosition.start(pos.formula, pos.c_env)
        self._own = self.past
        used, peak, made = VasaRunner.stretch(self, incoming, limit, budget)
        self.past += incoming + tuple([("T", m) for _, m in made])
        return used, peak, made


def retire_cycle(runner, env, fuel):
    """The played run and the index of the cycle that retired the runner:
    `play` hands a runner one stretch of one cycle per env call here."""
    retired = []
    stretch = runner.stretch

    def watched(incoming, limit, budget):
        out = stretch(incoming, limit, budget)
        retired.append(runner.retired)
        return out

    runner.stretch = watched
    run = play(runner, env, fuel)["run"]
    return run, retired.index(True) if True in retired else None


def assert_same_retirement(spec, formula, c_env, entries, fuel=80):
    fast = VasaRunner(spec, formula, c_env)
    slow = ReplayVasa(spec, formula, c_env)
    got = retire_cycle(fast, without_horizon(make_scripted_env(entries)), fuel)
    want = retire_cycle(slow, without_horizon(make_scripted_env(entries)), fuel)
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


# ---------------------------------------------------------------------------
# Stretches: `run_until` against one `step` after another, and `play` over
# stretches up to the next move against `play` one cycle at a time.

FIXTURE_MACHINES = ("legal.hpm", "bigmove.hpm", "always_yes.hpm",
                    "k_const.hpm", "n_const.hpm", "echo.hpm")


@st.composite
def stretch_machines(draw):
    """A zoo machine (its last phase halts), a two-tape rewriting machine
    or a fixture machine, `echo.hpm` among them, which reads its own
    moves."""
    kind = draw(st.sampled_from(("zoo", "rewriting") + FIXTURE_MACHINES))
    if kind in FIXTURE_MACHINES:
        return parse_hpm(read_fixture(kind))
    rng = random.Random(draw(st.integers(0, 2 ** 30)))
    return zoo.random_machine(rng) if kind == "zoo" else rewriting_machine(rng)


def stepped(spec, cfg, limit, incoming=()):
    """The slow twin of `run_until` with a budget of one move: one `step`
    after another, stopping after the first that moves, and the largest
    rescanned spacecost after any of them."""
    peak = -1
    for used in range(1, limit + 1):
        cfg = step(spec, cfg, incoming if used == 1 else ())
        peak = max(peak, spacecost_twin(cfg))
        if cfg.last_move is not None:
            return cfg, used, peak, [(used, cfg.last_move)]
    return cfg, used, peak, []


def one_move_stretches(spec, cfg, limit, budget, incoming=()):
    """The twin of `run_until` with a budget: one-move stretches back to
    back, up to limit cycles and budget moves in all, each move's cycle
    counted from the first stretch's first cycle, and the largest of
    their peaks."""
    used, peak, made = 0, -1, []
    while used < limit and len(made) < budget:
        cfg, n, p, moves = run_until(spec, cfg, limit - used,
                                     incoming if used == 0 else ())
        made += [(used + k, m) for k, m in moves]
        used, peak = used + n, max(peak, p)
    return cfg, used, peak, made


class TestRunUntil:
    @settings(max_examples=150)
    @given(stretch_machines(), st.integers(0, 2 ** 30))
    def test_matches_stepping_until_the_first_move(self, spec, seed):
        """Several stretches back to back, some absorbing a ⊥ move."""
        rng = random.Random(seed)
        cfg = initial_configuration(spec)
        for _ in range(8):
            incoming = ([("B", rng.choice(("#1", "0.#10", "1.#1")))]
                        if rng.random() < 0.4 else [])
            limit = rng.randint(1, 30)
            fast = run_until(spec, cfg, limit, incoming)
            assert fast == stepped(spec, cfg, limit, incoming)
            assert fast[0].counts == fresh(fast[0]).counts
            cfg = fast[0]

    def test_a_halted_machine_uses_up_the_limit(self):
        spec = zoo.random_machine(random.Random(3), phases=1, phase_len=2)
        moved, used, _, _ = run_until(spec, initial_configuration(spec), 50)
        assert (used, moved.last_move is not None) == (2, True)
        halted, used, _, _ = run_until(spec, moved, 1000)
        assert (used, halted.cycle, halted.state) == (1000, 1002, moved.state)
        assert halted == stepped(spec, moved, 1000)[0]

    @settings(max_examples=150)
    @given(stretch_machines(), st.integers(0, 2 ** 30))
    def test_a_budget_of_moves_is_one_move_stretches_back_to_back(self, spec,
                                                                 seed):
        """The final configuration, the moves with their cycles and the
        peak, over several budgeted stretches, some absorbing a ⊥ move."""
        rng = random.Random(seed)
        cfg = initial_configuration(spec)
        for _ in range(6):
            incoming = ([("B", rng.choice(("#1", "0.#10", "1.#1")))]
                        if rng.random() < 0.4 else [])
            limit, budget = rng.randint(1, 60), rng.randint(1, 6)
            whole = run_until(spec, cfg, limit, incoming, budget)
            assert whole == one_move_stretches(spec, cfg, limit, budget,
                                               incoming)
            assert whole[0].counts == fresh(whole[0]).counts
            cfg = whole[0]

    def test_a_machine_reads_its_own_moves_inside_one_stretch(self):
        """`echo.hpm` copies each move it made into its next one, so every
        move is #1 only if the stretch reads the run tape afresh after
        each move; a view of the tape as it stood at the stretch's start
        shows a blank past the first, and the echo moves empty."""
        spec = parse_hpm(read_fixture("echo.hpm"))
        cfg = initial_configuration(spec)
        whole = run_until(spec, cfg, 100, (), 5)
        assert whole[3] == [(1, "#1"), (5, "#1"), (9, "#1"), (13, "#1"),
                            (17, "#1")]
        assert whole == one_move_stretches(spec, cfg, 100, 5)
        # an older configuration, whose first move forks the log that a
        # later one has appended other entries to
        older = cfg.extend([("B", "#1")])
        older.extend([("B", "0.#10")])
        assert run_until(spec, older, 100, (), 5) \
            == one_move_stretches(spec, older, 100, 5)


def played(runner, entries, fuel, horizon, make_env=_script_env):
    """What `play` shows of a match against the CLI's script env, or
    against the env make_env builds from the entries; without horizon,
    `play` stretches one cycle per env call."""
    env = make_env(entries)
    out = play(runner, env if horizon else without_horizon(env), fuel)
    return (out["run"], meter_report(out["meter"]),
            getattr(runner, "retired", None), getattr(runner, "faults", None),
            getattr(runner, "restarts", None))


def cycle_env(entries):
    """Env playing each (cycle, move) entry at that cycle, or at the first
    cycle after it that is free: it counts its calls, so it is no function
    of the visible run and has no horizon, and `play` must stretch one
    cycle at a time against it."""
    pending = sorted(entries)
    calls = 0

    def env(run):
        nonlocal calls
        calls += 1
        if pending and pending[0][0] < calls:
            return pending.pop(0)[1], 0
        return None, 0

    return env


class BusyReason(ReasonRunner):
    """ReasonRunner that never skips: its idle flag is cleared before
    every stretch, so each stretch of one cycle advances the sketch."""

    def stretch(self, incoming, limit, budget=1):
        self.idle = False
        return ReasonRunner.stretch(self, incoming, limit, budget)


@st.composite
def reason_machines(draw):
    """(kind, seed) of a machine for the reason wrapper: a zoo machine,
    one that halts after a single short phase, or a fixture machine that
    waits on the blank for the next ⊥ move."""
    kind = draw(st.sampled_from(("zoo", "short", "bigmove.hpm", "legal.hpm")))
    return kind, draw(st.integers(0, 2 ** 30))


def reason_subject(machine):
    kind, seed = machine
    if kind.endswith(".hpm"):
        return parse_hpm(read_fixture(kind))
    if kind == "short":
        return zoo.random_machine(random.Random(seed), phases=1, phase_len=1)
    return zoo.random_machine(random.Random(seed))


REASON_MOVES = ("0.#10", "1.#1", "0.#1", "1.1.#0", "0.1.#11", "#")


def reason_entries(delays):
    """The constant first, usually, then moves of either disjunct, each
    after a delay drawn from delays."""
    return st.tuples(
        st.sampled_from(((0, "#1001"), (0, "#1"), (1, "#1"), None)),
        st.lists(st.tuples(delays, st.sampled_from(REASON_MOVES)),
                 max_size=4),
    ).map(lambda t: ([t[0]] if t[0] else []) + t[1])


delayed_entries = st.lists(st.tuples(
    st.integers(0, 3),
    st.sampled_from(("#1", "0.#1", "0.#10", "1.#1", "1.#11", "1.1.#1", "0.#"))),
    max_size=5)


# entries many ⊤ moves apart, the constants alone (as `--env x=5,k=3`
# plays them) and no entry at all (no `--env`): long horizons
late_entries = st.one_of(
    st.lists(st.tuples(st.integers(0, 40), st.sampled_from(
        ("#1", "0.#1", "0.#10", "1.#1", "1.1.#1"))), max_size=5),
    st.just([(0, "#101"), (0, "#11")]),
    st.just([]))


class TestStretchedPlay:
    @settings(max_examples=150)
    @given(stretch_machines(), delayed_entries, st.integers(1, 150))
    def test_strategy_runner(self, spec, entries, fuel):
        assert played(StrategyRunner(HPMStrategy(spec)), entries, fuel, True) \
            == played(StrategyRunner(HPMStrategy(spec)), entries, fuel, False)

    @settings(max_examples=150)
    @given(stretch_machines(), late_entries, st.integers(1, 300))
    def test_strategy_runner_through_a_horizon(self, spec, entries, fuel):
        """Stretches through every own move the env sits out, against one
        cycle per env call."""
        assert played(StrategyRunner(HPMStrategy(spec)), entries, fuel, True) \
            == played(StrategyRunner(HPMStrategy(spec)), entries, fuel, False)

    @settings(max_examples=100)
    @given(st.integers(0, 2 ** 30), st.integers(0, 2), st.integers(0, 1),
           late_entries, st.integers(1, 300))
    def test_script_runner_through_a_horizon(self, seed, cap, n, entries,
                                             fuel):
        def runner():
            return StrategyRunner(zoo.random_script(random.Random(seed), cap,
                                                    3, n))
        assert played(runner(), entries, fuel, True) \
            == played(runner(), entries, fuel, False)

    @settings(max_examples=150)
    @given(st.integers(0, 2 ** 30), st.integers(0, 2), st.integers(0, 1),
           delayed_entries, st.integers(1, 150))
    def test_script_runner(self, seed, cap, n, entries, fuel):
        """A scripted strategy reads the cycles it has waited, so each
        cycle of a stretch must call it as a stretch of one cycle would."""
        def runner():
            return StrategyRunner(zoo.random_script(random.Random(seed), cap,
                                                    3, n))
        assert played(runner(), entries, fuel, True) \
            == played(runner(), entries, fuel, False)

    @settings(max_examples=150)
    @example(parse_hpm(read_fixture("legal.hpm")),
             TestVasaLegality.SCRIPTS["legal"], 80)
    @example(parse_hpm(read_fixture("legal.hpm")),
             TestVasaLegality.SCRIPTS["illegal-open"], 80)
    @example(parse_hpm(read_fixture("legal.hpm")),
             TestVasaLegality.SCRIPTS["illegal-late"], 80)
    @given(stretch_machines(), delayed_entries | late_entries,
           st.integers(1, 150))
    def test_vasa_runner(self, spec, entries, fuel):
        f = fm.parse_formula(TWO_DISJUNCT_TEXT)
        assert played(VasaRunner(spec, f, {"x": 9}), entries, fuel, True) \
            == played(VasaRunner(spec, f, {"x": 9}), entries, fuel, False)

    @settings(max_examples=150, deadline=None)
    @example(("bigmove.hpm", 0), [(0, "#1001"), (0, "0.#10"), (1, "1.#1")],
             300, wrappers.FETCH_CAP)
    @example(("legal.hpm", 0), [(0, "#1001"), (2, "0.#10"), (1, "1.#1")],
             300, 2)
    @given(reason_machines(), reason_entries(st.integers(0, 3)),
           st.integers(1, 300), st.sampled_from((wrappers.FETCH_CAP, 1, 2, 4)))
    def test_reason_runner(self, machine, entries, fuel, fetch_cap):
        """Stretches against one cycle at a time, and both against a twin
        whose idle flag is cleared before every stretch; a small fetch cap
        makes replays fault."""
        spec, f = reason_subject(machine), fm.parse_formula(TWO_DISJUNCT_TEXT)
        with patch.object(wrappers, "FETCH_CAP", fetch_cap):
            stretched = played(ReasonRunner(spec, f), entries, fuel, True)
            assert stretched == played(ReasonRunner(spec, f), entries, fuel,
                                       False)
            assert stretched == played(BusyReason(spec, f), entries, fuel,
                                       False)

    @settings(max_examples=150, deadline=None)
    @example(("bigmove.hpm", 0), [(0, "#1001"), (0, "0.#10"), (60, "1.#1")],
             300)
    @given(reason_machines(), reason_entries(st.integers(0, 80)),
           st.integers(1, 300))
    def test_reason_idle_runner_wakes_on_a_record(self, machine, entries,
                                                  fuel):
        """⊥ moves at chosen cycles reach runners that have gone idle, as
        a script env's do not: they come one cycle after a ⊤ move."""
        spec, f = reason_subject(machine), fm.parse_formula(TWO_DISJUNCT_TEXT)
        assert played(ReasonRunner(spec, f), entries, fuel, False, cycle_env) \
            == played(BusyReason(spec, f), entries, fuel, False, cycle_env)


    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 9), st.sampled_from([0, 2, 3]),
           st.integers(0, 120), st.integers(1, 400))
    def test_induction_runner(self, k, delay, late, fuel):
        """A runner that is no `StrategyRunner` advances one cycle per
        stretch, whatever limit `play` hands it; a late consequent move
        reaches it mid-play."""
        def runner():
            return build_induction_solver(counter_n_script(),
                                          counter_k_script(delay),
                                          fm.parse_formula(COUNTER_TEXT))
        entries = [(0, "#" + int_to_numer(k)), (late, "1.#1")]
        stretched, one = runner(), runner()
        assert played(stretched, entries, fuel, True, cycle_env) \
            == played(one, entries, fuel, False, cycle_env)
        assert stretched.trace == one.trace

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.booleans(), max_size=6), delayed_entries,
           st.integers(1, 20))
    def test_comprehension_runner(self, table, entries, fuel):
        p = fm.Atom("tbl", (fm.TVar("y"),))

        def runner():
            return ComprehensionRunner(oracles._table_premise(table), p, "y",
                                       Nat(len(table)))
        assert played(runner(), entries, fuel, True) \
            == played(runner(), entries, fuel, False)


def fetch_with_counts(spec, history, k, n, bots, ctx, track):
    """`fetch_symbol`'s symbol and its update and fetch calls, nested
    ones included; with track, every replay advance is handed ctx, so
    the replays track truncation as they did before they dropped it."""
    calls = {"update": 0, "fetch": 0}
    update, fetch = wrappers.update_sketch, wrappers.fetch_symbol

    def counted_update(spec, history, s, bots, replay_ctx):
        calls["update"] += 1
        return update(spec, history, s, bots, ctx if track else replay_ctx)

    def counted_fetch(*args):
        calls["fetch"] += 1
        return fetch(*args)

    with patch.object(wrappers, "update_sketch", counted_update), \
            patch.object(wrappers, "fetch_symbol", counted_fetch):
        symbol = wrappers.fetch_symbol(spec, history, k, n, bots)
    return symbol, calls


class TestReplayTruncation:
    def test_replays_without_truncation_fetch_the_same(self):
        ctx = TruncationContext(fm.parse_formula(TWO_DISJUNCT_TEXT), {"x": 9})
        rng = random.Random(11)
        fetched = 0
        for _ in range(40):
            spec = zoo.random_machine(rng)
            sc = zoo.run_scenario(spec, zoo.random_schedule(rng, spec), 60)
            history, bots = sc["history"], sc["env_moves"]
            for k, move in enumerate(sc["own_moves"]):
                for n in range(1, len(move) + 1):
                    args = (spec, history, k, n, bots, ctx)
                    fast = fetch_with_counts(*args, track=False)
                    assert fast == fetch_with_counts(*args, track=True)
                    assert fast[0] == move[n - 1]
                    fetched += 1
        assert fetched > 100


# ---------------------------------------------------------------------------
# The spec for game positions: each move rewrites the formula tree, replacing
# the resolved choice by a node that carries its value.

SIZE_S = parse_bound("|s|")


class _Chosen:
    """A resolved choice: |var| <= bound (size kind) or var <= bound
    (value kind) in the enclosing scope, then the body with var bound
    to value.  ade asks for both; ada for the body only if the
    condition holds."""

    def __init__(self, node, value, body):
        self.node, self.value, self.body = node, value, body


def _resolve(node, tokens, pos, label, value):
    """node with the choice at tokens resolved to value; raises IllegalMove."""
    if isinstance(node, (fm.ChoiceAll, fm.ChoiceEx)):
        if tokens:
            raise IllegalMove(0, "address descends into an unresolved quantifier")
        if ("T" if isinstance(node, fm.ChoiceEx) == pos else "B") != label:
            raise IllegalMove(0, "wrong mover")
        return _Chosen(node, value, node.body)
    if isinstance(node, _Chosen):
        if tokens[:1] != ["1."]:
            raise IllegalMove(0, "address leads into a resolved choice")
        return _Chosen(node.node, node.value,
                       _resolve(node.body, tokens[1:], pos, label, value))
    if isinstance(node, fm.Not):
        return fm.Not(_resolve(node.body, tokens, not pos, label, value))
    if isinstance(node, (fm.BlindAll, fm.BlindEx)):
        return type(node)(node.var, node.bound,
                          _resolve(node.body, tokens, pos, label, value))
    if isinstance(node, (fm.And, fm.Or, fm.Implies)):
        if not tokens:
            raise IllegalMove(0, "address stops at a connective")
        if tokens[0] == "0.":
            sub_pos = not pos if isinstance(node, fm.Implies) else pos
            return type(node)(_resolve(node.left, tokens[1:], sub_pos, label, value),
                              node.right)
        return type(node)(node.left, _resolve(node.right, tokens[1:], pos, label, value))
    raise IllegalMove(0, "address leads into an atom")


def _spec_apply(tree, label, move):
    addr, numer = split_move(move)
    if numer is None or addr + "#" + numer != move or not is_canonical_numer(numer):
        raise IllegalMove(0, "not a canonical choice move")
    tokens = [addr[i:i + 2] for i in range(0, len(addr), 2)]
    return _resolve(tree, tokens, True, label, numer_value(numer))


def _spec_first_illegal(f, c_env, run):
    tree = f
    for i, (label, move) in enumerate(run):
        try:
            tree = _spec_apply(tree, label, move)
        except IllegalMove:
            return i
    return None


def _spec_evaluate(node, env, atoms):
    if isinstance(node, fm.Atom):
        return bool(atoms(node.name, tuple(t.evaluate(env) for t in node.args)))
    if isinstance(node, _Chosen):
        choice, val = node.node, node.value
        measured = bitsize(val) if choice.kind == "size" else val
        met = measured <= choice.bound.evaluate(env)
        body = met and _spec_evaluate(node.body, {**env, choice.var: val}, atoms)
        return body if isinstance(choice, fm.ChoiceEx) else not met or body
    if isinstance(node, fm.Not):
        return not _spec_evaluate(node.body, env, atoms)
    if isinstance(node, fm.And):
        return _spec_evaluate(node.left, env, atoms) and _spec_evaluate(node.right, env, atoms)
    if isinstance(node, fm.Or):
        return _spec_evaluate(node.left, env, atoms) or _spec_evaluate(node.right, env, atoms)
    if isinstance(node, fm.Implies):
        return not _spec_evaluate(node.left, env, atoms) or _spec_evaluate(node.right, env, atoms)
    if isinstance(node, (fm.ChoiceAll, fm.ChoiceEx)):
        return isinstance(node, fm.ChoiceAll)
    values = (_spec_evaluate(node.body, dict(env, **{node.var: w}), atoms)
              for w in range(node.bound.evaluate(env)))
    return all(values) if isinstance(node, fm.BlindAll) else any(values)


def _spec_wins(f, c_env, run, atoms):
    tree = f
    for label, move in run:
        tree = _spec_apply(tree, label, move)
    return "T" if _spec_evaluate(tree, dict(c_env), atoms) else "B"


def _spec_is_quasilegal(f, run, player):
    by_addr = fm.analysis(f).by_addr
    seen = {}
    for i, m in enumerate(m for label, m in run if label == player):
        addr, numer = split_move(m)
        if numer is None or addr + "#" + numer != m or not is_canonical_numer(numer):
            return False
        u = by_addr.get(addr)
        if u is None or u.mover != player or addr in seen:
            return False
        seen[addr] = i
    return not any(other != addr and addr.startswith(other) and j > i
                   for addr, i in seen.items() for other, j in seen.items())


def _spec_legal_status(f, c_env, run):
    bad = _spec_first_illegal(f, c_env, run)
    if bad is None:
        return LegalityResult("legal")
    for player in "TB":
        if _spec_is_quasilegal(f, run, player):
            return LegalityResult(f"{player}-quasilegal")
    return LegalityResult("illegal-at-index", bad)


@st.composite
def game_runs(draw):
    """(formula over s, constant for s, run, stub atom table).

    The formula gets one or two enclosing choices on y, each joined to
    an atom p(y), so units nest and share variable names.  A move
    resolves an open unit by its mover with a canonical numer, names any
    unit by either player, names an address prefix or extension, or is
    junk; numers are canonical or not, within the bound |s| or past it.
    """
    f = draw(formulas)
    wraps = st.tuples(st.sampled_from((fm.ChoiceAll, fm.ChoiceEx)),
                      st.sampled_from((fm.And, fm.Or, fm.Implies)))
    for choice, conn in draw(st.lists(wraps, min_size=1, max_size=2)):
        f = choice("y", SIZE_S, conn(f, fm.Atom("p", (fm.TVar("y"),))))
    units = fm.analysis(f).units
    canonical = st.integers(0, 40).map(int_to_numer)
    any_numer = st.one_of(canonical, st.text(alphabet="01", max_size=4))
    run, resolved = [], set()
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("open",) * 6 + ("unit", "prefix", "extension", "junk")))
        label = draw(st.sampled_from("TB"))
        addr = draw(st.sampled_from(units)).address
        numer = any_numer
        open_units = [u for u in units if u.address not in resolved
                      and resolved.issuperset(u.ancestors)]
        if kind == "open" and open_units:
            u = draw(st.sampled_from(open_units))
            addr, label, numer = u.address, u.mover, canonical
            resolved.add(addr)
        elif kind == "prefix":
            addr = addr[:2 * draw(st.integers(0, len(addr) // 2))]
        elif kind == "extension":
            addr += draw(st.sampled_from(("0.", "1.", "1.1.", "0.1.")))
        move = addr + "#" + draw(numer)
        if kind == "junk":
            move = draw(st.text(alphabet="01#.x", max_size=6))
        run.append((label, move))
    table = draw(st.lists(st.booleans(), min_size=8, max_size=8))
    return f, draw(st.integers(0, 40)), tuple(run), table


class TestGamePosition:
    @settings(max_examples=400, deadline=None)
    @given(game_runs())
    def test_analysis_position_matches_the_tree_spec(self, case):
        f, s, run, table = case
        c_env = {"s": s}

        def atoms(name, args):
            return table[args[0] % len(table)]

        bad = _spec_first_illegal(f, c_env, run)
        assert first_illegal_index(f, c_env, run) == bad
        assert legal_status(f, c_env, run) == _spec_legal_status(f, c_env, run)
        for player in "TB":
            assert is_quasilegal(f, run, player) == _spec_is_quasilegal(f, run, player)
        legal = run[:bad]
        assert wins(f, c_env, legal, atoms) == _spec_wins(f, c_env, legal, atoms)
        if bad is not None:
            with pytest.raises(IllegalMove) as exc:
                wins(f, c_env, run, atoms)
            assert exc.value.index == bad


# ---------------------------------------------------------------------------
# The spec for a formula's units and free variables: two separate walks,
# which `formula.Analysis` reads in one.

def _spec_units(f):
    """(address, node, mover, ancestors) of each choice unit, in preorder."""
    out = []

    def walk(g, addr, pos, ancestors):
        if isinstance(g, fm.Not):
            walk(g.body, addr, not pos, ancestors)
        elif isinstance(g, fm.Binary):
            walk(g.left, addr + "0.", pos != isinstance(g, fm.Implies), ancestors)
            walk(g.right, addr + "1.", pos, ancestors)
        elif isinstance(g, fm.Choice):
            mover = "T" if isinstance(g, fm.ChoiceEx) == pos else "B"
            out.append((addr, g, mover, ancestors))
            walk(g.body, addr + "1.", pos, ancestors + (addr,))
        elif isinstance(g, fm.Blind):
            walk(g.body, addr, pos, ancestors)

    walk(f, "", True, ())
    return out


def _spec_free_vars(f):
    """Free variables in first-occurrence order, a bound before its body."""
    seen = []

    def note(names, bound):
        for n in names:
            if n not in bound and n not in seen:
                seen.append(n)

    def walk(g, bound):
        if isinstance(g, fm.Atom):
            for a in g.args:
                note(a.variables(), bound)
        elif isinstance(g, fm.Not):
            walk(g.body, bound)
        elif isinstance(g, fm.Binary):
            walk(g.left, bound)
            walk(g.right, bound)
        else:
            note(g.bound.variables(), bound)
            walk(g.body, bound | {g.var})

    walk(f, set())
    return seen


@st.composite
def named_formulas(draw):
    """A conftest formula under up to three more quantifiers, each joined
    to a side atom; bounds, side atoms and bound variables name s, t, u
    or y, so free variables come in several orders and a bound may name
    the variable its own quantifier binds."""
    f = draw(formulas)
    names = st.sampled_from("stuy")
    kinds = (fm.ChoiceAll, fm.ChoiceEx, fm.BlindAll, fm.BlindEx)
    for _ in range(draw(st.integers(0, 3))):
        side = fm.Atom("q", (fm.TVar(draw(names)),))
        conn = draw(st.sampled_from((fm.And, fm.Or, fm.Implies)))
        body = conn(side, f) if draw(st.booleans()) else conn(f, side)
        bound = parse_bound(f"|{draw(names)}|")
        f = draw(st.sampled_from(kinds))(draw(names), bound, body)
    return f


class TestFormulaWalk:
    @settings(max_examples=300, deadline=None)
    @given(named_formulas())
    def test_one_walk_matches_the_two_walks(self, f):
        units, spec = fm.units(f), _spec_units(f)
        assert [(u.address, u.var, u.mover, u.ancestors) for u in units] == [
            (addr, g.var, mover, ancestors) for addr, g, mover, ancestors in spec]
        assert all(u.bound is g.bound for u, (_, g, _, _) in zip(units, spec))
        assert fm.free_vars(f) == _spec_free_vars(f)


def opens_a_term_by_scan(text, pos):
    """`_Parser._opens_a_term` by scanning from the "(" at pos to its
    matching ")" within the run of characters a term's text may hold."""
    depth, i, end = 1, pos + 1, fm._TERM_TEXT.match(text, pos).end()
    while i < end and (depth or text[i].isspace()):
        depth += (text[i] == "(") - (text[i] == ")")
        i += 1
    return not depth and text.startswith(("'", "=", "<="), i)


class ScanningParser(fm._Parser):
    def _opens_a_term(self):
        return opens_a_term_by_scan(self.text, self.pos)


def _parse_outcome(parser):
    try:
        return repr(parser.finish(parser.parse_implication()))
    except SyntaxError as exc:
        return f"SyntaxError: {exc}"


def _join(parts):
    return "".join(parts)


term_texts = st.recursive(
    st.sampled_from(["x", "y", "0", "1"]),
    lambda t: st.one_of(t.map("({})".format), t.map("( {} )".format),
                        t.map("|{}|".format), t.map("{}'".format)),
    max_leaves=4)
atom_texts = st.one_of(
    st.tuples(term_texts, st.sampled_from([" = ", " <= ", "\n' = "]),
              term_texts).map(_join),
    term_texts.map("p({})".format))
formula_texts = st.recursive(
    atom_texts,
    lambda f: st.one_of(f.map("({})".format), f.map("~{}".format),
                        st.tuples(f, st.sampled_from([" & ", " v ", " -> "]),
                                  f).map(_join)),
    max_leaves=6)

token_soups = st.lists(st.sampled_from(
    ["(", ")", "x", "p", "'", "|", " = ", " <= ", " & ", " v ", "~", " "]),
    max_size=16).map(_join)


class TestParenthesisLookahead:
    @settings(max_examples=300)
    @example("(x)' = y")
    @example("(|x|) <= y")
    @example("((((p(x)))))")
    @example("(x = (y)) & ((x)) = y")
    @example("(x & y)' = z")
    @given(formula_texts | token_soups)
    def test_indexed_lookahead_matches_the_scan(self, text):
        """At every "(", in text order, and over a whole parse."""
        parser = fm._Parser(text)
        for pos in (i for i, c in enumerate(text) if c == "("):
            parser.pos = pos
            assert parser._opens_a_term() == opens_a_term_by_scan(text, pos)
        assert _parse_outcome(fm._Parser(text)) == \
            _parse_outcome(ScanningParser(text))


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


# ---------------------------------------------------------------------------
# the induction synchronizer

def validate_aggregation_spec(entries, k):
    """The list-based statement of conditions i..vi, one list per condition."""
    if not entries:
        return "violated-i"
    last_index, last_body = entries[-1]
    if last_index != k or len(last_body) % 2 == 0:
        return "violated-i"
    indices = [idx for idx, _ in entries]
    if any(x >= y for x, y in zip(indices, indices[1:])):
        return "violated-ii"
    sizes = [len(body) for _, body in entries]
    seen_odd = False
    for sz in sizes:
        if sz % 2 == 1:
            seen_odd = True
        elif seen_odd:
            return "violated-iii"
    evens = [sz for sz in sizes if sz % 2 == 0]
    if any(x <= y for x, y in zip(evens, evens[1:])):
        return "violated-iv"
    common_odds = [sz for sz in sizes[:-1] if sz % 2 == 1]
    if any(x >= y for x, y in zip(common_odds, common_odds[1:])):
        return "violated-v"
    if any(sz == 0 for sz in sizes):
        return "violated-vi"
    return "ok"


def central_triple_spec(entries, k):
    """The list-based statement: the first odd-size entry, and the body
    of its left neighbour only when that neighbour's index is n - 1."""
    status = validate_aggregation_spec(entries, k)
    if status != "ok":
        raise ValueError(f"invalid aggregation: {status}")
    pos = [len(body) % 2 for _, body in entries].index(1)
    n, body = entries[pos]
    indices = [idx for idx, _ in entries]
    left = tuple(entries[pos - 1][1]) if n - 1 in indices[:pos] else ()
    return left, tuple(body), n, pos


def shaped(*pairs):
    """Entries with the given (index, body size) shape."""
    return [(idx, (organ((), 1),) * size) for idx, size in pairs]


aggregations = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 5)), max_size=6
).map(lambda pairs: shaped(*pairs))


# one aggregation per outcome at k=5: ok, then conditions i..vi broken
CONDITION_EXAMPLES = [
    shaped((2, 4), (3, 2), (5, 1)), [], shaped((2, 4), (2, 2), (5, 1)),
    shaped((1, 1), (2, 2), (5, 1)), shaped((1, 2), (2, 2), (5, 1)),
    shaped((1, 3), (2, 1), (5, 1)), shaped((2, 0), (5, 1)),
]


class TestValidateAggregation:
    @given(aggregations, st.integers(0, 6))
    def test_single_pass_matches_the_spec(self, entries, k):
        assert validate_aggregation(entries, k) == validate_aggregation_spec(entries, k)

    @given(aggregations, st.integers(0, 6))
    @example(shaped((1, 2), (3, 1), (5, 1)), 5)  # a left neighbour, not at n - 1
    @example(shaped((2, 2), (3, 1), (5, 1)), 5)
    def test_central_triple_matches_the_spec(self, entries, k):
        try:
            want = central_triple_spec(entries, k)
        except ValueError:
            with pytest.raises(ValueError):
                central_triple(entries, k)
        else:
            assert central_triple(entries, k) == want

    def test_single_pass_matches_the_spec_on_every_condition(self):
        want = [validate_aggregation_spec(e, 5) for e in CONDITION_EXAMPLES]
        assert want == ["ok"] + [f"violated-{c}" for c in
                                 ("i", "ii", "iii", "iv", "v", "vi")]
        assert [validate_aggregation(e, 5) for e in CONDITION_EXAMPLES] == want


env_moves = st.tuples(
    st.sampled_from("TB"),
    st.builds(str.__add__, st.sampled_from(["", "0.", "1.", "1.1."]),
              st.text(alphabet="01#", max_size=4)))


class TestInductionRunner:
    @pytest.mark.parametrize("conclusion", [
        COUNTER_TEXT, "ada x [val 1000] ade v [|x| + 1] (v = y)",
    ], ids=["no-constant", "one-constant"])
    @given(run=st.lists(env_moves, max_size=12),
           chunks=st.lists(st.integers(0, 3), max_size=20))
    def test_consequent_moves_match_rescan(self, conclusion, run, chunks):
        f = fm.parse_formula(conclusion)
        runner = build_induction_solver(counter_n_script(), counter_k_script(), f)
        skip = len(fm.free_vars(f)) + 1
        run = tuple(run)
        end = 0
        for size in chunks + [len(run)]:
            end = min(len(run), end + size)
            runner.poll(run[:end])
            bots = [m for label, m in run[:end] if label == "B"]
            assert runner._consequent == [m[2:] for m in bots[skip:]
                                          if m.startswith("1.")]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 9), st.sampled_from([0, 2, 3]))
    def test_locked_matches_a_trace_scan(self, k, delay):
        concl = fm.parse_formula(COUNTER_TEXT)
        runner = build_induction_solver(
            counter_n_script(), counter_k_script(delay), concl)
        run = (("B", "#" + int_to_numer(k)),)
        for _ in range(400):
            for m in runner.poll(run):
                run += (("T", m),)
            assert runner.locked == any(
                rec["classification"].startswith("locking") for rec in runner.trace)

    def test_play_matches_the_tuple_fed_benchmark_harness(self):
        """hpm.play hands the runner's `stretch` only the ⊥ moves new to
        it; the benchmark's induct harness hands its `poll` the whole
        run, a new tuple on every change."""
        sys.path.insert(0, PERFBENCH)
        try:
            import workloads
        finally:
            sys.path.remove(PERFBENCH)
        built = []

        def build(*args):
            built.append(args)
            return build_induction_solver(*args)

        lib = types.SimpleNamespace(
            hpm=hpm, fm=fm,
            induction=types.SimpleNamespace(build_induction_solver=build))
        for inp in workloads.induct_pool(random.Random(0), None, golden=True):
            want = workloads.induct_session(lib, inp)
            runner = build_induction_solver(*built[-1])
            pending = list(inp["env"])
            polls = iter(range(want["work"]))

            def env(run):
                if pending and pending[0][0] <= next(polls):
                    return pending.pop(0)[1], 0
                return None, 0

            got = hpm.play(runner, env, want["work"])
            assert got["run"] == want["run"]
            assert runner.trace == want["runner"].trace
            assert runner.locked

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 9), st.sampled_from([0, 2, 3]))
    def test_records_keep_their_entries_after_locking(self, k, delay):
        snapshots = []

        class Snapshots(list):
            def append(self, rec):
                snapshots.append(copy.deepcopy(rec["entries"]))
                super().append(rec)

        concl = fm.parse_formula(COUNTER_TEXT)
        runner = build_induction_solver(
            counter_n_script(), counter_k_script(delay), concl)
        runner.trace = Snapshots()
        drive_solver(runner, [(0, "#" + int_to_numer(k))])
        assert runner.locked
        assert [rec["entries"] for rec in runner.trace] == snapshots

    @pytest.mark.parametrize("game", ["counter0", "counter3", "midrun"])
    def test_sim_result_organs_are_what_organ_makes(self, game):
        """Sim builds its result organ as a tuple, without `organ`: over
        whole runs at k <= 9 each one is `organ` of itself, a tuple of
        moves and an int scale of at least 1."""
        sys.path.insert(0, PERFBENCH)
        try:
            import gen
        finally:
            sys.path.remove(PERFBENCH)
        stepping, results = induction._sim_stepping, []

        def recording(*args):
            result = yield from stepping(*args)
            results.append(result)
            return result

        if game == "midrun":
            base, step, text = gen.midrun_base, gen.midrun_step, gen.MIDRUN_FORMULA
        else:
            base, step = gen.counter_base, gen.counter_step(int(game[-1]))
            text = gen.COUNTER_FORMULA
        with patch.object(induction, "_sim_stepping", recording):
            for k in range(1, 10):
                runner = build_induction_solver(
                    hpm.ScriptStrategy(base), hpm.ScriptStrategy(step),
                    fm.parse_formula(text))
                drive_solver(runner, [(0, "#" + int_to_numer(k)), (5, "1.#10")]
                             if game == "midrun" else [(0, "#" + int_to_numer(k))])
                assert runner.locked
        organs = [o for (_, o), _ in filter(None, results)]
        assert len(organs) > 100
        for o in organs:
            assert type(o[0]) is tuple and type(o[1]) is int and o == organ(*o)
