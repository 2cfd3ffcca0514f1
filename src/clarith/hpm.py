"""The interactive machine VM: specs, configurations, stepping, meters,
sketches, and the stepper contract scripted strategies also satisfy.

Run tape layout: each labmove occupies 1 + len(move) cells, the first
cell holding the label character 'T' or 'B'.  The blank is '_'.  The
run-tape head is clamped so it can never pass the leftmost blank.

A machine is compiled once, when its `HPMSpec` is built (`parse_hpm`
builds one per file).  `spec.table` holds its transition function under
flat keys, (state, run symbol, *work symbols); each row carries the next
state, the writes, the head steps as -1/0/1, the appended string and a
`still` flag for rows that write back what they read and move no work
head.  `_transition`, the one transition that `run_until` and
`sketch_advance` share, reads only the table, and on a `still` row it
hands back the tapes and heads it was given, so `run_until` has no cell
count to move.  `spec.delta` stays the declarative form of the same
function, the one the statement of a transition in the tests reads.

A run only ever extends, one labmove at a time, so the per-cycle code
never rescans or copies it:

- A `Configuration`'s run is the first `length` labmoves of a
  `RunLog`, an append-only log of labmoves, run-tape cells and the cell
  offset where each labmove starts.  A step makes its successor share
  the log.  The fork rule is `owned(length)`: a configuration as long
  as the log `push`es onto it in place; an older one (a branch) copies
  its prefix into a new log first, so no configuration ever sees its
  run change, and `run_until` forks at most once per stretch.
  `InductionRunner` branches: its iterations re-feed each premise's
  opened configuration, forking the log.
  `run_until` reads the run symbol and the tape length off the log;
  `run_tape_length` and `run_symbol` are the rescanning twins.
  `cfg.run` builds a tuple; no per-cycle code reads it.
- A configuration carries each work tape's count of non-blank cells.
  A transition writes one cell per tape, the one under its head, so
  `run_until` moves the count by what that cell held and now holds (the
  stripping of trailing blanks never changes it), and `spacecost` is a
  read.  Sketches do not carry counts.
- `play` hands `Meter.record_cycle` the ⊥ move it has just appended,
  if any, so the meter never reads the run: it keeps a running
  background maximum and per-background maxima, reads a stretch's own
  moves in one loop over locals, and does not grow with the cycles.
- Machines advance in stretches.  `run_until` runs the machine for up
  to `limit` cycles and through up to `budget` of its own moves in one
  loop that keeps the state, tapes, heads, run head, buffer and cell
  counts in local variables and builds one `Configuration` at the end;
  `step` is a stretch of one cycle.  Each own move is pushed onto the
  log in the loop, and the loop re-reads the run tape's cells and
  length, since the machine may read that move later in the stretch.  A
  strategy advances only by `stretch`, and a stretch hands back each
  move with the cycle it was flushed at.  The peak of a one-cycle
  stretch is the cell count after that cycle, so Sim, which simulates a
  premise one cycle at a time, reads U off its stretches.  `play` hands
  every runner one stretch per env call, and with it only the env's
  move, if any: of one cycle when the env promises nothing, else to the
  end of the fuel through as many own moves as the env will sit out,
  its horizon, given with each call.
  One env call, one `stretch` and one meter record stand for all its
  cycles, so a quiet cycle costs one `_transition` and a few compares.
  A machine that finds no row stays halted until the run grows, so that
  cycle ends the stretch and uses up its limit.  On one work tape,
  `_transition` writes and moves the head with no zip, list or tuple.

A sketch reads the run through a `History`, the reason wrapper's
append-only list of (label, size) records.  Next to the records it keeps
running indexes, numbers only and never move contents: the cell offset
where each record starts, each record's ordinal within its label, the
positions of the T records, and the T and B counts.  `sketch_advance`
takes the tape length and the run symbol's record off them with one
bisection; `history_prefix` is the rescanning twin.
"""

from __future__ import annotations

import os
from bisect import bisect_right

from .game import TruncationContext, magnitude, track_append

BLANK = "_"
DIRS = ("L", "R", "S")
_STEPS = {"L": -1, "R": 1, "S": 0}


class HPMSpec:
    """A machine: its declarations, its `delta` and the compiled `table`.

    `delta` is the declarative form, as a machine file states it: it
    maps (state, run symbol, work symbols) to (next state, writes, run
    direction, work directions, append), the directions being 'L', 'R'
    or 'S'.  `table` is the same transition function compiled once, here,
    for `_transition`: its keys are flat, (state, run symbol, *work
    symbols), and each row is (next state, writes, run step, work steps,
    append, still), a step being -1, 0 or 1.  A `still` row writes back
    the symbols it reads and moves no work head.
    """

    def __init__(self, states, start, move_states, worktapes, alphabet, delta):
        self.states = frozenset(states)
        self.start = start
        self.move_states = frozenset(move_states)
        self.worktapes = int(worktapes)
        self.alphabet = frozenset(alphabet) | {BLANK}
        self.delta = dict(delta)
        if start not in self.states:
            raise ValueError(f"start state {start!r} not declared")
        if not self.move_states <= self.states:
            raise ValueError("move states must be declared states")
        table = {}
        steps_of = {}
        for (q, runsym, worksyms), row in self.delta.items():
            q2, writes, d_run, dirs, append = row
            steps = steps_of.get(dirs)
            if steps is None:
                steps = steps_of[dirs] = tuple([_STEPS[d] for d in dirs])
            table[(q, runsym, *worksyms)] = (
                q2, writes, _STEPS[d_run], steps, append,
                writes == worksyms and not any(steps))
        self.table = table

    def census(self):
        """(r, g, q) = state count, work tapes, tape symbol count."""
        return {"r": len(self.states), "g": self.worktapes, "q": len(self.alphabet)}


def parse_hpm(text: str) -> HPMSpec:
    """Parse a machine file; a bad line raises ValueError naming it.

    Each alphabet symbol and each delta row's run symbol is one
    character, as a tape cell holds one.  Each delta row must read and
    write exactly `worktapes` work symbols from the alphabet (or the
    blank) and go from and to declared states, and no two rows may
    share a key: the machine must be deterministic.  Rows with the same
    right-hand side share one parsed row.
    """
    fields = {}
    rows = []
    parsed = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        if key == "delta":
            lhs, arrow, rhs = rest.partition("->")
            if not arrow:
                raise ValueError(f"line {lineno}: delta needs '->'")
            left = lhs.split(",")
            if len(left) < 2:
                raise ValueError(f"line {lineno}: delta lhs needs state "
                                 "and run symbol")
            runsym = left[1].strip()
            if len(runsym) != 1:
                raise ValueError(f"line {lineno}: run symbol {runsym!r} is "
                                 "not one character")
            n = len(left) - 2
            if n == 1:
                worksyms = (left[2].strip(),)
            else:
                worksyms = tuple([s.strip() for s in left[2:]])
            row = parsed.get(rhs)
            if row is None or len(row[1]) != n:
                row = parsed[rhs] = _parse_delta_rhs(rhs, n, lineno)
            rows.append((lineno, (left[0].strip(), runsym, worksyms), row))
            continue
        rest = rest.strip()
        if key == "states":
            fields["states"] = rest.split()
        elif key == "start":
            fields["start"] = rest
        elif key == "movestates":
            fields["move_states"] = rest.split()
        elif key == "worktapes":
            if not rest.isdecimal():
                raise ValueError(f"line {lineno}: worktapes must be a "
                                 "non-negative integer")
            fields["worktapes"] = int(rest)
        elif key == "alphabet":
            fields["alphabet"] = rest.split()
            for sym in fields["alphabet"]:
                if len(sym) != 1:
                    raise ValueError(f"line {lineno}: alphabet symbol {sym!r} "
                                     "is not one character")
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    for need in ("states", "start", "worktapes", "alphabet"):
        if need not in fields:
            raise ValueError(f"missing {need!r} declaration")
    fields.setdefault("move_states", [])
    symbols = set(fields["alphabet"]) | {BLANK}
    states = set(fields["states"])
    worktapes = fields["worktapes"]
    delta = {}
    for lineno, key, row in rows:
        worksyms, q2, writes = key[2], row[0], row[1]
        if len(worksyms) != worktapes:
            raise ValueError(f"line {lineno}: {len(worksyms)} work symbols, "
                             f"but worktapes is {worktapes}")
        if not (symbols.issuperset(worksyms) and symbols.issuperset(writes)):
            sym = next(s for s in worksyms + writes if s not in symbols)
            raise ValueError(f"line {lineno}: work symbol {sym!r} "
                             "not in the alphabet")
        if key[0] not in states:
            raise ValueError(f"line {lineno}: source state {key[0]!r} not declared")
        if q2 not in states:
            raise ValueError(f"line {lineno}: target state {q2!r} not declared")
        if key in delta:
            first = next(n for n, k, _ in rows if k == key)
            raise ValueError(f"line {lineno}: a second transition for "
                             f"{key!r}, first given on line {first}")
        delta[key] = row
    return HPMSpec(delta=delta, **fields)


def _parse_delta_rhs(rhs, n, lineno):
    right = [s.strip() for s in rhs.split(",")]
    append = ""
    if right[-1].startswith("append"):
        quoted = right.pop()[6:].strip()
        if not (len(quoted) > 1 and quoted[0] == quoted[-1] == '"'):
            raise ValueError(f"line {lineno}: append wants a quoted string")
        append = quoted[1:-1]
    if len(right) != 2 + 2 * n:
        raise ValueError(f"line {lineno}: delta rhs arity mismatch")
    q2 = right[0]
    writes = tuple(right[1:1 + n])
    d_run = right[1 + n]
    dirs = tuple(right[2 + n:2 + 2 * n])
    for d in (d_run,) + dirs:
        if d not in DIRS:
            raise ValueError(f"line {lineno}: bad direction {d!r}")
    return q2, writes, d_run, dirs, append


# ---------------------------------------------------------------------------
# configurations and stepping

_FIELDS = ("state", "tapes", "heads", "run", "runhead", "buffer",
           "cycle", "moves_made", "last_append", "last_move")


class RunLog:
    """An append-only run that configurations share, with its run tape.

    `moves` holds the labmoves, `cells` the run-tape cells one symbol
    each, and `starts` the cell offset at which each labmove begins,
    followed by the tape length.
    """

    __slots__ = ("moves", "cells", "starts")

    def __init__(self, labmoves=()):
        self.moves, self.cells, self.starts = [], [], [0]
        for label, move in labmoves:
            self.push(label, move)

    def push(self, label, move):
        """Append one labmove in place; -> the log's new length."""
        moves, cells = self.moves, self.cells
        moves.append((label, move))
        cells.append(label)
        cells.extend(move)
        self.starts.append(len(cells))
        return len(moves)

    def owned(self, length):
        """A log of this log's first `length` labmoves to push onto: this
        one if it holds exactly `length`, else a fork, a copy of that
        prefix, leaving the configurations reading the rest untouched."""
        if length == len(self.moves):
            return self
        log = RunLog()
        log.moves = self.moves[:length]
        log.starts = self.starts[:length + 1]
        log.cells = self.cells[:log.starts[-1]]
        return log

    def extended(self, length, labmoves):
        """(log, length) holding this log's first `length` labmoves and
        then labmoves, the log being `owned(length)`."""
        log = self.owned(length)
        for label, move in labmoves:
            length = log.push(label, move)
        return log, length


_new = object.__new__


def _fill(cfg, state, tapes, heads, log, length, runhead, buffer, cycle,
          moves_made, last_append, last_move, counts):
    """cfg with every slot set positionally, the values taken as given."""
    cfg.state = state
    cfg.tapes = tapes
    cfg.heads = heads
    cfg.log = log
    cfg.length = length
    cfg.runhead = runhead
    cfg.buffer = buffer
    cfg.cycle = cycle
    cfg.moves_made = moves_made
    cfg.last_append = last_append
    cfg.last_move = last_move
    cfg.counts = counts
    return cfg


class Configuration:
    """A machine configuration; a value, compared on its ten fields.

    Its run is the first `length` labmoves of `log`, a `RunLog` it may
    share with other configurations; the `run` field reads them as a
    tuple.  `counts` holds each work tape's non-blank cell count.
    """

    __slots__ = ("state", "tapes", "heads", "log", "length", "runhead",
                 "buffer", "cycle", "moves_made", "last_append", "last_move",
                 "counts")

    def __init__(self, state, tapes, heads, run, runhead, buffer, cycle,
                 moves_made, last_append="", last_move=None):
        tapes = tuple(tapes)
        log = RunLog(run)
        _fill(self, state, tapes, tuple(heads), log, len(log.moves), runhead,
              buffer, cycle, moves_made, last_append, last_move,
              tuple(len(t) - t.count(BLANK) for t in tapes))

    @property
    def run(self):
        return tuple(self.log.moves[:self.length])

    def extend(self, labmoves):
        """A copy with labmoves appended to the run."""
        log, length = self.log.extended(self.length, labmoves)
        return _fill(_new(Configuration), self.state, self.tapes, self.heads,
                     log, length, self.runhead, self.buffer, self.cycle,
                     self.moves_made, self.last_append, self.last_move,
                     self.counts)

    def __eq__(self, other):
        return isinstance(other, Configuration) and all(
            getattr(self, n) == getattr(other, n) for n in _FIELDS)

    def __repr__(self):
        return (f"Configuration(state={self.state}, cycle={self.cycle}, "
                f"run={self.length} moves, buffer={self.buffer!r})")


def initial_configuration(spec: HPMSpec) -> Configuration:
    return Configuration(
        state=spec.start,
        tapes=("",) * spec.worktapes,
        heads=(0,) * spec.worktapes,
        run=(),
        runhead=0,
        buffer="",
        cycle=0,
        moves_made=0,
    )


def run_tape_length(run) -> int:
    return sum(1 + len(m) for _, m in run)


def run_symbol(run, pos: int) -> str:
    for label, move in run:
        if pos == 0:
            return label
        pos -= 1
        if pos < len(move):
            return move[pos]
        pos -= len(move)
    return BLANK


def _transition(spec: HPMSpec, state, runsym, tapes, heads, runhead, run_len):
    """Apply the row of `spec.table` keyed by (state, runsym, *work symbols).

    -> None when no row matches, else (q2, tapes, heads, runhead, append)
    after the work-tape writes and all head moves.  A written tape loses
    its trailing blanks; a head moves left down to 0 and right up to its
    tape's leftmost blank, and the run-tape head left down to 0 and
    right up to run_len (a right move from past run_len lands on it; a
    left move from there is not clamped).  On a `still` row, unless some
    head inside its tape has trailing blanks to strip, the tapes and
    heads given are returned as they are, the same tuples.  This is the
    one transition: `run_until` and `sketch_advance` both call it, and
    `tests/test_fastpaths.py` checks it against a statement that reads
    the declarative `spec.delta`.
    """
    one = spec.worktapes == 1
    if one:
        t = tapes[0]
        h = heads[0]
        if h < len(t):
            row = spec.table.get((state, runsym, t[h]))
            clean = t[-1] != BLANK
        else:
            row = spec.table.get((state, runsym, BLANK))
            clean = True
    else:
        row = spec.table.get((state, runsym, *[
            t[h] if h < len(t) else BLANK for t, h in zip(tapes, heads)]))
        clean = all(h >= len(t) or t[-1] != BLANK for t, h in zip(tapes, heads))
    if row is None:
        return None
    q2, writes, d_run, steps, append, still = row
    if d_run > 0:
        runhead = runhead + 1 if runhead < run_len else run_len
    elif d_run and runhead > 0:
        runhead -= 1
    if still and clean:
        return q2, tapes, heads, runhead, append
    if one:
        t, h = _write_cell(t, h, writes[0], steps[0])
        return q2, (t,), (h,), runhead, append
    cells = [_write_cell(*cell) for cell in zip(tapes, heads, writes, steps)]
    return (q2, tuple([t for t, _ in cells]), tuple([h for _, h in cells]),
            runhead, append)


def _write_cell(t, h, w, d):
    """(tape, head) after writing w under head h of tape t and stepping d."""
    if h < len(t):
        if t[h] != w:
            t = t[:h] + w + t[h + 1:]
        if t[-1] == BLANK:
            t = t.rstrip(BLANK)
    elif w != BLANK:
        t = t + BLANK * (h - len(t)) + w
    if d > 0:
        blank = t.find(BLANK)
        return t, min(h + 1, blank if blank >= 0 else len(t))
    if d and h > 0:
        return t, h - 1
    return t, h


def run_until(spec: HPMSpec, cfg: Configuration, limit: int, incoming=(),
              budget=1):
    """At most `limit` (at least 1) machine cycles in one loop, the first
    absorbing incoming ⊥-moves, through at most `budget` (at least 1)
    moves: it stops after the cycle that makes the budget's last move.

    -> (configuration after the stretch, cycles used, peak cell count,
    moves), the peak being the largest `spacecost` of the configurations
    after each cycle of the stretch, and the moves a list of (cycle, move)
    pairs, the cycle counted from 1 at the stretch's first.  A cycle that
    finds no row leaves the machine as it was, and no cycle after it can
    find one, since nothing feeds the run meanwhile: that cycle uses up
    every remaining cycle.  The run symbol and the tape length are read
    off the run log, and read again after each move, which extends it; a
    write changes one cell, the one under its head, so each work tape's
    non-blank count moves by what that cell held and now holds.
    """
    log, length = cfg.log, cfg.length
    if incoming:
        log, length = log.extended(length, incoming)
    cells, run_len = log.cells, log.starts[length]
    state, tapes, heads, runhead = cfg.state, cfg.tapes, cfg.heads, cfg.runhead
    buffer, moves_made, counts = cfg.buffer, cfg.moves_made, cfg.counts
    one, move_states = len(tapes) == 1, spec.move_states
    cur = max(counts) if counts else 0
    peak, used, made = cur, 0, []
    while used < limit:
        used += 1
        if runhead >= run_len:
            runhead, runsym = run_len, BLANK
        else:
            runsym = cells[runhead]
        moved = _transition(spec, state, runsym, tapes, heads, runhead, run_len)
        if moved is None:
            used, append = limit, ""
            break
        state, tapes2, heads2, runhead, append = moved
        if tapes2 is not tapes:
            if one:
                counts = (counts[0] + _grown(tapes[0], tapes2[0], heads[0]),)
                cur = counts[0]
            else:
                counts = tuple([c + _grown(t, t2, h) for c, t, t2, h
                                in zip(counts, tapes, tapes2, heads)])
                cur = max(counts)
            if used == 1 or cur > peak:
                peak = cur
        tapes, heads = tapes2, heads2
        if append:
            buffer += append
        if state in move_states:
            if not made:
                log = log.owned(length)
            length = log.push("T", buffer)
            made.append((used, buffer))
            buffer, moves_made = "", moves_made + 1
            if len(made) == budget:
                break
            cells, run_len = log.cells, log.starts[length]
    last_move = made[-1][1] if made and made[-1][0] == used else None
    return (_fill(_new(Configuration), state, tapes, heads, log, length,
                  runhead, buffer, cfg.cycle + used, moves_made, append,
                  last_move, counts), used, peak, made)


def step(spec: HPMSpec, cfg: Configuration, incoming=()) -> Configuration:
    """One machine cycle: absorb incoming ⊥-moves, apply one transition."""
    return run_until(spec, cfg, 1, incoming)[0]


def _grown(t, t2, h):
    """How many non-blank cells a write under head h took tape t to t2 gained."""
    return (h < len(t2) and t2[h] != BLANK) - (h < len(t) and t[h] != BLANK)


def spacecost(cfg: Configuration) -> int:
    """Max count of non-blank cells on any one work tape."""
    return max(cfg.counts) if cfg.counts else 0


# ---------------------------------------------------------------------------
# the stepper contract

class HPMStrategy:
    def __init__(self, spec: HPMSpec):
        self.spec = spec

    def initial(self):
        return initial_configuration(self.spec)

    def feed(self, cfg, labmoves):
        return cfg.extend(labmoves)

    def stretch(self, cfg, limit, budget=1):
        """`run_until` over at most limit cycles and budget moves."""
        return run_until(self.spec, cfg, limit, (), budget)


class ScriptStrategy:
    """A pure function of (visible run, cycles since last own move)."""

    def __init__(self, fn):
        self.fn = fn

    def initial(self):
        return ((), 0)

    def feed(self, st, labmoves):
        run, waited = st
        return (run + tuple(labmoves), waited)

    def stretch(self, st, limit, budget=1):
        """fn once per cycle, up to limit cycles, through up to budget
        moves; the peak is 0."""
        run, waited = st
        fn = self.fn
        made = []
        used = 0
        while used < limit:
            used += 1
            mv = fn(run, waited)
            if mv is None:
                waited += 1
                continue
            run += (("T", mv),)
            waited = 0
            made.append((used, mv))
            if len(made) == budget:
                break
        return (run, waited), used, 0, made

    # `stretch(st, 1)`, kept because perfbench/tracer.py wraps it
    def step(self, st):
        st, _, _, made = self.stretch(st, 1)
        return st, made[0][1] if made else None


class StrategyRunner:
    """Stateful driver around a strategy, for the play harness.

    A strategy advances over immutable states: `initial()`, `feed(st,
    labmoves)` (the ⊕, appending labmoves to the run seen) and
    `stretch(st, limit, budget=1)` -> (next state, cycles used, peak
    cells, moves): up to `limit` cycles, through at most `budget` moves,
    the peak being the most work-tape cells in use after any of them and
    the moves a list of (cycle, move) pairs, each cycle counted from 1 at
    the stretch's first.  `HPMStrategy` and `ScriptStrategy` are the two
    kinds.

    `stretch(incoming, limit, budget=1)` is the runner's one advance,
    under the same contract: `incoming` is the tuple of ⊥ labmoves that
    entered the run since the last stretch, fed before its first cycle,
    and the stretch runs up to `limit` cycles through at most `budget`
    own moves, -> (cycles used, peak of the `spacecost` after each,
    moves as (cycle, move) pairs).  The budget is an upper bound: a
    runner that must stop at its first move does so whatever its
    budget.  A stretch of one cycle is a poll.  A runner's own moves
    are in its state already, so it is never handed them.
    """

    def __init__(self, strategy):
        self.strategy = strategy
        self.st = strategy.initial()

    def stretch(self, incoming, limit, budget=1):
        st = self.strategy.feed(self.st, incoming) if incoming else self.st
        self.st, used, peak, made = self.strategy.stretch(st, limit, budget)
        return used, peak, made


# ---------------------------------------------------------------------------
# metering

class Meter:
    """Per-background resource maxima per the amplitude/space/time reading.

    `amplitude` and `spacecost` map each background to the largest own
    move magnitude and work-tape cell count seen under it; `max_timecost`
    is the most cycles any own move took since the last event.  Each
    `record_cycle` call is given the cycle's ⊥ move, or None, and
    `background` is a running maximum over the ⊥ moves given so far.
    `_cells` mirrors `spacecost[background]`: a quiet cycle costs one compare.

    One call stands for a stretch of cycles: `cycle` is its first cycle,
    the one its ⊥ move, if any, comes before, `cells` its peak, and
    `made` its own moves as (k, move) pairs, k counting the stretch's
    cycles from 1, so the move is made at cycle + k - 1.  The background
    stays fixed over the stretch, since a ⊥ move comes only before its
    first cycle, so the readings are those of one call per cycle, and
    each move's time is counted to its own cycle, as k - last in the
    stretch's own cycles, in one loop over locals.
    """

    def __init__(self):
        self.amplitude = {}
        self.spacecost = {}
        self.max_timecost = 0
        self.background = 1
        self._last_event_cycle = 0
        self._cells = -1  # spacecost[background], -1 before it is set

    def record_cycle(self, cycle, env_move, cells, made):
        if env_move is not None:
            self.background = max(self.background, magnitude(env_move))
            self._last_event_cycle = cycle
            self._cells = self.spacecost.get(self.background, -1)
        if cells > self._cells:
            self._cells = self.spacecost[self.background] = cells
        if made:
            bg = self.background
            amp = self.amplitude.get(bg, 0)
            gap = self.max_timecost
            last = self._last_event_cycle - cycle + 1
            for k, m in made:
                size = magnitude(m)
                if size > amp:
                    amp = size
                if k - last > gap:
                    gap = k - last
                last = k
            self.amplitude[bg] = amp
            self.max_timecost = gap
            self._last_event_cycle = cycle + last - 1


def meter_report(meter: Meter):
    return {
        "amplitude": dict(meter.amplitude),
        "max_spacecost": max(meter.spacecost.values(), default=0),
        "spacecost_by_background": dict(meter.spacecost),
        "max_timecost": meter.max_timecost,
    }


FUEL_ENV = "CLARITH_FUEL_DEFAULT"
DEFAULT_FUEL = 2000


class BadFuelSetting(ValueError):
    pass


def fuel_from_env() -> int:
    """The cycle budget CLARITH_FUEL_DEFAULT names, or DEFAULT_FUEL if unset.

    Raises BadFuelSetting unless the setting is an integer of at least 1.
    """
    raw = os.environ.get(FUEL_ENV)
    if raw is None:
        return DEFAULT_FUEL
    try:
        fuel = int(raw)
    except ValueError:
        raise BadFuelSetting(f"{FUEL_ENV}={raw!r} is not an integer") from None
    if fuel < 1:
        raise BadFuelSetting(f"{FUEL_ENV} must be at least 1, got {fuel}")
    return fuel


def play(runner, env, fuel: int):
    """Interleave env moves (first) and machine cycles for fuel cycles.

    runner: object with stretch(incoming, limit, budget) -> (cycles
    used, peak cells, moves), as `StrategyRunner` describes; `incoming`
    is the env's move as a ⊥ labmove, or ().
    env: callable(visible_run) -> (move string or None, horizon), the
    horizon being, whether it moves or not, how many more ⊤ moves it
    will surely let pass before its next one (`math.inf` for none ever),
    and 0 when it promises nothing.  It is handed one list that play
    appends to, so the run it was given grows after it returns: it keeps
    counts of the entries it has read, not the run itself.  The result's
    run is a tuple.

    Each env call is followed by one stretch.  It is a stretch of one
    cycle when the env gave a horizon of 0.  Otherwise it runs to the
    end of the fuel through at most the horizon's own moves, with one
    env call and one meter record, its first cycle taking the env's
    move, if any.  The result is that of one env call and one stretch
    per cycle: before the horizon's last move the env would have
    returned None at each later cycle, and with no ⊥ move after the
    first the meter's background stays fixed, so the stretch's peak
    cells stand for their per-cycle readings, and the meter reads each
    move at its own cycle.
    """
    run = []
    meter = Meter()
    stretch, record = runner.stretch, meter.record_cycle
    cycle = 0
    while cycle < fuel:
        mv, horizon = env(run)
        incoming = () if mv is None else (("B", mv),)
        run += incoming
        if horizon > 0:
            used, cells, made = stretch(incoming, fuel - cycle, horizon)
        else:
            used, cells, made = stretch(incoming, 1, 1)
        for _, m in made:
            run.append(("T", m))
        record(cycle, mv, cells, made)
        cycle += used
    return {"run": tuple(run), "meter": meter}


# ---------------------------------------------------------------------------
# sketches

class Sketch:
    """The 8-component compressed machine state.

    Components: (1) state, (2) work-tape contents, (3) work-tape heads,
    (4) run-tape head, (5) moves made, (6) buffer length, (7) string
    appended on the last transition, (8) truncation of the buffer move,
    "" in a replay's sketches, which track none.
    `_shape`, the buffer's state in the formula's move-shape automaton
    (None once the buffer has left every move shape), keeps component 8
    incrementally correct; it is excluded from equality.  A step into a
    move state empties the buffer and keeps no copy of the move flushed.
    That move is read off the sketches s and nxt on either side of the
    step: its size is s.buffer_len + len(nxt.last_append), its truncation
    track_append(s.trunc, s._shape, nxt.last_append, ctx).
    """

    __slots__ = ("state", "tapes", "heads", "runhead", "moves_made",
                 "buffer_len", "last_append", "trunc", "_shape")

    def components(self):
        return (self.state, self.tapes, self.heads, self.runhead,
                self.moves_made, self.buffer_len, self.last_append, self.trunc)

    def __eq__(self, other):
        return isinstance(other, Sketch) and self.components() == other.components()

    def __repr__(self):
        return f"Sketch{self.components()!r}"


def _fill_sketch(s, state, tapes, heads, runhead, moves_made, buffer_len,
                 last_append, trunc, shape):
    """s with every slot set positionally, the values taken as given."""
    s.state = state
    s.tapes = tapes
    s.heads = heads
    s.runhead = runhead
    s.moves_made = moves_made
    s.buffer_len = buffer_len
    s.last_append = last_append
    s.trunc = trunc
    s._shape = shape
    return s


def initial_sketch(spec: HPMSpec) -> Sketch:
    return _fill_sketch(_new(Sketch), spec.start, ("",) * spec.worktapes,
                        (0,) * spec.worktapes, 0, 0, 0, "", "", 0)


def sketch_of_configuration(cfg: Configuration, ctx: TruncationContext) -> Sketch:
    trunc, shape = track_append("", 0, cfg.buffer, ctx)
    return _fill_sketch(_new(Sketch), cfg.state, cfg.tapes, cfg.heads,
                        cfg.runhead, cfg.moves_made, len(cfg.buffer),
                        cfg.last_append, trunc, shape)


def history_prefix(history, m: int):
    """history entries before the (m+1)-th 'T' entry."""
    tops = 0
    out = []
    for label, size in history:
        if label == "T":
            if tops == m:
                break
            tops += 1
        out.append((label, size))
    return out


class History:
    """The reason wrapper's append-only history of (label, size) records,
    with running indexes.

    Labels are 'T' or 'B'.  It reads as a sequence of its records, and
    each append brings up to date: `starts`, the run-tape cell offset
    at which each record begins, followed by the tape length (prefix
    sums of 1 + size); `ordinals`, each record's place among the records
    of its label; `top_at`, the position of each T record; and `bots`,
    the count of B records.  Like the records, the indexes are numbers
    only: no move contents are kept.
    """

    __slots__ = ("_records", "starts", "ordinals", "top_at", "bots")

    def __init__(self, records=()):
        self._records = []
        self.starts = [0]
        self.ordinals = []
        self.top_at = []
        self.bots = 0
        for record in records:
            self.append(record)

    def append(self, record):
        label, size = record
        if label == "T":
            self.ordinals.append(len(self.top_at))
            self.top_at.append(len(self._records))
        else:
            self.ordinals.append(self.bots)
            self.bots += 1
        self._records.append((label, size))
        self.starts.append(self.starts[-1] + 1 + size)

    def __len__(self):
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def __getitem__(self, i):
        return self._records[i]


def sketch_advance(spec: HPMSpec, s: Sketch, history: History, bots, fetch,
                   ctx: TruncationContext) -> Sketch:
    """One simulated cycle driven by move sizes instead of move contents.

    The offset-th symbol (1-based) of ⊥ move i (0-based among ⊥ moves)
    is read as bots[i][offset - 1]; that of ⊤ move i is fetched by
    fetch(spec, history, i, offset, bots).  The records visible to
    the sketch (those before its (moves_made+1)-th T record) and the run
    symbol's record are read off the history's indexes: the run symbol's
    record is found by bisecting `starts`, which rise strictly since
    every record holds at least its label's cell.
    `history_prefix` is the rescanning twin.  ctx None tracks no truncation.
    """
    starts, top_at = history.starts, history.top_at
    made = s.moves_made
    p = starts[top_at[made]] if made < len(top_at) else starts[-1]
    q = s.runhead
    if q >= p:
        q, runsym = p, BLANK
    else:
        idx = bisect_right(starts, q) - 1
        offset = q - starts[idx]
        label = history._records[idx][0]
        if offset == 0:
            runsym = label
        elif label == "B":
            runsym = bots[history.ordinals[idx]][offset - 1]
        else:
            runsym = fetch(spec, history, history.ordinals[idx], offset, bots)
    moved = _transition(spec, s.state, runsym, s.tapes, s.heads, q, p)
    if moved is None:
        return _fill_sketch(_new(Sketch), s.state, s.tapes, s.heads, q, made,
                            s.buffer_len, "", s.trunc, s._shape)
    q2, tapes, heads, runhead2, append = moved
    if q2 in spec.move_states:
        return _fill_sketch(_new(Sketch), q2, tapes, heads, runhead2, made + 1,
                            0, append, "", 0)
    buffer_len, trunc, shape = s.buffer_len, s.trunc, s._shape
    if append:
        buffer_len += len(append)
        if ctx is not None:
            trunc, shape = track_append(trunc, shape, append, ctx)
    return _fill_sketch(_new(Sketch), q2, tapes, heads, runhead2, made,
                        buffer_len, append, trunc, shape)
