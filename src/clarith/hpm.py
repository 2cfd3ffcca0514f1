"""The interactive machine VM: specs, configurations, stepping, meters,
sketches, and the stepper contract scripted strategies also satisfy.

Run tape layout: each labmove occupies 1 + len(move) cells, the first
cell holding the label character 'T' or 'B'.  The blank is '_'.  The
run-tape head is clamped so it can never pass the leftmost blank.

A run only ever extends, one labmove at a time, so the per-cycle code
never rescans or copies it:

- A `Configuration`'s run is the first `length` labmoves of a
  `RunLog`, an append-only log of labmoves, run-tape cells and the cell
  offset where each labmove starts.  A step makes its successor share
  the log.  The fork rule: extending a configuration whose length is
  the log's length appends in place; extending an older one (a branch)
  copies its prefix into a new log first, so no configuration ever
  sees its run change.  No runner in this package branches; the fork
  keeps `Configuration` a value for callers that do, tests among them.  `step` reads the run symbol and the tape length off the
  log; `run_tape_length` and `run_symbol` are the rescanning twins.
  `cfg.run` builds a tuple; no per-cycle code reads it.
- A configuration carries each work tape's count of non-blank cells.
  A transition writes one cell per tape, the one under its head, so
  `step` moves the count by what that cell held and now holds (the
  stripping of trailing blanks never changes it), and `spacecost` is a
  read.  Sketches do not carry counts.
- `Meter.record_cycle` keeps a running background maximum, the number
  of run entries it has seen, and per-background maxima, so a meter
  does not grow with the cycles.  Its contract: each run it is given
  extends the previous one.

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

from .game import TruncationContext, magnitude, prudentize

BLANK = "_"
DIRS = ("L", "R", "S")


class HPMSpec:
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

    def census(self):
        """(r, g, q) = state count, work tapes, tape symbol count."""
        return {"r": len(self.states), "g": self.worktapes, "q": len(self.alphabet)}


def parse_hpm(text: str) -> HPMSpec:
    """Parse a machine file; a bad line raises ValueError naming it.

    Each delta row must read and write exactly `worktapes` work symbols
    from the alphabet (or the blank) and go from and to declared states,
    and no two rows may share a key: the machine must be deterministic.
    """
    fields = {}
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        rest = rest.strip()
        if key == "delta":
            rows.append((lineno, *_parse_delta_line(rest, lineno)))
        elif key == "states":
            fields["states"] = rest.split()
        elif key == "start":
            fields["start"] = rest
        elif key == "movestates":
            fields["move_states"] = rest.split()
        elif key == "worktapes":
            fields["worktapes"] = int(rest)
        elif key == "alphabet":
            fields["alphabet"] = rest.split()
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


def _parse_delta_line(rest, lineno):
    lhs, arrow, rhs = rest.partition("->")
    if not arrow:
        raise ValueError(f"line {lineno}: delta needs '->'")
    left = list(map(str.strip, lhs.split(",")))
    right = list(map(str.strip, rhs.split(",")))
    if len(left) < 2:
        raise ValueError(f"line {lineno}: delta lhs needs state and run symbol")
    state, runsym, worksyms = left[0], left[1], tuple(left[2:])
    n = len(worksyms)
    append = ""
    if right and right[-1].startswith("append"):
        quoted = right.pop().split(None, 1)[1].strip()
        if not (quoted.startswith('"') and quoted.endswith('"')):
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
    return (state, runsym, worksyms), (q2, writes, d_run, dirs, append)


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
        self.moves = []
        self.cells = []
        self.starts = [0]
        self._append(labmoves)

    def _append(self, labmoves):
        moves, cells, starts = self.moves, self.cells, self.starts
        for label, move in labmoves:
            moves.append((label, move))
            cells.append(label)
            cells.extend(move)
            starts.append(len(cells))

    def extended(self, length, labmoves):
        """(log, length) holding this log's first `length` labmoves and
        then labmoves.  The log is this one, appended in place, when it
        holds exactly `length` labmoves; otherwise it is a fork, a copy
        of that prefix, so the configurations reading the later entries
        are left untouched."""
        log = self
        if length != len(self.moves):
            log = RunLog()
            log.moves = self.moves[:length]
            log.starts = self.starts[:length + 1]
            log.cells = self.cells[:log.starts[-1]]
        log._append(labmoves)
        return log, len(log.moves)


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

    def replace(self, **kw):
        """A copy with kw fields replaced.  It shares this configuration's
        run log unless kw gives a run."""
        vals = {name: getattr(self, name) for name in _FIELDS if name != "run"}
        vals.update(kw)
        if "run" in kw:
            return Configuration(**vals)
        nxt = Configuration(run=(), **vals)
        nxt.log, nxt.length = self.log, self.length
        return nxt

    def extend(self, labmoves):
        """A copy with labmoves appended to the run."""
        log, length = self.log.extended(self.length, labmoves)
        return _fill(_new(Configuration), self.state, self.tapes, self.heads,
                     log, length, self.runhead, self.buffer, self.cycle,
                     self.moves_made, self.last_append, self.last_move,
                     self.counts)

    def tape(self) -> str:
        """The run tape's cells, label then move for each run entry."""
        return "".join(self.log.cells[:self.log.starts[self.length]])

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
    """Apply the transition keyed by (state, runsym, work symbols).

    -> None when no transition matches, else (q2, tapes, heads, runhead,
    append) after the work-tape writes and all head moves.  A written
    tape loses its trailing blanks; a head moves left down to 0 and
    right up to its tape's leftmost blank, the run-tape head up to
    run_len.
    """
    worksyms = tuple([t[h] if h < len(t) else BLANK
                      for t, h in zip(tapes, heads)])
    row = spec.delta.get((state, runsym, worksyms))
    if row is None:
        return None
    q2, writes, d_run, dirs, append = row
    tapes2 = []
    heads2 = []
    for t, h, w, d in zip(tapes, heads, writes, dirs):
        if h < len(t):
            if t[h] != w:
                t = t[:h] + w + t[h + 1:]
            if t[-1] == BLANK:
                t = t.rstrip(BLANK)
        elif w != BLANK:
            t = t + BLANK * (h - len(t)) + w
        tapes2.append(t)
        if d == "L":
            h = h - 1 if h > 0 else 0
        elif d == "R":
            blank = t.find(BLANK)
            h = min(h + 1, blank if blank >= 0 else len(t))
        heads2.append(h)
    if d_run == "L":
        runhead = runhead - 1 if runhead > 0 else 0
    elif d_run == "R":
        runhead = min(runhead + 1, run_len)
    return q2, tuple(tapes2), tuple(heads2), runhead, append


def step(spec: HPMSpec, cfg: Configuration, incoming=()) -> Configuration:
    """One machine cycle: absorb incoming ⊥-moves, apply one transition.

    The run symbol and the tape length are read off the run log; a write
    changes one cell, the one under its head, so each work tape's
    non-blank count moves by what that cell held and now holds.
    """
    log, length = cfg.log, cfg.length
    if incoming:
        log, length = log.extended(length, incoming)
    run_len = log.starts[length]
    runhead = cfg.runhead
    if runhead >= run_len:
        runhead, runsym = run_len, BLANK
    else:
        runsym = log.cells[runhead]
    state, tapes, heads = cfg.state, cfg.tapes, cfg.heads
    moved = _transition(spec, state, runsym, tapes, heads, runhead, run_len)
    if moved is None:
        return _fill(_new(Configuration), state, tapes, heads, log, length,
                     runhead, cfg.buffer, cfg.cycle + 1, cfg.moves_made, "",
                     None, cfg.counts)
    q2, tapes2, heads2, runhead2, append = moved
    counts = cfg.counts
    for i, t in enumerate(tapes):
        t2 = tapes2[i]
        if t2 is not t:
            h = heads[i]
            grown = ((h < len(t2) and t2[h] != BLANK)
                     - (h < len(t) and t[h] != BLANK))
            if grown:
                counts = counts[:i] + (counts[i] + grown,) + counts[i + 1:]
    buffer, moves_made, last_move = cfg.buffer + append, cfg.moves_made, None
    if q2 in spec.move_states:
        log, length = log.extended(length, (("T", buffer),))
        buffer, moves_made, last_move = "", moves_made + 1, buffer
    return _fill(_new(Configuration), q2, tapes2, heads2, log, length,
                 runhead2, buffer, cfg.cycle + 1, moves_made, append,
                 last_move, counts)


def spacecost(cfg: Configuration) -> int:
    """Max count of non-blank cells on any one work tape."""
    return max(cfg.counts, default=0)


# ---------------------------------------------------------------------------
# the stepper contract

class Strategy:
    """Functional stepper: immutable states, feed (the ⊕), step, space."""

    def initial(self):
        raise NotImplementedError

    def feed(self, st, labmoves):
        raise NotImplementedError

    def step(self, st):
        """-> (next state, move string or None)."""
        raise NotImplementedError

    def space(self, st) -> int:
        return 0


class HPMStrategy(Strategy):
    def __init__(self, spec: HPMSpec):
        self.spec = spec

    def initial(self):
        return initial_configuration(self.spec)

    def feed(self, cfg, labmoves):
        return cfg.extend(labmoves)

    def step(self, cfg):
        nxt = step(self.spec, cfg)
        return nxt, nxt.last_move

    def space(self, cfg):
        return spacecost(cfg)


class ScriptStrategy(Strategy):
    """A pure function of (visible run, cycles since last own move)."""

    def __init__(self, fn, name="script"):
        self.fn = fn
        self.name = name

    def initial(self):
        return ((), 0)

    def feed(self, st, labmoves):
        run, waited = st
        return (run + tuple(labmoves), waited)

    def step(self, st):
        run, waited = st
        mv = self.fn(run, waited)
        if mv is None:
            return (run, waited + 1), None
        return (run + (("T", mv),), 0), mv


class StrategyRunner:
    """Stateful per-cycle driver around a Strategy, for the play harness.

    The harness appends each returned move to the run before the next
    poll, so `seen`, the length of the last visible run plus the move
    returned, is how much of the run the strategy has been fed.  The
    visible run may be the harness's own list, which grows after `poll`
    returns, so a runner keeps the count of entries it has read, not
    the run object.
    """

    def __init__(self, strategy: Strategy):
        self.strategy = strategy
        self.st = strategy.initial()
        self.seen = 0

    def poll(self, visible_run):
        if len(visible_run) > self.seen:
            self.st = self.strategy.feed(self.st, visible_run[self.seen:])
        self.st, mv = self.strategy.step(self.st)
        self.seen = len(visible_run) + (mv is not None)
        return [mv] if mv is not None else []

    def spacecost(self):
        return self.strategy.space(self.st)


# ---------------------------------------------------------------------------
# metering

class Meter:
    """Per-background resource maxima per the amplitude/space/time reading.

    `amplitude` and `spacecost` map each background to the largest own
    move magnitude and work-tape cell count seen under it; `max_timecost`
    is the most cycles any own move took since the last event.  The run
    given to successive `record_cycle` calls only extends; `background`
    is a running maximum over the run entries seen so far.
    """

    def __init__(self):
        self.amplitude = {}
        self.spacecost = {}
        self.max_timecost = 0
        self.background = 1
        self._last_event_cycle = 0
        self._seen = 0

    def record_cycle(self, cycle, run, cells, made, env_moved):
        if len(run) > self._seen:
            for label, m in run[self._seen:]:
                if label == "B":
                    self.background = max(self.background, magnitude(m))
            self._seen = len(run)
        bg = self.background
        if cells > self.spacecost.get(bg, -1):
            self.spacecost[bg] = cells
        if env_moved:
            self._last_event_cycle = cycle
        for m in made:
            self.amplitude[bg] = max(self.amplitude.get(bg, 0), magnitude(m))
            self.max_timecost = max(self.max_timecost,
                                    cycle - self._last_event_cycle)
            self._last_event_cycle = cycle


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

    runner: object with poll(visible_run) -> list of moves and spacecost().
    env: callable(visible_run) -> move string or None.
    Both are handed one list that play appends to, so the visible run
    they were given grows after they return: they keep counts of the
    entries they have read, not the run itself.  The result's run is a
    tuple.
    """
    run = []
    meter = Meter()
    poll, space, record = runner.poll, runner.spacecost, meter.record_cycle
    for cycle in range(fuel):
        mv = env(run)
        env_moved = mv is not None
        if env_moved:
            run.append(("B", mv))
        made = poll(run)
        for m in made:
            run.append(("T", m))
        record(cycle, run, space(), made, env_moved)
    return {"run": tuple(run), "meter": meter}


# ---------------------------------------------------------------------------
# sketches

def _track_append(trunc, shape, s, ctx):
    """Advance the buffer-truncation tracker by appended string s.

    shape is the move-shape state of the buffer so far, None once the
    buffer has left every move shape; from then on trunc stays put.
    """
    if shape is None or not s:
        return trunc, shape
    shape, kept = ctx.shapes.scan(s, shape)
    return prudentize(trunc + s[:kept], ctx.threshold), shape


class Sketch:
    """The 8-component compressed machine state.

    Components: (1) state, (2) work-tape contents, (3) work-tape heads,
    (4) run-tape head, (5) moves made, (6) buffer length, (7) string
    appended on the last transition, (8) truncation of the buffer move.
    `_shape`, the buffer's state in the formula's move-shape automaton
    (None once the buffer has left every move shape), keeps component 8
    incrementally correct; it is excluded from equality.
    """

    __slots__ = ("state", "tapes", "heads", "runhead", "moves_made",
                 "buffer_len", "last_append", "trunc", "_shape",
                 "flushed", "flushed_trunc", "flushed_len")

    def __init__(self, state, tapes, heads, runhead, moves_made, buffer_len,
                 last_append, trunc, _shape=0, flushed=False,
                 flushed_trunc=None, flushed_len=0):
        self.state = state
        self.tapes = tuple(tapes)
        self.heads = tuple(heads)
        self.runhead = runhead
        self.moves_made = moves_made
        self.buffer_len = buffer_len
        self.last_append = last_append
        self.trunc = trunc
        self._shape = _shape
        self.flushed = flushed
        self.flushed_trunc = flushed_trunc
        self.flushed_len = flushed_len

    def components(self):
        return (self.state, self.tapes, self.heads, self.runhead,
                self.moves_made, self.buffer_len, self.last_append, self.trunc)

    def __eq__(self, other):
        return isinstance(other, Sketch) and self.components() == other.components()

    def __repr__(self):
        return f"Sketch{self.components()!r}"


def initial_sketch(spec: HPMSpec) -> Sketch:
    return Sketch(
        state=spec.start, tapes=("",) * spec.worktapes,
        heads=(0,) * spec.worktapes, runhead=0, moves_made=0,
        buffer_len=0, last_append="", trunc="")


def sketch_of_configuration(cfg: Configuration, ctx: TruncationContext) -> Sketch:
    trunc, shape = _track_append("", 0, cfg.buffer, ctx)
    return Sketch(
        state=cfg.state, tapes=cfg.tapes, heads=cfg.heads,
        runhead=cfg.runhead, moves_made=cfg.moves_made,
        buffer_len=len(cfg.buffer), last_append=cfg.last_append,
        trunc=trunc, _shape=shape)


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

    def visible(self, m: int) -> int:
        """Number of records before the (m+1)-th T record."""
        return self.top_at[m] if m < len(self.top_at) else len(self._records)

    def locate(self, pos: int):
        """(record index, offset in the record, ordinal of the record) of
        run-tape cell pos, which must lie below the tape length."""
        idx = bisect_right(self.starts, pos) - 1
        return idx, pos - self.starts[idx], self.ordinals[idx]

    def __len__(self):
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def __getitem__(self, i):
        return self._records[i]


def indexed(history) -> History:
    """history itself if it is a History, else a History of its records."""
    return history if isinstance(history, History) else History(history)


def sketch_advance(spec: HPMSpec, s: Sketch, history, symbol_source,
                   ctx: TruncationContext) -> Sketch:
    """One simulated cycle driven by move sizes instead of move contents.

    history: a History or a sequence of (label, size) records;
    symbol_source(entry_index, label, ordinal, offset) resolves the
    offset-th symbol (1-based) of the ordinal-th same-label move.  The
    records visible to the sketch (those before its (moves_made+1)-th T
    record) and the run symbol's record are read off the history's
    indexes, `history_prefix` being the rescanning twin.
    """
    history = indexed(history)
    p = history.starts[history.visible(s.moves_made)]
    q = s.runhead
    if q >= p:
        q, runsym = p, BLANK
    else:
        idx, offset, ordinal = history.locate(q)
        label = history[idx][0]
        runsym = label if offset == 0 else symbol_source(
            idx, label, ordinal, offset)
    moved = _transition(spec, s.state, runsym, s.tapes, s.heads, q, p)
    if moved is None:
        return Sketch(s.state, s.tapes, s.heads, q, s.moves_made,
                      s.buffer_len, "", s.trunc, s._shape)
    q2, tapes, heads, runhead2, append = moved
    buffer_len = s.buffer_len + len(append)
    trunc, shape = _track_append(s.trunc, s._shape, append, ctx)
    if q2 in spec.move_states:
        return Sketch(q2, tapes, heads, runhead2, s.moves_made + 1, 0, append,
                      "", flushed=True, flushed_trunc=trunc,
                      flushed_len=buffer_len)
    return Sketch(q2, tapes, heads, runhead2, s.moves_made, buffer_len,
                  append, trunc, shape)
