"""Space-frugal resimulation wrappers.

The reason wrapper turns a machine into a provident and prudent one: it
keeps only a global history of (label, size) records and replays the
wrapped machine sketch-by-sketch, re-deriving its own past moves through
recursive resimulation instead of storing them.  The history is an
`hpm.History`: next to the records it keeps, as numbers only, the cell
offset at which each record starts, each record's ordinal within its
label and the positions of the T records, so a resimulated cycle finds
its run symbol without rescanning the history.

The unconditional wrapper mimics a machine move for move while the seen
run stays legal, and retires (optionally after one windup move) as soon
as it turns illegitimate.
"""

from __future__ import annotations

from . import formula as fm
from .game import (
    GamePosition,
    IllegalMove,
    Semiposition,
    TruncationContext,
    leading_constants,
    windup,
)
from .hpm import (
    History,
    HPMSpec,
    Sketch,
    history_prefix,
    indexed,
    initial_configuration,
    initial_sketch,
    sketch_advance,
    spacecost,
    step,
)


# replay cycles fetch_symbol tries before giving up on a symbol
FETCH_CAP = 200000


class FetchError(Exception):
    pass


def h_index(history, m: int) -> int:
    """Number of history entries before the (m+1)-th 'T' entry."""
    return len(history_prefix(history, m))


def update_sketch(spec: HPMSpec, history, s: Sketch, own_bot_moves,
                  ctx: TruncationContext, instrument=None) -> Sketch:
    """One resimulated cycle; ⊥ symbols come from own_bot_moves, ⊤ symbols
    from recursive fetch_symbol calls."""
    history = indexed(history)
    if instrument is not None:
        caller_index = h_index(history, s.moves_made)
        instrument.append(("update", caller_index))

    def source(entry_index, label, ordinal, offset):
        if label == "B":
            return own_bot_moves[ordinal][offset - 1]
        if instrument is not None:
            instrument.append(
                ("update->fetch", caller_index, h_index(history, ordinal)))
        return fetch_symbol(spec, history, ordinal, offset, own_bot_moves,
                            ctx, instrument)

    return sketch_advance(spec, s, history, source, ctx)


def fetch_symbol(spec: HPMSpec, history, k: int, n: int, own_bot_moves,
                 ctx: TruncationContext, instrument=None) -> str:
    """The n-th symbol (1-based) of the (k+1)-th 'T' move, by replay."""
    history = indexed(history)
    top_at = history.top_at
    if k >= len(top_at):
        raise FetchError(f"only {len(top_at)} T-moves recorded, asked for {k}")
    size = history[top_at[k]][1]
    if not (1 <= n <= size):
        raise FetchError(f"offset {n} outside move of size {size}")
    if instrument is not None:
        my_index = h_index(history, k)
    s = initial_sketch(spec)
    for _ in range(FETCH_CAP):
        if instrument is not None:
            instrument.append(
                ("fetch->update", my_index, h_index(history, s.moves_made)))
        nxt = update_sketch(spec, history, s, own_bot_moves, ctx, instrument)
        sigma = nxt.last_append
        a, b = s.moves_made, s.buffer_len
        if a == k and b < n <= b + len(sigma):
            return sigma[n - b - 1]
        s = nxt
    raise FetchError("replay did not reproduce the requested symbol")


class ReasonRunner:
    """The history-keeping wrapper machine, as a play-harness runner.

    Waits for the constants that instantiate the formula's free
    variables, then repeatedly resimulates the wrapped machine from its
    initial sketch, restarting whenever a globally new move (its own or
    the environment's) enters the history, and emitting the truncation
    of each globally new move of the wrapped machine.  Each poll reads
    only the run entries added since the last one, so the visible run
    must only extend from poll to poll.
    """

    def __init__(self, spec: HPMSpec, f, instrument=None):
        self.spec = spec
        self.formula = f
        self.history = History()
        self.own_bots = []
        self.seen = 0
        self.ctx = None
        self.sketch = None
        self.restarts = 0
        self.instrument = instrument
        self.faults = []

    def _record_bots(self):
        """Append the B records not yet in the history; whether any were."""
        history = self.history
        fresh = self.own_bots[history.bots:]
        for m in fresh:
            history.append(("B", len(m)))
        return bool(fresh)

    def poll(self, visible_run):
        for label, m in visible_run[self.seen:]:
            if label == "B":
                self.own_bots.append(m)
        self.seen = len(visible_run)
        if self.ctx is None:
            free = fm.free_vars(self.formula)
            consts = leading_constants(visible_run, len(free))
            if consts is None:
                return []
            self.ctx = TruncationContext(self.formula, dict(zip(free, consts)))
            self._record_bots()
            self.sketch = initial_sketch(self.spec)
            self.restarts += 1
        elif self._record_bots():
            self.sketch = initial_sketch(self.spec)
            self.restarts += 1
        try:
            nxt = update_sketch(self.spec, self.history, self.sketch,
                                self.own_bots, self.ctx, self.instrument)
        except FetchError as exc:
            self.faults.append(str(exc))
            return []
        if nxt.flushed and nxt.moves_made > len(self.history.top_at):
            self.history.append(("T", nxt.flushed_len))
            self.sketch = initial_sketch(self.spec)
            self.restarts += 1
            return [nxt.flushed_trunc]
        self.sketch = nxt
        return []

    def spacecost(self):
        return 0


def build_reason_wrapper(spec: HPMSpec, f, instrument=None) -> ReasonRunner:
    if not fm.analysis(f).units:
        raise ValueError("wrapper needs a formula with at least one choice operator")
    return ReasonRunner(spec, f, instrument)


class VasaRunner:
    """The retire-on-illegality wrapper, with constants fixed up front.

    Legality is tracked incrementally: the game position of the run seen
    so far is kept, and each poll applies only the entries added since,
    so the visible run must only extend from poll to poll.
    """

    def __init__(self, spec: HPMSpec, f, c_env):
        self.spec = spec
        self.formula = f
        self.c_env = dict(c_env)
        self.cfg = initial_configuration(spec)
        self.retired = False
        self.position = GamePosition.start(f, self.c_env)
        self.checked = 0

    def _turned_illegal(self, visible_run):
        """Apply the entries not yet checked; whether one is illegal."""
        for i in range(self.checked, len(visible_run)):
            label, move = visible_run[i]
            try:
                self.position = self.position.apply(label, move, i)
            except IllegalMove:
                return True
        self.checked = len(visible_run)
        return False

    def poll(self, visible_run):
        if self.retired:
            return []
        if self._turned_illegal(visible_run):
            self.retired = True
            buf = self.cfg.buffer
            tops = tuple(lm for lm in self.cfg.run if lm[0] == "T")
            if not buf:
                return []
            v = Semiposition(tops + (("T", buf),), open_last=True)
            try:
                omega = windup(v, self.formula, self.c_env)
            except ValueError:
                return []
            return [buf + omega]
        if len(visible_run) > self.cfg.length:
            self.cfg = self.cfg.extend(visible_run[self.cfg.length:])
        self.cfg = step(self.spec, self.cfg)
        return [self.cfg.last_move] if self.cfg.last_move is not None else []

    def spacecost(self):
        return spacecost(self.cfg)


def build_unconditional_wrapper(spec: HPMSpec, f, c_env) -> VasaRunner:
    """Raises ValueError for a choice-free formula and KeyError when
    c_env misses one of f's free variables."""
    if not fm.analysis(f).units:
        raise ValueError("wrapper needs a formula with at least one choice operator")
    return VasaRunner(spec, f, c_env)
