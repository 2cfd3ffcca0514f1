"""Space-frugal resimulation wrappers.

The reason wrapper turns a machine into a provident and prudent one: it
keeps only a global history of (label, size) records and replays the
wrapped machine sketch-by-sketch, re-deriving its own past moves through
recursive resimulation instead of storing them.  The history is an
`hpm.History`: next to the records it keeps, as numbers only, the cell
offset at which each record starts, each record's ordinal within its
label and the positions of the T records, so a resimulated cycle finds
its run symbol without rescanning the history.

The unconditional wrapper is a `StrategyRunner` over the machine while
the run stays legal, and retires (optionally after one windup move) as
soon as it turns illegitimate.
"""

from __future__ import annotations

from . import formula as fm
from . import hpm
from .game import (
    GamePosition,
    Semiposition,
    TruncationContext,
    opening,
    track_append,
    windup,
)
from .hpm import (
    History,
    HPMSpec,
    HPMStrategy,
    Sketch,
    StrategyRunner,
    initial_sketch,
    sketch_advance,
)


# replay cycles fetch_symbol tries before giving up on a symbol
FETCH_CAP = 200000


class FetchError(Exception):
    pass


def update_sketch(spec: HPMSpec, history: History, s: Sketch, own_bot_moves,
                  ctx: TruncationContext | None) -> Sketch:
    """One resimulated cycle: ⊥ symbols are read off own_bot_moves, ⊤ ones
    fetched by recursive calls to the module's current fetch_symbol."""
    return sketch_advance(spec, s, history, own_bot_moves, fetch_symbol, ctx)


def fetch_symbol(spec: HPMSpec, history: History, k: int, n: int,
                 own_bot_moves) -> str:
    """The n-th symbol (1-based) of the (k+1)-th 'T' move, by replay.
    A replay reads no truncation, so its sketches track none."""
    top_at = history.top_at
    if k >= len(top_at):
        raise FetchError(f"only {len(top_at)} T-moves recorded, asked for {k}")
    size = history[top_at[k]][1]
    if not (1 <= n <= size):
        raise FetchError(f"offset {n} outside move of size {size}")
    s = initial_sketch(spec)
    for _ in range(FETCH_CAP):
        nxt = update_sketch(spec, history, s, own_bot_moves, None)
        sigma = nxt.last_append
        a, b = s.moves_made, s.buffer_len
        if a == k and b < n <= b + len(sigma):
            return sigma[n - b - 1]
        s = nxt
    raise FetchError("replay did not reproduce the requested symbol")


def _needs_choice(f):
    if not fm.analysis(f).units:
        raise ValueError("wrapper needs a formula with at least one choice operator")


class ReasonRunner:
    """The history-keeping wrapper machine, as a play-harness runner.

    Waits for the constants that instantiate the formula's free
    variables, then repeatedly resimulates the wrapped machine from its
    initial sketch, restarting whenever a globally new move (its own or
    the environment's) enters the history, and emitting the truncation
    of each globally new move of the wrapped machine.  Each ⊥ move a
    stretch is handed becomes a B record at once, and the constants are
    read off the first of them.  A new move of the wrapped machine is
    read off the sketch it was flushed from, as `Sketch` describes, and
    restarts the sketch at once, not at the next cycle, so that each
    globally new move counts one restart even when a ⊥ move arrives at
    that cycle.
    A replay that gives up (`FetchError`) is recorded in `faults`, and
    the faulted runner stays silent: the replay reads only the history
    before the fetched move, which never changes, so a retry would fail
    the same way.  Raises ValueError for a choice-free formula.

    `stretch` is as in `StrategyRunner`, peak 0, and it ends at its
    first move whatever its budget, as that move restarts the sketch.  A
    stretch reads (`_ready`), then advances once per cycle (`_advance`:
    one `update_sketch` call and the emission).  Once an advance returns
    the sketch it was given, the boolean `idle` stops advances until a
    record restarts the sketch: `sketch_advance` depends only on the
    sketch and the history, and a sketch that advances to an equal one
    appended nothing, so its `_shape`, which `==` ignores, is equal too:
    each later advance would return it again.  An idle, faulted or
    unopened runner uses up its limit in one call."""

    def __init__(self, spec: HPMSpec, f):
        _needs_choice(f)
        self.spec = spec
        self.formula = f
        self.history = History()
        self.own_bots = []
        self.ctx = None
        self.sketch = None
        self.restarts = 0
        self.faults = []
        self.idle = False

    def stretch(self, incoming, limit, budget=1):
        if self._ready(incoming):
            for used in range(1, limit + 1):
                mv = self._advance()
                if mv is not None:
                    return used, 0, [(used, mv)]
                if self.idle or self.faults:
                    break
        return limit, 0, []

    def _ready(self, incoming):
        """Read the ⊥ moves handed, the opening and the restarts: ->
        whether an advance is due (opened, not faulted, not idle)."""
        if self.faults:
            return False
        restart = self.ctx is None  # the opening, once it is complete
        for _, m in incoming:
            self.own_bots.append(m)
            self.history.append(("B", len(m)))
            restart = True
        if self.ctx is None:
            opened = opening(fm.free_vars(self.formula),
                             [("B", m) for m in self.own_bots])
            if opened is None:
                return False
            self.ctx = TruncationContext(self.formula, opened[0])
        if restart:
            self.sketch = initial_sketch(self.spec)
            self.restarts += 1
            self.idle = False
        return not self.idle

    def _advance(self):
        """One resimulated cycle of the sketch: -> the move it emits, or
        None."""
        s = self.sketch
        try:
            nxt = update_sketch(self.spec, self.history, s, self.own_bots,
                                self.ctx)
        except FetchError as exc:
            self.faults.append(str(exc))
            return None
        if nxt.moves_made > len(self.history.top_at):
            append = nxt.last_append
            self.history.append(("T", s.buffer_len + len(append)))
            trunc, _ = track_append(s.trunc, s._shape, append, self.ctx)
            self.sketch = initial_sketch(self.spec)
            self.restarts += 1
            return trunc
        self.idle = nxt.state == s.state and nxt == s
        self.sketch = nxt
        return None


class VasaRunner(StrategyRunner):
    """The retire-on-illegality wrapper, with constants fixed up front:
    a `StrategyRunner` over the machine while the run stays legal.

    Each stretch first checks the whole run, from the start position:
    the configuration's run, which is the ⊥ moves fed and the moves
    made in run order, and then the ⊥ moves it is handed.  It is checked
    before the machine is fed, so the windup reads the configuration
    without the entries that made the run illegal, and each stretch ends
    at the machine's first move whatever its budget, so that move is
    checked before the next is made.  So a stretch handed no ⊥ move
    after one that made no move finds the run already checked, and
    checks nothing.  The stretch that retires the runner is a stretch of
    one cycle; a retired runner never moves again, so it uses up the
    limit in one call; both read the cells in use through
    `hpm.spacecost`.
    Raises ValueError for a choice-free formula and KeyError when c_env
    misses one of f's free variables.
    """

    def __init__(self, spec: HPMSpec, f, c_env):
        _needs_choice(f)
        super().__init__(HPMStrategy(spec))
        self.retired = False
        self.start = GamePosition.start(f, c_env)

    # a stretch of one cycle, kept because perfbench/tracer.py wraps it
    def poll(self, incoming):
        return [m for _, m in self.stretch(incoming, 1)[2]]

    def stretch(self, incoming, limit, budget=1):
        if self.retired:
            return limit, hpm.spacecost(self.st), []
        if (incoming or self.st.last_move is not None) and \
                self.start.advance(self.st.run + incoming)[1] is not None:
            self.retired = True
            return 1, hpm.spacecost(self.st), self._windup()
        return StrategyRunner.stretch(self, incoming, limit)

    def _windup(self):
        """The retiring stretch's moves: the open buffer wound up, if it
        can be."""
        buf = self.st.buffer
        if not buf:
            return []
        tops = tuple(lm for lm in self.st.run if lm[0] == "T")
        v = Semiposition(tops + (("T", buf),), open_last=True)
        try:
            return [(1, buf + windup(v, self.start.formula, self.start.c_env))]
        except ValueError:
            return []
