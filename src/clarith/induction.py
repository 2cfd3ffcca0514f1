"""The synchronizer: organs, bodies, aggregations, Sim, and Main.

Given a solver of F(0) and a solver of F(x) -> F(x'), builds a runner
for the conclusion  x <= b|s| -> F(x).  The bookkeeping follows the
entry/aggregation discipline: simulated premise machines communicate
only through recorded organs, with scales standing for step budgets, so
nothing a simulation learns is ever trusted beyond its replayable part.
"""

from __future__ import annotations

import sys
import weakref

from . import formula as fm
from .bounds import bitsize, statute_limit, unarify
from .game import (TruncationContext, constant_moves, constant_value,
                   int_to_numer, prudentize)
from .hpm import HPMStrategy

DEFAULT_MACHINE_CENSUS = {"r": 1, "g": 1, "q": 2}


# ---------------------------------------------------------------------------
# organs and bodies

def organ(payload, scale):
    if scale < 1:
        raise ValueError("organ scale must be >= 1")
    return (tuple(payload), int(scale))


# ---------------------------------------------------------------------------
# Sim

class SimContractError(Exception):
    pass


def check_sim_triple(a, b, n):
    if not b:
        raise SimContractError("right body must be nonempty")
    if n == 0 and a:
        raise SimContractError("left body must be empty when n = 0")


def _sim_stepping(a, b, n, strategy, state, consequent=(), q=0):
    """The replay loop from state, yielding once per simulated cycle.

    Each cycle is one `strategy.stretch(t, 1)`, and U, the most
    work-tape cells in use, is taken from its peak: the cells in use
    after that cycle.  A stretch of more cycles would run past the
    point where the synchronizer checks for a new consequent move.
    Returns (final signed organ, U), or None as soon as consequent
    holds more than q moves when a cycle's yield is resumed.  The result
    organ is `organ` of its moves and the last replayed organ's scale,
    made as a tuple: that scale was checked when its organ was.  state is
    a value, so one opened premise state serves any number of replays;
    an organ with no moves is fed nothing.
    """
    check_sim_triple(a, b, n)
    stretch = strategy.stretch
    w, u = state, 0
    nu, psi = [], []
    ai, bi = 0, 1
    sign, (payload, p) = "+", b[0]
    while True:
        if payload:
            prefix = "" if n == 0 else ("1." if sign == "+" else "0.")
            w = strategy.feed(w, tuple([("B", prefix + m) for m in payload]))
        t = w
        for _ in range(p):
            t, _, cells, made = stretch(t, 1)
            if cells > u:
                u = cells
            for _, mv in made:
                w = t  # witnessed; a stray unprefixed move is recorded nowhere
                if n == 0:
                    nu.append(mv)
                elif mv.startswith("1."):
                    nu.append(mv[2:])
                elif mv.startswith("0."):
                    psi.append(mv[2:])
            yield
            if len(consequent) > q:
                return None
        if nu:
            if bi == len(b):
                return ("+", (tuple(nu), p)), u
            sign, (payload, p), nu = "+", b[bi], []
            bi += 1
        else:
            if ai == len(a):
                return ("-", (tuple(psi), p)), u
            sign, (payload, p), psi = "-", a[ai], []
            ai += 1


def sim(a, b, n, strategy):
    """Replay strategy against the adversary the two bodies encode, to the end."""
    gen = _sim_stepping(a, b, n, strategy, strategy.initial())
    try:
        while True:
            next(gen)
    except StopIteration as fin:
        return fin.value


# ---------------------------------------------------------------------------
# aggregations

_LATER_CONDITIONS = ("violated-iii", "violated-iv", "violated-v", "violated-vi", "ok")


def validate_aggregation(entries, k) -> str:
    """'ok' or the first violated condition among i..vi, in one pass."""
    if not entries or entries[-1][0] != k or len(entries[-1][1]) % 2 == 0:
        return "violated-i"
    first = 4  # index into _LATER_CONDITIONS of the first one broken so far
    # no len() reaches sys.maxsize, and an odd size is at least 1
    prev_idx, prev_even, prev_odd = entries[0][0] - 1, sys.maxsize, 0
    for idx, body in entries[:-1]:  # the last, odd, is read by i and ii only
        if idx <= prev_idx:
            return "violated-ii"
        prev_idx, size = idx, len(body)
        if size % 2:
            if prev_odd >= size and first > 2:
                first = 2
            prev_odd = size
        elif prev_odd:
            first = 0
        elif prev_even <= size:
            first = 1  # only iv and vi are broken before any odd size
        else:
            if size == 0 and first == 4:
                first = 3
            prev_even = size
    return "violated-ii" if k <= prev_idx else _LATER_CONDITIONS[first]


def central_triple(entries, k):
    """(left, right, n, pos) of the central entry, entries[pos]."""
    status = validate_aggregation(entries, k)
    if status != "ok":
        raise ValueError(f"invalid aggregation: {status}")
    pos = 0
    while len(entries[pos][1]) % 2 == 0:  # condition i: the last is odd
        pos += 1
    idx, body = entries[pos]
    left = ()
    if pos and entries[pos - 1][0] == idx - 1:
        left = tuple(entries[pos - 1][1])
    return left, tuple(body), idx, pos


# ---------------------------------------------------------------------------
# Main

class Record:
    """One iteration of Main's trace, read by key: `entries`, the
    aggregation as the iteration began, `U`, `classification`,
    `master_scale`, of the master's last organ, and `validity`, always
    "ok" as `central_triple` rejects anything else.  Records compare
    equal when their values do."""

    __slots__ = ("entries", "U", "classification", "master_scale")
    validity = "ok"

    def __init__(self, entries, U, classification, master_scale):
        self.entries, self.U = entries, U
        self.classification, self.master_scale = classification, master_scale

    def __getitem__(self, key):
        return getattr(self, key)

    def __eq__(self, other):
        if type(other) is not Record:
            return NotImplemented
        return all(self[key] == other[key] for key in Record.__slots__)


class InductionRunner:
    """The synchronizing machine, packaged for the play harness.

    Main's loop appends a `Record`, slotted and read by key, per
    completed iteration to `trace`, the list it held when the constants
    arrived: a tuple snapshot of the aggregation as the iteration began
    and the classification it earned, over whose start states ranks are
    computed.  Bodies are immutable tuples, so a record shares them with
    the live aggregation and later iterations never alter it.  Each
    iteration validates its start aggregation once and re-simulates its
    premise from that premise's opened state: each premise is fed the
    constants' moves once per run, and a level n > 0 feeds the step
    premise's opened state just #<n-1>.  That is sound because states
    are values: a scripted state is a tuple, and an HPMStrategy
    configuration shares its RunLog, whose fork rule copies the prefix
    when an older configuration is extended, so no iteration alters an
    opened state.  No state is kept per level, as that would grow with
    k.  The count of absorbed consequent moves is carried, not recounted.
    The first ⊥ moves handed are the constants (the free variables',
    then k).  A stretch is of one cycle whatever its limit and budget.
    `locked` turns true when a locking iteration is recorded.  `faults`
    stays empty: an invalid aggregation raises rather than being
    recorded as a fault.  `census` and `statute_params` (the body
    formula's census, the statute's parameters) are set at construction,
    `rank_base`, the iteration ranks' digit base, once the constants
    give ℓ.  The statute's r, g and q are the premises' largest,
    DEFAULT_MACHINE_CENSUS for a scripted one.  At k = 0 Main plays the
    base premise itself, fed each consequent move, with no iteration.
    The generator running Main holds the runner through a weak proxy:
    the one cycle the package breaks by design, so that a dropped runner
    frees its trace at once, not at the next full collection.
    """

    def __init__(self, n_strategy, k_strategy, conclusion):
        root = conclusion
        while isinstance(root, fm.Blind):
            root = root.body
        if not isinstance(root, fm.ChoiceAll) or root.kind != "value":
            raise ValueError("conclusion must start with a value-bounded choice-universal")
        self.body_formula = root.body
        self.bound = root.bound
        self.var = root.var
        self.free = fm.free_vars(conclusion)
        self.n_strategy = n_strategy
        self.k_strategy = k_strategy
        self.trace = []
        self.faults = []
        self.locked = False
        self._seen = 0
        self._constants = []
        # environment moves inside the consequent, beyond the constants
        self._consequent = []
        self._out = []
        self._gen = InductionRunner._main(weakref.proxy(self))
        body = fm.analysis(self.body_formula)
        census = self.census = body.census
        premises = [s.spec.census() if isinstance(s, HPMStrategy)
                    else DEFAULT_MACHINE_CENSUS for s in (n_strategy, k_strategy)]
        self.statute_params = {
            **{key: max(c[key] for c in premises) for key in "rgq"},
            "e": census["e"],
            "v": len([v for v in body.free if v != self.var]),
            "h": census["h"],
            "G": body.aggregate["G"],
        }
        self.rank_base = None

    # -- harness protocol --------------------------------------------------

    def stretch(self, incoming, limit, budget=1):
        if incoming:
            self._take(incoming)
        self._out = []
        next(self._gen, None)
        return 1, 0, [(1, m) for m in self._out]

    # a stretch of one cycle handed the whole visible run, which only
    # extends, read past `_seen`: perfbench's induct session calls it
    def poll(self, visible_run):
        if len(visible_run) > self._seen:
            self._take(visible_run[self._seen:])
            self._seen = len(visible_run)
        self._out = []
        next(self._gen, None)
        return self._out

    def _take(self, labmoves):
        """Read the ⊥ moves among labmoves: constants, then consequent
        moves."""
        for label, m in labmoves:
            if label != "B":
                continue
            if len(self._constants) <= len(self.free):
                self._constants.append(constant_value(m))
            elif m.startswith("1."):
                self._consequent.append(m[2:])

    # -- the generator -------------------------------------------------------

    def _main(self):
        while len(self._constants) <= len(self.free):
            yield
        trace = self.trace  # read after the wait: a replaced one takes the records
        *values, k = self._constants
        c_env = dict(zip(self.free, values))
        limit = self.bound.evaluate(c_env)
        if k > limit:
            return  # the antecedent fails; an empty T-run wins

        game_env = dict(c_env)
        game_env[self.var] = k
        threshold = TruncationContext(self.body_formula, game_env).threshold
        ell = bitsize(max([k] + list(c_env.values()), default=0))
        self.rank_base = rank_base(ell, self.census, self.statute_params,
                                   unarify(self.bound))

        opening = constant_moves(values)
        n_strategy, k_strategy = self.n_strategy, self.k_strategy
        n_open = n_strategy.feed(n_strategy.initial(), opening)
        consequent = self._consequent
        if k == 0:  # the base premise plays the consequent as it stands
            fed = 0
            while True:
                if len(consequent) > fed:
                    n_open = n_strategy.feed(
                        n_open, tuple([("B", m) for m in consequent[fed:]]))
                    fed = len(consequent)
                n_open, _, _, made = n_strategy.stretch(n_open, 1)
                self._out.extend("1." + mv for _, mv in made)
                yield
        k_open = k_strategy.feed(k_strategy.initial(), opening)

        # (index, body) pairs; each body a tuple of organs
        entries = [(k, (organ((), 1),))]
        u_total = 0
        q = 0  # consequent moves absorbed into the master body

        def absorb_new_move():
            nonlocal q
            theta_p = prudentize(consequent[q], threshold)
            q += 1
            body = entries[-1][1]
            payload, _ = body[-1]
            entries[-1] = (k, body[:-1] + (organ(payload + (theta_p,), 1),))

        while True:
            start = tuple(entries)
            left, right, n, pos = central_triple(start, k)
            master = start[-1][1]
            if n:
                strategy = k_strategy
                state = k_strategy.feed(k_open, (("B", "#" + int_to_numer(n - 1)),))
            else:
                strategy, state = n_strategy, n_open
            # the even organs of left, the odd ones of right; no sign if
            # a new consequent move interrupts
            result = yield from _sim_stepping(
                left[1::2], right[0::2], n, strategy, state, consequent, q)
            (sign, org), u = result or ((None, None), 0)
            if u > u_total:
                u_total = u
            if sign == "+" and n < k:
                body = entries[pos][1] + (org,)
                entries[pos] = (n, body)
                # evens fall before pos: those breaking iv now end there
                end, size = pos, len(body)
                while pos and len(entries[pos - 1][1]) <= size:
                    pos -= 1
                del entries[pos:end]
                classification = "repeating(2.1.1)"
            elif sign == "+":
                omega, scale = org
                entries[-1] = (k, master + (org, organ((), scale)))
                self._out.extend("1." + m for m in omega)
                classification = "locking(2.1.2)"
                self.locked = True
            elif sign == "-" and n > 0:
                if pos and entries[pos - 1][0] == n - 1:
                    body = entries[pos - 1][1] + (org,)
                    entries[pos - 1] = (n - 1, body)
                else:
                    body = (org,)
                    entries.insert(pos, (n - 1, body))
                    pos += 1
                # common odds rise from pos: those breaking v now start there
                end, size = pos, len(body)
                while end < len(entries) - 1 and len(entries[end][1]) <= size:
                    end += 1
                del entries[pos:end]
                classification = "repeating(2.2.1)"
            else:  # a restart keeps only the master, and resets U
                if sign is None:
                    absorb_new_move()
                    classification = "restarting(new-move)"
                elif master[-1][1] < statute_limit(ell, u_total, self.statute_params):
                    payload, v = master[-1]
                    entries[-1] = (k, master[:-1] + (organ(payload, v * 2),))
                    classification = "restarting(2.2.2.1)"
                else:
                    while len(consequent) <= q:
                        yield
                    absorb_new_move()
                    classification = "restarting(2.2.2.2)"
                u_total = 0
                del entries[:-1]
            trace.append(Record(start, u_total, classification, master[-1][1]))


def build_induction_solver(n_strategy, k_strategy, conclusion) -> InductionRunner:
    return InductionRunner(n_strategy, k_strategy, conclusion)


# ---------------------------------------------------------------------------
# diagnostics

def rank_base(ell, census, statute_params, f_induction):
    """The digit base for iteration ranks.

    f_induction caps the induction variable, so every index digit
    stays below the base.
    """
    limit = statute_limit(ell, 0, statute_params)
    d = 2 * census["e_top"] + 1
    return max(bitsize(limit), f_induction(ell), d, census["e_bot"]) + 1


def iteration_rank(record, base, census):
    """Weighted digit sum over the aggregation's shape."""
    d = 2 * census["e_top"] + 1
    k, master = record["entries"][-1]  # at index k by condition i
    digits = [0] * (d + 4)
    for idx, body in record["entries"][:-1]:
        j = len(body)
        if j > d:
            continue
        digits[j] = idx + 1 if j % 2 == 0 else k - idx
    digits[d + 1] = bitsize(record["master_scale"])
    digits[d + 2] = len(master[-1][0])
    digits[d + 3] = len(master)
    return sum(c * base ** j for j, c in enumerate(digits))


def diagnostics(runner: InductionRunner):
    """Per-iteration ranks, classifications, validity, and birthtimes."""
    ranks = [iteration_rank(rec, runner.rank_base, runner.census)
             for rec in runner.trace]
    classifications = [rec["classification"] for rec in runner.trace]
    validity = [rec["validity"] for rec in runner.trace]
    max_entry = max((len(body) for rec in runner.trace
                     for _, body in rec["entries"]), default=0)
    birthtimes = {}
    for i, rec in enumerate(runner.trace):
        for idx, _ in rec["entries"]:
            birthtimes.setdefault(idx, i)
    locking = [i for i, c in enumerate(classifications) if c.startswith("locking")]
    return {
        "iterations": len(runner.trace),
        "ranks": ranks,
        "classifications": classifications,
        "validity": validity,
        "max_entry_size": max_entry,
        "birthtimes": birthtimes,
        "locking": locking,
    }
