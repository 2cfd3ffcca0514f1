"""The synchronizer: organs, bodies, aggregations, Sim, and Main.

Given a solver of F(0) and a solver of F(x) -> F(x'), builds a runner
for the conclusion  x <= b|s| -> F(x).  The bookkeeping follows the
entry/aggregation discipline: simulated premise machines communicate
only through recorded organs, with scales standing for step budgets, so
nothing a simulation learns is ever trusted beyond its replayable part.
"""

from __future__ import annotations

from . import formula as fm
from .bounds import bitsize, statute_limit, unarify
from .game import TruncationContext, int_to_numer, leading_constants, prudentize

DEFAULT_MACHINE_CENSUS = {"r": 1, "g": 1, "q": 2}


# ---------------------------------------------------------------------------
# organs and bodies

def organ(payload, scale):
    if scale < 1:
        raise ValueError("organ scale must be >= 1")
    return (tuple(payload), int(scale))


def body_project(b, parity):
    if parity == "odd":
        return tuple(b[0::2])
    if parity == "even":
        return tuple(b[1::2])
    raise ValueError(f"parity must be odd or even, got {parity!r}")


# ---------------------------------------------------------------------------
# Sim

class SimContractError(Exception):
    pass


def check_sim_triple(a, b, n):
    if not b:
        raise SimContractError("right body must be nonempty")
    if n == 0 and a:
        raise SimContractError("left body must be empty when n = 0")


def _sim_stepping(a, b, n, strategy):
    """The replay loop, yielding once per simulated step.

    Returns (final signed organ, max work-tape cells).
    """
    check_sim_triple(a, b, n)
    w = strategy.initial()
    u = 0
    nu, psi = [], []
    ai, bi = 0, 1
    sign, org = "+", b[0]
    while True:
        payload, p = org
        prefix = "" if n == 0 else ("1." if sign == "+" else "0.")
        w = strategy.feed(w, tuple(("B", prefix + m) for m in payload))
        t = w
        for _ in range(p):
            t, mv = strategy.step(t)
            u = max(u, strategy.space(t))
            if mv is not None:
                if n == 0:
                    nu.append(mv)
                    w = t
                elif mv.startswith("1."):
                    nu.append(mv[2:])
                    w = t
                elif mv.startswith("0."):
                    psi.append(mv[2:])
                    w = t
                else:
                    w = t  # stray unprefixed move: witnessed, recorded nowhere
            yield
        if nu:
            s = ("+", organ(nu, p))
            if bi == len(b):
                return s, u
            bi += 1
            sign, org = "+", b[bi - 1]
            nu = []
        else:
            s = ("-", organ(psi, p))
            if ai == len(a):
                return s, u
            ai += 1
            sign, org = "-", a[ai - 1]
            psi = []


def _drain(gen):
    while True:
        try:
            next(gen)
        except StopIteration as fin:
            return fin.value


def sim(a, b, n, strategy):
    """Replay strategy against the adversary the two bodies encode."""
    return _drain(_sim_stepping(a, b, n, strategy))


# ---------------------------------------------------------------------------
# aggregations

_LATER_CONDITIONS = ("violated-iii", "violated-iv", "violated-v", "violated-vi", "ok")


def validate_aggregation(entries, k) -> str:
    """'ok' or the first violated condition among i..vi, in one pass."""
    if not entries or entries[-1][0] != k or len(entries[-1][1]) % 2 == 0:
        return "violated-i"
    first = 4  # index into _LATER_CONDITIONS of the first one broken so far
    prev_idx = prev_even = prev_odd = None
    last = len(entries) - 1
    for pos, (idx, body) in enumerate(entries):
        if prev_idx is not None and idx <= prev_idx:
            return "violated-ii"
        prev_idx, size = idx, len(body)
        if size % 2 == 0:
            if prev_odd is not None:
                first = 0
            elif prev_even is not None and prev_even <= size:
                first = min(first, 1)
            elif size == 0:
                first = min(first, 3)
            prev_even = size
        elif pos < last:
            if prev_odd is not None and prev_odd >= size:
                first = min(first, 2)
            prev_odd = size
    return _LATER_CONDITIONS[first]


def central_triple(entries, k):
    status = validate_aggregation(entries, k)
    if status != "ok":
        raise ValueError(f"invalid aggregation: {status}")
    for pos, (idx, body) in enumerate(entries):
        if len(body) % 2 == 1:
            left = ()
            if pos > 0 and entries[pos - 1][0] == idx - 1:
                left = tuple(entries[pos - 1][1])
            return left, tuple(body), idx
    raise AssertionError("aggregation has no odd-size entry")


def master_parts(entries):
    idx, body = entries[-1]
    payload, scale = body[-1]
    return {"body": tuple(body), "organ": body[-1], "payload": payload, "scale": scale}


# ---------------------------------------------------------------------------
# Main

class PrefixedStrategy:
    """A strategy whose initial state has some ⊥-moves already fed."""

    def __init__(self, inner, prefix_moves):
        self.inner = inner
        self.prefix = tuple(("B", m) for m in prefix_moves)

    def initial(self):
        return self.inner.feed(self.inner.initial(), self.prefix)

    def feed(self, st, labmoves):
        return self.inner.feed(st, labmoves)

    def step(self, st):
        return self.inner.step(st)

    def space(self, st):
        return self.inner.space(st)


class InductionRunner:
    """The synchronizing machine, packaged for the play harness.

    The trace records, per completed iteration, the aggregation as it
    stood when the iteration began plus the classification the
    iteration earned; ranks are computed over these start states.
    Bodies are immutable tuples, replaced on every change, so a record
    shares them with the live aggregation and later iterations never
    alter it.  Each iteration validates its start aggregation once.
    The visible run given to successive polls only extends, and may
    grow after a poll returns: each poll reads just the entries past the
    count it has read, and `run` is the run object itself, read only for
    the leading constants.  `locked` turns
    true when a locking iteration is recorded.  `faults` stays empty:
    an invalid aggregation raises rather than being recorded as a fault.
    """

    def __init__(self, n_strategy, k_strategy, conclusion, machine_census=None):
        root = conclusion
        while isinstance(root, (fm.BlindAll, fm.BlindEx)):
            root = root.body
        if not isinstance(root, fm.ChoiceAll) or root.kind != "value":
            raise ValueError("conclusion must start with a value-bounded choice-universal")
        self.conclusion = conclusion
        self.root = root
        self.body_formula = root.body
        self.bound = root.bound
        self.var = root.var
        self.free = fm.free_vars(conclusion)
        self.n_strategy = n_strategy
        self.k_strategy = k_strategy
        self.machine_census = dict(DEFAULT_MACHINE_CENSUS, **(machine_census or {}))
        self.trace = []
        self.faults = []
        self.locked = False
        self.run = ()
        self._seen = 0
        # environment moves inside the consequent, beyond the constants
        self._consequent = []
        self._constants_unseen = len(self.free) + 1
        self._out = []
        self._gen = self._main()
        self._done = False
        self._diag_base = None

    # -- harness protocol --------------------------------------------------

    def poll(self, visible_run):
        for label, m in visible_run[self._seen:]:
            if label != "B":
                continue
            if self._constants_unseen:
                self._constants_unseen -= 1
            elif m.startswith("1."):
                self._consequent.append(m[2:])
        self._seen = len(visible_run)
        self.run = visible_run
        if self._done:
            return []
        self._out = []
        try:
            next(self._gen)
        except StopIteration:
            self._done = True
        return self._out

    def spacecost(self):
        return 0

    # -- plumbing ------------------------------------------------------------

    def _strategy_for(self, n, c_moves):
        if n == 0:
            return PrefixedStrategy(self.n_strategy, c_moves)
        pre = list(c_moves) + ["#" + int_to_numer(n - 1)]
        return PrefixedStrategy(self.k_strategy, pre)

    def _record(self, start, u, classification, k):
        master = master_parts(start)
        self.trace.append({
            "entries": start,
            "U": u,
            "classification": classification,
            "master_scale": master["scale"],
            "master_payload_moves": len(master["payload"]),
            "master_body_size": len(master["body"]),
            "validity": "ok",  # central_triple rejects anything else
            "k": k,
        })

    # -- the generator -------------------------------------------------------

    def _main(self):
        while (consts := leading_constants(self.run, len(self.free) + 1)) is None:
            yield
        *values, k = consts
        c_env = dict(zip(self.free, values))
        limit = self.bound.evaluate(c_env)
        if k > limit:
            return  # the antecedent fails; an empty T-run wins
        c_moves = ["#" + int_to_numer(c_env[v]) for v in self.free]

        game_env = dict(c_env)
        game_env[self.var] = k
        ctx = TruncationContext(self.body_formula, game_env)
        census = ctx.analysis.census
        agg = ctx.analysis.aggregate
        ell = bitsize(max([k] + list(c_env.values()), default=0))
        statute_params = {
            "r": self.machine_census["r"],
            "g": self.machine_census["g"],
            "q": self.machine_census["q"],
            "e": census["e"],
            "v": len([v for v in ctx.analysis.free if v != self.var]),
            "h": census["h"],
            "G": agg["G"],
        }
        self._diag_base = {
            "ell": ell, "census": census, "agg": agg,
            "statute_params": statute_params, "k": k,
            "f_induction": unarify(self.bound),
        }

        if k == 0:
            yield from self._replay_zero(c_moves)
            return

        # (index, body) pairs; each body a tuple of organs
        entries = [(k, (organ((), 1),))]
        consequent = self._consequent
        u_total = 0

        def absorb_new_move(q):
            theta_p = prudentize(consequent[q], ctx.threshold)
            body = entries[-1][1]
            payload, _ = body[-1]
            entries[-1] = (k, body[:-1] + (organ(payload + (theta_p,), 1),))

        while True:
            start = entries[:]
            left, right, n = central_triple(start, k)
            master = start[-1][1]
            # consequent moves already absorbed into the master body
            q = sum(len(payload) for payload, _ in body_project(master, "odd"))
            strategy = self._strategy_for(n, c_moves)
            gen = _sim_stepping(body_project(left, "even"),
                                body_project(right, "odd"), n, strategy)
            result = None  # stays None when a new move interrupts the sim
            while True:
                try:
                    next(gen)
                except StopIteration as fin:
                    result = fin.value
                    break
                yield
                if len(consequent) > q:
                    break
            if result is not None:
                (sign, (omega, scale)), u = result
                u_total = max(u, u_total)
            if result is None:
                absorb_new_move(q)
                classification = "restarting(new-move)"
            elif sign == "+" and n < k:
                pos = next(i for i, (idx, _) in enumerate(entries) if idx == n)
                body = entries[pos][1] + (organ(omega, scale),)
                entries[pos] = (n, body)
                entries[:] = [e for e in entries
                              if e[0] >= n or len(e[1]) > len(body)]
                classification = "repeating(2.1.1)"
            elif sign == "+":
                entries[-1] = (k, master + (organ(omega, scale), organ((), scale)))
                self._out.extend("1." + m for m in omega)
                classification = "locking(2.1.2)"
                self.locked = True
            elif n > 0:
                pos = next(i for i, (idx, _) in enumerate(entries) if idx == n)
                if pos > 0 and entries[pos - 1][0] == n - 1:
                    body = entries[pos - 1][1] + (organ(omega, scale),)
                    entries[pos - 1] = (n - 1, body)
                else:
                    body = (organ(omega, scale),)
                    entries.insert(pos, (n - 1, body))
                entries[:] = [e for i, e in enumerate(entries)
                              if i == len(entries) - 1 or e[0] < n
                              or len(e[1]) > len(body)]
                classification = "repeating(2.2.1)"
            elif master[-1][1] < statute_limit(ell, u_total, statute_params):
                payload, v = master[-1]
                entries[-1] = (k, master[:-1] + (organ(payload, v * 2),))
                classification = "restarting(2.2.2.1)"
            else:
                while len(consequent) <= q:
                    yield
                absorb_new_move(q)
                classification = "restarting(2.2.2.2)"
            if classification.startswith("restarting"):
                u_total = 0
                del entries[:-1]
            self._record(start, u_total, classification, k)

    def _replay_zero(self, c_moves):
        strategy = PrefixedStrategy(self.n_strategy, c_moves)
        st = strategy.initial()
        fed = 0
        while True:
            env_moves = self._consequent
            if len(env_moves) > fed:
                st = strategy.feed(st, tuple(("B", m) for m in env_moves[fed:]))
                fed = len(env_moves)
            st, mv = strategy.step(st)
            if mv is not None:
                self._out.append("1." + mv)
            yield


def build_induction_solver(n_strategy, k_strategy, conclusion, **kw) -> InductionRunner:
    return InductionRunner(n_strategy, k_strategy, conclusion, **kw)


# ---------------------------------------------------------------------------
# diagnostics

def rank_base(ell, census, agg, statute_params, f_induction=None):
    """The digit base for iteration ranks.

    f_induction caps the induction variable, so every index digit
    stays below the base; without it the body's subaggregate is used.
    """
    limit = statute_limit(ell, 0, statute_params)
    d = 2 * census["e_top"] + 1
    f = f_induction if f_induction is not None else agg["f"]
    return max(bitsize(limit), f(ell), d, census["e_bot"]) + 1


def iteration_rank(record, base, census):
    """Weighted digit sum over the aggregation's shape."""
    d = 2 * census["e_top"] + 1
    k = record["k"]
    digits = [0] * (d + 4)
    for idx, body in record["entries"][:-1]:
        j = len(body)
        if j > d:
            continue
        digits[j] = idx + 1 if j % 2 == 0 else k - idx
    digits[d + 1] = bitsize(record["master_scale"])
    digits[d + 2] = record["master_payload_moves"]
    digits[d + 3] = record["master_body_size"]
    return sum(c * base ** j for j, c in enumerate(digits))


def diagnostics(runner: InductionRunner):
    """Per-iteration ranks, classifications, validity, and birthtimes."""
    if not runner.trace:
        return {"iterations": 0, "ranks": [], "classifications": [],
                "validity": [], "max_entry_size": 0, "birthtimes": {},
                "locking": [], "rank_base": None}
    base_info = runner._diag_base
    base = rank_base(base_info["ell"], base_info["census"], base_info["agg"],
                     base_info["statute_params"], base_info["f_induction"])
    ranks = [iteration_rank(rec, base, base_info["census"])
             for rec in runner.trace]
    classifications = [rec["classification"] for rec in runner.trace]
    validity = [rec["validity"] for rec in runner.trace]
    max_entry = max(len(body) for rec in runner.trace
                    for _, body in rec["entries"])
    birthtimes = {}
    for i, rec in enumerate(runner.trace):
        for idx, _ in rec["entries"]:
            birthtimes.setdefault(idx, i)
    locking = [i for i, c in enumerate(classifications) if c.startswith("locking")]
    return {
        "iterations": len(runner.trace),
        "ranks": ranks,
        "rank_base": base,
        "classifications": classifications,
        "validity": validity,
        "max_entry_size": max_entry,
        "birthtimes": birthtimes,
        "locking": locking,
    }
