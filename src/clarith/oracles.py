"""Brute-force oracle suites for `clarith oracle <suite>`: `SUITES` maps
a name to (fn, default cases); fn(rng, cases) returns None when every
check passes, else the first counterexample.  For `windup`, which
sweeps every buffer it checks, cases counts the refused buffers that
the search must also fail to close."""

from __future__ import annotations

from . import comprehension as cp
from . import formula as fm
from . import game, hpm, induction, wrappers, zoo
from .bounds import Nat


def _suite_fetch(rng, cases):
    done = 0
    while done < cases:
        spec = zoo.random_machine(rng)
        schedule = zoo.random_schedule(rng, spec)
        scenario = zoo.run_scenario(spec, schedule, 60)
        own = scenario["own_moves"]
        sized = [(k, m) for k, m in enumerate(own) if m]
        if not sized:
            continue
        k, move = sized[rng.randrange(len(sized))]
        n = rng.randint(1, len(move))
        got = wrappers.fetch_symbol(spec, scenario["history"], k, n,
                                    scenario["env_moves"])
        if got != move[n - 1]:
            return (f"fetch mismatch: k={k} n={n} expected {move[n-1]!r} "
                    f"got {got!r} (moves {own!r}, schedule {schedule!r})")
        done += 1
    return None


def _zoo_formulas():
    texts = [
        "ada x [|s|] (ade y [|s|] p(x,y))",
        "(ade y [|s|] p(y)) v (ada u [|s|] q(u))",
        "ada y [|s|] (p(y) -> ade w [|s|] q(w))",
        "ade y [1] p(y) & ade z [1] q(z)",  # two T units: windup must pick
    ]
    return [fm.parse_formula(t) for t in texts]


def _iter_open_buffers(shapes, max_len):
    """Every string that stays a quasilegal-move prefix, up to max_len:
    a depth-first walk of the move-shape automaton shapes."""
    delta = shapes.delta
    frontier = [("", 0)]
    while frontier:
        s, state = frontier.pop()
        yield s
        if len(s) < max_len:
            for c in "#01.":
                if c in delta[state]:
                    frontier.append((s + c, delta[state][c]))


def _suite_windup(rng, cases):
    """Open buffers of up to six characters, alone or after one T move:
    a buffer `windup` closes, the search must close the same way; on
    `cases` of those it refuses, drawn by rng, the search must fail."""
    c_env = {"s": 5}
    checked, refused = 0, []
    for f in _zoo_formulas():
        a = fm.analysis(f)
        heads = [()] + [(("T", addr + "#1"),) for addr in a.addresses]
        for head in heads:
            for buf in _iter_open_buffers(a.shapes, 6):
                v = game.Semiposition(head + (("T", buf),), open_last=True)
                try:
                    got = game.windup(v, f, c_env)
                except ValueError:
                    refused.append((v, f))
                    continue
                try:
                    want = game.windup_oracle(v, f, c_env)
                except ValueError:
                    want = None
                if got != want:
                    return (f"windup mismatch on {v!r}: structural {got!r}, "
                            f"search {want!r}")
                checked += 1
    for v, f in rng.sample(refused, min(cases, len(refused))):
        try:
            want = game.windup_oracle(v, f, c_env)
        except ValueError:
            continue
        return f"windup rejected {v!r}, but search closes it with {want!r}"
    # the sweep is exhaustive; the floor guards against a shrunken one
    if checked < 30:
        return f"windup suite checked only {checked} closings"
    return None


class SteppedMachine:
    """A machine premise stepped by `hpm.step`, which counts the
    non-blank cells of `cfg.tapes` after each cycle into `cells`; its
    stretches report a peak of 0 and end at its first move, whatever
    their budget.  `oracle sim` and the tests check Sim's U against it."""

    def __init__(self, spec):
        self.spec = spec
        self.cells = 0

    def initial(self):
        return hpm.initial_configuration(self.spec)

    def feed(self, cfg, labmoves):
        return cfg.extend(labmoves)

    def stretch(self, cfg, limit, budget=1):
        for used in range(1, limit + 1):
            cfg = hpm.step(self.spec, cfg)
            self.cells = max([self.cells] + [len(t) - t.count(hpm.BLANK)
                                             for t in cfg.tapes])
            if cfg.last_move is not None:
                return cfg, used, 0, [(used, cfg.last_move)]
        return cfg, used, 0, []


def _suite_sim(rng, cases):
    """Per case, a scripted premise under extension of the body its
    bullet does not read, and a `zoo.random_machine` premise whose Sim
    must match `SteppedMachine`'s: the same signed organ, and U the
    most cells the twin counts."""
    for case in range(cases):
        a, b, n = zoo.random_sim_triple(rng)
        cap = rng.randint(1, 3)
        strat = zoo.random_script(rng, cap, 3, n)
        out = induction.sim(a, b, n, strat)
        sign = out[0][0]
        if sign == "-":
            b2 = b + zoo.random_body(rng, max_size=2)
            if induction.sim(a, b2, n, strat) != out:
                return f"extension of B changed a negative-bullet sim: {(a, b, n)!r}"
        elif n != 0:
            a2 = a + zoo.random_body(rng, max_size=2)
            if induction.sim(a2, b, n, strat) != out:
                return f"extension of A changed a positive-bullet sim: {(a, b, n)!r}"
        if sign == "+" and len(b) > cap:
            return f"positive bullet with body larger than the move cap: {(a, b, n)!r}"
        spec = zoo.random_machine(rng)
        twin = SteppedMachine(spec)
        signed, _ = induction.sim(a, b, n, twin)
        got = induction.sim(a, b, n, hpm.HPMStrategy(spec))
        if got != (signed, twin.cells):
            return (f"machine sim {got!r}, stepped twin {(signed, twin.cells)!r} "
                    f"on {(a, b, n)!r}, the machine of case {case}")
    return None


def _table_premise(table):
    """Premise strategy answering once, from a truth table over y, the
    last constant it was given."""
    def fn(run, waited):
        bots = [m for label, m in run if label == "B"]
        if not bots or any(label == "T" for label, _ in run):
            return None
        y = game.constant_value(bots[-1])
        return "0." if y < len(table) and table[y] else "1."
    return hpm.ScriptStrategy(fn)


def _suite_compr(rng, cases):
    for c in range(0, 9):
        for mask in range(2 ** c):
            table = [(mask >> y) & 1 == 1 for y in range(c)]
            err = _one_compr_case(table, c)
            if err:
                return err
    for _ in range(cases):
        c = rng.randint(4, 8)
        table = [rng.random() < 0.5 for _ in range(c)]
        err = _one_compr_case(table, c)
        if err:
            return err
    return None


def _one_compr_case(table, c):
    p = fm.Atom("tbl", (fm.TVar("y"),))
    runner = cp.ComprehensionRunner(_table_premise(table), p, "y", Nat(c))
    moves = runner.stretch((), 1)[2]
    if len(moves) != 1:
        return f"comprehension made {len(moves)} moves for table {table!r}"
    _, numer = game.split_move(moves[0][1])
    got = game.numer_value(numer or "")
    want = sum(1 << y for y in range(c) if y < len(table) and table[y])
    if got != want:
        return f"comprehension value {got} != {want} for table {table!r} c={c}"
    if numer and not game.is_canonical_numer(numer):
        return f"non-canonical numer {numer!r} for table {table!r}"
    return None


SUITES = {
    "fetch": (_suite_fetch, 1000),
    "windup": (_suite_windup, 40),
    "sim": (_suite_sim, 500),
    "compr": (_suite_compr, 200),
}
