import os

import pytest
from hypothesis import strategies as st

import clarith.formula as fm
from clarith import wrappers
from clarith.bounds import parse_bound
from clarith.game import (
    TruncationContext,
    int_to_numer,
    is_quasilegal_move_prefix,
    numer_value,
    split_move,
)
from clarith.hpm import (History, ScriptStrategy, history_prefix,
                         initial_configuration, parse_hpm, step)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

TWO_DISJUNCT_TEXT = ("(ada y [|x|] ade z [|x|] p(z,y))"
                     " v (ada u [|x|] ade w [|x|] q(u,w))")

COUNTER_TEXT = "ada x [val 1000] ade v [|x| + 1] (v = x)"
# an induction conclusion under a blind quantifier; its free variable k
# is the first constant, x the second
BLIND_CONCLUSION = "cla y < 2 : ada x [val |k|] ade v [1] (v = 0)"

# the formula files the whole-CLI tests write into their tmp directory
CLI_FILES = {
    "game.clf": TWO_DISJUNCT_TEXT,
    "p.clf": "p(y)",
    "concl.clf": "ada x [val 100] ade v [1] (v = 0)",
}


def read_fixture(name):
    with open(os.path.join(FIXTURES, name), "r", encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture
def two_disjunct_formula():
    return fm.parse_formula(TWO_DISJUNCT_TEXT)


@pytest.fixture
def two_disjunct_ctx(two_disjunct_formula):
    return TruncationContext(two_disjunct_formula, {"x": 9})


@pytest.fixture
def resimulation_calls(monkeypatch):
    """Every `wrappers.update_sketch` and `wrappers.fetch_symbol` call, as
    (kind, h index, h index of the calling fetch or update, None at the
    top).  A call's h index is the number of history records before the
    (m+1)-th T record, m being the sketch's move count for an update and
    the fetched move for a fetch."""
    calls = []
    callers = [None]

    def recorded(kind, fn, move_of):
        def call(spec, history, *args):
            index = len(history_prefix(history, move_of(*args)))
            calls.append((kind, index, callers[-1]))
            callers.append(index)
            try:
                return fn(spec, history, *args)
            finally:
                callers.pop()
        return call

    monkeypatch.setattr(wrappers, "update_sketch", recorded(
        "update", wrappers.update_sketch, lambda s, *rest: s.moves_made))
    monkeypatch.setattr(wrappers, "fetch_symbol", recorded(
        "fetch", wrappers.fetch_symbol, lambda k, *rest: k))
    return calls


@pytest.fixture
def bigmove_machine():
    return parse_hpm(read_fixture("bigmove.hpm"))


@pytest.fixture
def legal_machine():
    return parse_hpm(read_fixture("legal.hpm"))


_SIZE_S = parse_bound("|s|")


def _grow(kids):
    return st.one_of(
        st.tuples(st.sampled_from((fm.And, fm.Or, fm.Implies)), kids, kids)
        .map(lambda t: t[0](t[1], t[2])),
        kids.map(fm.Not),
        st.tuples(st.sampled_from((fm.ChoiceAll, fm.ChoiceEx)), kids)
        .map(lambda t: t[0]("y", _SIZE_S, t[1])),
        kids.map(lambda body: fm.BlindAll("w", _SIZE_S, body)),
    )


# random formulas over the free variable s, mixing every connective
formulas = st.recursive(st.just(fm.Atom("p", (fm.TVar("s"),))), _grow,
                        max_leaves=6)


@st.composite
def shape_cases(draw):
    """(formula with a choice operator, constant for s, string over
    01#.x), the string usually starting with one of the formula's
    addresses so moves get spelled."""
    f = draw(formulas)
    if not fm.analysis(f).units:
        f = fm.ChoiceEx("y", _SIZE_S, f)
    head = draw(st.sampled_from(
        ("",) + tuple(a + tail for a in fm.analysis(f).addresses
                      for tail in ("", "#"))))
    return f, draw(st.integers(0, 300)), head + draw(
        st.text(alphabet="01#.x", max_size=10))


def longest_good_prefix(m, addresses):
    """The backward scan with the slow prefix test."""
    return next(m[:cut] for cut in range(len(m), -1, -1)
                if is_quasilegal_move_prefix(m[:cut], addresses))


def stepped_scenario(spec, schedule, cycles):
    """`zoo.run_scenario`'s stepped twin: one `hpm.step` per cycle, the
    ⊥ moves that each own move releases absorbed on the next cycle.  It
    returns what `run_scenario` does, plus `configs`, the configuration
    after every cycle, the initial one first."""
    pending = list(schedule)
    history, env_moves, own_moves = History(), [], []

    def release(now):
        out = []
        while pending and pending[0][0] <= now:
            m = pending.pop(0)[1]
            history.append(("B", len(m)))
            env_moves.append(m)
            out.append(("B", m))
        return out

    incoming = release(0)
    configs = [initial_configuration(spec)]
    for _ in range(cycles):
        cfg = step(spec, configs[-1], incoming)
        configs.append(cfg)
        incoming = []
        if cfg.last_move is not None:
            history.append(("T", len(cfg.last_move)))
            own_moves.append(cfg.last_move)
            incoming = release(cfg.moves_made)
    return {"config": configs[-1], "configs": configs, "history": history,
            "env_moves": env_moves, "own_moves": own_moves}


def without_horizon(env):
    """env with its horizon dropped: `hpm.play` then stretches one cycle
    per env call, as it does against an env that promises nothing."""
    return lambda run: (env(run)[0], 0)


def counter_n_script():
    def fn(run, waited):
        if any(label == "T" for label, _ in run):
            return None
        return "#"

    return ScriptStrategy(fn)


def counter_k_script(delay=0):
    def fn(run, waited):
        if any(label == "T" and m.startswith("1.") for label, m in run):
            return None
        ante = [m for label, m in run if label == "B" and m.startswith("0.")]
        if not ante or waited < delay:
            return None
        _, numer = split_move(ante[0])
        return "1.#" + int_to_numer(numer_value(numer or "") + 1)

    return ScriptStrategy(fn)


def drive_solver(runner, env_moves, max_cycles=500000, settle=50):
    """Poll an induction runner, injecting (cycle, move) env entries,
    until a locking iteration appears or the cycle budget runs out."""
    run = ()
    pending = sorted(env_moves)
    for cycle in range(max_cycles):
        while pending and pending[0][0] <= cycle:
            run = run + (("B", pending.pop(0)[1]),)
        for m in runner.poll(run):
            run = run + (("T", m),)
        if runner.locked:
            for _ in range(settle):
                for m in runner.poll(run):
                    run = run + (("T", m),)
            return run
    return run
