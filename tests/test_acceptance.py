"""End-to-end checks, one per shipping criterion, each with a wall-clock
budget so regressions in speed fail as loudly as regressions in output."""

import random
import time

import clarith.formula as fm
from clarith import oracles, wrappers, zoo
from clarith.game import (
    TruncationContext,
    first_illegal_index,
    is_quasilegal,
    truncate,
    wins,
)
from clarith.hpm import (
    History,
    HPMStrategy,
    StrategyRunner,
    initial_sketch,
    play,
    sketch_advance,
    sketch_of_configuration,
    spacecost,
)
from clarith.induction import build_induction_solver, diagnostics
from clarith.wrappers import ReasonRunner, VasaRunner

from conftest import (
    COUNTER_TEXT,
    counter_k_script,
    counter_n_script,
    drive_solver,
    make_scripted_env,
    stepped_scenario,
)
from clarith.game import int_to_numer


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.t0 = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.seconds, f"took {elapsed:.1f}s, budget {self.seconds}s"


def test_criterion_1_fixture_run(bigmove_machine, two_disjunct_formula):
    budget = Budget(1.0)
    runner = ReasonRunner(bigmove_machine, two_disjunct_formula)
    env = make_scripted_env([(0, "#1001"), (0, "0.#10"), (1, "1.#1")])
    out = play(runner, env, fuel=3000)
    compact = tuple(lm for lm in out["run"])
    assert compact == (
        ("B", "#1001"),
        ("B", "0.#10"),
        ("T", "0.1.#1111"),
        ("B", "1.#1"),
        ("T", "1.1.#0"),
    )
    assert runner.faults == []
    budget.check()


def test_criterion_2_truncation_exact(two_disjunct_ctx):
    assert truncate("0.1.#1111111", two_disjunct_ctx) == "0.1.#1111"


def test_criterion_3_fetch_oracle():
    budget = Budget(30.0)
    assert oracles.SUITES["fetch"][0](random.Random(42), 1000) is None
    budget.check()


def _trim_history(sc, limit):
    """Prefix of a scenario's history, with the environment moves to match."""
    hist = History(sc["history"][:limit])
    return hist, sc["env_moves"][:hist.bots]


def test_criterion_4_resimulation_index_bounds(two_disjunct_formula,
                                               bigmove_machine,
                                               resimulation_calls):
    ctx = TruncationContext(two_disjunct_formula, {"x": 9})
    two_d = 2 * fm.choice_census(two_disjunct_formula)["D"]

    def check(spec, history, env_moves, cycles):
        resimulation_calls.clear()
        s = initial_sketch(spec)
        for _ in range(cycles):
            s = wrappers.update_sketch(spec, history, s, env_moves, ctx)
        for kind, index, caller in resimulation_calls:
            if kind == "update":
                assert index <= two_d
                assert caller is None or index <= caller
            else:
                assert index < caller

    # the worked fixture's own history
    fixture_history = History([("B", 5), ("B", 4), ("T", 12), ("B", 4), ("T", 6)])
    check(bigmove_machine, fixture_history, ["#1001", "0.#10", "1.#1"], 120)

    rng = random.Random(7)
    for _ in range(60):
        spec = zoo.random_machine(rng)
        schedule = zoo.random_schedule(rng, spec)
        sc = zoo.run_scenario(spec, schedule, 120)
        hist, env_moves = _trim_history(sc, two_d)
        check(spec, hist, env_moves, 120)


def test_criterion_5_sim_extension_invariance():
    budget = Budget(60.0)
    assert oracles.SUITES["sim"][0](random.Random(5), 500) is None
    budget.check()


def test_criterion_6_counter_game_family():
    budget = Budget(60.0)
    concl = fm.parse_formula(COUNTER_TEXT)
    for k in range(1, 9):
        runner = build_induction_solver(
            counter_n_script(), counter_k_script(), concl)
        run = drive_solver(runner, [(0, "#" + int_to_numer(k))])
        tops = [m for label, m in run if label == "T"]
        assert tops == ["1.#" + int_to_numer(k)], (k, tops)
        assert wins(concl, {}, run) == "T"
        d = diagnostics(runner)
        assert all(v == "ok" for v in d["validity"]), (k, d["validity"])
        assert d["max_entry_size"] <= 2 * runner.census["e_top"] + 1
        assert all(r1 < r2 for r1, r2 in zip(d["ranks"], d["ranks"][1:])), k
    budget.check()


def test_criterion_7_comprehension_oracle():
    budget = Budget(60.0)
    assert oracles.SUITES["compr"][0](random.Random(77), 200) is None
    budget.check()


def test_criterion_8_windup_oracle():
    budget = Budget(30.0)
    # more cases than the 317 buffers windup refuses: every one is searched
    assert oracles.SUITES["windup"][0](random.Random(8), 400) is None
    budget.check()


def test_criterion_9_unconditional_wrapper(legal_machine,
                                           two_disjunct_formula):
    c_env = {"x": 9}
    env_entries = [(0, "0.#10"), (1, "1.#1")]

    # legal branch: move-for-move and cell-for-cell equality
    raw = StrategyRunner(HPMStrategy(legal_machine))
    wrapped = VasaRunner(legal_machine, two_disjunct_formula, c_env)
    run_a = run_b = ()
    env_a = make_scripted_env(env_entries)
    env_b = make_scripted_env(env_entries)
    for _ in range(60):
        for env, runner, which in ((env_a, raw, "a"), (env_b, wrapped, "b")):
            run = run_a if which == "a" else run_b
            mv, _ = env(run)
            incoming = () if mv is None else (("B", mv),)
            run += incoming
            for _, m in runner.stretch(incoming, 1)[2]:
                run = run + (("T", m),)
            if which == "a":
                run_a = run
            else:
                run_b = run
        assert run_a == run_b
        assert spacecost(wrapped.st) == spacecost(raw.st)

    # illegal branches from the zoo of bad environment moves
    for bad_moves in ([(0, "0.#10"), (1, "0.#10")],
                      [(0, "#01")],
                      [(0, "0.#1"), (0, "junk")]):
        wrapped = VasaRunner(
            legal_machine, two_disjunct_formula, c_env)
        out = play(wrapped, make_scripted_env(bad_moves), fuel=60)
        run = out["run"]
        bad = first_illegal_index(two_disjunct_formula, c_env, run)
        assert bad is not None
        after = [lm for lm in run[bad + 1:] if lm[0] == "T"]
        assert len(after) <= 1, run
        assert is_quasilegal(two_disjunct_formula, run, "T")


def test_criterion_10_sketch_configuration_coherence(two_disjunct_formula):
    ctx = TruncationContext(two_disjunct_formula, {"x": 9})
    rng = random.Random(7)
    for case in range(100):
        spec = zoo.random_machine(rng)
        schedule = zoo.random_schedule(rng, spec)
        # the stepped twin of zoo.run_scenario keeps every cycle's configuration
        sc = stepped_scenario(spec, schedule, 200)
        env_moves, own_moves = sc["env_moves"], sc["own_moves"]

        def fetch(spec, history, ordinal, offset, bots):
            return own_moves[ordinal][offset - 1]

        s = initial_sketch(spec)
        for i, cfg in enumerate(sc["configs"]):
            assert s == sketch_of_configuration(cfg, ctx), (case, i)
            if i < len(sc["configs"]) - 1:
                s = sketch_advance(spec, s, sc["history"], env_moves, fetch,
                                   ctx)
