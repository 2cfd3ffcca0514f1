import random

from clarith.hpm import spacecost
from clarith.induction import check_sim_triple
from clarith.zoo import (
    MOVE_CHARS,
    random_body,
    random_machine,
    random_schedule,
    random_script,
    random_sim_triple,
    run_scenario,
)

from conftest import stepped_scenario


class TestRandomMachine:
    def test_specs_are_well_formed(self):
        rng = random.Random(0)
        for _ in range(20):
            spec = random_machine(rng)
            assert spec.start in spec.states
            assert spec.move_states <= spec.states
            assert spec.worktapes == 1

    def test_machines_actually_move(self):
        rng = random.Random(1)
        moved = 0
        for _ in range(20):
            spec = random_machine(rng)
            out = run_scenario(spec, [], 40)
            moved += bool(out["own_moves"])
        assert moved >= 15

    def test_generation_is_reproducible(self):
        s1 = random_machine(random.Random(7))
        s2 = random_machine(random.Random(7))
        assert s1.delta == s2.delta and s1.states == s2.states


class TestScenario:
    def test_history_matches_moves(self):
        rng = random.Random(3)
        spec = random_machine(rng)
        schedule = random_schedule(rng, spec)
        out = run_scenario(spec, schedule, 50)
        tops = [size for label, size in out["history"] if label == "T"]
        assert tops == [len(m) for m in out["own_moves"]]
        bots = [size for label, size in out["history"] if label == "B"]
        assert bots == [len(m) for m in out["env_moves"]]

    def test_schedule_injects_right_after_own_moves(self):
        rng = random.Random(4)
        spec = random_machine(rng, phases=3, phase_len=1)
        out = run_scenario(spec, [(1, "##")], 60)
        labels = [label for label, _ in out["history"]]
        if "B" in labels:
            assert labels.index("B") >= labels.index("T") + 1

    def test_configs_cover_every_cycle(self):
        """The stretched scenario ends in the configuration its stepped
        twin ends in, with the same history and moves, over random
        machines, schedules and cycle budgets; the twin's configurations
        cover every cycle."""
        rng = random.Random(5)
        for case in range(300):
            spec = random_machine(rng)
            schedule = random_schedule(rng, spec)
            cycles = rng.randint(0, 150)
            out = run_scenario(spec, schedule, cycles)
            twin = stepped_scenario(spec, schedule, cycles)
            assert len(twin["configs"]) == cycles + 1
            assert all(c.cycle == i for i, c in enumerate(twin["configs"]))
            assert out["config"] == twin["config"], case
            assert list(out["history"]) == list(twin["history"]), case
            assert out["env_moves"] == twin["env_moves"], case
            assert out["own_moves"] == twin["own_moves"], case

    def test_worktape_machines_consume_space(self):
        rng = random.Random(0)
        grew = False
        for _ in range(30):
            spec = random_machine(rng)
            out = run_scenario(spec, [(0, "#1")], 40)
            if spacecost(out["config"]) > 0:
                grew = True
        assert grew


class TestRandomScript:
    def test_respects_the_consequent_cap(self):
        rng = random.Random(6)
        for _ in range(30):
            cap = rng.randint(1, 3)
            strat = random_script(rng, cap, 3, 1)
            st = strat.initial()
            made = []
            for _ in range(200):
                st, mv = strat.step(st)
                if mv is not None:
                    made.append(mv)
            assert sum(1 for m in made if m.startswith("1.")) <= cap

    def test_zero_level_moves_carry_no_prefix(self):
        rng = random.Random(8)
        for _ in range(30):
            strat = random_script(rng, 2, 2, 0)
            st = strat.initial()
            for _ in range(100):
                st, mv = strat.step(st)
                if mv is not None:
                    assert not mv.startswith(("0.", "1."))

    def test_moves_use_the_move_alphabet(self):
        rng = random.Random(9)
        strat = random_script(rng, 3, 3, 1)
        st = strat.initial()
        for _ in range(100):
            st, mv = strat.step(st)
            if mv is not None:
                assert all(c in MOVE_CHARS for c in mv)


class TestRandomBodies:
    def test_triples_satisfy_the_sim_contract(self):
        rng = random.Random(10)
        for _ in range(100):
            a, b, n = random_sim_triple(rng)
            check_sim_triple(a, b, n)

    def test_nonempty_option(self):
        rng = random.Random(11)
        for _ in range(50):
            assert len(random_body(rng, nonempty=True)) >= 1

    def test_scales_are_positive(self):
        rng = random.Random(12)
        for _ in range(50):
            for _, scale in random_body(rng):
                assert scale >= 1
