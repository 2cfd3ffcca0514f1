"""Smoke test of the benchmark on its small golden pools (fixed seed).

    python3 -m pytest -q perfbench/test_smoke.py

It is outside the repository's `testpaths`, so the tier-1 suite does
not collect it.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.load_clarith()


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _golden(name, tmp_path):
    pool = workloads.WORKLOADS[name].pool(random.Random(run.GOLDEN_SEED),
                                          str(tmp_path), True)
    for inp in pool:
        inp["key"] = "golden-" + inp["key"]
    return pool


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_golden_pool_passes_its_checks_and_digest(name, lib, tmp_path):
    driver = run.Driver(workloads.WORKLOADS[name], lib)
    digest, failed = driver.golden_digest(_golden(name, tmp_path))
    assert failed == 0, driver.failures
    with open(run.DIGESTS, encoding="utf-8") as fh:
        assert digest == json.load(fh)[name]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    a = workloads.WORKLOADS[name].pool(random.Random(7), str(tmp_path), True)
    b = workloads.WORKLOADS[name].pool(random.Random(7), str(tmp_path), True)
    assert a == b


def test_traced_round_reports_every_layer_metric(lib, tmp_path, spec):
    wl = workloads.WORKLOADS["reason"]
    pool = _golden("reason", tmp_path)
    tr = tracing.Tracer()
    driver = run.Driver(wl, lib, tr)
    tr.install()
    rounds, stats = [], []
    for _ in range(2):
        recs = [driver.one(inp) for inp in pool]
        rounds.append(tr.take_round())
        stats.append(run.round_summary(recs))
    metrics, mismatched = run.layer_metrics(rounds, stats)
    assert not mismatched and not driver.failures
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert metrics["wrappers.fetch_symbol.calls"][0] > 0
    # hpm.step runs only in the reference replay, which is not traced
    assert metrics["hpm.step.calls"][0] == 0
    assert metrics["induction.InductionRunner.poll.calls"][0] == 0
    run.load_clarith()                        # drop the patched modules


def test_benchmark_json_matches_the_runner(spec):
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    units = {m: u for m, u, _ in tracing.LAYER_METRICS}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units


def test_generated_units_match_the_parser(lib):
    rng = random.Random(3)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            text, units = gen.analysis_formula(rng, n)
            parsed = [(u.address, u.mover)
                      for u in lib.fm.units(lib.fm.parse_formula(text))]
            assert parsed == units, text


def test_least_windup_agrees_with_the_oracle(lib):
    rng = random.Random(11)
    checked = 0
    for n in (1, 2, 3):
        for _ in range(6):
            text, units = gen.analysis_formula(rng, n)
            f = lib.fm.parse_formula(text)
            c_env = {"s": rng.randint(4, 255)}
            for pairs in gen.open_semipositions(rng, units):
                v = lib.game.Semiposition(pairs, open_last=True)
                want = lib.game.windup_oracle(v, f, c_env)
                assert reference.least_windup(lib, f, c_env, pairs) == want
                assert lib.game.windup(v, f, c_env) == want
                checked += 1
    assert checked == 36


def test_reference_vm_matches_the_library_vm(lib):
    rng = random.Random(5)
    for _ in range(5):
        m = gen.chatter_machine(rng)
        spec_obj = lib.hpm.parse_hpm(gen.machine_text(m))
        env = gen.chatter_env(rng)
        want, _ = reference.replay_play(m, env, 300)
        runner = lib.hpm.StrategyRunner(lib.hpm.HPMStrategy(spec_obj))
        got = lib.hpm.play(runner, lib.cli._script_env(list(env)), 300)["run"]
        assert list(got) == want


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_command_prints_the_result_line(spec):
    p = _bench(ROOT, "--workload", "reason", "--seed", "1", "--seconds", "0.5",
               "--trace", "0")
    assert p.returncode == 0, p.stderr
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 100
    assert list(res["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _bench(str(tmp_path), "--workload", "play", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
