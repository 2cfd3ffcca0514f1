"""The curve count gate, `scripts/check_counts.py`, as CI runs it.

Each check runs in a subprocess: the script imports `bench_curves`,
which puts perfbench's `gen`, `run`, `reference` and `workloads` on the
module path, and those names stay out of this process."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
# each counted curve file, with the count to raise: (path to the record
# inside the file, its field) and the point key the gate must name
COUNTED = {
    "BENCH_play_fuel.json": ((0,), "step_calls", "(1000,)"),
    "BENCH_vasa_fuel.json": ((1,), "moves", "(4000,)"),
    "BENCH_reason_phases.json": ((1, 2), "fetch_symbol_calls", "(4, None, 2)"),
    "BENCH_reason_fuel.json": ((0, 1), "update_sketch_calls", "(None, 1, 1)"),
    "BENCH_induct_k.json": ((2,), "polls", "('counter0', 64)"),
}


def check_counts(*paths):
    return subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "scripts" / "check_counts.py"),
         *map(str, paths)], capture_output=True, text=True, timeout=120)


def test_every_committed_curve_matches_itself():
    done = check_counts(*(ROOT / name for name in COUNTED))
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


@pytest.mark.parametrize("name", sorted(COUNTED))
def test_a_raised_count_fails_naming_its_point(name, tmp_path):
    (point, *machine), field, key = COUNTED[name]
    result = json.loads((ROOT / name).read_text(encoding="utf-8"))
    record = result["points"][point]
    if machine:
        record = record["machines"][machine[0]]
    record[field] += 1
    fresh = tmp_path / name
    fresh.write_text(json.dumps(result), encoding="utf-8")
    done = check_counts(fresh)
    assert done.returncode == 1
    assert done.stdout == (f"{fresh}: counts differ from the committed "
                           f"curve at {key}: {field}: {record[field] - 1} → "
                           f"{record[field]}\n")


def test_a_point_the_committed_curve_lacks_fails(tmp_path):
    result = json.loads((ROOT / "BENCH_play_fuel.json").read_text(encoding="utf-8"))
    result["points"][0]["fuel"] = 999
    fresh = tmp_path / "BENCH_play_fuel.json"
    fresh.write_text(json.dumps(result), encoding="utf-8")
    done = check_counts(fresh)
    assert done.returncode == 1
    assert done.stdout == (f"{fresh}: counts differ from the committed "
                           "curve at (999,): absent\n")
