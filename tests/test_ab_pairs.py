"""The summary code of `scripts/ab_pairs.py`, on canned result lines.

No benchmark runs here: each run is the last line `perfbench/run.py`
prints, written out by hand."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "ab_pairs", ROOT / "scripts" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

METRICS = {"peak_rss_mb": "lower", "work_per_s": "higher"}


def stdout(rss, work, failed=0):
    """What a run prints: progress lines, then its JSON result."""
    return "workload induct: pool of 24 inputs\nfailed_share 0.0000\n" + json.dumps({
        "correct": failed == 0, "attempted": 100, "failed": failed,
        "metrics": {"peak_rss_mb": {"value": rss, "unit": "MB"},
                    "work_per_s": {"value": work, "unit": "1/s"}}}) + "\n"


def runs(kind, side, values, workload="induct"):
    """One run per (rss, work) value, pair i holding the i-th."""
    return [{"kind": kind, "workload": workload, "pair": i, "seed": 11 + i,
             "side": side, "result": ab_pairs.result_line(stdout(*v))}
            for i, v in enumerate(values)]


BASE = [(36.0 + i / 10, 1000.0 + i) for i in range(10)]
# 9 of 10 pairs lower and faster; pair 9 loses on both
CHANGE = [(30.0, 1100.0)] * 9 + [(37.0, 900.0)]


def test_seeds_take_ranges_and_lists():
    assert ab_pairs.parse_seeds("11-13,5") == [11, 12, 13, 5]


@pytest.mark.parametrize("text", ["", "no json here\n", "x\n[1, 2]\n",
                                  '{"correct": true}\n'])
def test_a_run_without_a_result_line_reads_none(text):
    assert ab_pairs.result_line(text) is None


def test_quartiles_of_one_value_are_that_value():
    assert ab_pairs.quartiles([4.0]) == (4.0, 4.0)
    assert ab_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 4.0)


def test_a_gain_beyond_the_noise_holds():
    aa = runs("aa", "base", BASE) + runs("aa", "copy", [(r * 1.01, w) for r, w in BASE])
    s = ab_pairs.summarize(
        aa + runs("ab", "base", BASE) + runs("ab", "change", CHANGE), METRICS)
    rss = s["induct"]["metrics"]["peak_rss_mb"]
    assert (rss["pairs"], rss["won"], rss["unit"]) == (10, 9, "MB")
    assert rss["base_median"] == pytest.approx(36.45)
    assert rss["base_quartiles"] == pytest.approx([36.225, 36.675])
    assert rss["change_median"] == 30.0
    assert rss["median_ratio"] == pytest.approx(30.0 / 36.45, rel=0.01)
    assert rss["aa_band"] == pytest.approx([1.01, 1.01])
    assert rss["beyond_base_quartiles"] and rss["beyond_aa_band"]
    assert rss["holds"]
    work = s["induct"]["metrics"]["work_per_s"]
    assert (work["won"], work["better"], work["holds"]) == (9, "higher", True)


def test_a_ratio_inside_the_aa_band_does_not_hold():
    change = [(r * 0.99, w) for r, w in BASE]
    aa = runs("aa", "base", BASE) + runs("aa", "copy", [(r * 0.98, w) for r, w in BASE])
    s = ab_pairs.summarize(
        aa + runs("ab", "base", BASE) + runs("ab", "change", change), METRICS)
    rss = s["induct"]["metrics"]["peak_rss_mb"]
    assert rss["won"] == 10
    assert rss["beyond_aa_band"] is False
    assert not rss["holds"]


def test_a_median_inside_the_base_quartiles_does_not_hold():
    change = [(r - 0.05, w) for r, w in BASE]
    s = ab_pairs.summarize(runs("ab", "base", BASE) + runs("ab", "change", change),
                           METRICS)
    rss = s["induct"]["metrics"]["peak_rss_mb"]
    assert (rss["won"], rss["aa_band"], rss["beyond_aa_band"]) == (10, None, None)
    assert not rss["beyond_base_quartiles"]
    assert not rss["holds"]


def test_fewer_than_ten_pairs_never_hold():
    s = ab_pairs.summarize(runs("ab", "base", BASE[:5])
                           + runs("ab", "change", CHANGE[:5]), METRICS)
    rss = s["induct"]["metrics"]["peak_rss_mb"]
    assert (rss["pairs"], rss["won"]) == (5, 5)
    assert not rss["holds"]


def test_a_run_without_a_result_drops_its_pair_and_is_counted():
    change = runs("ab", "change", CHANGE)
    change[0]["result"] = None
    base = runs("ab", "base", BASE)
    base[1]["result"] = ab_pairs.result_line(stdout(*BASE[1], failed=2))
    s = ab_pairs.summarize(base + change, METRICS)["induct"]
    assert s["metrics"]["peak_rss_mb"]["pairs"] == 9
    assert s["failed"] == {
        "base": {"runs": 10, "no_result": 0, "attempted": 1000, "failed": 2},
        "change": {"runs": 10, "no_result": 1, "attempted": 900, "failed": 0}}


def test_workloads_keep_their_order_and_the_table_has_a_row_per_metric():
    s = ab_pairs.summarize(
        runs("ab", "base", BASE, "play") + runs("ab", "change", CHANGE, "play")
        + runs("ab", "base", BASE) + runs("ab", "change", CHANGE), METRICS)
    assert list(s) == ["play", "induct"]
    lines = ab_pairs.summary_table(s)
    assert len(lines) == 2 + 4
    assert lines[2] == ("| play | peak_rss_mb | 36.45 [36.23, 36.68] | 30 "
                        "| 0.825 | 9/10 | - | yes |")


LEDGER = [{"base": "aaa", "workloads": ["induct", "play"], "seeds": [11, 12]},
          {"base": "bbb", "workloads": ["induct"], "seeds": [13, 14]},
          {"base": "aaa", "workloads": ["play"], "seeds": [15]}]


def test_spent_seeds_are_kept_per_base_and_workload():
    assert ab_pairs.spent_seeds(LEDGER, "aaa") == {"induct": {11, 12},
                                                   "play": {11, 12, 15}}
    assert ab_pairs.spent_seeds(LEDGER, "ccc") == {}


def test_a_missing_ledger_has_no_entries(tmp_path):
    assert ab_pairs.read_ledger(tmp_path / "none.jsonl") == []
    path = tmp_path / "ledger.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in LEDGER))
    assert ab_pairs.read_ledger(path) == LEDGER


def test_a_gain_on_spent_seeds_does_not_hold():
    """Seeds 11-20 against base "aaa": 11 and 12 were spent on induct,
    none on this run's other workload, analyze."""
    both = (runs("ab", "base", BASE) + runs("ab", "change", CHANGE)
            + runs("ab", "base", BASE, "analyze")
            + runs("ab", "change", CHANGE, "analyze"))
    s = ab_pairs.summarize(both, METRICS, ab_pairs.spent_seeds(LEDGER, "aaa"))
    assert s["induct"]["reused_seeds"] == [11, 12]
    assert not any(m["holds"] for m in s["induct"]["metrics"].values())
    assert s["induct"]["metrics"]["peak_rss_mb"]["won"] == 9
    assert s["analyze"]["reused_seeds"] == []
    assert all(m["holds"] for m in s["analyze"]["metrics"].values())
    fresh = ab_pairs.summarize(both, METRICS, ab_pairs.spent_seeds(LEDGER, "ccc"))
    assert fresh["induct"]["reused_seeds"] == []
    assert all(m["holds"] for m in fresh["induct"]["metrics"].values())


def test_only_the_ab_seeds_count_as_reused():
    """A/A pairs on a spent seed leave the claim alone: only the A/B
    pairs are its evidence."""
    aa = (runs("aa", "base", BASE) + runs("aa", "copy", BASE))
    for run in aa:
        run["seed"] = 99
    s = ab_pairs.summarize(aa + runs("ab", "base", BASE)
                           + runs("ab", "change", CHANGE), METRICS,
                           {"induct": {99}})
    assert s["induct"]["reused_seeds"] == []
    assert s["induct"]["metrics"]["work_per_s"]["holds"]
