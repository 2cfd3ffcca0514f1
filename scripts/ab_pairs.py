#!/usr/bin/env python3
"""Alternating A/B pairs of the benchmark: a base revision against this
checkout, with an optional A/A noise floor.

    python3 scripts/ab_pairs.py --base REV [--workloads induct,play]
                                [--seeds 11-20] [--pairs 10]
                                [--seconds 25] [--aa] [--out FILE]

`--base REV` is exported with `git archive` into a temporary directory
(local git only).  For each workload, pair i runs `perfbench/run.py`
once from the base tree and once from this checkout, both with seed
number i of --seeds (cycling when there are fewer seeds than pairs),
one process at a time, the base first in even pairs and this checkout
first in odd ones.  With --aa, each workload's A/B pairs are preceded
by as many A/A pairs, of the base against a second export of itself,
over the same seeds.

The result goes to `BENCH_pairs.<base>.json` in this checkout (or
--out).  Per workload and end-to-end metric of `BENCHMARK.json` it
holds the median on each side, the base's quartiles, the pairs the
change won (strictly better, in the metric's direction), the median
paired ratio change / base, and the A/A band, the least and greatest
paired ratio copy / base.  A gain `holds` when, over at least
MIN_CLAIM_PAIRS pairs, the change won at least nine in ten, its median
is better than the base's by more than the base's quartile spread, and,
given an A/A band, its median ratio lies beyond the band on the better
side.  The script only reports: it reads `BENCHMARK.json` and runs
`perfbench/`, and changes neither.  It exits 1 if any run failed to
produce a result line, after writing the file.

Seeds are spent once per base.  Each run appends its base, workloads and
A/B seeds to LEDGER, under the gitignored `.perfbench_work/`, before its
pairs start.  A workload whose A/B seeds overlap those of an earlier
run against the same base still runs, but none of its gains holds, and
its summary lists the reused seeds: pairs run while building a change
cannot be its evidence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(ROOT, ".perfbench_work", "ab_pairs_ledger.jsonl")
MIN_CLAIM_PAIRS = 10


def parse_seeds(text):
    """The seeds of "11-20" or "1,3,5", in order."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if dash else [int(lo)])
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def read_ledger(path):
    """The ledger's entries, oldest first; none when there is no file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]
    except FileNotFoundError:
        return []


def spent_seeds(ledger, base):
    """{workload: set of the A/B seeds the ledger's runs against base
    used on it}."""
    spent = {}
    for entry in ledger:
        if entry["base"] == base:
            for workload in entry["workloads"]:
                spent.setdefault(workload, set()).update(entry["seeds"])
    return spent


def result_line(stdout):
    """The JSON result, the last line `perfbench/run.py` prints, or None."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def quartiles(values):
    """(first, third) quartile, inclusive method; one value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def pair_results(runs, kind, workload, side):
    """[(base result, side's result)] of each pair of `kind` ("ab" or
    "aa") on workload in which both runs gave a result."""
    pairs = {}
    for run in runs:
        if (run["kind"], run["workload"]) == (kind, workload):
            pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
    return [(p["base"], p[side]) for _, p in sorted(pairs.items())
            if p.get("base") and p.get(side)]


def metric_summary(pairs, aa_pairs, name, better):
    """The statistics of one metric over the A/B pairs, with the A/A band
    of aa_pairs (None when there are none)."""
    def value(result):
        return result["metrics"][name]["value"]

    base = [value(b) for b, _ in pairs]
    change = [value(c) for _, c in pairs]
    sign = 1 if better == "lower" else -1
    won = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    ratio = statistics.median(c / b for b, c in zip(base, change))
    q1, q3 = quartiles(base)
    base_median, change_median = statistics.median(base), statistics.median(change)
    aa = [value(c) / value(b) for b, c in aa_pairs]
    band = [min(aa), max(aa)] if aa else None
    beyond_aa = None
    if band is not None:
        beyond_aa = ratio < band[0] if better == "lower" else ratio > band[1]
    beyond_quartiles = sign * (base_median - change_median) > q3 - q1
    return {
        "unit": pairs[0][0]["metrics"][name]["unit"],
        "better": better,
        "base_median": base_median,
        "base_quartiles": [q1, q3],
        "change_median": change_median,
        "pairs": len(pairs),
        "won": won,
        "median_ratio": ratio,
        "aa_band": band,
        "beyond_base_quartiles": beyond_quartiles,
        "beyond_aa_band": beyond_aa,
        "holds": (len(pairs) >= MIN_CLAIM_PAIRS
                  and won >= math.ceil(0.9 * len(pairs))
                  and beyond_quartiles and beyond_aa is not False),
    }


def summarize(runs, metrics, spent=None):
    """{workload: {"failed": ..., "reused_seeds": [...], "metrics": {name:
    statistics}}} over runs, each a dict of kind ("ab" or "aa"),
    workload, pair, seed, side ("base", "change" or "copy") and result
    (the parsed result line, or None for a run that gave none); metrics
    maps each metric's name to the direction, "lower" or "higher", that
    is better.  spent is `spent_seeds` of the runs before these: a
    workload whose A/B seeds it holds lists them, and no gain on it
    holds."""
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        reused = sorted((spent or {}).get(workload, set()).intersection(
            run["seed"] for run in runs
            if (run["kind"], run["workload"]) == ("ab", workload)))
        failed = {}
        for run in runs:
            if run["workload"] == workload:
                side = failed.setdefault(run["side"], {
                    "runs": 0, "no_result": 0, "attempted": 0, "failed": 0})
                side["runs"] += 1
                result = run["result"]
                if result is None:
                    side["no_result"] += 1
                else:
                    side["attempted"] += result["attempted"]
                    side["failed"] += result["failed"]
        pairs = pair_results(runs, "ab", workload, "change")
        aa_pairs = pair_results(runs, "aa", workload, "copy")
        stats = {name: metric_summary(pairs, aa_pairs, name, better)
                 for name, better in metrics.items()} if pairs else {}
        for s in stats.values():
            s["holds"] = s["holds"] and not reused
        out[workload] = {"failed": failed, "reused_seeds": reused,
                         "metrics": stats}
    return out


def summary_table(summary):
    """The summary as markdown table lines."""
    def fmt(x):
        return f"{x:.4g}"

    lines = ["| workload | metric | base median [q1, q3] | change median "
             "| ratio | won | A/A band | holds |", "|---" * 8 + "|"]
    for workload, entry in summary.items():
        for name, s in entry["metrics"].items():
            q1, q3 = s["base_quartiles"]
            band = ("-" if s["aa_band"] is None else
                    f"[{s['aa_band'][0]:.3f}, {s['aa_band'][1]:.3f}]")
            lines.append(
                f"| {workload} | {name} | {fmt(s['base_median'])} "
                f"[{fmt(q1)}, {fmt(q3)}] | {fmt(s['change_median'])} "
                f"| {s['median_ratio']:.3f} | {s['won']}/{s['pairs']} "
                f"| {band} | {'yes' if s['holds'] else 'no'} |")
    return lines


# ---------------------------------------------------------------------------
# running

def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, into):
    """Write the tree of rev into the directory into."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)


def bench(tree, workload, seed, seconds):
    """The result line of one `perfbench/run.py` process run in tree, or
    None (with the reason on standard error)."""
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    result = result_line(done.stdout) if done.returncode == 0 else None
    if result is None:
        print(f"{tree}: {workload} seed {seed} gave no result "
              f"(exit {done.returncode}): {done.stderr.strip()[-500:]}",
              file=sys.stderr)
    return result


def run_pairs(kind, trees, workload, seeds, pairs, seconds):
    """One run per side of each pair, alternating which side goes first."""
    runs = []
    for i in range(pairs):
        seed = seeds[i % len(seeds)]
        order = list(trees.items()) if i % 2 == 0 else list(trees.items())[::-1]
        for side, tree in order:
            result = bench(tree, workload, seed, seconds)
            runs.append({"kind": kind, "workload": workload, "pair": i,
                         "seed": seed, "side": side, "result": result})
            print(f"{kind} {workload} pair {i} seed {seed} {side}: "
                  f"{'no result' if result is None else 'done'}", flush=True)
    return runs


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the git revision to compare against")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in benchmark["workloads"]),
                    help="comma-separated workloads (default: every one)")
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    ap.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    ap.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    ap.add_argument("--aa", action="store_true",
                    help="first run A/A pairs of the base against a copy of itself")
    ap.add_argument("--out", help="the JSON file to write "
                    "(default: BENCH_pairs.<base>.json in the repo)")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs must be at least 1 and --seconds positive")
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    try:
        base = git("rev-parse", "--short", args.base)
        base_full = git("rev-parse", args.base)
        change = git("rev-parse", "HEAD")
        dirty = subprocess.run(["git", "-C", ROOT, "diff", "--quiet", "HEAD"]).returncode
    except subprocess.CalledProcessError as exc:
        print(f"error: git: {exc.stderr.strip()}", file=sys.stderr)
        return 1
    out = args.out or os.path.join(ROOT, f"BENCH_pairs.{base}.json")
    spent = spent_seeds(read_ledger(LEDGER), base_full)
    seeds = sorted({args.seeds[i % len(args.seeds)] for i in range(args.pairs)})
    os.makedirs(os.path.dirname(LEDGER), exist_ok=True)
    with open(LEDGER, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"base": base_full, "workloads": workloads,
                             "seeds": seeds}) + "\n")
    tmp = tempfile.mkdtemp(prefix="ab_pairs-")
    try:
        trees = {side: os.path.join(tmp, side)
                 for side in (("base", "copy") if args.aa else ("base",))}
        for tree in trees.values():
            os.mkdir(tree)
            export(args.base, tree)
        runs = []
        for workload in workloads:
            if args.aa:
                runs += run_pairs("aa", trees, workload, args.seeds, args.pairs,
                                  args.seconds)
            runs += run_pairs("ab", {"base": trees["base"], "change": ROOT},
                              workload, args.seeds, args.pairs, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    summary = summarize(runs, metrics, spent)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"base": base, "change": change + ("+dirty" if dirty else ""),
                   "seeds": args.seeds, "pairs": args.pairs,
                   "seconds": args.seconds, "aa": args.aa,
                   "python": platform.python_version(),
                   "cpu_count": os.cpu_count(), "summary": summary,
                   "runs": runs}, fh, indent=2)
        fh.write("\n")
    print("\n".join(summary_table(summary)))
    for workload, entry in summary.items():
        if entry["reused_seeds"]:
            print(f"{workload}: seeds {entry['reused_seeds']} were spent on "
                  f"{base} before, so no gain on it holds", file=sys.stderr)
    print(f"written to {out}")
    return 1 if any(run["result"] is None for run in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
