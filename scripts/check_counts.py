#!/usr/bin/env python3
"""Check the host-independent counts of fresh curve files.

    python3 scripts/check_counts.py CURVE.json [CURVE.json ...]

Each file is one written by `scripts/bench_curves.py`.  Its `curve` field
names its entry in `bench_curves.CURVES`, which declares the point key
and the counts to compare, and the committed `BENCH_<curve>.json` in the
repo is the file it must reproduce: every point's counts must equal the
committed point's of the same key.  Exits 0 if they all do, and 1,
naming each point that differs or that the committed file lacks, if not.
"""

import json
import os
import sys

from bench_curves import CURVES, ROOT


def curve_counts(path):
    """(curve name, {point key: counts}) of a curve file, keyed and
    counted as its CURVES entry declares; a key field the point lacks
    reads None."""
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh)
    curve = {c.name: c for c in CURVES.values()}[result["curve"]]
    if not curve.counts:
        raise ValueError(f"curve {curve.name} declares no counts")
    rows = [(p, p) for p in result["points"]]
    if "machine" in curve.key:
        rows = [(dict(p, machine=i), m) for p, _ in rows
                for i, m in enumerate(p["machines"])]
    return curve.name, {tuple(p.get(k) for k in curve.key):
                        tuple(m[c] for c in curve.counts) for p, m in rows}


def count_mismatches(path):
    """The keys of the points of the curve file at path whose counts
    differ from, or are missing in, the committed file of its curve."""
    name, fresh = curve_counts(path)
    _, committed = curve_counts(os.path.join(ROOT, f"BENCH_{name}.json"))
    return [key for key, c in fresh.items() if c != committed.get(key)]


def main(paths):
    if not paths:
        sys.exit(__doc__)
    bad = [(path, keys) for path in paths if (keys := count_mismatches(path))]
    for path, keys in bad:
        print(f"{path}: counts differ from the committed curve at {keys}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
