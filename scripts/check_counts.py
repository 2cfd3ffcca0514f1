#!/usr/bin/env python3
"""Check the host-independent counts of fresh curve files.

    python3 scripts/check_counts.py CURVE.json [CURVE.json ...]

Each file is one written by `scripts/bench_curves.py`.  Its `curve` field
names its entry in `bench_curves.CURVES`, which declares the point key
and the counts to compare, and the committed `BENCH_<curve>.json` in the
repo is the file it must reproduce: every point's counts must equal the
committed point's of the same key.  Exits 0 if they all do, and 1 if
not, printing for each point that differs its key and each differing
count as `name: committed → fresh`, or `absent` for a point the
committed file lacks.
"""

import json
import os
import sys

from bench_curves import CURVES, ROOT


def curve_counts(path):
    """(curve, {point key: counts}) of a curve file, keyed and counted
    as its CURVES entry declares; a key field the point lacks reads
    None."""
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh)
    curve = {c.name: c for c in CURVES.values()}[result["curve"]]
    if not curve.counts:
        raise ValueError(f"curve {curve.name} declares no counts")
    rows = [(p, p) for p in result["points"]]
    if "machine" in curve.key:
        rows = [(dict(p, machine=i), m) for p, _ in rows
                for i, m in enumerate(p["machines"])]
    return curve, {tuple(p.get(k) for k in curve.key):
                        tuple(m[c] for c in curve.counts) for p, m in rows}


def count_mismatches(path):
    """(key, what differs) for each point of the curve file at path whose
    counts differ from, or are missing in, the committed file of its
    curve: each differing count as `name: committed → fresh`, or
    `absent`."""
    curve, fresh = curve_counts(path)
    _, committed = curve_counts(os.path.join(ROOT, f"BENCH_{curve.name}.json"))
    out = []
    for key, counts in fresh.items():
        old = committed.get(key)
        if old is None:
            out.append((key, "absent"))
        elif old != counts:
            out.append((key, ", ".join(
                f"{name}: {a} → {b}"
                for name, a, b in zip(curve.counts, old, counts) if a != b)))
    return out


def main(paths):
    if not paths:
        sys.exit(__doc__)
    bad = False
    for path in paths:
        for key, diff in count_mismatches(path):
            print(f"{path}: counts differ from the committed curve at {key}: "
                  f"{diff}")
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
