#!/usr/bin/env python3
"""The `play` fuel curve: wall time per VM cycle against fuel.

    python3 scripts/bench_curves.py [--fuels 1000,4000,16000,64000]
                                    [--reps 3] [--out BENCH_play_fuel.json]

Runs `clarith play` in-process through `cli.main` on the chatter
machine and environment that `perfbench/gen.py` makes from
`random.Random(1)`, playing the benchmark's two-disjunct formula.  Each
fuel is run --reps times, after one untimed warm-up run; the best wall
time is kept.  The JSON file written holds, per fuel: wall seconds, µs
per cycle and the number of T moves played, plus the Python version and
CPU count of the host.
clarith is imported from `src/` next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gen  # noqa: E402
from clarith import cli  # noqa: E402

DEFAULT_FUELS = (1000, 4000, 16000, 64000)
SEED = 1


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def play_once(argv):
    """(wall seconds, T moves) of one in-process `clarith play`."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    wall = time.perf_counter() - start
    if rc != 0:
        raise RuntimeError(f"clarith play exited with {rc}")
    moves = sum(1 for line in out.getvalue().splitlines()
                if line[:1] == "T" and line[1:2] in ("", " "))
    return wall, moves


def sweep(fuels, reps, workdir):
    rng = random.Random(SEED)
    machine = _write(workdir, "chatter.hpm",
                     gen.machine_text(gen.chatter_machine(rng)))
    env = _write(workdir, "chatter.env", gen.env_text(gen.chatter_env(rng)))
    formula = _write(workdir, "play.clf", gen.PLAY_FORMULA + "\n")
    argvs = [["play", machine, formula, "--env", env, "--fuel", str(fuel)]
             for fuel in fuels]
    play_once(argvs[0])  # untimed: the first call builds the CLI's parser
    points = []
    for fuel, argv in zip(fuels, argvs):
        runs = [play_once(argv) for _ in range(reps)]
        wall = min(w for w, _ in runs)
        points.append({"fuel": fuel, "wall_s": round(wall, 6),
                       "us_per_cycle": round(wall / fuel * 1e6, 3),
                       "moves": runs[0][1]})
    return points


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fuels", default=",".join(map(str, DEFAULT_FUELS)),
                    help="comma-separated fuel values")
    ap.add_argument("--reps", type=int, default=3,
                    help="runs per fuel; the best is kept")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_play_fuel.json"))
    args = ap.parse_args(argv)
    fuels = [int(f) for f in args.fuels.split(",")]
    if args.reps < 1 or any(f < 1 for f in fuels):
        ap.error("--reps and every fuel must be at least 1")
    with tempfile.TemporaryDirectory() as workdir:
        points = sweep(fuels, args.reps, workdir)
    result = {
        "curve": "play_fuel",
        "workload": f"clarith play, gen.chatter_machine(Random({SEED})) "
                    "with its env, best of reps",
        "reps": args.reps,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "points": points,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    for p in points:
        print(f"fuel {p['fuel']:>6}: {p['wall_s']:.3f} s, "
              f"{p['us_per_cycle']:.2f} us/cycle, {p['moves']} moves")
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
