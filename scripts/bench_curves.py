#!/usr/bin/env python3
"""Scaling curves of clarith, run in-process through `cli.main`.

    python3 scripts/bench_curves.py [--curve play] [--fuels 1000,4000,16000,64000]
                                    [--reps 3] [--out BENCH_play_fuel.json]
    python3 scripts/bench_curves.py --curve reason [--phases 3,4,5,6,7,8,9,10]
                                    [--machines 8] [--reps 3]
                                    [--out BENCH_reason_phases.json]

`play` is wall time per VM cycle against fuel: `clarith play` on the
chatter machine and environment that `perfbench/gen.py` makes from
`random.Random(1)`, playing the benchmark's two-disjunct formula.  Each
fuel is run --reps times, after one untimed warm-up run; the best wall
time is kept.  Per fuel the JSON file holds wall seconds, µs per cycle
and the number of T moves played.

`reason` is ms per `clarith transform reason --play` session against the
number of phases of `gen.scanning_machine`, with --machines machines per
phase count drawn from `random.Random(1)`, each with its `gen.reason_env`
environment and the fuel the benchmark gives it.  Per machine it records
the best session time and the best `hpm.parse_hpm` time (itself the best
of PARSE_CALLS calls on its text) over --reps rounds, each round running
every machine once, and, from one more run with `wrappers.update_sketch`
and `wrappers.fetch_symbol` wrapped in counters, how often each was
called.  Per phase count it holds the medians of the times and the sums
of the call counts.

Both files also hold the Python version and CPU count of the host.
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
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gen  # noqa: E402
import reference  # noqa: E402
from clarith import cli, hpm, wrappers  # noqa: E402

DEFAULT_FUELS = (1000, 4000, 16000, 64000)
DEFAULT_PHASES = tuple(range(3, 11))
PARSE_CALLS = 20
SEED = 1


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def run_once(argv):
    """(wall seconds, T moves) of one in-process clarith command."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    wall = time.perf_counter() - start
    if rc != 0:
        raise RuntimeError(f"clarith {argv[0]} exited with {rc}")
    moves = sum(1 for line in out.getvalue().splitlines()
                if line[:1] == "T" and line[1:2] in ("", " "))
    return wall, moves


@contextlib.contextmanager
def counted(module, names):
    """Count the calls made to module's functions `names` meanwhile."""
    counts = dict.fromkeys(names, 0)
    saved = {name: getattr(module, name) for name in names}

    def wrap(name, fn):
        def counting(*args):
            counts[name] += 1
            return fn(*args)
        return counting

    for name, fn in saved.items():
        setattr(module, name, wrap(name, fn))
    try:
        yield counts
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def play_curve(args, workdir):
    """(description, points) of the play fuel curve."""
    fuels = args.fuels
    rng = random.Random(SEED)
    machine = _write(workdir, "chatter.hpm",
                     gen.machine_text(gen.chatter_machine(rng)))
    env = _write(workdir, "chatter.env", gen.env_text(gen.chatter_env(rng)))
    formula = _write(workdir, "play.clf", gen.PLAY_FORMULA + "\n")
    argvs = [["play", machine, formula, "--env", env, "--fuel", str(fuel)]
             for fuel in fuels]
    run_once(argvs[0])  # untimed: the first call builds the CLI's parser
    points = []
    for fuel, argv in zip(fuels, argvs):
        runs = [run_once(argv) for _ in range(args.reps)]
        wall = min(w for w, _ in runs)
        points.append({"fuel": fuel, "wall_s": round(wall, 6),
                       "us_per_cycle": round(wall / fuel * 1e6, 3),
                       "moves": runs[0][1]})
        print(f"fuel {fuel:>6}: {wall:.3f} s, "
              f"{wall / fuel * 1e6:.2f} us/cycle, {runs[0][1]} moves")
    return {
        "curve": "play_fuel",
        "workload": f"clarith play, gen.chatter_machine(Random({SEED})) "
                    "with its env, best of reps",
        "reps": args.reps,
    }, points


def best_parse_ms(text):
    best = float("inf")
    for _ in range(PARSE_CALLS):
        start = time.perf_counter()
        hpm.parse_hpm(text)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def reason_machine(workdir, rng, phases, n, formula):
    """One scanning machine: its text, its CLI call and, from one counted
    run, its call counts."""
    m = gen.scanning_machine(rng, phases)
    env = gen.reason_env(rng, phases)
    fuel = sum(reference.instant_move_cycles(m, env, phases)) + len(env) + 2
    text = gen.machine_text(m)
    argv = ["transform", "reason",
            "--machine", _write(workdir, f"scan{n}.hpm", text),
            "--f", formula, "--play",
            "--env", _write(workdir, f"scan{n}.env", gen.env_text(env)),
            "--fuel", str(fuel)]
    with counted(wrappers, ("update_sketch", "fetch_symbol")) as counts:
        _, moves = run_once(argv)
    return {"phases": phases, "text": text, "argv": argv,
            "record": {"rows": len(m["delta"]), "fuel": fuel, "moves": moves,
                       "session_ms": float("inf"), "parse_ms": float("inf"),
                       "update_sketch_calls": counts["update_sketch"],
                       "fetch_symbol_calls": counts["fetch_symbol"]}}


def reason_curve(args, workdir):
    """(description, points) of the reason phase curve.

    Each round times every machine once, so a slow spell of a shared
    host costs one round of every machine, not every run of a few."""
    rng = random.Random(SEED)
    formula = _write(workdir, "reason.clf", gen.REASON_FORMULA + "\n")
    inputs = [reason_machine(workdir, rng, phases, n, formula)
              for n, phases in enumerate(
                  p for p in args.phases for _ in range(args.machines))]
    for _ in range(args.reps):
        for inp in inputs:
            rec = inp["record"]
            rec["session_ms"] = min(rec["session_ms"],
                                    round(run_once(inp["argv"])[0] * 1e3, 3))
            rec["parse_ms"] = min(rec["parse_ms"],
                                  round(best_parse_ms(inp["text"]), 4))
    points = []
    for phases in args.phases:
        machines = [inp["record"] for inp in inputs if inp["phases"] == phases]
        point = {
            "phases": phases,
            "session_ms_median": round(statistics.median(
                m["session_ms"] for m in machines), 4),
            "parse_ms_median": round(statistics.median(
                m["parse_ms"] for m in machines), 4),
            "update_sketch_calls": sum(m["update_sketch_calls"]
                                       for m in machines),
            "fetch_symbol_calls": sum(m["fetch_symbol_calls"]
                                      for m in machines),
            "machines": machines,
        }
        points.append(point)
        print(f"phases {phases:>2}: {point['session_ms_median']:.2f} ms "
              f"per session, parse {point['parse_ms_median']:.3f} ms, "
              f"{point['update_sketch_calls']} update_sketch and "
              f"{point['fetch_symbol_calls']} fetch_symbol calls")
    return {
        "curve": "reason_phases",
        "workload": "clarith transform reason --play, "
                    f"gen.scanning_machine drawn from Random({SEED}) with "
                    "gen.reason_env; session and parse times are best of "
                    "reps rounds, medians over machines",
        "reps": args.reps,
        "machines_per_phase": args.machines,
        "parse_calls": PARSE_CALLS,
    }, points


CURVES = {"play": (play_curve, "BENCH_play_fuel.json"),
          "reason": (reason_curve, "BENCH_reason_phases.json")}


def _ints(text):
    return [int(x) for x in text.split(",")]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--curve", choices=sorted(CURVES), default="play")
    ap.add_argument("--fuels", type=_ints, default=list(DEFAULT_FUELS),
                    help="play: comma-separated fuel values")
    ap.add_argument("--phases", type=_ints, default=list(DEFAULT_PHASES),
                    help="reason: comma-separated phase counts")
    ap.add_argument("--machines", type=int, default=8,
                    help="reason: machines per phase count")
    ap.add_argument("--reps", type=int, default=3,
                    help="timed runs per point; the best is kept")
    ap.add_argument("--out", help="the JSON file to write "
                    "(default: the curve's BENCH_*.json file in the repo)")
    args = ap.parse_args(argv)
    if min(args.reps, args.machines, *args.fuels, *args.phases) < 1:
        ap.error("--reps, --machines, every fuel and every phase count "
                 "must be at least 1")
    sweep, default_out = CURVES[args.curve]
    out = args.out or os.path.join(ROOT, default_out)
    with tempfile.TemporaryDirectory() as workdir:
        result, points = sweep(args, workdir)
    result.update(python=platform.python_version(), cpu_count=os.cpu_count(),
                  points=points)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
