#!/usr/bin/env python3
"""Scaling curves of clarith, run in-process through `cli.main`.

    python3 scripts/bench_curves.py [--curve play] [--fuels 1000,4000,16000,64000]
                                    [--reps 3] [--out BENCH_play_fuel.json]
    python3 scripts/bench_curves.py --curve vasa [--fuels 1000,4000,16000,64000]
                                    [--reps 3] [--out BENCH_vasa_fuel.json]
    python3 scripts/bench_curves.py --curve reason [--phases 3,4,5,6,7,8,9,10]
                                    [--machines 8] [--reps 3]
                                    [--out BENCH_reason_phases.json]
    python3 scripts/bench_curves.py --curve reason_fuel [--multiples 1,2,4,8,16]
                                    [--machines 8] [--reps 3]
                                    [--out BENCH_reason_fuel.json]
    python3 scripts/bench_curves.py --curve analyze [--units 1,2,...,12]
                                    [--reps 3] [--out BENCH_analyze_units.json]
    python3 scripts/bench_curves.py --curve induct [--ks 16,32,64,128,256]
                                    [--reps 3] [--out BENCH_induct_k.json]

Every session is timed with `timed` from `perfbench/run.py`, which
runs the benchmark's calibration loop before and after it: next to its
wall time each session gets a host-scaled time, the wall time as on a
host that runs the loop in `CAL_REFERENCE_S`.  The shared host's
drifting speed largely cancels out of the scaled times, so curves taken
on two commits are compared on those.  A wall time can only be slowed
by the host, so the best of --reps runs is kept; a scaled time can be
off either way, by a slow spell in the session or in the calibration
loop, so the median is kept.  `rounds` times every curve: the fuel and
induct curves one point at a time, so a point's runs are back to back;
the others in rounds that run every point once, so a slow spell of a
shared host costs one round of every point, not every run of a few.

`play` is time per VM cycle against fuel: `clarith play` on the
chatter machine and environment that `perfbench/gen.py` makes from
`random.Random(1)`, playing the benchmark's two-disjunct formula.  Each
fuel is run --reps times, after one untimed warm-up run.  Per fuel the
JSON file holds wall and scaled seconds, wall and scaled µs per cycle
and, from one more run with `hpm.run_until` and `hpm.step` wrapped in
counters, the number of T moves played and how often each was called.
Those three counts do not depend on the host.  `step` is a stretch of
one cycle, so `run_until_calls` counts the calls through `step` too.
`play` advances the runner only by stretches, one per env call: to
the end of the fuel through as many T moves as the script env will sit
out, its horizon, which it gives with each call, a move or none, and
which is unbounded once it has played its last entry; of one cycle
only on a horizon of 0, an entry already due.  So `run_until_calls` is
at most one more than the env's entries, whatever the fuel: 5 for the
chatter env, whose five entries start at @0 and are due one at a time.
`step_calls` stays 0: it shows whether `play` ever steps one cycle at
a time.

`vasa` is the same against fuel for `clarith transform vasa --play`:
the responder machine and its legal environment that `perfbench/gen.py`
makes from `random.Random(1)`, with the constant x = VASA_X.  Each cycle
adds the wrapper's legality check to the VM cycle; the run stays legal,
so the wrapper never retires.  The wrapper ends each stretch at the
machine's first move, so `run_until_calls` is 3 whatever the fuel: one
stretch from each of the two entries to T's answer, and one to the end.

`reason` is ms per `clarith transform reason --play` session against the
number of phases of `gen.scanning_machine`, with --machines machines per
phase count drawn from `random.Random(1)`, each with its `gen.reason_env`
environment and the fuel the benchmark gives it.  Per machine it records
the session time and the `hpm.parse_hpm` time (itself the best of
PARSE_CALLS calls on its text, scaled by the calibration around all of
them), each wall and scaled, over --reps rounds, and, from one more run
with `wrappers.update_sketch` and `wrappers.fetch_symbol` wrapped in
counters, how often each was called.  Per phase count it holds the
medians of the times and the sums of the call counts.

`reason_fuel` is the same session against fuel: the first --machines
6-phase scanning machines drawn from `random.Random(1)`, as `reason
--phases 6` draws them, each at --multiples times the fuel the
benchmark gives it (`sum(instant_move_cycles) + len(env) + 2`).  Per
machine and multiple it records the fuel, the T moves, the
`update_sketch` and `fetch_symbol` calls of one counted run, and the
session time, wall and scaled, over --reps rounds; per multiple the
medians of the times and the sums of the counts.  Every machine makes
all its moves by 1x, and the wrapper resimulates nothing once idle, so
the calls stay flat past the fuel at which it goes idle (2x for each
of the default machines).

`analyze` is ms per `clarith fmt check` session against the number of
choice quantifiers of the formula, drawn by `gen.analysis_formula` from
a fresh `random.Random(1)` for each unit count, so a point does not
depend on which others are asked for.  Each point records the length
of the formula text, which a fresh run reproduces, the session time and
the `formula.parse_formula` time (the best of PARSE_CALLS calls, as for
`reason`), each wall and scaled, over --reps rounds.

`induct` is ms per synchronizer session against the induction bound k:
`workloads.induct_session`, the benchmark's `induct` session, polls an
`InductionRunner` to its locking move and 50 polls past it, on three
variants per k: the counter game with a step premise that answers at
once (`counter0`) or after a delay of 3 (`counter3`), and the mid-run
game (`midrun`).  Each variant's first k is run once untimed.  Per k
and variant it records the wall (best) and scaled (median) ms over
--reps runs, the polls and synchronizer iterations up to the lock, the
polls per k², and how many iterations earned each classification over
the whole session.  Every session's run must pass the benchmark's
`reference.check_induct`.  One more, untimed run per point gives
`trace_bytes`, the bytes the finished session still holds (its runner
with the trace of records, and its run), read by `tracemalloc`.  It is
reported, not compared: object sizes differ between Python versions.

Every file also holds the Python version and CPU count of the host and
the calibration's `CAL_REFERENCE_S`.  Its `curve` field names its entry
in CURVES, which declares the host-independent counts of its points:
`scripts/check_counts.py` compares them with the committed file's.
clarith is imported from `src/` next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import statistics
import sys
import tempfile
import time
import tracemalloc
import types
from collections import Counter, namedtuple
from functools import partial

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gen  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from clarith import cli, formula, game, hpm, induction, wrappers  # noqa: E402
from run import CAL_REFERENCE_S, timed  # noqa: E402

DEFAULT_FUELS = (1000, 4000, 16000, 64000)
DEFAULT_PHASES = tuple(range(3, 11))
DEFAULT_UNITS = tuple(range(1, 13))
DEFAULT_KS = (16, 32, 64, 128, 256)
DEFAULT_MULTIPLES = (1, 2, 4, 8, 16)
REASON_FUEL_PHASES = 6  # the phases of every reason_fuel machine
# (name, kind, step premise delay) of each induct variant
INDUCT_VARIANTS = (("counter0", "counter", 0), ("counter3", "counter", 3),
                   ("midrun", "midrun", 0))
PARSE_CALLS = 20
SEED = 1
VASA_X = 9  # the constant x of the vasa curve's formula


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def run_once(argv):
    """(T moves, wall seconds, scaled seconds) of one in-process clarith
    command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc, wall, scaled = timed(cli.main, argv)
    if rc != 0:
        raise RuntimeError(f"clarith {argv[0]} exited with {rc}")
    moves = sum(1 for line in out.getvalue().splitlines()
                if line[:1] == "T" and line[1:2] in ("", " "))
    return moves, wall, scaled


def best_parse(parse, text):
    """(None, wall, scaled) seconds of the best of PARSE_CALLS calls
    parse(text)."""
    def best():
        fastest = float("inf")
        for _ in range(PARSE_CALLS):
            start = time.perf_counter()
            parse(text)
            fastest = min(fastest, time.perf_counter() - start)
        return fastest

    fastest, wall, scaled = timed(best)
    return None, fastest, fastest * scaled / wall


def rounds(sessions, reps):
    """Time sessions over reps rounds, each running every session once,
    in order.  A session is a callable that returns what `timed` does,
    (result, wall s, scaled s); -> per session (the result of its first
    run, its best wall s, its median scaled s)."""
    runs = [[] for _ in sessions]
    for _ in range(reps):
        for session, out in zip(sessions, runs):
            out.append(session())
    return [(out[0][0], min(w for _, w, _ in out),
             statistics.median(s for _, _, s in out)) for out in runs]


def _ms(name, timing, digits):
    """The wall and scaled ms of a `rounds` timing, as name_ms and
    name_scaled_ms."""
    _, wall, scaled = timing
    return {f"{name}_ms": round(wall * 1e3, digits),
            f"{name}_scaled_ms": round(scaled * 1e3, digits)}


@contextlib.contextmanager
def counted(module, names):
    """Count the calls made to module's functions `names` meanwhile; a
    name the module does not define (in an older checkout) counts 0."""
    counts = dict.fromkeys(names, 0)
    saved = {name: getattr(module, name) for name in names
             if hasattr(module, name)}

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


def fuel_curve(machine, env, command, workload, args, workdir):
    """(description, points) of a fuel curve: command(machine file,
    formula file) with --env and --fuel, on the machine(rng) and env(rng)
    drawn from Random(SEED), playing the benchmark's formula."""
    rng = random.Random(SEED)
    m = _write(workdir, "fuel.hpm", gen.machine_text(machine(rng)))
    e = _write(workdir, "fuel.env", gen.env_text(env(rng)))
    argv = command(m, _write(workdir, "play.clf", gen.PLAY_FORMULA + "\n"))
    argv += ["--env", e, "--fuel"]
    run_once(argv + [str(args.fuels[0])])  # untimed: builds the CLI's parser
    points = []
    for fuel in args.fuels:
        with counted(hpm, ("run_until", "step")) as calls:
            moves, _, _ = run_once(argv + [str(fuel)])
        [(_, wall, scaled)] = rounds([partial(run_once, argv + [str(fuel)])],
                                     args.reps)
        points.append({"fuel": fuel, "wall_s": round(wall, 6),
                       "scaled_s": round(scaled, 6),
                       "us_per_cycle": round(wall / fuel * 1e6, 3),
                       "scaled_us_per_cycle": round(scaled / fuel * 1e6, 3),
                       "moves": moves, "run_until_calls": calls["run_until"],
                       "step_calls": calls["step"]})
        print(f"fuel {fuel:>6}: {wall:.3f} s, "
              f"{wall / fuel * 1e6:.2f} us/cycle "
              f"({scaled / fuel * 1e6:.2f} scaled), {moves} moves, "
              f"{calls['run_until']} run_until and {calls['step']} step calls")
    return {"workload": workload + ", best wall and median scaled time of "
                        "reps", "reps": args.reps}, points


def scanning_session(workdir, rng, phases, n, formula):
    """One scanning machine and its environment drawn from rng: (rows,
    text, its `transform reason --play` call without the fuel, the fuel
    the benchmark gives it)."""
    m = gen.scanning_machine(rng, phases)
    env = gen.reason_env(rng, phases)
    fuel = sum(reference.instant_move_cycles(m, env, phases)) + len(env) + 2
    text = gen.machine_text(m)
    argv = ["transform", "reason",
            "--machine", _write(workdir, f"scan{n}.hpm", text),
            "--f", formula, "--play",
            "--env", _write(workdir, f"scan{n}.env", gen.env_text(env))]
    return len(m["delta"]), text, argv, fuel


def counted_reason(argv, fuel):
    """The counts of one run of a reason session at fuel: its fuel, its
    T moves and its `update_sketch` and `fetch_symbol` calls."""
    with counted(wrappers, ("update_sketch", "fetch_symbol")) as counts:
        moves, _, _ = run_once(argv)
    return {"fuel": fuel, "moves": moves,
            "update_sketch_calls": counts["update_sketch"],
            "fetch_symbol_calls": counts["fetch_symbol"]}


def summary(point, machines, times, counts):
    """point with the medians over machines of the times and the sums of
    the counts, then the machines."""
    for key in times:
        point[key + "_median"] = round(statistics.median(
            m[key] for m in machines), 4)
    for key in counts:
        point[key] = sum(m[key] for m in machines)
    point["machines"] = machines
    return point


def reason_curve(args, workdir):
    """(description, points) of the reason phase curve."""
    rng = random.Random(SEED)
    formula = _write(workdir, "reason.clf", gen.REASON_FORMULA + "\n")
    machines, sessions = [], []
    for n, phases in enumerate(p for p in args.phases
                               for _ in range(args.machines)):
        rows, text, argv, fuel = scanning_session(workdir, rng, phases, n,
                                                  formula)
        argv += ["--fuel", str(fuel)]
        machines.append((phases, {"rows": rows, **counted_reason(argv, fuel)}))
        sessions += [partial(run_once, argv),
                     partial(best_parse, hpm.parse_hpm, text)]
    timings = rounds(sessions, args.reps)
    for (_, record), run, parse in zip(machines, timings[::2], timings[1::2]):
        record.update(_ms("session", run, 3), **_ms("parse", parse, 4))
    points = []
    for phases in args.phases:
        point = summary({"phases": phases},
                        [rec for p, rec in machines if p == phases],
                        ("session_ms", "session_scaled_ms", "parse_ms",
                         "parse_scaled_ms"),
                        ("update_sketch_calls", "fetch_symbol_calls"))
        points.append(point)
        print(f"phases {phases:>2}: {point['session_ms_median']:.2f} ms "
              f"per session ({point['session_scaled_ms_median']:.2f} "
              f"scaled), parse {point['parse_ms_median']:.3f} ms, "
              f"{point['update_sketch_calls']} update_sketch and "
              f"{point['fetch_symbol_calls']} fetch_symbol calls")
    return {
        "workload": "clarith transform reason --play, "
                    f"gen.scanning_machine drawn from Random({SEED}) with "
                    "gen.reason_env; per machine the best wall and the "
                    "median host-scaled time over reps rounds, medians "
                    "over machines",
        "reps": args.reps,
        "machines_per_phase": args.machines,
        "parse_calls": PARSE_CALLS,
    }, points


def reason_fuel_curve(args, workdir):
    """(description, points) of the reason fuel curve."""
    rng = random.Random(SEED)
    formula = _write(workdir, "reason.clf", gen.REASON_FORMULA + "\n")
    drawn = [scanning_session(workdir, rng, REASON_FUEL_PHASES, n, formula)
             for n in range(args.machines)]
    machines, sessions = [], []
    for multiple in args.multiples:
        for n, (_, _, argv, fuel) in enumerate(drawn):
            argv = argv + ["--fuel", str(fuel * multiple)]
            machines.append((multiple, {
                "machine": n, **counted_reason(argv, fuel * multiple)}))
            sessions.append(partial(run_once, argv))
    for (_, record), run in zip(machines, rounds(sessions, args.reps)):
        record.update(_ms("session", run, 3))
    points = []
    for multiple in args.multiples:
        point = summary({"multiple": multiple},
                        [rec for m, rec in machines if m == multiple],
                        ("session_ms", "session_scaled_ms"),
                        ("moves", "update_sketch_calls", "fetch_symbol_calls"))
        points.append(point)
        print(f"fuel x{multiple:>3}: {point['session_ms_median']:.2f} ms per "
              f"session ({point['session_scaled_ms_median']:.2f} scaled), "
              f"{point['moves']} moves, {point['update_sketch_calls']} "
              f"update_sketch and {point['fetch_symbol_calls']} "
              "fetch_symbol calls")
    return {
        "workload": "clarith transform reason --play, "
                    f"gen.scanning_machine(Random({SEED}), "
                    f"{REASON_FUEL_PHASES}) with gen.reason_env, at "
                    "multiples of the fuel the benchmark gives each "
                    "machine; per machine the best wall and the median "
                    "host-scaled time over reps rounds, medians over "
                    "machines",
        "reps": args.reps,
        "machines": args.machines,
        "phases": REASON_FUEL_PHASES,
    }, points


def analyze_curve(args, workdir):
    """(description, points) of the analyze unit curve."""
    texts, sessions = [], []
    for n in args.units:
        text, _ = gen.analysis_formula(random.Random(SEED), n)
        texts.append(text)
        sessions += [partial(run_once, ["fmt", "check", _write(
                         workdir, f"analyze{n}.clf", text + "\n")]),
                     partial(best_parse, formula.parse_formula, text)]
    sessions[0]()  # untimed: the first call builds the CLI's parser
    timings = rounds(sessions, args.reps)
    points = []
    for n, text, run, parse in zip(args.units, texts, timings[::2],
                                   timings[1::2]):
        point = {"units": n, "chars": len(text), **_ms("session", run, 3),
                 **_ms("parse", parse, 4)}
        points.append(point)
        print(f"units {n:>2}: {point['session_ms']:.3f} ms per session "
              f"({point['session_scaled_ms']:.3f} scaled), parse "
              f"{point['parse_ms']:.4f} ms")
    return {
        "workload": "clarith fmt check on gen.analysis_formula(Random("
                    f"{SEED}), units); the best wall and the median "
                    "host-scaled time over reps rounds",
        "reps": args.reps,
        "parse_calls": PARSE_CALLS,
    }, points


def induct_input(kind, delay, k):
    """A `workloads.induct_pool` input for one variant at bound k."""
    inp = {"kind": kind, "k": k, "delay": delay}
    if kind == "counter":
        inp.update(formula=gen.COUNTER_FORMULA, env=[(0, "#" + gen.numer(k))],
                   answer="1.#" + gen.numer(k))
    else:
        inp.update(formula=gen.MIDRUN_FORMULA,
                   env=[(0, "#" + gen.numer(k)), (5, "1.#10")],
                   answer="1.1.#10")
    return inp


def held_bytes(session, *args):
    """The bytes that session(*args)'s result still holds once it returns,
    by tracemalloc.  A full collection empties the interpreter's free
    lists before and after, so no object is counted that one of them
    handed out or kept."""
    gc.collect()
    tracemalloc.start()
    try:
        out = session(*args)  # noqa: F841, held while the memory is read
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def induct_curve(args, workdir):
    """(description, points) of the induct k curve."""
    lib = types.SimpleNamespace(fm=formula, game=game, hpm=hpm,
                                induction=induction)
    points = []
    for name, kind, delay in INDUCT_VARIANTS:
        workloads.induct_session(lib, induct_input(kind, delay, args.ks[0]))
        for k in args.ks:
            inp = induct_input(kind, delay, k)
            [timing] = rounds(
                [partial(timed, workloads.induct_session, lib, inp)],
                args.reps)
            out = timing[0]
            problem = reference.check_induct(inp, out, lib)
            if problem:
                raise RuntimeError(f"induct {name} at k={k}: {problem}")
            trace = out["runner"].trace
            iterations = 1 + next(i for i, rec in enumerate(trace)
                                  if rec["classification"].startswith("locking"))
            polls = out["work"] - workloads.INDUCT_SETTLE
            classes = Counter(rec["classification"] for rec in trace)
            point = {"variant": name, "k": k, **_ms("session", timing, 3),
                     "polls": polls, "iterations": iterations,
                     "polls_per_k2": round(polls / k ** 2, 4),
                     "classifications": dict(sorted(classes.items())),
                     "trace_bytes": held_bytes(workloads.induct_session,
                                               lib, inp)}
            points.append(point)
            print(f"{name:>8} k {k:>4}: {point['session_ms']:.2f} ms "
                  f"({point['session_scaled_ms']:.2f} scaled), "
                  f"{polls} polls, {iterations} iterations, "
                  f"{polls / k ** 2:.3f} polls/k^2, "
                  f"{point['trace_bytes']} bytes held")
    return {
        "workload": "workloads.induct_session polled to the lock and "
                    f"{workloads.INDUCT_SETTLE} polls past it; the best "
                    "wall and the median host-scaled time over reps; polls "
                    "and iterations count up to the lock; trace_bytes, the "
                    "bytes a finished session holds, by tracemalloc in one "
                    "more untimed run",
        "reps": args.reps,
    }, points


# A curve: the name its file carries (BENCH_<name>.json), its sweep, and
# the point key and counts that check_counts.py compares; "machine" in the
# key counts each point's machines, keyed by their index.
Curve = namedtuple("Curve", "name sweep key counts")
FUEL_COUNTS = ("moves", "run_until_calls", "step_calls")
REASON_KEY = ("phases", "multiple", "machine")
REASON_COUNTS = ("fuel", "moves", "update_sketch_calls", "fetch_symbol_calls")
CURVES = {
    "play": Curve("play_fuel", partial(
        fuel_curve, gen.chatter_machine, gen.chatter_env,
        lambda m, f: ["play", m, f],
        f"clarith play, gen.chatter_machine(Random({SEED})) with its env"),
        ("fuel",), FUEL_COUNTS),
    "vasa": Curve("vasa_fuel", partial(
        fuel_curve, gen.responder_machine,
        lambda rng: gen.responder_env(rng, "legal"),
        lambda m, f: ["transform", "vasa", "--machine", m, "--f", f,
                      "--consts", f"x={VASA_X}", "--play"],
        f"clarith transform vasa --play --consts x={VASA_X}, "
        f"gen.responder_machine(Random({SEED})) with its legal "
        "responder_env"), ("fuel",), FUEL_COUNTS),
    "reason": Curve("reason_phases", reason_curve, REASON_KEY, REASON_COUNTS),
    "reason_fuel": Curve("reason_fuel", reason_fuel_curve, REASON_KEY,
                         REASON_COUNTS),
    "analyze": Curve("analyze_units", analyze_curve, ("units",), ("chars",)),
    "induct": Curve("induct_k", induct_curve, ("variant", "k"),
                    ("polls", "iterations", "classifications")),
}


def _ints(text):
    return [int(x) for x in text.split(",")]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--curve", choices=sorted(CURVES), default="play")
    ap.add_argument("--fuels", type=_ints, default=list(DEFAULT_FUELS),
                    help="play, vasa: comma-separated fuel values")
    ap.add_argument("--phases", type=_ints, default=list(DEFAULT_PHASES),
                    help="reason: comma-separated phase counts")
    ap.add_argument("--units", type=_ints, default=list(DEFAULT_UNITS),
                    help="analyze: comma-separated unit counts")
    ap.add_argument("--ks", type=_ints, default=list(DEFAULT_KS),
                    help="induct: comma-separated induction bounds k")
    ap.add_argument("--multiples", type=_ints,
                    default=list(DEFAULT_MULTIPLES),
                    help="reason_fuel: comma-separated multiples of the "
                    "benchmark's fuel")
    ap.add_argument("--machines", type=int, default=8,
                    help="reason: machines per phase count; reason_fuel: "
                    "machines")
    ap.add_argument("--reps", type=int, default=3,
                    help="timed runs per point; the best is kept")
    ap.add_argument("--out", help="the JSON file to write "
                    "(default: the curve's BENCH_*.json file in the repo)")
    args = ap.parse_args(argv)
    if min(args.reps, args.machines, *args.fuels, *args.phases,
           *args.units, *args.ks, *args.multiples) < 1:
        ap.error("--reps, --machines, every fuel, phase count, unit "
                 "count, k and multiple must be at least 1")
    curve = CURVES[args.curve]
    out = args.out or os.path.join(ROOT, f"BENCH_{curve.name}.json")
    with tempfile.TemporaryDirectory() as workdir:
        description, points = curve.sweep(args, workdir)
    result = {"curve": curve.name, **description,
              "python": platform.python_version(), "cpu_count": os.cpu_count(),
              "cal_reference_s": CAL_REFERENCE_S, "points": points}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
