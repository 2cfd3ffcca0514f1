#!/usr/bin/env python3
"""The clarith benchmark: one workload per process, one client, closed loop.

    python3 perfbench/run.py --workload play --seed 1 --seconds 20 --trace 0

Workloads are `play`, `reason`, `induct` and `analyze` (see
workloads.py).  A run imports clarith from `src/` next to this
directory, builds its inputs from --seed, and then runs rounds (every
input of the pool once, in order), each session starting when the
previous one ends, until --seconds have passed and at least
MIN_SESSIONS sessions ran.  Every session's output is checked outside
the timed span, and a fixed-seed golden pool is replayed at the end and
its digest compared with digests.json.

--trace 0 prints the end-to-end metrics.  --trace 1 spends half the
time untraced and half with every layer call wrapped in a span; it
prints the per-layer metrics, the tracing overhead and the scaling
curves, and writes the spans to .perfbench_out/.  The last line of
standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 9
# The calibration loop defines the time unit of the gated metrics: a
# session's wall time is scaled by CAL_REFERENCE_S / (the loop's time
# around that session), i.e. reported as on a host that runs the loop in
# CAL_REFERENCE_S.  The loop is the benchmark's own code, so a change to
# clarith moves the scaled times exactly as it moves wall time, while
# the shared host's drifting speed largely cancels.  Changing the loop or
# the constant redefines the unit.
CAL_MOVES = 280
CAL_REFERENCE_S = 0.002
MIN_SESSIONS = 100
MAX_OVERRUN = 4          # stop at this multiple of --seconds regardless
GOLDEN_SEED = 0
DIGESTS = os.path.join(HERE, "digests.json")

# name -> unit; the end-to-end metrics BENCHMARK.json gates
END_TO_END = {
    "session_ms_p50": "ms",
    "large_session_ms_p50": "ms",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed, not gated: p90 falls on a boundary between size classes, so
# it jumps between them from run to run.
REPORTED = dict(END_TO_END, session_ms_p90="ms")
WORK_NAME = {"play": "cycles_per_s", "reason": "cycles_per_s",
             "induct": "cycles_per_s", "analyze": "checks_per_s"}


class SetupError(Exception):
    pass


def load_clarith():
    """Import clarith afresh from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "clarith", "__init__.py")):
        raise SetupError(f"no clarith package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules
                 if n == "clarith" or n.startswith("clarith.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("clarith")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(SRC, "clarith"):
        raise SetupError(f"clarith imported from {pkg.__file__}, not {SRC}")
    mods = {short: importlib.import_module(f"clarith.{name}")
            for short, name in (("cli", "cli"), ("fm", "formula"),
                                ("game", "game"), ("hpm", "hpm"),
                                ("induction", "induction"),
                                ("wrappers", "wrappers"),
                                ("bounds", "bounds"))}
    return types.SimpleNamespace(**mods)


def calibrate():
    """Seconds the fixed calibration loop takes now.

    It grows a run of labmoves one move at a time and recounts T's moves
    after each, the access pattern of clarith's run handling; of the
    loops tried, this one tracked the host's drift best on every workload.
    """
    t0 = time.perf_counter()
    run, tops = (), 0
    for i in range(CAL_MOVES):
        run = run + (("T" if i & 1 else "B", "0.1.#"),)
        tops += sum(1 for label, _ in run if label == "T")
    return time.perf_counter() - t0


def timed(fn, *args):
    """(result, wall seconds, host-scaled seconds) of fn(*args)."""
    before = calibrate()
    t0 = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - t0
    scale = CAL_REFERENCE_S / ((before + calibrate()) / 2)
    return result, wall, wall * scale


def setup(wl, seed, workdir):
    """Import plus input generation, repeated; setup_s is the median
    host-scaled time and the raw median is returned beside it."""
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        (lib, pool), wall, norm = timed(
            lambda: (load_clarith(), wl.pool(random.Random(seed), workdir)))
        raw.append(wall)
        scaled.append(norm)
    return lib, pool, statistics.median(scaled), statistics.median(raw)


class Session:
    __slots__ = ("inp", "seconds", "wall", "work", "moves", "iterations",
                 "locks", "ok")


class Driver:
    """Runs sessions, times them, and checks them outside the timing."""

    def __init__(self, wl, lib, tracer=None):
        self.wl = wl
        self.lib = lib
        self.tracer = tracer
        self.seen = {}            # key -> (digest, error)
        self.attempted = 0
        self.failures = []

    def one(self, inp):
        self.attempted += 1
        rec = Session()
        rec.inp = inp
        tr = self.tracer
        if tr is not None:
            tr.session = self.attempted
            tr.active = True
        try:
            out, rec.wall, rec.seconds = timed(self.wl.session, self.lib, inp)
        except Exception as exc:  # a failed session is counted, not fatal
            self._fail(inp, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            if tr is not None:
                tr.active = False
        if self.wl.finish is not None:
            self.wl.finish(out)
        digest = hashlib.sha256(out["text"].encode()).hexdigest()
        if inp["key"] in self.seen:
            first, err = self.seen[inp["key"]]
            if err is None and digest != first:
                err = "output differs from this input's first session"
        else:
            try:
                err = self.wl.check(self.lib, inp, out)
            except Exception as exc:  # a crashing check fails the session
                err = f"check raised {type(exc).__name__}: {exc}"
            self.seen[inp["key"]] = (digest, err)
        rec.work = out["work"]
        rec.moves = out["moves"]
        rec.iterations = out.get("iterations", 0)
        rec.locks = out.get("locks", 0)
        rec.ok = err is None
        if err is not None:
            self._fail(inp, err)
        return rec

    def _fail(self, inp, msg):
        self.failures.append(f"{inp['key']} ({inp['kind']} {inp['size']}): {msg}")

    def rounds(self, pool, seconds, min_sessions, min_rounds=1, on_round=None):
        records = []
        t_start = time.perf_counter()
        n_rounds = 0
        while True:
            this_round = [r for r in map(self.one, pool) if r is not None]
            records.extend(this_round)
            n_rounds += 1
            if on_round is not None:
                on_round(this_round)
            elapsed = time.perf_counter() - t_start
            if n_rounds >= min_rounds and elapsed >= seconds and (
                    len(records) >= min_sessions
                    or elapsed >= MAX_OVERRUN * seconds):
                return records, n_rounds, elapsed

    def golden_digest(self, pool):
        """Digest of the pool's outputs, and how many sessions failed."""
        lines = []
        failed = 0
        for inp in pool:
            rec = self.one(inp)
            if rec is None or not rec.ok:
                lines.append(f"{inp['key']} failed")
                failed += 1
            else:
                lines.append(f"{inp['key']} {self.seen[inp['key']][0]}")
        return hashlib.sha256("\n".join(lines).encode()).hexdigest(), failed


def pool_digest(driver, pool):
    return hashlib.sha256("\n".join(
        f"{inp['key']} {driver.seen.get(inp['key'], ('-',))[0]}"
        for inp in pool).encode()).hexdigest()


def percentile(values, q):
    """Nearest-rank percentile and how many samples lie above it."""
    vals = sorted(values)
    rank = max(1, math.ceil(q * len(vals)))
    return vals[rank - 1], len(vals) - rank


def end_to_end(records, setup_s, attr="seconds"):
    """Metrics over host-scaled session times, or wall times with
    attr="wall"."""
    ms = [getattr(r, attr) * 1000 for r in records]
    large = [getattr(r, attr) * 1000 for r in records if r.inp["large"]]
    p90, beyond = percentile(ms, 0.9)
    # Throughput is the median session's rate: the pooled ratio of sums
    # is dominated by the few costliest inputs a seed happens to draw.
    rates = [r.work / getattr(r, attr) for r in records]
    pooled = sum(r.work for r in records) / (sum(ms) / 1000)
    return {
        "session_ms_p50": statistics.median(ms),
        "session_ms_p90": p90,
        "large_session_ms_p50": statistics.median(large) if large else float("nan"),
        "work_per_s": statistics.median(rates),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {"sessions": len(ms), "large": len(large), "beyond_p90": beyond,
        "pooled": pooled}


def print_end_to_end(name, metrics, counts, prefix=""):
    for key, value in metrics.items():
        unit = REPORTED[key]
        note = ""
        if key == "session_ms_p50":
            note = f"  (n={counts['sessions']})"
        elif key == "session_ms_p90":
            note = f"  ({counts['beyond_p90']} sessions above it)"
            if counts["beyond_p90"] < 10:
                note += "  [fewer than 10 above: not a reliable p90]"
        elif key == "large_session_ms_p50":
            note = f"  (n={counts['large']})"
        elif key == "work_per_s":
            note = (f"  (= {WORK_NAME[name]}, median per session; "
                    f"pooled over all sessions {counts['pooled']:.1f})")
        print(f"{prefix}{key:<22} {value:14.4f} {unit}{note}")


def scaling_curves(name, records):
    """Median session time per size class, the ROADMAP's curves."""
    groups = {}
    for r in records:
        groups.setdefault((r.inp["kind"], r.inp["size"]), []).append(r.seconds)
    axis = {"play": "fuel", "vasa": "fuel", "reason": "phases",
            "counter": "k", "midrun": "k", "analyze": "units"}
    print("scaling curves (untraced, not gated):")
    for (kind, size), secs in sorted(groups.items()):
        med = statistics.median(secs)
        if kind in ("play", "vasa"):
            value = f"{med / size * 1e6:10.2f} us/cycle"
        else:
            value = f"{med * 1000:10.3f} ms"
        print(f"  {name:<8} {kind:<8} {axis[kind]}={size:<5} {value}  (n={len(secs)})")


def layer_metrics(rounds, round_stats):
    """Per-layer metrics: counts from the first traced round (every
    round runs the same inputs, so they must agree), times as the median
    over rounds."""
    first = rounds[0]
    metrics = {}
    mismatched = []
    for metric, unit, _ in tracing.LAYER_METRICS:
        span, _, field = metric.rpartition(".")
        if field == "calls":
            value = first.get(span, (0, 0.0, 0))[0]
            if any(r.get(span, (0, 0.0, 0))[0] != value for r in rounds[1:]):
                mismatched.append(metric)
        elif field == "self_ms":
            value = statistics.median(r.get(span, (0, 0.0, 0))[1] * 1000
                                      for r in rounds)
        else:
            continue
        metrics[metric] = (value, unit)
    stats = round_stats[0]
    fetch = first.get("wrappers.fetch_symbol", (0, 0.0, 0))
    updates = first.get("wrappers.update_sketch", (0, 0.0, 0))[0]
    derived = {
        "wrappers.fetch_depth_max": fetch[2],
        "wrappers.updates_per_emitted_move":
            updates / stats["reason_moves"] if stats["reason_moves"] else 0.0,
        "induction.iterations": stats["iterations"],
        "induction.iterations_per_lock":
            stats["iterations"] / stats["locks"] if stats["locks"] else 0.0,
    }
    units = {m: u for m, u, _ in tracing.LAYER_METRICS}
    for metric, value in derived.items():
        metrics[metric] = (value, units[metric])
    return {m: metrics[m] for m, _, _ in tracing.LAYER_METRICS}, mismatched


def round_summary(records):
    return {
        "reason_moves": sum(r.moves for r in records if r.inp["kind"] == "reason"),
        "iterations": sum(r.iterations for r in records),
        "locks": sum(r.locks for r in records),
    }


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run(args):
    wl = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(workdir, "golden"))
    try:
        lib, pool, setup_s, setup_wall = setup(wl, args.seed, workdir)
        golden = wl.pool(random.Random(GOLDEN_SEED),
                         os.path.join(workdir, "golden"), True)
        for inp in golden:
            inp["key"] = "golden-" + inp["key"]
        return measure(args, wl, lib, pool, golden, setup_s, setup_wall)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, lib, pool, golden, setup_s, setup_wall):
    name = args.workload
    tracer = tracing.Tracer() if args.trace else None
    driver = Driver(wl, lib, tracer)
    driver.one(pool[0])       # warm-up: lazy imports, first allocations
    print(f"workload {name}: pool of {len(pool)} inputs, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    correct = True
    if not args.trace:
        records, n_rounds, elapsed = driver.rounds(pool, args.seconds, MIN_SESSIONS)
        metrics, counts = end_to_end(records, setup_s)
        print(f"{len(records)} sessions in {n_rounds} rounds, {elapsed:.1f} s; "
              f"times scaled to a host running the calibration loop in "
              f"{CAL_REFERENCE_S * 1000:g} ms")
        print_end_to_end(name, metrics, counts)
        wall, _ = end_to_end(records, setup_wall, "wall")
        print_end_to_end(name, {k: v for k, v in wall.items() if k != "peak_rss_mb"},
                         counts, "wall ")
        gated = {k: (metrics[k], END_TO_END[k]) for k in END_TO_END}
    else:
        half = args.seconds / 2
        plain, _, _ = driver.rounds(pool, half, 0)
        plain_metrics, plain_counts = end_to_end(plain, setup_s)
        tracer.install()
        layer_rounds, stats = [], []

        def on_round(recs):
            layer_rounds.append(tracer.take_round())
            stats.append(round_summary(recs))

        traced, n_rounds, elapsed = driver.rounds(pool, half, 0, 2, on_round)
        traced_metrics, _ = end_to_end(traced, setup_s)
        print(f"untraced: {len(plain)} sessions; traced: {len(traced)} sessions "
              f"in {n_rounds} rounds, {elapsed:.1f} s")
        print_end_to_end(name, plain_metrics, plain_counts, "untraced ")
        for key in ("session_ms_p50", "large_session_ms_p50", "work_per_s"):
            a, b = plain_metrics[key], traced_metrics[key]
            print(f"trace overhead {key:<22} {b - a:+12.4f} {END_TO_END[key]} "
                  f"({(b - a) / a * 100:+.1f}%)")
        scaling_curves(name, plain)
        gated, mismatched = layer_metrics(layer_rounds, stats)
        for metric, unit, moves in tracing.LAYER_METRICS:
            value = gated[metric][0]
            print(f"layer {metric:<40} {value:14.4f} {unit:<6} -> {moves}")
        if mismatched:
            correct = False
            print("call counts differ between rounds:", ", ".join(mismatched))
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{name}-seed{args.seed}.csv")
        tracer.write(path)
        print(f"{len(tracer.spans)} spans written to "
              f"{os.path.relpath(path, ROOT)} ({tracer.dropped} over the cap "
              f"of {tracing.SPAN_CAP} not kept)")
    print(f"seeded pool output digest {pool_digest(driver, pool)}")
    golden_failed = golden_check(driver, name, golden)
    failed = len(driver.failures) + golden_failed
    print(f"failed_share {failed / driver.attempted:.4f} "
          f"({failed} of {driver.attempted} sessions)")
    for line in driver.failures[:20]:
        print("FAILED", line)
    print(result_line(correct and failed == 0, driver.attempted, failed, gated))
    return 0


def golden_check(driver, name, golden):
    """Replay the fixed-seed golden pool; a digest mismatch fails every
    golden session that had not already failed its own check."""
    with open(DIGESTS, encoding="utf-8") as fh:
        want = json.load(fh).get(name)
    got, failed = driver.golden_digest(golden)
    if got == want:
        print(f"golden digest {got[:16]} matches ({len(golden)} sessions)")
        return 0
    print(f"golden digest {got} != recorded {want}: outputs changed")
    return len(golden) - failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        return run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
