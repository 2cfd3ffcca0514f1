"""The four workloads: seeded input pools, one session each, checks.

A pool is a list of inputs; one round runs every input once, in order.
Each input is a dict with at least `key` (unique in the pool), `kind`,
`size` (the scaling variable: fuel, phases, k or units) and `large`
(whether it belongs to the workload's largest size class).

A session returns a dict: `text` (the output that is digested),
`work` (poll calls, or checks on `analyze`), `moves` (T moves emitted),
`iterations` and `locks` (induction trace records), and whatever its
check needs.  Library modules are reached through `lib`, so a traced
run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import os

import gen
import reference

MAX_INDUCT_POLLS = 2_000_000
INDUCT_SETTLE = 50


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _cli(lib, inp):
    """Run the input's CLI command in-process; its stdout, with the
    per-run input directory stripped from the paths it echoes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = lib.cli.main(inp["argv"])
        except SystemExit as exc:
            rc = exc.code
    if rc != 0:
        raise RuntimeError(f"exit code {rc}: {err.getvalue().strip()}")
    return out.getvalue().replace(inp["workdir"] + os.sep, "")


def _tops(text):
    return sum(1 for line in text.splitlines() if line[:1] == "T"
               and line[1:2] in ("", " "))


# ---------------------------------------------------------------------------
# play: `clarith play` and `clarith transform vasa --play`, alternating

# (fuel, vasa variant) of each play/vasa pair in a round.  Cheap sessions
# come first in cost order, then the 500-fuel plays, so the median session
# falls inside that block rather than on a boundary between size classes.
PLAY_PAIRS = [(500, "illegal-late"), (500, "illegal-open"),
              (500, "illegal-late"), (500, "illegal-open"),
              (1000, "legal"), (1000, "illegal-late"),
              (2000, "legal"), (4000, "legal")]
PLAY_GOLDEN_PAIRS = [(500, "illegal-late"), (500, "illegal-open"),
                     (1000, "legal"), (2000, "legal")]
PLAY_LARGE_FUEL = 4000


def play_pool(rng, workdir, golden=False):
    fpath = _write(workdir, "play.clf", gen.PLAY_FORMULA + "\n")
    pool = []
    for n, (fuel, variant) in enumerate(PLAY_GOLDEN_PAIRS if golden else PLAY_PAIRS):
        m = gen.chatter_machine(rng)
        env = gen.chatter_env(rng)
        mpath = _write(workdir, f"chatter{n}.hpm", gen.machine_text(m))
        epath = _write(workdir, f"chatter{n}.env", gen.env_text(env))
        pool.append({
            "key": f"play{n}", "kind": "play", "size": fuel, "workdir": workdir,
            "large": fuel == PLAY_LARGE_FUEL, "machine": m, "env": env,
            "fuel": fuel,
            "argv": ["play", mpath, fpath, "--env", epath, "--fuel", str(fuel)],
        })
        m = gen.responder_machine(rng)
        env = gen.responder_env(rng, variant)
        x = rng.randint(16, 255)
        mpath = _write(workdir, f"responder{n}.hpm", gen.machine_text(m))
        epath = _write(workdir, f"responder{n}.env", gen.env_text(env))
        pool.append({
            "key": f"vasa{n}", "kind": "vasa", "size": fuel, "workdir": workdir,
            "large": False, "machine": m, "env": env, "fuel": fuel,
            "formula": gen.PLAY_FORMULA, "consts": {"x": x}, "variant": variant,
            "argv": ["transform", "vasa", "--machine", mpath, "--f", fpath,
                     "--consts", f"x={x}", "--play", "--env", epath,
                     "--fuel", str(fuel)],
        })
    return pool


def play_session(lib, inp):
    text = _cli(lib, inp)
    return {"text": text, "work": inp["fuel"], "moves": _tops(text)}


def play_check(lib, inp, out):
    if inp["kind"] == "play":
        return reference.check_play(inp, out["text"])
    return reference.check_vasa(inp, out["text"], lib)


# ---------------------------------------------------------------------------
# reason: `clarith transform reason --play` over scanning machines

REASON_PHASES = (3, 4, 5, 6, 7, 8)
# Many machines per class: costs vary a lot between machines, so medians
# need a wide sample to repeat from seed to seed.
REASON_COUNTS = {3: 12, 4: 12, 5: 12, 6: 12, 7: 16, 8: 64}


def reason_pool(rng, workdir, golden=False):
    fpath = _write(workdir, "reason.clf", gen.REASON_FORMULA + "\n")
    pool = []
    n = 0
    for phases in REASON_PHASES:
        for _ in range(1 if golden else REASON_COUNTS[phases]):
            m = gen.scanning_machine(rng, phases)
            env = gen.reason_env(rng, phases)
            cycles = reference.instant_move_cycles(m, env, phases)
            fuel = sum(cycles) + len(env) + 2
            text = gen.machine_text(m)
            mpath = _write(workdir, f"scan{n}.hpm", text)
            epath = _write(workdir, f"scan{n}.env", gen.env_text(env))
            pool.append({
                "key": f"reason{n}", "kind": "reason", "size": phases,
                "workdir": workdir,
                "large": phases == REASON_PHASES[-1], "machine_text": text,
                "env": env, "phases": phases, "fuel": fuel,
                "formula": gen.REASON_FORMULA,
                "argv": ["transform", "reason", "--machine", mpath,
                         "--f", fpath, "--play", "--env", epath,
                         "--fuel", str(fuel)],
            })
            n += 1
    return pool


def reason_session(lib, inp):
    text = _cli(lib, inp)
    return {"text": text, "work": inp["fuel"], "moves": _tops(text)}


def reason_check(lib, inp, out):
    return reference.check_reason(inp, out["text"], lib)


# ---------------------------------------------------------------------------
# induct: the synchronizer driven to its locking move

INDUCT_KS = (16, 32, 64, 128)
# Per k class: sets of three variants (counter game without delay,
# counter game with a delay of 2 or 3, mid-run game), then extra pairs of
# the two undelayed variants.  A delayed session's cost jumps with k and
# the delay, so the extra pairs at k=16 put the median session well
# inside the flatter block of undelayed k=16 sessions.
INDUCT_SETS = {16: 4, 32: 1, 64: 1, 128: 1}
INDUCT_PAIRS = {16: 12}


def induct_pool(rng, workdir, golden=False):
    pool = []
    n = 0
    classes = [(k, 1) for k in INDUCT_KS[:2]] if golden else INDUCT_SETS.items()
    for k_base, sets in classes:
        large = k_base == INDUCT_KS[-1]
        variants = []
        for _ in range(sets):
            variants += [("counter", 0), ("counter", rng.choice((2, 3))),
                         ("midrun", 0)]
        if not golden:
            pairs = INDUCT_PAIRS.get(k_base, 0)
            variants += [("counter", 0), ("midrun", 0)] * pairs
        for variant, delay in variants:
            k = k_base if large else k_base + rng.randint(0, k_base // 8)
            inp = {"key": f"induct{n}", "kind": variant, "size": k_base,
                   "large": large, "k": k, "delay": delay}
            if variant == "counter":
                inp.update(formula=gen.COUNTER_FORMULA,
                           env=[(0, "#" + gen.numer(k))],
                           answer="1.#" + gen.numer(k))
            else:
                inp.update(formula=gen.MIDRUN_FORMULA,
                           env=[(0, "#" + gen.numer(k)), (5, "1.#10")],
                           answer="1.1.#10")
            pool.append(inp)
            n += 1
    return pool


def induct_session(lib, inp):
    concl = lib.fm.parse_formula(inp["formula"])
    if inp["kind"] == "counter":
        base = lib.hpm.ScriptStrategy(gen.counter_base)
        step = lib.hpm.ScriptStrategy(gen.counter_step(inp["delay"]))
    else:
        base = lib.hpm.ScriptStrategy(gen.midrun_base)
        step = lib.hpm.ScriptStrategy(gen.midrun_step)
    runner = lib.induction.build_induction_solver(base, step, concl)
    run = ()
    pending = list(inp["env"])
    seen = 0
    polls = 0
    locked = False
    while not locked and polls < MAX_INDUCT_POLLS:
        while pending and pending[0][0] <= polls:
            run = run + (("B", pending.pop(0)[1]),)
        for m in runner.poll(run):
            run = run + (("T", m),)
        polls += 1
        # only records added by this poll are new
        trace = runner.trace
        for i in range(seen, len(trace)):
            if trace[i]["classification"].startswith("locking"):
                locked = True
        seen = len(trace)
    if not locked:
        raise RuntimeError(f"no locking iteration within {polls} polls")
    for _ in range(INDUCT_SETTLE):
        for m in runner.poll(run):
            run = run + (("T", m),)
    polls += INDUCT_SETTLE
    return {"run": run, "runner": runner, "work": polls,
            "moves": sum(1 for label, _ in run if label == "T")}


def induct_finish(out):
    """Digest text and trace counts, taken after the timed span."""
    trace = out["runner"].trace
    lines = [f"{label} {m}" for label, m in out["run"]]
    for rec in trace:
        shape = ",".join(f"{idx}:{len(body)}" for idx, body in rec["entries"])
        lines.append(f"{rec['classification']} [{shape}] "
                     f"{rec['master_scale']} {rec['U']} {rec['validity']}")
    out["text"] = "\n".join(lines) + "\n"
    out["iterations"] = len(trace)
    out["locks"] = sum(1 for rec in trace
                       if rec["classification"].startswith("locking"))


def induct_check(lib, inp, out):
    return reference.check_induct(inp, out, lib)


# ---------------------------------------------------------------------------
# analyze: `clarith fmt check`, then a batch of game-layer calls

ANALYZE_UNITS = (1, 2, 3, 4)
# Seven 4-unit formulas: their compile cost varies with shape.  The
# median session falls inside the 3-unit block.
ANALYZE_COUNTS = {1: 4, 2: 4, 3: 4, 4: 7}
STATUS_RUNS = 8
TRUNCATE_STRINGS = 8


def analyze_pool(rng, workdir, golden=False):
    pool = []
    n = 0
    for n_units in ANALYZE_UNITS:
        for _ in range(1 if golden else ANALYZE_COUNTS[n_units]):
            text, units = gen.analysis_formula(rng, n_units)
            path = _write(workdir, f"formula{n}.clf", text + "\n")
            c_env = {"s": rng.randint(4, 255)}
            pool.append({
                "key": f"analyze{n}", "kind": "analyze", "size": n_units,
                "workdir": workdir,
                "large": n_units == ANALYZE_UNITS[-1], "formula": text,
                "consts": c_env, "argv": ["fmt", "check", path],
                "runs": [gen.probe_run(rng, units) for _ in range(STATUS_RUNS)],
                "strings": [gen.probe_string(rng, units)
                            for _ in range(TRUNCATE_STRINGS)],
                "windups": gen.open_semipositions(rng, units),
            })
            n += 1
    return pool


def analyze_session(lib, inp):
    fmt_text = _cli(lib, inp)
    f = lib.fm.parse_formula(inp["formula"])
    c_env = inp["consts"]
    ctx = lib.game.TruncationContext(f, c_env)
    statuses = [repr(lib.game.legal_status(f, c_env, run)) for run in inp["runs"]]
    truncations = [lib.game.truncate(s, ctx) for s in inp["strings"]]
    windups = [lib.game.windup(lib.game.Semiposition(pairs, open_last=True),
                               f, c_env)
               for pairs in inp["windups"]]
    checks = 2 + len(statuses) + len(truncations) + len(windups)
    text = "\n".join([fmt_text, f"threshold {ctx.threshold}",
                      " ".join(ctx.addresses), *statuses,
                      *truncations, *windups]) + "\n"
    return {"text": text, "work": checks, "moves": 0, "fmt": fmt_text,
            "truncations": truncations, "windups": windups}


def analyze_check(lib, inp, out):
    return reference.check_analyze(inp, out, lib)


# ---------------------------------------------------------------------------

class Workload:
    def __init__(self, pool, session, check, finish=None):
        self.pool = pool
        self.session = session
        self.check = check
        self.finish = finish


WORKLOADS = {
    "play": Workload(play_pool, play_session, play_check),
    "reason": Workload(reason_pool, reason_session, reason_check),
    "induct": Workload(induct_pool, induct_session, induct_check, induct_finish),
    "analyze": Workload(analyze_pool, analyze_session, analyze_check),
}
