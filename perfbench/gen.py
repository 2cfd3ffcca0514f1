"""Seeded input generators for the benchmark.

Everything a session reads is made here from the run's seed: machine
files, environment scripts, formulas, counter-game premises and the
runs and strings the analyze checks probe.  Nothing is taken from
`clarith.zoo` or the test suite, so editing either never changes a
workload.

A machine is kept as a plain dict (states, start, move_states,
worktapes, delta) so the benchmark's own reference VM can replay it
without going through the library's parser; `machine_text` renders the
same dict in the `.hpm` file format the CLI loads.
"""

from __future__ import annotations

BLANK = "_"
RUN_SYMBOLS = ("T", "B", "0", "1", "#", ".", BLANK)
MOVE_CHARS = "01#."
PHASE_LEN = 3          # scan steps before each move, as in the zoo's shape
CHATTER_PHASES = 4
SWEEP = 4              # work-tape cells a waiting responder sweeps over

# The two-disjunct game played by the `play` workload: T may answer
# each environment choice inside its disjunct.
PLAY_FORMULA = ("(ada y [|x|] ade z [|x|] (y <= z))"
                " v (ada u [|x|] ade w [|x|] (u = w))")
# The formula the reason wrapper truncates against.
REASON_FORMULA = "ada x [|s|] (ade y [|s|] (x <= y))"
COUNTER_FORMULA = "ada x [val 1000] ade v [|x| + 1] (v = x)"
MIDRUN_FORMULA = "ada x [val 1000] (ada y [3] ade v [3] (y <= v))"


def numer(n: int) -> str:
    """Canonical binary numer: empty for 0, no leading zeros."""
    return format(n, "b") if n > 0 else ""


def machine_text(m) -> str:
    lines = [
        f"states: {' '.join(m['states'])}",
        f"start: {m['start']}",
        f"movestates: {' '.join(m['move_states'])}",
        f"worktapes: {m['worktapes']}",
        "alphabet: 0 1 # . X",
    ]
    for (q, runsym, worksyms), (q2, writes, d_run, dirs, app) in m["delta"].items():
        lhs = ", ".join((q, runsym) + worksyms)
        rhs = ", ".join((q2,) + writes + (d_run,) + dirs)
        if app:
            rhs += f', append "{app}"'
        lines.append(f"delta: {lhs} -> {rhs}")
    return "\n".join(lines) + "\n"


def env_text(entries) -> str:
    """Env script lines: '@t move', played once t T-moves are visible."""
    return "".join(f"@{after} {move}\n" for after, move in entries)


def _machine(states, start, move_states, delta):
    return {"states": states, "start": start, "move_states": move_states,
            "worktapes": 1, "delta": delta}


def _scan_row(rng, write):
    """One scanning state's behaviour: how it appends and moves."""
    mode = rng.choice(("copy", "fixed", "silent"))
    fixed = rng.choice(MOVE_CHARS)
    d_run = rng.choice("RRRS")
    rows = {}
    for sym in RUN_SYMBOLS:
        if mode == "copy":
            app = sym if sym in MOVE_CHARS else ""
        elif mode == "fixed":
            app = fixed
        else:
            app = ""
        rows[sym] = (("X" if write else BLANK,), d_run,
                     ("R" if write else "S",), app)
    return rows


# ---------------------------------------------------------------------------
# play: chatty machines that never stop moving

def chatter_machine(rng):
    """Cycles through scan phases forever, flushing a move after each.

    A move every PHASE_LEN + 1 cycles makes the run, and so the run
    tape, grow linearly with fuel; even phases also grow the work tape
    by one cell per scan step.  The run head always moves right and each
    phase appends fixed characters around one copied symbol, so the
    cost of a session depends on its fuel, not on the seed; the seed
    picks the characters.
    """
    states, move_states, delta = [], [], {}
    for i in range(CHATTER_PHASES):
        write = i % 2 == 0
        for j in range(PHASE_LEN):
            st = f"p{i}_{j}"
            states.append(st)
            nxt = f"m{i}" if j == PHASE_LEN - 1 else f"p{i}_{j + 1}"
            fixed = rng.choice(MOVE_CHARS)
            for sym in RUN_SYMBOLS:
                if j == 1:
                    app = sym if sym in MOVE_CHARS else fixed
                else:
                    app = fixed
                delta[(st, sym, (BLANK,))] = (
                    nxt, ("X" if write else BLANK,), "R",
                    ("R" if write else "S",), app)
        mst = f"m{i}"
        states.append(mst)
        move_states.append(mst)
        nxt = f"p{(i + 1) % CHATTER_PHASES}_0"
        for sym in RUN_SYMBOLS:
            delta[(mst, sym, (BLANK,))] = (nxt, (BLANK,), "R", ("S",), "")
    return _machine(states, "p0_0", move_states, delta)


def chatter_env(rng):
    """The constant x, then four game moves spread over T's first moves."""
    x = rng.randint(16, 255)
    slots = sorted(rng.sample(range(1, 40), 4))
    entries = [(0, "#" + numer(x))]
    for t in slots:
        addr = rng.choice(("0.", "1."))
        entries.append((t, addr + "#" + numer(rng.randint(1, 4095))))
    return entries


# ---------------------------------------------------------------------------
# vasa: a responder that answers both environment choices legally

def responder_machine(rng):
    """Waits for each ⊥ choice, answers it, and otherwise sweeps a
    bounded stretch of work tape back and forth.

    The second answer's address is appended right after the first
    answer flushes, so an illegal environment move arriving then leaves
    an open buffer for vasa's windup.
    """
    z = rng.randint(1, 15)
    w = rng.randint(0, 15)
    reply1 = "0.1.#" + numer(z)
    cut = rng.randint(1, len(reply1) - 1)
    states, delta = [], {}

    def sweeper(name, after_trigger=None):
        """Sweep the work tape; with after_trigger, also scan the run
        tape rightward and leave for after_trigger on a B label."""
        width = 2 * SWEEP
        for s in range(width):
            st = f"{name}{s}"
            states.append(st)
            nxt = f"{name}{(s + 1) % width}"
            d_work = "R" if s < SWEEP else "L"
            for sym in RUN_SYMBOLS:
                for ws in (BLANK, "X"):
                    if after_trigger and sym == "B":
                        row = (after_trigger, ("X",), "R", ("S",), "")
                    else:
                        d_run = "R" if after_trigger and sym != BLANK else "S"
                        row = (nxt, ("X",), d_run, (d_work,), "")
                    delta[(st, sym, (ws,))] = row

    def chain(name, chunks, last):
        for i, chunk in enumerate(chunks):
            st = f"{name}{i}"
            states.append(st)
            nxt = last if i == len(chunks) - 1 else f"{name}{i + 1}"
            for sym in RUN_SYMBOLS:
                for ws in (BLANK, "X"):
                    delta[(st, sym, (ws,))] = (nxt, (ws,), "S", ("S",), chunk)

    sweeper("a", "r0")
    chain("r", [reply1[:cut], reply1[cut:]], "m1")
    states.append("m1")
    for sym in RUN_SYMBOLS:
        for ws in (BLANK, "X"):
            delta[("m1", sym, (ws,))] = ("b0", (ws,), "S", ("S",), "1.1.")
    sweeper("b", "s0")
    chain("s", ["#", numer(w)] if w else ["#"], "m2")
    states.append("m2")
    for sym in RUN_SYMBOLS:
        for ws in (BLANK, "X"):
            delta[("m2", sym, (ws,))] = ("c0", (ws,), "S", ("S",), "")
    sweeper("c")
    return _machine(states, "a0", ["m1", "m2"], delta)


def responder_env(rng, variant):
    """Legal choices for both disjuncts; the illegal variants then
    re-resolve an already resolved unit, before or after T's answer."""
    entries = [(0, "0.#" + numer(rng.randint(1, 15))),
               (1, "1.#" + numer(rng.randint(1, 15)))]
    if variant == "illegal-open":
        entries.append((1, "0.#1"))
    elif variant == "illegal-late":
        entries.append((2, "1.#1"))
    return entries


# ---------------------------------------------------------------------------
# reason: scanning machines of the zoo's shape, built here

def scanning_machine(rng, phases):
    """Scan phases of PHASE_LEN steps, each ending in one move, then halt.

    Each step reads the run tape and appends a fixed character, a copy
    of the scanned symbol, or nothing, so later moves depend on both
    players' earlier moves.
    """
    states, move_states, delta = [], [], {}
    for i in range(phases):
        write = rng.random() < 0.5
        for j in range(PHASE_LEN):
            st = f"p{i}_{j}"
            states.append(st)
            nxt = f"m{i}" if j == PHASE_LEN - 1 else f"p{i}_{j + 1}"
            for sym, (writes, d_run, dirs, app) in _scan_row(rng, write).items():
                delta[(st, sym, (BLANK,))] = (nxt, writes, d_run, dirs, app)
        mst = f"m{i}"
        states.append(mst)
        move_states.append(mst)
        if i + 1 < phases:
            for sym in RUN_SYMBOLS:
                delta[(mst, sym, (BLANK,))] = (f"p{i + 1}_0", (BLANK,), "R",
                                              ("S",), "")
    states.append("halt")
    return _machine(states, "p0_0", move_states, delta)


def reason_env(rng, phases):
    """The constant s first, then 0-2 moves at own-move slots."""
    entries = [(0, "#" + numer(rng.randint(4, 63)))]
    for _ in range(rng.randint(0, 2)):
        after = rng.randint(0, phases - 1)
        size = rng.randint(1, 4)
        entries.append((after, "".join(rng.choice(MOVE_CHARS) for _ in range(size))))
    entries.sort(key=lambda e: e[0])
    return entries


# ---------------------------------------------------------------------------
# induct: counter-game premises as step functions of the visible run

def counter_base(run, waited):
    if any(label == "T" for label, _ in run):
        return None
    return "#"


def counter_step(delay):
    def fn(run, waited):
        if any(label == "T" and m.startswith("1.") for label, m in run):
            return None
        ante = [m for label, m in run if label == "B" and m.startswith("0.")]
        if not ante or waited < delay:
            return None
        return "1.#" + numer(_numer_value(ante[0]) + 1)
    return fn


def midrun_base(run, waited):
    if any(label == "T" for label, _ in run):
        return None
    ys = [m for label, m in run if label == "B"]
    if not ys:
        return None
    return "1.#" + numer(_numer_value(ys[-1]))


def midrun_step(run, waited):
    cons_env = [m for l, m in run if l == "B" and m.startswith("1.")]
    ante_env = [m for l, m in run if l == "B" and m.startswith("0.1.")]
    own_ante = [m for l, m in run if l == "T" and m.startswith("0.")]
    own_cons = [m for l, m in run if l == "T" and m.startswith("1.")]
    if cons_env and not own_ante:
        return "0.#" + cons_env[0].rpartition("#")[2]
    if ante_env and not own_cons:
        return "1.1.#" + ante_env[0].rpartition("#")[2]
    return None


def _numer_value(move: str) -> int:
    bits = move.rpartition("#")[2]
    return int(bits, 2) if bits else 0


# ---------------------------------------------------------------------------
# analyze: formulas with nested max(|s|,|s|)+1 bounds

def analysis_formula(rng, n_units):
    """A formula with n_units choice quantifiers, and its units.

    Quantifiers nest (so each bound may mention the variables above it)
    or sit side by side under & and v, so addresses differ in shape.
    Every bound has the form max(|a|,|b|) + 1.  Returns the text and the
    (address, mover) of each unit; at least one unit is T's, so every
    formula has open buffers for windup.
    """
    while True:
        units = []
        text = _build(rng, n_units, ["s"], "", units, iter(range(1, 100)))
        if any(mover == "T" for _, mover in units):
            return text, units


def _build(rng, n, scope, addr, units, counter):
    if n == 0:
        a, b = rng.choice(scope), rng.choice(scope)
        return f"({a} {rng.choice(('<=', '='))} {b})"
    if n >= 2 and rng.random() < 0.35:
        left = rng.randint(1, n - 1)
        op = rng.choice(("&", "v"))
        lhs = _build(rng, left, scope, addr + "0.", units, counter)
        rhs = _build(rng, n - left, scope, addr + "1.", units, counter)
        return f"({lhs} {op} {rhs})"
    var = f"x{next(counter)}"
    a, b = rng.choice(scope), rng.choice(scope)
    q = rng.choice(("ada", "ade"))
    units.append((addr, "T" if q == "ade" else "B"))
    body = _build(rng, n - 1, scope + [var], addr + "1.", units, counter)
    return f"{q} {var} [max(|{a}|,|{b}|) + 1] {body}"


def _choice_move(rng, addr, canonical=True):
    bits = numer(rng.randint(0, 255))
    if not canonical:
        bits = "0" + (bits or "1")
    return addr + "#" + bits


def probe_run(rng, units):
    """1-4 moves on the formula's units: mostly by their movers with
    canonical numers, sometimes not, in any order."""
    run = []
    for _ in range(rng.randint(1, 4)):
        addr, mover = rng.choice(units)
        label = mover if rng.random() < 0.8 else ("B" if mover == "T" else "T")
        run.append((label, _choice_move(rng, addr, rng.random() < 0.85)))
    return tuple(run)


def probe_string(rng, units):
    """A would-be move for truncate: a unit move with an overlong numer
    or junk after it, or plain junk."""
    if rng.random() < 0.2:
        return "".join(rng.choice(MOVE_CHARS) for _ in range(rng.randint(1, 8)))
    addr, _ = rng.choice(units)
    s = addr + "#" + "1" + "".join(rng.choice("01") for _ in range(rng.randint(0, 14)))
    if rng.random() < 0.3:
        s += "".join(rng.choice(MOVE_CHARS) for _ in range(rng.randint(1, 3)))
    return s


def open_semipositions(rng, units):
    """Two all-T semipositions whose open last buffer has a completion.

    The buffer is a prefix of a T unit's address.  When a second T unit
    exists, one T move on another unit comes first, unless that unit is
    a descendant of the buffer's unit (ancestors must be resolved first).
    """
    tops = [addr for addr, mover in units if mover == "T"]
    out = []
    for _ in range(2):
        target = rng.choice(tops)
        buf = target[:rng.randint(0, len(target))]
        others = [a for a in tops if a != target and not a.startswith(target)]
        head = ()
        if others and rng.random() < 0.6:
            head = (("T", _choice_move(rng, rng.choice(others))),)
        out.append(head + (("T", buf),))
    return out
