"""Reference checks, run outside the timed spans.

`VM` is the benchmark's own interpreter for the machine dicts of
`gen.py`.  It keeps the run tape as a flat list, so a replay costs
O(cycles) and the `play` check stays cheap however slow the library's
VM gets.  The other checks follow each transformer's contract:
reason moves are truncations of the raw machine's moves, vasa retires
after at most one move, induction locks on the right answer, and
windup returns the least completion.
"""

from __future__ import annotations

import json

from gen import BLANK

_WINDUP_ORDER = "#01."


class VM:
    """One machine configuration; `step` mirrors the library's cycle."""

    def __init__(self, m):
        self.delta = m["delta"]
        self.move_states = set(m["move_states"])
        self.state = m["start"]
        self.tapes = [[] for _ in range(m["worktapes"])]
        self.heads = [0] * m["worktapes"]
        self.cells = []
        self.runhead = 0
        self.buffer = ""
        self.moves_made = 0
        self.cycle = 0

    def add(self, label, move):
        self.cells.append(label)
        self.cells.extend(move)

    def spacecost(self):
        return max((len(t) - t.count(BLANK) for t in self.tapes), default=0)

    def step(self):
        """One cycle; returns the move flushed, if any."""
        self.cycle += 1
        run_len = len(self.cells)
        rh = min(self.runhead, run_len)
        self.runhead = rh
        runsym = self.cells[rh] if rh < run_len else BLANK
        worksyms = tuple(t[h] if h < len(t) else BLANK
                         for t, h in zip(self.tapes, self.heads))
        row = self.delta.get((self.state, runsym, worksyms))
        if row is None:
            return None
        q2, writes, d_run, dirs, append = row
        for i, (w, d) in enumerate(zip(writes, dirs)):
            t, h = self.tapes[i], self.heads[i]
            if h < len(t):
                t[h] = w
            elif w != BLANK:
                t.extend([BLANK] * (h - len(t)))
                t.append(w)
            while t and t[-1] == BLANK:
                t.pop()
            limit = t.index(BLANK) if BLANK in t else len(t)
            self.heads[i] = _move(h, d, limit)
        self.runhead = _move(rh, d_run, run_len)
        self.buffer += append
        self.state = q2
        if q2 in self.move_states:
            move, self.buffer = self.buffer, ""
            self.moves_made += 1
            self.add("T", move)
            return move
        return None


def _move(h, d, limit):
    if d == "L":
        return max(0, h - 1)
    if d == "R":
        return min(h + 1, limit)
    return h


def _magnitude(m):
    i = m.rfind("#")
    if i >= 0 and all(c in "01" for c in m[i + 1:]):
        return len(m) - i - 1
    return 0


def replay_play(m, entries, fuel):
    """The CLI's `play` loop over the reference VM: the run it prints and
    the meter report (backgrounds omitted, as the CLI omits them)."""
    vm = VM(m)
    pending = list(entries)
    run, tops = [], 0
    bg, last_event = 1, 0
    amplitude, by_bg, max_space, max_time = {}, {}, 0, 0
    for cycle in range(fuel):
        env_moved = bool(pending) and pending[0][0] <= tops
        if env_moved:
            mv = pending.pop(0)[1]
            run.append(("B", mv))
            vm.add("B", mv)
            bg = max(bg, _magnitude(mv))
            last_event = cycle
        made = vm.step()
        cells = vm.spacecost()
        by_bg[bg] = max(by_bg.get(bg, 0), cells)
        max_space = max(max_space, cells)
        if made is not None:
            run.append(("T", made))
            tops += 1
            amplitude[bg] = max(amplitude.get(bg, 0), _magnitude(made))
            max_time = max(max_time, cycle - last_event)
            last_event = cycle
    meter = {"amplitude": amplitude, "max_spacecost": max_space,
             "spacecost_by_background": by_bg, "max_timecost": max_time}
    return run, json.loads(json.dumps(meter))


def instant_move_cycles(m, entries, moves):
    """Cycle at which each of the first `moves` moves is flushed when
    the environment answers instantly at its own-move slots."""
    vm = VM(m)
    pending = sorted(entries, key=lambda e: e[0])
    out = []

    def release(now):
        while pending and pending[0][0] <= now:
            vm.add("B", pending.pop(0)[1])

    release(0)
    while len(out) < moves and vm.cycle < 100000:
        if vm.step() is not None:
            out.append(vm.cycle)
            release(vm.moves_made)
    return out


def parse_session(text):
    """(run, winner line, meter dict) from a CLI play transcript."""
    run, winner, meter = [], None, None
    for line in text.splitlines():
        if line[:2] in ("T ", "B ") or line in ("T", "B"):
            run.append((line[0], line[2:]))
        elif line.startswith("winner: "):
            winner = line[len("winner: "):]
        elif line.startswith("meter: "):
            meter = json.loads(line[len("meter: "):])
    return run, winner, meter


# ---------------------------------------------------------------------------
# per-workload checks; each returns None or a one-line reason

def check_play(inp, text):
    run, winner, meter = parse_session(text)
    want_run, want_meter = replay_play(inp["machine"], inp["env"], inp["fuel"])
    if run != want_run:
        return f"run differs from the reference VM at move {_first_diff(run, want_run)}"
    if meter != want_meter:
        return f"meter report {meter!r} != reference {want_meter!r}"
    if winner is None:
        return "no winner line"
    return None


def check_vasa(inp, text, lib):
    run, winner, _ = parse_session(text)
    f = lib.fm.parse_formula(inp["formula"])
    c_env = inp["consts"]
    bad = lib.game.first_illegal_index(f, c_env, tuple(run))
    raw, _ = replay_play(inp["machine"], inp["env"], inp["fuel"])
    if bad is None:
        if run != raw:
            return "legal run differs from the raw machine's"
    else:
        if run[:bad + 1] != raw[:bad + 1]:
            return "run before retirement differs from the raw machine's"
        late = [lm for lm in run[bad + 1:] if lm[0] == "T"]
        if len(late) > 1:
            return f"{len(late)} T moves after the first illegal index {bad}"
    if not lib.game.is_quasilegal(f, tuple(run), "T"):
        return "run is not T-quasilegal"
    if winner is None:
        return "no winner line"
    return None


def check_reason(inp, text, lib):
    run, _, _ = parse_session(text)
    got = [m for label, m in run if label == "T"]
    spec = lib.hpm.parse_hpm(inp["machine_text"])
    raw = _instant_raw_moves(lib.hpm, spec, inp["env"], inp["phases"])
    f = lib.fm.parse_formula(inp["formula"])
    const = inp["env"][0][1]
    ctx = lib.game.TruncationContext(f, {"s": int(const[1:] or "0", 2)})
    want = [lib.game.truncate(m, ctx) for m in raw]
    if got != want:
        return f"emitted {got!r}, truncated raw moves {want!r}"
    if "faults:" in text:
        return "runner faults reported"
    return None


def _instant_raw_moves(hpm, spec, entries, moves):
    """The raw machine's moves over hpm.step, adversary answering at once."""
    pending = sorted(entries, key=lambda e: e[0])
    cfg = hpm.initial_configuration(spec)
    out = []

    def release(now):
        fresh = []
        while pending and pending[0][0] <= now:
            fresh.append(("B", pending.pop(0)[1]))
        return fresh

    incoming = release(0)
    for _ in range(100000):
        if len(out) == moves:
            break
        cfg = hpm.step(spec, cfg, incoming)
        incoming = []
        if cfg.last_move is not None:
            out.append(cfg.last_move)
            incoming = release(cfg.moves_made)
    return out


def check_induct(inp, result, lib):
    run, runner = result["run"], result["runner"]
    tops = [m for label, m in run if label == "T"]
    if tops != [inp["answer"]]:
        return f"answer {tops!r}, want {[inp['answer']]!r}"
    concl = lib.fm.parse_formula(inp["formula"])
    if lib.game.wins(concl, {}, run) != "T":
        return "T does not win the run"
    if runner.faults:
        return f"runner faults {runner.faults!r}"
    d = lib.induction.diagnostics(runner)
    if any(v != "ok" for v in d["validity"]):
        return "an iteration started from an invalid aggregation"
    ranks = d["ranks"]
    if any(a >= b for a, b in zip(ranks, ranks[1:])):
        return "ranks do not strictly increase"
    return None


def check_analyze(inp, result, lib):
    f = lib.fm.parse_formula(inp["formula"])
    c_env = inp["consts"]
    for buf_head, got in zip(inp["windups"], result["windups"]):
        want = least_windup(lib, f, c_env, buf_head)
        if got != want:
            return f"windup {got!r} != least completion {want!r} for {buf_head!r}"
    for s, got in zip(inp["strings"], result["truncations"]):
        if not s.startswith(got):
            return f"truncate({s!r}) = {got!r} is not a prefix"
    if not result["fmt"].startswith("formula: "):
        return "fmt check printed no formula line"
    return None


def least_windup(lib, f, c_env, pairs):
    """windup_oracle's answer, found by a lexicographic search that only
    descends through prefixes of T-move shapes.

    Any string the oracle accepts spells addr + '#' + numer for some T
    address, so every prefix of it survives the pruning; the search
    therefore visits the oracle's accepted strings in the same order.
    """
    head, (_, buf) = tuple(pairs[:-1]), pairs[-1]
    addrs = [u.address for u in lib.fm.units(f) if u.mover == "T"]
    max_len = lib.fm.choice_census(f)["h"] + 2

    def viable(s):
        for a in addrs:
            full = a + "#"
            if full.startswith(s):
                return True
            if s.startswith(full):
                rest = s[len(full):]
                if rest in ("", "0") or (rest[0] == "1" and set(rest) <= {"0", "1"}):
                    return True
        return False

    stack = [""]
    while stack:
        cur = stack.pop()
        if lib.game.is_quasilegal(f, head + (("T", buf + cur),), "T"):
            return cur
        if len(cur) < max_len:
            for c in reversed(_WINDUP_ORDER):
                if viable(buf + cur + c):
                    stack.append(cur + c)
    return None


def _first_diff(a, b):
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))
