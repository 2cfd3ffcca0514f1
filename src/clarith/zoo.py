"""Randomized test subjects: scanning machines, adversary schedules,
and capped scripted strategies.

The machines built here scan their run tape and copy or synthesize
buffer characters as they go, so their moves genuinely depend on both
players' earlier moves.  That is exactly the dependency resimulation
has to reconstruct, which makes these machines good oracle fodder.
`run_scenario` drives one by `run_until` stretches, one per own move,
and hands back the final configuration, not one per cycle.
"""

from __future__ import annotations

from .game import int_to_numer
from .hpm import (BLANK, History, HPMSpec, ScriptStrategy,
                  initial_configuration, run_until)

RUN_SYMBOLS = ("T", "B", "0", "1", "#", ".", BLANK)
MOVE_CHARS = "01#."


def random_machine(rng, phases=None, phase_len=None) -> HPMSpec:
    """A machine that alternates scan phases with single moves.

    Each phase reads the run tape for a few cycles, appending either a
    fixed character or a copy of the scanned symbol, then flushes.  The
    work tape records one cell per scan step so space grows visibly.
    """
    phases = rng.randint(1, 4) if phases is None else phases
    states = []
    move_states = []
    delta = {}
    for i in range(phases):
        length = rng.randint(1, 4) if phase_len is None else phase_len
        use_worktape = rng.random() < 0.5
        for j in range(length):
            st = f"p{i}_{j}"
            states.append(st)
            nxt = f"m{i}" if j == length - 1 else f"p{i}_{j + 1}"
            mode = rng.choice(("copy", "fixed", "silent"))
            fixed = rng.choice(MOVE_CHARS)
            d_run = rng.choice(("R", "R", "R", "S"))
            write = "X" if use_worktape else BLANK
            d_work = "R" if use_worktape else "S"
            for sym in RUN_SYMBOLS:
                if mode == "copy":
                    append = sym if sym in MOVE_CHARS else ""
                elif mode == "fixed":
                    append = fixed
                else:
                    append = ""
                delta[(st, sym, (BLANK,))] = (nxt, (write,), d_run, (d_work,), append)
        mst = f"m{i}"
        states.append(mst)
        move_states.append(mst)
        if i + 1 < phases:
            for sym in RUN_SYMBOLS:
                delta[(mst, sym, (BLANK,))] = (f"p{i + 1}_0", (BLANK,), "R", ("S",), "")
    states.append("halt")
    return HPMSpec(states=states, start="p0_0", move_states=move_states,
                   worktapes=1, alphabet=list("01#.X"), delta=delta)


def random_schedule(rng, spec: HPMSpec):
    """Environment moves pinned to 'right after the i-th own move' slots,
    the only injection points resimulation assumes."""
    n_moves = len(spec.move_states)
    schedule = []
    for _ in range(rng.randint(0, 3)):
        after = rng.randint(0, max(0, n_moves - 1))
        size = rng.randint(0, 4)
        move = "".join(rng.choice(MOVE_CHARS) for _ in range(size))
        schedule.append((after, move))
    schedule.sort(key=lambda p: p[0])
    return schedule


def run_scenario(spec: HPMSpec, schedule, cycles: int):
    """Drive a machine under an instantaneous-adversary schedule for
    `cycles` cycles, by stretches.

    Each `run_until` stretch runs up to the next own move, limited to
    the cycles left; the ⊥ moves that move releases are the next
    stretch's incoming moves, so the machine absorbs them on the cycle
    after it moved.  Returns the final configuration under `config`, the
    interleaved `History` of (label, size) records, the environment
    moves in history order, and the machine's own moves in order.
    """
    pending = list(schedule)
    cfg = initial_configuration(spec)
    history = History()
    env_moves = []
    own_moves = []

    def release(now):
        out = []
        while pending and pending[0][0] <= now:
            m = pending.pop(0)[1]
            history.append(("B", len(m)))
            env_moves.append(m)
            out.append(("B", m))
        return out

    incoming = release(0)
    while cfg.cycle < cycles:
        cfg = run_until(spec, cfg, cycles - cfg.cycle, incoming)[0]
        if cfg.last_move is None:
            break
        history.append(("T", len(cfg.last_move)))
        own_moves.append(cfg.last_move)
        incoming = release(cfg.moves_made)
    return {"config": cfg, "history": history,
            "env_moves": env_moves, "own_moves": own_moves}


# ---------------------------------------------------------------------------
# scripted strategies

def random_script(rng, cap_consequent, cap_antecedent, n) -> ScriptStrategy:
    """A deterministic strategy keyed on counts in its visible run.

    Emits at most cap_consequent consequent moves, mirroring a player
    whose game offers that many choice moves on its side.
    """
    table = [rng.randrange(8) for _ in range(64)]
    key = rng.randrange(1 << 30)

    def fn(run, waited):
        bots = sum(1 for l, _ in run if l == "B")
        if n == 0:
            cons = sum(1 for l, _ in run if l == "T")
            ante = 0
        else:
            cons = sum(1 for l, m in run if l == "T" and m.startswith("1."))
            ante = sum(1 for l, m in run if l == "T" and m.startswith("0."))
        idx = (bots * 7 + cons * 13 + ante * 29 + waited * 3 + key) % 64
        a = table[idx]
        payload = "#" + int_to_numer(idx % 4)
        if a <= 3:
            return None
        if a == 4 and n != 0 and ante < cap_antecedent:
            return "0." + payload
        if cons < cap_consequent:
            return payload if n == 0 else "1." + payload
        return None

    return ScriptStrategy(fn)


def random_body(rng, max_size=4, max_scale=6, nonempty=False):
    size = rng.randint(1 if nonempty else 0, max_size)
    body = []
    for _ in range(size):
        n_moves = rng.randint(0, 2)
        payload = tuple("#" + int_to_numer(rng.randint(0, 3))
                        for _ in range(n_moves))
        body.append((payload, rng.randint(1, max_scale)))
    return tuple(body)


def random_sim_triple(rng):
    n = rng.randint(0, 3)
    b = random_body(rng, nonempty=True)
    a = () if n == 0 else random_body(rng)
    return a, b, n
