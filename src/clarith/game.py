"""Moves, runs, legality, winning, and run surgery.

A move is a plain string: an address made of "0."/"1." tokens, then
optionally '#' followed by a binary numer.  A labmove is a (label, move)
pair with label 'T' or 'B'.  A run is a tuple of labmoves.  A game
position is the formula plus the value of each choice unit resolved so
far, keyed by its address; legality and winning are read off the
formula's analysis, and the formula itself is never rewritten.
"""

from __future__ import annotations

from . import formula as fm
from .bounds import bitsize


class IllegalMove(Exception):
    def __init__(self, index, message):
        super().__init__(f"move {index}: {message}")
        self.index = index


# ---------------------------------------------------------------------------
# move anatomy

def split_move(m: str):
    """(address, numer) for a clean choice move, else (address-prefix, None)."""
    addr_len = 0
    while m.startswith(("0.", "1."), addr_len):
        addr_len += 2
    addr = m[:addr_len]
    rest = m[addr_len:]
    if rest.startswith("#") and is_binary(rest[1:]):
        return addr, rest[1:]
    return addr, None


def numer_value(numer: str) -> int:
    return int(numer, 2) if numer else 0


def int_to_numer(n: int) -> str:
    """Canonical numer: empty string for 0, no leading zeros otherwise."""
    return format(n, "b") if n > 0 else ""


def is_binary(s: str) -> bool:
    """Whether s holds only the digits 0 and 1; the empty string does."""
    return not s.strip("01")


def is_canonical_numer(numer: str) -> bool:
    return numer in ("", "0") or (numer.startswith("1") and is_binary(numer))


def magnitude(m: str) -> int:
    """Length of the numer: the suffix after the last '#', if binary."""
    i = m.rfind("#")
    return len(m) - i - 1 if i >= 0 and is_binary(m[i + 1:]) else 0


def constant_value(m: str) -> int:
    """The constant a ⊥ move names: its numer's value, 0 for a move
    without a clean numer."""
    return numer_value(split_move(m)[1] or "")


def constant_moves(values):
    """The ⊥ moves #<numer> naming values, canonically and in order."""
    return tuple([("B", "#" + int_to_numer(v)) for v in values])


def opening(names, run):
    """(env, rest): env binds names, in order, to the constants the run's
    first ⊥ moves name, and rest is the run without those moves; None
    while the run has fewer ⊥ moves than names."""
    values, rest = [], []
    for labmove in run:
        if labmove[0] == "B" and len(values) < len(names):
            values.append(constant_value(labmove[1]))
        else:
            rest.append(labmove)
    if len(values) < len(names):
        return None
    return dict(zip(names, values)), tuple(rest)


# ---------------------------------------------------------------------------
# evolving game positions

class GamePosition:
    """A formula with some choice quantifiers already resolved: the
    formula, the constants c_env, and `values`, each resolved unit's
    value keyed by its address.  A legal move, read off
    analysis(formula), resolves an open unit of its mover, every
    enclosing unit being resolved already.  `apply` returns a new
    position."""

    def __init__(self, formula, c_env, values):
        self.formula = formula
        self.c_env = c_env
        self.values = values

    @classmethod
    def start(cls, f, c_env):
        missing = [v for v in fm.analysis(f).free if v not in c_env]
        if missing:
            raise KeyError(f"free variables without constants: {missing}")
        return cls(f, dict(c_env), {})

    def apply(self, label, move, index=0):
        addr, numer = split_move(move)
        if numer is None:
            raise IllegalMove(index, f"not a choice move: {move!r}")
        if not is_canonical_numer(numer):
            raise IllegalMove(index, f"non-canonical numer in {move!r}")
        u = fm.analysis(self.formula).by_addr.get(addr)
        values = self.values
        if u is None or addr in values or not all(a in values for a in u.ancestors):
            raise IllegalMove(index, f"no open choice quantifier at {move!r}")
        if u.mover != label:
            raise IllegalMove(index, f"{label} may not resolve this quantifier: {move!r}")
        return GamePosition(self.formula, self.c_env,
                            {**values, addr: numer_value(numer)})

    def advance(self, run):
        """(position, bad): the position after the legal prefix of run,
        and the index in run of its first illegal move, None when every
        move is legal."""
        pos = self
        for i, (label, move) in enumerate(run):
            try:
                pos = pos.apply(label, move, i)
            except IllegalMove:
                return pos, i
        return pos, None


class LegalityResult:
    def __init__(self, kind, index=None):
        self.kind = kind
        self.index = index

    def __repr__(self):
        if self.kind == "illegal-at-index":
            return f"LegalityResult(illegal-at-index, {self.index})"
        return f"LegalityResult({self.kind})"

    def __eq__(self, other):
        if isinstance(other, str):
            return self.kind == other
        return isinstance(other, LegalityResult) and (self.kind, self.index) == (other.kind, other.index)


def first_illegal_index(f, c_env, run):
    """Index of the first illegal move, or None if the run is legal."""
    return GamePosition.start(f, c_env).advance(run)[1]


def is_quasilegal(f, run, player):
    """Whether the player's moves in run embed into some legal run of f."""
    by_addr = fm.analysis(f).by_addr
    own = [m for l, m in run if l == player]
    seen = {}
    for i, m in enumerate(own):
        addr, numer = split_move(m)
        if numer is None or not is_canonical_numer(numer):
            return False
        u = by_addr.get(addr)
        if u is None or u.mover != player or addr in seen:
            return False
        seen[addr] = i
    # an enclosing unit resolved by the same player must come first
    return not any(seen.get(a, -1) > i for addr, i in seen.items()
                   for a in by_addr[addr].ancestors)


def legal_status(f, c_env, run):
    """Classify run as legal, T-quasilegal, B-quasilegal or illegal-at-index."""
    bad = first_illegal_index(f, c_env, run)
    if bad is None:
        return LegalityResult("legal")
    if is_quasilegal(f, run, "T"):
        return LegalityResult("T-quasilegal")
    if is_quasilegal(f, run, "B"):
        return LegalityResult("B-quasilegal")
    return LegalityResult("illegal-at-index", bad)


# ---------------------------------------------------------------------------
# winning

_BUILTIN_ATOMS = {
    "=": lambda a: a[0] == a[1],
    "<=": lambda a: a[0] <= a[1],
    "Bit": lambda a: (a[1] >> a[0]) & 1 == 1,
}


def wins(f, c_env, run, atoms=None):
    """Winner 'T' or 'B' of a finished legal run; IllegalMove, with the
    index of the first illegal move, otherwise.

    `_holds` walks the formula with the run's resolved units' values.  A
    resolved choice checks its condition in the enclosing scope and
    binds its value for its body only, as a blind quantifier does.  A
    choice that is unresolved, or resolved to a value breaking its size
    or value condition, makes ada true and ade false: it favours its
    owner, or goes against the player who broke the condition.  An atom
    that is neither builtin nor known to atoms raises KeyError.
    """
    pos, bad = GamePosition.start(f, c_env).advance(run)
    if bad is not None:
        pos.apply(*run[bad], bad)  # raises the IllegalMove advance met
    return "T" if _holds(f, pos.c_env, "", pos.values, atoms) else "B"


def _holds(node, env, addr, values, atoms):
    """Whether node, at address addr, holds under env and the resolved
    units' values: the walk `wins` makes."""
    if isinstance(node, fm.Atom):
        args = tuple(t.evaluate(env) for t in node.args)
        if node.name in _BUILTIN_ATOMS:
            return _BUILTIN_ATOMS[node.name](args)
        if atoms is None:
            raise KeyError(f"no evaluator for atom {node.name!r}")
        return bool(atoms(node.name, args))
    if isinstance(node, fm.Not):
        return not _holds(node.body, env, addr, values, atoms)
    if isinstance(node, fm.Binary):
        left, right = addr + "0.", addr + "1."
        if isinstance(node, fm.And):
            return (_holds(node.left, env, left, values, atoms)
                    and _holds(node.right, env, right, values, atoms))
        if isinstance(node, fm.Or):
            return (_holds(node.left, env, left, values, atoms)
                    or _holds(node.right, env, right, values, atoms))
        return (not _holds(node.left, env, left, values, atoms)
                or _holds(node.right, env, right, values, atoms))
    if isinstance(node, fm.Choice):
        if addr in values:
            limit = node.bound.evaluate(env)
            val = values[addr]
            if (bitsize(val) if node.kind == "size" else val) <= limit:
                return _holds(node.body, {**env, node.var: val}, addr + "1.",
                              values, atoms)
        return isinstance(node, fm.ChoiceAll)
    if isinstance(node, fm.Blind):
        outcomes = (_holds(node.body, {**env, node.var: w}, addr, values, atoms)
                    for w in range(node.bound.evaluate(env)))
        return all(outcomes) if isinstance(node, fm.BlindAll) else any(outcomes)
    raise TypeError(f"not a formula: {node!r}")


# ---------------------------------------------------------------------------
# prudentization / truncation

class TruncationContext:
    """Quasilegal move shapes and the prudence threshold of a game."""

    def __init__(self, f, c_env):
        self.analysis = fm.analysis(f)
        self.addresses = self.analysis.addresses
        self.shapes = self.analysis.shapes
        top = max(c_env.values(), default=0)
        self.threshold = self.analysis.aggregate["G"](bitsize(top))


def prudentize(m: str, threshold: int) -> str:
    """Trim the numer to at most threshold bits."""
    size = magnitude(m)
    return m[:len(m) - size + threshold] if size > threshold else m


def track_append(trunc, shape, s, ctx):
    """Advance the buffer-truncation tracker by appended string s.

    shape is the move-shape state of the buffer so far, None once the
    buffer has left every move shape; from then on trunc stays put.
    """
    if shape is None or not s:
        return trunc, shape
    shape, kept = ctx.shapes.scan(s, shape)
    return prudentize(trunc + s[:kept], ctx.threshold), shape


def is_quasilegal_move_prefix(s: str, addresses) -> bool:
    """Whether s is a prefix of some string addr + '#' + canonical numer.

    The slow twin of `MoveShapes`, kept for the tests."""
    for addr in addresses:
        full = addr + "#"
        if full.startswith(s):
            return True
        if s.startswith(full):
            rest = s[len(full):]
            if is_canonical_numer(rest):
                return True
    return False


def truncate(m: str, ctx: TruncationContext) -> str:
    """Prudentization of the longest quasilegal-move prefix of m."""
    return track_append("", 0, m, ctx)[0]


# ---------------------------------------------------------------------------
# semipositions and windups

class Semiposition:
    """Labeled strings, the last of which may be open (incomplete)."""

    def __init__(self, pairs, open_last=False):
        self.pairs = tuple(pairs)
        self.open_last = bool(open_last) and bool(self.pairs)

    def __repr__(self):
        tail = " open" if self.open_last else ""
        return f"Semiposition({list(self.pairs)}{tail})"


_WINDUP_ORDER = "#01."


def windup(v: Semiposition, f, c_env) -> str:
    """Smallest string closing v's open buffer into a T-quasilegal position:
    the first passing completion, as a move's numer never decides it."""
    if not v.open_last:
        raise ValueError("windup needs an incomplete semiposition")
    if any(label != "T" for label, _ in v.pairs):
        raise ValueError("windup is defined for all-T semipositions")
    head = v.pairs[:-1]
    _, buf = v.pairs[-1]

    for rest in fm.analysis(f).shapes.completions(buf):
        if is_quasilegal(f, head + (("T", buf + rest),), "T"):
            return rest
    raise ValueError("semiposition is not quasilegitimate")


def windup_oracle(v: Semiposition, f, c_env) -> str:
    """Brute-force reference: try every string in lex order, up to two
    characters longer than the formula's longest address."""
    head = v.pairs[:-1]
    _, buf = v.pairs[-1]
    max_len = fm.analysis(f).census["h"] + 2

    stack = [""]
    # depth-first in lex order; the first hit is the smallest because a
    # prefix is tried before any of its extensions
    while stack:
        cur = stack.pop()
        run = head + (("T", buf + cur),)
        if is_quasilegal(f, run, "T"):
            return cur
        if len(cur) < max_len:
            for c in reversed(_WINDUP_ORDER):
                stack.append(cur + c)
    raise ValueError("no windup found within the probe length")


# ---------------------------------------------------------------------------
# run text format

def parse_run(text: str):
    run = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#!"):
            continue
        parts = line.split(None, 1)
        label = parts[0]
        if label not in ("T", "B"):
            raise ValueError(f"line {lineno}: label must be T or B")
        move = parts[1] if len(parts) > 1 else ""
        run.append((label, move))
    return tuple(run)


def format_run(run) -> str:
    return "".join(f"{label} {move}\n" for label, move in run)
