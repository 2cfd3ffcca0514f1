"""AST, parser and static analysis for the bounded formula fragment.

Grammar (ASCII):
    ada x [B] F      choice-universal, size condition |x| <= B
    ade x [B] F      choice-existential, size condition
    ada x [val B] F  value condition x <= B (induction antecedent shape)
    cla x < B : F    blind-universal over values below B
    cle x < B : F    blind-existential
    infix & v ->, prefix ~, atoms p(t,...), t1 = t2, t1 <= t2, Bit(t1,t2),
    terms: variables, binary literals, t' (successor), |t|.

The keyword `v` doubles as a variable name; it is read as the
disjunction operator only in operator position.
"""

from __future__ import annotations

from .bounds import BoundExpr, bitsize, parse_bound, unarify, Max, iterate_max, ZERO_BOUND


# ---------------------------------------------------------------------------
# terms

class Term:
    def variables(self) -> set:
        return set()


class TVar(Term):
    def __init__(self, name):
        self.name = name

    def variables(self):
        return {self.name}

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, TVar) and self.name == other.name


class TConst(Term):
    """A binary literal; empty bit string denotes 0."""

    def __init__(self, bits: str):
        if any(c not in "01" for c in bits):
            raise ValueError(f"bad binary literal {bits!r}")
        self.bits = bits

    @property
    def value(self):
        return int(self.bits, 2) if self.bits else 0

    def __repr__(self):
        return "0b" + (self.bits or "0")

    def __eq__(self, other):
        return isinstance(other, TConst) and self.value == other.value


class TSucc(Term):
    def __init__(self, arg):
        self.arg = arg

    def variables(self):
        return self.arg.variables()

    def __repr__(self):
        return f"{self.arg!r}'"


class TSize(Term):
    def __init__(self, arg):
        self.arg = arg

    def variables(self):
        return self.arg.variables()

    def __repr__(self):
        return f"|{self.arg!r}|"


def eval_term(t: Term, env) -> int:
    if isinstance(t, TVar):
        if t.name not in env:
            raise KeyError(f"unbound variable {t.name!r}")
        return env[t.name]
    if isinstance(t, TConst):
        return t.value
    if isinstance(t, TSucc):
        return eval_term(t.arg, env) + 1
    if isinstance(t, TSize):
        return bitsize(eval_term(t.arg, env))
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# formulas

class Formula:
    pass


class Atom(Formula):
    def __init__(self, name, args):
        self.name = name
        self.args = tuple(args)

    def __repr__(self):
        return f"Atom({self.name}, {list(self.args)})"


class Not(Formula):
    def __init__(self, body):
        self.body = body


class And(Formula):
    def __init__(self, left, right):
        self.left, self.right = left, right


class Or(Formula):
    def __init__(self, left, right):
        self.left, self.right = left, right


class Implies(Formula):
    def __init__(self, left, right):
        self.left, self.right = left, right


class ChoiceAll(Formula):
    """Game-universal quantifier with a size or value condition."""

    def __init__(self, var, bound: BoundExpr, body, kind="size"):
        if kind not in ("size", "value"):
            raise ValueError(kind)
        self.var, self.bound, self.body, self.kind = var, bound, body, kind


class ChoiceEx(Formula):
    def __init__(self, var, bound: BoundExpr, body, kind="size"):
        if kind not in ("size", "value"):
            raise ValueError(kind)
        self.var, self.bound, self.body, self.kind = var, bound, body, kind


class BlindAll(Formula):
    def __init__(self, var, bound: BoundExpr, body):
        self.var, self.bound, self.body = var, bound, body


class BlindEx(Formula):
    def __init__(self, var, bound: BoundExpr, body):
        self.var, self.bound, self.body = var, bound, body


# ---------------------------------------------------------------------------
# printing

def to_text(f: Formula) -> str:
    return _print(f, 0)


_PREC = {"->": 1, "v": 2, "&": 3}


def _print(f, ctx):
    if isinstance(f, Atom):
        if f.name == "=":
            return f"{_print_term(f.args[0])} = {_print_term(f.args[1])}"
        if f.name == "<=":
            return f"{_print_term(f.args[0])} <= {_print_term(f.args[1])}"
        return f"{f.name}(" + ", ".join(_print_term(a) for a in f.args) + ")"
    if isinstance(f, Not):
        return "~" + _wrap(_print(f.body, 4), isinstance(f.body, (And, Or, Implies)))
    if isinstance(f, And):
        s = f"{_print(f.left, 3)} & {_print(f.right, 3)}"
        return _wrap(s, ctx > _PREC["&"])
    if isinstance(f, Or):
        s = f"{_print(f.left, 2)} v {_print(f.right, 2)}"
        return _wrap(s, ctx > _PREC["v"])
    if isinstance(f, Implies):
        s = f"{_print(f.left, 2)} -> {_print(f.right, 1)}"
        return _wrap(s, ctx > _PREC["->"])
    if isinstance(f, ChoiceAll):
        mark = "val " if f.kind == "value" else ""
        return f"ada {f.var} [{mark}{f.bound}] {_print(f.body, 4)}"
    if isinstance(f, ChoiceEx):
        mark = "val " if f.kind == "value" else ""
        return f"ade {f.var} [{mark}{f.bound}] {_print(f.body, 4)}"
    if isinstance(f, BlindAll):
        return f"cla {f.var} < {f.bound} : {_print(f.body, 4)}"
    if isinstance(f, BlindEx):
        return f"cle {f.var} < {f.bound} : {_print(f.body, 4)}"
    raise TypeError(f"not a formula: {f!r}")


def _wrap(s, need):
    return f"({s})" if need else s


def _print_term(t):
    if isinstance(t, TVar):
        return t.name
    if isinstance(t, TConst):
        return t.bits or "0"
    if isinstance(t, TSucc):
        inner = _print_term(t.arg)
        if isinstance(t.arg, (TVar, TConst)):
            return inner + "'"
        return "(" + inner + ")'"
    if isinstance(t, TSize):
        return "|" + _print_term(t.arg) + "|"
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# parsing

_KEYWORDS = {"ada", "ade", "cla", "cle", "val", "Bit"}


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.parse_implication()
    p.skip_ws()
    if p.pos != len(p.text):
        raise SyntaxError(f"trailing input at {p.pos}: {p.text[p.pos:p.pos+20]!r}")
    return f


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek_word(self):
        self.skip_ws()
        i = self.pos
        if i < len(self.text) and (self.text[i].isalpha() or self.text[i] == "_"):
            j = i
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            return self.text[i:j]
        return None

    def take_word(self):
        w = self.peek_word()
        if w is None:
            raise SyntaxError(f"expected identifier at {self.pos}")
        self.pos += len(w)
        return w

    def try_lit(self, s):
        self.skip_ws()
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def expect(self, s):
        if not self.try_lit(s):
            raise SyntaxError(f"expected {s!r} at {self.pos}: {self.text[self.pos:self.pos+20]!r}")

    # formula levels -------------------------------------------------

    def parse_implication(self):
        left = self.parse_or()
        self.skip_ws()
        if self.text.startswith("->", self.pos):
            self.pos += 2
            return Implies(left, self.parse_implication())
        return left

    def parse_or(self):
        left = self.parse_and()
        while True:
            save = self.pos
            w = self.peek_word()
            if w == "v":
                self.pos += 1
                left = Or(left, self.parse_and())
            else:
                self.pos = save
                return left

    def parse_and(self):
        left = self.parse_unary()
        while True:
            self.skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == "&":
                self.pos += 1
                left = And(left, self.parse_unary())
            else:
                return left

    def parse_unary(self):
        self.skip_ws()
        if self.try_lit("~"):
            return Not(self.parse_unary())
        w = self.peek_word()
        if w in ("ada", "ade"):
            self.pos += 3
            var = self.take_word()
            self.expect("[")
            kind = "size"
            if self.peek_word() == "val":
                self.pos += 3
                kind = "value"
            bound = self._read_bound("]")
            body = self.parse_unary()
            cls = ChoiceAll if w == "ada" else ChoiceEx
            return cls(var, bound, body, kind)
        if w in ("cla", "cle"):
            self.pos += 3
            var = self.take_word()
            self.expect("<")
            bound = self._read_bound(":")
            body = self.parse_unary()
            cls = BlindAll if w == "cla" else BlindEx
            return cls(var, bound, body)
        if self.try_lit("("):
            f = self.parse_implication()
            self.expect(")")
            return f
        return self.parse_atom()

    def _read_bound(self, closer):
        self.skip_ws()
        depth = 0
        start = self.pos
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif c == closer and depth == 0:
                raw = self.text[start:self.pos]
                self.pos += 1
                return parse_bound(raw)
            self.pos += 1
        raise SyntaxError(f"unterminated bound started at {start}")

    def parse_atom(self):
        self.skip_ws()
        w = self.peek_word()
        if w and w not in ("v",) and self._looks_like_predicate(w):
            self.pos += len(w)
            self.expect("(")
            args = [self.parse_term()]
            while self.try_lit(","):
                args.append(self.parse_term())
            self.expect(")")
            return Atom(w, args)
        left = self.parse_term()
        self.skip_ws()
        if self.text.startswith("<=", self.pos):
            self.pos += 2
            return Atom("<=", (left, self.parse_term()))
        if self.try_lit("="):
            return Atom("=", (left, self.parse_term()))
        raise SyntaxError(f"expected atom at {self.pos}: {self.text[self.pos:self.pos+20]!r}")

    def _looks_like_predicate(self, w):
        i = self.pos + len(w)
        while i < len(self.text) and self.text[i].isspace():
            i += 1
        return i < len(self.text) and self.text[i] == "("

    def parse_term(self):
        self.skip_ws()
        if self.try_lit("|"):
            inner = self.parse_term()
            self.expect("|")
            t = TSize(inner)
        elif self.try_lit("("):
            t = self.parse_term()
            self.expect(")")
        else:
            w = self.peek_word()
            if w is not None and w not in _KEYWORDS:
                self.pos += len(w)
                t = TVar(w)
            else:
                self.skip_ws()
                i = self.pos
                while i < len(self.text) and self.text[i] in "01":
                    i += 1
                if i == self.pos:
                    raise SyntaxError(f"expected term at {self.pos}")
                t = TConst(self.text[self.pos:i])
                self.pos = i
        while self.try_lit("'"):
            t = TSucc(t)
        return t


# ---------------------------------------------------------------------------
# analysis

class Unit:
    """One choice quantifier occurrence, with its address in move space."""

    def __init__(self, address, node, mover, ancestors):
        self.address = address          # e.g. "0.1."
        self.node = node
        self.bound = node.bound
        self.mover = mover              # 'T' or 'B': who resolves it
        self.ancestors = ancestors      # addresses of the enclosing units

    def __repr__(self):
        return f"Unit({self.address!r}, var={self.node.var}, mover={self.mover})"


def units(f: Formula):
    """All choice-quantifier units in preorder, with addresses and movers."""
    out = []

    def walk(g, addr, pos, ancestors):
        if isinstance(g, Atom):
            return
        if isinstance(g, Not):
            walk(g.body, addr, not pos, ancestors)
        elif isinstance(g, (And, Or)):
            walk(g.left, addr + "0.", pos, ancestors)
            walk(g.right, addr + "1.", pos, ancestors)
        elif isinstance(g, Implies):
            walk(g.left, addr + "0.", not pos, ancestors)
            walk(g.right, addr + "1.", pos, ancestors)
        elif isinstance(g, (ChoiceAll, ChoiceEx)):
            mover = "T" if isinstance(g, ChoiceEx) == pos else "B"
            out.append(Unit(addr, g, mover, ancestors))
            walk(g.body, addr + "1.", pos, ancestors + (addr,))
        elif isinstance(g, (BlindAll, BlindEx)):
            walk(g.body, addr, pos, ancestors)
        else:
            raise TypeError(f"not a formula: {g!r}")

    walk(f, "", True, ())
    return out


def free_vars(f: Formula):
    """Free variables of f, in first-occurrence order."""
    seen = []

    def note(names, bound):
        for n in names:
            if n not in bound and n not in seen:
                seen.append(n)

    def walk(g, bound):
        if isinstance(g, Atom):
            for a in g.args:
                note(a.variables(), bound)
        elif isinstance(g, Not):
            walk(g.body, bound)
        elif isinstance(g, (And, Or, Implies)):
            walk(g.left, bound)
            walk(g.right, bound)
        elif isinstance(g, (ChoiceAll, ChoiceEx, BlindAll, BlindEx)):
            note(g.bound.variables(), bound)
            walk(g.body, bound | {g.var})
        else:
            raise TypeError(f"not a formula: {g!r}")

    walk(f, set())
    return seen


class MoveShapes:
    """The move-shape automaton of a set of unit addresses.

    A deterministic automaton whose live states are exactly the prefixes
    of the moves addr + "#" + canonical numer: one trie state per prefix
    of an address (state 0 is the empty string), then three numer states
    shared by every address: just after "#" (`self.numer`), numer "0",
    and numer starting with "1".  States are ints, None is dead, and a
    state at or past `self.numer` is a whole move.  (With no addresses
    the empty string stays live; it truncates to "" all the same.)
    """

    def __init__(self, addresses):
        trie = {"": 0}
        for addr in addresses:
            for i in range(1, len(addr) + 1):
                trie.setdefault(addr[:i], len(trie))
        n = self.numer = len(trie)
        self.delta = [{} for _ in trie] + [{"0": n + 1, "1": n + 2}, {},
                                           {"0": n + 2, "1": n + 2}]
        for prefix, state in trie.items():
            if prefix:
                self.delta[trie[prefix[:-1]]][prefix[-1]] = state
        for addr in addresses:
            self.delta[trie[addr]]["#"] = n

    def scan(self, s, state=0):
        """(state after s, len(s)), or (None, n) when s leaves every move
        shape after its first n characters."""
        delta = self.delta
        for n, c in enumerate(s):
            state = delta[state].get(c)
            if state is None:
                return None, n
        return state, len(s)

    def completions(self, s):
        """Suffixes closing s into a move, least first in the order
        # < 0 < 1 < .: "" if s is a move already, else the rest of
        addr + "#" for each address s can still become."""
        def close(state):
            if state >= self.numer:
                return [""]
            return [c + rest for c in "#01." if c in self.delta[state]
                    for rest in close(self.delta[state][c])]

        state, _ = self.scan(s)
        return [] if state is None else close(state)


class Analysis:
    """Everything the game checks read off a formula's shape.

    units (preorder), the address -> unit map, the free variables, the
    move census, the aggregate bounds and the move-shape automaton
    `shapes`.  Get it with analysis(f), which builds it once per
    formula object.
    """

    def __init__(self, f: Formula):
        self.units = units(f)
        self.by_addr = {u.address: u for u in self.units}
        self.addresses = tuple(u.address for u in self.units)
        self.shapes = MoveShapes(self.addresses)
        self.free = tuple(free_vars(f))
        n, v = len(self.units), len(self.free)
        e_top = sum(1 for u in self.units if u.mover == "T")
        self.census = {
            "e_top": e_top,
            "e_bot": n - e_top,
            "e": n,
            "D": n + v,
            "h": max(map(len, self.addresses), default=0),
            "v": v,
        }
        sub = unarify(Max(tuple(u.bound for u in self.units))) if n else ZERO_BOUND
        family = {i: iterate_max(sub, i) for i in range(n + 1)}
        self.aggregate = {"f": sub, "G": family[n], "S": family, "n": n}


def analysis(f: Formula) -> Analysis:
    """f's Analysis, built on first use and kept on f itself.

    Formula nodes are never mutated after construction, so the cache
    cannot go stale, and it is freed together with the formula.
    """
    a = f.__dict__.get("_analysis")
    if a is None:
        a = f._analysis = Analysis(f)
    return a


def choice_census(f: Formula):
    """Move-count census: e_top, e_bot, e, D, h (longest address), v."""
    return dict(analysis(f).census)


def aggregate_bounds(f: Formula):
    """Subaggregate bound f, superaggregate G, and the partial family S_i."""
    return dict(analysis(f).aggregate)
