"""AST, parser and static analysis for the bounded formula fragment.

Grammar (ASCII):
    ada x [B] F      choice-universal, size condition |x| <= B
    ade x [B] F      choice-existential, size condition
    ada x [val B] F  value condition x <= B (induction antecedent shape)
    cla x < B : F    blind-universal over values below B
    cle x < B : F    blind-existential
    infix & v ->, prefix ~, atoms p(t,...), t1 = t2, t1 <= t2, Bit(t1,t2),
    terms: variables, binary literals, t' (successor), |t|, (t).
B is a bound in the grammar of clarith.bounds, read in place by the
Scanner that _Parser extends.

The keyword `v` doubles as a variable name; it is read as the
disjunction operator only in operator position.
"""

from __future__ import annotations

import re

from .bounds import BoundExpr, Scanner, bitsize, unarify, Max, iterate_max, ZERO_BOUND


# ---------------------------------------------------------------------------
# terms

class Term:
    """A term; text() is the form parse_term reads back, and its repr."""

    def variables(self) -> set:
        return set()

    def __repr__(self):
        return self.text()


class TVar(Term):
    def __init__(self, name):
        self.name = name

    def variables(self):
        return {self.name}

    def evaluate(self, env):
        if self.name not in env:
            raise KeyError(f"unbound variable {self.name!r}")
        return env[self.name]

    def text(self):
        return self.name


class TConst(Term):
    """A binary literal; empty bit string denotes 0."""

    def __init__(self, bits: str):
        if any(c not in "01" for c in bits):
            raise ValueError(f"bad binary literal {bits!r}")
        self.bits = bits

    def evaluate(self, env):
        return int(self.bits, 2) if self.bits else 0

    def text(self):
        return self.bits or "0"


class TUnary(Term):
    """A function of one term, arg: its successor or its size."""

    def __init__(self, arg):
        self.arg = arg

    def variables(self):
        return self.arg.variables()


class TSucc(TUnary):
    def evaluate(self, env):
        return self.arg.evaluate(env) + 1

    def text(self):
        return self.arg.text() + "'"


class TSize(TUnary):
    def evaluate(self, env):
        return bitsize(self.arg.evaluate(env))

    def text(self):
        return f"|{self.arg.text()}|"


# ---------------------------------------------------------------------------
# formulas

class Formula:
    """A formula; its repr is to_text, the text parse_formula reads back."""

    def __repr__(self):
        return to_text(self)


class Atom(Formula):
    def __init__(self, name, args):
        self.name = name
        self.args = tuple(args)


class Not(Formula):
    def __init__(self, body):
        self.body = body


class Binary(Formula):
    """left op right; prec is the operator's binding strength."""

    def __init__(self, left, right):
        self.left, self.right = left, right


class And(Binary):
    op, prec = "&", 3


class Or(Binary):
    op, prec = "v", 2


class Implies(Binary):
    op, prec = "->", 1


class Choice(Formula):
    """A choice quantifier, with a size (|x| <= B) or value (x <= B)
    condition; keyword is how it is written."""

    def __init__(self, var, bound: BoundExpr, body, kind="size"):
        if kind not in ("size", "value"):
            raise ValueError(kind)
        self.var, self.bound, self.body, self.kind = var, bound, body, kind


class ChoiceAll(Choice):
    keyword = "ada"


class ChoiceEx(Choice):
    keyword = "ade"


class Blind(Formula):
    """A blind quantifier over the values below its bound."""

    def __init__(self, var, bound: BoundExpr, body):
        self.var, self.bound, self.body = var, bound, body


class BlindAll(Blind):
    keyword = "cla"


class BlindEx(Blind):
    keyword = "cle"


# ---------------------------------------------------------------------------
# printing

def to_text(f: Formula) -> str:
    return _print(f, 0)


def _print(f, ctx):
    if isinstance(f, Atom):
        if f.name in ("=", "<="):
            return f"{f.args[0].text()} {f.name} {f.args[1].text()}"
        return f"{f.name}(" + ", ".join(a.text() for a in f.args) + ")"
    if isinstance(f, Not):
        return "~" + _wrap(_print(f.body, 4), isinstance(f.body, Binary))
    if isinstance(f, Binary):
        # -> groups to the right, & and v to the left
        left = _print(f.left, 2 if isinstance(f, Implies) else f.prec)
        return _wrap(f"{left} {f.op} {_print(f.right, f.prec)}", ctx > f.prec)
    if isinstance(f, Choice):
        mark = "val " if f.kind == "value" else ""
        return f"{f.keyword} {f.var} [{mark}{f.bound}] {_print(f.body, 4)}"
    if isinstance(f, Blind):
        return f"{f.keyword} {f.var} < {f.bound} : {_print(f.body, 4)}"
    # not {f!r}: a Formula's repr would print f again
    raise TypeError(f"not a formula: {type(f).__name__}")


def _wrap(s, need):
    return f"({s})" if need else s


# ---------------------------------------------------------------------------
# parsing

_KEYWORDS = {"ada", "ade", "cla", "cle", "val", "Bit"}
_QUANTIFIERS = {c.keyword: c for c in (ChoiceAll, ChoiceEx, BlindAll, BlindEx)}
_TERM_TEXT = re.compile(r"[\w\s'|()]*")  # the characters a term's text may hold
_SPACE = re.compile(r"\s*")


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    return p.finish(p.parse_implication())


class _Parser(Scanner):
    def parse_implication(self):
        left = self.parse_or()
        if self.try_lit("->"):
            return Implies(left, self.parse_implication())
        return left

    def parse_or(self):
        left = self.parse_and()
        while self.peek_word() == "v":
            self.pos += 1
            left = Or(left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_unary()
        while self.try_lit("&"):
            left = And(left, self.parse_unary())
        return left

    def parse_unary(self):
        if self.try_lit("~"):
            return Not(self.parse_unary())
        cls = _QUANTIFIERS.get(self.peek_word())
        if cls is not None:
            self.pos += 3
            var = self.take_word()
            if issubclass(cls, Blind):
                self.expect("<")
                bound = self.bound()
                self.expect(":")
                return cls(var, bound, self.parse_unary())
            self.expect("[")
            kind = "size"
            if self.peek_word() == "val":
                self.pos += 3
                kind = "value"
            bound = self.bound()
            self.expect("]")
            return cls(var, bound, self.parse_unary(), kind)
        if self.text.startswith("(", self.pos) and not self._opens_a_term():
            self.pos += 1
            f = self.parse_implication()
            self.expect(")")
            return f
        return self.parse_atom()

    _run_end = 0  # end of the run whose parentheses `_closing` pairs up

    def _opens_a_term(self):
        """Whether the "(" at pos is a term's: it closes before ', = or <=,
        within the run of characters a term's text may hold.  The first
        lookahead in a run pairs up every parenthesis of the run; pos only
        moves forward, so each character is indexed once per parse and a
        lookahead is a lookup."""
        text = self.text
        if self.pos >= self._run_end:
            self._run_end = _TERM_TEXT.match(text, self.pos).end()
            self._closing, opened = {}, []
            for i in range(self.pos, self._run_end):
                if text[i] == "(":
                    opened.append(i)
                elif text[i] == ")" and opened:
                    self._closing[opened.pop()] = i
        j = self._closing.get(self.pos)
        return j is not None and text.startswith(("'", "=", "<="),
                                                 _SPACE.match(text, j + 1).end())

    def parse_atom(self):
        w = self.peek_word()
        if w and w != "v" and self._looks_like_predicate(w):
            self.pos += len(w)
            self.expect("(")
            args = [self.parse_term()]
            while self.try_lit(","):
                args.append(self.parse_term())
            self.expect(")")
            return Atom(w, args)
        left = self.parse_term()
        if self.try_lit("<="):
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
    """One choice quantifier occurrence, with its address in move space;
    it keeps the quantifier's var and bound, not the quantifier node."""

    def __init__(self, address, var, bound, mover, ancestors):
        self.address = address          # e.g. "0.1."
        self.var, self.bound = var, bound
        self.mover = mover              # 'T' or 'B': who resolves it
        self.ancestors = ancestors      # addresses of the enclosing units

    def __repr__(self):
        return f"Unit({self.address!r}, var={self.var}, mover={self.mover})"


def units(f: Formula):
    """All choice-quantifier units in preorder, with addresses and movers."""
    return list(analysis(f).units)


def free_vars(f: Formula):
    """Free variables of f, in first-occurrence order."""
    return list(analysis(f).free)


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
        addr + "#" for each address s can still become, by `_closings`."""
        state, _ = self.scan(s)
        return [] if state is None else _closings(self.delta, self.numer, state)


def _closings(delta, numer, state):
    """The suffixes leading from state to a whole move, least first."""
    if state >= numer:
        return [""]
    return [c + rest for c in "#01." if c in delta[state]
            for rest in _closings(delta, numer, delta[state][c])]


class Analysis:
    """Everything the game checks read off a formula's shape.

    units (preorder) and the free variables (first-occurrence order),
    both read in one walk of f, the address -> unit map, the move
    census, the aggregate bounds and the move-shape automaton `shapes`.
    Get it with analysis(f), which builds it once per formula object.
    """

    def __init__(self, f: Formula):
        units, free = [], []

        def note(names, bound):
            for n in names:
                if n not in bound and n not in free:
                    free.append(n)

        stack = [(f, "", True, (), frozenset())]  # walked in preorder
        while stack:
            g, addr, pos, ancestors, bound = stack.pop()
            if isinstance(g, Atom):
                for a in g.args:
                    note(a.variables(), bound)
            elif isinstance(g, Not):
                stack.append((g.body, addr, not pos, ancestors, bound))
            elif isinstance(g, Binary):  # the right side is popped last
                stack.append((g.right, addr + "1.", pos, ancestors, bound))
                stack.append((g.left, addr + "0.", pos != isinstance(g, Implies),
                              ancestors, bound))
            elif isinstance(g, (Choice, Blind)):
                note(g.bound.variables(), bound)
                if isinstance(g, Choice):
                    mover = "T" if isinstance(g, ChoiceEx) == pos else "B"
                    units.append(Unit(addr, g.var, g.bound, mover, ancestors))
                    addr, ancestors = addr + "1.", ancestors + (addr,)
                stack.append((g.body, addr, pos, ancestors, bound | {g.var}))
            else:
                raise TypeError(f"not a formula: {g!r}")
        self.units = units
        self.by_addr = {u.address: u for u in self.units}
        self.addresses = tuple(u.address for u in self.units)
        self.shapes = MoveShapes(self.addresses)
        self.free = tuple(free)
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
        self.aggregate = {"f": sub, "G": iterate_max(sub, n)}


def analysis(f: Formula) -> Analysis:
    """f's Analysis, built on first use and kept on f itself.

    Formula nodes are never mutated after construction, so the cache
    cannot go stale.  Nothing an Analysis holds refers back to f, so
    reference counting frees f together with its Analysis.
    """
    a = f.__dict__.get("_analysis")
    if a is None:
        a = f._analysis = Analysis(f)
    return a


def choice_census(f: Formula):
    """Move-count census: e_top, e_bot, e, D, h (longest address), v."""
    return dict(analysis(f).census)


def aggregate_bounds(f: Formula):
    """Subaggregate bound f and superaggregate G = max(f, ..., f^e) over
    the e choice units; iterate_max(f, i) is the partial maximum."""
    return dict(analysis(f).aggregate)
