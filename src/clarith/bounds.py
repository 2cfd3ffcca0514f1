"""Monotone bound expressions: evaluation, unarification, composition.

Bound expressions are closed syntax (literals, size-of-variable atoms,
+, *, max, log) so they can be printed, compared and sampled for
monotonicity.  A UnaryBound is a bound over the single placeholder
variable "z" that is applied directly to a natural number rather than
to the size of anything.

The superaggregate G(z) = max(f(z), ..., f^n(z)) and its partial family
S_i are evaluated numerically: iterate_max wraps f in one IteratedMax
node that applies f to a number n times, so evaluating G costs n
evaluations of f.  UnaryBound.compose stays symbolic (it substitutes
the inner expression for z), so f^i written out by composition, whose
tree grows as (z-occurrences)^i, serves as the slow twin.
"""

from __future__ import annotations


def bitsize(n: int) -> int:
    """Binary size of a natural number, with |0| = 1."""
    if n < 0:
        raise ValueError("bound arithmetic is over naturals")
    return max(1, n.bit_length())


def ceil_log2(n: int) -> int:
    """ceil(log2(n+1)); the 'log' of the bound grammar."""
    return n.bit_length() if n >= 0 else 0


class BoundExpr:
    """Base class for bound expression nodes."""

    def evaluate(self, env):
        raise NotImplementedError

    def variables(self):
        """The variable names, in first-occurrence order, as a set-like
        view."""
        return {}.keys()

    def substitute(self, mapping):
        """Replace SizeVar/RawVar nodes per mapping {name: BoundExpr}."""
        return self

    def __eq__(self, other):
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self):
        return hash((type(self).__name__, repr(self)))


def _union(*exprs):
    return dict.fromkeys(n for e in exprs for n in e.variables()).keys()


class Nat(BoundExpr):
    def __init__(self, value: int):
        if value < 0:
            raise ValueError("negative literal in bound")
        self.value = value

    def evaluate(self, env):
        return self.value

    def __repr__(self):
        return str(self.value)


class SizeVar(BoundExpr):
    """The size |x| of a named game variable; env supplies x's value."""

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, env):
        if self.name not in env:
            raise KeyError(f"unbound variable {self.name!r} in bound")
        return bitsize(env[self.name])

    def variables(self):
        return {self.name: None}.keys()

    def substitute(self, mapping):
        return mapping.get(self.name, self)

    def __repr__(self):
        return f"|{self.name}|"


class RawVar(BoundExpr):
    """A placeholder evaluated directly to its assigned natural.

    Only used inside UnaryBound, where the single argument is already a
    size and must not be re-measured.
    """

    def __init__(self, name: str = "z"):
        self.name = name

    def evaluate(self, env):
        if self.name not in env:
            raise KeyError(f"unbound variable {self.name!r} in bound")
        return env[self.name]

    def variables(self):
        return {self.name: None}.keys()

    def substitute(self, mapping):
        return mapping.get(self.name, self)

    def __repr__(self):
        return self.name


class Add(BoundExpr):
    def __init__(self, left, right):
        self.left, self.right = left, right

    def evaluate(self, env):
        return self.left.evaluate(env) + self.right.evaluate(env)

    def variables(self):
        return _union(self.left, self.right)

    def substitute(self, mapping):
        return Add(self.left.substitute(mapping), self.right.substitute(mapping))

    def __repr__(self):
        return f"({self.left} + {self.right})"


class Mul(BoundExpr):
    def __init__(self, left, right):
        self.left, self.right = left, right

    def evaluate(self, env):
        return self.left.evaluate(env) * self.right.evaluate(env)

    def variables(self):
        return _union(self.left, self.right)

    def substitute(self, mapping):
        return Mul(self.left.substitute(mapping), self.right.substitute(mapping))

    def __repr__(self):
        return f"({self.left} * {self.right})"


class Max(BoundExpr):
    def __init__(self, args):
        self.args = tuple(args)
        if not self.args:
            raise ValueError("max needs at least one argument")

    def evaluate(self, env):
        return max(a.evaluate(env) for a in self.args)

    def variables(self):
        return _union(*self.args)

    def substitute(self, mapping):
        return Max(tuple(a.substitute(mapping) for a in self.args))

    def __repr__(self):
        return "max(" + ", ".join(map(repr, self.args)) + ")"


class Log(BoundExpr):
    def __init__(self, arg):
        self.arg = arg

    def evaluate(self, env):
        return ceil_log2(self.arg.evaluate(env))

    def variables(self):
        return self.arg.variables()

    def substitute(self, mapping):
        return Log(self.arg.substitute(mapping))

    def __repr__(self):
        return f"log({self.arg})"


class UnaryBound:
    """A monotone bound in the single direct variable z."""

    VAR = "z"

    def __init__(self, expr: BoundExpr):
        extra = expr.variables() - {self.VAR}
        if extra:
            raise ValueError(f"unary bound mentions {sorted(extra)}")
        self.expr = expr

    def __call__(self, z: int) -> int:
        return self.expr.evaluate({self.VAR: z})

    def compose(self, inner: "UnaryBound") -> "UnaryBound":
        return UnaryBound(self.expr.substitute({self.VAR: inner.expr}))

    def __eq__(self, other):
        return isinstance(other, UnaryBound) and self.expr == other.expr

    def __repr__(self):
        return f"UnaryBound({self.expr!r})"


IDENTITY = UnaryBound(RawVar("z"))
ZERO_BOUND = UnaryBound(Nat(0))


def unarify(b: BoundExpr) -> UnaryBound:
    """Replace every size atom of b by the single direct variable z."""
    mapping = {name: RawVar(UnaryBound.VAR) for name in b.variables()}
    return UnaryBound(b.substitute(mapping))


class IteratedMax(BoundExpr):
    """max(f(v), f(f(v)), ..., f^n(v)) where v is the value of arg.

    f is applied to numbers, never substituted into itself, so the node
    stays one node whatever n is.  variables() and substitute() act on
    arg alone: f is closed over its own placeholder.
    """

    def __init__(self, f: UnaryBound, n: int, arg: BoundExpr):
        self.f, self.n, self.arg = f, n, arg

    def evaluate(self, env):
        expr, var = self.f.expr, UnaryBound.VAR
        v = self.arg.evaluate(env)
        best = 0
        for _ in range(self.n):
            v = expr.evaluate({var: v})
            best = max(best, v)
        return best

    def variables(self):
        return self.arg.variables()

    def substitute(self, mapping):
        return IteratedMax(self.f, self.n, self.arg.substitute(mapping))

    def __repr__(self):
        return f"itermax[{self.f.expr!r}, {self.n}]({self.arg!r})"


def iterate_max(f: UnaryBound, n: int) -> UnaryBound:
    """max(f(z), f(f(z)), ..., f^n(z)); the constant 0 when n = 0."""
    if n <= 0:
        return ZERO_BOUND
    return UnaryBound(IteratedMax(f, n, RawVar(UnaryBound.VAR)))


def statute_limit(w: int, u: int, params) -> int:
    """Explicit silence threshold for the synchronizer's doubling test.

    params carries the census naturals r (states), g (work tapes),
    q (tape symbols), e (move count), v (free-variable count),
    h (longest address length) and the superaggregate unary bound G.
    """
    r = params["r"]
    g = params["g"]
    q = params["q"]
    e = params["e"]
    v = params["v"]
    h = params["h"]
    G = params["G"]
    middle = (v + 1) * (w + 2) + 2 * e * (G(w) + h + 2) + 1
    return r * (u + 1) ** g * middle * q ** (g * u) * 2 * e


# ---------------------------------------------------------------------------
# textual grammar:  expr := nat | '|'ident'|' | expr+expr | expr*expr
#                         | max(expr,...) | log(expr)

def parse_bound(text: str) -> BoundExpr:
    tokens = _tokenize(text)
    expr, pos = _parse_sum(tokens, 0)
    if pos != len(tokens):
        raise SyntaxError(f"trailing input in bound at token {pos}: {tokens[pos]}")
    return expr


def _tokenize(text):
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(("nat", text[i:j]))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("ident", text[i:j]))
            i = j
        elif c in "+*(),|":
            out.append((c, c))
            i += 1
        else:
            raise SyntaxError(f"bad character {c!r} in bound at {i}")
    return out


def _parse_sum(tokens, pos):
    left, pos = _parse_product(tokens, pos)
    while pos < len(tokens) and tokens[pos][0] == "+":
        right, pos = _parse_product(tokens, pos + 1)
        left = Add(left, right)
    return left, pos


def _parse_product(tokens, pos):
    left, pos = _parse_atom(tokens, pos)
    while pos < len(tokens) and tokens[pos][0] == "*":
        right, pos = _parse_atom(tokens, pos + 1)
        left = Mul(left, right)
    return left, pos


def _expect(tokens, pos, kind):
    if pos >= len(tokens) or tokens[pos][0] != kind:
        got = tokens[pos][1] if pos < len(tokens) else "end of input"
        raise SyntaxError(f"expected {kind!r} in bound, got {got}")
    return pos + 1


def _parse_atom(tokens, pos):
    if pos >= len(tokens):
        raise SyntaxError("unexpected end of bound")
    kind, value = tokens[pos]
    if kind == "nat":
        return Nat(int(value)), pos + 1
    if kind == "|":
        pos = _expect(tokens, pos + 1, "ident")
        name = tokens[pos - 1][1]
        pos = _expect(tokens, pos, "|")
        return SizeVar(name), pos
    if kind == "ident" and value == "max":
        pos = _expect(tokens, pos + 1, "(")
        args = []
        arg, pos = _parse_sum(tokens, pos)
        args.append(arg)
        while pos < len(tokens) and tokens[pos][0] == ",":
            arg, pos = _parse_sum(tokens, pos + 1)
            args.append(arg)
        pos = _expect(tokens, pos, ")")
        return Max(args), pos
    if kind == "ident" and value == "log":
        pos = _expect(tokens, pos + 1, "(")
        arg, pos = _parse_sum(tokens, pos)
        pos = _expect(tokens, pos, ")")
        return Log(arg), pos
    if kind == "(":
        expr, pos = _parse_sum(tokens, pos + 1)
        pos = _expect(tokens, pos, ")")
        return expr, pos
    raise SyntaxError(f"unexpected token {value!r} in bound")
