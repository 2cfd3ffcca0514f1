"""Monotone bound expressions: evaluation, unarification, composition.

Bound expressions are closed syntax (literals, size-of-variable atoms,
+, *, max, log) so they can be printed, compared and sampled for
monotonicity.  A UnaryBound is a bound over the single placeholder
variable "z" that is applied directly to a natural number rather than
to the size of anything.

Bound text, read by Scanner.bound and written back by repr (which
brackets every + and *); a nat is a run of digits, an ident is
[alpha_][alnum_]*, and whitespace may stand between any two tokens:

    bound   := product ('+' product)*
    product := atom ('*' atom)*
    atom    := nat | '|' ident '|' | '(' bound ')'
             | 'max' '(' bound (',' bound)* ')' | 'log' '(' bound ')'

The superaggregate G(z) = max(f(z), ..., f^n(z)) and its partial family
S_i are evaluated numerically: iterate_max wraps f in one IteratedMax
node that applies f to a number n times, so evaluating G costs n
evaluations of f, each one walk of f's tree with z rebound in one dict.
f is the max of the n unit bounds, so one value of G costs about n^2
node evaluations when each unit bound is a few nodes.
UnaryBound.compose stays symbolic (it substitutes the inner expression
for z), so f^i written out by composition, whose tree grows as
(z-occurrences)^i, serves as the slow twin.
"""

from __future__ import annotations


def bitsize(n: int) -> int:
    """Binary size of a natural number, with |0| = 1."""
    if n < 0:
        raise ValueError("bound arithmetic is over naturals")
    return n.bit_length() or 1


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
        try:
            value = env[self.name]
        except KeyError:
            raise KeyError(f"unbound variable {self.name!r} in bound") from None
        return bitsize(value)

    def variables(self):
        return {self.name: None}.keys()

    def substitute(self, mapping):
        return mapping.get(self.name, self)

    def __repr__(self):
        return f"|{self.name}|"


class RawVar(SizeVar):
    """A placeholder evaluated directly to its assigned natural.

    Only used inside UnaryBound, where the single argument is already a
    size and must not be re-measured.  BoundExpr.__eq__ compares types,
    so RawVar("z") != SizeVar("z").
    """

    def evaluate(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise KeyError(f"unbound variable {self.name!r} in bound") from None

    def __repr__(self):
        return self.name


class _Binary(BoundExpr):
    """left op right; a subclass names its op and evaluates it."""

    def __init__(self, left, right):
        self.left, self.right = left, right

    def variables(self):
        return _union(self.left, self.right)

    def substitute(self, mapping):
        return type(self)(self.left.substitute(mapping), self.right.substitute(mapping))

    def __repr__(self):
        return f"({self.left} {self.op} {self.right})"


class Add(_Binary):
    op = "+"

    def evaluate(self, env):
        return self.left.evaluate(env) + self.right.evaluate(env)


class Mul(_Binary):
    op = "*"

    def evaluate(self, env):
        return self.left.evaluate(env) * self.right.evaluate(env)


class Max(BoundExpr):
    def __init__(self, args):
        self.args = tuple(args)
        if not self.args:
            raise ValueError("max needs at least one argument")

    def evaluate(self, env):
        # bound values are naturals, so 0 is a safe start
        best = 0
        for a in self.args:
            v = a.evaluate(env)
            if v > best:
                best = v
        return best

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
        point = {var: self.arg.evaluate(env)}
        best = 0
        for _ in range(self.n):
            v = point[var] = expr.evaluate(point)
            if v > best:
                best = v
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
# text

def parse_bound(text: str) -> BoundExpr:
    scanner = Scanner(text)
    return scanner.finish(scanner.bound())


class Scanner:
    """A cursor over text, with the bound grammar.  formula._Parser
    extends it with the formula grammar, so a quantifier reads its
    bound in place.  Grammar errors are SyntaxErrors naming the offset."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek_word(self):
        """The identifier ([alpha_][alnum_]*) after any whitespace, or None."""
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

    def finish(self, result):
        """result, once nothing but whitespace is left."""
        self.skip_ws()
        if self.pos != len(self.text):
            raise SyntaxError(f"trailing input at {self.pos}: {self.text[self.pos:self.pos+20]!r}")
        return result

    def bound(self):
        left = self.bound_product()
        while self.try_lit("+"):
            left = Add(left, self.bound_product())
        return left

    def bound_product(self):
        left = self.bound_atom()
        while self.try_lit("*"):
            left = Mul(left, self.bound_atom())
        return left

    def bound_atom(self):
        self.skip_ws()
        text, start = self.text, self.pos
        while self.pos < len(text) and text[self.pos].isdecimal():
            self.pos += 1
        if self.pos > start:
            return Nat(int(text[start:self.pos]))
        if self.try_lit("|"):
            name = self.take_word()
            self.expect("|")
            return SizeVar(name)
        if self.try_lit("("):
            expr = self.bound()
            self.expect(")")
            return expr
        word = self.peek_word()
        if word not in ("max", "log"):
            raise SyntaxError(f"expected a bound at {self.pos}: {text[self.pos:self.pos+20]!r}")
        self.pos += 3
        self.expect("(")
        args = [self.bound()]
        while word == "max" and self.try_lit(","):
            args.append(self.bound())
        self.expect(")")
        return Max(args) if word == "max" else Log(args[0])
