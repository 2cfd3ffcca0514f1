import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clarith.formula as fm
from clarith.bounds import (
    IDENTITY,
    Add,
    IteratedMax,
    Log,
    Max,
    Mul,
    Nat,
    RawVar,
    SizeVar,
    UnaryBound,
    bitsize,
    ceil_log2,
    iterate_max,
    parse_bound,
    statute_limit,
    unarify,
)


class TestBitsize:
    def test_zero_has_size_one(self):
        assert bitsize(0) == 1

    def test_powers_of_two(self):
        assert bitsize(1) == 1
        assert bitsize(2) == 2
        assert bitsize(9) == 4
        assert bitsize(1001) == 10

    @given(st.integers(min_value=0, max_value=10**9))
    def test_matches_binary_length(self, n):
        assert bitsize(n) == len(format(n, "b")) if n else bitsize(0) == 1

    def test_negative_is_rejected(self):
        with pytest.raises(ValueError):
            bitsize(-1)

    def test_ceil_log2(self):
        assert ceil_log2(0) == 0
        assert ceil_log2(1) == 1
        assert ceil_log2(7) == 3
        assert ceil_log2(8) == 4


class TestParseAndEvaluate:
    def test_size_variable(self):
        b = parse_bound("|x|")
        assert b.evaluate({"x": 9}) == 4

    def test_arithmetic(self):
        b = parse_bound("|x| * 2 + 3")
        assert b.evaluate({"x": 9}) == 11

    def test_max_and_log(self):
        b = parse_bound("max(|x|, log(|y| + 1))")
        assert b.evaluate({"x": 1, "y": 200}) == 4

    def test_parentheses(self):
        b = parse_bound("(|x| + 1) * (|x| + 1)")
        assert b.evaluate({"x": 9}) == 25

    def test_trailing_garbage_rejected(self):
        try:
            parse_bound("|x| )")
        except SyntaxError:
            pass
        else:
            raise AssertionError("expected a syntax error")

    def test_non_decimal_digit_is_a_grammar_error(self):
        # '\u00b2' is a digit to str.isdigit, but not a decimal one
        with pytest.raises(SyntaxError, match="expected a bound at 2"):
            parse_bound("1+\u00b2")
        assert parse_bound("\u0663").evaluate({}) == 3

    @given(st.integers(min_value=0, max_value=2**30))
    def test_evaluation_is_on_sizes_not_values(self, n):
        b = parse_bound("|x|")
        assert b.evaluate({"x": n}) == bitsize(n)


class TestUnarification:
    def test_identity_shape(self):
        f = unarify(parse_bound("|x|"))
        assert [f(z) for z in range(6)] == list(range(6))

    def test_constant_bound(self):
        f = unarify(Nat(7))
        assert f(0) == 7 and f(100) == 7

    def test_multi_variable_collapse(self):
        f = unarify(parse_bound("|x| + |y|"))
        assert f(3) == 6

    def test_compose(self):
        f = unarify(parse_bound("|x| + 1"))
        assert f.compose(f)(5) == 7

    def test_iterate_max_of_identity(self):
        g = iterate_max(IDENTITY, 4)
        assert [g(z) for z in range(5)] == list(range(5))

    def test_iterate_max_zero_iterations(self):
        g = iterate_max(IDENTITY, 0)
        assert g(17) == 0

    def test_iterate_max_growing(self):
        f = unarify(parse_bound("|x| + 2"))
        g = iterate_max(f, 3)
        assert g(1) == 7

    @given(st.integers(min_value=0, max_value=200))
    def test_iterate_max_dominates_single_application(self, z):
        f = unarify(parse_bound("|x| + 1"))
        assert iterate_max(f, 3)(z) >= f(z)


def bound_exprs(leaves, max_leaves):
    """Small bound expressions over Nat literals and the given leaves."""
    atoms = st.one_of(st.integers(min_value=0, max_value=3).map(Nat),
                      st.sampled_from(leaves))
    return st.recursive(atoms, lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda p: Add(*p)),
        st.tuples(kids, kids).map(lambda p: Mul(*p)),
        st.lists(kids, min_size=1, max_size=3).map(Max),
        kids.map(Log),
    ), max_leaves=max_leaves)


def composed_iterate_max(f, n, z):
    """Slow twin of iterate_max: each f^i written out by symbolic compose."""
    best, power = 0, f
    for _ in range(n):
        best = max(best, power(z))
        power = f.compose(power)
    return best


def reference_evaluate(expr, env):
    """Slow twin of BoundExpr.evaluate: one isinstance chain, the builtin
    max over a list, and |n| written as max(1, n.bit_length())."""
    if isinstance(expr, Nat):
        return expr.value
    if isinstance(expr, RawVar):
        return env[expr.name]
    if isinstance(expr, SizeVar):
        return max(1, env[expr.name].bit_length())
    if isinstance(expr, Add):
        return reference_evaluate(expr.left, env) + reference_evaluate(expr.right, env)
    if isinstance(expr, Mul):
        return reference_evaluate(expr.left, env) * reference_evaluate(expr.right, env)
    if isinstance(expr, Max):
        return max([reference_evaluate(a, env) for a in expr.args])
    if isinstance(expr, Log):
        return reference_evaluate(expr.arg, env).bit_length()
    if isinstance(expr, IteratedMax):
        values, v = [], reference_evaluate(expr.arg, env)
        for _ in range(expr.n):
            v = reference_evaluate(expr.f.expr, {UnaryBound.VAR: v})
            values.append(v)
        return max(values, default=0)
    raise TypeError(f"not a bound node: {expr!r}")


def iterated_exprs():
    """Bounds over |x| and a raw z with an IteratedMax inside a Max (at
    any position) or an Add (on either side)."""
    plain = bound_exprs([SizeVar("x"), RawVar("z")], 3)
    iterated = st.builds(IteratedMax, bound_exprs([RawVar("z")], 3).map(UnaryBound),
                         st.integers(min_value=0, max_value=3), plain)
    return st.one_of(
        st.tuples(st.lists(plain, max_size=2), iterated, st.lists(plain, max_size=2))
        .map(lambda p: Max((*p[0], p[1], *p[2]))),
        st.tuples(plain, iterated).map(lambda p: Add(*p)),
        st.tuples(iterated, plain).map(lambda p: Add(*p)))


def nested_units(bounds):
    """ade x0 [b0] ada x1 [b1] ... p(): one unit per bound, in order."""
    body = fm.Atom("p", ())
    for i in reversed(range(len(bounds))):
        cls = fm.ChoiceEx if i % 2 == 0 else fm.ChoiceAll
        body = cls(f"x{i}", bounds[i], body)
    return body


class TestReferenceEvaluation:
    @settings(deadline=None)
    @given(iterated_exprs(), st.integers(min_value=0, max_value=300),
           st.integers(min_value=0, max_value=64))
    def test_matches_the_reference_evaluator(self, expr, x, z):
        env = {"x": x, "z": z}
        assert expr.evaluate(env) == reference_evaluate(expr, env)

    def test_unbound_variable_message(self):
        for leaf in (SizeVar("y"), RawVar("y")):
            with pytest.raises(KeyError, match="unbound variable 'y' in bound"):
                leaf.evaluate({"z": 1})


class TestNumericIteration:
    @settings(deadline=None)
    @given(bound_exprs([RawVar("z")], 4), st.integers(min_value=0, max_value=4),
           st.integers(min_value=0, max_value=64))
    def test_matches_symbolic_composition(self, expr, n, z):
        f = UnaryBound(expr)
        assert iterate_max(f, n)(z) == composed_iterate_max(f, n, z)

    @settings(deadline=None)
    @given(st.lists(bound_exprs([SizeVar("s")], 2), min_size=1, max_size=4),
           st.integers(min_value=0, max_value=64))
    def test_aggregate_family_matches_symbolic_composition(self, bounds, z):
        agg = fm.aggregate_bounds(nested_units(bounds))
        sub = unarify(Max(tuple(bounds)))
        assert agg["n"] == len(bounds)
        assert agg["f"](z) == sub(z)
        for i, s_i in agg["S"].items():
            assert s_i(z) == composed_iterate_max(sub, i, z)
        assert agg["G"](z) == agg["S"][len(bounds)](z)

    def test_iterated_node_acts_on_its_argument_only(self):
        g = iterate_max(unarify(parse_bound("|x| + 1")), 3)
        assert g.expr.variables() == {"z"}
        assert g.compose(unarify(parse_bound("|x| * 2")))(5) == 13
        assert unarify(parse_bound("|x| * 2")).compose(g)(5) == 16

    def test_twelve_nested_units_stay_fast(self):
        # f(z) = max(z, z) + 1; written out by composition, f^12 has
        # 2^12 occurrences of z
        text = "p(s)"
        for i in reversed(range(12)):
            q = "ade" if i % 2 == 0 else "ada"
            text = f"{q} x{i} [max(|s|, |s|) + 1] {text}"
        f = fm.parse_formula(text)
        start = time.perf_counter()
        agg = fm.aggregate_bounds(f)
        samples = [agg["G"](z) for z in range(9)]
        assert time.perf_counter() - start < 0.5
        assert agg["n"] == 12
        assert samples == [z + 12 for z in range(9)]


class TestStatuteLimit:
    PARAMS = {"r": 1, "g": 1, "q": 2, "e": 1, "v": 0, "h": 0, "G": IDENTITY}

    def test_spot_value(self):
        # (v+1)(w+2) + 2e(G(w)+h+2) + 1 = 3 + 6 + 1 = 10, times
        # r (u+1)^g q^(gu) 2e = 1 * 2 * 2 * 2
        assert statute_limit(1, 1, self.PARAMS) == 80

    def test_silent_background_floor(self):
        assert statute_limit(0, 0, self.PARAMS) == 14

    @given(st.integers(min_value=0, max_value=8),
           st.integers(min_value=0, max_value=8))
    def test_monotone_in_both_arguments(self, w, u):
        cur = statute_limit(w, u, self.PARAMS)
        assert statute_limit(w + 1, u, self.PARAMS) >= cur
        assert statute_limit(w, u + 1, self.PARAMS) >= cur


class TestExprAlgebra:
    def test_substitute_keeps_unrelated_nodes(self):
        b = Add(SizeVar("x"), Nat(3))
        b2 = b.substitute({"x": Nat(5)})
        assert b2.evaluate({}) == 8

    def test_mul_repr_round_trips(self):
        b = Mul(SizeVar("x"), Add(Nat(1), SizeVar("y")))
        again = parse_bound(repr(b))
        env = {"x": 5, "y": 2}
        assert again.evaluate(env) == b.evaluate(env)

    @given(st.recursive(
        st.one_of(st.integers(min_value=0, max_value=99).map(Nat),
                  st.sampled_from(["s", "x", "y_1", "max"]).map(SizeVar)),
        lambda kids: st.one_of(
            st.tuples(kids, kids).map(lambda p: Add(*p)),
            st.tuples(kids, kids).map(lambda p: Mul(*p)),
            st.lists(kids, min_size=1, max_size=3).map(Max),
            kids.map(Log)),
        max_leaves=8))
    def test_repr_round_trips(self, b):
        assert parse_bound(repr(b)) == b

    def test_raw_variable_is_not_its_size(self):
        raw, size = RawVar("z"), SizeVar("z")
        assert raw != size and size != raw
        assert (raw.evaluate({"z": 5}), size.evaluate({"z": 5})) == (5, 3)
        assert list(raw.variables()) == ["z"]
        assert raw.substitute({"z": Nat(2)}) == Nat(2)
        assert raw.substitute({"y": Nat(2)}) is raw

    def test_unary_bound_rejects_foreign_variables(self):
        try:
            UnaryBound(SizeVar("x"))
        except ValueError:
            pass
        else:
            raise AssertionError("expected rejection")
