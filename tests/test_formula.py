import functools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clarith.formula as fm
from clarith.bounds import parse_bound

from conftest import TWO_DISJUNCT_TEXT, COUNTER_TEXT, formulas


class TestParsing:
    @given(formulas)
    @example(fm.parse_formula(TWO_DISJUNCT_TEXT))
    # successor, size and constant terms, which `formulas` never draws
    @example(fm.parse_formula("p(|x'|)"))
    @example(fm.parse_formula("p((|x|)')"))
    @example(fm.parse_formula("p(s'')"))
    @example(fm.parse_formula("p(0)"))
    @example(fm.parse_formula("p(101)"))
    # a successor of a compound term at the head of an atom
    @example(fm.parse_formula("x'' = 11"))
    @example(fm.parse_formula("|x|' <= y"))
    @example(fm.parse_formula("ada x [|s|] |x|'' = s"))
    def test_round_trip(self, f):
        text = fm.to_text(f)
        assert fm.to_text(fm.parse_formula(text)) == text

    def test_round_trip_keeps_repeated_bound_names(self):
        text = "ada x [|s|] (p(x) & ade x [|x|] q(x)) v cla x < |s| : ade x [|s|] p(x)"
        f = fm.parse_formula(text)
        assert fm.to_text(f) == text
        assert [u.var for u in fm.units(f)] == ["x"] * 3

    def test_counter_shape(self):
        f = fm.parse_formula(COUNTER_TEXT)
        assert isinstance(f, fm.ChoiceAll)
        assert f.kind == "value"
        assert isinstance(f.body, fm.ChoiceEx)
        assert f.body.kind == "size"

    def test_v_is_a_variable_in_term_position(self):
        f = fm.parse_formula("ade v [3] (v = v)")
        assert isinstance(f, fm.ChoiceEx) and f.var == "v"

    def test_blind_quantifiers(self):
        f = fm.parse_formula("cla y < |x| : (Bit(y, x) -> Bit(y, x))")
        assert isinstance(f, fm.BlindAll)

    def test_successor_and_size_terms(self):
        f = fm.parse_formula("|x'| = y")
        atom = f
        assert isinstance(atom.args[0], fm.TSize)
        assert isinstance(atom.args[0].arg, fm.TSucc)

    def test_binary_literals(self):
        f = fm.parse_formula("x = 101")
        assert atom_value(f.args[1]) == 5

    @pytest.mark.parametrize("text, printed", [
        ("(x)' = y", "x' = y"),
        ("(|x|) <= y", "|x| <= y"),
        ("( (x) )\n' = y", "x' = y"),
        ("(p(x)) & q(y)", "p(x) & q(y)"),
        ("~(x) = y & ((p(x)) v (x = y))", "~x = y & (p(x) v x = y)"),
    ])
    def test_a_parenthesis_opening_an_atom(self, text, printed):
        """A parenthesized formula is never followed by ', = or <=, so
        a "(" that closes before one of them opens a term, and any
        other opens a formula."""
        assert fm.to_text(fm.parse_formula(text)) == printed

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SyntaxError):
            fm.parse_formula("p(x) )")

    @pytest.mark.parametrize("text, bound", [
        ("cla x < max(|s|, 2) : p(x)", "max(|s|, 2)"),
        ("ada x [val (|s| + 1) * 2] p(x)", "((|s| + 1) * 2)"),
        ("ade y [ | s | ] q(y)", "|s|"),
    ])
    def test_bound_ends_at_its_closer(self, text, bound):
        f = fm.parse_formula(text)
        assert repr(f.bound) == bound
        assert fm.to_text(fm.parse_formula(fm.to_text(f))) == fm.to_text(f)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(
        ["ada ", "ade ", "cla ", "cle ", "val ", "x", "v", " v ", "s", "p", "Bit",
         "(", ")", "[", "]", "<", ":", "|", "&", "->", "~", "=", "<=", ",", "'",
         "0", "1", "2", "+", "*", "max", "log", " ", "$", "\u00b2"]),
        max_size=16).map("".join))
    def test_random_text_raises_only_grammar_errors(self, text):
        for parse in (fm.parse_formula, parse_bound):
            try:
                parse(text)
            except (SyntaxError, ValueError):
                pass

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.data())
    def test_terms_print_as_text_that_reads_back(self, data):
        kind = data.draw(st.sampled_from(["=", "<=", "Bit", "p"]), label="atom")
        if kind in ("=", "<="):
            text = f"{data.draw(term_texts)} {kind} {data.draw(term_texts)}"
        else:
            args = data.draw(st.lists(term_texts, min_size=1, max_size=3))
            text = f"{kind}({', '.join(args)})"
        text = data.draw(st.sampled_from(PREFIXES), label="prefix") + text
        f = fm.parse_formula(text)
        printed = fm.to_text(f)
        again = fm.parse_formula(printed)
        assert fm.to_text(again) == printed
        env = data.draw(st.fixed_dictionaries(
            {n: st.integers(0, 2**12) for n in TERM_NAMES}), label="env")
        assert ([t.evaluate(env) for t in atom_of(again).args]
                == [t.evaluate(env) for t in atom_of(f).args])


TERM_NAMES = ("x", "y", "s", "v")
# term text: a variable or binary constant inside up to four of t', |t|, (t)
term_texts = st.builds(
    lambda leaf, wraps: functools.reduce(lambda t, w: w.format(t), wraps, leaf),
    st.one_of(st.sampled_from(TERM_NAMES),
              st.text(alphabet="01", min_size=1, max_size=4)),
    st.lists(st.sampled_from(("{}'", "|{}|", "({})")), max_size=4))
PREFIXES = ("", "~", "ada x [|s|] ", "cle y < 11 : ")


def atom_of(f):
    while not isinstance(f, fm.Atom):
        f = f.body
    return f


def atom_value(t):
    return t.evaluate({})


class TestUnits:
    def test_addresses_of_two_disjunct(self, two_disjunct_formula):
        us = fm.units(two_disjunct_formula)
        assert [u.address for u in us] == ["0.", "0.1.", "1.", "1.1."]

    def test_movers(self, two_disjunct_formula):
        us = fm.units(two_disjunct_formula)
        assert [u.mover for u in us] == ["B", "T", "B", "T"]

    def test_antecedent_flips_mover(self):
        f = fm.parse_formula("ade y [1] p(y) -> ade z [1] q(z)")
        us = fm.units(f)
        assert [(u.address, u.mover) for u in us] == [("0.", "B"), ("1.", "T")]

    def test_negation_flips_mover(self):
        f = fm.parse_formula("~ade y [1] p(y)")
        (u,) = fm.units(f)
        assert u.mover == "B"

    def test_ancestors(self, two_disjunct_formula):
        us = fm.units(two_disjunct_formula)
        assert [u.ancestors for u in us] == [(), ("0.",), (), ("1.",)]
        f = fm.parse_formula("ada x [1] ~cla w < 2 : (p(x) & ade y [1] ada z [1] q(y, z))")
        assert [u.ancestors for u in fm.units(f)] == [(), ("",), ("", "1.1.")]

    def test_blind_quantifiers_are_transparent(self):
        f = fm.parse_formula("cla y < 4 : ade z [1] p(z, y)")
        (u,) = fm.units(f)
        assert u.address == ""


class TestCensus:
    def test_two_disjunct(self, two_disjunct_formula):
        assert fm.choice_census(two_disjunct_formula) == {
            "e_top": 2, "e_bot": 2, "e": 4, "D": 5, "h": 4, "v": 1,
        }

    def test_counter(self):
        f = fm.parse_formula(COUNTER_TEXT)
        c = fm.choice_census(f)
        assert (c["e_top"], c["e_bot"], c["v"]) == (1, 1, 0)

    def test_quantifier_free(self):
        c = fm.choice_census(fm.parse_formula("p(x)"))
        assert c == {"e_top": 0, "e_bot": 0, "e": 0, "D": 1, "h": 0, "v": 1}


class TestFreeVars:
    def test_first_occurrence_order(self):
        f = fm.parse_formula("p(a, b) & q(b, c)")
        assert fm.free_vars(f) == ["a", "b", "c"]

    def test_successor_and_size_terms_contribute(self):
        f = fm.parse_formula("p(|x'|) & y = z'' & q(0, 101)")
        assert fm.free_vars(f) == ["x", "y", "z"]

    def test_bound_variables_excluded(self, two_disjunct_formula):
        assert fm.free_vars(two_disjunct_formula) == ["x"]

    def test_bound_expressions_contribute(self):
        f = fm.parse_formula("ade z [|k|] p(z)")
        assert fm.free_vars(f) == ["k"]

    def test_bound_variables_in_first_occurrence_order(self):
        # a set would list these six in its hash order, not this one
        f = fm.parse_formula("ade z [|q|*|c|+max(|x|, |a|*|q|)+log(|m|)+|f|] p(z, k)")
        assert fm.free_vars(f) == ["q", "c", "x", "a", "m", "f", "k"]


class TestAggregates:
    def test_identity_sub_and_super(self, two_disjunct_formula):
        agg = fm.aggregate_bounds(two_disjunct_formula)
        assert agg["n"] == 4
        assert [agg["f"](z) for z in range(6)] == list(range(6))
        assert [agg["G"](z) for z in range(6)] == list(range(6))

    def test_growing_superaggregate(self):
        f = fm.parse_formula("ade y [|x| + 1] ade z [|y| + 1] p(y, z)")
        agg = fm.aggregate_bounds(f)
        assert agg["f"](3) == 4
        assert agg["G"](3) == 5
        assert agg["S"][0](3) == 0

    @given(st.integers(min_value=0, max_value=40))
    def test_superaggregate_dominates_family(self, z):
        f = fm.parse_formula("ade y [|x| * 2] ade z [|y|] p(y, z)")
        agg = fm.aggregate_bounds(f)
        assert all(agg["S"][i](z) <= agg["G"](z) for i in agg["S"])
