import random
import re
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clarith.formula as fm
from clarith.bounds import parse_bound
from clarith.game import (
    GamePosition,
    Semiposition,
    TruncationContext,
    constant_moves,
    constant_value,
    first_illegal_index,
    format_run,
    int_to_numer,
    is_canonical_numer,
    is_quasilegal,
    is_quasilegal_move_prefix,
    legal_status,
    magnitude,
    numer_value,
    opening,
    parse_run,
    prudentize,
    split_move,
    truncate,
    windup,
    windup_oracle,
    wins,
)

from conftest import TWO_DISJUNCT_TEXT, longest_good_prefix, shape_cases


class TestMoveAnatomy:
    def test_split_clean_move(self):
        assert split_move("0.1.#101") == ("0.1.", "101")

    def test_split_empty_numer(self):
        assert split_move("1.#") == ("1.", "")

    def test_split_junk_tail(self):
        assert split_move("0.xyz") == ("0.", None)

    def test_numer_round_trip(self):
        for n in range(50):
            assert numer_value(int_to_numer(n)) == n

    def test_canonical_numers(self):
        assert is_canonical_numer("")
        assert is_canonical_numer("0")
        assert is_canonical_numer("101")
        assert not is_canonical_numer("01")

    def test_magnitude(self):
        assert magnitude("0.1.#1111111") == 7
        assert magnitude("0.junk") == 0

    @given(st.integers(min_value=1, max_value=10**6))
    def test_positive_numers_have_no_leading_zero(self, n):
        assert int_to_numer(n).startswith("1")


def opening_by_rescan(names, run):
    """The opening, read the long way: the indices of the first ⊥ moves,
    each naming the value of its binary numer (0 without one)."""
    bots = [i for i, (label, _) in enumerate(run) if label == "B"][:len(names)]
    if len(bots) < len(names):
        return None
    env = {}
    for name, i in zip(names, bots):
        clean = re.fullmatch(r"(?:[01]\.)*#([01]*)", run[i][1])
        env[name] = int(clean.group(1) or "0", 2) if clean else 0
    return env, tuple(lm for i, lm in enumerate(run) if i not in bots)


class TestOpening:
    MOVES = st.one_of(
        st.text(alphabet="01#.x", max_size=6),
        st.sampled_from(["#", "#0", "#0101", "1.#11", "0.1.#", "#1x"]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("TB"), MOVES), max_size=8),
           st.lists(st.sampled_from("abcd"), max_size=3, unique=True))
    @example([("T", "0.#1"), ("B", "#0011"), ("B", "1.#10"), ("T", "#")], ["x"])
    def test_matches_a_rescan(self, run, names):
        run = tuple(run)
        got = opening(names, run)
        assert got == opening_by_rescan(names, run)
        bots = sum(label == "B" for label, _ in run)
        assert (got is None) == (bots < len(names))

    def test_constants_round_trip(self):
        values = range(1001)
        moves = constant_moves(values)
        assert all(label == "B" for label, _ in moves)
        assert [constant_value(m) for _, m in moves] == list(values)
        assert all(is_canonical_numer(m[1:]) for _, m in moves)
        assert moves[0] == ("B", "#")


class TestLegality:
    def test_legal_run(self, two_disjunct_formula):
        run = (("B", "0.#101"), ("T", "0.1.#11"))
        assert first_illegal_index(two_disjunct_formula, {"x": 9}, run) is None

    def test_wrong_mover(self, two_disjunct_formula):
        run = (("T", "0.#101"),)
        assert first_illegal_index(two_disjunct_formula, {"x": 9}, run) == 0

    def test_repeat_resolution(self, two_disjunct_formula):
        run = (("B", "0.#1"), ("B", "0.#1"))
        assert first_illegal_index(two_disjunct_formula, {"x": 9}, run) == 1

    def test_address_into_atom(self, two_disjunct_formula):
        run = (("B", "0.#1"), ("B", "0.1.1.#1"))
        assert first_illegal_index(two_disjunct_formula, {"x": 9}, run) == 1

    def test_noncanonical_numer_is_illegal(self, two_disjunct_formula):
        run = (("B", "0.#01"),)
        assert first_illegal_index(two_disjunct_formula, {"x": 9}, run) == 0

    def test_missing_constant_rejected(self, two_disjunct_formula):
        with pytest.raises(KeyError):
            GamePosition.start(two_disjunct_formula, {})

    def test_quasilegal_one_sided(self, two_disjunct_formula):
        run = (("T", "0.1.#1"), ("B", "junk"))
        assert is_quasilegal(two_disjunct_formula, run, "T")
        assert not is_quasilegal(two_disjunct_formula, run, "B")

    def test_status_classification(self, two_disjunct_formula):
        ok = (("B", "0.#1"),)
        assert legal_status(two_disjunct_formula, {"x": 9}, ok) == "legal"
        bad = (("B", "nope"), ("T", "0.1.#1"))
        assert legal_status(two_disjunct_formula, {"x": 9}, bad) == "T-quasilegal"
        worst = (("B", "nope"), ("T", "nope"))
        st = legal_status(two_disjunct_formula, {"x": 9}, worst)
        assert st == "illegal-at-index" and st.index == 0


class TestWinning:
    def atoms(self, name, args):
        if name == "p":
            return args[0] == args[1]
        if name == "q":
            return args[0] < args[1]
        raise KeyError(name)

    def test_unresolved_universal_favors_its_owner(self, two_disjunct_formula):
        assert wins(two_disjunct_formula, {"x": 9}, (), atoms=self.atoms) == "T"

    def test_machine_answers_correctly(self, two_disjunct_formula):
        run = (("B", "0.#101"), ("T", "0.1.#101"))
        assert wins(two_disjunct_formula, {"x": 9}, run, atoms=self.atoms) == "T"

    def test_machine_answers_incorrectly(self):
        f = fm.parse_formula("ada y [|x|] ade z [|x|] p(z, y)")
        run = (("B", "#101"), ("T", "1.#100"))
        assert wins(f, {"x": 9}, run, atoms=self.atoms) == "B"

    def test_oversize_resolution_loses(self):
        f = fm.parse_formula("ada y [|x|] ade z [|x|] p(z, y)")
        run = (("B", "#1"), ("T", "1.#11111"))
        assert wins(f, {"x": 9}, run, atoms=self.atoms) == "B"

    @pytest.mark.parametrize("text,run,winner", [
        ("ade y [|s| + 1] (y = s'')", (("T", "#101"),), "T"),  # 5 = 3''
        ("ade y [|s| + 1] (y = s'')", (("T", "#100"),), "B"),
        ("ade y [|s| + 1] (y = s'')", (("T", "#110"),), "B"),
        ("|s'| = 11", (), "T"),                                  # |4| = 3
        ("|s'| = 100", (), "B"),
    ])
    def test_successor_and_size_terms(self, text, run, winner):
        assert wins(fm.parse_formula(text), {"s": 3}, run) == winner

    def test_blind_quantifier_semantics(self):
        f = fm.parse_formula("cla y < |x| : Bit(y, x)")
        assert wins(f, {"x": 7}, ()) == "T"
        assert wins(f, {"x": 5}, ()) == "B"

    def test_inner_choice_does_not_rebind_the_outer_one(self):
        # B breaks the outer size bound with #111; the inner y is another
        # variable, so resolving it leaves the outer condition broken
        p_s, size_s = fm.parse_formula("p(s)"), parse_bound("|s|")
        f = fm.ChoiceAll("y", size_s, fm.And(p_s, fm.ChoiceAll("y", size_s, fm.Not(p_s))))
        always = lambda name, args: True
        assert wins(f, {"s": 1}, (("B", "#111"),), always) == "T"
        assert wins(f, {"s": 1}, (("B", "#111"), ("B", "1.1.#1")), always) == "T"

    @pytest.mark.parametrize("move,winner", [
        ("1.#10", "T"),     # |2| <= |5| and q(2); p still reads the constant 5
        ("1.#110", "B"),    # |6| <= |5| but not q(6)
        ("1.#1000", "T"),   # |8| > |5|: the bound reads the constant, not 8
    ])
    def test_choice_shadows_a_free_variable_only_in_its_body(self, move, winner):
        f = fm.parse_formula("p(x) & ada x [|x|] q(x)")

        def atoms(name, args):
            return args[0] == (5 if name == "p" else 2)

        assert wins(f, {"x": 5}, (("B", move),), atoms) == winner


class TestTruncation:
    def test_threshold_from_environment(self, two_disjunct_ctx):
        assert two_disjunct_ctx.threshold == 4

    def test_addresses(self, two_disjunct_ctx):
        assert two_disjunct_ctx.addresses == ("0.", "0.1.", "1.", "1.1.")
        assert tuple(u.address for u in two_disjunct_ctx.analysis.units
                     if u.mover == "T") == ("0.1.", "1.1.")

    def test_prudentize_trims_numer(self):
        assert prudentize("0.1.#1111111", 4) == "0.1.#1111"
        assert prudentize("0.1.#11", 4) == "0.1.#11"
        assert prudentize("no-numer-here", 4) == "no-numer-here"

    def test_truncate_worked_value(self, two_disjunct_ctx):
        assert truncate("0.1.#1111111", two_disjunct_ctx) == "0.1.#1111"

    def test_truncate_cuts_at_longest_good_prefix(self, two_disjunct_ctx):
        assert truncate("0.1.#10x11", two_disjunct_ctx) == "0.1.#10"
        assert truncate("garbage", two_disjunct_ctx) == ""

    def test_quasilegal_prefixes(self, two_disjunct_ctx):
        addrs = two_disjunct_ctx.addresses
        assert is_quasilegal_move_prefix("0.", addrs)
        assert is_quasilegal_move_prefix("0.1.#1", addrs)
        assert not is_quasilegal_move_prefix("0.1.#01", addrs)
        assert not is_quasilegal_move_prefix("0.0.", addrs)

    @given(st.text(alphabet="01#.x", max_size=12))
    def test_truncate_output_is_always_a_good_prefix(self, s):
        ctx = TruncationContext(fm.parse_formula(TWO_DISJUNCT_TEXT), {"x": 9})
        out = truncate(s, ctx)
        assert out == "" or is_quasilegal_move_prefix(out, ctx.addresses)


class TestMoveShapes:
    """The move-shape automaton against the slow prefix test."""

    @given(shape_cases())
    def test_accepts_exactly_the_quasilegal_move_prefixes(self, case):
        f, _, s = case
        a = fm.analysis(f)
        for cut in range(len(s) + 1):
            state, _ = a.shapes.scan(s[:cut])
            assert (state is not None) == is_quasilegal_move_prefix(
                s[:cut], a.addresses), s[:cut]

    @given(shape_cases())
    def test_truncate_matches_the_backward_scan(self, case):
        f, c, s = case
        ctx = TruncationContext(f, {"s": c})
        want = prudentize(longest_good_prefix(s, ctx.addresses), ctx.threshold)
        assert truncate(s, ctx) == want

    def test_completions_in_windup_order(self, two_disjunct_ctx):
        shapes = two_disjunct_ctx.shapes
        assert shapes.completions("") == ["0.#", "0.1.#", "1.#", "1.1.#"]
        assert shapes.completions("1.1") == [".#"]
        assert shapes.completions("0.1.#10") == [""]
        assert shapes.completions("0.1.#01") == []


class TestWindup:
    def test_empty_buffer(self, two_disjunct_formula):
        v = Semiposition((("T", ""),), open_last=True)
        assert windup(v, two_disjunct_formula, {"x": 9}) == "0.1.#"

    def test_open_address_closes_to_its_unit(self, two_disjunct_formula):
        v = Semiposition((("T", "0.1"),), open_last=True)
        assert windup(v, two_disjunct_formula, {"x": 9}) == ".#"

    def test_partial_address(self, two_disjunct_formula):
        v = Semiposition((("T", "1."),), open_last=True)
        assert windup(v, two_disjunct_formula, {"x": 9}) == "1.#"

    def test_open_numer_closes_for_free(self, two_disjunct_formula):
        v = Semiposition((("T", "0.1.#10"),), open_last=True)
        assert windup(v, two_disjunct_formula, {"x": 9}) == ""

    def test_rejects_dead_buffer(self, two_disjunct_formula):
        v = Semiposition((("T", "0.0."),), open_last=True)
        with pytest.raises(ValueError):
            windup(v, two_disjunct_formula, {"x": 9})

    def test_agrees_with_oracle_on_random_buffers(self, two_disjunct_formula):
        rng = random.Random(7)
        checked = 0
        for _ in range(300):
            buf = "".join(rng.choice("01#.") for _ in range(rng.randrange(0, 6)))
            prior = ()
            if rng.random() < 0.5:
                prior = (("T", "1.1.#1"),)
            v = Semiposition(prior + (("T", buf),), open_last=True)
            try:
                got = windup(v, two_disjunct_formula, {"x": 9})
            except ValueError:
                continue
            want = windup_oracle(v, two_disjunct_formula, {"x": 9})
            assert got == want, (buf, got, want)
            checked += 1
        assert checked > 50


class TestSharedAnalysis:
    def test_units_are_derived_once_per_formula(self, monkeypatch):
        calls = []
        walk = fm.Analysis  # the one walk over a formula

        def counting(f):
            calls.append(f)
            return walk(f)

        monkeypatch.setattr(fm, "Analysis", counting)
        f = fm.parse_formula(TWO_DISJUNCT_TEXT)
        assert len(fm.units(f)) == 4 and fm.free_vars(f) == ["x"]
        ctx = TruncationContext(f, {"x": 9})
        v = Semiposition((("T", "1."),), open_last=True)
        assert windup(v, f, {"x": 9}) == "1.#"
        assert windup_oracle(v, f, {"x": 9}) == "1.#"
        assert legal_status(f, {"x": 9}, (("T", "0.1.#1"),)) == "T-quasilegal"
        assert fm.choice_census(f)["e"] == fm.aggregate_bounds(f)["n"] == 4
        assert TruncationContext(f, {"x": 3}).analysis is ctx.analysis
        assert len(calls) == 1

    def test_compiled_formula_is_freed_once_dropped(self):
        # the root unit is the formula's own quantifier, but it keeps only
        # its var and bound, so the analysis the formula carries does not
        # refer back to it: reference counting frees the pair at `del`
        f = fm.parse_formula("ade y [|x| + 1] ada z [|y|] p(y, z)")
        ctx = TruncationContext(f, {"x": 9})
        v = Semiposition((("T", ""),), open_last=True)
        assert windup(v, f, {"x": 9}) == "#"
        root = ctx.analysis.units[0]
        assert root.var == f.var and root.bound is f.bound
        ref = weakref.ref(f)
        del f, ctx, root
        assert ref() is None


class TestRunText:
    @given(st.lists(st.tuples(st.sampled_from("TB"), st.text("01#.")))
           .map(tuple))
    @example((("T", "0.1.#11"), ("B", "1.#")))
    def test_round_trip(self, run):
        assert parse_run(format_run(run)) == run

    def test_comments_and_blanks_skipped(self):
        text = "#! a remark\n\nT 0.#1\n"
        assert parse_run(text) == (("T", "0.#1"),)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            parse_run("X 0.#1\n")
