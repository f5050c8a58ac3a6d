"""Formula AST, parser, printer, and structural helpers."""

import random
import sys

import pytest

from s5wd import cli
from s5wd.formula import (
    AgentIndexError,
    And,
    Atom,
    Box,
    Diamond,
    Dist,
    Iff,
    Implies,
    LocalityError,
    Not,
    Or,
    ParseError,
    Some,
    atoms,
    expand_s,
    formula_size,
    is_i_local,
    modal_depth,
    negation,
    parse,
    pretty,
    subformula_closure,
    subformulas,
    wd_instance,
)
from helpers import random_formula

P, Q, R = Atom("p"), Atom("q"), Atom("r")


class TestParse:
    def test_atom(self):
        assert parse("p", 2) == P
        assert parse("p1_x", 2) == Atom("p1_x")

    def test_box_implies(self):
        assert parse("[1]p -> p", 2) == Implies(Box(1, P), P)

    def test_diamond(self):
        assert parse("<2>p", 2) == Diamond(2, P)

    def test_implies_right_associative(self):
        assert parse("p -> q -> r", 2) == Implies(P, Implies(Q, R))

    def test_iff_right_associative(self):
        assert parse("p <-> q <-> r", 2) == Iff(P, Iff(Q, R))

    def test_and_binds_tighter_than_or(self):
        assert parse("p & q | r", 2) == Or(And(P, Q), R)

    def test_or_binds_tighter_than_implies(self):
        assert parse("p | q -> r", 2) == Implies(Or(P, Q), R)

    def test_implies_binds_tighter_than_iff(self):
        assert parse("p <-> q -> r", 2) == Iff(P, Implies(Q, R))

    def test_and_left_associative(self):
        assert parse("p & q & r", 2) == And(And(P, Q), R)

    def test_unary_stacking(self):
        assert parse("~[1]<2>~p", 2) == Not(Box(1, Diamond(2, Not(P))))

    def test_parens(self):
        assert parse("(p -> q) & r", 2) == And(Implies(P, Q), R)

    def test_some_and_dist(self):
        assert parse("S p", 2) == Some(P)
        assert parse("D p", 2) == Dist(P)
        assert parse("S S p", 1) == Some(Some(P))

    def test_agent_index_out_of_range(self):
        with pytest.raises(AgentIndexError):
            parse("[3]p", 2)
        with pytest.raises(AgentIndexError):
            parse("<0>p", 2)

    def test_long_agent_index_is_never_converted(self):
        # more digits than n means out of range, whatever int conversion allows
        nines = "9" * 5000
        with pytest.raises(AgentIndexError) as err:
            parse(f"p & [{nines}]p", 2)
        assert str(err.value) == f"agent index {nines} out of range 1..2"
        assert parse("<" + "0" * 5000 + "2>p", 2) == Diamond(2, P)
        if hasattr(sys, "set_int_max_str_digits"):
            limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(640)
            try:
                with pytest.raises(AgentIndexError, match="out of range 1..2"):
                    parse("[" + "1" * 1000 + "]p", 2)
            finally:
                sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("text, position", [
        ("[²]p", 1), ("<٢>p", 1), ("[1²]p", 2), ("p²", 1), ("q_٢ & p", 2),
    ])
    def test_only_ascii_digits(self, text, position):
        # str.isdigit also takes superscripts and other scripts' digits
        with pytest.raises(ParseError) as err:
            parse(text, 2)
        assert err.value.position == position
        assert str(err.value) == f"unexpected character {text[position]!r} (at position {position})"

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("p q", 2)

    def test_dangling_connective_position(self):
        with pytest.raises(ParseError) as err:
            parse("p &", 2)
        assert err.value.position == 3

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse("p @ q", 2)

    def test_extended_false_rejects_s_and_d(self):
        with pytest.raises(ParseError):
            parse("S p", 2, extended=False)
        with pytest.raises(ParseError):
            parse("D p", 2, extended=False)
        assert parse("[1]p", 2, extended=False) == Box(1, P)

    def test_bad_agent_count(self):
        with pytest.raises(ValueError):
            parse("p", 0)


class TestPretty:
    def test_goldens(self):
        assert pretty(Box(1, P)) == "[1]p"
        assert pretty(And(P, Or(Q, R))) == "p & (q | r)"
        assert pretty(Some(P)) == "S p"
        assert pretty(Dist(Not(P))) == "D ~p"
        assert pretty(Implies(Implies(P, Q), R)) == "(p -> q) -> r"
        assert pretty(Or(And(P, Q), R)) == "p & q | r"
        assert pretty(Not(And(P, Q))) == "~(p & q)"
        assert pretty(Box(2, Implies(P, Q))) == "[2](p -> q)"

    def test_round_trip_random(self):
        rng = random.Random(20250825)
        for _ in range(400):
            f = random_formula(rng, 3, ["p", "q", "r"], 4, allow_s=True, allow_d=True)
            assert parse(pretty(f), 3) == f

    def test_str_matches_pretty(self):
        f = parse("[1]p -> S q", 2)
        assert str(f) == pretty(f) == "[1]p -> S q"


class TestExpandS:
    def test_two_agents(self):
        assert pretty(expand_s(parse("S p", 2), 2)) == "<1>p | <2>p"

    def test_single_agent_nested(self):
        assert pretty(expand_s(parse("S S p", 1), 1)) == "<1><1>p"

    def test_under_connectives(self):
        f = expand_s(parse("[1]S p -> S q", 2), 2)
        assert pretty(f) == "[1](<1>p | <2>p) -> <1>q | <2>q"

    def test_no_some_left(self):
        rng = random.Random(7)
        for _ in range(100):
            f = random_formula(rng, 2, ["p", "q"], 3, allow_s=True)
            g = expand_s(f, 2)
            assert not any(isinstance(h, Some) for h in subformulas(g))


class TestStructure:
    def test_subformulas_preorder(self):
        f = parse("[1]p -> p", 2)
        assert subformulas(f) == (f, Box(1, P), P)

    def test_formula_size(self):
        assert formula_size(P) == 1
        assert formula_size(parse("p & q", 2)) == 3
        assert formula_size(parse("p & p", 2)) == 2
        assert formula_size(parse("[1]p -> p", 2)) == 3

    def test_formula_size_rejects_some(self):
        with pytest.raises(ValueError):
            formula_size(parse("S p", 2))

    def test_negation_collapses(self):
        assert negation(P) == Not(P)
        assert negation(Not(P)) == P

    def test_closure_goldens(self):
        assert set(subformula_closure(P)) == {P, Not(P)}
        assert set(subformula_closure(Not(P))) == {Not(P), P}
        assert set(subformula_closure(parse("[1]p", 2))) == {
            Box(1, P),
            Not(Box(1, P)),
            P,
            Not(P),
        }
        f = parse("p & p", 2)
        assert set(subformula_closure(f)) == {f, Not(f), P, Not(P)}

    def test_closure_size_bound(self):
        rng = random.Random(11)
        for _ in range(100):
            f = random_formula(rng, 2, ["p", "q"], 4, allow_d=True)
            assert len(subformula_closure(f)) <= 2 * formula_size(f)

    def test_closure_rejects_some(self):
        with pytest.raises(ValueError):
            subformula_closure(parse("S p", 2))

    def test_atoms(self):
        assert atoms(parse("q & [1]p | q", 2)) == ("p", "q")
        assert atoms(parse("[1](x <-> ~x)", 1)) == ("x",)

    def test_modal_depth(self):
        assert modal_depth(P) == 0
        assert modal_depth(parse("[1]p & <2>q", 2)) == 1
        assert modal_depth(parse("[1]<2>p", 2)) == 2
        assert modal_depth(parse("S D p", 2)) == 2


class TestLocality:
    def test_modal_roots(self):
        assert is_i_local(parse("[1]p", 2), 1)
        assert not is_i_local(parse("[1]p", 2), 2)
        assert is_i_local(parse("~<1>p", 2), 1)
        assert is_i_local(parse("[1]p & ~[1]q", 2), 1)
        assert is_i_local(parse("[2]p <-> <2>q", 2), 2)

    def test_atoms_are_not_local(self):
        assert not is_i_local(P, 1)
        assert not is_i_local(parse("[1]p & q", 2), 1)

    def test_mixed_agents_not_local(self):
        assert not is_i_local(parse("[1]p & [2]q", 2), 1)
        # A different agent under the root modality is fine; at the root it is not.
        assert is_i_local(parse("[1][2]p", 2), 1)
        assert not is_i_local(parse("[2][1]p", 2), 1)

    def test_s_and_d_not_local(self):
        assert not is_i_local(parse("S p", 2), 1)
        assert not is_i_local(parse("D p", 2), 1)


class TestWdInstance:
    def test_two_agent_golden(self):
        f = wd_instance([parse("[1]p1", 2), parse("[2]p2", 2)])
        assert pretty(f) == "S [1]p1 & S [2]p2 -> S S ([1]p1 & [2]p2)"

    def test_degenerate_single_agent(self):
        f = wd_instance([parse("[1]p", 1)])
        assert pretty(f) == "S [1]p -> S S [1]p"

    def test_three_agents_shape(self):
        f = wd_instance([Box(1, P), Diamond(2, Q), Not(Box(3, R))])
        assert pretty(f) == "S [1]p & S <2>q & S ~[3]r -> S S ([1]p & <2>q & ~[3]r)"

    def test_locality_enforced(self):
        with pytest.raises(LocalityError) as err:
            wd_instance([parse("[1]p", 2), parse("[1]q", 2)])
        assert "2" in str(err.value)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wd_instance([])


DEEP = 10_000

# text of depth DEEP, its printed form, and its formula_size, modal_depth and
# closure size
DEEP_SHAPES = {
    "not": ("~" * DEEP + "p", None, DEEP + 1, 0, DEEP + 1),
    "box": ("[1]" * DEEP + "p", None, DEEP + 1, DEEP, 2 * DEEP + 2),
    "parentheses": ("p & (" * DEEP + "p & p" + ")" * DEEP, None, DEEP + 2, 0, 2 * DEEP + 4),
    "bare parentheses": ("(" * DEEP + "~p" + ")" * DEEP, "~p", 2, 0, 2),
    "and": ("p" + " & p" * DEEP, None, DEEP + 1, 0, 2 * DEEP + 2),
    "implies": ("p -> " * DEEP + "p", None, DEEP + 1, 0, 2 * DEEP + 2),
}


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_deep_formula_needs_no_recursion(shape, capsys):
    # deeper than the recursion limit: every walk keeps its own stack
    assert sys.getrecursionlimit() < DEEP
    text, printed, size, depth, closure = DEEP_SHAPES[shape]
    f = parse(text, 1)
    assert pretty(f) == (printed or text)
    assert len(subformulas(f)) == formula_size(f) == size
    assert modal_depth(f) == depth
    assert len(subformula_closure(f)) == closure
    assert cli.main(["decide", "--formula", text, "--n", "1", "--mode", "sat",
                     "--max-worlds", "1"]) == 0
    assert capsys.readouterr().out.startswith("verdict: satisfiable\n")
