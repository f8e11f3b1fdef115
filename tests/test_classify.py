"""Signed trees, critical branches, and the skeletal Sahlqvist class."""

import pytest
from hypothesis import given, settings

from hybridcorr.classify import (
    OrderType,
    Pol,
    Sign,
    annotate_critical,
    critical_branches,
    find_order_type,
    is_definite,
    is_skeletal_sahlqvist,
    parse_order_type,
    render_tree,
    signed_tree,
)
from hybridcorr.syntax import Not, parse, parse_inequality, prop

import oracles
from strategies import inequalities

P = prop("p")
Q = prop("q")
P1 = prop("p1")
P2 = prop("p2")

FIGURE = parse_inequality("<>p1 & p2 <= <>[]<>p1 | <>[]<>p2")
EPS11 = OrderType(((P1, Pol.ONE), (P2, Pol.ONE)))


def flatten(t):
    yield t.node_text(), t.is_skeletal
    for c in t.children:
        yield from flatten(c)


class TestSignedTree:
    def test_example_tree_nodes(self):
        # positive tree of <>(p | ~[]q) -> <>q, node for node
        t = signed_tree(parse("<>(p | ~[]q) -> <>q"), Sign.PLUS)
        texts = [text for text, _ in flatten(t)]
        assert texts == [
            "+implies",
            "-dia",
            "-or",
            "-p",
            "-not",
            "+box",
            "+q",
            "+dia",
            "+q",
        ]

    def test_atom_plus(self):
        t = signed_tree(parse("p"), Sign.PLUS)
        assert t.node_text() == "+p" and t.children == ()

    def test_negation_flips(self):
        t = signed_tree(parse("~p"), Sign.MINUS)
        assert t.node_text() == "-not"
        assert t.children[0].node_text() == "+p"

    def test_at_has_single_signed_child(self):
        t = signed_tree(parse("@'i (p & q)"), Sign.PLUS)
        assert t.label == "at" and len(t.children) == 1
        assert t.children[0].node_text() == "+and"

    def test_skeletal_table(self):
        # plus side: or, and, dia, not, down, at; box and implies are not
        plus = signed_tree(parse("[](p -> q)"), Sign.PLUS)
        assert plus.is_skeletal is False
        assert plus.children[0].is_skeletal is False
        minus = signed_tree(parse("[](p -> q)"), Sign.MINUS)
        assert minus.is_skeletal is True
        assert minus.children[0].is_skeletal is True
        assert signed_tree(parse("<>p"), Sign.MINUS).is_skeletal is False

    @settings(max_examples=200)
    @given(inequalities(6))
    def test_sign_involution(self, ineq):
        f = ineq.lhs
        minus = signed_tree(f, Sign.MINUS)
        via_not = signed_tree(Not(f), Sign.PLUS)
        assert via_not.children[0] == minus


class TestCriticalBranches:
    def test_figure_branches(self):
        t = signed_tree(parse("<>p1 & p2"), Sign.PLUS)
        branches = critical_branches(t, EPS11)
        assert [b.node_texts() for b in branches] == [
            ["+p1", "+dia", "+and"],
            ["+p2", "+and"],
        ]
        assert all(oracles.branch_is_skeletal(b) for b in branches)

    def test_all_partial_no_branches(self):
        t = signed_tree(parse("<>p1 & p2"), Sign.PLUS)
        eps = OrderType(((P1, Pol.PARTIAL), (P2, Pol.PARTIAL)))
        assert critical_branches(t, eps) == []

    def test_box_branch(self):
        t = signed_tree(parse("[]p"), Sign.PLUS)
        eps = OrderType(((P, Pol.ONE),))
        [b] = critical_branches(t, eps)
        assert b.node_texts() == ["+p", "+box"]
        assert not oracles.branch_is_skeletal(b)

    def test_annotation(self):
        t = annotate_critical(signed_tree(parse("<>p1 & p2"), Sign.PLUS), EPS11)
        rendered = render_tree(t)
        assert rendered.count("[C]") == 2
        assert "[S]" in rendered


class TestSkeletalSahlqvist:
    def test_figure_is_skeletal(self):
        assert is_skeletal_sahlqvist(FIGURE, EPS11)

    def test_box_axiom_polarity_one_fails(self):
        ineq = parse_inequality("[]p <= p")
        assert not is_skeletal_sahlqvist(ineq, OrderType(((P, Pol.ONE),)))

    def test_box_axiom_polarity_partial_succeeds(self):
        ineq = parse_inequality("[]p <= p")
        assert is_skeletal_sahlqvist(ineq, OrderType(((P, Pol.PARTIAL),)))


class TestFindOrderType:
    def test_figure_first_witness(self):
        assert find_order_type(FIGURE) == EPS11

    def test_box_axiom(self):
        eps = find_order_type(parse_inequality("[]p <= p"))
        assert eps is not None and eps[P] is Pol.PARTIAL

    def test_contradiction_has_witness(self):
        ineq = parse_inequality("<>(p & ~p) <= [](p | ~p)")
        eps = find_order_type(ineq)
        assert eps is not None and eps == oracles.first_witness(ineq)

    @settings(max_examples=150)
    @given(inequalities(6))
    def test_search_agrees_with_exhaustion(self, ineq):
        # the 2^n search, each candidate decided on the signed trees
        assert find_order_type(ineq) == oracles.first_witness(ineq)


class TestDefinite:
    def test_figure_definite(self):
        assert is_definite(FIGURE, EPS11)

    def test_disjunction_above_critical_leaf(self):
        ineq = parse_inequality("p | q <= <>p | <>q")
        eps = OrderType(((P, Pol.ONE), (Q, Pol.ONE)))
        assert is_skeletal_sahlqvist(ineq, eps)
        assert not is_definite(ineq, eps)

    def test_pure_vacuous(self):
        ineq = parse_inequality("@'i 'j <= <>'i")
        assert is_definite(ineq, OrderType(()))

    def test_precondition_enforced(self):
        ineq = parse_inequality("[]p <= p")
        with pytest.raises(ValueError):
            is_definite(ineq, OrderType(((P, Pol.ONE),)))


class TestUniform:
    """The uniformity oracle that test_signed_facts checks the signed facts against."""

    def test_mixed_signs_never_uniform(self):
        ineq = parse_inequality("<>p <= []p")
        assert not oracles.is_epsilon_uniform(ineq, OrderType(((P, Pol.ONE),)))
        assert not oracles.is_epsilon_uniform(ineq, OrderType(((P, Pol.PARTIAL),)))

    def test_identity_not_uniform(self):
        ineq = parse_inequality("p <= p")
        assert not oracles.is_epsilon_uniform(ineq, OrderType(((P, Pol.ONE),)))

    def test_right_side_occurrence_flips(self):
        # in T <= <>p the only occurrence sits in the negative tree of the
        # right side, so it is signed minus: uniform for d, not for 1
        ineq = parse_inequality("T <= <>p")
        assert not oracles.is_epsilon_uniform(ineq, OrderType(((P, Pol.ONE),)))
        assert oracles.is_epsilon_uniform(ineq, OrderType(((P, Pol.PARTIAL),)))

    def test_tree_agreement(self):
        eps = OrderType(((P, Pol.ONE),))
        assert oracles.tree_agrees_with(signed_tree(parse("<>p"), Sign.PLUS), eps)
        assert not oracles.tree_agrees_with(signed_tree(parse("~p"), Sign.PLUS), eps)
        assert oracles.tree_agrees_with(signed_tree(parse("@'i T"), Sign.PLUS), eps)


class TestOrderTypeParsing:
    def test_named(self):
        eps = parse_order_type("p=1,q=d")
        assert eps[P] is Pol.ONE and eps[Q] is Pol.PARTIAL

    def test_positional(self):
        eps = parse_order_type("1,d", [P1, P2])
        assert eps[P1] is Pol.ONE and eps[P2] is Pol.PARTIAL
        with pytest.raises(ValueError, match="positional order type needs the variable list"):
            parse_order_type("1")

    def test_named_must_cover_the_variables(self):
        # and name no other: the report would show a variable the input lacks
        assert parse_order_type("q=d,p=1", [P, Q])[P] is Pol.ONE
        with pytest.raises(ValueError, match="gives variable q, which the input lacks"):
            parse_order_type("p=1,q=d", [P])
        with pytest.raises(ValueError, match="misses variable p"):
            parse_order_type("q=1", [P])

    def test_named_variables_are_nonempty_and_distinct(self):
        with pytest.raises(ValueError, match="names no variable"):
            parse_order_type("p=1,=d")
        with pytest.raises(ValueError, match="gives variable p twice"):
            parse_order_type("p=1,p=d")
        with pytest.raises(ValueError, match="gives variable p twice"):
            parse_order_type("p=1,q=d,p=1", [P, Q])

    def test_opposite_involution(self):
        eps = parse_order_type("p=1,q=d")
        assert eps.opposite().opposite() == eps
