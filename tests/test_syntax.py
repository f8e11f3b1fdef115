"""Parser, printer, substitution, and syntactic queries."""

import dataclasses
import json
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hybridcorr.alba import _ineq_symbols, ineq_props
from hybridcorr.classify import Polarity, inequality_props, polarity
from hybridcorr.syntax import (
    BOT,
    NODE_NAMES,
    NODE_TYPES,
    TOP,
    And,
    At,
    Bot,
    Box,
    CaptureError,
    Dia,
    Down,
    FreshContext,
    Implies,
    Inequality,
    Kind,
    Nom,
    Not,
    Or,
    ParseError,
    Prop,
    Sign,
    Svar,
    Symbol,
    Top,
    all_symbols,
    children,
    fmt,
    formula_to_json,
    free_state_vars,
    is_pure,
    nom,
    nominals,
    parse,
    parse_inequality,
    parse_quasi,
    prop,
    props,
    props_in_order,
    rename_binders,
    replace_state_var,
    signed_children,
    sorted_symbols,
    substitute_prop,
    svar,
    with_children,
)

from oracles import declared_fields, formula_from_json, subformulas
from strategies import formulas

P = prop("p")
P1 = prop("p1")
P2 = prop("p2")
X = svar("x")
Y = svar("y")
I1 = nom("i1")
# The facts a node keeps beside its fields (see syntax.Formula).
KEPT = {"_memo", "_plus_facts", "_minus_facts", "_question"}


class TestParse:
    def test_diamond_conjunction(self):
        assert parse("<>p1 & p2") == And(Dia(Prop(P1)), Prop(P2))

    def test_top_atom(self):
        assert parse("T") == TOP

    def test_binder_at_chain(self):
        assert parse("!x. @x <>x") == Down(X, At(X, Dia(Svar(X))))

    def test_iff_desugars(self):
        a, b = Prop(P1), Prop(P2)
        assert parse("p1 <-> p2") == And(Implies(a, b), Implies(b, a))

    def test_precedence(self):
        assert parse("p1 | p2 & p1") == Or(Prop(P1), And(Prop(P2), Prop(P1)))
        assert parse("p1 -> p2 -> p1") == Implies(Prop(P1), Implies(Prop(P2), Prop(P1)))

    def test_inequality_and_quasi(self):
        ineq = parse_inequality("'i1 <= <>'i1")
        assert ineq == parse_quasi("'i1 <= <>'i1 => 'i1 <= ~'i1").antecedents[0]
        empty = parse_quasi("=> 'i1 <= ~'i1")
        assert empty.antecedents == ()

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as e:
            parse("p1 & & p2")
        assert e.value.pos == 5

    def test_at_requires_term(self):
        with pytest.raises(ParseError):
            parse("@p1 p2")
        with pytest.raises(ParseError):
            parse("!p1. p2")

    @settings(max_examples=300)
    @given(st.text(alphabet="pqxyzij'<>[]()&|~!@.=-T F0123456789", max_size=30))
    def test_fuzz_never_crashes_uncontrolled(self, text):
        try:
            parse(text)
        except ParseError:
            pass


class TestPrint:
    def test_diamond_conjunction(self):
        assert fmt(And(Dia(Prop(P1)), Prop(P2))) == "<>p1 & p2"

    def test_binder(self):
        assert fmt(Down(X, Dia(Svar(X)))) == "!x. <>x"

    def test_implication(self):
        assert fmt(Implies(Box(Prop(P)), Prop(P))) == "[]p -> p"

    def test_minimal_parens(self):
        assert fmt(parse("(p -> q) -> r")) == "(p -> q) -> r"
        assert fmt(parse("p & (q | r)")) == "p & (q | r)"
        assert fmt(parse("<>(p & q)")) == "<>(p & q)"

    @settings(max_examples=300)
    @given(formulas())
    def test_roundtrip(self, f):
        assert parse(fmt(f)) == f


def _subst_via_json(f, name, theta):
    """Independent substitution: a JSON tree walk, no shared code path."""
    theta_json = formula_to_json(theta)

    def walk(d):
        if d.get("node") == "prop" and d["sym"]["name"] == name:
            return theta_json
        out = dict(d)
        for key in ("child", "lhs", "rhs"):
            if key in d:
                out[key] = walk(d[key])
        return out

    return formula_from_json(walk(formula_to_json(f)))


class TestSubstitution:
    def test_box_example(self):
        f = parse("[]p -> p")
        assert substitute_prop(f, P, parse("~'i1")) == parse("[]~'i1 -> ~'i1")

    def test_identity(self):
        f = parse("<>p & @'i1 p")
        assert substitute_prop(f, P, Prop(P)) == f

    def test_capture_rejected(self):
        f = parse("!x. @x p")
        with pytest.raises(CaptureError) as e:
            substitute_prop(f, P, parse("<>x"))
        assert e.value.var == X

    @settings(max_examples=200)
    @given(formulas(8), formulas(4))
    def test_homomorphism_against_json_walk(self, f, theta):
        if free_state_vars(theta):
            theta = parse("<>'i")  # keep the draw capture-free
        assert substitute_prop(f, P, theta) == _subst_via_json(f, "p", theta)


def _free_positions(f, x):
    """Independent free-occurrence marker used as the replacement oracle."""
    hits = []

    def walk(g, path, bound):
        if isinstance(g, Svar) and g.sym == x and x not in bound:
            hits.append(path)
        if isinstance(g, At) and g.term == x and x not in bound:
            hits.append(path + ("term",))
        if isinstance(g, Down):
            walk(g.child, path + (0,), bound | {g.var})
        elif isinstance(g, (Not, Dia, Box, At)):
            walk(g.child, path + (0,), bound)
        elif isinstance(g, (And, Or, Implies)):
            walk(g.lhs, path + (0,), bound)
            walk(g.rhs, path + (1,), bound)

    walk(f, (), set())
    return hits


class TestReplaceStateVar:
    def test_both_free(self):
        assert replace_state_var(parse("@x <>x"), X, I1) == parse("@'i1 <>'i1")

    def test_bound_untouched(self):
        f = parse("!x. <>x")
        assert replace_state_var(f, X, I1) == f

    def test_mixed(self):
        assert replace_state_var(parse("<>x & !x. x"), X, I1) == parse("<>'i1 & !x. x")

    @settings(max_examples=200)
    @given(formulas(8))
    def test_replaced_exactly_at_free_positions(self, f):
        replaced = replace_state_var(f, X, I1)
        assert _free_positions(replaced, X) == []
        if not _free_positions(f, X):
            assert replaced == f

    def test_capture_rejected(self):
        # y would fall under !x. at the Svar and at the @ (paths 0.0 and 1.0)
        for text, path in [("!x. <>y", (0, 0)), ("<>x & !x. @y x", (1, 0))]:
            with pytest.raises(CaptureError) as e:
                replace_state_var(parse(text), Y, X)
            assert e.value.var == X and e.value.path == path

    def test_binders_renamed_apart(self):
        fresh = iter([Symbol(Kind.SVAR, f"z{k}", k) for k in (1, 2)])
        f = parse("<>x & !x. (x & !x. @x y)")
        renamed = rename_binders(f, X, lambda: next(fresh))
        assert str(renamed) == "<>x & !z1. (z1 & !z2. @z2 y)"
        assert str(replace_state_var(renamed, Y, X)) == "<>x & !z1. (z1 & !z2. @z2 x)"

    @settings(max_examples=100)
    @given(formulas(8))
    def test_nominal_replacement_idempotent(self, f):
        once = replace_state_var(f, X, I1)
        assert replace_state_var(once, X, I1) == once


def _prop_signs_via_json(f, sign="+"):
    """Independent sign oracle: (name, sign) of every propositional leaf,
    left to right, from a walk of the JSON tree that flips the sign under
    negation and in an implication's antecedent.  No shared code path."""
    out = []

    def walk(d, s):
        node = d["node"]
        flipped = "-" if s == "+" else "+"
        if node == "prop":
            out.append((d["sym"]["name"], s))
        elif node == "not":
            walk(d["child"], flipped)
        elif node == "implies":
            walk(d["lhs"], flipped)
            walk(d["rhs"], s)
        else:
            for key in ("child", "lhs", "rhs"):
                if key in d:
                    walk(d[key], s)

    walk(formula_to_json(f), sign)
    return out


class TestNodeInterface:
    @settings(max_examples=200)
    @given(formulas(10))
    def test_rebuild_from_own_children_is_identity(self, f):
        assert with_children(f, children(f)) == f
        # a leaf comes back itself, with the facts it keeps
        assert all(with_children(g, ()) is g for g in subformulas(f) if not children(g))

    @settings(max_examples=200)
    @given(formulas(10), st.sampled_from(list(Sign)))
    def test_signed_children_follow_children_order(self, f, sign):
        assert tuple(c for c, _ in signed_children(f, sign)) == children(f)

    def test_non_formula_rejected(self):
        with pytest.raises(TypeError):
            with_children("p", ())
        with pytest.raises(TypeError):
            with_children(Inequality(Prop(P), Prop(P)), ())


class TestPolarity:
    def test_examples(self):
        assert polarity(parse("[]p -> p"), P) == Polarity.BOTH
        assert polarity(parse("<>p"), P) == Polarity.POSITIVE
        assert polarity(parse("~p"), P) == Polarity.NEGATIVE
        assert polarity(parse("<>q"), P) == Polarity.ABSENT

    def test_requires_prop(self):
        with pytest.raises(ValueError):
            polarity(parse("<>x"), X)

    @settings(max_examples=200)
    @given(formulas(8))
    def test_agrees_with_signed_tree(self, f):
        from hybridcorr.classify import Sign, signed_tree

        tree = signed_tree(f, Sign.PLUS)
        signs = set()

        def walk(t):
            if t.label == "prop" and t.symbol == P:
                signs.add(t.sign)
            for c in t.children:
                walk(c)

        walk(tree)
        expected = {
            frozenset(): Polarity.ABSENT,
            frozenset({Sign.PLUS}): Polarity.POSITIVE,
            frozenset({Sign.MINUS}): Polarity.NEGATIVE,
            frozenset({Sign.PLUS, Sign.MINUS}): Polarity.BOTH,
        }[frozenset(signs)]
        assert polarity(f, P) == expected

    @settings(max_examples=200)
    @given(formulas(8))
    def test_agrees_with_json_sign_oracle(self, f):
        signs = {s for name, s in _prop_signs_via_json(f) if name == "p"}
        expected = {
            frozenset(): Polarity.ABSENT,
            frozenset({"+"}): Polarity.POSITIVE,
            frozenset({"-"}): Polarity.NEGATIVE,
            frozenset({"+", "-"}): Polarity.BOTH,
        }[frozenset(signs)]
        assert polarity(f, P) == expected

    @settings(max_examples=200)
    @given(formulas(8), st.sampled_from(list(Sign)))
    def test_signed_tree_leaves_agree_with_json_sign_oracle(self, f, sign):
        from hybridcorr.classify import signed_tree

        leaves = []

        def walk(t):
            if t.label == "prop":
                leaves.append((t.symbol.name, str(t.sign)))
            for c in t.children:
                walk(c)

        walk(signed_tree(f, sign))
        assert leaves == _prop_signs_via_json(f, str(sign))


class TestQueries:
    def test_purity(self):
        assert is_pure(parse("@'i <>'j"))
        assert not is_pure(parse("<>p1 & p2"))

    def test_free_state_vars(self):
        assert free_state_vars(parse("!x. <>y")) == {Y}
        assert free_state_vars(parse("!x. <>x")) == set()
        assert free_state_vars(parse("@x p")) == {X}

    def test_sentence(self):
        assert not free_state_vars(parse("!x. @x <>x"))
        assert free_state_vars(parse("@x <>x")) == {X}

    def test_props_and_nominals(self):
        f = parse("@'i p -> <>q")
        assert props(f) == {P, prop("q")}
        assert nominals(f) == {nom("i")}

    @settings(max_examples=200, deadline=None)
    @given(formulas(8), formulas(8))
    def test_collectors_agree_with_the_single_queries(self, f, g):
        ineq = Inequality(f, g)
        by_query = tuple(
            sorted(query(f) | query(g), key=str)
            for query in (props, nominals, free_state_vars)
        )
        assert sorted_symbols(ineq) == sorted_symbols(f, g) == by_query
        order = props_in_order(ineq)
        assert set(order) == props(f) | props(g) and len(order) == len(set(order))
        # first occurrence: everything in the lhs, then what is new in the rhs
        assert order == props_in_order(f) + [p for p in props_in_order(g) if p not in props(f)]

    def test_collectors_on_a_quasi_inequality(self):
        q = parse_quasi("'i <= !x. <>(x & y) ; 'j <= @z ~'i => 'i <= ~'k")
        assert sorted_symbols(q) == ([], [nom("i"), nom("j"), nom("k")], [Y, svar("z")])
        assert props_in_order(parse("<>q & !x. @x (p | q) -> r")) == [
            prop("q"),
            P,
            prop("r"),
        ]


def _plain_symbols(*fs):
    """(props in order of first occurrence, nominals, free state variables,
    every symbol) of the formulas fs, by a plain recursive walk: the
    independent oracle for the symbols each node keeps."""
    order, noms, free, syms = [], set(), set(), set()

    def walk(g, bound):
        match g:
            case Prop(s):
                syms.add(s)
                if s not in order:
                    order.append(s)
            case Nom(s):
                noms.add(s)
                syms.add(s)
            case Svar(s):
                syms.add(s)
                if s not in bound:
                    free.add(s)
            case At(t, c):
                syms.add(t)
                if t.kind is Kind.NOM:
                    noms.add(t)
                elif t not in bound:
                    free.add(t)
                walk(c, bound)
            case Down(v, c):
                syms.add(v)
                walk(c, bound | {v})
            case Not(c) | Dia(c) | Box(c):
                walk(c, bound)
            case And(a, b) | Or(a, b) | Implies(a, b):
                walk(a, bound)
                walk(b, bound)

    for f in fs:
        walk(f, frozenset())
    return order, noms, free, syms


def _assert_walkers_match(f):
    order, noms, free, syms = _plain_symbols(f)
    assert props_in_order(f) == order
    assert props(f) == set(order)
    assert nominals(f) == noms
    assert free_state_vars(f) == free
    assert all_symbols(f) == syms
    assert is_pure(f) == (not order)
    assert sorted_symbols(f) == tuple(sorted(x, key=str) for x in (order, noms, free))


class TestNodeFacts:
    """Each node keeps its symbols, computed once from its children's; the
    walkers read them.  They must agree with a plain walk, on fresh nodes
    and on nodes rebuilt around children that already keep theirs, and
    never show in equality, hashing or repr."""

    @settings(max_examples=300, deadline=None)
    @given(formulas(14))
    def test_walkers_match_a_plain_walk(self, f):
        _assert_walkers_match(f)
        _assert_walkers_match(f)  # now read back from the nodes

    @settings(max_examples=200, deadline=None)
    @given(formulas(10), formulas(6))
    def test_rebuilt_nodes_match_a_plain_walk(self, f, theta):
        _assert_walkers_match(f)
        _assert_walkers_match(with_children(f, children(f)))
        for c in children(f):
            _assert_walkers_match(with_children(f, [c] * len(children(f))))
        try:
            g = substitute_prop(f, P, theta)
        except CaptureError:
            assume(False)
        _assert_walkers_match(g)
        assert P not in props(g) or P in props(theta)

    @settings(max_examples=200, deadline=None)
    @given(formulas(8), formulas(8))
    def test_inequality_wrappers_match_a_plain_walk(self, f, g):
        order, _, _, syms = _plain_symbols(f, g)
        ineq = Inequality(f, g)
        assert inequality_props(ineq) == props_in_order(ineq) == props_in_order(f, g) == order
        assert ineq_props(ineq) == set(order)
        assert _ineq_symbols(ineq) == syms

    @settings(max_examples=200, deadline=None)
    @given(formulas(10))
    def test_kept_symbols_are_invisible(self, f):
        fresh = formula_from_json(formula_to_json(f))
        _assert_walkers_match(f)
        assert f == fresh and fresh == f
        assert hash(f) == hash(fresh)
        assert repr(f) == repr(fresh)
        fields = declared_fields(f)
        assert declared_fields(fresh) == fields
        assert "_memo" in set(vars(f)) - set(fields)
        assert set(fields).isdisjoint(KEPT)
        for walker in (props, nominals, free_state_vars, all_symbols):
            assert isinstance(walker(f), frozenset)

    def test_kept_symbols_examples(self):
        f = parse("!x. @x (<>y & p) -> @'i q")
        assert props_in_order(f) == [P, prop("q")]
        assert free_state_vars(f) == {Y}
        assert all_symbols(f) == {X, Y, P, prop("q"), nom("i")}
        assert nominals(f) == {nom("i")}
        assert repr(f) == repr(parse("!x. @x (<>y & p) -> @'i q"))
        assert "_memo" not in repr(f) and "_memo" in vars(f)


class TestSymbolHash:
    @settings(max_examples=200)
    @given(
        st.sampled_from(list(Kind)),
        st.text("abcxyz", min_size=1, max_size=3),
        st.integers(0, 5),
    )
    def test_hash_is_the_dataclass_hash(self, kind, name, index):
        # the kept hash is the value the dataclass computed, so set order
        # and every output stay as they were
        sym = Symbol(kind, name, index)
        assert hash(sym) == hash((kind, name, index))
        assert sym == Symbol(kind, name, index) and "_hash" not in repr(sym)


class TestNodeBehaviour:
    """Every node type builds, compares, hashes, prints and matches as the
    frozen dataclass it once was (TestJson.ALL_NODES holds all 13)."""

    ALL_NODES_REPR = (
        "Implies(lhs=And(lhs=Prop(sym=Symbol(kind=<Kind.PROP: 'prop'>, name='p', index=0)), "
        "rhs=Not(child=Bot())), rhs=Or(lhs=Dia(child=At(term=Symbol(kind=<Kind.NOM: 'nom'>, "
        "name='i', index=0), child=Nom(sym=Symbol(kind=<Kind.NOM: 'nom'>, name='j', index=2)))), "
        "rhs=Box(child=Down(var=Symbol(kind=<Kind.SVAR: 'svar'>, name='x', index=0), "
        "child=At(term=Symbol(kind=<Kind.SVAR: 'svar'>, name='x', index=0), "
        "child=And(lhs=Svar(sym=Symbol(kind=<Kind.SVAR: 'svar'>, name='x', index=0)), "
        "rhs=Top()))))))"
    )

    @pytest.mark.parametrize(
        "build, wrong, named",
        [
            (Prop, Y, "Prop"),
            (Svar, P, "Svar"),
            (Nom, Y, "Nom"),
            (lambda s: At(s, TOP), P, "At|@"),
            (lambda s: Down(s, TOP), I1, "Down|binder"),
        ],
    )
    def test_symbol_of_the_wrong_kind(self, build, wrong, named):
        with pytest.raises(ValueError, match=rf"({named}).*{re.escape(str(wrong))}"):
            build(wrong)

    def test_frozen(self):
        for f in subformulas(TestJson.ALL_NODES):
            for name in (*declared_fields(f), "_memo"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(f, name, TOP)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(f, name)

    def test_equality(self):
        p, q = Prop(P), Prop(prop("q"))
        assert Dia(p) != Box(p) and And(p, q) != Or(p, q) and Not(p) != Dia(p)
        assert Bot() == BOT and Bot() is not BOT and BOT != TOP and p != P
        assert And(p, q) == And(Prop(P), Prop(prop("q"))) != And(q, p)
        assert At(I1, p) == At(nom("i1"), p) != At(svar("i1"), p)

    def test_hash_is_the_field_tuple_hash(self):
        for f in subformulas(TestJson.ALL_NODES):
            assert hash(f) == hash(tuple(getattr(f, name) for name in declared_fields(f)))

    def test_repr_is_pinned(self):
        assert repr(TestJson.ALL_NODES) == self.ALL_NODES_REPR
        assert repr(BOT) == "Bot()" and "_memo" not in repr(TestJson.ALL_NODES)

    def test_positional_match(self):
        seen = set()
        for f in subformulas(TestJson.ALL_NODES):
            match f:
                case Prop(s) | Svar(s) | Nom(s):
                    assert s is f.sym
                case Bot() | Top():
                    assert declared_fields(f) == ()
                case Not(c) | Dia(c) | Box(c):
                    assert c is f.child
                case And(a, b) | Or(a, b) | Implies(a, b):
                    assert a is f.lhs and b is f.rhs
                case At(t, c):
                    assert t is f.term and c is f.child
                case Down(v, c):
                    assert v is f.var and c is f.child
            seen.add(type(f))
        assert seen == set(NODE_NAMES) == {cls for cls, _ in NODE_TYPES.values()}
        with pytest.raises(TypeError):
            match Not(TOP):
                case Not(_, _):
                    pass


class TestFresh:
    def test_empty_context_starts_at_anchor_names(self):
        ctx = FreshContext()
        assert ctx.fresh(Kind.NOM).name == "i0"
        assert ctx.fresh(Kind.NOM).name == "i1"
        assert ctx.fresh(Kind.NOM).name == "j1"

    def test_anchors_taken(self):
        ctx = FreshContext.from_formulas(parse("@'i0 <>'i1"))
        assert ctx.fresh(Kind.NOM).name == "j1"

    def test_user_name_never_reused(self):
        ctx = FreshContext.from_formulas(parse("@'j1 'k1"))
        minted = [ctx.fresh(Kind.NOM) for _ in range(4)]
        names = [s.name for s in minted]
        assert "j1" not in names and "k1" not in names
        assert all(s.index > 0 for s in minted)

    def test_other_kinds(self):
        ctx = FreshContext.from_formulas(parse("<>x1 & p1"))
        assert ctx.fresh(Kind.SVAR).name == "y1"
        assert ctx.fresh(Kind.PROP).name == "q1"


class TestJson:
    @settings(max_examples=200)
    @given(formulas())
    def test_roundtrip(self, f):
        assert formula_from_json(formula_to_json(f)) == f

    # Every node type, @ over a nominal and over a state variable, and a
    # generated symbol; the text is exactly what the per-node codec wrote.
    ALL_NODES = Implies(
        And(Prop(P), Not(BOT)),
        Or(
            Dia(At(nom("i"), Nom(nom("j", 2)))),
            Box(Down(svar("x"), At(svar("x"), And(Svar(svar("x")), TOP)))),
        ),
    )
    ALL_NODES_JSON = (
        '{"node": "implies", "lhs": {"node": "and", "lhs": {"node": "prop", "sym": '
        '{"kind": "prop", "name": "p", "index": 0}}, "rhs": {"node": "not", "child": '
        '{"node": "bot"}}}, "rhs": {"node": "or", "lhs": {"node": "dia", "child": '
        '{"node": "at", "term": {"kind": "nom", "name": "i", "index": 0}, "child": '
        '{"node": "nom", "sym": {"kind": "nom", "name": "j", "index": 2}}}}, "rhs": '
        '{"node": "box", "child": {"node": "down", "var": {"kind": "svar", "name": "x", '
        '"index": 0}, "child": {"node": "at", "term": {"kind": "svar", "name": "x", '
        '"index": 0}, "child": {"node": "and", "lhs": {"node": "svar", "sym": {"kind": '
        '"svar", "name": "x", "index": 0}}, "rhs": {"node": "top"}}}}}}}'
    )

    def test_output_is_pinned(self):
        assert {type(g) for g in subformulas(self.ALL_NODES)} == set(NODE_NAMES)
        assert json.dumps(formula_to_json(self.ALL_NODES)) == self.ALL_NODES_JSON
        assert formula_from_json(json.loads(self.ALL_NODES_JSON)) == self.ALL_NODES

    def test_errors(self):
        with pytest.raises(TypeError, match="not a formula"):
            formula_to_json(P)
