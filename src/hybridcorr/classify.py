"""Signed generation trees and the skeletal Sahlqvist class.

An inequality phi <= psi is analyzed through the positive tree of phi and
the negative tree of psi.  Given an order type (a polarity 1 or d per
propositional variable), the critical leaves are the +p occurrences with
eps(p)=1 and the -p occurrences with eps(p)=d; the inequality is skeletal
Sahlqvist for eps when every branch from a critical leaf to the root passes
through skeletal nodes only.

The questions asked of those trees are answered from each node's signed
facts (``signed_facts``): for the node's tree rooted at one sign, the props
at a + leaf and at a - leaf, those of them whose branch passes a
non-skeletal node, those whose branch passes the join of the sign there,
and whether a distribution redex lies in the tree.  A node computes them
once per root sign, on first use, from its children's, and keeps them
beside its fields, as it keeps its symbols (see ``syntax``).
Classification, ``polarity``, and ``alba``'s stage-1 and final-shape checks
are lookups in them.  Since an order type constrains each variable's own
leaves only, the first witnessing order type comes out of one pass over the
variables.

``SignedTree`` and ``critical_branches`` build the trees themselves.  They
serve the ``classify`` report, and the tests check the signed facts
against them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

from .syntax import (
    NODE_NAMES,
    NODE_TYPES,
    And,
    Formula,
    Inequality,
    Kind,
    Or,
    Prop,
    Sign,
    Symbol,
    _union,
    props_in_order,
    signed_children,
)


class Pol(enum.Enum):
    """Order-type entry: ONE is the polarity 1, PARTIAL the dual polarity d."""

    ONE = "1"
    PARTIAL = "d"

    def opposite(self) -> Pol:
        return Pol.PARTIAL if self is Pol.ONE else Pol.ONE


@dataclass(frozen=True)
class OrderType:
    assignment: tuple[tuple[Symbol, Pol], ...]

    def __getitem__(self, p: Symbol) -> Pol:
        for sym, pol in self.assignment:
            if sym == p:
                return pol
        raise KeyError(p)

    def __contains__(self, p: Symbol) -> bool:
        return any(sym == p for sym, _ in self.assignment)

    def opposite(self) -> OrderType:
        return OrderType(tuple((s, pol.opposite()) for s, pol in self.assignment))

    @cached_property
    def ones(self) -> frozenset[Symbol]:
        """The variables of polarity 1: critical at a + leaf."""
        return frozenset(s for s, pol in self.assignment if pol is Pol.ONE)

    @cached_property
    def partials(self) -> frozenset[Symbol]:
        """The variables of polarity d: critical at a - leaf."""
        return frozenset(s for s, pol in self.assignment if pol is Pol.PARTIAL)

    def indicated_sign(self, p: Symbol) -> Sign:
        return Sign.PLUS if self[p] is Pol.ONE else Sign.MINUS

    def symbols(self) -> list[Symbol]:
        return [s for s, _ in self.assignment]

    def to_json(self) -> dict:
        return {str(s): pol.value for s, pol in self.assignment}

    def __str__(self) -> str:
        return ",".join(f"{s}={pol.value}" for s, pol in self.assignment)


# Skeletal nodes as (sign, node label).  The order is the one in which the
# generator draws spine nodes for each sign.
SKELETAL_NODES: tuple[tuple[Sign, str], ...] = (
    *((Sign.PLUS, label) for label in ("or", "and", "dia", "not", "down", "at")),
    *((Sign.MINUS, label) for label in ("and", "or", "box", "not", "down", "at", "implies")),
)
_SKELETAL = frozenset(SKELETAL_NODES)

# The join of each sign: the +or and -and nodes that no critical branch of a
# definite inequality passes through, and that preprocessing distributes.
JOIN: dict[Sign, type] = {Sign.PLUS: Or, Sign.MINUS: And}

# The skeletal nodes that stage 1 distributes over a child that is the join
# of the child's sign: each but its sign's own join.
DISTRIBUTES = frozenset(
    (sign, name) for sign, name in SKELETAL_NODES if name != NODE_NAMES[JOIN[sign]]
)


@dataclass(frozen=True)
class SignedTree:
    label: str
    sign: Sign
    formula: Formula
    symbol: Symbol | None
    children: tuple[SignedTree, ...]
    is_skeletal: bool
    is_critical_leaf: bool = False

    @property
    def is_atom(self) -> bool:
        return not self.children

    def node_text(self) -> str:
        if self.symbol is not None and self.is_atom:
            return f"{self.sign}{self.symbol}"
        if self.symbol is not None:
            return f"{self.sign}{self.label} {self.symbol}"
        return f"{self.sign}{self.label}"


def signed_tree(f: Formula, sign: Sign) -> SignedTree:
    """Label the generation tree of f starting from the given root sign."""
    label = NODE_NAMES.get(type(f))
    if label is None:
        raise TypeError(f"not a formula: {f!r}")
    # An atom's symbol, an @ term or a binder variable is part of its node;
    # only the formula children are signed.
    symbol = next((getattr(f, name) for name in f._symbol_kinds), None)
    kids = tuple([signed_tree(c, s) for c, s in signed_children(f, sign)])
    return SignedTree(label, sign, f, symbol, kids, (sign, label) in _SKELETAL)


@dataclass(frozen=True)
class Branch:
    """Path from a critical leaf up to the root, leaf first."""

    path: tuple[SignedTree, ...]

    def node_texts(self) -> list[str]:
        return [n.node_text() for n in self.path]


def _is_critical_leaf(node: SignedTree, eps: OrderType) -> bool:
    return (
        node.label == "prop"
        and node.symbol in eps
        and eps.indicated_sign(node.symbol) is node.sign
    )


def critical_branches(t: SignedTree, eps: OrderType) -> list[Branch]:
    """Branches ending in +p with eps(p)=1 or -p with eps(p)=d, leaf first."""
    out: list[Branch] = []

    def walk(node: SignedTree, ancestors: tuple[SignedTree, ...]) -> None:
        if node.is_atom:
            if _is_critical_leaf(node, eps):
                out.append(Branch((node, *reversed(ancestors))))
            return
        for c in node.children:
            walk(c, ancestors + (node,))

    walk(t, ())
    return out


def annotate_critical(t: SignedTree, eps: OrderType) -> SignedTree:
    """Copy of t with is_critical_leaf set on the eps-critical leaves."""
    if t.is_atom:
        return replace(t, is_critical_leaf=_is_critical_leaf(t, eps))
    return replace(t, children=tuple(annotate_critical(c, eps) for c in t.children))


def render_tree(t: SignedTree, indent: str = "") -> str:
    """Indented text rendering with skeletal/critical markers."""
    markers = []
    if t.is_skeletal:
        markers.append("S")
    if t.is_critical_leaf:
        markers.append("C")
    tag = f"  [{','.join(markers)}]" if markers else ""
    lines = [f"{indent}{t.node_text()}{tag}"]
    for c in t.children:
        lines.append(render_tree(c, indent + "  "))
    return "\n".join(lines)


def inequality_trees(ineq: Inequality) -> tuple[SignedTree, SignedTree]:
    return signed_tree(ineq.lhs, Sign.PLUS), signed_tree(ineq.rhs, Sign.MINUS)


def inequality_critical_branches(ineq: Inequality, eps: OrderType) -> list[Branch]:
    plus, minus = inequality_trees(ineq)
    return critical_branches(plus, eps) + critical_branches(minus, eps)


# ---------------------------------------------------------------------------
# Signed facts
# ---------------------------------------------------------------------------


class SignedFacts(NamedTuple):
    """What the signed generation tree of one node, rooted at one sign, says
    about its prop leaves, split by the leaf's sign; and whether a
    distribution redex lies in it (at its root or below)."""

    plus: frozenset[Symbol]  # props at a + leaf
    minus: frozenset[Symbol]  # props at a - leaf
    plus_unskeletal: frozenset[Symbol]  # ... whose branch passes a non-skeletal node
    minus_unskeletal: frozenset[Symbol]
    plus_join: frozenset[Symbol]  # ... whose branch passes the join of the sign there
    minus_join: frozenset[Symbol]
    redex: bool


_NONE: frozenset[Symbol] = frozenset()
_NO_LEAVES = SignedFacts(_NONE, _NONE, _NONE, _NONE, _NONE, _NONE, False)

def _sign_tables(sign: Sign) -> tuple[frozenset[type], type, frozenset[type]]:
    """The node types skeletal at sign, the join of sign, and the node types
    that distribute over a child join at sign, read off the tables above;
    signed_facts uses these so that it hashes no Sign."""

    def types(pairs: frozenset[tuple[Sign, str]]) -> frozenset[type]:
        return frozenset(NODE_TYPES[name][0] for s, name in pairs if s is sign)

    return types(_SKELETAL), JOIN[sign], types(DISTRIBUTES)


_PLUS_TABLES = _sign_tables(Sign.PLUS)
_MINUS_TABLES = _sign_tables(Sign.MINUS)
_PLUS_JOIN = _PLUS_TABLES[1]
_MINUS_JOIN = _MINUS_TABLES[1]


def signed_facts(f: Formula, sign: Sign) -> SignedFacts:
    """The signed facts of f's tree rooted at sign, computed once from its
    children's and kept on f.  It takes one stack frame per level of
    nesting, as the symbols of syntax do."""
    plus = sign is Sign.PLUS
    facts = f._plus_facts if plus else f._minus_facts
    if facts is not None:
        return facts
    kids = signed_children(f, sign)
    t = type(f)
    if kids:
        skeletal, join, distributes = _PLUS_TABLES if plus else _MINUS_TABLES
        c, s = kids[0]
        p, m, pu, mu, pj, mj, redex = signed_facts(c, s)
        child_join = type(c) is (_PLUS_JOIN if s is Sign.PLUS else _MINUS_JOIN)
        if len(kids) == 2:
            c, s = kids[1]
            b = signed_facts(c, s)
            p, m = _union(p, b.plus), _union(m, b.minus)
            pu, mu = _union(pu, b.plus_unskeletal), _union(mu, b.minus_unskeletal)
            pj, mj = _union(pj, b.plus_join), _union(mj, b.minus_join)
            redex = redex or b.redex
            child_join = child_join or type(c) is (_PLUS_JOIN if s is Sign.PLUS else _MINUS_JOIN)
        if t not in skeletal:
            pu, mu = p, m
        if t is join:
            pj, mj = p, m
        facts = SignedFacts(p, m, pu, mu, pj, mj, redex or (child_join and t in distributes))
    elif t is Prop:
        one = frozenset((f.sym,))
        facts = _NO_LEAVES._replace(plus=one) if plus else _NO_LEAVES._replace(minus=one)
    else:
        facts = _NO_LEAVES
    f.__dict__["_plus_facts" if plus else "_minus_facts"] = facts
    return facts


def inequality_facts(ineq: Inequality) -> tuple[SignedFacts, SignedFacts]:
    """The signed facts of +lhs and of -rhs."""
    return signed_facts(ineq.lhs, Sign.PLUS), signed_facts(ineq.rhs, Sign.MINUS)


def inequality_props(ineq: Inequality) -> list[Symbol]:
    """Propositional variables in order of first occurrence, lhs then rhs."""
    return props_in_order(ineq)


def is_skeletal_sahlqvist(ineq: Inequality, eps: OrderType) -> bool:
    """Every eps-critical branch of +lhs and -rhs is skeletal."""
    ones, partials = eps.ones, eps.partials
    return all(
        f.plus_unskeletal.isdisjoint(ones) and f.minus_unskeletal.isdisjoint(partials)
        for f in inequality_facts(ineq)
    )


def is_definite(ineq: Inequality, eps: OrderType) -> bool:
    """Skeletal Sahlqvist with no +or / -and on any critical branch."""
    if not is_skeletal_sahlqvist(ineq, eps):
        raise ValueError("is_definite requires an eps-skeletal-Sahlqvist inequality")
    ones, partials = eps.ones, eps.partials
    return all(
        f.plus_join.isdisjoint(ones) and f.minus_join.isdisjoint(partials)
        for f in inequality_facts(ineq)
    )


class Polarity(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    BOTH = "both"
    ABSENT = "absent"


def polarity(f: Formula, p: Symbol) -> Polarity:
    """Polarity of p in +f: positive iff every occurrence is signed +."""
    if p.kind is not Kind.PROP:
        raise ValueError(f"polarity is defined for propositional variables, got {p}")
    facts = signed_facts(f, Sign.PLUS)
    if p in facts.plus:
        return Polarity.BOTH if p in facts.minus else Polarity.POSITIVE
    return Polarity.NEGATIVE if p in facts.minus else Polarity.ABSENT


def find_order_type(ineq: Inequality) -> OrderType | None:
    """First witnessing order type in lexicographic order (1 before d,
    variables by first occurrence), or None when none classifies.

    eps(p) constrains only the branches of p's own leaves, so the first
    witness gives each variable 1 unless a branch of a +p leaf passes a
    non-skeletal node, else d unless one of a -p leaf does."""
    lhs, rhs = inequality_facts(ineq)
    plus_unskeletal = _union(lhs.plus_unskeletal, rhs.plus_unskeletal)
    minus_unskeletal = _union(lhs.minus_unskeletal, rhs.minus_unskeletal)
    assignment: list[tuple[Symbol, Pol]] = []
    for p in inequality_props(ineq):
        if p not in plus_unskeletal:
            assignment.append((p, Pol.ONE))
        elif p not in minus_unskeletal:
            assignment.append((p, Pol.PARTIAL))
        else:
            return None
    return OrderType(tuple(assignment))


def parse_order_type(text: str, variables: list[Symbol] | None = None) -> OrderType:
    """Parse ``p=1,q=d`` (values 1 and d/partial).  With a variable list the
    shorthand ``1,d`` assigns by first-occurrence position, one non-empty
    entry per variable, and a named order type must name every listed
    variable and no other.  A named order type names each variable once,
    and never an empty one."""
    text = text.strip()
    items: list[tuple[Symbol, Pol]] = []
    if "=" not in text:
        if variables is None:
            raise ValueError("positional order type needs the variable list")
        values = [v.strip() for v in text.split(",")] if text else []
        if "" in values:
            raise ValueError(f"order-type hint {text!r} has an empty entry")
        if len(values) != len(variables):
            raise ValueError(
                f"order type has {len(values)} entries for {len(variables)} variables"
            )
        for sym, v in zip(variables, values):
            items.append((sym, _parse_pol(v)))
        return OrderType(tuple(items))
    for part in text.split(","):
        name, _, value = part.partition("=")
        name = name.strip()
        if not name:
            raise ValueError(f"order-type hint {part.strip()!r} names no variable")
        sym = Symbol(Kind.PROP, name)
        if any(sym == seen for seen, _ in items):
            raise ValueError(f"order-type hint gives variable {sym} twice")
        items.append((sym, _parse_pol(value.strip())))
    eps = OrderType(tuple(items))
    if variables is not None:
        for sym in variables:
            if sym not in eps:
                raise ValueError(f"order-type hint misses variable {sym}")
        for sym, _ in items:
            if sym not in variables:
                raise ValueError(f"order-type hint gives variable {sym}, which the input lacks")
    return eps


def _parse_pol(v: str) -> Pol:
    if v in ("1", "one"):
        return Pol.ONE
    if v in ("d", "partial", "D"):
        return Pol.PARTIAL
    raise ValueError(f"order-type value must be 1 or d, got {v!r}")
