"""Signed generation trees and the skeletal Sahlqvist class.

An inequality phi <= psi is analyzed through the positive tree of phi and
the negative tree of psi.  Given an order type (a polarity 1 or d per
propositional variable), the critical leaves are the +p occurrences with
eps(p)=1 and the -p occurrences with eps(p)=d; the inequality is skeletal
Sahlqvist for eps when every branch from a critical leaf to the root passes
through skeletal nodes only.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, replace

from .syntax import (
    And,
    At,
    Bot,
    Box,
    Dia,
    Down,
    Formula,
    Implies,
    Inequality,
    Kind,
    Nom,
    Not,
    Or,
    Prop,
    Svar,
    Symbol,
    Top,
    props_in_order,
)


class Sign(enum.Enum):
    PLUS = "+"
    MINUS = "-"

    def flip(self) -> Sign:
        return Sign.MINUS if self is Sign.PLUS else Sign.PLUS

    def __str__(self) -> str:
        return self.value


class Pol(enum.Enum):
    """Order-type entry: ONE is the polarity 1, PARTIAL the dual polarity d."""

    ONE = "1"
    PARTIAL = "d"

    def opposite(self) -> Pol:
        return Pol.PARTIAL if self is Pol.ONE else Pol.ONE


@dataclass(frozen=True)
class OrderType:
    assignment: tuple[tuple[Symbol, Pol], ...]

    @classmethod
    def of(cls, mapping: dict[Symbol, Pol] | list[tuple[Symbol, Pol]]) -> OrderType:
        items = mapping.items() if isinstance(mapping, dict) else mapping
        return cls(tuple(sorted(items, key=lambda kv: str(kv[0]))))

    def __getitem__(self, p: Symbol) -> Pol:
        for sym, pol in self.assignment:
            if sym == p:
                return pol
        raise KeyError(p)

    def __contains__(self, p: Symbol) -> bool:
        return any(sym == p for sym, _ in self.assignment)

    def opposite(self) -> OrderType:
        return OrderType(tuple((s, pol.opposite()) for s, pol in self.assignment))

    def indicated_sign(self, p: Symbol) -> Sign:
        return Sign.PLUS if self[p] is Pol.ONE else Sign.MINUS

    def symbols(self) -> list[Symbol]:
        return [s for s, _ in self.assignment]

    def to_json(self) -> dict:
        return {str(s): pol.value for s, pol in self.assignment}

    def __str__(self) -> str:
        return ",".join(f"{s}={pol.value}" for s, pol in self.assignment)


# Skeletal node table, keyed by (sign, node label).
_SKELETAL: frozenset[tuple[Sign, str]] = frozenset(
    [
        (Sign.PLUS, "or"),
        (Sign.PLUS, "and"),
        (Sign.PLUS, "dia"),
        (Sign.PLUS, "not"),
        (Sign.PLUS, "down"),
        (Sign.PLUS, "at"),
        (Sign.MINUS, "and"),
        (Sign.MINUS, "or"),
        (Sign.MINUS, "box"),
        (Sign.MINUS, "not"),
        (Sign.MINUS, "down"),
        (Sign.MINUS, "at"),
        (Sign.MINUS, "implies"),
    ]
)

_ATOM_LABELS = frozenset(["prop", "svar", "nom", "top", "bot"])


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
        return self.label in _ATOM_LABELS

    def node_text(self) -> str:
        if self.symbol is not None and self.label in ("prop", "svar", "nom"):
            return f"{self.sign}{self.symbol}"
        if self.symbol is not None:
            return f"{self.sign}{self.label} {self.symbol}"
        return f"{self.sign}{self.label}"


def signed_tree(f: Formula, sign: Sign) -> SignedTree:
    """Label the generation tree of f starting from the given root sign."""

    def leaf(label: str, sym: Symbol | None) -> SignedTree:
        return SignedTree(label, sign, f, sym, (), False)

    def node(label: str, sym: Symbol | None, kids: tuple[SignedTree, ...]) -> SignedTree:
        return SignedTree(label, sign, f, sym, kids, (sign, label) in _SKELETAL)

    match f:
        case Prop(s):
            return leaf("prop", s)
        case Svar(s):
            return leaf("svar", s)
        case Nom(s):
            return leaf("nom", s)
        case Bot():
            return leaf("bot", None)
        case Top():
            return leaf("top", None)
        case Not(c):
            return node("not", None, (signed_tree(c, sign.flip()),))
        case Or(a, b):
            return node("or", None, (signed_tree(a, sign), signed_tree(b, sign)))
        case And(a, b):
            return node("and", None, (signed_tree(a, sign), signed_tree(b, sign)))
        case Implies(a, b):
            return node("implies", None, (signed_tree(a, sign.flip()), signed_tree(b, sign)))
        case Dia(c):
            return node("dia", None, (signed_tree(c, sign),))
        case Box(c):
            return node("box", None, (signed_tree(c, sign),))
        case At(t, c):
            # The term is part of the node; only the formula child is signed.
            return node("at", t, (signed_tree(c, sign),))
        case Down(v, c):
            return node("down", v, (signed_tree(c, sign),))
        case _:
            raise TypeError(f"not a formula: {f!r}")


@dataclass(frozen=True)
class Branch:
    """Path from a critical leaf up to the root, leaf first."""

    path: tuple[SignedTree, ...]

    @property
    def leaf(self) -> SignedTree:
        return self.path[0]

    def is_skeletal(self) -> bool:
        return all(n.is_skeletal for n in self.path[1:])

    def has_plus_or_minus_and(self) -> bool:
        return any(
            (n.sign is Sign.PLUS and n.label == "or")
            or (n.sign is Sign.MINUS and n.label == "and")
            for n in self.path[1:]
        )

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


def inequality_props(ineq: Inequality) -> list[Symbol]:
    """Propositional variables in order of first occurrence, lhs then rhs."""
    return props_in_order(ineq)


def is_skeletal_sahlqvist(ineq: Inequality, eps: OrderType) -> bool:
    """Every eps-critical branch of +lhs and -rhs is skeletal."""
    return all(b.is_skeletal() for b in inequality_critical_branches(ineq, eps))


def is_definite(ineq: Inequality, eps: OrderType) -> bool:
    """Skeletal Sahlqvist with no +or / -and on any critical branch."""
    branches = inequality_critical_branches(ineq, eps)
    if not all(b.is_skeletal() for b in branches):
        raise ValueError("is_definite requires an eps-skeletal-Sahlqvist inequality")
    return not any(b.has_plus_or_minus_and() for b in branches)


def is_epsilon_uniform(ineq: Inequality, eps: OrderType) -> bool:
    """Every p occurrence in +lhs and -rhs carries the eps-indicated sign."""
    plus, minus = inequality_trees(ineq)

    def ok(node: SignedTree) -> bool:
        if node.label == "prop":
            return node.symbol in eps and eps.indicated_sign(node.symbol) is node.sign
        return all(ok(c) for c in node.children)

    return ok(plus) and ok(minus)


def tree_agrees_with(t: SignedTree, eps: OrderType) -> bool:
    """Every prop leaf of the signed subtree t is eps-critical."""
    if t.label == "prop":
        return _is_critical_leaf(t, eps)
    return all(tree_agrees_with(c, eps) for c in t.children)


DEFAULT_PROP_CAP = 10


def order_type_candidates(variables: list[Symbol]):
    for pols in itertools.product((Pol.ONE, Pol.PARTIAL), repeat=len(variables)):
        yield OrderType(tuple(zip(variables, pols)))


def find_order_type(ineq: Inequality, cap: int = DEFAULT_PROP_CAP) -> OrderType | None:
    """First witnessing order type in lexicographic order (1 before d,
    variables by first occurrence), or None when none classifies."""
    variables = inequality_props(ineq)
    if len(variables) > cap:
        raise EnumerationError(
            f"{len(variables)} propositional variables exceed the search cap {cap}"
        )
    for eps in order_type_candidates(variables):
        if is_skeletal_sahlqvist(ineq, eps):
            return eps
    return None


class EnumerationError(Exception):
    pass


def parse_order_type(text: str, variables: list[Symbol] | None = None) -> OrderType:
    """Parse ``p=1,q=d`` (values 1 and d/partial).  With a variable list the
    shorthand ``1,d`` assigns by first-occurrence position, and a named
    order type must cover every listed variable.  A named order type names
    each variable once, and never an empty one."""
    text = text.strip()
    items: list[tuple[Symbol, Pol]] = []
    if "=" not in text:
        if variables is None:
            raise ValueError("positional order type needs the variable list")
        values = [v.strip() for v in text.split(",") if v.strip()]
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
    for sym in variables or ():
        if sym not in eps:
            raise ValueError(f"order-type hint misses variable {sym}")
    return eps


def _parse_pol(v: str) -> Pol:
    if v in ("1", "one"):
        return Pol.ONE
    if v in ("d", "partial", "D"):
        return Pol.PARTIAL
    raise ValueError(f"order-type value must be 1 or d, got {v!r}")
