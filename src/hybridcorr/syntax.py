"""Formula language for hybrid logic with @ and the downarrow binder.

Atoms come in three disjoint kinds: propositional variables (``p``, ``q``,
``r1``, ...), state variables (``x``, ``y``, ``z2``, ...) and nominals
(``'i``, ``'j``, ...).  On top of those the language has the Boolean
connectives, one unary modality (``<>`` / ``[]``), satisfaction operators
``@t`` over nominal or state-variable terms, and the binder ``!x.`` which
binds a state variable to the evaluation world.

Inequalities ``phi <= psi`` and quasi-inequalities
``ineq ; ... ; ineq => ineq`` are thin wrappers over formulas; they are the
objects the rewriting engine manipulates.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Iterator


class Kind(enum.Enum):
    PROP = "prop"
    SVAR = "svar"
    NOM = "nom"


@dataclass(frozen=True)
class Symbol:
    """An atom name.  User symbols carry index 0; generated ones index > 0."""

    kind: Kind
    name: str
    index: int = 0

    def __str__(self) -> str:
        return f"'{self.name}" if self.kind is Kind.NOM else self.name


def prop(name: str, index: int = 0) -> Symbol:
    return Symbol(Kind.PROP, name, index)


def svar(name: str, index: int = 0) -> Symbol:
    return Symbol(Kind.SVAR, name, index)


def nom(name: str, index: int = 0) -> Symbol:
    return Symbol(Kind.NOM, name, index)


class Formula:
    """Base class; all nodes are frozen dataclasses below."""

    def __str__(self) -> str:
        return fmt(self)


@dataclass(frozen=True)
class Prop(Formula):
    sym: Symbol

    def __post_init__(self) -> None:
        if self.sym.kind is not Kind.PROP:
            raise ValueError(f"Prop node needs a PROP symbol, got {self.sym}")


@dataclass(frozen=True)
class Svar(Formula):
    sym: Symbol

    def __post_init__(self) -> None:
        if self.sym.kind is not Kind.SVAR:
            raise ValueError(f"Svar node needs a SVAR symbol, got {self.sym}")


@dataclass(frozen=True)
class Nom(Formula):
    sym: Symbol

    def __post_init__(self) -> None:
        if self.sym.kind is not Kind.NOM:
            raise ValueError(f"Nom node needs a NOM symbol, got {self.sym}")


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class Or(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class And(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Dia(Formula):
    child: Formula


@dataclass(frozen=True)
class Box(Formula):
    child: Formula


@dataclass(frozen=True)
class At(Formula):
    """Satisfaction operator.  The term is a nominal or a state variable."""

    term: Symbol
    child: Formula

    def __post_init__(self) -> None:
        if self.term.kind not in (Kind.NOM, Kind.SVAR):
            raise ValueError(f"@ needs a nominal or state variable, got {self.term}")


@dataclass(frozen=True)
class Down(Formula):
    """Downarrow binder ``!x. child``; binds x to the evaluation world."""

    var: Symbol
    child: Formula

    def __post_init__(self) -> None:
        if self.var.kind is not Kind.SVAR:
            raise ValueError(f"binder needs a state variable, got {self.var}")


BOT = Bot()
TOP = Top()


@dataclass(frozen=True)
class Inequality:
    """phi <= psi: global truth-set inclusion, same meaning as phi -> psi."""

    lhs: Formula
    rhs: Formula

    def __str__(self) -> str:
        return f"{fmt(self.lhs)} <= {fmt(self.rhs)}"


@dataclass(frozen=True)
class QuasiInequality:
    """ineq_1 & ... & ineq_n => ineq."""

    antecedents: tuple[Inequality, ...]
    conclusion: Inequality

    def __str__(self) -> str:
        body = " ; ".join(str(i) for i in self.antecedents)
        return f"{body} => {self.conclusion}" if body else f"=> {self.conclusion}"


# ---------------------------------------------------------------------------
# Syntactic queries
# ---------------------------------------------------------------------------


def children(f: Formula) -> tuple[Formula, ...]:
    match f:
        case Not(c) | Dia(c) | Box(c) | At(_, c) | Down(_, c):
            return (c,)
        case Or(a, b) | And(a, b) | Implies(a, b):
            return (a, b)
        case _:
            return ()


def subformulas(f: Formula) -> Iterator[Formula]:
    yield f
    for c in children(f):
        yield from subformulas(c)


def props(f: Formula) -> set[Symbol]:
    return {g.sym for g in subformulas(f) if isinstance(g, Prop)}


def nominals(f: Formula) -> set[Symbol]:
    out = set()
    for g in subformulas(f):
        if isinstance(g, Nom):
            out.add(g.sym)
        elif isinstance(g, At) and g.term.kind is Kind.NOM:
            out.add(g.term)
    return out


def free_state_vars(f: Formula) -> set[Symbol]:
    match f:
        case Svar(s):
            return {s}
        case At(t, c):
            out = free_state_vars(c)
            if t.kind is Kind.SVAR:
                out = out | {t}
            return out
        case Down(v, c):
            return free_state_vars(c) - {v}
        case _:
            out: set[Symbol] = set()
            for c in children(f):
                out |= free_state_vars(c)
            return out


def _formulas_of(items) -> Iterator[Formula]:
    """The formulas inside a mix of formulas, inequalities and
    quasi-inequalities: each inequality lhs then rhs, antecedents first."""
    for item in items:
        if isinstance(item, QuasiInequality):
            yield from _formulas_of((*item.antecedents, item.conclusion))
        elif isinstance(item, Inequality):
            yield item.lhs
            yield item.rhs
        else:
            yield item


def sorted_symbols(
    *items: Formula | Inequality | QuasiInequality,
) -> tuple[list[Symbol], list[Symbol], list[Symbol]]:
    """The props, nominals and free state variables of the items, each
    list sorted by name, collected in one walk."""
    ps: set[Symbol] = set()
    ns: set[Symbol] = set()
    vs: set[Symbol] = set()

    def walk(f: Formula, bound: frozenset[Symbol]) -> None:
        match f:
            case Prop(s):
                ps.add(s)
            case Nom(s):
                ns.add(s)
            case Svar(s):
                if s not in bound:
                    vs.add(s)
            case At(t, c):
                if t.kind is Kind.NOM:
                    ns.add(t)
                elif t not in bound:
                    vs.add(t)
                walk(c, bound)
            case Down(v, c):
                walk(c, bound | {v})
            case _:
                for c in children(f):
                    walk(c, bound)

    for f in _formulas_of(items):
        walk(f, frozenset())
    return sorted(ps, key=str), sorted(ns, key=str), sorted(vs, key=str)


def props_in_order(*items: Formula | Inequality | QuasiInequality) -> list[Symbol]:
    """Propositional variables in order of first occurrence (left to right
    in each formula, the formulas in the order _formulas_of gives)."""
    seen: dict[Symbol, None] = {}

    def walk(f: Formula) -> None:
        if isinstance(f, Prop):
            seen[f.sym] = None
        else:
            for c in children(f):
                walk(c)

    for f in _formulas_of(items):
        walk(f)
    return list(seen)


def all_symbols(f: Formula) -> set[Symbol]:
    """Every symbol occurring in f, including bound state variables."""
    out: set[Symbol] = set()
    for g in subformulas(f):
        match g:
            case Prop(s) | Svar(s) | Nom(s):
                out.add(s)
            case At(t, _):
                out.add(t)
            case Down(v, _):
                out.add(v)
    return out


def is_pure(f: Formula) -> bool:
    return not props(f)


def is_sentence(f: Formula) -> bool:
    return not free_state_vars(f)


class Polarity(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    BOTH = "both"
    ABSENT = "absent"


def occurrence_signs(f: Formula, p: Symbol, sign: int = +1) -> list[int]:
    """Signs (+1/-1) of the occurrences of p in the signed tree sign*f."""
    match f:
        case Prop(s) if s == p:
            return [sign]
        case Not(c):
            return occurrence_signs(c, p, -sign)
        case Implies(a, b):
            return occurrence_signs(a, p, -sign) + occurrence_signs(b, p, sign)
        case _:
            out: list[int] = []
            for c in children(f):
                out += occurrence_signs(c, p, sign)
            return out


def polarity(f: Formula, p: Symbol) -> Polarity:
    """Polarity of p in +f: positive iff every occurrence is signed +."""
    if p.kind is not Kind.PROP:
        raise ValueError(f"polarity is defined for propositional variables, got {p}")
    signs = set(occurrence_signs(f, p))
    if not signs:
        return Polarity.ABSENT
    if signs == {+1}:
        return Polarity.POSITIVE
    if signs == {-1}:
        return Polarity.NEGATIVE
    return Polarity.BOTH


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


class CaptureError(Exception):
    """Unsafe substitution: a free state variable would be captured."""

    def __init__(self, var: Symbol, path: tuple[int, ...]):
        self.var = var
        self.path = path
        super().__init__(
            f"substitution would capture free state variable {var} "
            f"under the binder at path {path}"
        )


def substitute_prop(f: Formula, p: Symbol, theta: Formula) -> Formula:
    """Uniformly replace the propositional variable p by theta.

    Rejects (rather than renames) when a free state variable of theta would
    fall under a binder of the same name.
    """
    theta_free = free_state_vars(theta)

    def go(g: Formula, scope: frozenset[Symbol], path: tuple[int, ...]) -> Formula:
        match g:
            case Prop(s) if s == p:
                captured = theta_free & scope
                if captured:
                    raise CaptureError(min(captured, key=str), path)
                return theta
            case Prop(_) | Svar(_) | Nom(_) | Bot() | Top():
                return g
            case Not(c):
                return Not(go(c, scope, path + (0,)))
            case Or(a, b):
                return Or(go(a, scope, path + (0,)), go(b, scope, path + (1,)))
            case And(a, b):
                return And(go(a, scope, path + (0,)), go(b, scope, path + (1,)))
            case Implies(a, b):
                return Implies(go(a, scope, path + (0,)), go(b, scope, path + (1,)))
            case Dia(c):
                return Dia(go(c, scope, path + (0,)))
            case Box(c):
                return Box(go(c, scope, path + (0,)))
            case At(t, c):
                return At(t, go(c, scope, path + (0,)))
            case Down(v, c):
                return Down(v, go(c, scope | {v}, path + (0,)))
            case _:
                raise TypeError(f"not a formula: {g!r}")

    return go(f, frozenset(), ())


def replace_state_var(f: Formula, x: Symbol, t: Symbol) -> Formula:
    """Replace free occurrences of the state variable x by the term t.

    t is a nominal or a state variable; occurrences bound by an inner
    binder on x are left untouched.
    """
    if t.kind not in (Kind.NOM, Kind.SVAR):
        raise ValueError(f"replacement term must be a nominal or state variable: {t}")
    t_formula: Formula = Nom(t) if t.kind is Kind.NOM else Svar(t)

    def go(g: Formula) -> Formula:
        match g:
            case Svar(s) if s == x:
                return t_formula
            case Prop(_) | Svar(_) | Nom(_) | Bot() | Top():
                return g
            case Not(c):
                return Not(go(c))
            case Or(a, b):
                return Or(go(a), go(b))
            case And(a, b):
                return And(go(a), go(b))
            case Implies(a, b):
                return Implies(go(a), go(b))
            case Dia(c):
                return Dia(go(c))
            case Box(c):
                return Box(go(c))
            case At(term, c):
                new_term = t if term == x else term
                return At(new_term, go(c))
            case Down(v, c):
                return Down(v, c) if v == x else Down(v, go(c))
            case _:
                raise TypeError(f"not a formula: {g!r}")

    return go(f)


# ---------------------------------------------------------------------------
# Fresh symbols
# ---------------------------------------------------------------------------

_NOM_HEAD = ("i0", "i1")
_NOM_LETTERS = "jklmn"
_SVAR_LETTERS = "xyz"
_PROP_LETTERS = "pqr"


def _candidates(kind: Kind) -> Iterator[str]:
    if kind is Kind.NOM:
        yield from _NOM_HEAD
        letters = _NOM_LETTERS
    elif kind is Kind.SVAR:
        letters = _SVAR_LETTERS
    else:
        letters = _PROP_LETTERS
    n = 1
    while True:
        for c in letters:
            yield f"{c}{n}"
        n += 1


class FreshContext:
    """Registry of the symbols in play; mints symbols that collide with none.

    The nominal naming sequence is i0, i1, then j1, k1, l1, m1, n1, j2, ...
    with taken names skipped, so the two first-approximation anchors come out
    as i0 and i1 whenever the input does not already use those names.
    """

    def __init__(self) -> None:
        self._used: set[tuple[Kind, str]] = set()
        self._serial = 0

    @classmethod
    def from_formulas(cls, *formulas: Formula) -> FreshContext:
        ctx = cls()
        for f in formulas:
            ctx.register_formula(f)
        return ctx

    def register(self, sym: Symbol) -> None:
        self._used.add((sym.kind, sym.name))

    def register_formula(self, f: Formula) -> None:
        for sym in all_symbols(f):
            self.register(sym)

    def is_used(self, kind: Kind, name: str) -> bool:
        return (kind, name) in self._used

    def fresh(self, kind: Kind) -> Symbol:
        for name in _candidates(kind):
            if not self.is_used(kind, name):
                self._serial += 1
                sym = Symbol(kind, name, self._serial)
                self.register(sym)
                return sym
        raise AssertionError("unreachable: candidate stream is infinite")


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

_LEVEL_IMPLIES = 1
_LEVEL_OR = 2
_LEVEL_AND = 3
_LEVEL_UNARY = 4
_LEVEL_ATOM = 5


def _render(f: Formula, level: int) -> str:
    match f:
        case Prop(s) | Svar(s):
            return s.name
        case Nom(s):
            return f"'{s.name}"
        case Bot():
            return "F"
        case Top():
            return "T"
        case Not(c):
            return _wrap(f"~{_render(c, _LEVEL_UNARY)}", _LEVEL_UNARY, level)
        case Dia(c):
            return _wrap(f"<>{_render(c, _LEVEL_UNARY)}", _LEVEL_UNARY, level)
        case Box(c):
            return _wrap(f"[]{_render(c, _LEVEL_UNARY)}", _LEVEL_UNARY, level)
        case At(t, c):
            term = f"'{t.name}" if t.kind is Kind.NOM else t.name
            return _wrap(f"@{term} {_render(c, _LEVEL_UNARY)}", _LEVEL_UNARY, level)
        case Down(v, c):
            return _wrap(f"!{v.name}. {_render(c, _LEVEL_UNARY)}", _LEVEL_UNARY, level)
        case And(a, b):
            s = f"{_render(a, _LEVEL_AND)} & {_render(b, _LEVEL_AND + 1)}"
            return _wrap(s, _LEVEL_AND, level)
        case Or(a, b):
            s = f"{_render(a, _LEVEL_OR)} | {_render(b, _LEVEL_OR + 1)}"
            return _wrap(s, _LEVEL_OR, level)
        case Implies(a, b):
            s = f"{_render(a, _LEVEL_IMPLIES + 1)} -> {_render(b, _LEVEL_IMPLIES)}"
            return _wrap(s, _LEVEL_IMPLIES, level)
        case _:
            raise TypeError(f"not a formula: {f!r}")


def _wrap(text: str, own: int, context: int) -> str:
    return f"({text})" if own < context else text


def fmt(f: Formula) -> str:
    """Render with minimal parentheses; parse(fmt(f)) == f for user symbols."""
    return _render(f, 0)


# ---------------------------------------------------------------------------
# JSON serialization (node kind + children; field names documented in README)
# ---------------------------------------------------------------------------


def symbol_to_json(s: Symbol) -> dict:
    return {"kind": s.kind.value, "name": s.name, "index": s.index}


def symbol_from_json(d: dict) -> Symbol:
    return Symbol(Kind(d["kind"]), d["name"], d.get("index", 0))


def formula_to_json(f: Formula) -> dict:
    match f:
        case Prop(s) | Svar(s) | Nom(s):
            return {"node": type(f).__name__.lower(), "sym": symbol_to_json(s)}
        case Bot():
            return {"node": "bot"}
        case Top():
            return {"node": "top"}
        case Not(c) | Dia(c) | Box(c):
            return {"node": type(f).__name__.lower(), "child": formula_to_json(c)}
        case Or(a, b) | And(a, b) | Implies(a, b):
            return {
                "node": type(f).__name__.lower(),
                "lhs": formula_to_json(a),
                "rhs": formula_to_json(b),
            }
        case At(t, c):
            return {"node": "at", "term": symbol_to_json(t), "child": formula_to_json(c)}
        case Down(v, c):
            return {"node": "down", "var": symbol_to_json(v), "child": formula_to_json(c)}
        case _:
            raise TypeError(f"not a formula: {f!r}")


def formula_from_json(d: dict) -> Formula:
    node = d["node"]
    if node == "prop":
        return Prop(symbol_from_json(d["sym"]))
    if node == "svar":
        return Svar(symbol_from_json(d["sym"]))
    if node == "nom":
        return Nom(symbol_from_json(d["sym"]))
    if node == "bot":
        return BOT
    if node == "top":
        return TOP
    if node == "not":
        return Not(formula_from_json(d["child"]))
    if node == "dia":
        return Dia(formula_from_json(d["child"]))
    if node == "box":
        return Box(formula_from_json(d["child"]))
    if node == "or":
        return Or(formula_from_json(d["lhs"]), formula_from_json(d["rhs"]))
    if node == "and":
        return And(formula_from_json(d["lhs"]), formula_from_json(d["rhs"]))
    if node == "implies":
        return Implies(formula_from_json(d["lhs"]), formula_from_json(d["rhs"]))
    if node == "at":
        return At(symbol_from_json(d["term"]), formula_from_json(d["child"]))
    if node == "down":
        return Down(symbol_from_json(d["var"]), formula_from_json(d["child"]))
    raise ValueError(f"unknown node kind {node!r}")


def inequality_to_json(i: Inequality) -> dict:
    return {"lhs": formula_to_json(i.lhs), "rhs": formula_to_json(i.rhs)}


def quasi_to_json(q: QuasiInequality) -> dict:
    return {
        "antecedents": [inequality_to_json(i) for i in q.antecedents],
        "conclusion": inequality_to_json(q.conclusion),
    }


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class ParseError(Exception):
    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (at position {pos})")


_PUNCT = [
    ("<->", "IFF"),
    ("<=", "LEQ"),
    ("<>", "DIA"),
    ("->", "IMPLIES"),
    ("=>", "QARROW"),
    ("[]", "BOX"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    ("|", "OR"),
    ("&", "AND"),
    ("~", "NOT"),
    ("@", "AT"),
    ("!", "BANG"),
    (".", "DOT"),
    (";", "SEMI"),
]

_SVAR_INITIALS = "xyz"


@dataclass
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "T":
            out.append(_Token("TOP", "T", i))
            i += 1
            continue
        if ch == "F":
            out.append(_Token("BOT", "F", i))
            i += 1
            continue
        if ch == "'":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i + 1:
                raise ParseError("expected a nominal name after '", i)
            out.append(_Token("NOM", text[i + 1 : j], i))
            i = j
            continue
        if ch.isalpha() and ch.islower():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("IDENT", text[i:j], i))
            i = j
            continue
        for lit, kind in _PUNCT:
            if text.startswith(lit, i):
                out.append(_Token(kind, lit, i))
                i += len(lit)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    out.append(_Token("EOF", "", n))
    return out


def _ident_kind(name: str) -> Kind:
    return Kind.SVAR if name[0] in _SVAR_INITIALS else Kind.PROP


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.next()

    def formula(self) -> Formula:
        a = self.implies()
        if self.peek().kind == "IFF":
            self.next()
            b = self.formula()
            return And(Implies(a, b), Implies(b, a))
        return a

    def implies(self) -> Formula:
        a = self.or_()
        if self.peek().kind == "IMPLIES":
            self.next()
            return Implies(a, self.implies())
        return a

    def or_(self) -> Formula:
        a = self.and_()
        while self.peek().kind == "OR":
            self.next()
            a = Or(a, self.and_())
        return a

    def and_(self) -> Formula:
        a = self.unary()
        while self.peek().kind == "AND":
            self.next()
            a = And(a, self.unary())
        return a

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "NOT":
            self.next()
            return Not(self.unary())
        if tok.kind == "DIA":
            self.next()
            return Dia(self.unary())
        if tok.kind == "BOX":
            self.next()
            return Box(self.unary())
        if tok.kind == "AT":
            self.next()
            term = self.term_symbol("@")
            return At(term, self.unary())
        if tok.kind == "BANG":
            self.next()
            name = self.peek()
            if name.kind != "IDENT" or _ident_kind(name.text) is not Kind.SVAR:
                raise ParseError(
                    f"binder expects a state variable (x/y/z...), found {name.text!r}",
                    name.pos,
                )
            self.next()
            self.expect("DOT")
            return Down(svar(name.text), self.unary())
        return self.atom()

    def term_symbol(self, where: str) -> Symbol:
        tok = self.peek()
        if tok.kind == "NOM":
            self.next()
            return nom(tok.text)
        if tok.kind == "IDENT" and _ident_kind(tok.text) is Kind.SVAR:
            self.next()
            return svar(tok.text)
        raise ParseError(
            f"{where} expects a nominal or state variable, found {tok.text or 'end of input'!r}",
            tok.pos,
        )

    def atom(self) -> Formula:
        tok = self.next()
        if tok.kind == "TOP":
            return TOP
        if tok.kind == "BOT":
            return BOT
        if tok.kind == "NOM":
            return Nom(nom(tok.text))
        if tok.kind == "IDENT":
            kind = _ident_kind(tok.text)
            return Svar(svar(tok.text)) if kind is Kind.SVAR else Prop(prop(tok.text))
        if tok.kind == "LPAREN":
            f = self.formula()
            self.expect("RPAREN")
            return f
        raise ParseError(f"expected a formula, found {tok.text or 'end of input'!r}", tok.pos)

    def inequality(self) -> Inequality:
        lhs = self.formula()
        self.expect("LEQ")
        return Inequality(lhs, self.formula())

    def quasi(self) -> QuasiInequality:
        antecedents: list[Inequality] = []
        if self.peek().kind == "QARROW":
            self.next()
            return QuasiInequality((), self.inequality())
        antecedents.append(self.inequality())
        while self.peek().kind == "SEMI":
            self.next()
            antecedents.append(self.inequality())
        self.expect("QARROW")
        conclusion = self.inequality()
        return QuasiInequality(tuple(antecedents), conclusion)

    def done(self) -> None:
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)


def parse(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    p.done()
    return f


def parse_inequality(text: str) -> Inequality:
    p = _Parser(text)
    i = p.inequality()
    p.done()
    return i


def as_inequality(f: Formula | Inequality) -> Inequality:
    """Implications become lhs <= rhs; anything else is wrapped as top <= f."""
    if isinstance(f, Inequality):
        return f
    match f:
        case Implies(a, b):
            return Inequality(a, b)
        case _:
            return Inequality(TOP, f)


def parse_input(text: str) -> Inequality:
    """Read an input: an inequality ``phi <= psi`` as given, a formula
    through as_inequality."""
    if "<=" in text:
        return parse_inequality(text)
    return as_inequality(parse(text))


def parse_quasi(text: str) -> QuasiInequality:
    p = _Parser(text)
    q = p.quasi()
    p.done()
    return q


def dumps(f: Formula, **kwargs) -> str:
    return json.dumps(formula_to_json(f), **kwargs)
