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

``children``, ``with_children`` and ``signed_children`` are the only code
that knows a node's arity and constructor, and which child positions flip
the sign of the signed generation tree (negation and an implication's
antecedent).  They dispatch on the node's type through one table, one row
per shape.  Every structural recursion that rebuilds a formula or tracks
signs, here and in ``classify`` and ``alba``, goes through them.

Each node keeps its symbols: its props, nominals, free state variables,
every symbol (bound state variables too) and its props in order of first
occurrence.  They are computed once per node, on first use, from its
children's (``_facts``), and stored in the node's ``__dict__`` outside the
dataclass fields, so equality, hashing and repr never see them.  The symbol
walkers (``props``, ``nominals``, ``free_state_vars``, ``all_symbols``,
``props_in_order``, ``sorted_symbols``, ``is_pure``) only read them, and
the set-valued ones hand out the kept frozensets; both substitutions skip
the subtrees whose symbols show them untouched.  Next to its symbols a
node keeps its signed facts for each root sign, which
``classify.signed_facts`` computes the same way from the children's: which
props sit at a + leaf and at a - leaf, which of them lie under a
non-skeletal node or a join, and whether a distribution redex lies below.
Polarity, classification and the stage-1 checks of ``alba`` read those.

``NODE_TYPES`` names each node type and lists its dataclass fields.  The
JSON encoder (``formula_to_json``) and the node labels of ``classify``'s
signed generation trees read it.  The evaluators (``semantics.eval_at``,
the reference oracle, and ``semantics._compile``), the printer,
``alba.simplify_formula`` and the substitutions keep their own per-node
code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Callable, Iterator, NamedTuple, Sequence


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

    def __post_init__(self) -> None:
        # The dataclass hash, computed once: it would hash the Kind through
        # Enum.__hash__, in Python, on every lookup.
        object.__setattr__(self, "_hash", hash((self.kind, self.name, self.index)))

    def __hash__(self) -> int:
        return self._hash

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

    # The node's symbols once computed (see _facts), and its signed facts
    # for each root sign (see classify.signed_facts); not dataclass fields.
    _memo = None
    _plus_facts = None
    _minus_facts = None

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

# The node types by name, each with its dataclass field names in order.  The
# name is a node's label in a signed generation tree and its "node" in JSON.
NODE_TYPES: dict[str, tuple[type, tuple[str, ...]]] = {
    cls.__name__.lower(): (cls, tuple(fld.name for fld in fields(cls)))
    for cls in (Prop, Svar, Nom, Bot, Top, Not, Or, And, Implies, Dia, Box, At, Down)
}
NODE_NAMES: dict[type, str] = {cls: name for name, (cls, _) in NODE_TYPES.items()}
# The fields that hold a symbol (an atom's, an @ term, a binder's variable);
# every other field holds a formula.
_SYMBOL_FIELDS = frozenset(("sym", "term", "var"))


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


class Sign(enum.Enum):
    """The sign of a node in a signed generation tree."""

    PLUS = "+"
    MINUS = "-"

    def flip(self) -> Sign:
        return Sign.MINUS if self is Sign.PLUS else Sign.PLUS

    def __str__(self) -> str:
        return self.value


def children(f: Formula) -> tuple[Formula, ...]:
    try:
        return _CHILDREN[type(f)](f)
    except KeyError:
        raise TypeError(f"not a formula: {f!r}") from None


def with_children(f: Formula, kids: Sequence[Formula]) -> Formula:
    """f rebuilt around new children, given in children(f) order; a leaf
    comes back unchanged."""
    try:
        return _REBUILD[type(f)](f, kids)
    except KeyError:
        raise TypeError(f"not a formula: {f!r}") from None


def signed_children(f: Formula, sign: Sign) -> tuple[tuple[Formula, Sign], ...]:
    """The children of the node f signed ``sign``, in children(f) order,
    each with its own sign: negation and an implication's antecedent flip
    it, every other position keeps it."""
    try:
        return _SIGNED_CHILDREN[type(f)](f, sign)
    except KeyError:
        raise TypeError(f"not a formula: {f!r}") from None


# The node table: for each node type, its children, the node rebuilt around
# new children, and its signed children.  One row per shape.
_CHILDREN: dict[type, Callable[[Formula], tuple[Formula, ...]]] = {}
_REBUILD: dict[type, Callable[[Formula, Sequence[Formula]], Formula]] = {}
_SIGNED_CHILDREN: dict[type, Callable[[Formula, Sign], tuple[tuple[Formula, Sign], ...]]] = {}


def _shape(types, kids, rebuild, signed) -> None:
    for t in types:
        _CHILDREN[t], _REBUILD[t], _SIGNED_CHILDREN[t] = kids, rebuild, signed


_shape(
    (Prop, Svar, Nom, Bot, Top),
    lambda f: (),
    lambda f, kids: f,
    lambda f, sign: (),
)
_shape(
    (Not,),
    lambda f: (f.child,),
    lambda f, kids: Not(*kids),
    lambda f, sign: ((f.child, sign.flip()),),
)
_shape(
    (Dia, Box),
    lambda f: (f.child,),
    lambda f, kids: type(f)(*kids),
    lambda f, sign: ((f.child, sign),),
)
_shape(
    (At,),
    lambda f: (f.child,),
    lambda f, kids: At(f.term, *kids),
    lambda f, sign: ((f.child, sign),),
)
_shape(
    (Down,),
    lambda f: (f.child,),
    lambda f, kids: Down(f.var, *kids),
    lambda f, sign: ((f.child, sign),),
)
_shape(
    (Or, And),
    lambda f: (f.lhs, f.rhs),
    lambda f, kids: type(f)(*kids),
    lambda f, sign: ((f.lhs, sign), (f.rhs, sign)),
)
_shape(
    (Implies,),
    lambda f: (f.lhs, f.rhs),
    lambda f, kids: Implies(*kids),
    lambda f, sign: ((f.lhs, sign.flip()), (f.rhs, sign)),
)


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
    list sorted by name."""
    ps: set[Symbol] = set()
    ns: set[Symbol] = set()
    vs: set[Symbol] = set()
    for f in _formulas_of(items):
        facts = _facts(f)
        ps |= facts.props
        ns |= facts.nominals
        vs |= facts.free
    return sorted(ps, key=str), sorted(ns, key=str), sorted(vs, key=str)


def props_in_order(*items: Formula | Inequality | QuasiInequality) -> list[Symbol]:
    """Propositional variables in order of first occurrence (left to right
    in each formula, the formulas in the order _formulas_of gives)."""
    seen: dict[Symbol, None] = {}
    for f in _formulas_of(items):
        seen.update(dict.fromkeys(_facts(f).order))
    return list(seen)


def props(f: Formula) -> frozenset[Symbol]:
    return _facts(f).props


def nominals(f: Formula) -> frozenset[Symbol]:
    return _facts(f).nominals


def free_state_vars(f: Formula) -> frozenset[Symbol]:
    return _facts(f).free


def all_symbols(f: Formula) -> frozenset[Symbol]:
    """Every symbol occurring in f, including bound state variables."""
    return _facts(f).symbols


def is_pure(f: Formula) -> bool:
    return not _facts(f).props


class _Facts(NamedTuple):
    """The symbols of one formula node."""

    props: frozenset[Symbol]
    nominals: frozenset[Symbol]
    free: frozenset[Symbol]  # free state variables
    symbols: frozenset[Symbol]  # every symbol, bound state variables too
    order: tuple[Symbol, ...]  # props in order of first occurrence


_NO_SYMBOLS: frozenset[Symbol] = frozenset()
_NO_FACTS = _Facts(_NO_SYMBOLS, _NO_SYMBOLS, _NO_SYMBOLS, _NO_SYMBOLS, ())


def _facts(f: Formula) -> _Facts:
    """f's symbols, computed once from its children's and kept on f.  It
    takes one stack frame per level of nesting, so the depth limit of the
    parser and the engine stays where it was."""
    facts = f._memo
    if facts is not None:
        return facts
    kids = children(f)
    if not kids:
        facts = _leaf_facts(f)
    else:
        facts = _facts(kids[0])
        if len(kids) == 2:
            facts = _joined(facts, _facts(kids[1]))
        if type(f) is At:
            facts = _with_term(facts, f.term)
        elif type(f) is Down:
            facts = _binding(facts, f.var)
    f.__dict__["_memo"] = facts
    return facts


def _leaf_facts(f: Formula) -> _Facts:
    match f:
        case Prop(s):
            one = frozenset((s,))
            return _Facts(one, _NO_SYMBOLS, _NO_SYMBOLS, one, (s,))
        case Nom(s):
            one = frozenset((s,))
            return _Facts(_NO_SYMBOLS, one, _NO_SYMBOLS, one, ())
        case Svar(s):
            one = frozenset((s,))
            return _Facts(_NO_SYMBOLS, _NO_SYMBOLS, one, one, ())
    return _NO_FACTS


def _union(a: frozenset[Symbol], b: frozenset[Symbol]) -> frozenset[Symbol]:
    """a | b, or the operand that already holds the other, so that a node
    shares its child's set rather than keeping an equal copy."""
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def _joined(a: _Facts, b: _Facts) -> _Facts:
    """The facts of a binary node whose children have facts a and b."""
    if b is _NO_FACTS:
        return a
    if a is _NO_FACTS:
        return b
    order = a.order
    if order and b.order:
        order += tuple(p for p in b.order if p not in a.props)
    return _Facts(
        _union(a.props, b.props),
        _union(a.nominals, b.nominals),
        _union(a.free, b.free),
        _union(a.symbols, b.symbols),
        order or b.order,
    )


def _with_term(facts: _Facts, t: Symbol) -> _Facts:
    """The facts of @t over a child with these facts."""
    one = frozenset((t,))
    if t.kind is Kind.NOM:
        return facts._replace(
            nominals=_union(facts.nominals, one), symbols=_union(facts.symbols, one)
        )
    return facts._replace(free=_union(facts.free, one), symbols=_union(facts.symbols, one))


def _binding(facts: _Facts, v: Symbol) -> _Facts:
    """The facts of !v. over a child with these facts."""
    return facts._replace(free=facts.free - {v}, symbols=_union(facts.symbols, frozenset((v,))))


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
        if p not in props(g):
            return g
        match g:
            case Prop(s) if s == p:
                captured = theta_free & scope
                if captured:
                    raise CaptureError(min(captured, key=str), path)
                return theta
            case Down(v, _):
                scope = scope | {v}
        return with_children(g, [go(c, scope, path + (k,)) for k, c in enumerate(children(g))])

    return go(f, frozenset(), ())


def term_formula(t: Symbol) -> Formula:
    """The atom formula of a nominal or state-variable term."""
    return Nom(t) if t.kind is Kind.NOM else Svar(t)


def replace_state_var(f: Formula, x: Symbol, t: Symbol) -> Formula:
    """Replace free occurrences of the state variable x by the term t.

    t is a nominal or a state variable; occurrences bound by an inner
    binder on x are left untouched.  Rejects (rather than renames), as
    substitute_prop does, when a free occurrence of x lies under a binder
    on t (see rename_binders).
    """
    if t.kind not in (Kind.NOM, Kind.SVAR):
        raise ValueError(f"replacement term must be a nominal or state variable: {t}")
    t_formula = term_formula(t)

    def go(g: Formula, captured: bool, path: tuple[int, ...]) -> Formula:
        if x not in free_state_vars(g):
            return g
        match g:
            case Svar(s) | At(s, _) if s == x and captured:
                raise CaptureError(t, path)
            case Svar(s) if s == x:
                return t_formula
            case At(term, c) if term == x:
                return At(t, go(c, captured, path + (0,)))
            case Down(v, _) if v == t:
                captured = True
        return with_children(g, [go(c, captured, path + (k,)) for k, c in enumerate(children(g))])

    return go(f, False, ())


def rename_binders(f: Formula, v: Symbol, fresh: Callable[[], Symbol]) -> Formula:
    """f with each binder on the state variable v, and the occurrences it
    binds, renamed to a new state variable fresh() returns."""

    def go(g: Formula) -> Formula:
        if v not in all_symbols(g):
            return g
        if type(g) is Down and g.var == v:
            z = fresh()
            return Down(z, replace_state_var(go(g.child), v, z))
        return with_children(g, [go(c) for c in children(g)])

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
# JSON serialization (node name + fields; field names documented in README)
# ---------------------------------------------------------------------------


def symbol_to_json(s: Symbol) -> dict:
    return {"kind": s.kind.value, "name": s.name, "index": s.index}


def formula_to_json(f: Formula) -> dict:
    """``{"node": name, field: ...}`` with the node's fields in order: an
    atom, @ term or binder variable as a symbol, every other field as a
    formula."""
    try:
        name = NODE_NAMES[type(f)]
    except KeyError:
        raise TypeError(f"not a formula: {f!r}") from None
    out = {"node": name}
    for fld in NODE_TYPES[name][1]:
        v = getattr(f, fld)
        out[fld] = symbol_to_json(v) if fld in _SYMBOL_FIELDS else formula_to_json(v)
    return out


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
