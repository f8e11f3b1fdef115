"""Axiom and derived-theorem schemas of the base hybrid system, plus the
schema registry backing the trace justification tags.

Every schema here is a validity of the base logic (no frame conditions), so
instantiating it with small formulas and checking it on every model up to
the world cap must come back all-valid; anything else points at a bug in
the semantics or in a rewrite rule that cites the schema.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

from .semantics import (
    DEFAULT_LIMITS,
    EnumerationLimits,
    admit,
    check_cases,
    frame_at_index,
    frame_indices,
    frame_valid,
)
from .syntax import (
    And,
    At,
    Box,
    Dia,
    Down,
    Formula,
    Implies,
    Nom,
    Not,
    Or,
    Prop,
    Svar,
    Symbol,
    nom,
    parse,
    prop,
    replace_state_var,
    sorted_symbols,
    svar,
)


def iff(a: Formula, b: Formula) -> Formula:
    return And(Implies(a, b), Implies(b, a))


_P = prop("p")
_Q = prop("q")
_I = nom("i")
_J = nom("j")
_K = nom("k")
_X = svar("x")

# Small instantiation pool for schema metavariables.  Kept to one
# propositional variable per instance where possible: two variables square
# the valuation count in the brute-force check for no extra coverage.
_SMALL: list[Formula] = [
    Prop(_P),
    Not(Prop(_P)),
    Dia(Prop(_P)),
    Nom(_J),
]
_SMALL_PAIRS: list[tuple[Formula, Formula]] = [
    (Prop(_P), Prop(_Q)),
    (Prop(_P), Not(Prop(_P))),
    (Dia(Prop(_P)), Nom(_J)),
]
_SMALL_PAIRS_ONE_PROP: list[tuple[Formula, Formula]] = [
    (Prop(_P), Not(Prop(_P))),
    (Dia(Prop(_P)), Prop(_P)),
    (Nom(_J), Prop(_P)),
]

# Instances that may mention the state variable x (for binder schemas).
_SMALL_X: list[Formula] = [
    Svar(_X),
    Dia(Svar(_X)),
    And(Prop(_P), Svar(_X)),
    At(_X, Prop(_P)),
]


@dataclass(frozen=True)
class Schema:
    name: str
    instances: tuple[Formula, ...]


def _unary(name: str, build: Callable[[Formula], Formula], pool: Iterable[Formula]) -> Schema:
    return Schema(name, tuple(build(a) for a in pool))


def _binary(
    name: str,
    build: Callable[[Formula, Formula], Formula],
    pairs: list[tuple[Formula, Formula]] | None = None,
) -> Schema:
    return Schema(name, tuple(build(a, b) for a, b in (pairs or _SMALL_PAIRS)))


def _nominal_chain(n: int) -> list[Symbol]:
    return [nom(name) for name in ["i", "j", "k"][:n]]


def axiom_schemas() -> list[Schema]:
    """The axioms of the base system, instantiated with small formulas."""
    p, q, i = Prop(_P), Prop(_Q), _I
    schemas = [
        Schema(
            "classical-tautologies",
            (
                parse("p -> p"),
                parse("p | ~p"),
                parse("((p -> q) -> p) -> p"),
                parse("p & q -> q & p"),
            ),
        ),
        Schema("dual", (iff(Dia(p), Not(Box(Not(p)))),)),
        Schema("k-box", (Implies(Box(Implies(p, q)), Implies(Box(p), Box(q))),)),
        Schema("k-at", (Implies(At(i, Implies(p, q)), Implies(At(i, p), At(i, q))),)),
        Schema("selfdual", (iff(Not(At(i, p)), At(i, Not(p))),)),
        Schema("ref", (At(i, Nom(i)),)),
        Schema("intro", (Implies(And(Nom(i), p), At(i, p)),)),
        Schema("back", (Implies(Dia(At(i, p)), At(i, p)),)),
        Schema("agree", (Implies(At(i, At(_J, p)), At(_J, p)),)),
        _unary(
            "downarrow-at",
            lambda a: At(i, iff(Down(_X, a), replace_state_var(a, _X, i))),
            _SMALL_X,
        ),
        Schema(
            "name-binder",
            tuple(
                Implies(Down(_X, At(_X, a)), a)
                for a in _SMALL  # x must not occur in the body
            ),
        ),
        Schema("bound-generalization", (At(i, Box(Down(_X, At(i, Dia(Svar(_X)))))),)),
    ]
    return schemas


def derived_schemas() -> list[Schema]:
    """Derived theorems; these license most reduction steps."""
    i, j, k = _I, _J, _K
    schemas = [
        _unary("trans", lambda a: Implies(And(At(j, a), At(i, Nom(j))), At(i, a)), _SMALL),
        Schema("sym", (Implies(At(i, Nom(j)), At(j, Nom(i))),)),
        _binary("at-conjunction", lambda a, b: iff(At(i, And(a, b)), And(At(i, a), At(i, b)))),
        _binary(
            "at-disjunction",
            lambda a, b: iff(Not(At(i, Or(a, b))), And(Not(At(i, a)), Not(At(i, b)))),
        ),
        _unary(
            "dia-witness",
            lambda a: Implies(And(At(j, a), At(i, Dia(Nom(j)))), At(i, Dia(a))),
            _SMALL,
        ),
        _unary(
            "box-witness",
            lambda a: Implies(
                And(Not(At(i, Box(Not(Nom(j))))), Not(At(j, a))), Not(At(i, Box(a)))
            ),
            _SMALL,
        ),
        _unary("at-agree", lambda a: iff(At(i, At(j, a)), At(j, a)), _SMALL),
        _unary(
            "down-at",
            lambda a: iff(At(i, Down(_X, a)), At(i, replace_state_var(a, _X, i))),
            _SMALL_X,
        ),
        _binary(
            "implies-witness",
            lambda a, b: Implies(
                And(And(At(j, a), Not(At(k, b))), Not(At(i, Implies(Nom(j), Not(Nom(k)))))),
                Not(At(i, Implies(a, b))),
            ),
            _SMALL_PAIRS_ONE_PROP,
        ),
        _unary("at-selfdual", lambda a: iff(Not(At(i, a)), At(i, Not(a))), _SMALL),
    ]
    # Joins and meets of nominal bundles (the Ackermann facts).
    join_instances = []
    meet_instances = []
    for n in (1, 2, 3):
        noms = _nominal_chain(n)
        join = Nom(noms[0])
        meet: Formula = Not(Nom(noms[0]))
        for s in noms[1:]:
            join = Or(join, Nom(s))
            meet = And(meet, Not(Nom(s)))
        for s in noms:
            join_instances.append(At(s, join))
            meet_instances.append(Not(At(s, meet)))
    schemas.append(Schema("nominal-join", tuple(join_instances)))
    schemas.append(Schema("nominal-meet", tuple(meet_instances)))
    return schemas


def distribution_schemas() -> list[Schema]:
    """The twelve distribution equivalences that license preprocessing's
    fourteen distribution rules: and-or and or-and each cover a join in
    either child position."""
    i, x = _I, _X

    def pairs(build: Callable[[Formula, Formula], Formula]) -> tuple[Formula, ...]:
        out = []
        for a in _SMALL[:2]:
            for b in _SMALL[:2]:
                out.append(build(a, b))
        return tuple(out)

    def triples(build: Callable[[Formula, Formula, Formula], Formula]) -> tuple[Formula, ...]:
        a, b = _SMALL[0], _SMALL[1]
        c = _SMALL[2]
        return (build(a, b, c), build(b, c, a))

    return [
        Schema("dia-or", pairs(lambda a, b: iff(Dia(Or(a, b)), Or(Dia(a), Dia(b))))),
        Schema("not-or", pairs(lambda a, b: iff(Not(Or(a, b)), And(Not(a), Not(b))))),
        Schema(
            "and-or",
            triples(lambda a, b, c: iff(And(Or(a, b), c), Or(And(a, c), And(b, c))))
            + triples(lambda a, b, c: iff(And(a, Or(b, c)), Or(And(a, b), And(a, c)))),
        ),
        Schema(
            "down-or",
            tuple(
                iff(Down(x, Or(a, b)), Or(Down(x, a), Down(x, b)))
                for a in _SMALL_X[:2]
                for b in _SMALL_X[:2]
            ),
        ),
        Schema(
            "at-or",
            pairs(lambda a, b: iff(At(i, Or(a, b)), Or(At(i, a), At(i, b))))
            + tuple(
                iff(At(x, Or(a, b)), Or(At(x, a), At(x, b)))
                for a in _SMALL[:1]
                for b in _SMALL[:1]
            ),
        ),
        Schema(
            "implies-or",
            triples(
                lambda a, b, c: iff(Implies(Or(a, b), c), And(Implies(a, c), Implies(b, c)))
            ),
        ),
        Schema("box-and", pairs(lambda a, b: iff(Box(And(a, b)), And(Box(a), Box(b))))),
        Schema("not-and", pairs(lambda a, b: iff(Not(And(a, b)), Or(Not(a), Not(b))))),
        Schema(
            "or-and",
            triples(lambda a, b, c: iff(Or(And(a, b), c), And(Or(a, c), Or(b, c))))
            + triples(lambda a, b, c: iff(Or(a, And(b, c)), And(Or(a, b), Or(a, c)))),
        ),
        Schema(
            "down-and",
            tuple(
                iff(Down(x, And(a, b)), And(Down(x, a), Down(x, b)))
                for a in _SMALL_X[:2]
                for b in _SMALL_X[:2]
            ),
        ),
        Schema(
            "at-and-dist",
            pairs(lambda a, b: iff(At(i, And(a, b)), And(At(i, a), At(i, b))))
            + tuple(
                iff(At(x, And(a, b)), And(At(x, a), At(x, b)))
                for a in _SMALL[:1]
                for b in _SMALL[:1]
            ),
        ),
        Schema(
            "implies-and",
            triples(
                lambda a, b, c: iff(Implies(a, And(b, c)), And(Implies(a, b), Implies(a, c)))
            ),
        ),
    ]


def tag_schemas() -> list[Schema]:
    """Tags covered by classical reasoning or by the anchoring facts rather
    than a single equivalence; the representative instances are proved by
    the same brute-force check."""
    p, q = Prop(_P), Prop(_Q)
    return [
        Schema("cpc-case-split", (Implies(Implies(Or(p, q), q), Implies(p, q)),)),
        Schema("cpc-conj-intro", (Implies(Implies(p, And(p, q)), Implies(p, q)),)),
        Schema("monotone-substitution", (parse("(T -> p) -> (T -> p | q)"),)),
        Schema("antitone-substitution", (parse("(p & q -> F) -> (p & F -> F)"),)),
        Schema(
            "anchor-nominals",
            (
                Implies(And(At(_J, p), At(_I, Nom(_J))), At(_I, p)),
                Implies(At(_I, Nom(_J)), At(_J, Nom(_I))),
            ),
        ),
        Schema("svar-naming", (Implies(Down(_X, At(_X, Prop(_P))), Prop(_P)),)),
    ]


def justification_schemas() -> dict[str, Schema]:
    """Registry keyed by the justification tags the engine writes: a fresh
    dict over the schemas of all_schemas() that are not axioms."""
    axiom_names = {s.name for s in axiom_schemas()}
    return {s.name: s for s in all_schemas() if s.name not in axiom_names}


@functools.cache
def all_schemas() -> tuple[Schema, ...]:
    """Every schema, built once per process on first use: the axioms, the
    derived theorems, the distribution equivalences, then the other tags.
    No two share a name."""
    return (*axiom_schemas(), *derived_schemas(), *distribution_schemas(), *tag_schemas())


class _Group(NamedTuple):
    """The instances with one signature (their sorted_symbols), decided as
    one conjunction; they have the cases of the first."""

    conjunction: Formula
    count: int
    first: Formula


class _Grouping(NamedTuple):
    """Schemas with their instances grouped by signature: members[s][t] is
    the index in groups of instance t of schema s."""

    schemas: tuple[Schema, ...]
    members: tuple[tuple[int, ...], ...]
    groups: tuple[_Group, ...]


def _group(schemas: Iterable[Schema]) -> _Grouping:
    schemas = tuple(schemas)
    index: dict[tuple, int] = {}
    grouped: list[list[Formula]] = []
    members = []
    for schema in schemas:
        row = []
        for inst in schema.instances:
            k = index.setdefault(tuple(map(tuple, sorted_symbols(inst))), len(grouped))
            if k == len(grouped):
                grouped.append([])
            grouped[k].append(inst)
            row.append(k)
        members.append(tuple(row))
    groups = tuple(_Group(functools.reduce(And, g), len(g), g[0]) for g in grouped)
    return _Grouping(schemas, tuple(members), groups)


@functools.cache
def _registry() -> _Grouping:
    """all_schemas() grouped, once per process on first use."""
    return _group(all_schemas())


@dataclass
class SchemaCheck:
    name: str
    instances: int
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_schemas(
    limits: EnumerationLimits = DEFAULT_LIMITS,
    schemas: list[Schema] | None = None,
) -> list[SchemaCheck]:
    """Brute-force every schema instance on every frame with up to
    limits.max_worlds worlds; a failure names the first frame, in
    enumerate_frames order, that refutes it.

    The instances with the same symbols (sorted_symbols) are decided as one
    conjunction, in one frame_valid call.  That is exact, since validity is
    universal over valuations and placements: f & g is valid on a frame iff
    f and g both are, and on one symbol set the conjunction has the cases
    of any one instance.  Without schemas= the schemas of all_schemas(),
    their groups and the groups' conjunctions are built once per process,
    on first use, and each conjunction keeps its interned program
    (semantics._question), so a process interns it once; that saves time
    only where a process checks more than once.  A caller's schemas are
    grouped on each call, into conjunctions built afresh, which intern on
    each call.  Every call then admits the summed cases of all the
    instances before deciding any, and builds the kernels of every group's
    conjunction and decides it on every frame; no verdict, mask or kernel
    is kept between calls.  Only a group that fails somewhere is decided
    instance by instance, to name its failing instances."""
    grouping = _registry() if schemas is None else _group(schemas)
    admit(sum(g.count * check_cases(g.first, limits) for g in grouping.groups))
    full = limits.full
    failed = [frame_valid(limits, g.conjunction) != full for g in grouping.groups]
    out: list[SchemaCheck] = []
    for schema, members in zip(grouping.schemas, grouping.members):
        failures: list[str] = []
        for k, inst in zip(members, schema.instances):
            if not failed[k]:
                continue
            invalid = full ^ frame_valid(limits, inst)
            if invalid:
                failures.append(f"{inst} fails on {frame_at_index(next(frame_indices(invalid)))}")
        out.append(SchemaCheck(schema.name, len(schema.instances), failures))
    return out
