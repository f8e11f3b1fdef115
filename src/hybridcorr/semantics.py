"""Kripke-model evaluation and brute-force frame validity.

Two evaluators live here on purpose.  ``eval_at`` implements the
satisfaction clauses world by world and is the reference oracle.
``_compile`` turns a formula into closures that compute whole truth sets as
integer bitmasks over a flat environment of symbol values; ``truth_mask``,
``frame_valid`` and ``frame_valid_quasi`` all evaluate through it (it is a
few hundred times faster).  The property suite keeps the two in agreement.

Desk-scale verification enumerates every frame up to a size cap (2 + 16 +
512 = 530 frames for sizes 1..3) and, per frame, every valuation of the
symbols that occur in the formula under test.  ``frame_agreement`` runs
that check for an input and its pure outputs side by side.
"""

from __future__ import annotations

import itertools
import os
import random
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

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
    QuasiInequality,
    Svar,
    Symbol,
    Top,
    sorted_symbols,
)


class UnboundSymbolError(Exception):
    def __init__(self, sym: Symbol):
        self.sym = sym
        super().__init__(f"symbol {sym} has no value in the model/assignment")


class EnumerationCapError(Exception):
    """A brute-force enumeration would exceed the configured resource cap."""


@dataclass(frozen=True)
class EnumerationLimits:
    max_worlds: int = 3
    max_props: int = 3
    max_nominals: int = 4
    max_count: int = 5_000_000

    @classmethod
    def from_env(cls) -> EnumerationLimits:
        return cls(
            max_worlds=int(os.environ.get("HYBRIDCORR_MAX_WORLDS", 3)),
            max_props=int(os.environ.get("HYBRIDCORR_MAX_PROPS", 3)),
            max_nominals=int(os.environ.get("HYBRIDCORR_MAX_NOMINALS", 4)),
            max_count=int(os.environ.get("HYBRIDCORR_MAX_ENUM", 5_000_000)),
        )


DEFAULT_LIMITS = EnumerationLimits()


@dataclass(frozen=True)
class KripkeFrame:
    """Worlds 0..size-1 with an accessibility relation."""

    size: int
    relation: frozenset[tuple[int, int]]
    # premasks[v] is the bitmask of the worlds w with w R v.
    premasks: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("a frame needs at least one world")
        masks = [0] * self.size
        for (a, b) in self.relation:
            if not (0 <= a < self.size and 0 <= b < self.size):
                raise ValueError(f"edge ({a},{b}) outside worlds 0..{self.size - 1}")
            masks[b] |= 1 << a
        object.__setattr__(self, "premasks", tuple(masks))

    def successors(self, w: int) -> Iterator[int]:
        return (v for (u, v) in self.relation if u == w)

    def __str__(self) -> str:
        edges = ",".join(f"({a},{b})" for (a, b) in sorted(self.relation))
        return f"worlds={self.size}; rel={{{edges}}}"


@dataclass(frozen=True, eq=False)
class KripkeModel:
    frame: KripkeFrame
    prop_val: Mapping[Symbol, frozenset[int]]
    nom_val: Mapping[Symbol, int]

    def __post_init__(self) -> None:
        for sym, worlds in self.prop_val.items():
            if sym.kind is not Kind.PROP:
                raise ValueError(f"{sym} is not a propositional variable")
            if any(not (0 <= w < self.frame.size) for w in worlds):
                raise ValueError(f"valuation of {sym} outside the frame")
        for sym, w in self.nom_val.items():
            if sym.kind is not Kind.NOM:
                raise ValueError(f"{sym} is not a nominal")
            if not (0 <= w < self.frame.size):
                raise ValueError(f"nominal {sym} placed outside the frame")


Assignment = Mapping[Symbol, int]


def eval_at(model: KripkeModel, g: Assignment, w: int, f: Formula) -> bool:
    """The satisfaction relation, clause by clause."""
    if not (0 <= w < model.frame.size):
        raise ValueError(f"world {w} outside the frame")
    match f:
        case Prop(s):
            if s not in model.prop_val:
                raise UnboundSymbolError(s)
            return w in model.prop_val[s]
        case Svar(s):
            if s not in g:
                raise UnboundSymbolError(s)
            return g[s] == w
        case Nom(s):
            if s not in model.nom_val:
                raise UnboundSymbolError(s)
            return model.nom_val[s] == w
        case Bot():
            return False
        case Top():
            return True
        case Not(c):
            return not eval_at(model, g, w, c)
        case Or(a, b):
            return eval_at(model, g, w, a) or eval_at(model, g, w, b)
        case And(a, b):
            return eval_at(model, g, w, a) and eval_at(model, g, w, b)
        case Implies(a, b):
            return (not eval_at(model, g, w, a)) or eval_at(model, g, w, b)
        case Dia(c):
            return any(eval_at(model, g, v, c) for v in model.frame.successors(w))
        case Box(c):
            return all(eval_at(model, g, v, c) for v in model.frame.successors(w))
        case At(t, c):
            if t.kind is Kind.NOM:
                if t not in model.nom_val:
                    raise UnboundSymbolError(t)
                return eval_at(model, g, model.nom_val[t], c)
            if t not in g:
                raise UnboundSymbolError(t)
            return eval_at(model, g, g[t], c)
        case Down(v, c):
            g2 = dict(g)
            g2[v] = w
            return eval_at(model, g2, w, c)
        case _:
            raise TypeError(f"not a formula: {f!r}")


def truth_mask(model: KripkeModel, g: Assignment, f: Formula) -> int:
    """Truth set of f as a bitmask over worlds (bit w set iff f holds at w)."""
    values = {s: sum(1 << w for w in ws) for s, ws in model.prop_val.items()}
    values.update(model.nom_val)
    values.update(g)
    slots = {s: k for k, s in enumerate(values)}
    fn = _compile(f, model.frame, slots, (1 << model.frame.size) - 1)
    return fn(list(values.values()))


def globally_true(model: KripkeModel, g: Assignment, f: Formula) -> bool:
    full = (1 << model.frame.size) - 1
    return truth_mask(model, g, f) == full


def holds_inequality(model: KripkeModel, g: Assignment, ineq: Inequality) -> bool:
    """Truth-set inclusion: wherever lhs holds, rhs holds."""
    return all(
        (not eval_at(model, g, w, ineq.lhs)) or eval_at(model, g, w, ineq.rhs)
        for w in range(model.frame.size)
    )


def holds_quasi(model: KripkeModel, g: Assignment, q: QuasiInequality) -> bool:
    """Material implication over inequality judgments at one shared (V, g)."""
    if all(holds_inequality(model, g, i) for i in q.antecedents):
        return holds_inequality(model, g, q.conclusion)
    return True


# ---------------------------------------------------------------------------
# The compiled evaluator
# ---------------------------------------------------------------------------
#
# The enumeration loops run millions of evaluations, so the formula is
# compiled once per frame into nested closures over a flat environment
# list: props hold truth-set masks, nominals and state variables hold world
# numbers.  ``slots`` maps each free symbol to its index in that list and
# must number them 0..len(slots)-1; a binder takes the next index for the
# extent of its scope.


def _compile(f: Formula, frame: KripkeFrame, slots: dict[Symbol, int], full: int):
    """Closure computing the truth-set bitmask of f from an environment list."""
    pre = frame.premasks
    n = frame.size

    def dia(mask: int) -> int:
        acc = 0
        v = 0
        while mask:
            if mask & 1:
                acc |= pre[v]
            mask >>= 1
            v += 1
        return acc

    def go(h: Formula):
        match h:
            case Prop(s) | Svar(s) | Nom(s):
                if s not in slots:
                    raise UnboundSymbolError(s)
                k = slots[s]
                if isinstance(h, Prop):
                    return lambda env: env[k]
                return lambda env: 1 << env[k]
            case Bot():
                return lambda env: 0
            case Top():
                return lambda env: full
            case Not(c):
                a = go(c)
                return lambda env: full ^ a(env)
            case Or(l, r):
                a, b = go(l), go(r)
                return lambda env: a(env) | b(env)
            case And(l, r):
                a, b = go(l), go(r)
                return lambda env: a(env) & b(env)
            case Implies(l, r):
                a, b = go(l), go(r)
                return lambda env: (full ^ a(env)) | b(env)
            case Dia(c):
                a = go(c)
                return lambda env: dia(a(env))
            case Box(c):
                a = go(c)
                return lambda env: full ^ dia(full ^ a(env))
            case At(t, c):
                if t not in slots:
                    raise UnboundSymbolError(t)
                k = slots[t]
                a = go(c)
                return lambda env: full if (a(env) >> env[k]) & 1 else 0
            case Down(v, c):
                scoped = v not in slots
                if scoped:
                    slots[v] = len(slots)
                k = slots[v]
                a = go(c)
                if scoped:
                    # Outside this binder an occurrence of v is unbound.
                    del slots[v]

                def down(env):
                    saved = env[k] if k < len(env) else None
                    while len(env) <= k:
                        env.append(0)
                    acc = 0
                    for w in range(n):
                        env[k] = w
                        if (a(env) >> w) & 1:
                            acc |= 1 << w
                    if saved is not None:
                        env[k] = saved
                    return acc

                return down
            case _:
                raise TypeError(f"not a formula: {h!r}")

    return go(f)


def _enumeration_count(n: int, n_props: int, n_noms: int, n_svars: int) -> int:
    return (n ** n_noms) * (2 ** (n * n_props)) * (n ** n_svars)


def _check_budget(
    frame: KripkeFrame,
    prop_syms: list[Symbol],
    nom_syms: list[Symbol],
    svar_syms: list[Symbol],
    limits: EnumerationLimits,
) -> None:
    if len(prop_syms) > limits.max_props:
        raise EnumerationCapError(
            f"{len(prop_syms)} propositional variables exceed the cap {limits.max_props}"
        )
    if len(nom_syms) > limits.max_nominals:
        raise EnumerationCapError(
            f"{len(nom_syms)} nominals exceed the cap {limits.max_nominals}"
        )
    count = _enumeration_count(frame.size, len(prop_syms), len(nom_syms), len(svar_syms))
    if count > limits.max_count:
        raise EnumerationCapError(f"enumeration of {count} cases exceeds cap {limits.max_count}")


def frame_valid(
    frame: KripkeFrame,
    f: Formula,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> bool:
    """True iff f holds at every world under every valuation and assignment.

    Only symbols occurring in f are enumerated; absent symbols cannot affect
    the truth value.
    """
    prop_syms, nom_syms, svar_syms = sorted_symbols(f)
    _check_budget(frame, prop_syms, nom_syms, svar_syms, limits)

    n = frame.size
    full = (1 << n) - 1
    slots = {s: k for k, s in enumerate(prop_syms + nom_syms + svar_syms)}
    fn = _compile(f, frame, slots, full)
    env = [0] * len(slots)
    np, nn, ns = len(prop_syms), len(nom_syms), len(svar_syms)
    for nom_worlds in itertools.product(range(n), repeat=nn):
        env[np : np + nn] = nom_worlds
        for prop_masks in itertools.product(range(1 << n), repeat=np):
            env[0:np] = prop_masks
            for svar_worlds in itertools.product(range(n), repeat=ns):
                env[np + nn : np + nn + ns] = svar_worlds
                if fn(env) != full:
                    return False
    return True


def frame_valid_quasi(
    frame: KripkeFrame,
    q: QuasiInequality,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> bool:
    """True iff q holds under every nominal placement (and assignment).

    Requires a pure quasi-inequality; the antecedents and the conclusion are
    judged against one shared valuation and assignment.
    """
    prop_syms, nom_syms, svar_syms = sorted_symbols(q)
    if prop_syms:
        raise ValueError(f"quasi-inequality is not pure: contains {prop_syms}")
    _check_budget(frame, [], nom_syms, svar_syms, limits)

    n = frame.size
    full = (1 << n) - 1
    slots = {s: k for k, s in enumerate(nom_syms + svar_syms)}
    ineqs = [*q.antecedents, q.conclusion]
    compiled = [
        (_compile(i.lhs, frame, slots, full), _compile(i.rhs, frame, slots, full))
        for i in ineqs
    ]
    env = [0] * len(slots)
    nn, ns = len(nom_syms), len(svar_syms)
    for nom_worlds in itertools.product(range(n), repeat=nn):
        env[0:nn] = nom_worlds
        for svar_worlds in itertools.product(range(n), repeat=ns):
            env[nn : nn + ns] = svar_worlds
            ok = True
            for lf, rf in compiled[:-1]:
                if lf(env) & ~rf(env) & full:
                    ok = False
                    break
            if not ok:
                continue
            lf, rf = compiled[-1]
            if lf(env) & ~rf(env) & full:
                return False
    return True


def frame_valid_quasi_set(
    frame: KripkeFrame,
    qs: Iterable[QuasiInequality],
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> bool:
    return all(frame_valid_quasi(frame, q, limits) for q in qs)


def enumerate_frames(
    max_size: int,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> Iterator[KripkeFrame]:
    """Every frame with 1..max_size worlds, in relation-bitmask order.

    Size n contributes 2^(n*n) frames; pair k of the lexicographically
    sorted world-pair list is present iff bit k of the mask is set.
    """
    if max_size > limits.max_worlds:
        raise EnumerationCapError(
            f"max_size {max_size} exceeds the world cap {limits.max_worlds}"
        )
    for n in range(1, max_size + 1):
        pairs = [(a, b) for a in range(n) for b in range(n)]
        for mask in range(1 << (n * n)):
            rel = frozenset(pairs[k] for k in range(len(pairs)) if (mask >> k) & 1)
            yield KripkeFrame(n, rel)


MAX_COUNTEREXAMPLES = 5


@dataclass
class FrameAgreement:
    """Frame validity of an input and of its pure outputs, frame by frame.

    Frames are numbered in enumerate_frames order; the counterexamples
    describe the first MAX_COUNTEREXAMPLES frames where the two differ.
    """

    frames: int
    valid_in: list[int]
    valid_out: list[int]
    counterexamples: list[str]

    @property
    def agreements(self) -> int:
        return self.frames - len(set(self.valid_in) ^ set(self.valid_out))

    @property
    def ok(self) -> bool:
        return self.valid_in == self.valid_out


def frame_agreement(
    formula: Formula | Inequality,
    quasis: Iterable[QuasiInequality],
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> FrameAgreement:
    """Check on every frame up to limits.max_worlds worlds whether the input
    (an inequality is read as its implication) and the conjunction of the
    quasi-inequalities are valid."""
    if isinstance(formula, Inequality):
        formula = Implies(formula.lhs, formula.rhs)
    quasis = tuple(quasis)
    total = 0
    valid_in: list[int] = []
    valid_out: list[int] = []
    counterexamples: list[str] = []
    for idx, fr in enumerate(enumerate_frames(limits.max_worlds, limits)):
        total += 1
        vi = frame_valid(fr, formula, limits)
        vo = frame_valid_quasi_set(fr, quasis, limits)
        if vi:
            valid_in.append(idx)
        if vo:
            valid_out.append(idx)
        if vi != vo and len(counterexamples) < MAX_COUNTEREXAMPLES:
            counterexamples.append(f"{fr}: input={vi} output={vo}")
    return FrameAgreement(total, valid_in, valid_out, counterexamples)


# ---------------------------------------------------------------------------
# Frame-class predicates (used by the corpus and the verification command)
# ---------------------------------------------------------------------------


def is_reflexive(fr: KripkeFrame) -> bool:
    return all((w, w) in fr.relation for w in range(fr.size))


def is_transitive(fr: KripkeFrame) -> bool:
    return all(
        (a, d) in fr.relation
        for (a, b) in fr.relation
        for (c, d) in fr.relation
        if b == c
    )


def is_symmetric(fr: KripkeFrame) -> bool:
    return all((b, a) in fr.relation for (a, b) in fr.relation)


def is_dense(fr: KripkeFrame) -> bool:
    return all(
        any((a, u) in fr.relation and (u, b) in fr.relation for u in range(fr.size))
        for (a, b) in fr.relation
    )


FRAME_CLASSES = {
    "reflexive": is_reflexive,
    "transitive": is_transitive,
    "symmetric": is_symmetric,
    "dense": is_dense,
    "all": lambda fr: True,
    "none": lambda fr: False,
    "singleton": lambda fr: fr.size == 1,
}


# ---------------------------------------------------------------------------
# Random models and the text fixture format
# ---------------------------------------------------------------------------


def random_model(
    rng: random.Random,
    prop_syms: Iterable[Symbol],
    nom_syms: Iterable[Symbol],
    max_worlds: int = 3,
) -> KripkeModel:
    n = rng.randint(1, max_worlds)
    pairs = [(a, b) for a in range(n) for b in range(n)]
    rel = frozenset(p for p in pairs if rng.random() < 0.5)
    frame = KripkeFrame(n, rel)
    pv = {
        s: frozenset(w for w in range(n) if rng.random() < 0.5) for s in prop_syms
    }
    nv = {s: rng.randrange(n) for s in nom_syms}
    return KripkeModel(frame, pv, nv)


_MODEL_ITEM = re.compile(r"^\s*(worlds|rel|'[a-z]\w*|[a-z]\w*)\s*=\s*(.*?)\s*$")


def parse_model(text: str) -> tuple[KripkeModel, dict[Symbol, int]]:
    """Parse the fixture format ``worlds=n; rel={(0,1)}; 'i=0; p={0,2}; x=1``.

    Returns the model and an assignment for any state variables mentioned.
    """
    size: int | None = None
    rel: frozenset[tuple[int, int]] = frozenset()
    pv: dict[Symbol, frozenset[int]] = {}
    nv: dict[Symbol, int] = {}
    g: dict[Symbol, int] = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        m = _MODEL_ITEM.match(part)
        if not m:
            raise ValueError(f"cannot parse model item {part!r}")
        key, value = m.group(1), m.group(2)
        if key == "worlds":
            size = int(value)
        elif key == "rel":
            pairs = re.findall(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)", value)
            rel = frozenset((int(a), int(b)) for a, b in pairs)
        elif key.startswith("'"):
            nv[Symbol(Kind.NOM, key[1:])] = int(value)
        elif value.startswith("{"):
            worlds = frozenset(int(w) for w in re.findall(r"\d+", value))
            pv[Symbol(Kind.PROP, key)] = worlds
        else:
            kind = Kind.SVAR if key[0] in "xyz" else Kind.PROP
            if kind is Kind.SVAR:
                g[Symbol(Kind.SVAR, key)] = int(value)
            else:
                pv[Symbol(Kind.PROP, key)] = frozenset({int(value)})
    if size is None:
        raise ValueError("model text must set worlds=n")
    return KripkeModel(KripkeFrame(size, rel), pv, nv), g


def model_to_json(model: KripkeModel, g: Assignment | None = None) -> dict:
    out = {
        "worlds": model.frame.size,
        "relation": sorted([a, b] for (a, b) in model.frame.relation),
        "nominals": {s.name: w for s, w in sorted(model.nom_val.items(), key=lambda kv: str(kv[0]))},
        "props": {
            s.name: sorted(ws)
            for s, ws in sorted(model.prop_val.items(), key=lambda kv: str(kv[0]))
        },
    }
    if g:
        out["assignment"] = {s.name: w for s, w in sorted(g.items(), key=lambda kv: str(kv[0]))}
    return out
