"""Three-stage rewriting engine computing pure hybrid correspondents.

Stage 1 normalizes the input inequality (distribution over +or / -and,
splitting, monotone/antitone variable elimination) and anchors each part
with two fresh nominals.  Stage 2 decomposes the anchored systems along
their skeletal structure and eliminates every propositional variable with
the two Ackermann rules (minimal/maximal valuations).  Stage 3 assembles
pure quasi-inequalities and names any free state variables with fresh
nominals.

Every rule application is one call of _log_step, which logs a trace step
(consumed and produced inequalities, and a tag naming the schema that
licenses it, validated by the axioms module) and makes its edit.  Each
system carries its trace; replaying it from the initial state reproduces
the final state, the one the system reached.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .classify import (
    DISTRIBUTES,
    JOIN,
    OrderType,
    Pol,
    Polarity,
    find_order_type,
    inequality_facts,
    inequality_props,
    is_definite,
    is_skeletal_sahlqvist,
    polarity,
    signed_facts,
)
from .syntax import (
    BOT,
    NODE_NAMES,
    TOP,
    And,
    At,
    Bot,
    Box,
    CaptureError,
    Dia,
    Down,
    Formula,
    FreshContext,
    Implies,
    Inequality,
    Kind,
    Nom,
    Not,
    Or,
    Prop,
    QuasiInequality,
    Sign,
    Svar,
    Symbol,
    Top,
    all_symbols,
    as_inequality,
    children,
    free_state_vars,
    is_pure,
    props,
    props_in_order,
    quasi_to_json,
    rename_binders,
    replace_state_var,
    signed_children,
    substitute_prop,
    term_formula,
    with_children,
)

# Rule applications one trace may log; more signal a non-terminating strategy.
STEP_BUDGET = 10_000


class EngineInvariantError(Exception):
    """An internal invariant failed: engine bug, never a soft failure."""


class AckermannPolarityError(Exception):
    """The Ackermann side condition is violated for some inequality."""

    def __init__(self, p: Symbol, ineq: Inequality, side: Side):
        self.p = p
        self.ineq = ineq
        self.side = side
        super().__init__(
            f"{side.value}-handed elimination of {p} violates the polarity "
            f"condition in {ineq}"
        )


class Side(enum.Enum):
    RIGHT = "right"
    LEFT = "left"


# ---------------------------------------------------------------------------
# Trace machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    rule: str
    consumed: tuple[Inequality, ...]
    produced: tuple[Inequality, ...]
    justification: str

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "consumed": [str(i) for i in self.consumed],
            "produced": [str(i) for i in self.produced],
            "justification": self.justification,
        }


@dataclass
class AlbaTrace:
    origin: str
    initial: tuple[Inequality, ...]
    steps: list[TraceStep] = field(default_factory=list)
    final: tuple[Inequality, ...] = field(init=False)

    def __post_init__(self):
        self.final = self.initial

    def to_json(self) -> dict:
        return {
            "origin": self.origin,
            "initial": [str(i) for i in self.initial],
            "steps": [s.to_json() for s in self.steps],
            "final": [str(i) for i in self.final],
        }


def apply_step(state: tuple[Inequality, ...], step: TraceStep) -> tuple[Inequality, ...]:
    """Remove the consumed inequalities and splice the produced ones in at
    the position of the first consumed item.  The engine performs exactly
    this edit, so replaying a trace is a fold of apply_step."""
    work = list(state)
    insert_at = len(work)
    for c in step.consumed:
        try:
            k = work.index(c)
        except ValueError:
            raise EngineInvariantError(f"trace step consumes {c} which is not in the state") from None
        del work[k]
        insert_at = min(insert_at, k)
    work[insert_at:insert_at] = step.produced
    return tuple(work)


def replay(trace: AlbaTrace) -> tuple[Inequality, ...]:
    state = trace.initial
    for step in trace.steps:
        state = apply_step(state, step)
    return state


def _log_step(
    trace: AlbaTrace, state: tuple[Inequality, ...], step: TraceStep
) -> tuple[Inequality, ...]:
    """Log step in trace and apply it to state; the result is the trace's
    final state.  Every rule application of the engine is made here."""
    if len(trace.steps) >= STEP_BUDGET:
        raise EngineInvariantError(
            f"step budget of {STEP_BUDGET} rule applications exceeded; "
            "this signals a non-terminating strategy bug"
        )
    trace.steps.append(step)
    trace.final = apply_step(state, step)
    return trace.final


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------


def atom_term(f: Formula) -> Symbol | None:
    """The symbol when f is a bare nominal or state variable, else None."""
    match f:
        case Nom(s) | Svar(s):
            return s
        case _:
            return None


def neg_atom_term(f: Formula) -> Symbol | None:
    match f:
        case Not(Nom(s)) | Not(Svar(s)):
            return s
        case _:
            return None


def has_system_shape(ineq: Inequality) -> bool:
    """The side condition every stage-2 inequality keeps: a nominal or state
    variable on the left, or a negated one on the right."""
    return atom_term(ineq.lhs) is not None or neg_atom_term(ineq.rhs) is not None


def ineq_props(ineq: Inequality) -> frozenset[Symbol]:
    return props(ineq.lhs) | props(ineq.rhs)


def ineq_is_pure(ineq: Inequality) -> bool:
    return is_pure(ineq.lhs) and is_pure(ineq.rhs)


def final_form(ineq: Inequality, eps: OrderType) -> int | None:
    """Classify a substage-1 output among the five guaranteed shapes.

    1: pure with the system shape; 2/3: defining shapes for the indicated
    polarity; 4/5: an atom side against a subtree whose variable occurrences
    all carry the opposite-order-type sign.  None when it fits no shape.
    """
    if not has_system_shape(ineq):
        return None
    if ineq_is_pure(ineq):
        return 1
    lt = atom_term(ineq.lhs)
    rt = neg_atom_term(ineq.rhs)
    # Shapes 4/5: every + leaf of the subtree has polarity d, every - leaf 1.
    if lt is not None:
        match ineq.rhs:
            case Prop(p) if p in eps and eps[p] is Pol.ONE:
                return 2
        facts = signed_facts(ineq.rhs, Sign.PLUS)
        if facts.plus <= eps.partials and facts.minus <= eps.ones:
            return 4
    if rt is not None:
        match ineq.lhs:
            case Prop(p) if p in eps and eps[p] is Pol.PARTIAL:
                return 3
        facts = signed_facts(ineq.lhs, Sign.MINUS)
        if facts.plus <= eps.partials and facts.minus <= eps.ones:
            return 5
    return None


# ---------------------------------------------------------------------------
# System
# ---------------------------------------------------------------------------


@dataclass
class System:
    """One anchored set of inequalities in flight, with its anchors and the
    trace that reached it (a fresh one starting here when none is given)."""

    inequalities: tuple[Inequality, ...]
    conclusion: Inequality
    ctx: FreshContext
    origin: str
    trace: AlbaTrace | None = None

    def __post_init__(self):
        if self.trace is None:
            self.trace = AlbaTrace(self.origin, self.inequalities)


# A stage-1 or substage-1 rewrite found in one inequality: rule name, the
# inequalities that replace it, justification tag.
Rewrite = tuple[str, tuple[Inequality, ...], str]


def _saturate(
    state: tuple[Inequality, ...],
    trace: AlbaTrace,
    find_step: Callable[[Inequality], Rewrite | None],
) -> tuple[Inequality, ...]:
    """Rewrite to fixpoint: scan the state in order, apply the first rewrite
    find_step finds, log it, and scan on from the first inequality it
    produced.  The ones before it were found to have no rewrite and are
    unchanged, so this is the trace of rescanning from the start."""
    k = 0
    while k < len(state):
        ineq = state[k]
        found = find_step(ineq)
        if found is None:
            k += 1
            continue
        rule, produced, just = found
        state = _log_step(trace, state, TraceStep(rule, (ineq,), produced, just))
    return state


# ---------------------------------------------------------------------------
# Stage 1a: distribution
# ---------------------------------------------------------------------------

# Stage 1a pushes every +or and -and (each sign's join, classify.JOIN) up
# through the skeletal node directly above it, so that no critical branch
# passes through a join and every part comes out definite.  There is one
# rewrite per skeletal node but its sign's own join and per child position,
# each an equivalence of axioms.distribution_schemas; its rule name and tag
# are built from the node names.  classify.DISTRIBUTES lists those nodes, and
# each node's signed facts tell whether a redex lies in its tree.


def _root_redex(f: Formula, sign: Sign) -> tuple[str, str, Formula] | None:
    """Distribute the skeletal node f, signed sign, over its first child
    (in children order) that is the join of that child's own sign:
    f[k := a * b] becomes f[k := a] + f[k := b], with + the join of sign.
    Returns the rule name, the justification tag and the rewritten f."""
    name = NODE_NAMES.get(type(f))
    if (sign, name) not in DISTRIBUTES:
        return None
    for k, (c, s) in enumerate(signed_children(f, sign)):
        if type(c) is JOIN[s]:
            kids = list(children(f))
            kids[k] = c.lhs
            left = with_children(f, kids)
            kids[k] = c.rhs
            new = JOIN[sign](left, with_children(f, kids))
            tag = f"{name}-{NODE_NAMES[JOIN[s]]}"
            rule = f"dist-{tag}-{'lr'[k]}" if type(f) in (And, Or) else f"dist-{tag}"
            # The one exception: the schema for @ over -and, and so every
            # trace that cites it, is named "at-and-dist".
            return rule, ("at-and-dist" if tag == "at-and" else tag), new
    return None


def _find_redex(f: Formula, sign: Sign) -> tuple[tuple[int, ...], str, str, Formula]:
    """The leftmost-innermost distribution redex of f, signed sign, whose
    signed facts show that it has one: in the first child whose facts show
    one, else at the root."""
    for k, (c, s) in enumerate(signed_children(f, sign)):
        if signed_facts(c, s).redex:
            path, rule, just, new = _find_redex(c, s)
            return (k, *path), rule, just, new
    rule, just, new = _root_redex(f, sign)
    return (), rule, just, new


def _rewrite_at(f: Formula, path: tuple[int, ...], new: Formula) -> Formula:
    if not path:
        return new
    kids = list(children(f))
    if path[0] >= len(kids):
        raise EngineInvariantError(f"bad rewrite path {path} in {f}")
    kids[path[0]] = _rewrite_at(kids[path[0]], path[1:], new)
    return with_children(f, kids)


def _distribution_step(ineq: Inequality) -> Rewrite | None:
    """The leftmost-innermost redex of +lhs, else of -rhs, rewritten."""
    for side, sign in ((0, Sign.PLUS), (1, Sign.MINUS)):
        f = ineq.lhs if side == 0 else ineq.rhs
        if not signed_facts(f, sign).redex:
            continue
        path, rule, just, new_sub = _find_redex(f, sign)
        new_f = _rewrite_at(f, path, new_sub)
        new_ineq = Inequality(new_f, ineq.rhs) if side == 0 else Inequality(ineq.lhs, new_f)
        return rule, (new_ineq,), just
    return None


# ---------------------------------------------------------------------------
# Stage 1b: splitting, 1c: uniform-variable elimination
# ---------------------------------------------------------------------------


def _split_step(ineq: Inequality) -> Rewrite | None:
    match ineq.lhs:
        case Or(a, b):
            produced = (Inequality(a, ineq.rhs), Inequality(b, ineq.rhs))
            return "split-or-lhs", produced, "cpc-case-split"
    match ineq.rhs:
        case And(a, b):
            produced = (Inequality(ineq.lhs, a), Inequality(ineq.lhs, b))
            return "split-and-rhs", produced, "cpc-conj-intro"
    return None


def _uniform_step(ineq: Inequality) -> Rewrite | None:
    """Drop the first variable whose occurrences across +lhs and -rhs all
    share one sign: all positive substitutes top, all negative bottom."""
    lhs, rhs = inequality_facts(ineq)
    plus = lhs.plus | rhs.plus
    minus = lhs.minus | rhs.minus
    for p in inequality_props(ineq):
        if p not in minus:
            value: Formula = TOP
            rule, just = "eliminate-top", "monotone-substitution"
        elif p not in plus:
            value = BOT
            rule, just = "eliminate-bot", "antitone-substitution"
        else:
            continue
        new_ineq = Inequality(
            substitute_prop(ineq.lhs, p, value),
            substitute_prop(ineq.rhs, p, value),
        )
        return rule, (new_ineq,), just
    return None


def preprocess(
    ineq: Inequality, eps: OrderType | None = None, trace: AlbaTrace | None = None
) -> list[Inequality]:
    """Distribution, splitting, and uniform-variable elimination, in that
    order, each to fixpoint.  With an order type given, every output is
    checked to be definite skeletal Sahlqvist for it."""
    if trace is None:
        trace = AlbaTrace("preprocess", (ineq,))
    state: tuple[Inequality, ...] = (ineq,)
    for find_step in (_distribution_step, _split_step, _uniform_step):
        state = _saturate(state, trace, find_step)
    if eps is not None:
        for out in state:
            if not is_definite(out, eps):
                raise EngineInvariantError(
                    f"preprocessing produced a non-definite part: {out}"
                )
    return list(state)


# ---------------------------------------------------------------------------
# First approximation
# ---------------------------------------------------------------------------


def first_approximation(ineq: Inequality, ctx: FreshContext, origin: str = "system0") -> System:
    """Anchor both sides: {i0 <= lhs, rhs <= ~i1} with i0, i1 fresh.  The
    system's trace starts at the inequality."""
    i0 = ctx.fresh(Kind.NOM)
    i1 = ctx.fresh(Kind.NOM)
    left = Inequality(Nom(i0), ineq.lhs)
    right = Inequality(ineq.rhs, Not(Nom(i1)))
    conclusion = Inequality(Nom(i0), Not(Nom(i1)))
    trace = AlbaTrace(origin, (ineq,))
    step = TraceStep("first-approx", (ineq,), (left, right), "anchor-nominals")
    return System(_log_step(trace, trace.initial, step), conclusion, ctx, origin, trace)


# ---------------------------------------------------------------------------
# Stage 2, substage 1: decomposing the skeletal branch
# ---------------------------------------------------------------------------


def _match_decomposition(
    ineq: Inequality, ctx: FreshContext
) -> tuple[str, str, tuple[Inequality, ...], tuple[Symbol, ...]] | None:
    """One decomposition step, or None when the inequality is final.

    Returns (rule, justification, produced, fresh symbols introduced).
    Splitting, the satisfaction-operator rules, the binder rules, and the
    negation residuations fire whenever they match (each strictly shrinks
    the inequality).  The witness-introducing rules for the diamond, box,
    and implication fire only while a propositional variable remains: on
    variable-free material they would mint witnesses forever, and a pure
    inequality is already an admissible output shape.
    """
    impure = not ineq_is_pure(ineq)
    lt = atom_term(ineq.lhs)
    if lt is not None:
        lhs = ineq.lhs
        match ineq.rhs:
            case And(b, c):
                return (
                    "split-conj",
                    "at-conjunction",
                    (Inequality(lhs, b), Inequality(lhs, c)),
                    (),
                )
            case Dia(a) if impure:
                j = ctx.fresh(Kind.NOM)
                return (
                    "approx-dia",
                    "dia-witness",
                    (Inequality(Nom(j), a), Inequality(lhs, Dia(Nom(j)))),
                    (j,),
                )
            case At(t, a):
                return (
                    "approx-at",
                    "at-agree",
                    (Inequality(term_formula(t), a),),
                    (),
                )
            case Down(v, a):
                a = rename_binders(a, lt, lambda: ctx.fresh(Kind.SVAR))
                return (
                    "approx-down",
                    "down-at",
                    (Inequality(lhs, replace_state_var(a, v, lt)),),
                    (),
                )
            case Not(a) if atom_term(a) is None:
                return (
                    "resid-not-rhs",
                    "at-selfdual",
                    (Inequality(a, Not(lhs)),),
                    (),
                )
    rt = neg_atom_term(ineq.rhs)
    if rt is not None:
        rhs = ineq.rhs
        match ineq.lhs:
            case Or(a, b):
                return (
                    "split-disj",
                    "at-disjunction",
                    (Inequality(a, rhs), Inequality(b, rhs)),
                    (),
                )
            case Box(a) if impure:
                j = ctx.fresh(Kind.NOM)
                return (
                    "approx-box",
                    "box-witness",
                    (Inequality(a, Not(Nom(j))), Inequality(Box(Not(Nom(j))), rhs)),
                    (j,),
                )
            case At(t, a):
                return (
                    "approx-at",
                    "at-agree",
                    (Inequality(a, Not(term_formula(t))),),
                    (),
                )
            case Down(v, a):
                a = rename_binders(a, rt, lambda: ctx.fresh(Kind.SVAR))
                return (
                    "approx-down",
                    "down-at",
                    (Inequality(replace_state_var(a, v, rt), rhs),),
                    (),
                )
            case Not(a):
                return (
                    "resid-not-lhs",
                    "at-selfdual",
                    (Inequality(term_formula(rt), a),),
                    (),
                )
            case Implies(a, b) if impure:
                j = ctx.fresh(Kind.NOM)
                k = ctx.fresh(Kind.NOM)
                return (
                    "approx-implies",
                    "implies-witness",
                    (
                        Inequality(Nom(j), a),
                        Inequality(b, Not(Nom(k))),
                        Inequality(Implies(Nom(j), Not(Nom(k))), rhs),
                    ),
                    (j, k),
                )
    return None


def _assert_shapes(ineqs: Iterable[Inequality], where: str) -> None:
    for ineq in ineqs:
        if not has_system_shape(ineq):
            raise EngineInvariantError(
                f"{where}: inequality {ineq} lost the system shape "
                "(no atom on the left, no negated atom on the right)"
            )


def _ineq_symbols(ineq: Inequality) -> frozenset[Symbol]:
    return all_symbols(ineq.lhs) | all_symbols(ineq.rhs)


def reduce_substage1(system: System, eps: OrderType | None = None) -> System:
    """Decompose to saturation with _saturate: the inequalities in order,
    each produced one at once (innermost first).

    Freshly introduced nominals are checked against every symbol the system
    has held so far; shapes are checked on the input and on what each step
    produces.  A substitution that would capture a state variable raises
    _Stuck, as in the Ackermann loop.
    """
    seen: set[Symbol] = set().union(*map(_ineq_symbols, system.inequalities))
    _assert_shapes(system.inequalities, "substage-1 input")

    def find_step(ineq: Inequality) -> Rewrite | None:
        found = _match_decomposition(ineq, system.ctx)
        if found is None:
            return None
        rule, just, produced, fresh_syms = found
        for s in fresh_syms:
            if s in seen:
                raise EngineInvariantError(
                    f"approximation reused nominal {s} already in the system"
                )
        _assert_shapes(produced, f"substage-1 {rule}")
        seen.update(*map(_ineq_symbols, produced))
        return rule, produced, just

    try:
        state = _saturate(system.inequalities, system.trace, find_step)
    except CaptureError as e:
        state = system.trace.final
        stuck = System(state, system.conclusion, system.ctx, system.origin, system.trace)
        raise _Stuck(stuck, props_in_order(*state), f"unsafe substitution: {e}") from e
    result = System(state, system.conclusion, system.ctx, system.origin, system.trace)
    if eps is not None:
        for ineq in result.inequalities:
            if final_form(ineq, eps) is None:
                raise EngineInvariantError(
                    f"substage-1 output {ineq} fits none of the guaranteed shapes"
                )
    return result


# ---------------------------------------------------------------------------
# Stage 2, substage 2: the Ackermann rules
# ---------------------------------------------------------------------------


def _is_right_def(ineq: Inequality, p: Symbol) -> bool:
    return atom_term(ineq.lhs) is not None and ineq.rhs == Prop(p)


def _is_left_def(ineq: Inequality, p: Symbol) -> bool:
    return ineq.lhs == Prop(p) and neg_atom_term(ineq.rhs) is not None


def _check_side_condition(ineq: Inequality, p: Symbol, side: Side) -> None:
    """For elimination by minimal valuation: any p left of a negated atom
    must be positive, any p right of an atom negative; dually for maximal."""
    lt = atom_term(ineq.lhs)
    if lt is not None:
        pol = polarity(ineq.rhs, p)
        want = Polarity.NEGATIVE if side is Side.RIGHT else Polarity.POSITIVE
        if pol not in (want, Polarity.ABSENT):
            raise AckermannPolarityError(p, ineq, side)
        return
    if neg_atom_term(ineq.rhs) is not None:
        pol = polarity(ineq.lhs, p)
        want = Polarity.POSITIVE if side is Side.RIGHT else Polarity.NEGATIVE
        if pol not in (want, Polarity.ABSENT):
            raise AckermannPolarityError(p, ineq, side)
        return
    raise EngineInvariantError(f"inequality {ineq} lost the system shape")


def fold_and(terms: list[Formula]) -> Formula:
    """Left fold of the terms with And; top when there are none."""
    return functools.reduce(And, terms) if terms else TOP


def ackermann(system: System, p: Symbol, side: Side) -> System:
    """Eliminate p from the whole system.

    Right-handed: the inequalities atom <= p define the minimal valuation
    (the disjunction of their atoms, bottom when there are none), which is
    substituted for p everywhere else.  Left-handed dually with the maximal
    valuation (conjunction of negated atoms, top when none).
    """
    if side is Side.RIGHT:
        defs = [i for i in system.inequalities if _is_right_def(i, p)]
        atoms = [term_formula(atom_term(d.lhs)) for d in defs]
        value = functools.reduce(Or, atoms) if atoms else BOT
        rule, just = f"ackermann-right({p})", "nominal-join"
    else:
        defs = [i for i in system.inequalities if _is_left_def(i, p)]
        value = fold_and([Not(term_formula(neg_atom_term(d.rhs))) for d in defs])
        rule, just = f"ackermann-left({p})", "nominal-meet"

    consumed: list[Inequality] = []
    produced: list[Inequality] = []
    for ineq in system.inequalities:
        if ineq in defs:
            consumed.append(ineq)
            continue
        if p not in ineq_props(ineq):
            continue
        _check_side_condition(ineq, p, side)
        consumed.append(ineq)
        produced.append(
            Inequality(
                substitute_prop(ineq.lhs, p, value),
                substitute_prop(ineq.rhs, p, value),
            )
        )
    step = TraceStep(rule, tuple(consumed), tuple(produced), just)
    state = _log_step(system.trace, system.inequalities, step)
    result = System(state, system.conclusion, system.ctx, system.origin, system.trace)
    _assert_shapes(result.inequalities, rule)
    if p in {q for i in result.inequalities for q in ineq_props(i)}:
        raise EngineInvariantError(f"{p} survived its own elimination")
    return result


class _Stuck(Exception):
    def __init__(
        self,
        system: System,
        unresolved: list[Symbol],
        reason: str = "propositional variables cannot be eliminated",
    ):
        self.system = system
        self.unresolved = unresolved
        self.reason = reason


def _ackermann_loop(system: System, eps: OrderType | None) -> System:
    """Eliminate every propositional variable, first-occurrence order.

    A variable that cannot be eliminated, because both sides violate
    polarity or a substitution would capture a state variable, raises
    _Stuck with the system as it stood.
    """
    while remaining := props_in_order(*system.inequalities):
        p = remaining[0]
        try:
            if eps is not None and p in eps:
                side = Side.RIGHT if eps[p] is Pol.ONE else Side.LEFT
                system = ackermann(system, p, side)
                continue
            # No order type: try the side whose defining shape is present,
            # then the other.
            sides = [Side.RIGHT, Side.LEFT]
            if not any(_is_right_def(i, p) for i in system.inequalities) and any(
                _is_left_def(i, p) for i in system.inequalities
            ):
                sides = [Side.LEFT, Side.RIGHT]
            last_error: Exception | None = None
            for side in sides:
                try:
                    system = ackermann(system, p, side)
                    break
                except AckermannPolarityError as e:
                    last_error = e
            else:
                raise _Stuck(system, remaining) from last_error
        except CaptureError as e:
            raise _Stuck(system, remaining, f"unsafe substitution: {e}") from e
    return system


# ---------------------------------------------------------------------------
# Stage 3: output
# ---------------------------------------------------------------------------


def finalize(system: System) -> QuasiInequality:
    """Assemble the pure quasi-inequality and name free state variables."""
    for ineq in system.inequalities:
        if ineq_props(ineq):
            raise EngineInvariantError(
                f"a propositional variable survived into stage 3: {ineq}"
            )
    state = system.inequalities
    free: list[Symbol] = []
    for ineq in state:
        for s in sorted(free_state_vars(ineq.lhs) | free_state_vars(ineq.rhs), key=str):
            if s not in free:
                free.append(s)
    for x in free:
        j = system.ctx.fresh(Kind.NOM)
        consumed = tuple(
            i for i in state if x in free_state_vars(i.lhs) | free_state_vars(i.rhs)
        )
        produced = tuple(
            Inequality(replace_state_var(i.lhs, x, j), replace_state_var(i.rhs, x, j))
            for i in consumed
        )
        step = TraceStep(f"name-svar({x})", consumed, produced, "svar-naming")
        state = _log_step(system.trace, state, step)
    quasi = QuasiInequality(state, system.conclusion)
    for ineq in (*quasi.antecedents, quasi.conclusion):
        if not (ineq_is_pure(ineq) and not free_state_vars(ineq.lhs) and not free_state_vars(ineq.rhs)):
            raise EngineInvariantError(f"stage-3 output is not a pure sentence: {ineq}")
    return quasi


# ---------------------------------------------------------------------------
# Simplification (off by default; applied only to final outputs)
# ---------------------------------------------------------------------------


def simplify_formula(f: Formula) -> Formula:
    """Constant folding for top/bottom; keeps outputs otherwise untouched.
    The children are folded first, then the node by the first rule that
    matches it."""
    f = with_children(f, [simplify_formula(c) for c in children(f)])
    match f:
        case And(Top(), c) | And(c, Top()) | Or(Bot(), c) | Or(c, Bot()) | Implies(Top(), c):
            return c
        case At(_, (Top() | Bot()) as c) | Down(_, (Top() | Bot()) as c):
            return c
        case Not(Top()) | And(Bot(), _) | And(_, Bot()) | Dia(Bot()):
            return BOT
        case Not(Bot()) | Or(Top(), _) | Or(_, Top()) | Implies(Bot(), _) | Implies(_, Top()):
            return TOP
        case Box(Top()):
            return TOP
    return f


def simplify_quasi(q: QuasiInequality) -> QuasiInequality:
    return QuasiInequality(
        tuple(
            Inequality(simplify_formula(i.lhs), simplify_formula(i.rhs))
            for i in q.antecedents
        ),
        q.conclusion,
    )


# ---------------------------------------------------------------------------
# The whole pipeline
# ---------------------------------------------------------------------------


@dataclass
class Success:
    eps: OrderType | None
    quasis: tuple[QuasiInequality, ...]
    preprocessed: tuple[Inequality, ...]
    traces: tuple[AlbaTrace, ...]

    ok = True

    def to_json(self, include_trace: bool = False) -> dict:
        out = {
            "status": "success",
            "order_type": self.eps.to_json() if self.eps is not None else None,
            "pure": [{"text": str(q), "ast": quasi_to_json(q)} for q in self.quasis],
        }
        if include_trace:
            out["trace"] = [t.to_json() for t in self.traces]
        return out


@dataclass
class Failure:
    eps: OrderType | None
    stuck_system: System | None
    unresolved_props: tuple[Symbol, ...]
    traces: tuple[AlbaTrace, ...]
    reason: str = "stuck"

    ok = False

    def to_json(self, include_trace: bool = False) -> dict:
        out = {
            "status": "failure",
            "order_type": self.eps.to_json() if self.eps is not None else None,
            "reason": self.reason,
            "unresolved": [str(p) for p in self.unresolved_props],
            "stuck_system": [str(i) for i in self.stuck_system.inequalities]
            if self.stuck_system is not None
            else [],
        }
        if include_trace:
            out["trace"] = [t.to_json() for t in self.traces]
        return out


AlbaResult = Success | Failure


def run(
    input_formula: Formula | Inequality,
    eps_hint: OrderType | None = None,
    simplify: bool = False,
) -> AlbaResult:
    """Classify, preprocess, anchor, reduce, eliminate, output.

    With no usable order type the engine still runs, choosing Ackermann
    sides by the defining shapes present; inputs outside the guaranteed
    class may then end in a Failure value (never an exception).
    """
    ineq = as_inequality(input_formula)
    if eps_hint is not None:
        for p in inequality_props(ineq):
            if p not in eps_hint:
                raise ValueError(f"order-type hint misses variable {p}")
        if not is_skeletal_sahlqvist(ineq, eps_hint):
            raise ValueError(f"order-type hint {eps_hint} does not classify {ineq}")
        eps = eps_hint
    else:
        eps = find_order_type(ineq)

    pre_trace = AlbaTrace("preprocess", (ineq,))
    parts = preprocess(ineq, eps, pre_trace)
    traces: list[AlbaTrace] = [pre_trace]

    systems: list[System] = []
    for k, part in enumerate(parts):
        ctx = FreshContext.from_formulas(part.lhs, part.rhs)
        system = first_approximation(part, ctx, f"system{k}")
        traces.append(system.trace)
        try:
            system = reduce_substage1(system, eps)
            systems.append(_ackermann_loop(system, eps))
        except _Stuck as stuck:
            return Failure(
                eps, stuck.system, tuple(stuck.unresolved), tuple(traces), stuck.reason
            )

    quasis = [finalize(system) for system in systems]
    if simplify:
        quasis = [simplify_quasi(q) for q in quasis]
    return Success(eps, tuple(quasis), tuple(parts), tuple(traces))
