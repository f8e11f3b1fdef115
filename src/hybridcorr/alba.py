"""Three-stage rewriting engine computing pure hybrid correspondents.

Stage 1 normalizes the input inequality (distribution over +or / -and,
splitting, monotone/antitone variable elimination) and anchors each part
with two fresh nominals.  Stage 2 decomposes the anchored systems along
their skeletal structure and eliminates every propositional variable with
the two Ackermann rules (minimal/maximal valuations).  Stage 3 assembles
pure quasi-inequalities and names any free state variables with fresh
nominals.

Every rule application is logged as a trace step carrying the consumed and
produced inequalities plus a justification tag naming the schema that
licenses it (the schemas themselves are validated semantically by the
axioms module).  Traces replay: applying the recorded edits to the initial
state reproduces the final state exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from .classify import (
    OrderType,
    Pol,
    Sign,
    find_order_type,
    inequality_props,
    is_definite,
    is_skeletal_sahlqvist,
    signed_tree,
    tree_agrees_with,
)
from .syntax import (
    BOT,
    TOP,
    And,
    At,
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
    Polarity,
    Prop,
    QuasiInequality,
    Svar,
    Symbol,
    all_symbols,
    as_inequality,
    children,
    free_state_vars,
    is_pure,
    occurrence_signs,
    polarity,
    props,
    props_in_order,
    quasi_to_json,
    replace_state_var,
    substitute_prop,
)

DEFAULT_STEP_BUDGET = 10_000


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
    final: tuple[Inequality, ...] = ()

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
    indices: list[int] = []
    for c in step.consumed:
        for k, item in enumerate(work):
            if item == c and k not in indices:
                indices.append(k)
                break
        else:
            raise EngineInvariantError(f"trace step consumes {c} which is not in the state")
    insert_at = min(indices) if indices else len(work)
    for k in sorted(indices, reverse=True):
        del work[k]
    work[insert_at:insert_at] = list(step.produced)
    return tuple(work)


def replay(trace: AlbaTrace) -> tuple[Inequality, ...]:
    state = trace.initial
    for step in trace.steps:
        state = apply_step(state, step)
    return state


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


def term_formula(t: Symbol) -> Formula:
    return Nom(t) if t.kind is Kind.NOM else Svar(t)


def has_system_shape(ineq: Inequality) -> bool:
    """The side condition every stage-2 inequality keeps: a nominal or state
    variable on the left, or a negated one on the right."""
    return atom_term(ineq.lhs) is not None or neg_atom_term(ineq.rhs) is not None


def ineq_props(ineq: Inequality) -> set[Symbol]:
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
    opp = eps.opposite()
    if lt is not None:
        match ineq.rhs:
            case Prop(p) if p in eps and eps[p] is Pol.ONE:
                return 2
        if tree_agrees_with(signed_tree(ineq.rhs, Sign.PLUS), opp):
            return 4
    if rt is not None:
        match ineq.lhs:
            case Prop(p) if p in eps and eps[p] is Pol.PARTIAL:
                return 3
        if tree_agrees_with(signed_tree(ineq.lhs, Sign.MINUS), opp):
            return 5
    return None


# ---------------------------------------------------------------------------
# System
# ---------------------------------------------------------------------------


@dataclass
class System:
    """One anchored set of inequalities in flight, with its anchors."""

    inequalities: tuple[Inequality, ...]
    conclusion: Inequality
    ctx: FreshContext
    origin: str


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def tick(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise EngineInvariantError(
                f"step budget of {self.limit} rule applications exceeded; "
                "this signals a non-terminating strategy bug"
            )


# A stage-1 rewrite found in one inequality: rule name, the inequalities
# that replace it, justification tag.
Rewrite = tuple[str, tuple[Inequality, ...], str]


def _saturate(
    state: tuple[Inequality, ...],
    trace: AlbaTrace,
    budget: _Budget,
    find_step: Callable[[Inequality], Rewrite | None],
) -> tuple[Inequality, ...]:
    """Rewrite to fixpoint: scan the state in order, apply the first rewrite
    find_step finds, log it, and scan again from the start."""
    while True:
        for ineq in state:
            found = find_step(ineq)
            if found is not None:
                break
        else:
            return state
        rule, produced, just = found
        budget.tick()
        step = TraceStep(rule, (ineq,), produced, just)
        trace.steps.append(step)
        state = apply_step(state, step)


# ---------------------------------------------------------------------------
# Stage 1a: distribution
# ---------------------------------------------------------------------------

# Each entry: rule name, justification tag.  The rewrites push the listed
# signed connectives over +or (first group) and -and (second group).


def _root_redex(f: Formula, sign: Sign) -> tuple[str, str, Formula] | None:
    plus, minus = Sign.PLUS, Sign.MINUS
    match (sign, f):
        case (s, Dia(Or(a, b))) if s is plus:
            return "dist-dia-or", "dia-or", Or(Dia(a), Dia(b))
        case (s, Down(v, Or(a, b))) if s is plus:
            return "dist-down-or", "down-or", Or(Down(v, a), Down(v, b))
        case (s, At(t, Or(a, b))) if s is plus:
            return "dist-at-or", "at-or", Or(At(t, a), At(t, b))
        case (s, Not(Or(a, b))) if s is minus:
            return "dist-not-or", "not-or", And(Not(a), Not(b))
        case (s, And(Or(a, b), c)) if s is plus:
            return "dist-and-or-l", "and-or", Or(And(a, c), And(b, c))
        case (s, And(a, Or(b, c))) if s is plus:
            return "dist-and-or-r", "and-or", Or(And(a, b), And(a, c))
        case (s, Implies(Or(a, b), c)) if s is minus:
            return "dist-implies-or", "implies-or", And(Implies(a, c), Implies(b, c))
        case (s, Box(And(a, b))) if s is minus:
            return "dist-box-and", "box-and", And(Box(a), Box(b))
        case (s, Down(v, And(a, b))) if s is minus:
            return "dist-down-and", "down-and", And(Down(v, a), Down(v, b))
        case (s, At(t, And(a, b))) if s is minus:
            return "dist-at-and", "at-and-dist", And(At(t, a), At(t, b))
        case (s, Not(And(a, b))) if s is plus:
            return "dist-not-and", "not-and", Or(Not(a), Not(b))
        case (s, Or(And(a, b), c)) if s is minus:
            return "dist-or-and-l", "or-and", And(Or(a, c), Or(b, c))
        case (s, Or(a, And(b, c))) if s is minus:
            return "dist-or-and-r", "or-and", And(Or(a, b), Or(a, c))
        case (s, Implies(a, And(b, c))) if s is minus:
            return "dist-implies-and", "implies-and", And(Implies(a, b), Implies(a, c))
    return None


def _child_signs(f: Formula, sign: Sign) -> list[Sign]:
    match f:
        case Not(_):
            return [sign.flip()]
        case Implies(_, _):
            return [sign.flip(), sign]
        case Or(_, _) | And(_, _):
            return [sign, sign]
        case Dia(_) | Box(_) | At(_, _) | Down(_, _):
            return [sign]
        case _:
            return []


def _find_redex(
    f: Formula, sign: Sign
) -> tuple[tuple[int, ...], str, str, Formula] | None:
    """Leftmost-innermost distribution redex: children first, then the root."""
    for k, (c, s) in enumerate(zip(children(f), _child_signs(f, sign))):
        found = _find_redex(c, s)
        if found is not None:
            path, rule, just, new = found
            return (k, *path), rule, just, new
    root = _root_redex(f, sign)
    if root is not None:
        rule, just, new = root
        return (), rule, just, new
    return None


def _rewrite_at(f: Formula, path: tuple[int, ...], new: Formula) -> Formula:
    if not path:
        return new
    k, rest = path[0], path[1:]
    match f:
        case Not(c):
            return Not(_rewrite_at(c, rest, new))
        case Dia(c):
            return Dia(_rewrite_at(c, rest, new))
        case Box(c):
            return Box(_rewrite_at(c, rest, new))
        case At(t, c):
            return At(t, _rewrite_at(c, rest, new))
        case Down(v, c):
            return Down(v, _rewrite_at(c, rest, new))
        case Or(a, b):
            return Or(_rewrite_at(a, rest, new), b) if k == 0 else Or(a, _rewrite_at(b, rest, new))
        case And(a, b):
            return (
                And(_rewrite_at(a, rest, new), b) if k == 0 else And(a, _rewrite_at(b, rest, new))
            )
        case Implies(a, b):
            return (
                Implies(_rewrite_at(a, rest, new), b)
                if k == 0
                else Implies(a, _rewrite_at(b, rest, new))
            )
        case _:
            raise EngineInvariantError(f"bad rewrite path {path} in {f}")


def _distribution_step(ineq: Inequality) -> Rewrite | None:
    """The leftmost-innermost redex of +lhs, else of -rhs, rewritten."""
    for side, sign in ((0, Sign.PLUS), (1, Sign.MINUS)):
        f = ineq.lhs if side == 0 else ineq.rhs
        found = _find_redex(f, sign)
        if found is None:
            continue
        path, rule, just, new_sub = found
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


def _occurrence_sign_set(ineq: Inequality, p: Symbol) -> set[int]:
    return set(occurrence_signs(ineq.lhs, p, +1)) | set(occurrence_signs(ineq.rhs, p, -1))


def _uniform_step(ineq: Inequality) -> Rewrite | None:
    """Drop the first variable whose occurrences across +lhs and -rhs all
    share one sign: all positive substitutes top, all negative bottom."""
    for p in inequality_props(ineq):
        signs = _occurrence_sign_set(ineq, p)
        if signs == {+1}:
            value: Formula = TOP
            rule, just = "eliminate-top", "monotone-substitution"
        elif signs == {-1}:
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
    ineq: Inequality,
    eps: OrderType | None = None,
    budget_limit: int = DEFAULT_STEP_BUDGET,
    trace: AlbaTrace | None = None,
) -> list[Inequality]:
    """Distribution, splitting, and uniform-variable elimination, in that
    order, each to fixpoint.  With an order type given, every output is
    checked to be definite skeletal Sahlqvist for it."""
    if trace is None:
        trace = AlbaTrace("preprocess", (ineq,))
    budget = _Budget(budget_limit)
    state: tuple[Inequality, ...] = (ineq,)
    for find_step in (_distribution_step, _split_step, _uniform_step):
        state = _saturate(state, trace, budget, find_step)
    trace.final = state
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


def first_approximation(
    ineq: Inequality, ctx: FreshContext, origin: str = "system0", trace: AlbaTrace | None = None
) -> System:
    """Anchor both sides: {i0 <= lhs, rhs <= ~i1} with i0, i1 fresh."""
    i0 = ctx.fresh(Kind.NOM)
    i1 = ctx.fresh(Kind.NOM)
    left = Inequality(Nom(i0), ineq.lhs)
    right = Inequality(ineq.rhs, Not(Nom(i1)))
    conclusion = Inequality(Nom(i0), Not(Nom(i1)))
    if trace is not None:
        trace.steps.append(
            TraceStep("first-approx", (ineq,), (left, right), "anchor-nominals")
        )
    return System((left, right), conclusion, ctx, origin)


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


def _assert_shapes(system: System, where: str) -> None:
    for ineq in system.inequalities:
        if not has_system_shape(ineq):
            raise EngineInvariantError(
                f"{where}: inequality {ineq} lost the system shape "
                "(no atom on the left, no negated atom on the right)"
            )


def reduce_substage1(
    system: System,
    eps: OrderType | None = None,
    budget_limit: int = DEFAULT_STEP_BUDGET,
    trace: AlbaTrace | None = None,
) -> System:
    """Decompose to saturation, processing inequalities first-in-first-out
    and each produced inequality immediately (innermost first).  Freshly
    introduced nominals are checked against the current system; shapes are
    checked after every step."""
    budget = _Budget(budget_limit)
    queue = list(system.inequalities)
    done: list[Inequality] = []
    state = system.inequalities
    while queue:
        ineq = queue.pop(0)
        found = _match_decomposition(ineq, system.ctx)
        if found is None:
            done.append(ineq)
            continue
        rule, just, produced, fresh_syms = found
        system_syms = {s for i in (*queue, *done, ineq) for s in all_symbols(i.lhs) | all_symbols(i.rhs)}
        for s in fresh_syms:
            if s in system_syms:
                raise EngineInvariantError(
                    f"approximation reused nominal {s} already in the system"
                )
        budget.tick()
        step = TraceStep(rule, (ineq,), produced, just)
        if trace is not None:
            trace.steps.append(step)
        state = apply_step(state, step)
        queue[0:0] = list(produced)
        current = System(state, system.conclusion, system.ctx, system.origin)
        _assert_shapes(current, f"substage-1 {rule}")
    result = System(state, system.conclusion, system.ctx, system.origin)
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


def _fold_or(terms: list[Formula]) -> Formula:
    if not terms:
        return BOT
    acc = terms[0]
    for t in terms[1:]:
        acc = Or(acc, t)
    return acc


def fold_and(terms: list[Formula]) -> Formula:
    """Left fold of the terms with And; top when there are none."""
    if not terms:
        return TOP
    acc = terms[0]
    for t in terms[1:]:
        acc = And(acc, t)
    return acc


def ackermann(
    system: System,
    p: Symbol,
    side: Side,
    trace: AlbaTrace | None = None,
) -> System:
    """Eliminate p from the whole system.

    Right-handed: the inequalities atom <= p define the minimal valuation
    (the disjunction of their atoms, bottom when there are none), which is
    substituted for p everywhere else.  Left-handed dually with the maximal
    valuation (conjunction of negated atoms, top when none).
    """
    if side is Side.RIGHT:
        defs = [i for i in system.inequalities if _is_right_def(i, p)]
        value = _fold_or([term_formula(atom_term(d.lhs)) for d in defs])
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
    if trace is not None:
        trace.steps.append(step)
    state = apply_step(system.inequalities, step)
    result = System(state, system.conclusion, system.ctx, system.origin)
    _assert_shapes(result, rule)
    if p in {q for i in result.inequalities for q in ineq_props(i)}:
        raise EngineInvariantError(f"{p} survived its own elimination")
    return result


class _Stuck(Exception):
    def __init__(self, system: System, unresolved: list[Symbol]):
        self.system = system
        self.unresolved = unresolved


def _ackermann_loop(
    system: System,
    eps: OrderType | None,
    trace: AlbaTrace | None,
) -> System:
    """Eliminate every propositional variable, first-occurrence order."""
    while True:
        remaining = props_in_order(*system.inequalities)
        if not remaining:
            return system
        p = remaining[0]
        if eps is not None and p in eps:
            side = Side.RIGHT if eps[p] is Pol.ONE else Side.LEFT
            system = ackermann(system, p, side, trace)
            continue
        # No order type: try the side whose defining shape is present, then
        # the other; report the system stuck when both violate polarity.
        sides = [Side.RIGHT, Side.LEFT]
        if not any(_is_right_def(i, p) for i in system.inequalities) and any(
            _is_left_def(i, p) for i in system.inequalities
        ):
            sides = [Side.LEFT, Side.RIGHT]
        last_error: Exception | None = None
        for side in sides:
            try:
                system = ackermann(system, p, side, trace)
                break
            except AckermannPolarityError as e:
                last_error = e
        else:
            raise _Stuck(system, remaining) from last_error


# ---------------------------------------------------------------------------
# Stage 3: output
# ---------------------------------------------------------------------------


def finalize(system: System, trace: AlbaTrace | None = None) -> QuasiInequality:
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
        if trace is not None:
            trace.steps.append(step)
        state = apply_step(state, step)
    quasi = QuasiInequality(state, system.conclusion)
    for ineq in (*quasi.antecedents, quasi.conclusion):
        if not (ineq_is_pure(ineq) and not free_state_vars(ineq.lhs) and not free_state_vars(ineq.rhs)):
            raise EngineInvariantError(f"stage-3 output is not a pure sentence: {ineq}")
    return quasi


# ---------------------------------------------------------------------------
# Simplification (off by default; applied only to final outputs)
# ---------------------------------------------------------------------------


def simplify_formula(f: Formula) -> Formula:
    """Constant folding for top/bottom; keeps outputs otherwise untouched."""
    match f:
        case Not(c):
            c = simplify_formula(c)
            if c == TOP:
                return BOT
            if c == BOT:
                return TOP
            return Not(c)
        case And(a, b):
            a, b = simplify_formula(a), simplify_formula(b)
            if a == TOP:
                return b
            if b == TOP:
                return a
            if a == BOT or b == BOT:
                return BOT
            return And(a, b)
        case Or(a, b):
            a, b = simplify_formula(a), simplify_formula(b)
            if a == BOT:
                return b
            if b == BOT:
                return a
            if a == TOP or b == TOP:
                return TOP
            return Or(a, b)
        case Implies(a, b):
            a, b = simplify_formula(a), simplify_formula(b)
            if a == TOP:
                return b
            if a == BOT or b == TOP:
                return TOP
            return Implies(a, b)
        case Dia(c):
            c = simplify_formula(c)
            if c == BOT:
                return BOT
            return Dia(c)
        case Box(c):
            c = simplify_formula(c)
            if c == TOP:
                return TOP
            return Box(c)
        case At(t, c):
            c = simplify_formula(c)
            if c in (TOP, BOT):
                return c
            return At(t, c)
        case Down(v, c):
            c = simplify_formula(c)
            if c in (TOP, BOT):
                return c
            return Down(v, c)
        case _:
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
    budget_limit: int = DEFAULT_STEP_BUDGET,
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
    parts = preprocess(ineq, eps, budget_limit, pre_trace)
    traces: list[AlbaTrace] = [pre_trace]

    systems: list[System] = []
    for k, part in enumerate(parts):
        origin = f"system{k}"
        ctx = FreshContext.from_formulas(part.lhs, part.rhs)
        sys_trace = AlbaTrace(origin, (part,))
        traces.append(sys_trace)
        system = first_approximation(part, ctx, origin, sys_trace)
        system = reduce_substage1(system, eps, budget_limit, sys_trace)
        try:
            system = _ackermann_loop(system, eps, sys_trace)
        except _Stuck as stuck:
            sys_trace.final = stuck.system.inequalities
            return Failure(
                eps,
                stuck.system,
                tuple(stuck.unresolved),
                tuple(traces),
                reason="propositional variables cannot be eliminated",
            )
        except CaptureError as e:
            sys_trace.final = system.inequalities
            return Failure(
                eps,
                system,
                tuple(props_in_order(*system.inequalities)),
                tuple(traces),
                reason=f"unsafe substitution: {e}",
            )
        systems.append(system)

    quasis: list[QuasiInequality] = []
    for system, sys_trace in zip(systems, traces[1:]):
        quasi = finalize(system, sys_trace)
        sys_trace.final = quasi.antecedents
        quasis.append(quasi)
    if simplify:
        quasis = [simplify_quasi(q) for q in quasis]
    return Success(eps, tuple(quasis), tuple(parts), tuple(traces))
