"""Walk oracles for the signed facts each formula node keeps, the
per-model oracle of truth on top of ``eval_at``, and the formula JSON
decoder.

Every question ``classify`` and ``alba`` answer from the signed facts is
answered here by walking the trees instead: the critical branches of the
``SignedTree`` that ``classify.signed_tree`` builds node by node, each a
``Branch.path`` from leaf to root, or the formula itself through
``signed_children``.  None of them reads a node's kept facts.
``globally_true``, ``holds_inequality`` and ``holds_quasi`` decide one
model world by world with ``semantics.eval_at``, the reference oracle, and
never with the sliced evaluator.  ``reference_bodies`` are the sliced
evaluator's per-world bodies as plain loops over the worlds, against which
the bodies ``semantics`` generates for each world count are tested.
``formula_from_json`` decodes what ``syntax.formula_to_json`` wrote, so
that the tests can check the encoding loses nothing; the package itself
reads no formula JSON.  ``rebuilt``
builds a formula afresh, a node that keeps nothing, to compare with one
that keeps its symbols and its validity question.
"""

from __future__ import annotations

import itertools

from hybridcorr.alba import (
    _root_redex,
    atom_term,
    has_system_shape,
    ineq_is_pure,
    neg_atom_term,
)
from hybridcorr.classify import (
    Branch,
    OrderType,
    Pol,
    SignedTree,
    inequality_critical_branches,
    inequality_trees,
    signed_tree,
)
from hybridcorr.semantics import Assignment, KripkeModel, eval_at
from hybridcorr.syntax import (
    BOT,
    NODE_NAMES,
    NODE_TYPES,
    TOP,
    Formula,
    Inequality,
    Kind,
    Prop,
    QuasiInequality,
    Sign,
    Symbol,
    children,
    props_in_order,
    signed_children,
    substitute_prop,
    with_children,
)


def order_type_candidates(variables: list[Symbol]):
    """Every order type on the variables, lexicographically: 1 before d,
    the first variable most significant."""
    for pols in itertools.product((Pol.ONE, Pol.PARTIAL), repeat=len(variables)):
        yield OrderType(tuple(zip(variables, pols)))


def branch_is_skeletal(b: Branch) -> bool:
    """Every node above the leaf is skeletal."""
    return all(n.is_skeletal for n in b.path[1:])


def passes_join(b: Branch) -> bool:
    """Some node above the leaf is the join of its sign: +or or -and."""
    return any(n.label == ("or" if n.sign is Sign.PLUS else "and") for n in b.path[1:])


def is_skeletal(ineq: Inequality, eps: OrderType) -> bool:
    return all(branch_is_skeletal(b) for b in inequality_critical_branches(ineq, eps))


def is_definite(ineq: Inequality, eps: OrderType) -> bool:
    """For an eps-skeletal inequality: no critical branch passes a join."""
    return not any(passes_join(b) for b in inequality_critical_branches(ineq, eps))


def tree_agrees_with(t: SignedTree, eps: OrderType) -> bool:
    """Every prop leaf of the signed subtree t is eps-critical."""
    if t.label == "prop":
        return t.symbol in eps and eps.indicated_sign(t.symbol) is t.sign
    return all(tree_agrees_with(c, eps) for c in t.children)


def is_epsilon_uniform(ineq: Inequality, eps: OrderType) -> bool:
    """Every p occurrence in +lhs and -rhs carries the eps-indicated sign."""
    return all(tree_agrees_with(t, eps) for t in inequality_trees(ineq))


def first_witness(ineq: Inequality) -> OrderType | None:
    """The first order type of the 2^n search that classifies ineq."""
    for eps in order_type_candidates(props_in_order(ineq)):
        if is_skeletal(ineq, eps):
            return eps
    return None


def occurrence_signs(f: Formula, p: Symbol, sign: Sign = Sign.PLUS) -> list[Sign]:
    """Signs of the occurrences of p in the signed tree of f rooted at sign."""
    if isinstance(f, Prop):
        return [sign] if f.sym == p else []
    out: list[Sign] = []
    for c, s in signed_children(f, sign):
        out += occurrence_signs(c, p, s)
    return out


def uniform_step(ineq: Inequality):
    """Stage 1c from the occurrence signs: drop the first variable whose
    occurrences in +lhs and -rhs all share one sign."""
    for p in props_in_order(ineq):
        signs = set(occurrence_signs(ineq.lhs, p, Sign.PLUS)) | set(
            occurrence_signs(ineq.rhs, p, Sign.MINUS)
        )
        if signs == {Sign.PLUS}:
            value, rule, just = TOP, "eliminate-top", "monotone-substitution"
        elif signs == {Sign.MINUS}:
            value, rule, just = BOT, "eliminate-bot", "antitone-substitution"
        else:
            continue
        new = Inequality(substitute_prop(ineq.lhs, p, value), substitute_prop(ineq.rhs, p, value))
        return rule, (new,), just
    return None


def final_form(ineq: Inequality, eps: OrderType) -> int | None:
    """The final-shape classification with shapes 4/5 decided on the
    signed trees."""
    if not has_system_shape(ineq):
        return None
    if ineq_is_pure(ineq):
        return 1
    opp = eps.opposite()
    if atom_term(ineq.lhs) is not None:
        if isinstance(ineq.rhs, Prop) and ineq.rhs.sym in eps and eps[ineq.rhs.sym] is Pol.ONE:
            return 2
        if tree_agrees_with(signed_tree(ineq.rhs, Sign.PLUS), opp):
            return 4
    if neg_atom_term(ineq.rhs) is not None:
        if isinstance(ineq.lhs, Prop) and ineq.lhs.sym in eps and eps[ineq.lhs.sym] is Pol.PARTIAL:
            return 3
        if tree_agrees_with(signed_tree(ineq.lhs, Sign.MINUS), opp):
            return 5
    return None


def find_redex(f: Formula, sign: Sign):
    """The leftmost-innermost distribution redex, searching every subtree,
    as (rule, justification, f with that redex rewritten); None if f has
    none."""
    for k, (c, s) in enumerate(signed_children(f, sign)):
        found = find_redex(c, s)
        if found is not None:
            rule, just, new = found
            kids = list(children(f))
            kids[k] = new
            return rule, just, with_children(f, kids)
    return _root_redex(f, sign)


def globally_true(model: KripkeModel, g: Assignment, f: Formula) -> bool:
    """Whether f holds at every world, by the reference oracle."""
    return all(eval_at(model, g, w, f) for w in range(model.frame.size))


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


def subformulas(f: Formula):
    """f and every subformula of it, in preorder."""
    yield f
    for c in children(f):
        yield from subformulas(c)


def declared_fields(f: Formula) -> tuple[str, ...]:
    """The field names that f's node type declares, in order."""
    return NODE_TYPES[NODE_NAMES[type(f)]][1]


def rebuilt(f: Formula) -> Formula:
    """f built afresh node by node, so that no node keeps anything."""
    kids = children(f)
    if kids:
        return with_children(f, [rebuilt(c) for c in kids])
    return type(f)(*[getattr(f, name) for name in declared_fields(f)])


def formula_from_json(d: dict) -> Formula:
    """The formula syntax.formula_to_json encoded as d: a symbol field is a
    dict with a "kind", every other field a formula's dict."""
    cls, flds = NODE_TYPES[d["node"]]
    return cls(
        *[
            Symbol(Kind(d[k]["kind"]), d[k]["name"], d[k]["index"])
            if "kind" in d[k]
            else formula_from_json(d[k])
            for k in flds
        ]
    )


def reference_bodies(full, rows, outside) -> dict:
    """The per-world bodies of the sliced evaluator, bound to a block's full
    mask, its edge rows and the masks of the frames that lack each world,
    as loops over the worlds: what semantics' generated bodies of the same
    names do, shortcut for shortcut.  An operand is tested for 0 by value
    and for full by identity (@ by equality, as `in` does), and <> takes
    an edge mask itself where its operand is full."""

    def neg(xs):
        return [0 if x is full else full if not x else full ^ x for x in xs]

    def conj(xs, ys):
        return [
            x if not x or y is full else y if x is full or not y else x & y
            for x, y in zip(xs, ys)
        ]

    def disj(xs, ys):
        return [
            x if x is full or not y else y if y is full or not x else x | y
            for x, y in zip(xs, ys)
        ]

    def implies(xs, ys):
        return [
            full if not x or y is full else y if x is full else (full ^ x) | y if y else full ^ x
            for x, y in zip(xs, ys)
        ]

    def dia(xs):
        out = []
        for row in rows:
            acc = 0
            for e, x in zip(row, xs):
                if not x:
                    continue
                if x is full:
                    acc = acc | e if acc else e
                else:
                    acc |= e & x
            out.append(acc)
        return out

    def box(xs):
        return neg(dia(neg(xs)))

    def at(xs, ys):
        if full in xs:
            return [ys[xs.index(full)]] * len(xs)
        acc = 0
        for x, y in zip(xs, ys):
            acc |= x & y
        return [acc] * len(xs)

    def included(xs, ys):
        m = full
        for x, y, out in zip(xs, ys, outside):
            if not x or y is full:
                continue
            z = y if x is full else (full ^ x) | y
            if out:
                z |= out
            m = z if m is full else m & z
        return m

    def conjoined(xs):
        m = full
        for x, out in zip(xs, outside):
            if out and x is not full:
                x |= out
            if x is not full:
                m = x if m is full else m & x
        return m

    return {
        "neg": neg,
        "conj": conj,
        "disj": disj,
        "implies": implies,
        "dia": dia,
        "box": box,
        "at": at,
        "included": included,
        "conjoined": conjoined,
    }
