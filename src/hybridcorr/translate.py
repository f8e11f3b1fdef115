"""Translation of reduced inequalities and quasi-inequalities back into
formulas of the hybrid language, with model-level equivalence checking.

An inequality with an atom on the left becomes a satisfaction statement
(atom <= g maps to @atom g); one with a negated atom on the right becomes
a negated satisfaction statement (g <= ~atom maps to ~@atom g).  When both
readings apply the left-atom clause wins; the readings are equivalent and
the test suite checks that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .alba import atom_term, neg_atom_term
from .semantics import (
    KripkeModel,
    globally_true,
    holds_inequality,
    holds_quasi,
    random_model,
)
from .syntax import (
    TOP,
    And,
    At,
    Formula,
    Implies,
    Inequality,
    Kind,
    Nom,
    Not,
    QuasiInequality,
    Symbol,
    sorted_symbols,
)


class TranslationShapeError(Exception):
    def __init__(self, item, detail: str):
        self.item = item
        super().__init__(f"cannot translate {item}: {detail}")


def tr_ineq(ineq: Inequality) -> Formula:
    """atom <= g becomes @atom g; g <= ~atom becomes ~@atom g.

    Clause order is fixed: a left atom is read first, so 'i <= ~'j turns
    into @'i ~'j (equivalent to ~@'j 'i, which the third clause would give).
    """
    lt = atom_term(ineq.lhs)
    if lt is not None:
        return At(lt, ineq.rhs)
    rt = neg_atom_term(ineq.rhs)
    if rt is not None:
        return Not(At(rt, ineq.lhs))
    raise TranslationShapeError(
        ineq, "no atom on the left and no negated atom on the right"
    )


def tr_quasi(q: QuasiInequality) -> Formula:
    """Conjoined antecedent translations implying the negated conclusion."""
    ct = atom_term(q.conclusion.lhs)
    cn = neg_atom_term(q.conclusion.rhs)
    if ct is None or cn is None or ct.kind is not Kind.NOM or cn.kind is not Kind.NOM:
        raise TranslationShapeError(
            q, "conclusion must be nominal <= ~nominal"
        )
    body: Formula
    if q.antecedents:
        body = tr_ineq(q.antecedents[0])
        for i in q.antecedents[1:]:
            body = And(body, tr_ineq(i))
    else:
        body = TOP
    return Implies(body, Not(At(ct, Nom(cn))))


def tr_quasiset(qs: list[QuasiInequality] | tuple[QuasiInequality, ...]) -> Formula:
    """Conjunction in list order; the empty set translates to top."""
    if not qs:
        return TOP
    out = tr_quasi(qs[0])
    for q in qs[1:]:
        out = And(out, tr_quasi(q))
    return out


@dataclass
class TrEquivalenceReport:
    checked: int
    mismatches: list[dict]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {"checked": self.checked, "mismatches": self.mismatches, "ok": self.ok}


def verify_tr_equivalence(
    item: Inequality | QuasiInequality,
    models: list[tuple[KripkeModel, dict[Symbol, int]]] | None = None,
    samples: int = 200,
    seed: int = 0,
    max_worlds: int = 3,
) -> TrEquivalenceReport:
    """Check holds(item) == globally-true(Tr(item)) model by model.

    With no model list given, draws random models over the item's symbols.
    """
    translation = tr_ineq(item) if isinstance(item, Inequality) else tr_quasi(item)
    if models is None:
        ps, ns, vs = sorted_symbols(item)
        rng = random.Random(seed)
        models = []
        for _ in range(samples):
            m = random_model(rng, ps, ns, max_worlds)
            g = {x: rng.randrange(m.frame.size) for x in vs}
            models.append((m, g))
    mismatches: list[dict] = []
    for m, g in models:
        direct = (
            holds_inequality(m, g, item)
            if isinstance(item, Inequality)
            else holds_quasi(m, g, item)
        )
        translated = globally_true(m, g, translation)
        if direct != translated:
            from .semantics import model_to_json

            mismatches.append(
                {
                    "model": model_to_json(m, g),
                    "direct": direct,
                    "translated": translated,
                }
            )
    return TrEquivalenceReport(len(models), mismatches)
