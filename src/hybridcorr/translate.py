"""Translation of reduced inequalities and quasi-inequalities back into
formulas of the hybrid language, with model-level equivalence checking.

An inequality with an atom on the left becomes a satisfaction statement
(atom <= g maps to @atom g); one with a negated atom on the right becomes
a negated satisfaction statement (g <= ~atom maps to ~@atom g).  When both
readings apply the left-atom clause wins; the readings are equivalent and
the test suite checks that.

``verify_tr_equivalence`` checks the translation exhaustively: on every
frame with up to ``limits.max_worlds`` worlds (the cap the frame-agreement
check uses) and under every placement of the item's nominals and state
variables, the item holds iff its translation is globally true.  It runs on
the sliced evaluator of ``semantics``, one frame block and one batch of
placements at a time, and reports the number of models checked and the
first refuting ones.  On a block that holds every frame of its size only
one placement per orbit of the world permutations is decided, counted as
many times as its orbit has members: renaming maps the block's frames onto
themselves, so both counts stay exact.  A batch adds its frames times its
summed weights to the models checked, and is split into its placements only
when it has a mismatch.  The first refuting model reported is the one a
walk over every placement would report first, since a canonical placement
is the least of its orbit; later ones come from canonical placements only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alba import atom_term, fold_and, neg_atom_term
from .semantics import (
    DEFAULT_LIMITS,
    MAX_COUNTEREXAMPLES,
    EnumerationLimits,
    KripkeModel,
    _quasi_program,
    _segments,
    _spread,
    frame_at,
    frame_blocks,
    model_to_json,
    require_pure,
)
from .syntax import (
    At,
    Formula,
    Implies,
    Inequality,
    Kind,
    Nom,
    Not,
    QuasiInequality,
)


class TranslationShapeError(ValueError):
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
    body = fold_and([tr_ineq(i) for i in q.antecedents])
    return Implies(body, Not(At(ct, Nom(cn))))


def tr_quasiset(qs: list[QuasiInequality] | tuple[QuasiInequality, ...]) -> Formula:
    """Conjunction in list order; the empty set translates to top."""
    return fold_and([tr_quasi(q) for q in qs])


@dataclass
class TrEquivalenceReport:
    """Models checked, models on which the two sides differ, and the first
    few of those models decoded."""

    checked: int
    mismatched: int
    mismatches: list[dict]

    @property
    def ok(self) -> bool:
        return not self.mismatched

    def to_json(self) -> dict:
        return {
            "checked": self.checked,
            "mismatched": self.mismatched,
            "mismatches": self.mismatches,
            "ok": self.ok,
        }


def verify_tr_equivalence(
    item: Inequality | QuasiInequality,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> TrEquivalenceReport:
    """Check holds(item) == globally-true(Tr(item)) on every model with up to
    limits.max_worlds worlds: every frame and every placement of the item's
    nominals and state variables.

    The item must be pure.  Both sides are compiled once, with one slot
    map, and decided for every frame of a block and every placement of a
    batch at once.
    """
    if isinstance(item, Inequality):
        translation = tr_ineq(item)
        quasi = QuasiInequality((), item)
    else:
        translation = tr_quasi(item)
        quasi = item
    require_pure(quasi)
    checked = mismatched = 0
    mismatches: list[dict] = []
    blocks = list(frame_blocks(limits.max_worlds, limits))
    slots, env, holds, batches, (translated_at,) = _quasi_program(quasi, blocks, (translation,))
    for block in blocks:
        full, count = block.full, block.count
        for batch in batches(block):
            care = _spread(full, count, len(batch))
            translated = care
            for x in translated_at(env):
                translated &= x
            diff = holds(env, care) ^ translated
            checked += count * sum(weight for *_, weight in batch)
            if not diff:
                continue
            parts = zip(
                batch,
                _segments(diff, count, len(batch)),
                _segments(translated, count, len(batch)),
            )
            for (_, placement, weight), part, translated_part in parts:
                if not part:
                    continue
                mismatched += weight * part.bit_count()
                if len(mismatches) < MAX_COUNTEREXAMPLES:
                    j = (part & -part).bit_length() - 1
                    values = dict(zip(slots, placement))
                    model = KripkeModel(
                        frame_at(block.size, block.start + j),
                        {},
                        {s: w for s, w in values.items() if s.kind is Kind.NOM},
                    )
                    g = {s: w for s, w in values.items() if s.kind is Kind.SVAR}
                    held = bool(translated_part >> j & 1)
                    mismatches.append(
                        {"model": model_to_json(model, g), "direct": not held, "translated": held}
                    )
    return TrEquivalenceReport(checked, mismatched, mismatches)
