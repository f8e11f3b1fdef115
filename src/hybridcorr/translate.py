"""Translation of reduced inequalities and quasi-inequalities back into
formulas of the hybrid language, with model-level equivalence checking.

An inequality with an atom on the left becomes a satisfaction statement
(atom <= g maps to @atom g); one with a negated atom on the right becomes
a negated satisfaction statement (g <= ~atom maps to ~@atom g).  When both
readings apply the left-atom clause wins; the readings are equivalent and
the test suite checks that.

``verify_tr_equivalence`` checks the translation exhaustively: on every
frame with up to ``limits.max_worlds`` worlds and under every placement of
the item's nominals and state variables, the item holds iff its translation
is globally true.  The loop over frames and placements is the one of
``semantics`` (``equivalence_check``), which decides the item's frame
validity in the same pass; the report carries both.
``verify_correspondence`` is the whole check of ``verify``: the input and
its pure outputs define the same frames, and each output is equivalent to
its translation.  Every one of its checks is admitted before any is
decided.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

from .alba import atom_term, fold_and, neg_atom_term
from .semantics import (
    DEFAULT_LIMITS,
    MAX_COUNTEREXAMPLES,
    EnumerationLimits,
    FramesUpTo,
    admit,
    check_cases,
    equivalence_check,
    frame_at_index,
    frame_blocks,
    frame_indices,
    frame_valid,
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
    """The frames on which the item is valid (bit k for frame k in
    enumerate_frames order), models checked, models on which the two sides
    differ, and the first few of those models decoded.  The mask is left
    out of the repr: past 3 worlds it has more digits than int() converts
    to text by default."""

    valid: int = field(repr=False)
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
    nominals and state variables.  The item must be pure.
    """
    if isinstance(item, Inequality):
        translation = tr_ineq(item)
        item = QuasiInequality((), item)
    else:
        translation = tr_quasi(item)
    return TrEquivalenceReport(*equivalence_check(item, translation, limits))


@dataclass
class FrameAgreement:
    """Frame validity of an input and of its pure outputs, frame by frame,
    and the translation check of each output.

    Bit k of valid_in (valid_out) is set iff the input (the outputs) is
    valid on frame k in enumerate_frames order; the counterexamples
    describe the first MAX_COUNTEREXAMPLES frames where the two differ.
    The masks are left out of the repr, as in TrEquivalenceReport.
    """

    frames: int
    valid_in: int = field(repr=False)
    valid_out: int = field(repr=False)
    counterexamples: list[str]
    translations: list[TrEquivalenceReport]

    @property
    def agreements(self) -> int:
        return self.frames - (self.valid_in ^ self.valid_out).bit_count()

    @property
    def ok(self) -> bool:
        return self.valid_in == self.valid_out


def verify_correspondence(
    formula: Formula | Inequality,
    quasis: Iterable[QuasiInequality],
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> FrameAgreement:
    """Check on every frame up to limits.max_worlds worlds whether the input
    (an inequality is read as its implication) and the conjunction of the
    quasi-inequalities, which must be pure, are valid, and check each
    quasi-inequality against its translation (verify_tr_equivalence), whose
    valid masks give the outputs' side.

    Purity and the world cap are checked first, then the input's check and
    each output's check are admitted, each on its own; only then is any of
    them decided.
    """
    if isinstance(formula, Inequality):
        formula = Implies(formula.lhs, formula.rhs)
    quasis = tuple(quasis)
    for q in quasis:
        require_pure(q)
    blocks = list(frame_blocks(limits.max_worlds, limits))
    for item in (formula, *quasis):
        admit(check_cases(item, blocks))
    frames = FramesUpTo(limits.max_worlds)
    valid_in = frame_valid(frames, formula, limits)
    translations = [verify_tr_equivalence(q, limits) for q in quasis]
    valid_out = frames.full
    for report in translations:
        valid_out &= report.valid
    counterexamples = [
        f"{frame_at_index(k)}: input={bool(valid_in >> k & 1)} output={bool(valid_out >> k & 1)}"
        for k in itertools.islice(frame_indices(valid_in ^ valid_out), MAX_COUNTEREXAMPLES)
    ]
    return FrameAgreement(frames.count, valid_in, valid_out, counterexamples, translations)
