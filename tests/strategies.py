"""Shared hypothesis strategies and small helpers for the test suite."""

from __future__ import annotations

import itertools

from hypothesis import strategies as st

from hybridcorr.semantics import KripkeFrame, KripkeModel
from hybridcorr.syntax import (
    BOT,
    TOP,
    And,
    At,
    Box,
    Dia,
    Down,
    Formula,
    Implies,
    Inequality,
    Nom,
    Not,
    Or,
    Prop,
    QuasiInequality,
    Svar,
    free_state_vars,
    nom,
    nominals,
    prop,
    props,
    svar,
)

PROPS = [prop("p"), prop("q"), prop("r")]
SVARS = [svar("x"), svar("y")]
NOMS = [nom("i"), nom("j")]

_pure_atoms = [TOP, BOT] + [Svar(s) for s in SVARS] + [Nom(s) for s in NOMS]
_atoms = st.sampled_from(
    [TOP, BOT]
    + [Prop(s) for s in PROPS]
    + [Svar(s) for s in SVARS]
    + [Nom(s) for s in NOMS]
)


def formulas(max_leaves: int = 10, pure: bool = False) -> st.SearchStrategy[Formula]:
    """Formulas over PROPS, SVARS and NOMS; pure ones leave PROPS out."""
    return st.recursive(
        st.sampled_from(_pure_atoms) if pure else _atoms,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(Dia, sub),
            st.builds(Box, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Implies, sub, sub),
            st.builds(At, st.sampled_from(NOMS + SVARS), sub),
            st.builds(Down, st.sampled_from(SVARS), sub),
        ),
        max_leaves=max_leaves,
    )


def inequalities(max_leaves: int = 8) -> st.SearchStrategy[Inequality]:
    return st.builds(Inequality, formulas(max_leaves), formulas(max_leaves))


def quasis(max_leaves: int = 5, pure: bool = False) -> st.SearchStrategy[QuasiInequality]:
    """Quasi-inequalities with up to two antecedents; pure ones leave PROPS out."""
    ineq = st.builds(Inequality, formulas(max_leaves, pure), formulas(max_leaves, pure))
    return st.builds(
        QuasiInequality, st.lists(ineq, max_size=2).map(tuple), ineq
    )


_terms = st.sampled_from([Nom(s) for s in NOMS] + [Svar(s) for s in SVARS])


def translatable_inequalities(max_leaves: int = 5) -> st.SearchStrategy[Inequality]:
    """Pure inequalities of the two translatable shapes: a nominal or state
    variable on the left, or a negated one on the right."""
    pure = formulas(max_leaves, pure=True)
    return st.one_of(
        st.builds(Inequality, _terms, pure),
        st.builds(Inequality, pure, st.builds(Not, _terms)),
    )


def translatable_quasis(max_leaves: int = 5) -> st.SearchStrategy[QuasiInequality]:
    """Pure quasi-inequalities that tr_quasi accepts: translatable
    antecedents and a conclusion 'i <= ~'j."""
    noms = st.sampled_from([Nom(s) for s in NOMS])
    conclusion = st.builds(Inequality, noms, st.builds(Not, noms))
    return st.builds(
        QuasiInequality,
        st.lists(translatable_inequalities(max_leaves), max_size=2).map(tuple),
        conclusion,
    )


@st.composite
def models_for(draw, f: Formula, max_worlds: int = 3):
    """A model plus assignment covering every symbol of f."""
    n = draw(st.integers(1, max_worlds))
    pairs = [(a, b) for a in range(n) for b in range(n)]
    rel = frozenset(draw(st.sets(st.sampled_from(pairs))) if pairs else set())
    frame = KripkeFrame(n, rel)
    pv = {
        s: frozenset(draw(st.sets(st.integers(0, n - 1))))
        for s in sorted(props(f), key=str)
    }
    nv = {s: draw(st.integers(0, n - 1)) for s in sorted(nominals(f), key=str)}
    g = {s: draw(st.integers(0, n - 1)) for s in sorted(free_state_vars(f), key=str)}
    return KripkeModel(frame, pv, nv), g


def all_models_for_item(
    item: Inequality | QuasiInequality, max_worlds: int = 2
) -> list[tuple[KripkeModel, dict]]:
    """Every (model, assignment) over the item's symbols and small frames.

    Used for exhaustive translation-equivalence checks on pure items.
    """
    ineqs = [item] if isinstance(item, Inequality) else [*item.antecedents, item.conclusion]
    ps: set = set()
    ns: set = set()
    vs: set = set()
    for i in ineqs:
        for side in (i.lhs, i.rhs):
            ps |= props(side)
            ns |= nominals(side)
            vs |= free_state_vars(side)
    ps, ns, vs = sorted(ps, key=str), sorted(ns, key=str), sorted(vs, key=str)
    out = []
    for n in range(1, max_worlds + 1):
        pairs = [(a, b) for a in range(n) for b in range(n)]
        for mask in range(1 << len(pairs)):
            rel = frozenset(p for k, p in enumerate(pairs) if (mask >> k) & 1)
            frame = KripkeFrame(n, rel)
            world_sets = [
                frozenset(w for w in range(n) if (m >> w) & 1) for m in range(1 << n)
            ]
            for pv_choice in itertools.product(world_sets, repeat=len(ps)):
                pv = dict(zip(ps, pv_choice))
                for nv_choice in itertools.product(range(n), repeat=len(ns)):
                    nv = dict(zip(ns, nv_choice))
                    model = KripkeModel(frame, pv, nv)
                    for g_choice in itertools.product(range(n), repeat=len(vs)):
                        out.append((model, dict(zip(vs, g_choice))))
    return out
