"""Kripke-model evaluation and brute-force frame validity.

Two evaluators live here on purpose.  ``eval_at`` implements the
satisfaction clauses world by world and is the reference oracle.
``_compile`` is the sliced evaluator: it turns a formula into closures that
decide it on a whole block of frames at once.  A block holds frames of one
size n in ``enumerate_frames`` order; a compiled formula returns one int per
world, whose bit j says whether the formula holds there in frame j of the
block (the bitslicing technique of Biham, "A fast new DES implementation in
software", FSE 1997, applied to frames).  ``truth_mask``, ``frame_valid``
and ``frame_valid_quasi`` all evaluate through it; a ``KripkeFrame`` is a
block of one frame.  The property suite keeps it in agreement with the
oracle.

Verification enumerates every frame up to a size cap (2 + 16 + 512 = 530
frames for sizes 1..3, 66,066 up to 4) and every valuation of the symbols
that occur in the formula under test.  Each size is one block while it has
at most 2^16 frames; larger sizes split into blocks of 2^16 frames, so a
value never exceeds 8 KB.  The validity checks return the mask of the
block's frames on which the formula is valid, and ``frame_agreement`` runs
them for an input and its pure outputs side by side.  Every question is
whether a quasi-inequality is valid: ``_quasi_placements`` is the one loop
over valuations of props and placements of nominals and state variables;
``frame_valid(f)`` decides ``=> as_inequality(f)`` on it, ``frame_valid_quasi``
and the translation check in ``translate`` run on it too.  Purity is
required only of the outputs in ``frame_agreement`` and of the translated item.

Renaming worlds preserves validity, so on a block that holds every frame of
its size (every size up to 4) the loop places nominals and state variables
canonically: one restricted growth string per orbit of the world
permutations (``_canonical_placements``), under every valuation of the
props.  ``_valid_mask`` then closes the mask under renaming with delta swaps
on its index bits (``_close_under_renaming``), and the translation check
weighs each placement by its orbit's size.  A single frame, or a block of a
size above 4, renames nothing and keeps every placement.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import random
import re
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Iterator, Mapping

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
    as_inequality,
    sorted_symbols,
)


class UnboundSymbolError(Exception):
    def __init__(self, sym: Symbol):
        self.sym = sym
        super().__init__(f"symbol {sym} has no value in the model/assignment")


class EnumerationCapError(Exception):
    """A brute-force enumeration would exceed the configured resource cap."""


def _env_int(var: str, default: int) -> int:
    text = os.environ.get(var)
    try:
        return default if text is None else int(text)
    except ValueError:
        raise ValueError(f"{var} must be an integer, got {text!r}") from None


@dataclass(frozen=True)
class EnumerationLimits:
    max_worlds: int = 3
    max_props: int = 3
    max_nominals: int = 4
    max_count: int = 5_000_000

    @classmethod
    def from_env(cls) -> EnumerationLimits:
        return cls(
            max_worlds=_env_int("HYBRIDCORR_MAX_WORLDS", 3),
            max_props=_env_int("HYBRIDCORR_MAX_PROPS", 3),
            max_nominals=_env_int("HYBRIDCORR_MAX_NOMINALS", 4),
            max_count=_env_int("HYBRIDCORR_MAX_ENUM", 5_000_000),
        )


DEFAULT_LIMITS = EnumerationLimits()


@dataclass(frozen=True)
class KripkeFrame:
    """Worlds 0..size-1 with an accessibility relation.

    To the sliced evaluator a frame is a block of one frame: its edge masks
    are 0 or 1.
    """

    size: int
    relation: frozenset[tuple[int, int]]
    full: ClassVar[int] = 1  # the mask of the block's frames

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("a frame needs at least one world")
        for (a, b) in self.relation:
            if not (0 <= a < self.size and 0 <= b < self.size):
                raise ValueError(f"edge ({a},{b}) outside worlds 0..{self.size - 1}")

    @functools.cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """edges[u][v] is 1 iff u R v."""
        worlds = range(self.size)
        return tuple(tuple(int((u, v) in self.relation) for v in worlds) for u in worlds)

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
    worlds = range(model.frame.size)
    values: dict[Symbol, object] = {
        s: tuple(int(w in ws) for w in worlds) for s, ws in model.prop_val.items()
    }
    values.update(model.nom_val)
    values.update(g)
    slots = {s: k for k, s in enumerate(values)}
    held = _compile(f, model.frame, slots)(list(values.values()))
    return sum(x << w for w, x in enumerate(held))


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
# Frame blocks
# ---------------------------------------------------------------------------
#
# Frames of size n are numbered by their relation mask m: pair (a, b) is an
# edge iff bit a*n + b of m is set.  A block holds consecutive frames of one
# size; the evaluator computes, for every world, one int whose bit j says
# whether the formula holds there in frame j of the block.  A block varies
# the low BLOCK_EDGE_BITS edge bits and fixes the rest, so it holds at most
# 2^16 frames and a value is at most 8 KB whatever the world cap.

BLOCK_EDGE_BITS = 16


@dataclass(frozen=True)
class FrameBlock:
    """Frames start..start+count-1 of one size, in enumerate_frames order.

    Bit j of edges[u][v] is set iff u R v in frame start + j.
    """

    size: int
    start: int
    count: int
    edges: tuple[tuple[int, ...], ...] = field(repr=False)

    @property
    def full(self) -> int:
        return (1 << self.count) - 1

    @property
    def index(self) -> int:
        """Position of the block's first frame in enumerate_frames order."""
        return _frames_below(self.size) + self.start


def _frames_below(n: int) -> int:
    """Number of frames with fewer than n worlds."""
    return sum(1 << (k * k) for k in range(1, n))


@functools.cache
def _edge_slices(bits: int) -> tuple[int, ...]:
    """Slice k has bit m set iff bit k of m is set, for m < 2^bits."""
    count = 1 << bits
    full = (1 << count) - 1
    slices = []
    for k in range(bits):
        run = 1 << k
        period = ((1 << run) - 1) << run
        slices.append(period * (full // ((1 << (2 * run)) - 1)))
    return tuple(slices)


def _check_world_cap(max_size: int, limits: EnumerationLimits) -> None:
    if max_size < 1:
        raise ValueError(f"world cap {max_size} is below 1: a frame has at least one world")
    if max_size > limits.max_worlds:
        raise EnumerationCapError(
            f"max_size {max_size} exceeds the world cap {limits.max_worlds}"
        )


def frame_blocks(
    max_size: int,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> Iterator[FrameBlock]:
    """Every frame with 1..max_size worlds, as blocks in enumerate_frames order."""
    _check_world_cap(max_size, limits)
    return (block for n in range(1, max_size + 1) for block in _blocks_of_size(n))


def _blocks_of_size(n: int) -> Iterator[FrameBlock]:
    bits = n * n
    low = min(bits, BLOCK_EDGE_BITS)
    slices = _edge_slices(low)
    count = 1 << low
    full = (1 << count) - 1
    for high in range(1 << (bits - low)):
        masks = slices + tuple(
            full if (high >> k) & 1 else 0 for k in range(bits - low)
        )
        edges = tuple(masks[u * n : (u + 1) * n] for u in range(n))
        yield FrameBlock(n, high << low, count, edges)


def frame_at(n: int, m: int) -> KripkeFrame:
    """Frame m of size n: pair (a, b) is an edge iff bit a*n + b of m is set."""
    return KripkeFrame(
        n, frozenset((k // n, k % n) for k in range(n * n) if (m >> k) & 1)
    )


def _frame_at_index(idx: int) -> KripkeFrame:
    """Frame idx in enumerate_frames order."""
    n = 1
    while idx >= 1 << (n * n):
        idx -= 1 << (n * n)
        n += 1
    return frame_at(n, idx)


def frame_indices(mask: int) -> Iterator[int]:
    """The positions of the set bits of a frame mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def enumerate_frames(
    max_size: int,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> Iterator[KripkeFrame]:
    """Every frame with 1..max_size worlds, in relation-mask order.

    Size n contributes 2^(n*n) frames; frame m is frame_at(n, m).
    """
    _check_world_cap(max_size, limits)
    for n in range(1, max_size + 1):
        for m in range(1 << (n * n)):
            yield frame_at(n, m)


# ---------------------------------------------------------------------------
# The sliced evaluator
# ---------------------------------------------------------------------------
#
# The formula is compiled once per block into nested closures over a flat
# environment list: a prop holds its per-world values (all-ones or 0, since
# a valuation is the same in every frame of the block), nominals and state
# variables hold world numbers.  ``slots`` maps each free symbol to its
# index in that list and must number them 0..len(slots)-1; a binder takes
# the next index for the extent of its scope.


def _compile(f: Formula, frames: FrameBlock | KripkeFrame, slots: dict[Symbol, int]):
    """Closure computing f's per-world frame masks from an environment list."""
    n = frames.size
    full = frames.full
    rows = frames.edges
    worlds = range(n)
    top = (full,) * n
    bot = (0,) * n
    # units[w]: the values of a nominal or state variable placed at w.
    units = [tuple(full if v == w else 0 for v in worlds) for w in worlds]

    def dia(xs) -> list[int]:
        out = []
        for row in rows:
            acc = 0
            for e, x in zip(row, xs):
                acc |= e & x
            out.append(acc)
        return out

    def slot(s: Symbol) -> int:
        if s not in slots:
            raise UnboundSymbolError(s)
        return slots[s]

    def go(h: Formula):
        match h:
            case Prop(s):
                k = slot(s)
                return lambda env: env[k]
            case Svar(s) | Nom(s):
                k = slot(s)
                return lambda env: units[env[k]]
            case Bot():
                return lambda env: bot
            case Top():
                return lambda env: top
            case Not(c):
                a = go(c)
                return lambda env: [full ^ x for x in a(env)]
            case Or(l, r):
                a, b = go(l), go(r)
                return lambda env: [x | y for x, y in zip(a(env), b(env))]
            case And(l, r):
                a, b = go(l), go(r)
                return lambda env: [x & y for x, y in zip(a(env), b(env))]
            case Implies(l, r):
                a, b = go(l), go(r)
                return lambda env: [(full ^ x) | y for x, y in zip(a(env), b(env))]
            case Dia(c):
                a = go(c)
                return lambda env: dia(a(env))
            case Box(c):
                a = go(c)
                return lambda env: [full ^ y for y in dia([full ^ x for x in a(env)])]
            case At(t, c):
                k = slot(t)
                a = go(c)
                return lambda env: (a(env)[env[k]],) * n
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
                    out = []
                    for w in worlds:
                        env[k] = w
                        out.append(a(env)[w])
                    if saved is not None:
                        env[k] = saved
                    return out

                return down
            case _:
                raise TypeError(f"not a formula: {h!r}")

    return go(f)


def _enumeration_count(n: int, n_props: int, n_noms: int, n_svars: int) -> int:
    return (n ** n_noms) * (2 ** (n * n_props)) * (n ** n_svars)


def _check_budget(
    frames: FrameBlock | KripkeFrame,
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
    count = _enumeration_count(frames.size, len(prop_syms), len(nom_syms), len(svar_syms))
    if count > limits.max_count:
        raise EnumerationCapError(f"enumeration of {count} cases exceeds cap {limits.max_count}")


def _renamable(frames: FrameBlock | KripkeFrame) -> int:
    """How many worlds can be permuted without leaving frames: all n of a
    block that holds every frame of size n (n <= 4), else 1 (a single frame,
    or a part of a size whose frames span several blocks)."""
    if isinstance(frames, FrameBlock) and frames.count == 1 << (frames.size * frames.size):
        return frames.size
    return 1


@functools.cache
def _canonical_placements(k: int, n: int, m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """One placement of k symbols in worlds 0..n-1 per orbit of the
    permutations of worlds 0..m-1, with the orbit's size, in lexicographic
    order.

    A placement is canonical iff it is a restricted growth string on the
    renamable worlds: each symbol goes to a renamable world at most one
    above the highest renamable world used so far, or to any world >= m.
    That is the least member of its orbit, and the orbit has
    m(m-1)...(m-j+1) members if j renamable worlds are used.  With m = 1
    every placement is canonical and has weight 1.
    """
    out = []
    prefix = [0] * k

    def grow(i: int, used: int) -> None:
        """Extend prefix[:i], which uses renamable worlds 0..used-1."""
        if i == k:
            out.append((tuple(prefix), math.perm(m, used)))
            return
        for w in itertools.chain(range(min(used + 1, m)), range(m, n)):
            prefix[i] = w
            grow(i + 1, max(used, w + 1) if w < m else used)

    grow(0, 0)
    return tuple(out)


@functools.cache
def _world_swaps(n: int) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
    """For worlds j < k, the delta swaps (shift, selector) that rename j and
    k in a mask over all 2^(n*n) frames of size n.

    Renaming moves edge bit a*n + b of every frame number to the bit of the
    renamed edge: it swaps the 2n-2 pairs (j,w)<->(k,w), (w,j)<->(w,k),
    (j,j)<->(k,k) and (j,k)<->(k,j).  Swapping index bits lo < hi moves the
    frames with bit lo set and bit hi clear up by 2^hi - 2^lo (Warren,
    Hacker's Delight, 2nd ed., section 7-1).
    """
    slices = _edge_slices(n * n)
    swaps = {}
    for k in range(n):
        for j in range(k):
            rename = {j: k, k: j}
            moved = [
                (a * n + b, rename.get(a, a) * n + rename.get(b, b))
                for a in range(n)
                for b in range(n)
            ]
            swaps[j, k] = tuple(
                ((1 << hi) - (1 << lo), slices[lo] & ~slices[hi]) for lo, hi in moved if lo < hi
            )
    return swaps


def _close_under_renaming(mask: int, n: int, m: int) -> int:
    """The frames of size n all of whose renamings under the permutations of
    worlds 0..m-1 lie in mask.

    Closing under the permutations of worlds 0..k-1 and then ANDing the
    renamings by (j k), j < k, closes under those of worlds 0..k, because
    the (j k) and the identity represent the cosets of S_k in S_(k+1).
    """
    for k in range(1, m):
        closed = mask
        for j in range(k):
            renamed = mask
            for shift, selector in _world_swaps(n)[j, k]:
                t = ((renamed >> shift) ^ renamed) & selector
                renamed ^= t | (t << shift)
            closed &= renamed
        mask = closed
    return mask


def _quasi_placements(
    frames: FrameBlock | KripkeFrame,
    q: QuasiInequality,
    limits: EnumerationLimits,
):
    """Compile q on frames and return (slots, env, placements, holds).

    slots numbers q's props, then its nominals, then its state variables.
    placements sets the list env, in lexicographic order, to every
    valuation of the props combined with every canonical placement of the
    nominals and state variables in the frames' worlds (see
    _canonical_placements, with m = _renamable(frames)), and yields the
    placement's weight: the number of placements renaming maps it to.
    holds(env, care) is the mask of the frames among care on which q holds
    under env.  The antecedents and the conclusion are judged against one
    shared environment.
    """
    prop_syms, nom_syms, svar_syms = sorted_symbols(q)
    _check_budget(frames, prop_syms, nom_syms, svar_syms, limits)

    n = frames.size
    full = frames.full
    slots = {s: k for k, s in enumerate(prop_syms + nom_syms + svar_syms)}

    def inclusion(i: Inequality):
        lf, rf = _compile(i.lhs, frames, slots), _compile(i.rhs, frames, slots)

        def included(env) -> int:
            """Mask of the frames where lhs's truth set lies within rhs's."""
            m = full
            for x, y in zip(lf(env), rf(env)):
                m &= (full ^ x) | y
            return m

        return included

    *antecedents, conclusion = [inclusion(i) for i in (*q.antecedents, q.conclusion)]

    def holds(env, care: int) -> int:
        held = care
        for included in antecedents:
            held &= included(env)
            if not held:
                return care
        return (care ^ held) | (held & conclusion(env))

    p = len(prop_syms)
    env: list = [0] * len(slots)

    def placements() -> Iterator[int]:
        # A valuation of a prop is its per-world values: all-ones where it
        # holds (the same in every frame of the block), 0 elsewhere.
        valuations = [tuple(full if (s >> w) & 1 else 0 for w in range(n)) for s in range(1 << n)]
        canonical = _canonical_placements(len(slots) - p, n, _renamable(frames))
        for values in itertools.product(*[valuations] * p, canonical):
            env[:p] = values[:p]
            env[p:], weight = values[p]
            yield weight

    return slots, env, placements(), holds


def _valid_mask(
    frames: FrameBlock | KripkeFrame,
    q: QuasiInequality,
    limits: EnumerationLimits,
) -> int:
    """The loop behind frame_valid and frame_valid_quasi.  Neither calls the
    other, so the perfbench tracer counts a call of either exactly once.

    Only canonical placements are decided; closing the mask under renaming
    the worlds gives the frames on which q holds under every placement.
    With no nominal or state variable every placement is decided already."""
    slots, env, placements, holds = _quasi_placements(frames, q, limits)
    valid = frames.full
    for _ in placements:
        valid = holds(env, valid)
        if not valid:
            return 0
    if all(s.kind is Kind.PROP for s in slots):
        return valid
    return _close_under_renaming(valid, frames.size, _renamable(frames))


def frame_valid(
    frames: FrameBlock | KripkeFrame,
    f: Formula,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> int:
    """Mask of the frames on which f holds at every world under every
    valuation and assignment (0 or 1 for a single frame).

    f is decided as the quasi-inequality with no antecedents whose
    conclusion is as_inequality(f): an implication l -> r as l <= r,
    anything else as T <= f.  Only symbols occurring in f are enumerated;
    absent symbols cannot affect the truth value.
    """
    return _valid_mask(frames, QuasiInequality((), as_inequality(f)), limits)


def frame_valid_quasi(
    frames: FrameBlock | KripkeFrame,
    q: QuasiInequality,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> int:
    """Mask of the frames on which q holds under every valuation, nominal
    placement and assignment; 0 or 1 for a single frame.

    The antecedents and the conclusion are judged against one shared
    valuation and assignment.
    """
    return _valid_mask(frames, q, limits)


def require_pure(q: QuasiInequality) -> None:
    """Raise ValueError if q mentions a propositional variable."""
    prop_syms = sorted_symbols(q)[0]
    if prop_syms:
        raise ValueError(f"quasi-inequality is not pure: contains {prop_syms}")


def frame_valid_quasi_set(
    frames: FrameBlock | KripkeFrame,
    qs: Iterable[QuasiInequality],
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> int:
    """Mask of the frames on which every quasi-inequality of qs is valid."""
    valid = frames.full
    for q in qs:
        valid &= frame_valid_quasi(frames, q, limits)
        if not valid:
            break
    return valid


MAX_COUNTEREXAMPLES = 5


@dataclass
class FrameAgreement:
    """Frame validity of an input and of its pure outputs, frame by frame.

    Bit k of valid_in (valid_out) is set iff the input (the outputs) is
    valid on frame k in enumerate_frames order; the counterexamples
    describe the first MAX_COUNTEREXAMPLES frames where the two differ.
    """

    frames: int
    valid_in: int
    valid_out: int
    counterexamples: list[str]

    @property
    def agreements(self) -> int:
        return self.frames - (self.valid_in ^ self.valid_out).bit_count()

    @property
    def ok(self) -> bool:
        return self.valid_in == self.valid_out


def valid_frame_mask(check, item, limits: EnumerationLimits = DEFAULT_LIMITS) -> int:
    """Mask of the frames with up to limits.max_worlds worlds (bit k for
    frame k in enumerate_frames order) on which item is valid, where
    check(block, item, limits) is a block validity check such as
    frame_valid or frame_valid_quasi_set."""
    valid = 0
    for block in frame_blocks(limits.max_worlds, limits):
        valid |= check(block, item, limits) << block.index
    return valid


def frame_agreement(
    formula: Formula | Inequality,
    quasis: Iterable[QuasiInequality],
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> FrameAgreement:
    """Check on every frame up to limits.max_worlds worlds whether the input
    (an inequality is read as its implication) and the conjunction of the
    quasi-inequalities, which must be pure, are valid."""
    if isinstance(formula, Inequality):
        formula = Implies(formula.lhs, formula.rhs)
    quasis = tuple(quasis)
    for q in quasis:
        require_pure(q)
    valid_in = valid_frame_mask(frame_valid, formula, limits)
    valid_out = valid_frame_mask(frame_valid_quasi_set, quasis, limits)
    counterexamples = [
        f"{_frame_at_index(k)}: input={bool(valid_in >> k & 1)} output={bool(valid_out >> k & 1)}"
        for k in itertools.islice(frame_indices(valid_in ^ valid_out), MAX_COUNTEREXAMPLES)
    ]
    return FrameAgreement(
        _frames_below(limits.max_worlds + 1), valid_in, valid_out, counterexamples
    )


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
