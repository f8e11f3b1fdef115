"""Kripke-model evaluation and brute-force frame validity.

Two evaluators live here on purpose.  ``eval_at`` implements the
satisfaction clauses world by world and is the reference oracle, which
the tests' per-model checks use.  The sliced evaluator turns the formulas
of one validity question into kernels that decide them on a whole block
of frames at once: ``_intern`` makes the question's program, and
``_kernels`` builds the kernels from it (``_compile`` does both).  The
kernels run per-world bodies, one per operation, that ``_bodies``
generates once per world count from fixed templates, written out world by
world, so no body loops over the worlds of a value.  A block
holds frames of one size n in ``enumerate_frames`` order; every symbol and
every compiled formula has one int per world, whose bit j says whether it
holds there (a nominal or state variable: is placed there) in frame j of
the block (the bitslicing technique of Biham, "A fast new DES
implementation in software", FSE 1997, applied to frames).
``truth_mask``, ``frame_valid``, ``frame_valid_quasi`` and
``equivalence_check`` all evaluate through it; a ``KripkeFrame`` is a
block of one frame.  The property suite
keeps it in agreement with the oracle.

The kernels form a DAG.  The question's formulas are interned
(hash-consed) bottom up, each node keyed by its tag, its slot numbers and
its children's ids, so each distinct subformula with its resolved slots
has one kernel, whichever formula and binder it occurs under.  A kernel
that is called more than once per evaluation keeps its value until the
next batch is loaded or a binder sets a slot it reads.  So it runs at
most once per batch, and a subformula that does not read a binder's slot
runs once, not once per world, in that binder's loop: loop-invariant code
motion (Aho, Lam, Sethi and Ullman, *Compilers*, 2nd ed., section 9.5) by
the same rule of reuse.  ``axioms.check_schemas``' conjunctions thus
evaluate each subterm their instances share once, and the translation
check evaluates the subformulas that Tr(q) shares with q's sides once.
The program, the interned DAG as tuples and ints, depends on no frame, so
it is interned once per object that poses the question and kept on it
(``_question``), as ``syntax`` keeps a node's symbols, with the question's
sorted symbols: a formula f poses => as_inequality(f), a quasi-inequality
itself.  ``axioms`` builds its conjunctions once per process, so a process
interns each once; a formula parsed afresh for each check interns once per
check.  A translation check interns q's sides with Tr(q), which
``translate`` builds afresh, on every call.  Kernels live for one check:
they hold the bound block and the values their cells keep, so every check
builds its own from the program, and nothing kept holds a block, a mask
or a verdict.

Verification enumerates every frame up to a size cap (2 + 16 + 512 = 530
frames for sizes 1..3, 66,066 up to 4) and every valuation of the symbols
that occur in the formula under test.  ``frame_blocks`` yields each size
as one block while it has at most 2^16 frames and larger sizes in blocks
of 2^16 frames, so a value never exceeds 8 KB.  Given ``EnumerationLimits``
the checks decide every frame of up to three worlds as one block instead
(``_small_frames``): frames of min(cap, 3) worlds, where a frame of k
worlds lacks worlds k.., which have no edges, and ``lacking[w]`` masks the
frames that lack world w.  An inclusion holds at a lacking world, and a
placement of a symbol there holds vacuously.  That is exact: truth at the
other worlds is the small frame's, since a lacking world has no edges and
@ and a binder reach only worlds where a symbol is placed or evaluation
is.  Every block the loop decides has one shape (``_layout``): a list of
parts, each a whole block of one size at an offset, and ``lacking``; a
``FrameBlock`` or a ``KripkeFrame`` is one part that lacks no world.  One
budget bounds every check: its cases, on a block of n worlds
n^nominals * 2^(n*props) * n^state-variables, summed over the blocks of
``frame_blocks``, may not exceed ``MAX_CASES`` = 2^20.
The validity checks take one frames value, a ``FrameBlock``, a
``KripkeFrame`` or ``EnumerationLimits`` (every frame up to its world
cap, decided in one call), and return the mask of those frames on which
the formula is valid.  ``_valid_mask`` checks the sum once per check
(``check_cases``, ``admit``), before any table of valuations and
placements is built, and raises ``EnumerationCapError`` otherwise;
``check_cases`` checks the world cap first and counts the blocks of
each size without building them.  ``axioms.check_schemas`` admits the
sum over all its instances on every call, and
``translate.verify_correspondence`` each of its checks, before deciding
any.  ``axioms.check_schemas`` then decides the instances that share
their symbols as one conjunction, which has the cases of any one of them;
the groups and their conjunctions are built once per process, and every
call decides each conjunction on every frame.  Every question is whether a
quasi-inequality is valid: ``_valid_mask`` reads its symbols and program
from the object that poses it, builds the kernels once per check and
then, block by block, re-binds them to the block and runs the one loop
over valuations of props and placements of nominals and state variables.
``frame_valid(f)`` decides ``=> as_inequality(f)`` on it and
``frame_valid_quasi`` decides q; every batch is decided on every frame of
the block, and a block stops once q has failed on all of them.
``equivalence_check`` runs the same loop on a pure q with a formula f
compiled beside it, deciding every batch of every block and comparing q
with f there: that is the translation check of ``translate``, and the
mask it returns is q's validity, so ``verify`` decides each output once.

Renaming worlds preserves validity: (F, V) satisfies q iff (pi F, pi V)
does.  Every table of valuations and placements comes from one function,
``_members``, given how many worlds each part of the block can rename
(``_renamable``: all n of a part that holds every frame of its size n, up
to 4, else 1).  Where a part renames its worlds the loop decides one
valuation and placement per orbit of the world permutations
(``_orbit_members``): the worlds are coloured by the props that hold
there, the colours must not decrease, and nominals and state variables
follow a restricted growth string within each run of equal colour.
``_valid_mask`` then closes each part of the block's mask under its own
renamings with delta swaps on its index bits (``_close_under_renaming``),
and each member carries one weight per part, which the translation check
counts: on a part of the block's size the size of its orbit, and on a
part of s worlds the orbit size of its restriction to worlds 0..s-1, or 0
if it places a symbol outside them or repeats an earlier member's
restriction.  Renaming maps each part's frames onto themselves, so the
models checked and mismatched stay exact.  The first mismatch reported is
the one a walk over every placement would report first, since a
canonical placement is the least of its orbit; later ones come from
canonical placements only, part by part.  A single frame, or a block of a
size above 4, renames nothing and decides every valuation and placement,
generated lazily unless they fit in one batch, each with weight (1,).

The loop runs in batches, by one rule for blocks and single frames alike:
on count frames one evaluation decides up to 2^16 / count valuations and
placements side by side (a batch), at least one.  Bit b*count + j of a
value stands for member b of the batch in frame j, and the closures are
bound to the frames repeated once per member (``_replicated``), so a value
still stays within 8 KB.  That is 123 members on the 530 small frames
(32,768, 4,096 and 128 on a whole block of 1..3 worlds), one on a block
of 2^16 frames (4 worlds and up) and 65,536 on a single frame.  A batch's
mask is its segments ANDed by halving, with the unused tail of a partial
last batch set first.  One builder (``_widen``) makes every batch's
environment: it joins each value from the bytes of the fewest segments
that fill whole bytes, in linear time, and builds a one-member batch's
values from the world sets of its size and frame count.  A table that
fits in one batch is widened once, with its absent mask, for each shape
(props, symbols, size, renamable worlds per part, frame count, lacking)
(``_one_batch``); a larger one is widened batch by batch, from the cached
orbit members or the lazy product.  The two caches keep the most recently
used ``_TABLES_KEPT`` tables each.

A batch of one decides one valuation and placement, so every per-world
value of a prop, a nominal, a state variable or a binder's unit is a
constant: 0, or the full mask ``bind`` returns, that object itself (so are
those of T and F).  That is every batch on a block of 2^16 frames (4
worlds and up) and on a single frame.  The generated bodies, those the
kernels run and ``_valid_mask``'s inclusion test and AND over worlds of
the translation, test each operand for 0 by value and for full by
identity, and then do no big-int work: a negation swaps the two
constants, a conjunction or disjunction returns the other operand or the
constant, and ``<>`` skips a world whose value is 0 and takes the edge
mask itself where it is full, so ``<>'i`` returns the edge masks into i's
world untouched.  A block mask that stays full is
not closed under renaming.  ``_world_sets`` keeps, per size and frame
count, the n + 2 world sets ``bind`` reads (no world, every world, and
each world alone); a one-member table's values are built from its full
mask on every use, as ``bind``'s full mask is taken from it, so the two
stay one object.  Correctness never depends on recognising a constant: a
value equal to full that is another object takes the general path.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    """A check would exceed the case budget MAX_CASES, or frames of more
    worlds than the world cap were asked for."""


@dataclass(frozen=True)
class EnumerationLimits:
    """The frames a check enumerates: every frame with 1..max_worlds worlds,
    in enumerate_frames order.  The validity checks decide an item on all
    of them in one call, one block after another, and bit k of their mask
    stands for frame k.

    Like a FrameBlock or a KripkeFrame it has a size (the world cap), a
    count of frames and their full mask; the full mask is only built within
    the world cap (_check_world_cap).
    """

    max_worlds: int = 3

    @property
    def size(self) -> int:
        return self.max_worlds

    @property
    def count(self) -> int:
        return _frames_below(self.max_worlds + 1)

    @property
    def full(self) -> int:
        _check_world_cap(self.max_worlds)
        return (1 << self.count) - 1


DEFAULT_LIMITS = EnumerationLimits()


@dataclass(frozen=True)
class KripkeFrame:
    """Worlds 0..size-1 with an accessibility relation.

    To the sliced evaluator a frame is a block of one frame: its edge masks
    are 0 or 1.
    """

    size: int
    relation: frozenset[tuple[int, int]]
    count: ClassVar[int] = 1  # the block's frames
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
    """Truth set of f as a bitmask over worlds (bit w set iff f holds at w).

    The validity checks run the sliced evaluator on whole frame blocks
    under their own valuations and placements; this is the one entry that
    runs it on a given model and assignment, which the differential tests
    compare with eval_at world by world.  Its slots follow the model, so
    its program is interned per call and kept nowhere."""
    worlds = range(model.frame.size)
    values: dict[Symbol, tuple[int, ...]] = {
        s: tuple(int(w in ws) for w in worlds) for s, ws in model.prop_val.items()
    }
    for s, at in [*model.nom_val.items(), *g.items()]:
        values[s] = tuple(int(w == at) for w in worlds)
    slots = {s: k for k, s in enumerate(values)}
    (held_at,), bind = _compile([f], slots)
    bind(model.frame)
    held = held_at(list(values.values()))
    return sum(x << w for w, x in enumerate(held))


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


# The most worlds a check enumerates frames up to, whatever the caps say:
# 5 worlds are 33,620,498 frames, 6 would be 68,753,097,234.
MAX_WORLDS = 5


def _check_world_cap(max_size: int) -> None:
    """Raise unless frames of 1..max_size worlds may be enumerated."""
    if max_size < 1:
        raise ValueError(f"world cap {max_size} is below 1: a frame has at least one world")
    if max_size > MAX_WORLDS:
        # Counted at one world past the cap only: the count at max_size has
        # about max_size^2 / 3.3 digits.
        raise EnumerationCapError(
            f"{max_size} worlds would mean at least {_frames_below(MAX_WORLDS + 2):,} frames; "
            f"checks stop at {MAX_WORLDS} worlds"
        )


def frame_blocks(limits: EnumerationLimits) -> Iterator[FrameBlock]:
    """Every frame of limits, as blocks in enumerate_frames order: 2^max(0,
    n*n - 16) blocks of each size n."""
    _check_world_cap(limits.max_worlds)
    return (block for n in range(1, limits.max_worlds + 1) for block in _blocks_of_size(n))


def _blocks_of_size(n: int) -> Iterable[FrameBlock]:
    return (_whole_block(n),) if n * n <= BLOCK_EDGE_BITS else _blocks(n)


def _blocks(n: int) -> Iterator[FrameBlock]:
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


@functools.cache
def _whole_block(n: int) -> FrameBlock:
    """The one block of every frame of size n (n <= 4), built once per process."""
    return next(_blocks(n))


# The validity checks decide every frame of up to this many worlds as one block.
_SMALL_WORLDS = 3


@dataclass(frozen=True)
class _SmallFrames(FrameBlock):
    """Every frame of 1..size worlds (size <= _SMALL_WORLDS) in
    enumerate_frames order, as one block of frames of size worlds: a frame
    of k worlds lacks worlds k..size-1, which have no edges.

    parts holds (offset, whole block of k worlds) for each k: bit offset +
    j of the block's masks is frame j of that block.  lacking[w] is the
    mask of the frames that lack world w."""

    parts: tuple[tuple[int, FrameBlock], ...] = field(repr=False)
    lacking: tuple[int, ...] = field(repr=False)


@functools.cache
def _small_frames(size: int) -> _SmallFrames:
    """The block of every frame of 1..size worlds, built once per process."""
    parts = tuple((_frames_below(k), _whole_block(k)) for k in range(1, size + 1))
    edges = tuple(
        tuple(
            _concatenated((b.edges[u][v] if max(u, v) < b.size else 0, b.count) for _, b in parts)
            for v in range(size)
        )
        for u in range(size)
    )
    lacking = tuple((1 << _frames_below(w + 1)) - 1 for w in range(size))
    return _SmallFrames(size, 0, _frames_below(size + 1), edges, parts, lacking)


def _layout(
    block: FrameBlock | KripkeFrame,
) -> tuple[tuple[tuple[int, FrameBlock | KripkeFrame], ...], tuple[int, ...]]:
    """(parts, lacking) of a block the validity checks decide: its parts as
    (offset, whole block of one size), and per world the mask of its frames
    that lack that world.  A FrameBlock or a KripkeFrame is one part that
    lacks no world."""
    if isinstance(block, _SmallFrames):
        return block.parts, block.lacking
    return ((0, block),), (0,) * block.size


def _decided_blocks(limits: EnumerationLimits) -> Iterator[FrameBlock]:
    """The blocks the validity checks decide limits' frames in, in order:
    one of every frame up to _SMALL_WORLDS worlds, then frame_blocks' own."""
    _check_world_cap(limits.max_worlds)
    small = min(limits.max_worlds, _SMALL_WORLDS)
    yield _small_frames(small)
    for n in range(small + 1, limits.max_worlds + 1):
        yield from _blocks_of_size(n)


def frame_at(n: int, m: int) -> KripkeFrame:
    """Frame m of size n: pair (a, b) is an edge iff bit a*n + b of m is set."""
    return KripkeFrame(
        n, frozenset((k // n, k % n) for k in range(n * n) if (m >> k) & 1)
    )


def frame_at_index(idx: int) -> KripkeFrame:
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
    _check_world_cap(max_size)
    if max_size > limits.max_worlds:
        raise EnumerationCapError(f"max_size {max_size} exceeds the world cap {limits.max_worlds}")
    for n in range(1, max_size + 1):
        for m in range(1 << (n * n)):
            yield frame_at(n, m)


# ---------------------------------------------------------------------------
# The sliced evaluator
# ---------------------------------------------------------------------------
#
# A validity question is compiled in two steps.  ``_intern`` walks its
# formulas once and yields a program, one DAG of nodes as tuples and ints
# only; ``_kernels`` builds one kernel per node of a program, with ``bind``,
# which points them at a block.  A kernel calls its operation's per-world
# body, which ``bind`` picks for the block's world count from the bodies
# generated for it (``_bodies``, see _BODY_TEMPLATE) and binds to the
# block's full mask and edge rows.  A program depends on the formulas and the
# slot map alone, so the item that poses a question keeps its program
# (``_question``) and is interned once, however often it is decided; the
# kernels hold the bound block and the state of their caches, so every
# check builds its own.
#
# The kernels run over a flat environment list.  It starts with the
# per-world values of every symbol: a prop's bit is set where it holds, a
# nominal's or a state variable's where it is placed.  ``slots`` maps each
# free symbol to its index there and must number them 0..len(slots)-1; a
# binder takes the next index for the extent of its scope.  Behind the
# symbols come the binders' slots and then one cell per shared node: the
# kernels of the formulas append them, set to None, when they are called on
# a list that holds only the symbols' values, as it does after each load.
#
# The formulas are interned (hash-consed): a node's key is its tag, its
# slot and its children's ids, built bottom up, never Formula.__hash__,
# which recurses, so each distinct pair of a subformula and its resolved
# slots is one node with one kernel, whichever formula of the question it
# occurs in and whatever its binders' names.  A node is shared if it
# would be called more than once per evaluation: it has several parents
# (or is several of the formulas), or a parent that varies with a
# binder's slot that the node does not read, which would call it once per
# world of the binder's loop.  A shared node keeps its value in its cell,
# None until computed.  Loading a batch replaces the list's contents and
# so clears every cell, and a binder clears the cells of the shared nodes
# that read its slot each time it sets that slot.  So a value is reused
# only while the batch, the bound block and every binder slot it reads
# are unchanged: a shared kernel runs at most once per batch, and a
# subformula that does not read a binder's slot runs once, not once per
# world, in that binder's loop.  The kernels read the block only through
# cells that ``bind`` re-points, so one build serves every block of a check
# at no cost per evaluation; a block is bound before its batches are loaded.

# A node's tag in a program's keys: a prop, a nominal and a state variable
# all read their slot.
_SLOT, _TOP, _BOT, _NOT, _DIA, _BOX, _OR, _AND, _IMPLIES, _AT, _DOWN = range(11)
# How _intern keys each node type, and its tag: a symbol by its slot, a
# constant by its tag, a connective by its children, @ and a binder by a
# slot and a child.
_SHAPES = {
    Prop: ("symbol", _SLOT),
    Svar: ("symbol", _SLOT),
    Nom: ("symbol", _SLOT),
    Top: ("constant", _TOP),
    Bot: ("constant", _BOT),
    Not: ("unary", _NOT),
    Dia: ("unary", _DIA),
    Box: ("unary", _BOX),
    Or: ("binary", _OR),
    And: ("binary", _AND),
    Implies: ("binary", _IMPLIES),
    At: ("at", _AT),
    Down: ("down", _DOWN),
}


class _Program(NamedTuple):
    """Formulas interned into one DAG (see _intern), as tuples and ints.

    keys[i] is node i's key, (tag, slot or None, children's ids...), the
    nodes in order of i, children first; reads[i] the mask of the slots its
    value depends on; calls[i] how often it is called per evaluation, where
    a parent that varies with a binder's slot the node does not read counts
    twice, since it calls the node again with the same value (a binder's
    loop varies with its own slot).  roots are the nodes of the formulas,
    width the slots of the free symbols and of the most binders in scope at
    once, bound the mask of the slots a binder sets."""

    keys: tuple[tuple, ...]
    reads: tuple[int, ...]
    calls: tuple[int, ...]
    roots: tuple[int, ...]
    width: int
    bound: int


def _intern(fs: Sequence[Formula], slots: dict[Symbol, int]) -> _Program:
    """The program of the formulas fs, whose free symbols slots numbers.
    Every question is interned here, kept or not.  A binder numbers its
    variable in slots for the extent of its scope, so slots is as it was
    when this returns."""
    ids: dict[tuple, int] = {}
    reads: list[int] = []
    calls: list[int] = []
    width = len(slots)
    bound = 0

    def intern(h: Formula) -> int:
        nonlocal width, bound
        try:
            shape, tag = _SHAPES[type(h)]
        except KeyError:
            raise TypeError(f"not a formula: {h!r}") from None
        loop = 0
        if shape == "symbol":
            k = slots.get(h.sym)
            if k is None:
                raise UnboundSymbolError(h.sym)
            key, mask = (tag, k), 1 << k
        elif shape == "unary":
            c = intern(h.child)
            key, mask = (tag, None, c), reads[c]
        elif shape == "constant":
            key, mask = (tag, None), 0
        elif shape == "binary":
            a, b = intern(h.lhs), intern(h.rhs)
            key, mask = (tag, None, a, b), reads[a] | reads[b]
        elif shape == "at":
            k = slots.get(h.term)
            if k is None:
                raise UnboundSymbolError(h.term)
            c = intern(h.child)
            key, mask = (tag, k, c), reads[c] | 1 << k
        else:
            v = h.var
            scoped = v not in slots
            if scoped:
                slots[v] = len(slots)
                width = max(width, len(slots))
            k = slots[v]
            loop = 1 << k
            bound |= loop
            c = intern(h.child)
            if scoped:
                # Outside this binder an occurrence of v is unbound.
                del slots[v]
            # The binder sets slot k itself: its value does not depend on it.
            key, mask = (tag, k, c), reads[c] & ~loop
        i = ids.get(key)
        if i is None:
            i = ids[key] = len(reads)
            reads.append(mask)
            calls.append(0)
            varies = (mask | loop) & bound
            for c in key[2:]:
                calls[c] += 2 if varies & ~reads[c] else 1
        return i

    roots = tuple(intern(f) for f in fs)
    for i in roots:
        calls[i] += 1
    return _Program(tuple(ids), tuple(reads), tuple(calls), roots, width, bound)


# The per-world bodies that the kernels and _valid_mask run, generated once
# per world count n (_bodies) from the template below, one function per
# operation, written out world by world: a run of template lines that
# start with "~" is repeated once per world, "<pattern>" stands for the
# pattern once per world joined by ", " and "<|pattern>" joined by " | ",
# and "{w}" is the world.  So a body does for each world in turn what a loop over the
# worlds would, without the loop; the source grows linearly with n, as <>
# and [] loop over the rows and write out only the columns.
#
# Every body tests an operand for 0 by value and for the bound full mask by
# identity, and then does no big-int work on it: a negation swaps the two
# constants, a conjunction or disjunction returns the other operand or the
# constant, and <> skips a world whose value is 0 and takes the edge mask
# itself where it is full, so <>'i returns the edge masks into i's world
# untouched.  [] is <> fused between two negations: it negates each column
# once, before its loop over the rows, and each row as <> ends it.  @ tests
# for full by equality, as `in` does.  kernel_bodies binds the kernels'
# bodies to a block's full mask and edge rows (bind); check_bodies binds
# _valid_mask's inclusion test and AND over worlds of the translation to
# its full mask and the frames and members that lack each world.
_BODY_TEMPLATE = """
def kernel_bodies(full, rows):
    def neg(xs):
        [<x{w}>] = xs
        return (
            ~0 if x{w} is full else full if not x{w} else full ^ x{w},
        )

    def conj(xs, ys):
        [<x{w}>] = xs
        [<y{w}>] = ys
        return (
            ~x{w} if not x{w} or y{w} is full
            ~else y{w} if x{w} is full or not y{w} else x{w} & y{w},
        )

    def disj(xs, ys):
        [<x{w}>] = xs
        [<y{w}>] = ys
        return (
            ~x{w} if x{w} is full or not y{w}
            ~else y{w} if y{w} is full or not x{w} else x{w} | y{w},
        )

    def implies(xs, ys):
        [<x{w}>] = xs
        [<y{w}>] = ys
        return (
            ~full if not x{w} or y{w} is full
            ~else y{w} if x{w} is full
            ~else (full ^ x{w}) | y{w} if y{w} else full ^ x{w},
        )

    def dia(xs):
        [<x{w}>] = xs
        out = []
        for [<e{w}>] in rows:
            acc = 0
            ~if x{w}:
            ~    if x{w} is full:
            ~        acc = acc | e{w} if acc else e{w}
            ~    else:
            ~        acc = acc | e{w} & x{w} if acc else e{w} & x{w}
            out.append(acc)
        return out

    def box(xs):
        [<x{w}>] = xs
        ~x{w} = 0 if x{w} is full else full if not x{w} else full ^ x{w}
        out = []
        for [<e{w}>] in rows:
            acc = 0
            ~if x{w}:
            ~    if x{w} is full:
            ~        acc = acc | e{w} if acc else e{w}
            ~    else:
            ~        acc = acc | e{w} & x{w} if acc else e{w} & x{w}
            out.append(0 if acc is full else full if not acc else full ^ acc)
        return out

    def at(xs, ys):
        if full in xs:
            # The term is at that world in every frame and member, so
            # nowhere else.
            y = ys[xs.index(full)]
        else:
            [<x{w}>] = xs
            [<y{w}>] = ys
            y = <|x{w} & y{w}>
        return (<y>,)

    return neg, conj, disj, implies, dia, box, at


def check_bodies(full, outside):
    [<o{w}>] = outside

    def included(xs, ys):
        [<x{w}>] = xs
        [<y{w}>] = ys
        m = full
        ~if x{w} and y{w} is not full:
        ~    z = y{w} if x{w} is full else (full ^ x{w}) | y{w}
        ~    if o{w}:
        ~        z |= o{w}
        ~    m = z if m is full else m & z
        return m

    def conjoined(xs):
        [<x{w}>] = xs
        m = full
        ~if o{w} and x{w} is not full:
        ~    x{w} |= o{w}
        ~if x{w} is not full:
        ~    m = x{w} if m is full else m & x{w}
        return m

    return included, conjoined
"""


def _written_out(template: str, n: int) -> str:
    """template written out for worlds 0..n-1 (see _BODY_TEMPLATE)."""
    worlds = [str(w) for w in range(n)]

    def joined(m: re.Match) -> str:
        sep = " | " if m[1] else ", "
        return sep.join(m[2].replace("{w}", w) for w in worlds)

    lines: list[str] = []
    group: list[str] = []  # consecutive lines repeated once per world
    for line in [*template.splitlines(), ""]:
        line = re.sub(r"<(\|?)([^<>]*)>", joined, line)
        text = line.lstrip()
        if text.startswith("~"):
            group.append(line[: len(line) - len(text)] + text[1:])
            continue
        lines.extend(g.replace("{w}", w) for w in worlds for g in group)
        group.clear()
        lines.append(line)
    return "\n".join(lines)


class _Bodies(NamedTuple):
    """The factories of the bodies for one world count (see _BODY_TEMPLATE)."""

    kernel_bodies: Callable
    check_bodies: Callable


# World counts whose bodies are kept: 1 to 5 for the checks, and a few more
# for single frames of other sizes.
_BODIES_KEPT = 16


@functools.lru_cache(maxsize=_BODIES_KEPT)
def _bodies(n: int) -> _Bodies:
    """The bodies for n worlds, generated from _BODY_TEMPLATE and compiled."""
    namespace: dict = {}
    exec(compile(_written_out(_BODY_TEMPLATE, n), f"<bodies for {n} worlds>", "exec"), namespace)
    return _Bodies(namespace["kernel_bodies"], namespace["check_bodies"])


def _kernels(program: _Program):
    """Kernels computing the per-world frame masks of each root of program
    from an environment list, and bind(frames), which points all of them at
    a block (or a frame) and returns the block's full mask, the object unit
    values should hold.  Bind first, then load the symbols' values in slot
    order, as a new list or by replacing a list's contents (env[:] =
    values), and call the kernels on it."""
    top = bot = units = ()
    neg = conj = disj = implies = dia = box = at = None

    def bind(frames: FrameBlock | KripkeFrame) -> int:
        nonlocal top, bot, units, neg, conj, disj, implies, dia, box, at
        # units[w]: the values of a binder's state variable set to w.
        bot, top, units = _world_sets(frames.size, frames.count)
        full = top[0]
        bodies = _bodies(frames.size).kernel_bodies(full, frames.edges)
        neg, conj, disj, implies, dia, box, at = bodies
        return full

    # The kernels, children first, each calling the bound body of its node
    # (see _BODY_TEMPLATE).  A shared node's kernel keeps its value in cell
    # `size` of the list; stale[k] lists the cells of the shared nodes that
    # read slot k, which a binder of k clears.
    size = program.width
    stale: list[list[int]] = [[] for _ in range(size)]
    kernels: list = []
    for key, reads, calls in zip(program.keys, program.reads, program.calls):
        t = key[0]
        if t == _SLOT:
            kernel = lambda env, k=key[1]: env[k]
        elif t == _NOT:
            kernel = lambda env, a=kernels[key[2]]: neg(a(env))
        elif t == _DIA:
            kernel = lambda env, a=kernels[key[2]]: dia(a(env))
        elif t == _BOX:
            kernel = lambda env, a=kernels[key[2]]: box(a(env))
        elif t == _AT:
            kernel = lambda env, k=key[1], a=kernels[key[2]]: at(env[k], a(env))
        elif t == _AND:
            kernel = lambda env, a=kernels[key[2]], b=kernels[key[3]]: conj(a(env), b(env))
        elif t == _OR:
            kernel = lambda env, a=kernels[key[2]], b=kernels[key[3]]: disj(a(env), b(env))
        elif t == _IMPLIES:
            kernel = lambda env, a=kernels[key[2]], b=kernels[key[3]]: implies(a(env), b(env))
        elif t == _DOWN:

            def kernel(env, k=key[1], a=kernels[key[2]], cells=stale[key[1]]):
                saved = env[k]
                out = []
                for w, unit in enumerate(units):
                    env[k] = unit
                    for cell in cells:
                        env[cell] = None
                    out.append(a(env)[w])
                env[k] = saved
                for cell in cells:
                    env[cell] = None
                return out

        elif t == _TOP:
            kernel = lambda env: top
        else:
            kernel = lambda env: bot
        if calls > 1 and len(key) > 2:  # a leaf costs less than its cell
            kernel = _shared(kernel, size)
            m = reads & program.bound
            while m:
                s = m.bit_length() - 1
                stale[s].append(size)
                m ^= 1 << s
            size += 1
        kernels.append(kernel)

    def entry(kernel):
        def root(env):
            if len(env) < size:
                # Just loaded: no binder slot is set and no shared value kept.
                env.extend([None] * (size - len(env)))
            return kernel(env)

        return root

    return [entry(kernels[i]) for i in program.roots], bind


def _compile(fs: Sequence[Formula], slots: dict[Symbol, int]):
    """The kernels of the formulas fs, interned afresh, and their bind
    (see _kernels)."""
    return _kernels(_intern(fs, slots))


def _shared(kernel, cell: int):
    """kernel, keeping its value in cell of the environment list until the
    cell is cleared."""

    def evaluated_once(env):
        value = env[cell]
        if value is None:
            value = env[cell] = kernel(env)
        return value

    return evaluated_once


class _Question(NamedTuple):
    """An item's validity question as far as no frames value changes it,
    kept on the item that poses it (see _question): its props, nominals and
    free state variables, each sorted by name, which number its slots in
    that order, and its program once interned (None before)."""

    props: tuple[Symbol, ...]
    nominals: tuple[Symbol, ...]
    svars: tuple[Symbol, ...]
    program: _Program | None = None

    @property
    def slots(self) -> dict[Symbol, int]:
        return {s: k for k, s in enumerate(self.props + self.nominals + self.svars)}


def _question(item: Formula | Inequality | QuasiInequality) -> _Question:
    """The question that item poses, kept on it as syntax keeps a node's
    symbols: a quasi-inequality asks whether it is valid, a formula or an
    inequality f whether => as_inequality(f) is.  Its symbols are sorted
    once per item."""
    question = item._question
    if question is None:
        question = item.__dict__["_question"] = _Question(*map(tuple, sorted_symbols(item)))
    return question


def _sides(item: Formula | Inequality | QuasiInequality) -> list[Formula]:
    """The sides of the inclusions of item's question, each lhs before its
    rhs, the antecedents first and the conclusion last."""
    if isinstance(item, QuasiInequality):
        return [f for i in (*item.antecedents, item.conclusion) for f in (i.lhs, i.rhs)]
    conclusion = as_inequality(item)
    return [conclusion.lhs, conclusion.rhs]


def _program(item: Formula | Inequality | QuasiInequality) -> _Program:
    """The program of item's question, interned on its first decision and
    then kept on it with the question."""
    question = _question(item)
    if question.program is None:
        question = question._replace(program=_intern(_sides(item), question.slots))
        item.__dict__["_question"] = question
    return question.program


# The most cases one check may decide: see check_cases.  Within it the
# largest table of canonical valuations and placements has about 2^19
# members (20 nominals on the block of every frame of 2 worlds).
MAX_CASES = 1 << 20


def check_cases(
    item: Formula | QuasiInequality, frames: EnumerationLimits | FrameBlock | KripkeFrame
) -> int:
    """The cases of deciding item on frames: on a block of n worlds, every
    valuation of its props and placement of its nominals and free state
    variables, n^nominals * 2^(n*props) * n^state-variables, summed over
    the blocks (those of frame_blocks for limits, whose world cap is
    checked first).  The symbols are those kept on item (see _question)."""
    question = _question(item)
    props, noms, svars = len(question.props), len(question.nominals), len(question.svars)
    if isinstance(frames, EnumerationLimits):
        _check_world_cap(frames.max_worlds)
        # 2^max(0, n*n - 16) blocks of each size n
        return sum(
            n ** (noms + svars) << n * props + max(0, n * n - BLOCK_EDGE_BITS)
            for n in range(1, frames.max_worlds + 1)
        )
    return frames.size ** (noms + svars) << frames.size * props


def admit(cases: int) -> None:
    """Raise EnumerationCapError if a check of this many cases exceeds MAX_CASES."""
    if cases > MAX_CASES:
        raise EnumerationCapError(f"{cases:,} cases exceed the budget of {MAX_CASES:,} per check")


def _renamable(frames: FrameBlock | KripkeFrame) -> int:
    """How many worlds can be permuted without leaving frames: all n of a
    block that holds every frame of its size n (n <= 4), else 1 (a single
    frame, or a part of a size whose frames span several blocks)."""
    return frames.size if frames.count == 1 << frames.size * frames.size else 1


# (valuation, placement, weights): see _members
Member = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
# Members decided side by side: see _tables
Batch = Sequence[Member]


def _members(p: int, k: int, n: int, renamable: tuple[int, ...]) -> Iterable[Member]:
    """The valuations of p props and placements of k symbols in worlds
    0..n-1 that a block decides, given _renamable of each of its parts, as
    (valuation, placement, weights) in lexicographic order: weights[i] is
    how many valuations and placements the member stands for on part i.

    A valuation is a tuple of p masks over the worlds (bit w of the i-th is
    set iff prop i holds at w).  With nothing renamable (a block of one
    part) every valuation and placement comes with weight (1,), generated
    lazily in the order of the full product.  Otherwise each part holds
    every frame of its size, and the members are _orbit_members(p, k,
    renamable).  Every table of the validity checks is built here.
    """
    if max(renamable) == 1:
        return (
            (valuation, placement, (1,))
            for valuation in itertools.product(range(1 << n), repeat=p)
            for placement in itertools.product(range(n), repeat=k)
        )
    return _orbit_members(p, k, renamable)


# Entries kept by each table cache.  Each table is built once per key; the
# benchmark's workloads use at most 40 keys of _orbit_members and 16 of
# _one_batch (axioms), all four together 52 and 19.
_TABLES_KEPT = 64


@functools.lru_cache(maxsize=_TABLES_KEPT)
def _orbit_members(p: int, k: int, sizes: tuple[int, ...]) -> tuple[Member, ...]:
    """One valuation of p props and placement of k symbols in worlds
    0..n-1 (n = sizes[-1]) per orbit of their permutations, as (valuation,
    placement, weights) in lexicographic order, weighed once per part of a
    block whose parts hold every frame of each size of sizes: a whole
    block, sizes (n,), or _small_frames(n), sizes (1, ..., n).

    Colour each world by its prop bits, prop 1 the most significant.  A
    valuation is canonical iff the colours do not decrease over the worlds;
    its stabiliser permutes each run of equal colour.  Within that, a
    placement is canonical iff it is a restricted growth string on each
    run: a symbol goes to a world of a run at most one above the highest
    world of that run used so far.  That is the least member of its orbit,
    ordering pairs by their colours world by world and then by the
    placement.  With runs of lengths r_i of which j_i worlds are used, the
    orbit has (n! / prod r_i!) * prod r_i(r_i-1)...(r_i-j_i+1) members: the
    weight on the part of n worlds.  With no props there is one run and
    these are the restricted growth strings of the placements.

    On the part of s < n worlds a member decides its restriction to worlds
    0..s-1, whose weight is the size of its orbit under their permutations.
    It weighs 0 there if it places a symbol at a world >= s (it holds
    vacuously there) or if an earlier member has the same restriction.  The
    restrictions are the canonical members of s worlds: colours that do not
    decrease over every world do so over the first s, and a placement in
    the first s grows within the same runs.  So each of those is weighed
    once, and the models checked and mismatched stay exact.
    """
    *smaller, n = sizes
    unweighed = [{(v, pl): w for v, pl, (w,) in _orbit_members(p, k, (s,))} for s in smaller]
    out = []
    prefix = [0] * k
    for colour in itertools.combinations_with_replacement(range(1 << p), n):
        valuation = tuple(
            sum(((c >> (p - 1 - i)) & 1) << w for w, c in enumerate(colour)) for i in range(p)
        )
        # run[w]: the first world of w's run of equal colour
        run = [0] * n
        for w in range(1, n):
            run[w] = run[w - 1] if colour[w] == colour[w - 1] else w
        lengths = collections.Counter(run)
        orbit = math.factorial(n) // math.prod(map(math.factorial, lengths.values()))
        used = dict.fromkeys(lengths, 0)

        def grow(i: int) -> None:
            """Extend prefix[:i], which uses worlds run..run+used[run]-1 of each run."""
            if i == k:
                placement = tuple(prefix)
                top = max(placement, default=0)
                restricted = (
                    left.pop((tuple(v & (1 << s) - 1 for v in valuation), placement), 0)
                    if top < s
                    else 0
                    for s, left in zip(smaller, unweighed)
                )
                weight = orbit * math.prod(math.perm(lengths[r], used[r]) for r in lengths)
                out.append((valuation, placement, (*restricted, weight)))
                return
            for w in range(n):
                r = run[w]
                before = used[r]
                if w - r > before:
                    continue
                prefix[i] = w
                used[r] = max(before, w - r + 1)
                grow(i + 1)
                used[r] = before

        grow(0)
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


# For m renamable worlds, transpositions t_1..t_r whose products
# t_r^e_r ... t_1^e_1 (each e_i 0 or 1) are every permutation of them.
_RENAMING_COVERS = {
    1: (),
    2: ((0, 1),),
    3: ((0, 1), (0, 2), (1, 2)),
    4: ((0, 1), (0, 2), (1, 3), (0, 1), (2, 3)),
}


def _close_under_renaming(mask: int, n: int, m: int) -> int:
    """The frames of size n all of whose renamings under the permutations of
    worlds 0..m-1 lie in mask.

    If mask is closed under a set P of permutations, mask AND its renaming
    by t is closed under P and tP.  So ANDing in turn the renamings by the
    transpositions of _RENAMING_COVERS[m] closes it under all of them.
    """
    for pair in _RENAMING_COVERS[m]:
        renamed = mask
        for shift, selector in _world_swaps(n)[pair]:
            t = ((renamed >> shift) ^ renamed) & selector
            renamed ^= t | (t << shift)
        mask &= renamed
    return mask


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------
#
# The loop decides up to 2^_BATCH_BITS / count valuations and placements
# side by side on a block (or frame) of count frames: bit b*count + j of a
# value stands for the batch's member b in frame j, in segment b of the
# value.  The closures are bound to the block repeated once per member
# (_replicated), so one evaluation decides the batch.  A block of 2^16
# frames (4 worlds or more) decides batches of one.

_BATCH_BITS = BLOCK_EDGE_BITS


def _spread(mask: int, count: int, members: int) -> int:
    """mask, over a block's count frames, in each segment of a batch of
    members; doubling keeps it linear in the result."""
    if members == 1:
        return mask
    have = 1
    while have < members:
        mask |= mask << have * count
        have *= 2
    return mask & ((1 << members * count) - 1)


def _fold(mask: int, count: int, members: int) -> int:
    """The frames whose bits are set in every segment of mask that a batch
    of members uses.  The unused tail is set, up to a power of two
    segments, and the halves are ANDed until one segment is left."""
    if members == 1:
        return mask
    segments = 1 << (members - 1).bit_length()
    mask |= (1 << segments * count) - (1 << members * count)
    while segments > 1:
        segments >>= 1
        mask &= mask >> segments * count
    return mask


def _batch_width(frames: FrameBlock | KripkeFrame) -> int:
    """How many valuations and placements at most are decided side by side
    on frames: as many as fit in 2^_BATCH_BITS bits, at least one."""
    return max(1, (1 << _BATCH_BITS) // frames.count)


@functools.lru_cache(maxsize=32)
def _replicated(frames: FrameBlock | KripkeFrame, members: int) -> FrameBlock:
    """frames repeated members > 1 times side by side, which a batch of
    that many members is decided on: its frame b*frames.count + j is frame
    j.  Only frames of fewer than 2^16 frames are repeated, so a key is
    cheap to hash and an entry holds at most n*n values of 8 KB."""
    edges = tuple(tuple(_spread(e, frames.count, members) for e in row) for row in frames.edges)
    return FrameBlock(frames.size, 0, members * frames.count, edges)


@functools.cache
def _segment_pieces(count: int) -> tuple[int, dict[tuple[int, ...], bytes]]:
    """(per, pieces): per segments of count bits are the fewest that fill
    whole bytes, and pieces maps their flags to those bytes, a segment all
    ones iff its flag is 1."""
    per = 8 // math.gcd(count, 8)
    ones = (1 << count) - 1
    pieces = {
        flags: sum(ones << i * count for i, f in enumerate(flags) if f).to_bytes(
            per * count // 8, "little"
        )
        for flags in itertools.product((0, 1), repeat=per)
    }
    return per, pieces


@functools.lru_cache(maxsize=64)
def _world_sets(
    n: int, count: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(nowhere, everywhere, units): the per-world values, over count
    frames, of a symbol that holds (is placed) at no world, at every world
    and at world w alone (units[w]): all ones there and 0 elsewhere.  These
    n + 2 sets are all that bind reads.  Every all-ones value is one
    object, the full mask that bind returns."""
    full = (1 << count) - 1
    worlds = range(n)
    return (0,) * n, (full,) * n, tuple(tuple(full if v == w else 0 for v in worlds) for w in worlds)


def _widen(reps: Batch, n: int, count: int) -> Sequence[tuple[int, ...]]:
    """The environment that decides reps side by side on count frames of
    size n: for each slot its per-world values, whose segment b (bits
    b*count up) is all ones iff, under reps[b], the prop holds (the symbol
    is placed) at that world.  One member's values hold the full mask of
    _world_sets, a placement's are looked up there; more members' are joined
    from bytes, in time linear in their size."""
    if len(reps) == 1:
        ((valuation, placement, _),) = reps
        _, everywhere, units = _world_sets(n, count)
        full = everywhere[0]
        props = [tuple(full if s >> w & 1 else 0 for w in range(n)) for s in valuation]
        return props + [units[w] for w in placement]
    per, pieces = _segment_pieces(count)
    pad = [0] * (-len(reps) % per)

    def widened(flags: list[int]) -> int:
        groups = zip(*[iter(flags + pad)] * per)
        return int.from_bytes(b"".join(map(pieces.__getitem__, groups)), "little")

    rows = (valuation + tuple(1 << w for w in placement) for valuation, placement, _ in reps)
    return tuple(
        tuple(widened([x >> w & 1 for x in column]) for w in range(n)) for column in zip(*rows)
    )


@functools.lru_cache(maxsize=_TABLES_KEPT)
def _one_batch(
    p: int, k: int, n: int, renamable: tuple[int, ...], count: int, lacking: tuple[int, ...]
) -> tuple[Batch, tuple, int]:
    """Every member of _members(p, k, n, renamable) as one batch, with its
    environment and absent mask on a block of count frames of n worlds
    whose frames lack the worlds of lacking (see _absent); only built when
    they fit in one batch and are more than one (see _tables)."""
    batch = tuple(_members(p, k, n, renamable))
    values = _widen(batch, n, count)
    return batch, values, _absent(values, p, count, lacking, len(batch))


def _absent(
    values: Sequence[tuple[int, ...]],
    p: int,
    count: int,
    lacking: tuple[int, ...],
    members: int,
) -> int:
    """The environment values' absent mask on a block of count frames, of
    which lacking[w] masks those that lack world w: bit b*count + j is set
    iff member b places a symbol (slots p up) at a world that frame j
    lacks.  Where no frame lacks a world the values are not read."""
    absent = 0
    for w, lacks in enumerate(lacking):
        placed = lacks and functools.reduce(operator.or_, (x[w] for x in values[p:]), 0)
        if placed:
            absent |= placed & _spread(lacks, count, members)
    return absent


MAX_COUNTEREXAMPLES = 5


def _tables(
    p: int,
    k: int,
    block: FrameBlock | KripkeFrame,
    renamable: tuple[int, ...],
    lacking: tuple[int, ...],
) -> Iterator[tuple[Batch, Sequence, int]]:
    """_members(p, k, block.size, renamable), in lexicographic order, cut
    into batches of _batch_width(block), each with the environment that
    decides it on the block repeated once per member (member b in segment b
    of every value, bits b*block.count up) and its absent mask on the
    frames that lack the worlds of lacking (see _absent)."""
    n, count = block.size, block.count
    width = _batch_width(block)
    members = _members(p, k, n, renamable)
    # The lazy product of every valuation and placement has no len.
    total = len(members) if isinstance(members, tuple) else n**k << n * p
    # A table that fits in one batch is widened once, unless it has one
    # member: that one's values are looked up afresh in _world_sets, as
    # bind's full is, so that they are that object itself even after
    # _world_sets has dropped and rebuilt the entry.
    if 1 < total <= width:
        yield _one_batch(p, k, n, renamable, count, lacking)
        return
    rest = iter(members)
    for chunk in iter(lambda: tuple(itertools.islice(rest, width)), ()):
        values = _widen(chunk, n, count)
        yield chunk, values, _absent(values, p, count, lacking, len(chunk))


def _valid_mask(
    frames: EnumerationLimits | FrameBlock | KripkeFrame,
    item: Formula | QuasiInequality,
    translation: Formula | None = None,
) -> tuple[int, int, int, list[dict]]:
    """The one loop over blocks and batches, behind frame_valid,
    frame_valid_quasi and equivalence_check.  None of them calls another,
    so the perfbench tracer counts a call of each exactly once.

    item poses the question whether a quasi-inequality q is valid: q
    itself, or => as_inequality(f) for a formula f (see _question).  The
    check of q on the blocks of frames is admitted, its cases summed over
    them, before anything is built.  The kernels are then built once, from
    the program kept on item or, with a translation, from one interned for
    this call, and q is decided block by block (for limits, those of
    _decided_blocks), a batch at a time; the antecedents and the conclusion
    are judged against one shared environment.  Every block is
    read through _layout, as parts and the worlds its frames lack.  Only
    canonical valuations and placements are decided; closing each part of
    the block's mask under renaming its worlds gives the frames on which q
    holds under every one.  With no symbol at all the one empty placement
    is decided already.  An inclusion and the translation hold at every
    world a frame lacks, and a member holds vacuously on the frames that
    lack a world it places a symbol at.

    Returns (mask, checked, mismatched, mismatches).  Every batch is
    decided on all its frames and members, and the block's mask keeps the
    frames on which q held under every member so far.  Without a
    translation a block stops deciding once its mask is empty, and the
    other three are 0, 0 and [].  With one, each batch is also compared
    with the AND over worlds of the translation: checked adds each part's
    frames times its summed weights there, and a batch is split into its
    members only when the two differ, to add each member's differing
    frames of a part times its weight there to mismatched and to decode
    the first MAX_COUNTEREXAMPLES of them, part by part.
    """
    admit(check_cases(item, frames))
    blocks = _decided_blocks(frames) if isinstance(frames, EnumerationLimits) else [frames]
    question = _question(item)
    if translation is None:
        compiled, bind = _kernels(_program(item))
        translated_at = None
    else:
        (*compiled, translated_at), bind = _compile([*_sides(item), translation], question.slots)
    p, k = len(question.props), len(question.nominals) + len(question.svars)
    env: list[tuple[int, ...]] = [()] * (p + k)
    full = 0
    # The inclusion test and the AND over worlds of the translation, bound
    # to full and the frames and members that lack each world (see
    # _BODY_TEMPLATE); an operand that is 0 or the bound full itself costs
    # them no big-int work, as it costs the kernels none.
    included = conjoined = None

    def rebind(frames: FrameBlock | KripkeFrame, outside: Sequence[int]) -> None:
        nonlocal full, included, conjoined
        full = bind(frames)
        included, conjoined = _bodies(frames.size).check_bodies(full, outside)

    *antecedents, (lc, rc) = zip(compiled[::2], compiled[1::2])

    def holds() -> int:
        """Mask of the bound frames (and members) on which q holds."""
        held = full
        for lf, rf in antecedents:
            m = included(lf(env), rf(env))
            if m is not full:
                held = m if held is full else held & m
                if not held:
                    return full
        m = included(lc(env), rc(env))
        if m is full:
            return full
        return m if held is full else (full ^ held) | m

    checked = mismatched = 0
    mismatches: list[dict] = []

    def decided() -> Iterator[tuple[int, int]]:
        nonlocal checked, mismatched
        for block in blocks:
            parts, lacking = _layout(block)
            renamable = tuple(_renamable(part) for _, part in parts)
            # The mask starts at every frame of the block and keeps those
            # on which q holds under every batch; the first batch binds the
            # kernels.
            whole = mask = block.full
            count, members = block.count, 0
            found: list[list[dict]] = [[] for _ in parts]
            for batch, values, absent in _tables(p, k, block, renamable, lacking):
                if len(batch) != members:
                    members = len(batch)
                    rebind(
                        block if members == 1 else _replicated(block, members),
                        [_spread(x, count, members) for x in lacking],
                    )
                env[:] = values
                held = holds()
                if held is not full:
                    if absent:
                        held |= absent
                    mask &= _fold(held, count, members)
                if translated_at is None:
                    if not mask:
                        break
                    continue
                translated = conjoined(translated_at(env))
                if absent:
                    translated |= absent
                checked += sum(
                    part.count * w for *_, ws in batch for (_, part), w in zip(parts, ws)
                )
                diff = 0 if held is translated else held ^ translated
                if not diff:
                    continue
                for b, (_, placement, ws) in enumerate(batch):
                    segment = diff >> b * count & whole
                    for (offset, part), weight, kept in zip(parts, ws, found):
                        bits = segment >> offset & part.full
                        if not bits or not weight:
                            continue
                        mismatched += weight * bits.bit_count()
                        if len(kept) < MAX_COUNTEREXAMPLES:
                            j = (bits & -bits).bit_length() - 1
                            frame = _frame_of(part, j)
                            model = KripkeModel(frame, {}, dict(zip(question.nominals, placement)))
                            g = dict(zip(question.svars, placement[len(question.nominals) :]))
                            globally = bool(translated >> b * count + offset + j & 1)
                            kept.append(
                                {
                                    "model": model_to_json(model, g),
                                    "direct": not globally,
                                    "translated": globally,
                                }
                            )
            # An empty or full mask is closed under renaming already.
            if p + k and mask and mask != whole:
                mask = _concatenated(
                    (_close_under_renaming(mask >> offset & part.full, part.size, m), part.count)
                    for (offset, part), m in zip(parts, renamable)
                )
            for kept in found:
                mismatches.extend(kept[: MAX_COUNTEREXAMPLES - len(mismatches)])
            yield mask, count

    return _concatenated(decided()), checked, mismatched, mismatches


def _frame_of(part: FrameBlock | KripkeFrame, j: int) -> KripkeFrame:
    """Frame j of a part, read off bit j of its edge masks."""
    worlds = range(part.size)
    edges = frozenset((u, v) for u in worlds for v in worlds if part.edges[u][v] >> j & 1)
    return KripkeFrame(part.size, edges)


def _concatenated(parts: Iterable[tuple[int, int]]) -> int:
    """The masks of parts, given as (mask, width) in order, laid end to end.

    A part is merged into the one before it once it is at least as wide,
    as in a binary counter, so each bit is copied about log2(number of
    parts) times and the pending parts never outgrow the result; adding
    each part at its offset into the whole would copy the whole once per
    part (512 times 4 MB at 5 worlds).
    """
    stack: list[tuple[int, int]] = []

    def merge_top() -> None:
        (lo, width), (hi, w) = stack[-2:]
        stack[-2:] = [(lo | hi << width, width + w)]

    for part in parts:
        stack.append(part)
        while len(stack) > 1 and stack[-2][1] <= stack[-1][1]:
            merge_top()
    while len(stack) > 1:
        merge_top()
    return stack[0][0]


def frame_valid(frames: EnumerationLimits | FrameBlock | KripkeFrame, f: Formula) -> int:
    """Mask of the frames on which f holds at every world under every
    valuation and assignment (0 or 1 for a single frame).

    f is decided as the quasi-inequality with no antecedents whose
    conclusion is as_inequality(f): an implication l -> r as l <= r,
    anything else as T <= f.  Only symbols occurring in f are enumerated;
    absent symbols cannot affect the truth value.
    """
    return _valid_mask(frames, f)[0]


def frame_valid_quasi(
    frames: EnumerationLimits | FrameBlock | KripkeFrame, q: QuasiInequality
) -> int:
    """Mask of the frames on which q holds under every valuation, nominal
    placement and assignment; 0 or 1 for a single frame.

    The antecedents and the conclusion are judged against one shared
    valuation and assignment.
    """
    return _valid_mask(frames, q)[0]


def equivalence_check(
    q: QuasiInequality,
    f: Formula,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> tuple[int, int, int, list[dict]]:
    """Decide the pure q on every frame with up to limits.max_worlds worlds
    and compare it, on every model there (a frame and a placement of q's
    nominals and state variables), with the formula f: q should hold iff f
    is globally true.

    Returns (valid, checked, mismatched, mismatches): the mask of the frames
    on which q is valid, as frame_valid_quasi(limits, q) gives it; the
    models checked; the models on which
    q and f differ; and the first MAX_COUNTEREXAMPLES of those decoded,
    each as {"model", "direct", "translated"}.
    """
    require_pure(q)
    return _valid_mask(limits, q, f)


def require_pure(q: QuasiInequality) -> None:
    """Raise ValueError, naming them, if q mentions propositional variables."""
    props = _question(q).props
    if props:
        raise ValueError(f"quasi-inequality is not pure: contains {', '.join(map(str, props))}")


def frame_valid_quasi_set(
    frames: EnumerationLimits | FrameBlock | KripkeFrame, qs: Iterable[QuasiInequality]
) -> int:
    """Mask of the frames on which every quasi-inequality of qs is valid:
    frames.full, within the world cap, if qs is empty."""
    valid = -1  # every bit set, without building frames.full (4 MB at 5 worlds)
    for q in qs:
        valid &= frame_valid_quasi(frames, q)
        if not valid:
            break
    return frames.full if valid == -1 else valid


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


# The same classes decided on a whole block at once from its edge masks,
# independently of the sliced evaluator: each takes the block's edges and full mask and
# returns the mask of the block's frames in the class.  FRAME_CLASSES stays
# the per-frame reference they are tested against.


def _composed(e) -> list[list[int]]:
    """c[a][b]: the frames in which a reaches b in two steps."""
    worlds = range(len(e))
    return [
        [functools.reduce(operator.or_, (e[a][u] & e[u][b] for u in worlds)) for b in worlds]
        for a in worlds
    ]


def _included(xs, ys, full: int) -> int:
    """The frames of full in which every xs[a][b] lies within ys[a][b]."""
    outside = (x & (full ^ y) for row_x, row_y in zip(xs, ys) for x, y in zip(row_x, row_y))
    return full ^ functools.reduce(operator.or_, outside, 0)


_SLICED_CLASSES = {
    "reflexive": lambda e, full: functools.reduce(operator.and_, (r[w] for w, r in enumerate(e))),
    "transitive": lambda e, full: _included(_composed(e), e, full),
    "symmetric": lambda e, full: _included(e, list(zip(*e)), full),
    "dense": lambda e, full: _included(e, _composed(e), full),
    "all": lambda e, full: full,
    "none": lambda e, full: 0,
    "singleton": lambda e, full: full if len(e) == 1 else 0,
}


def frame_class_mask(name: str, frames: EnumerationLimits | FrameBlock | KripkeFrame) -> int:
    """Mask of the frames in the class FRAME_CLASSES[name], computed block by
    block from the edge masks: reflexive is the AND of the diagonal edges,
    transitive is R;R within R, symmetric R within its converse and dense
    R within R;R."""
    sliced = _SLICED_CLASSES[name]
    blocks = frame_blocks(frames) if isinstance(frames, EnumerationLimits) else [frames]
    return _concatenated((sliced(block.edges, block.full), block.count) for block in blocks)


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
