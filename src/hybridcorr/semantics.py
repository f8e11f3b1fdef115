"""Kripke-model evaluation and brute-force frame validity.

Two evaluators live here on purpose.  ``eval_at`` implements the
satisfaction clauses world by world and is the reference oracle, which
``globally_true`` and the ``holds_*`` checks use.  ``_compile`` is the
sliced evaluator: it turns a formula into closures that decide it on a
whole block of frames at once.  A block holds frames of one size n in
``enumerate_frames`` order; every symbol and every compiled formula has one
int per world, whose bit j says whether it holds there (a nominal or state
variable: is placed there) in frame j of the block (the bitslicing
technique of Biham, "A fast new DES implementation in software", FSE 1997,
applied to frames).  ``truth_mask``, ``frame_valid`` and
``frame_valid_quasi`` all evaluate through it; a ``KripkeFrame`` is a block
of one frame.  The property suite keeps it in agreement with the oracle.

Verification enumerates every frame up to a size cap (2 + 16 + 512 = 530
frames for sizes 1..3, 66,066 up to 4) and every valuation of the symbols
that occur in the formula under test.  Each size is one block while it has
at most 2^16 frames; larger sizes split into blocks of 2^16 frames, so a
value never exceeds 8 KB.  One budget bounds every check: its cases, on a
block of n worlds n^nominals * 2^(n*props) * n^state-variables, summed
over the blocks it decides, may not exceed ``MAX_CASES`` = 2^20.
``_valid_mask`` checks the sum once per check (``check_cases``,
``admit``), before any table of valuations and placements is built, and
raises ``EnumerationCapError`` otherwise; ``axioms.check_schemas`` admits
the sum over all its instances, and ``translate.verify_correspondence``
each of its checks, before deciding any.  The validity checks return the
mask of the frames on which the formula is valid; given ``FramesUpTo(cap)``
they decide one item on every frame up to the cap in one call.  Every
question is whether a quasi-inequality is valid: ``_valid_mask`` compiles
it once (symbols, slot map, compiled sides) and then, block by block,
re-binds the compiled closures to the block and runs the one loop over
valuations of props and placements of nominals and state variables.
``frame_valid(f)`` decides ``=> as_inequality(f)`` on it and
``frame_valid_quasi`` decides q; both narrow the frames still in question
batch by batch and stop a block once none is left.  ``equivalence_check``
runs the same loop on a pure q with a formula f compiled beside it,
deciding every batch on every frame and comparing q with f there: that is
the translation check of ``translate``, and the mask it returns is q's
validity, so ``verify`` decides each output once.

Renaming worlds preserves validity: (F, V) satisfies q iff (pi F, pi V)
does.  So on a block that holds every frame of its size (every size up to
4) the loop decides one valuation and placement per orbit of the world
permutations (``_canonical_placements``): the worlds are coloured by the
props that hold there, the colours must not decrease, and nominals and
state variables follow a restricted growth string within each run of equal
colour.  ``_valid_mask`` then closes each block's mask under renaming with
delta swaps on its index bits (``_close_under_renaming``), and the
translation check weighs each placement by its orbit's size: renaming maps
the block's frames onto themselves, so the models checked and mismatched
stay exact.  The first mismatch reported is the one a walk over every
placement would report first, since a canonical placement is the least of
its orbit; later ones come from canonical placements only.  A single
frame, or a block of a size above 4, renames nothing and decides every
valuation and placement, generated lazily unless they fit in one batch.

The loop runs in batches, by one rule for blocks and single frames alike:
on count frames one evaluation decides up to 2^16 / count valuations and
placements side by side (a batch), at least one.  Bit b*count + j of a
value stands for member b of the batch in frame j, and the closures are
bound to the frames repeated once per member (``_replicated``), so a value
still stays within 8 KB.  That is 32,768, 4,096 and 128 members on the
whole blocks of sizes 1..3, one on a block of 2^16 frames (4 worlds and
up) and 65,536 on a single frame.  A batch's mask is its segments ANDed
by halving, with the unused tail of a partial last batch set first.  One
builder (``_widen``) makes every batch's environment: it joins each value
from bytes in linear time, and looks a one-member batch's values up in a
table of world sets per size and frame count.  A table that fits in one
batch is widened once for each (props, symbols, size, renamable worlds,
frame count) (``_one_batch``); a larger one is widened batch by batch,
from the cached representatives or the lazy product.  Both caches keep
the most recently used ``_TABLES_KEPT`` tables.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Iterator, Mapping, Sequence

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
    """The frames a check enumerates: every frame with 1..max_worlds worlds."""

    max_worlds: int = 3


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

    The validity checks run _compile on whole frame blocks under their own
    valuations and placements; this is the one entry that runs it on a
    given model and assignment, which the differential tests compare with
    eval_at world by world."""
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


@dataclass(frozen=True)
class FramesUpTo:
    """Every frame with 1..size worlds, in enumerate_frames order: the
    validity checks decide an item on all of them in one call, one block
    after another, and bit k of their mask stands for frame k."""

    size: int

    @property
    def count(self) -> int:
        return _frames_below(self.size + 1)

    @property
    def full(self) -> int:
        return (1 << self.count) - 1


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


def _check_world_cap(max_size: int, limits: EnumerationLimits) -> None:
    if max_size < 1:
        raise ValueError(f"world cap {max_size} is below 1: a frame has at least one world")
    if max_size > limits.max_worlds:
        raise EnumerationCapError(
            f"max_size {max_size} exceeds the world cap {limits.max_worlds}"
        )
    if max_size > MAX_WORLDS:
        raise EnumerationCapError(
            f"{max_size} worlds would mean {FramesUpTo(max_size).count:,} frames; "
            f"checks stop at {MAX_WORLDS} worlds"
        )


def frame_blocks(
    max_size: int,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> Iterator[FrameBlock]:
    """Every frame with 1..max_size worlds, as blocks in enumerate_frames order."""
    _check_world_cap(max_size, limits)
    return (block for n in range(1, max_size + 1) for block in _blocks_of_size(n))


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
    _check_world_cap(max_size, limits)
    for n in range(1, max_size + 1):
        for m in range(1 << (n * n)):
            yield frame_at(n, m)


# ---------------------------------------------------------------------------
# The sliced evaluator
# ---------------------------------------------------------------------------
#
# Formulas are compiled once per validity question into nested closures over
# a flat environment list that holds the per-world values of every symbol:
# a prop's bit is set where it holds, a nominal's or a state variable's
# where it is placed.  ``slots`` maps each free symbol to its index in that
# list and must number them 0..len(slots)-1; a binder takes the next index
# for the extent of its scope.  The closures read the block only through
# cells that ``bind`` re-points, so one compilation serves every block at no
# cost per evaluation.


def _compile(fs: Sequence[Formula], slots: dict[Symbol, int]):
    """Closures computing the per-world frame masks of each formula of fs
    from an environment list, and bind(frames), which points all of them at
    a block (or a frame) before they are called and returns the block's
    full mask, the object unit values should hold."""
    n = full = 0
    rows = top = bot = units = ()

    def bind(frames: FrameBlock | KripkeFrame) -> int:
        nonlocal n, full, rows, top, bot, units
        n, rows = frames.size, frames.edges
        sets = _world_sets(n, frames.count)
        # units[w]: the values of a binder's state variable set to w.
        bot, top, units = sets[0], sets[-1], [sets[1 << w] for w in range(n)]
        full = top[0]
        return full

    def dia(xs) -> list[int]:
        out = []
        for row in rows:
            acc = 0
            for e, x in zip(row, xs):
                acc |= e & x
            out.append(acc)
        return out

    def slot(s: Symbol) -> int:
        k = slots.get(s)
        if k is None:
            raise UnboundSymbolError(s)
        return k

    def go(h: Formula):
        match h:
            case Prop(s) | Svar(s) | Nom(s):
                k = slot(s)
                return lambda env: env[k]
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

                def at(env):
                    xs, ys = env[k], a(env)
                    if full in xs:
                        # t is at that world in every frame and member, so
                        # nowhere else.  Unit values hold the bound full
                        # itself, so this is an identity test for them.
                        return (ys[xs.index(full)],) * n
                    acc = 0
                    for x, y in zip(xs, ys):
                        acc |= x & y
                    return (acc,) * n

                return at
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
                        env.append(None)
                    out = []
                    for w, unit in enumerate(units):
                        env[k] = unit
                        out.append(a(env)[w])
                    if saved is not None:
                        env[k] = saved
                    return out

                return down
            case _:
                raise TypeError(f"not a formula: {h!r}")

    return [go(f) for f in fs], bind


# The most cases one check may decide: see check_cases.  Within it the
# largest table of canonical valuations and placements has about 2^19
# members (20 nominals on the block of every frame of 2 worlds).
MAX_CASES = 1 << 20


def check_cases(
    item: Formula | QuasiInequality, blocks: Iterable[FrameBlock | KripkeFrame]
) -> int:
    """The cases of deciding item on blocks: on a block of n worlds, every
    valuation of its props and placement of its nominals and free state
    variables, n^nominals * 2^(n*props) * n^state-variables, summed over
    the blocks."""
    props, noms, svars = map(len, sorted_symbols(item))
    return sum(b.size ** (noms + svars) << b.size * props for b in blocks)


def admit(cases: int) -> None:
    """Raise EnumerationCapError if a check of this many cases exceeds MAX_CASES."""
    if cases > MAX_CASES:
        raise EnumerationCapError(f"{cases:,} cases exceed the budget of {MAX_CASES:,} per check")


def _renamable(frames: FrameBlock | KripkeFrame) -> int:
    """How many worlds can be permuted without leaving frames: all n of a
    block that holds every frame of its size n (n <= 4), else 1 (a single
    frame, or a part of a size whose frames span several blocks)."""
    return frames.size if frames.count == 1 << frames.size * frames.size else 1


# (valuation, placement, weight): see _canonical_placements
Representative = tuple[tuple[int, ...], tuple[int, ...], int]
# Representatives decided side by side: see _tables
Batch = Sequence[Representative]


def _canonical_placements(p: int, k: int, n: int, m: int) -> Iterable[Representative]:
    """One valuation of p props and placement of k symbols in worlds
    0..n-1 per orbit of the permutations of worlds 0..m-1, as (valuation,
    placement, orbit size) in lexicographic order.

    A valuation is a tuple of p masks over the worlds (bit w of the i-th is
    set iff prop i holds at w).  With m = 1 nothing is renamable: every
    valuation and placement comes with weight 1, generated lazily in the
    order of the full product.  Otherwise see _orbit_representatives.
    """
    if m == 1:
        return (
            (valuation, placement, 1)
            for valuation in itertools.product(range(1 << n), repeat=p)
            for placement in itertools.product(range(n), repeat=k)
        )
    return _orbit_representatives(p, k, n, m)


# Entries kept by _orbit_representatives and _one_batch.  Each table is
# built once per key; the benchmark's workloads use at most 24 and 36
# distinct keys (agree3), all four together 29 and 39.
_TABLES_KEPT = 64


@functools.lru_cache(maxsize=_TABLES_KEPT)
def _orbit_representatives(p: int, k: int, n: int, m: int) -> tuple[Representative, ...]:
    """The canonical members of the orbits of _canonical_placements, m > 1.

    Colour each world by its prop bits, prop 1 the most significant.  A
    valuation is canonical iff the colours do not decrease over the
    renamable worlds; its stabiliser permutes each run of equal colour.
    Within that, a placement is canonical iff it is a restricted growth
    string on each run: a symbol goes to a world of a run at most one above
    the highest world of that run used so far, or to any world >= m.  That
    is the least member of its orbit, ordering pairs by their colours world
    by world and then by the placement.  With runs of lengths r_i of which
    j_i worlds are used, the orbit has (m! / prod r_i!) * prod
    r_i(r_i-1)...(r_i-j_i+1) members.  With no props there is one run and
    these are the restricted growth strings of the placements.
    """
    out = []
    prefix = [0] * k
    colours = range(1 << p)
    for renamable in itertools.combinations_with_replacement(colours, m):
        for fixed in itertools.product(colours, repeat=n - m):
            colour = renamable + fixed
            valuation = tuple(
                sum(((c >> (p - 1 - i)) & 1) << w for w, c in enumerate(colour))
                for i in range(p)
            )
            # run[w]: the first world of w's run of equal colour
            run = [0] * m
            for w in range(1, m):
                run[w] = run[w - 1] if colour[w] == colour[w - 1] else w
            lengths = collections.Counter(run)
            orbit = math.factorial(m) // math.prod(map(math.factorial, lengths.values()))
            used = dict.fromkeys(lengths, 0)

            def grow(i: int) -> None:
                """Extend prefix[:i], which uses worlds run..run+used[run]-1 of each run."""
                if i == k:
                    weight = orbit * math.prod(math.perm(lengths[r], used[r]) for r in lengths)
                    out.append((valuation, tuple(prefix), weight))
                    return
                for w in range(n):
                    if w >= m:
                        prefix[i] = w
                        grow(i + 1)
                        continue
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


def _segments(mask: int, count: int, members: int) -> list[int]:
    """mask split into one mask over a block's count frames per member."""
    frames = (1 << count) - 1
    return [mask >> b * count & frames for b in range(members)]


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
    """(per, pieces): per segments of count bits fill whole bytes, and
    pieces maps their flags to those bytes, a segment all ones iff its flag
    is 1."""
    per = max(1, 8 // count)
    ones = (1 << count) - 1
    pieces = {
        flags: sum(ones << i * count for i, f in enumerate(flags) if f).to_bytes(
            max(1, count // 8), "little"
        )
        for flags in itertools.product((0, 1), repeat=per)
    }
    return per, pieces


@functools.lru_cache(maxsize=64)
def _world_sets(n: int, count: int) -> tuple[tuple[int, ...], ...]:
    """values[s]: the per-world values, over count frames, of a symbol that
    holds (is placed) at the worlds of the set bits of s: all ones there
    and 0 elsewhere."""
    full = (1 << count) - 1
    return tuple(tuple(full if s >> w & 1 else 0 for w in range(n)) for s in range(1 << n))


def _widen(reps: Batch, n: int, count: int) -> Sequence[tuple[int, ...]]:
    """The environment that decides reps side by side on count frames of
    size n: for each slot its per-world values, whose segment b (bits
    b*count up) is all ones iff, under reps[b], the prop holds (the symbol
    is placed) at that world.  One member's values are looked up; more are
    joined from bytes, in time linear in their size."""
    if len(reps) == 1:
        ((valuation, placement, _),) = reps
        values = _world_sets(n, count)
        return [values[s] for s in valuation] + [values[1 << w] for w in placement]
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
def _one_batch(p: int, k: int, n: int, m: int, count: int) -> tuple[Batch, tuple]:
    """Every member of _canonical_placements(p, k, n, m) as one batch, with
    its environment on count frames; only built when they fit in one."""
    reps = tuple(_canonical_placements(p, k, n, m))
    return reps, _widen(reps, n, count)


MAX_COUNTEREXAMPLES = 5


def _tables(p: int, k: int, block: FrameBlock | KripkeFrame) -> Iterator[tuple[Batch, Sequence]]:
    """The canonical valuations of p props and placements of k symbols in
    block's worlds (see _canonical_placements, with m = _renamable(block)),
    in lexicographic order, cut into batches of _batch_width(block), each
    with the environment that decides it on the block repeated once per
    member: member b in segment b of every value (bits b*block.count up)."""
    n, count, m = block.size, block.count, _renamable(block)
    width = _batch_width(block)
    reps = _canonical_placements(p, k, n, m)
    # With m = 1, reps is the lazy product of 2^(n*p) valuations and
    # n^k placements.  A table that fits in one batch is widened once.
    if (len(reps) if m > 1 else n**k << n * p) <= width:
        yield _one_batch(p, k, n, m, count)
        return
    rest = iter(reps)
    for chunk in iter(lambda: tuple(itertools.islice(rest, width)), ()):
        yield chunk, _widen(chunk, n, count)


def _valid_mask(
    frames: FramesUpTo | FrameBlock | KripkeFrame,
    q: QuasiInequality,
    limits: EnumerationLimits,
    translation: Formula | None = None,
) -> tuple[int, int, int, list[dict]]:
    """The one loop over blocks and batches, behind frame_valid,
    frame_valid_quasi and equivalence_check.  None of them calls another,
    so the perfbench tracer counts a call of each exactly once.

    The check of q on the blocks of frames is admitted, its cases summed
    over them, before anything is built.  q is then compiled once, with the
    translation if there is one, and decided block by block, a batch at a
    time; the antecedents and the conclusion are judged against one shared
    environment.  Only canonical valuations and placements are decided;
    closing each block's mask under renaming its worlds gives the frames on
    which q holds under every one.  With no symbol at all the one empty
    placement is decided already.

    Returns (mask, checked, mismatched, mismatches).  Without a translation
    the mask narrows batch by batch, a block stops deciding once its mask
    is empty, and the other three are 0, 0 and [].  With one, every batch
    is decided on all its frames and members and compared with the AND
    over worlds of the translation: checked adds the batch's frames times
    its summed weights, and a batch is split into its members only when the
    two differ, to add each member's differing frames times its weight to
    mismatched and to decode the first MAX_COUNTEREXAMPLES of them.
    """
    blocks = list(frame_blocks(frames.size, limits)) if isinstance(frames, FramesUpTo) else [frames]
    admit(check_cases(q, blocks))
    prop_syms, nom_syms, svar_syms = sorted_symbols(q)
    slots = {s: k for k, s in enumerate(prop_syms + nom_syms + svar_syms)}
    sides = [f for i in (*q.antecedents, q.conclusion) for f in (i.lhs, i.rhs)]
    compiled, bind = _compile(sides + ([] if translation is None else [translation]), slots)
    pairs, translated_at = compiled[: len(sides)], compiled[len(sides) :]
    env: list[tuple[int, ...]] = [()] * len(slots)
    full = 0

    *antecedents, conclusion = zip(pairs[::2], pairs[1::2])

    def included(lf, rf) -> int:
        """Mask of the frames where lhs's truth set lies within rhs's."""
        m = full
        for x, y in zip(lf(env), rf(env)):
            m &= (full ^ x) | y
        return m

    def holds(care: int) -> int:
        """Mask of the frames (and members) among care on which q holds."""
        held = care
        for pair in antecedents:
            held &= included(*pair)
            if not held:
                return care
        return (care ^ held) | (held & included(*conclusion))

    p, k = len(prop_syms), len(slots) - len(prop_syms)
    checked = mismatched = 0
    mismatches: list[dict] = []

    def decided() -> Iterator[tuple[int, int]]:
        nonlocal full, checked, mismatched
        for block in blocks:
            mask, count, members = block.full, block.count, 0
            for batch, values in _tables(p, k, block):
                if len(batch) != members:
                    members = len(batch)
                    full = bind(block if members == 1 else _replicated(block, members))
                env[:] = values
                if not translated_at:
                    # Every segment of the spread mask lies within mask, so the fold does.
                    mask = _fold(holds(_spread(mask, count, members)), count, members)
                    if not mask:
                        break
                    continue
                held, translated = holds(full), full
                for x in translated_at[0](env):
                    translated &= x
                mask &= _fold(held, count, members)
                checked += count * sum(weight for *_, weight in batch)
                diff = held ^ translated
                if not diff:
                    continue
                parts = zip(
                    batch,
                    _segments(diff, count, members),
                    _segments(translated, count, members),
                )
                for (_, placement, weight), part, translated_part in parts:
                    if not part:
                        continue
                    mismatched += weight * part.bit_count()
                    if len(mismatches) < MAX_COUNTEREXAMPLES:
                        j = (part & -part).bit_length() - 1
                        frame = frame_at(block.size, block.start + j)
                        model = KripkeModel(frame, {}, dict(zip(nom_syms, placement)))
                        g = dict(zip(svar_syms, placement[len(nom_syms) :]))
                        globally = bool(translated_part >> j & 1)
                        mismatches.append(
                            {
                                "model": model_to_json(model, g),
                                "direct": not globally,
                                "translated": globally,
                            }
                        )
            if mask and slots:
                mask = _close_under_renaming(mask, block.size, _renamable(block))
            yield mask, count

    return _concatenated(decided()), checked, mismatched, mismatches


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


def frame_valid(
    frames: FramesUpTo | FrameBlock | KripkeFrame,
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
    return _valid_mask(frames, QuasiInequality((), as_inequality(f)), limits)[0]


def frame_valid_quasi(
    frames: FramesUpTo | FrameBlock | KripkeFrame,
    q: QuasiInequality,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> int:
    """Mask of the frames on which q holds under every valuation, nominal
    placement and assignment; 0 or 1 for a single frame.

    The antecedents and the conclusion are judged against one shared
    valuation and assignment.
    """
    return _valid_mask(frames, q, limits)[0]


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
    on which q is valid, as frame_valid_quasi gives it on
    FramesUpTo(limits.max_worlds); the models checked; the models on which
    q and f differ; and the first MAX_COUNTEREXAMPLES of those decoded,
    each as {"model", "direct", "translated"}.
    """
    require_pure(q)
    return _valid_mask(FramesUpTo(limits.max_worlds), q, limits, f)


def require_pure(q: QuasiInequality) -> None:
    """Raise ValueError if q mentions a propositional variable."""
    prop_syms = sorted_symbols(q)[0]
    if prop_syms:
        raise ValueError(f"quasi-inequality is not pure: contains {prop_syms}")


def frame_valid_quasi_set(
    frames: FramesUpTo | FrameBlock | KripkeFrame,
    qs: Iterable[QuasiInequality],
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> int:
    """Mask of the frames on which every quasi-inequality of qs is valid."""
    valid = -1  # every bit set, without building frames.full (4 MB at 5 worlds)
    for q in qs:
        valid &= frame_valid_quasi(frames, q, limits)
        if not valid:
            break
    return frames.full if valid == -1 else valid


def valid_frame_mask(check, item, limits: EnumerationLimits = DEFAULT_LIMITS) -> int:
    """Mask of the frames with up to limits.max_worlds worlds (bit k for
    frame k in enumerate_frames order) on which item is valid, where
    check(frames, item, limits) is a validity check such as frame_valid or
    frame_valid_quasi_set, called once on FramesUpTo(limits.max_worlds)."""
    _check_world_cap(limits.max_worlds, limits)
    return check(FramesUpTo(limits.max_worlds), item, limits)


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
