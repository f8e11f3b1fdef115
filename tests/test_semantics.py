"""Satisfaction clauses, validity, and the frame enumeration oracle."""

import gc
import itertools
import random
import time
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hybridcorr.semantics import (
    FRAME_CLASSES,
    MAX_CASES,
    EnumerationCapError,
    EnumerationLimits,
    FrameBlock,
    KripkeFrame,
    KripkeModel,
    UnboundSymbolError,
    enumerate_frames,
    equivalence_check,
    eval_at,
    frame_at,
    frame_at_index,
    frame_blocks,
    frame_class_mask,
    frame_indices,
    frame_valid,
    frame_valid_quasi,
    frame_valid_quasi_set,
    model_to_json,
    truth_mask,
)
from hybridcorr import semantics
from hybridcorr.semantics import (
    MAX_COUNTEREXAMPLES,
    _TABLES_KEPT,
    _batch_width,
    _close_under_renaming,
    _compile,
    _concatenated,
    _frames_below,
    _members,
    _one_batch,
    _orbit_members,
    _tables,
    _world_sets,
    check_cases,
)
from hybridcorr.syntax import (
    BOT,
    TOP,
    And,
    Dia,
    Implies,
    Inequality,
    Or,
    QuasiInequality,
    free_state_vars,
    nom,
    nominals,
    parse,
    parse_inequality,
    parse_input,
    parse_quasi,
    prop,
    props,
    props_in_order,
    sorted_symbols,
    Symbol,
    svar,
)
from hybridcorr.translate import tr_quasi, verify_correspondence

from models import parse_model, random_model
from oracles import globally_true, holds_inequality, holds_quasi, rebuilt, reference_bodies
from strategies import formulas, models_for, quasis, shared_formulas, translatable_quasis

P = prop("p")
X = svar("x")
I = nom("i")

LOOP1 = KripkeFrame(1, frozenset({(0, 0)}))
BARE1 = KripkeFrame(1, frozenset())
# The one block of each size up to 2.
BLOCKS = list(frame_blocks(EnumerationLimits(2)))


def models_on(fr, sides):
    """Every model on fr, with an assignment, over the symbols of sides."""
    ps = sorted(set().union(*map(props, sides)), key=str)
    ns = sorted(set().union(*map(nominals, sides)), key=str)
    vs = sorted(set().union(*map(free_state_vars, sides)), key=str)
    n = fr.size
    world_sets = [frozenset(w for w in range(n) if (m >> w) & 1) for m in range(1 << n)]
    for nv in itertools.product(range(n), repeat=len(ns)):
        for pv in itertools.product(world_sets, repeat=len(ps)):
            mdl = KripkeModel(fr, dict(zip(ps, pv)), dict(zip(ns, nv)))
            for gv in itertools.product(range(n), repeat=len(vs)):
                yield mdl, dict(zip(vs, gv))


def oracle_valid(fr, f):
    """Frame validity of f decided clause by clause with eval_at."""
    return all(
        eval_at(mdl, g, w, f) for mdl, g in models_on(fr, [f]) for w in range(fr.size)
    )


def oracle_valid_quasi(fr, q):
    sides = [s for i in (*q.antecedents, q.conclusion) for s in (i.lhs, i.rhs)]
    return all(holds_quasi(mdl, g, q) for mdl, g in models_on(fr, sides))


def mask_bits(mask, count):
    return [(mask >> m) & 1 for m in range(count)]


def conjunction_of(noms, svars=0):
    """The conjunction of noms distinct nominals and svars state variables."""
    atoms = [f"'i{k}" for k in range(noms)] + [f"x{k}" for k in range(svars)]
    return parse(" & ".join(atoms))


def refused_before_any_table(monkeypatch):
    """Make building a table of valuations and placements fail the test."""

    def built(*args):
        raise AssertionError("a table was built before the budget was checked")

    monkeypatch.setattr(semantics, "_members", built)


def model(frame, pv=None, nv=None):
    return KripkeModel(frame, pv or {}, nv or {})


class TestEval:
    def test_binder_on_reflexive_point(self):
        m = model(LOOP1)
        assert eval_at(m, {}, 0, parse("!x. <>x")) is True

    def test_constants(self):
        m = model(KripkeFrame(2, frozenset({(0, 1)})))
        for w in range(2):
            assert eval_at(m, {}, w, TOP) is True
            assert eval_at(m, {}, w, BOT) is False

    def test_at_nominal(self):
        m = model(KripkeFrame(2, frozenset()), nv={I: 1})
        assert eval_at(m, {}, 0, parse("@'i 'i")) is True

    def test_state_variable(self):
        m = model(KripkeFrame(2, frozenset({(0, 1)})))
        assert eval_at(m, {X: 1}, 1, parse("x")) is True
        assert eval_at(m, {X: 1}, 0, parse("x")) is False
        assert eval_at(m, {X: 1}, 0, parse("<>x")) is True

    def test_unbound_symbol(self):
        m = model(LOOP1)
        with pytest.raises(UnboundSymbolError):
            eval_at(m, {}, 0, parse("p"))
        with pytest.raises(UnboundSymbolError):
            eval_at(m, {}, 0, parse("x"))

    def test_unbound_after_binder_scope(self):
        # x is bound inside the binder only; the later free x has no value
        m = model(LOOP1)
        with pytest.raises(UnboundSymbolError):
            truth_mask(m, {}, parse("(!x. <>x) & x"))

    @settings(max_examples=300, deadline=None)
    @given(formulas(8).flatmap(lambda f: models_for(f).map(lambda mg: (f, *mg))))
    def test_pointwise_agrees_with_masks(self, case):
        f, m, g = case
        mask = truth_mask(m, g, f)
        for w in range(m.frame.size):
            assert eval_at(m, g, w, f) == bool((mask >> w) & 1)


class TestInequalities:
    def test_reflexive_inclusion(self):
        rng = random.Random(1)
        for _ in range(20):
            f = parse("<>p | @'i ~p")
            m = random_model(rng, [P], [I])
            assert holds_inequality(m, {}, Inequality(f, f))

    def test_empty_truth_set(self):
        m = model(LOOP1, pv={P: frozenset()})
        assert holds_inequality(m, {}, parse_inequality("p <= F"))

    def test_bridge_to_global_implication(self):
        # the stated equivalence with the implication, on 1000 random draws
        from hybridcorr.generate import GeneratorConfig, SkeletalGenerator

        rng = random.Random(7)
        gen = SkeletalGenerator(seed=7, config=GeneratorConfig(max_depth=3))
        for _ in range(1000):
            ineq, _eps = gen.inequality()
            syms_p = sorted(props(ineq.lhs) | props(ineq.rhs), key=str)
            syms_n = sorted(nominals(ineq.lhs) | nominals(ineq.rhs), key=str)
            m = random_model(rng, syms_p, syms_n)
            assert holds_inequality(m, {}, ineq) == globally_true(
                m, {}, Implies(ineq.lhs, ineq.rhs)
            )

    def test_quasi_shares_model(self):
        q = parse_quasi("'i <= <>'i => 'i <= ~'j")
        m = model(KripkeFrame(2, frozenset({(0, 0)})), nv={I: 0, nom("j"): 1})
        assert holds_quasi(m, {}, q) is True
        m2 = model(KripkeFrame(2, frozenset({(0, 0)})), nv={I: 0, nom("j"): 0})
        assert holds_quasi(m2, {}, q) is False


class TestFrameValid:
    def test_reflexive_point_validates_box_axiom(self):
        assert frame_valid(LOOP1, parse("[]p -> p"))

    def test_bare_point_refutes_box_axiom(self):
        assert not frame_valid(BARE1, parse("[]p -> p"))

    def test_pure_at_axiom_everywhere(self):
        for fr in itertools.islice(enumerate_frames(2), 6):
            assert frame_valid(fr, parse("@'i 'i"))

    def test_free_state_vars_quantified(self):
        assert frame_valid(LOOP1, parse("<>x"))
        assert not frame_valid(BARE1, parse("<>x"))

    def test_agrees_with_naive_loop(self):
        # dual route: the compiled path against direct clause evaluation
        fs = [
            parse("[]p -> p"),
            parse("!x.(p & <>x) -> <>p"),
            parse("@'i p -> p"),
            parse("<>x -> @x T"),
        ]
        for fr in enumerate_frames(2):
            for f in fs:
                assert frame_valid(fr, f) == oracle_valid(fr, f)

    @settings(max_examples=200, deadline=None)
    @given(formulas(6), formulas(6))
    def test_conjunction_is_valid_where_both_are(self, f, g):
        # validity is universal over valuations and placements, which
        # axioms.check_schemas relies on to decide instances as one conjunction
        two = EnumerationLimits(2)
        assume(check_cases(And(f, g), two) <= MAX_CASES)
        both = frame_valid(two, And(f, g))
        assert both == frame_valid(two, f) & frame_valid(two, g)

    def test_cap_guard(self, monkeypatch):
        # 21 nominals: 1 + 2^21 cases on the frames with up to 2 worlds
        refused_before_any_table(monkeypatch)
        q = QuasiInequality((), Inequality(conjunction_of(21), TOP))
        start = time.perf_counter()
        with pytest.raises(EnumerationCapError, match="2,097,153 cases exceed the budget of 1,048,576"):
            frame_valid_quasi(EnumerationLimits(2), q)
        assert time.perf_counter() - start < 1.0


class TestCaseBudget:
    """One budget, MAX_CASES = 2^20, bounds a check's cases: on a block of n
    worlds n^nominals * 2^(n*props) * n^state-variables, summed over the
    blocks the check decides, and admitted before any table is built."""

    def test_cases_summed_over_blocks(self, monkeypatch):
        f = parse("<>(p & q & r) -> <>p")
        five = EnumerationLimits(max_worlds=5)
        # 2 + 64 + 512 + 4,096 on sizes 1..4, 2^15 on each of 512 blocks at 5
        assert check_cases(f, five) == 16_781_896
        refused_before_any_table(monkeypatch)
        with pytest.raises(EnumerationCapError, match="16,781,896 cases"):
            frame_valid(five, f)
        # 20 nominals: no block has more than 2^20 cases, the two together do
        q = QuasiInequality((), Inequality(conjunction_of(20), TOP))
        with pytest.raises(EnumerationCapError, match="1,048,577 cases"):
            frame_valid_quasi(EnumerationLimits(2), q)

    def test_counted_per_size_as_summed_over_blocks(self):
        # check_cases counts 2^max(0, n*n - 16) blocks of each size n (512
        # at 5 worlds) without building them; the built blocks agree
        items = [
            parse(
                " & ".join(
                    [f"p{k}" for k in range(p)]
                    + [f"'i{k}" for k in range(i)]
                    + [f"x{k}" for k in range(x)]
                )
                or "T"
            )
            for p, i, x in itertools.product(range(4), repeat=3)
        ]
        by_size = {(n, item): 0 for n in range(1, 6) for item in items}
        for block in frame_blocks(EnumerationLimits(5)):
            for item in items:
                by_size[block.size, item] += check_cases(item, block)
        for n in range(1, 6):
            for item in items:
                summed = sum(by_size[size, item] for size in range(1, n + 1))
                assert check_cases(item, EnumerationLimits(n)) == summed, (n, str(item))

    def test_state_variables_counted(self, monkeypatch):
        # 10 nominals and 11 state variables: 1 + 2^21 cases up to 2 worlds
        f = Implies(conjunction_of(10, 11), TOP)
        assert check_cases(f, EnumerationLimits(2)) == 2_097_153
        refused_before_any_table(monkeypatch)
        with pytest.raises(EnumerationCapError, match="2,097,153 cases"):
            frame_valid(EnumerationLimits(2), f)

    def test_props_need_no_cap_of_their_own(self):
        # four props on one frame of one world are 16 cases
        assert check_cases(parse("p & q & r & p1"), LOOP1) == 16
        assert frame_valid(LOOP1, parse("p & q & r & p1")) == 0
        assert frame_valid(LOOP1, parse("p & q & r & p1 -> p1")) == 1


class TestSlicedAgainstOracle:
    """Bit m of a block's validity mask against the oracle on frame m."""

    @settings(max_examples=150, deadline=None)
    @given(formulas(6))
    def test_frame_valid_bits(self, f):
        for block in BLOCKS:
            expect = [int(oracle_valid(frame_at(block.size, m), f)) for m in range(block.count)]
            assert mask_bits(frame_valid(block, f), block.count) == expect

    def check_quasi_bits(self, q):
        for block in BLOCKS:
            expect = [
                int(oracle_valid_quasi(frame_at(block.size, m), q)) for m in range(block.count)
            ]
            assert mask_bits(frame_valid_quasi(block, q), block.count) == expect

    @settings(max_examples=150, deadline=None)
    @given(quasis(pure=True))
    def test_frame_valid_quasi_bits(self, q):
        self.check_quasi_bits(q)

    @settings(max_examples=100, deadline=None)
    @given(quasis(3).filter(props_in_order))
    def test_frame_valid_quasi_bits_with_props(self, q):
        # valuations of propositional variables run in the same placement loop
        self.check_quasi_bits(q)

    def test_single_frame_is_a_block_of_one(self):
        assert frame_valid(LOOP1, parse("[]p -> p")) == 1
        assert frame_valid(BARE1, parse("[]p -> p")) == 0
        assert frame_valid_quasi_set(BARE1, []) == 1

    def test_single_frame_mismatch_is_decoded(self):
        # A translation check on one frame decodes its mismatch from the
        # frame's own edges: a single frame has no start in any block.
        q = parse_quasi("'i0 <= []~'i1 => 'i0 <= ~'i1")
        model = {"worlds": 1, "relation": [], "nominals": {"i0": 0, "i1": 0}, "props": {}}
        assert semantics._valid_mask(BARE1, q, parse("T")) == (
            0, 1, 1, [{"model": model, "direct": False, "translated": True}]
        )


def placed(*items):
    """Number of nominals and free state variables of the items."""
    _, ns, vs = sorted_symbols(*items)
    return len(ns) + len(vs)


def per_frame(check, item, n, frames):
    """The mask of check(frame_at(n, m), item) over the frame numbers m.
    A single frame renames no world, so it decides every placement."""
    return sum(check(frame_at(n, m), item) << m for m in frames)


def stirling2(k, j):
    """Ways to split k labelled symbols into j nonempty groups."""
    if k == j:
        return 1
    if j == 0 or j > k:
        return 0
    return j * stirling2(k - 1, j) + stirling2(k - 1, j - 1)


def renamings(n, m):
    """The frame numbers of frame m of size n under every permutation of its worlds."""
    relation = frame_at(n, m).relation
    return {
        sum(1 << (pi[a] * n + pi[b]) for a, b in relation)
        for pi in itertools.permutations(range(n))
    }


def block_of_size(n):
    return next(b for b in frame_blocks(EnumerationLimits(max_worlds=n)) if b.size == n)


THREE = block_of_size(3)


def orbit_key(valuation, placement, n):
    """The order in which a canonical valuation and placement is the least
    of its orbit: the colours (tuples of prop bits) world by world, then
    the placement."""
    return tuple(tuple((v >> w) & 1 for v in valuation) for w in range(n)), placement


def renamed(pi, valuation, placement):
    """A valuation and placement with every world w renamed to pi[w]."""
    moved = tuple(sum(1 << pi[w] for w in range(len(pi)) if (v >> w) & 1) for v in valuation)
    return moved, tuple(pi[w] for w in placement)


class TestCanonicalPlacements:
    @pytest.mark.parametrize("k", range(8))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_one_per_orbit(self, k, n):
        canonical = list(_members(0, k, n, (n,)))
        # one placement per partition of the symbols into at most n groups
        assert len(canonical) == sum(stirling2(k, j) for j in range(min(k, n) + 1))
        # orbit sizes add up to every placement
        assert sum(weight for _, _, (weight,) in canonical) == n**k
        # each is the least member of its orbit, and they come in order
        assert {valuation for valuation, _, _ in canonical} == {()}
        placements = [p for _, p, _ in canonical]
        assert placements == sorted(placements)
        for _, p, (weight,) in canonical:
            orbit = {tuple(pi[w] for w in p) for pi in itertools.permutations(range(n))}
            assert min(orbit) == p and len(orbit) == weight

    def test_sizes_named_in_the_docs(self):
        assert len(_orbit_members(0, 6, (3,))) == 122
        assert len(_orbit_members(0, 7, (4,))) == 715

    @pytest.mark.parametrize("k", range(6))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_nothing_renamable_is_the_full_product(self, k, n):
        canonical = _members(0, k, n, (1,))
        # generated lazily, not kept
        assert iter(canonical) is canonical
        canonical = list(canonical)
        assert [p for _, p, _ in canonical] == list(itertools.product(range(n), repeat=k))
        assert {weights for _, _, weights in canonical} == {(1,)}


class TestCanonicalValuations:
    """Canonical valuations of props together with placements."""

    @pytest.mark.parametrize("p, k, n", itertools.product((1, 2), range(4), range(1, 5)))
    def test_weights_count_every_valuation_and_placement(self, p, k, n):
        canonical = _members(p, k, n, (n,))
        assert sum(weight for _, _, (weight,) in canonical) == 2 ** (p * n) * n**k

    @pytest.mark.parametrize("p, k, n", itertools.product((1, 2), range(4), range(1, 4)))
    def test_least_member_of_its_orbit(self, p, k, n):
        canonical = list(_members(p, k, n, (n,)))
        keys = [orbit_key(v, pl, n) for v, pl, _ in canonical]
        assert keys == sorted(set(keys))
        for valuation, placement, (weight,) in canonical:
            orbit = {
                orbit_key(*renamed(pi, valuation, placement), n)
                for pi in itertools.permutations(range(n))
            }
            assert min(orbit) == orbit_key(valuation, placement, n)
            assert len(orbit) == weight

    @pytest.mark.parametrize(
        "p, k, n, count, of",
        [(1, 0, 3, 4, 8), (2, 0, 3, 20, 64), (1, 2, 3, 14, 72), (1, 0, 4, 5, 16)],
    )
    def test_counts_named_in_the_docs(self, p, k, n, count, of):
        canonical = _orbit_members(p, k, (n,))
        assert len(canonical) == count
        assert sum(weight for _, _, (weight,) in canonical) == of

    @pytest.mark.parametrize("p, k, n", [(1, 0, 3), (1, 2, 2), (2, 1, 2), (3, 0, 1)])
    def test_nothing_renamable_is_the_full_product(self, p, k, n):
        canonical = list(_members(p, k, n, (1,)))
        assert [(v, pl) for v, pl, _ in canonical] == list(
            itertools.product(itertools.product(range(1 << n), repeat=p),
                              itertools.product(range(n), repeat=k))
        )
        assert {weights for _, _, weights in canonical} == {(1,)}


class TestRenamingClosure:
    @pytest.mark.parametrize("n", [3, 4])
    def test_frame_classes_are_fixed_points(self, n):
        frames = [frame_at(n, m) for m in range(1 << (n * n))]
        for name, pred in FRAME_CLASSES.items():
            mask = sum(1 << m for m, fr in enumerate(frames) if pred(fr))
            assert _close_under_renaming(mask, n, n) == mask, name

    @pytest.mark.parametrize(
        "n, frames",
        [(2, range(16)), (3, range(512)), (4, random.Random(4).sample(range(1 << 16), 12))],
    )
    def test_dropping_one_frame_drops_its_isomorphism_class(self, n, frames):
        full = (1 << (1 << (n * n))) - 1
        for m in frames:
            closed = _close_under_renaming(full ^ (1 << m), n, n)
            assert sum(1 << r for r in renamings(n, m)) == full ^ closed, m

    def test_nothing_renamable_leaves_the_mask(self):
        assert _close_under_renaming(0b1011, 2, 1) == 0b1011

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_each_cover_gives_every_permutation(self, m):
        cover = semantics._RENAMING_COVERS[m]
        assert covered(cover, m) == set(itertools.permutations(range(m)))

    def test_s4_cover_takes_five_transpositions(self):
        assert len(semantics._RENAMING_COVERS[4]) == 5
        assert len(semantics._RENAMING_COVERS[3]) == 3

    @pytest.mark.parametrize("dropped", range(5))
    def test_dropping_a_transposition_of_the_s4_cover_breaks_the_closure(
        self, monkeypatch, dropped
    ):
        # a frame of 4 worlds with 24 distinct renamings: 16 products of
        # the 4 transpositions left cannot reach them all
        m = next(m for m in range(1 << 16) if len(renamings(4, m)) == 24)
        full = (1 << (1 << 16)) - 1
        cover = semantics._RENAMING_COVERS[4]
        monkeypatch.setitem(semantics._RENAMING_COVERS, 4, cover[:dropped] + cover[dropped + 1 :])
        closed = _close_under_renaming(full ^ (1 << m), 4, 4)
        assert sum(1 << r for r in renamings(4, m)) != full ^ closed


def covered(cover, m):
    """The permutations t_r^e_r ... t_1^e_1 of worlds 0..m-1, each e_i 0 or
    1, of the transpositions t_1..t_r of cover."""
    perms = {tuple(range(m))}
    for j, k in cover:
        swap = {j: k, k: j}
        perms |= {tuple(swap.get(w, w) for w in pi) for pi in perms}
    return perms


# Formulas that mention the prop p and nothing else propositional.
_p_parts = st.sampled_from([parse("p"), parse("~p"), parse("<>p"), parse("[]~p")])
_joins = st.sampled_from([And, Or, Implies, lambda a, b: Implies(b, a)])


def with_p(f):
    """f joined with a formula in p, so that one prop is valued."""
    return st.builds(lambda part, join: join(f, part), _p_parts, _joins)


def quasi_with_p(q):
    """q with a formula in p joined to one side of its conclusion."""
    return st.builds(
        lambda part, join, left: QuasiInequality(
            q.antecedents,
            Inequality(join(q.conclusion.lhs, part), q.conclusion.rhs)
            if left
            else Inequality(q.conclusion.lhs, join(q.conclusion.rhs, part)),
        ),
        _p_parts,
        _joins,
        st.booleans(),
    )


class TestSymmetryReduction:
    """Bit m of the 3-world block's mask, decided on canonical placements and
    closed under renaming, against the same check on frame m alone."""

    @settings(max_examples=25, deadline=None)
    @given(formulas(6, pure=True).filter(lambda f: placed(f) >= 2))
    def test_frame_valid(self, f):
        assert frame_valid(THREE, f) == per_frame(frame_valid, f, 3, range(512))

    @settings(max_examples=10, deadline=None)
    @given(formulas(5, pure=True).filter(lambda f: placed(f) >= 2).flatmap(with_p))
    def test_frame_valid_with_a_prop(self, f):
        assert frame_valid(THREE, f) == per_frame(frame_valid, f, 3, range(512))

    @settings(max_examples=15, deadline=None)
    @given(quasis(pure=True).filter(lambda q: 2 <= placed(q) <= 3))
    def test_frame_valid_quasi(self, q):
        assert frame_valid_quasi(THREE, q) == per_frame(frame_valid_quasi, q, 3, range(512))

    @settings(max_examples=6, deadline=None)
    @given(quasis(3, pure=True).filter(lambda q: 2 <= placed(q) <= 3).flatmap(quasi_with_p))
    def test_frame_valid_quasi_with_a_prop(self, q):
        assert frame_valid_quasi(THREE, q) == per_frame(frame_valid_quasi, q, 3, range(512))

    def test_four_world_corpus_on_sampled_frames(self):
        from hybridcorr.alba import run
        from hybridcorr.corpus import CORPUS
        from hybridcorr.generate import GeneratorConfig, SkeletalGenerator

        block = block_of_size(4)
        sample = sorted(random.Random(1).sample(range(1 << 16), 32))
        keep = sum(1 << m for m in sample)
        # generated inputs with two props (the soundness sweep's draws),
        # whose input side runs on canonical valuations
        config = GeneratorConfig(max_depth=4, max_props=2, max_nominals=1, filler_depth=2)
        gen = SkeletalGenerator(7, config)
        drawn = [gen.inequality()[0] for _ in range(30)]
        two_props = [i for i in drawn if len(sorted_symbols(i)[0]) == 2][:6]
        assert len(two_props) == 6
        for ineq in two_props:
            f = Implies(ineq.lhs, ineq.rhs)
            assert frame_valid(block, f) & keep == per_frame(
                frame_valid, f, 4, sample
            ), str(ineq)
        for entry in CORPUS:
            if not entry.expect_skeletal:
                continue
            ineq = parse_input(entry.input_text)
            f = Implies(ineq.lhs, ineq.rhs)
            quasis = run(ineq).quasis
            assert frame_valid(block, f) & keep == per_frame(
                frame_valid, f, 4, sample
            ), entry.name
            assert frame_valid_quasi_set(block, quasis) & keep == per_frame(
                frame_valid_quasi_set, quasis, 4, sample
            ), entry.name


def with_props(item, most_placed):
    """Whether item has one or two props and at most most_placed nominals
    and free state variables."""
    return 1 <= len(sorted_symbols(item)[0]) <= 2 and placed(item) <= most_placed


class TestRenamingWithProps:
    """Free differential check: on the block of every frame of size n, an
    item with props decided on canonical valuations and placements gives a
    mask closed under renaming worlds, equal to the mask from deciding each
    frame alone, which renames nothing and decides every valuation."""

    def check(self, check, item, n):
        mask = check(block_of_size(n), item)
        assert _close_under_renaming(mask, n, n) == mask
        assert mask == per_frame(check, item, n, range(1 << (n * n)))

    @settings(max_examples=40, deadline=None)
    @given(formulas(6).filter(lambda f: with_props(f, 3)))
    # refuted only by placing the nominals in worlds of different colours
    @example(parse("@'i p -> @'j p"))
    def test_frame_valid_on_two_worlds(self, f):
        self.check(frame_valid, f, 2)

    @settings(max_examples=30, deadline=None)
    @given(quasis(3).filter(lambda q: with_props(q, 3)))
    def test_frame_valid_quasi_on_two_worlds(self, q):
        self.check(frame_valid_quasi, q, 2)

    @settings(max_examples=10, deadline=None)
    @given(formulas(6).filter(lambda f: with_props(f, 2)))
    @example(parse("@'i (p & ~q) -> @'j (p | q)"))
    def test_frame_valid_on_three_worlds(self, f):
        self.check(frame_valid, f, 3)

    @settings(max_examples=6, deadline=None)
    @given(quasis(3).filter(lambda q: with_props(q, 2)))
    def test_frame_valid_quasi_on_three_worlds(self, q):
        self.check(frame_valid_quasi, q, 3)


# Parts with a prop, a nominal, @ and a binder, joined to drawn pure
# formulas so that every item has each of them.
_hybrid_parts = st.sampled_from(
    [parse(t) for t in ("@'i <>p", "!x. <>(x & ~p)", "@'i !x. [](p -> x)", "<>'i & @'i p")]
)


def with_hybrid_part(f):
    return st.builds(lambda part, join: join(f, part), _hybrid_parts, _joins)


def quasi_with_hybrid_part(q):
    return st.builds(
        lambda part, join: QuasiInequality(
            q.antecedents, Inequality(join(q.conclusion.lhs, part), q.conclusion.rhs)
        ),
        _hybrid_parts,
        _joins,
    )


FOUR = block_of_size(4)
# one of the 512 blocks of 2^16 five-world frames, with some high edges set
FIVE = next(
    itertools.islice((b for b in frame_blocks(EnumerationLimits(5)) if b.size == 5), 300, None)
)


class TestConstantOperands:
    """On blocks of 2^16 frames every batch has one member, so the values of
    props, nominals and binder units are 0 or the bound full mask, and the
    kernels skip big-int work on them.  Sampled bits of such a block's mask
    against the same check on each frame alone, which decides its
    valuations and placements side by side, where constants are rare."""

    SAMPLE = sorted(random.Random(20).sample(range(1 << 16), 32))

    def check(self, check, item):
        for block in (FOUR, FIVE):
            mask = check(block, item)
            for j in self.SAMPLE:
                frame = frame_at(block.size, block.start + j)
                assert mask >> j & 1 == check(frame, item), str(frame)

    @settings(max_examples=40, deadline=None)
    @given(formulas(4, pure=True).filter(lambda f: placed(f) <= 1).flatmap(with_hybrid_part))
    @example(parse("@'i <>p -> !x. <>(x & p)"))
    @example(parse("@'i !x. [](p -> x)"))
    def test_frame_valid(self, f):
        self.check(frame_valid, f)

    @settings(max_examples=30, deadline=None)
    @given(
        quasis(2, pure=True).filter(lambda q: placed(q) <= 1).flatmap(quasi_with_hybrid_part)
    )
    @example(parse_quasi("'i <= <>p ; p <= !x. []<>x => @'i p <= <>'i"))
    def test_frame_valid_quasi(self, q):
        self.check(frame_valid_quasi, q)

    def test_translation_check_against_wide_batches(self, monkeypatch):
        # With 2^20 bits a batch on the 4-world block has up to 16 members,
        # whose values are not the bound full: the general path decides them.
        # <>Tr(q) fails at dead ends, so the check has mismatches to report
        cases = [(q, f) for q in corpus_outputs() for f in (tr_quasi(q), Dia(tr_quasi(q)))]
        constants = [semantics._valid_mask(FOUR, q, f) for q, f in cases]
        assert any(mismatched for _, _, mismatched, _ in constants)
        monkeypatch.setattr(semantics, "_BATCH_BITS", 20)
        assert [semantics._valid_mask(FOUR, q, f) for q, f in cases] == constants

    def test_diamond_of_a_unit_is_its_edge_column(self):
        # <>'i with 'i at world w is the column of edges into w, as it is
        (dia_i,), bind = _compile([parse("<>'i")], {I: 0})
        full = bind(FIVE)
        for w in range(5):
            unit = tuple(full if v == w else 0 for v in range(5))
            assert all(out is row[w] for out, row in zip(dia_i([unit]), FIVE.edges))

    def test_one_member_tables_hold_the_bound_full(self):
        # A table of one member is looked up where bind takes full from, so
        # the values stay that object after the world sets are rebuilt.
        _, bind = _compile([], {})
        for _ in range(2):
            ((batch, values, absent),) = _tables(0, 1, FOUR, (4,), (0,) * 4)
            assert batch == (((), (0,), (4,)),)  # one nominal, at any of 4 worlds
            full = bind(FOUR)
            assert values[0][0] is full and values[0][1] == 0 and absent == 0
            _world_sets.cache_clear()

    def test_world_sets_hold_only_what_bind_reads(self):
        # bind reads the empty set, the full set and the singletons: n + 2
        # sets, not 2^n, so many worlds cost little, the first use of a
        # world count, which generates its bodies, included
        for n in (18, 40):
            cycle = KripkeFrame(n, frozenset((w, (w + 1) % n) for w in range(n)))
            f = parse("<>'i")
            start = time.perf_counter()
            assert truth_mask(model(cycle, nv={I: 5}), {}, f) == 1 << 4
            assert time.perf_counter() - start < 0.05
            nowhere, everywhere, units = _world_sets(n, 1)
            assert nowhere == (0,) * n and everywhere == (1,) * n and len(units) == n


class TestGeneratedBodies:
    """The per-world bodies generated for each world count against the
    plain loops of oracles.reference_bodies, bound to the same full mask,
    edge rows and lacking worlds, on operand lists that mix 0, the bound
    full mask, a value equal to it that is another object, edge masks and
    random masks.  Each returns what the reference returns, and the bound
    full object or an edge mask itself exactly where the reference does."""

    BITS = 100  # frames of a block: masks wide enough to be distinct objects

    def check(self, full, rows, rng, masks):
        """Every body on 200 drawn operand lists; masks draws a nonzero mask."""
        n = len(rows)
        generated = semantics._bodies(n)
        same = full + 0 if full > 256 else full  # equal to full; another object if big
        edges = [e for row in rows for e in row]
        pool = [lambda: 0, lambda: full, lambda: same, masks, lambda: rng.choice(edges)]

        def operand():
            return tuple(rng.choice(pool)() for _ in range(n))

        specials = [full, *edges]
        for _ in range(200):
            outside = tuple(rng.choice([0, 0, full, masks()]) for _ in range(n))
            want = reference_bodies(full, rows, outside)
            got = {
                body.__name__: body
                for body in (
                    *generated.kernel_bodies(full, rows),
                    *generated.check_bodies(full, outside),
                )
            }
            assert got.keys() == want.keys()
            xs, ys = operand(), operand()
            for name, body in got.items():
                args = (xs,) if name in ("neg", "dia", "box", "conjoined") else (xs, ys)
                out, expect = body(*args), want[name](*args)
                if name in ("included", "conjoined"):
                    out, expect = [out], [expect]
                assert list(out) == list(expect), (name, n)
                for o, e in zip(out, expect):
                    for s in specials:
                        assert (o is s) == (e is s), (name, n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_blocks_of_each_world_count(self, n):
        rng = random.Random(40 + n)
        full = (1 << self.BITS) - 1
        masks = lambda: rng.getrandbits(self.BITS) or 1
        kinds = [lambda: 0, masks, masks, lambda: full, lambda: (1 << self.BITS) - 1]
        rows = tuple(tuple(rng.choice(kinds)() for _ in range(n)) for _ in range(n))
        self.check(full, rows, rng, masks)

    def test_a_single_frame_of_nine_worlds(self):
        rng = random.Random(49)
        frame = KripkeFrame(
            9, frozenset((u, v) for u in range(9) for v in range(9) if rng.random() < 0.3)
        )
        self.check(frame.full, frame.edges, rng, lambda: frame.full)

    def test_source_grows_linearly_with_the_world_count(self):
        sizes = [len(semantics._written_out(semantics._BODY_TEMPLATE, n)) for n in (10, 20, 40)]
        assert sizes[2] - sizes[1] < 2.5 * (sizes[1] - sizes[0])


def few_symbols(f):
    """Whether f has at most one prop and two nominals and free state
    variables, so that eval_at decides it on sampled 4-world frames quickly."""
    return len(sorted_symbols(f)[0]) <= 1 and placed(f) <= 2


class _CountedRows(tuple):
    """A block's edge rows that count how often they are walked: <> walks
    them once per evaluation, and [] once through <>."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


class TestSharedSubformulas:
    """Each validity question is compiled as a DAG: one kernel per distinct
    subformula and slots, evaluated at most once per batch, and once, not
    once per world, in the loop of a binder whose slot it does not read."""

    SAMPLE3 = sorted(random.Random(22).sample(range(512), 12))
    SAMPLE4 = sorted(random.Random(22).sample(range(1 << 16), 3))

    @settings(max_examples=40, deadline=None)
    @given(shared_formulas().filter(few_symbols))
    @example(parse("!x. <>x & !x. (<>x | p)"))  # sibling binders share <>x
    @example(parse("(<>x & p) | !x. (<>x & p)"))  # a binder shadows the free x
    def test_frame_valid_against_the_oracle(self, f):
        # every frame of the blocks up to 2 worlds, sampled frames of 3 and 4
        for block in BLOCKS:
            expect = [int(oracle_valid(frame_at(block.size, m), f)) for m in range(block.count)]
            assert mask_bits(frame_valid(block, f), block.count) == expect
        for block, sample in ((THREE, self.SAMPLE3), (FOUR, self.SAMPLE4)):
            mask = frame_valid(block, f)
            for m in sample:
                assert mask >> m & 1 == oracle_valid(frame_at(block.size, m), f), m

    @settings(max_examples=100, deadline=None)
    @given(shared_formulas(4).flatmap(lambda f: models_for(f).map(lambda mg: (f, *mg))))
    def test_truth_mask_against_the_oracle(self, case):
        f, m, g = case
        mask = truth_mask(m, g, f)
        for w in range(m.frame.size):
            assert eval_at(m, g, w, f) == bool(mask >> w & 1)

    def test_one_environment_list_reloaded(self):
        # Replacing the list's contents clears the values kept for shared
        # nodes, so each load is decided afresh.
        f = parse("(<>p & <>p) | !x. (<>p & []<>x) | @'i <>p")
        (held_at,), bind = _compile([f], {P: 0, I: 1})
        frame = KripkeFrame(3, frozenset({(0, 1), (1, 2), (2, 2), (1, 0)}))
        bind(frame)
        env = []
        for ws, at in [({0}, 0), ({1, 2}, 1), (set(), 2), ({0, 2}, 1), ({2}, 0)]:
            env[:] = [tuple(int(w in ws) for w in range(3)), tuple(int(w == at) for w in range(3))]
            held = held_at(env)
            m = model(frame, {P: frozenset(ws)}, {I: at})
            assert [bool(x) for x in held] == [eval_at(m, {}, w, f) for w in range(3)], ws

    def walks(self, texts, loads=1):
        """How often <> walks the edges when the formulas are evaluated on
        the 2-world block with p at world 0, once per load."""
        rows = _CountedRows(BLOCKS[1].edges)
        compiled, bind = _compile([parse(t) for t in texts], {P: 0})
        full = bind(FrameBlock(2, 0, 16, rows))
        env = []
        for _ in range(loads):
            env[:] = [(full, 0)]
            for kernel in compiled:
                kernel(env)
        return rows.walks

    def test_a_repeated_subformula_is_evaluated_once(self):
        assert self.walks(["<>p & <>p"]) == 1
        assert self.walks(["<>p", "<>p | []p", "[]p -> <>p"]) == 2

    def test_invariant_of_a_binder_is_evaluated_once(self):
        # <>p does not read x: once, not once per world of the binder
        assert self.walks(["!x. (<>p & x)"]) == 1
        assert self.walks(["!x. !y. (<>p & x & <>y)"]) == 1 + 2 * 2

    def test_each_load_is_evaluated_afresh(self):
        assert self.walks(["<>p & <>p"], loads=3) == 3

    def test_a_binder_slot_is_read_afresh(self):
        # <>x reads the binder's slot: once per world, in each sibling binder
        assert self.walks(["!x. <>x"]) == 2
        assert self.walks(["!x. <>x & !x. (<>x | p)"]) == 4


def reached(root):
    """Every object reachable from root through gc.get_referents, without
    entering a class or a symbol (a frozen name)."""
    seen = {}
    todo = [root]
    while todo:
        x = todo.pop()
        if id(x) not in seen:
            seen[id(x)] = x
            if not isinstance(x, (type, Symbol)):
                todo.extend(gc.get_referents(x))
    return list(seen.values())


class TestKeptQuestions:
    """A formula or a quasi-inequality keeps the question it poses: its
    sorted symbols and, once it is decided, its interned program.  Nothing
    kept depends on the frames, so a kept object decides every frames value
    as a fresh one does, and every check builds its own kernels."""

    F = "<>@'i p -> <> !x. (p | []<>x)"
    Q = "'i <= <>'j ; 'j <= <>'k => 'i <= <>'k"
    FRAMES = [
        EnumerationLimits(3),
        THREE,
        frame_at(3, 0b011010110),
        EnumerationLimits(1),
        FOUR,
        frame_at(2, 0b0110),
        EnumerationLimits(2),
    ]

    def test_one_kept_program_decides_every_frames_value(self):
        f, q = parse(self.F), parse_quasi(self.Q)
        kept = []
        for frames in self.FRAMES + self.FRAMES[::-1]:
            assert frame_valid(frames, f) == frame_valid(frames, rebuilt(f)), frames
            fresh = QuasiInequality(q.antecedents, q.conclusion)
            assert frame_valid_quasi(frames, q) == frame_valid_quasi(frames, fresh), frames
            kept.append((f._question.program, q._question.program))
        # interned on the first decision and kept from then on
        assert all(a is kept[0][0] and b is kept[0][1] for a, b in kept)
        assert 0 < frame_valid(EnumerationLimits(3), f) < EnumerationLimits(3).full

    def test_an_inequality_keeps_its_question(self):
        # frame_valid reads l <= r as it reads the formula l -> r
        ineq = parse_inequality("<>p <= <> <> p")
        three = EnumerationLimits(3)
        assert frame_valid(three, ineq) == frame_valid(three, Implies(ineq.lhs, ineq.rhs))
        assert check_cases(ineq, three) == 14 and ineq._question.program is not None

    def test_kept_record_holds_no_frames_and_no_mask(self):
        # decided on frames whose masks are wide, then walked
        f, q = parse(self.F), parse_quasi(self.Q)
        for frames in self.FRAMES:
            frame_valid(frames, f)
            frame_valid_quasi(frames, q)
        for item in (f, q):
            record = item._question
            assert record.program is not None
            objects = reached(record)
            bad = [x for x in objects if not isinstance(x, (tuple, int, str, type(None), Symbol, type))]
            assert bad == []
            assert max(x.bit_length() for x in objects if isinstance(x, int)) <= 64
        # truth_mask interns for its model's slots and keeps nothing
        g = parse(self.F)
        truth_mask(model(frame_at(2, 0b0110), {P: frozenset({1})}, {I: 0}), {}, g)
        assert g._question is None


class TestBatches:
    """The loop decides up to 2^16 / count valuations and placements per
    evaluation on count frames.  With the bound set to 0 every batch has
    one member, which gives the reference masks."""

    def test_batches_at_three_worlds(self):
        # 7 nominals: 365 canonical placements, in batches of 2^16 / 512
        assert _batch_width(THREE) == 128
        assert len(_orbit_members(0, 7, (3,))) == 365
        q = parse_quasi("'a <= <>'b ; 'c <= <>'d ; 'e <= <>'f => 'g <= ~'a")
        assert list(map(len, sorted_symbols(q))) == [0, 7, 0]
        assert [len(batch) for batch, *_ in _tables(0, 7, THREE, (3,), (0,) * 3)] == [128, 128, 109]
        assert len(_orbit_members(1, 5, (3,))) == 326
        assert len(_orbit_members(2, 3, (3,))) == 296

    def test_widths_by_size(self):
        whole = [block_of_size(n) for n in range(1, 5)]
        assert [_batch_width(b) for b in whole] == [32_768, 4_096, 128, 1]
        assert _batch_width(LOOP1) == 65_536

    @pytest.mark.parametrize(
        "frames, check, text",
        [
            pytest.param(EnumerationLimits(3), check, text, id=f"{check.__name__}-{text}")
            for check, text in [
                # 7 nominals
                (
                    frame_valid_quasi,
                    "'a <= <>'b ; 'b <= <>'c ; 'c <= <>'d ; 'd <= <>'e ; 'e <= <>'f ;"
                    " 'f <= <>'g => 'a <= ~'g",
                ),
                (frame_valid, "@'a <>'b & @'b <>'c & @'c <>'d & @'e <>'f -> @'g <>'a"),
                (frame_valid, "@'a <>'b & @'c <>'d & @'e []'f -> (@'g <>'a | @'b []'c)"),
                # 1 prop and 5 nominals: 326 canonical pairs
                (frame_valid, "@'a <>(p & 'b) & @'c <>'d & @'e <>p -> @'e <>'a"),
                (frame_valid, "@'a <>(p & ~'b) & @'c []'d -> <>(p | 'e)"),
                # 2 props and 3 nominals: 296 canonical pairs
                (frame_valid, "(@'a p & @'b q & @'c <>(p & q)) -> <>(p | q)"),
            ]
        ]
        + [
            # frame 7 of size 3 renames nothing: 8 * 3^5 = 1,944 pairs in
            # one batch, and 64 * 3^3 = 1,728
            pytest.param(
                frame_at(3, 7),
                frame_valid,
                "@'a <>(p & 'b) & @'c <>'d & @'e <>p -> @'e <>'a",
                id="frame-3-7-1-prop-5-nominals",
            ),
            pytest.param(
                frame_at(3, 7),
                frame_valid,
                "(@'a p & @'b q & @'c <>(p & q)) -> <>(p | q)",
                id="frame-3-7-2-props-3-nominals",
            ),
            # the 4-world block decides batches of one
            pytest.param(
                block_of_size(4),
                frame_valid,
                "(@'a p & @'b q & @'c <>(p & q)) -> <>(p | q)",
                id="block-4-2-props-3-nominals",
            ),
        ],
    )
    def test_against_batches_of_one(self, monkeypatch, frames, check, text):
        item = parse_quasi(text) if check is frame_valid_quasi else parse(text)
        batched = check(frames, item)
        monkeypatch.setattr(semantics, "_BATCH_BITS", 0)
        assert batched == check(frames, item)
        if isinstance(frames, KripkeFrame):
            assert batched == check(THREE, item) >> 7 & 1
        else:
            assert 0 < batched.bit_count() < frames.count

    def test_kernels_bound_once_per_batch_width(self, monkeypatch):
        # A block binds its check's kernels at its first batch and again only
        # where a batch has another number of members: each of the 12
        # checks of the axioms at 3 worlds decides one batch on the small
        # frames, and verify's at 4 worlds one more on the 4-world block.
        from hybridcorr.alba import run
        from hybridcorr.axioms import check_schemas

        counts = []
        kernels = semantics._kernels

        def counted(program):
            compiled, bind = kernels(program)

            def counted_bind(frames):
                counts.append(frames.count)
                return bind(frames)

            return compiled, counted_bind

        monkeypatch.setattr(semantics, "_kernels", counted)
        check_schemas(EnumerationLimits(3))
        assert len(counts) == 12
        ineq = parse_input("p -> [] <> p")
        quasis = run(ineq).quasis
        for cap, bound in ((3, [2120, 2650]), (4, [2120, 65536, 2650, 65536])):
            counts.clear()
            verify_correspondence(ineq, quasis, EnumerationLimits(cap))
            assert counts == bound


def per_size_blocks(cap, q, translation=None):
    """_valid_mask on each block of frame_blocks, laid end to end: the
    reference for the block of every frame up to three worlds."""
    blocks = list(frame_blocks(EnumerationLimits(cap)))
    results = [semantics._valid_mask(block, q, translation) for block in blocks]
    return (
        _concatenated((mask, block.count) for (mask, *_), block in zip(results, blocks)),
        sum(checked for _, checked, _, _ in results),
        sum(mismatched for _, _, mismatched, _ in results),
        [m for *_, found in results for m in found][:MAX_COUNTEREXAMPLES],
    )


def corpus_outputs():
    """The outputs of the corpus's skeletal entries."""
    from hybridcorr.alba import run
    from hybridcorr.corpus import CORPUS

    return [
        q
        for entry in CORPUS
        if entry.expect_skeletal
        for q in run(parse_input(entry.input_text)).quasis
    ]


def within_budget(item, cap):
    try:
        semantics.admit(check_cases(item, EnumerationLimits(cap)))
    except EnumerationCapError:
        return False
    return True


class TestSmallFrames:
    """The validity checks decide every frame of up to three worlds as one
    block of frames of min(cap, 3) worlds.  The blocks of frame_blocks stay
    the reference: decided one by one, their masks laid end to end and
    their counts summed, they give the same results."""

    def test_block_holds_every_small_frame(self):
        for size in (1, 2, 3):
            block = semantics._small_frames(size)
            assert block.count == EnumerationLimits(size).count
            for j in range(block.count):
                fr = frame_at_index(j)
                held = {
                    (u, v)
                    for u in range(size)
                    for v in range(size)
                    if block.edges[u][v] >> j & 1
                }
                assert held == fr.relation, j
                assert [w for w in range(size) if block.lacking[w] >> j & 1] == list(
                    range(fr.size, size)
                )

    @pytest.mark.parametrize("p, k", [(0, 0), (0, 4), (0, 7), (1, 3), (2, 2), (3, 0)])
    def test_each_small_frame_model_is_weighed_once(self, p, k):
        members = _orbit_members(p, k, (1, 2, 3))
        # the members of the 3-world block, weighed there as on it
        assert [(v, pl, ws[-1:]) for v, pl, ws in members] == list(_orbit_members(p, k, (3,)))
        for part, n in enumerate((1, 2, 3)):
            weights = [w[part] for *_, w in members]
            assert sum(weights) == 2 ** (n * p) * n**k
            assert sum(map(bool, weights)) == len(list(_members(p, k, n, (n,))))

    @pytest.mark.parametrize("cap", [1, 2, 3, 4])
    def test_corpus_outputs_against_per_size_blocks(self, cap):
        # <>Tr(q) fails at dead ends, so the check has mismatches to report
        cases = [
            (q, f)
            for q in corpus_outputs()
            for f in (None, tr_quasi(q), Dia(tr_quasi(q)))
            if cap < 4 or len(sorted_symbols(q)[1]) <= 3
        ]
        found = 0
        for q, f in cases:
            merged = semantics._valid_mask(EnumerationLimits(cap), q, f)
            assert merged == per_size_blocks(cap, q, f), (str(q), f)
            found += merged[2] > 0
        assert found

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_weights_against_the_full_product(self, monkeypatch, cap):
        # With nothing renamable each size's block decides every placement
        # with weight 1, so the weights of the canonical members on the
        # merged block must add up to the same models checked and
        # mismatched.  The first mismatch is a canonical placement too.
        cases = [(q, f) for q in corpus_outputs() for f in (tr_quasi(q), Dia(tr_quasi(q)))]
        renamed = [semantics._valid_mask(EnumerationLimits(cap), q, f) for q, f in cases]
        monkeypatch.setattr(semantics, "_renamable", lambda frames: 1)
        for (q, f), (mask, checked, mismatched, found) in zip(cases, renamed):
            product_mask, product_checked, product_mismatched, product_found = per_size_blocks(
                cap, q, f
            )
            assert mask == product_mask, (str(q), f)
            assert (checked, mismatched) == (product_checked, product_mismatched), (str(q), f)
            assert found[:1] == product_found[:1], (str(q), f)
        assert any(mismatched for _, _, mismatched, _ in renamed)

    @settings(max_examples=60, deadline=None)
    @given(quasis(max_leaves=4), st.integers(1, 4), st.sampled_from([None, 0, 1]))
    def test_drawn_items_against_per_size_blocks(self, q, cap, side):
        # A translation built from q's own conclusion, which may mention
        # props: members whose restrictions repeat must weigh nothing.
        assume(within_budget(q, cap))
        c = q.conclusion
        translation = None if side is None else Dia((c.lhs, c.rhs)[side])
        merged = semantics._valid_mask(EnumerationLimits(cap), q, translation)
        assert merged == per_size_blocks(cap, q, translation)

    @pytest.mark.parametrize("count", [*range(1, 20), 530])
    def test_widen_joins_any_count(self, count):
        reps = [((v,), (w,), 1) for v in range(8) for w in range(3)]
        values = semantics._widen(reps, 3, count)
        ones = (1 << count) - 1
        for b, (valuation, placement, _) in enumerate(reps):
            for w in range(3):
                assert values[0][w] >> b * count & ones == (ones if valuation[0] >> w & 1 else 0)
                assert values[1][w] >> b * count & ones == (ones if placement[0] == w else 0)
        assert all(x < 1 << len(reps) * count for row in values for x in row)


class TestTableCaches:
    """The tables of canonical members and of one-batch environments are
    kept for a bounded number of shapes."""

    CACHES = (_orbit_members, _one_batch)

    def test_more_shapes_than_kept_stay_bounded(self):
        for cache in self.CACHES:
            assert cache.cache_info().maxsize == _TABLES_KEPT
        for n in range(2, _TABLES_KEPT + 12):
            # one symbol at n renamable worlds: one placement, at world 0
            assert _orbit_members(0, 1, (n,)) == (((), (0,), (n,)),)
            # two one-world frames, of which n lack world 0
            batch, values, absent = _one_batch(0, 1, 1, (1,), n + 2, (((1 << n) - 1) << 2,))
            full = (1 << n + 2) - 1
            assert batch == (((), (0,), (1,)),) and values == [(full,)] and absent == full ^ 3
        for cache in self.CACHES:
            assert cache.cache_info().currsize <= _TABLES_KEPT

    def test_evicted_table_is_rebuilt_equal(self):
        before = [_orbit_members(1, 3, sizes) for sizes in [(3,), (1, 2, 3)]]
        for n in range(2, _TABLES_KEPT + 12):
            _orbit_members(0, 1, (n,))
        assert [_orbit_members(1, 3, sizes) for sizes in [(3,), (1, 2, 3)]] == before


class TestFrameValidQuasi:
    def test_box_output_on_reflexive_pair(self):
        q = parse_quasi("'i0 <= []~'i1 => 'i0 <= ~'i1")
        fr = KripkeFrame(2, frozenset({(0, 0), (1, 1)}))
        assert frame_valid_quasi(fr, q)

    def test_box_output_on_bare_point(self):
        q = parse_quasi("'i0 <= []~'i1 => 'i0 <= ~'i1")
        assert not frame_valid_quasi(BARE1, q)

    def test_empty_set(self):
        assert frame_valid_quasi_set(BARE1, [])

    def test_empty_set_past_the_world_cap(self):
        # every frame up to 6 worlds would be a mask of 68,753,097,234 bits
        with pytest.raises(EnumerationCapError, match="checks stop at 5 worlds"):
            frame_valid_quasi_set(EnumerationLimits(6), [])
        with pytest.raises(ValueError, match="below 1"):
            frame_valid_quasi_set(EnumerationLimits(0), [])

    @settings(max_examples=150, deadline=None)
    @given(translatable_quasis(), st.sampled_from([2, 3]), st.sampled_from([None, 0]))
    def test_one_mask_with_and_without_a_translation(self, q, cap, batch_bits):
        # Alone, a block stops once q has failed on all its frames; the
        # translation check decides every batch and compares.  Both give
        # q's mask, whether the translation is right or wrong, in one batch
        # of every member or (_BATCH_BITS 0) in one batch per member.
        limits = EnumerationLimits(cap)
        bits = semantics._BATCH_BITS if batch_bits is None else batch_bits
        with mock.patch.object(semantics, "_BATCH_BITS", bits):
            valid = frame_valid_quasi(limits, q)
            for f in (tr_quasi(q), Dia(tr_quasi(q))):
                assert equivalence_check(q, f, limits)[0] == valid, (str(q), str(f))

    def test_purity_required(self):
        # frame_valid_quasi decides any quasi-inequality; the outputs that
        # verify_correspondence compares with the input must be pure
        q = parse_quasi("'i <= p => 'i <= ~'j")
        assert frame_valid_quasi(BARE1, q) == 0  # p true at the one world
        with pytest.raises(ValueError, match="^quasi-inequality is not pure: contains p$"):
            verify_correspondence(parse("[]p -> p"), [q], EnumerationLimits(max_worlds=1))
        # the symbols are named, in sorted order
        q2 = parse_quasi("'i <= q => 'i <= p")
        with pytest.raises(ValueError, match="^quasi-inequality is not pure: contains p, q$"):
            verify_correspondence(parse("[]p -> p"), [q2], EnumerationLimits(max_worlds=1))

    def test_binder_idempotence_against_replacement(self):
        # evaluating the binder equals naming the world with a fresh nominal
        from hybridcorr.syntax import replace_state_var

        rng = random.Random(5)
        body = parse("<>x & p")
        fresh = nom("k9")
        for _ in range(100):
            m = random_model(rng, [P], [])
            for w in range(m.frame.size):
                named = KripkeModel(m.frame, m.prop_val, {**m.nom_val, fresh: w})
                direct = eval_at(m, {}, w, parse("!x.(<>x & p)"))
                replaced = eval_at(named, {}, w, replace_state_var(body, X, fresh))
                assert direct == replaced


class TestBinderShadowing:
    def test_all_evaluators_agree_under_shadowing(self):
        cases = [
            parse("!x. <>!x. (x & <>x)"),  # inner binder shadows the outer
            parse("!x. <>(x | !x. @x <>x)"),
            parse("!x. !y. @x <>y -> !y. !x. @y <>x"),
        ]
        for f in cases:
            for fr in enumerate_frames(2):
                m = model(fr)
                mask = truth_mask(m, {}, f)
                for w in range(fr.size):
                    assert eval_at(m, {}, w, f) == bool((mask >> w) & 1)
                manual = all(eval_at(m, {}, w, f) for w in range(fr.size))
                assert frame_valid(fr, f) == manual


class TestFrameAgreement:
    LIMITS = EnumerationLimits(max_worlds=2)

    def test_matches_per_frame_checks(self):
        from hybridcorr.alba import run
        from hybridcorr.corpus import CORPUS

        frames = list(enumerate_frames(2, self.LIMITS))
        for entry in CORPUS:
            if not entry.expect_skeletal:
                continue
            ineq = parse_input(entry.input_text)
            quasis = run(ineq).quasis
            report = verify_correspondence(ineq, quasis, self.LIMITS)
            f = Implies(ineq.lhs, ineq.rhs)
            assert report.frames == len(frames) == 18
            assert list(frame_indices(report.valid_in)) == [
                k for k, fr in enumerate(frames) if frame_valid(fr, f)
            ]
            assert list(frame_indices(report.valid_out)) == [
                k
                for k, fr in enumerate(frames)
                if frame_valid_quasi_set(fr, quasis)
            ]
            assert report.ok and report.agreements == 18
            assert report.counterexamples == []

    def test_wrong_output_reported(self):
        from hybridcorr.alba import run

        trans = parse_input("<> <> p -> <> p")
        refl_box = run(parse_input("[]p -> p")).quasis
        report = verify_correspondence(trans, refl_box, EnumerationLimits(max_worlds=3))
        assert report.frames == 530
        assert not report.ok
        assert report.agreements < report.frames
        disagreements = report.frames - report.agreements
        assert len(report.counterexamples) == min(5, disagreements)
        assert all("input=" in c and "output=" in c for c in report.counterexamples)


class TestFrameClassMasks:
    """The frame classes decided from the edge masks, block by block,
    against the per-frame predicates of FRAME_CLASSES."""

    def test_every_frame_up_to_four_worlds(self):
        limits = EnumerationLimits(4)
        frames = list(enumerate_frames(4, limits))
        assert len(frames) == 66_066
        for name, pred in FRAME_CLASSES.items():
            expected = [k for k, fr in enumerate(frames) if pred(fr)]
            assert list(frame_indices(frame_class_mask(name, limits))) == expected, name
            for fr in frames[500:530]:
                assert frame_class_mask(name, fr) == pred(fr), (name, fr)

    def test_counts_up_to_five_worlds(self):
        limits = EnumerationLimits(5)
        counts = {
            name: frame_class_mask(name, limits).bit_count()
            for name in ("reflexive", "transitive", "symmetric", "dense", "singleton")
        }
        assert counts == {
            "reflexive": 1_052_741,
            "transitive": 158_483,
            "symmetric": 33_866,
            "dense": 15_374_769,
            "singleton": 2,
        }


class TestEnumerateFrames:
    def test_counts(self):
        assert sum(1 for _ in enumerate_frames(1)) == 2
        assert sum(1 for _ in enumerate_frames(2)) == 18
        assert sum(1 for _ in enumerate_frames(3)) == 530

    def test_unique_and_reproducible(self):
        frames = list(enumerate_frames(3))
        assert len(set(frames)) == 530
        first = list(enumerate_frames(2))[:4]
        assert [fr.relation for fr in first] == [
            frozenset(),
            frozenset({(0, 0)}),
            frozenset(),
            frozenset({(0, 0)}),
        ]

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            list(enumerate_frames(4))
        assert sum(1 for _ in enumerate_frames(4, EnumerationLimits(max_worlds=4))) > 530


class TestFrameBlocks:
    def test_decoder_matches_enumeration_order(self):
        offset = 0
        for n in (1, 2, 3):
            pairs = [(a, b) for a in range(n) for b in range(n)]
            decoded = [frame_at(n, m) for m in range(2 ** (n * n))]
            assert decoded == list(enumerate_frames(n))[offset:]
            # bit k of m is the k-th world pair in lexicographic order
            assert [fr.relation for fr in decoded] == [
                frozenset(p for k, p in enumerate(pairs) if (m >> k) & 1)
                for m in range(2 ** (n * n))
            ]
            offset += len(decoded)

    def test_block_edges_decode_to_frames(self):
        for block in frame_blocks(EnumerationLimits(3)):
            n = block.size
            for j in range(block.count):
                held = {(u, v) for u in range(n) for v in range(n) if (block.edges[u][v] >> j) & 1}
                assert held == frame_at(n, block.start + j).relation

    def test_one_block_per_size_up_to_four(self):
        blocks = list(frame_blocks(EnumerationLimits(max_worlds=4)))
        assert [(b.size, b.start, b.count) for b in blocks] == [
            (1, 0, 2), (2, 0, 16), (3, 0, 512), (4, 0, 65536)
        ]
        assert [_frames_below(b.size) + b.start for b in blocks] == [0, 2, 18, 530]

    def test_five_worlds_split_into_blocks_of_2_16(self):
        # decoding only: no formula is evaluated at five worlds
        blocks = [
            b for b in frame_blocks(EnumerationLimits(max_worlds=5)) if b.size == 5
        ]
        assert len(blocks) == 512
        assert all(b.count == 1 << 16 for b in blocks)
        assert [b.start for b in blocks] == [k << 16 for k in range(512)]
        for k in (0, 1, 200, 511):
            for j in (0, 1, 0x1234, 0xFFFF):
                held = {
                    (u, v) for u in range(5) for v in range(5)
                    if (blocks[k].edges[u][v] >> j) & 1
                }
                assert held == frame_at(5, (k << 16) + j).relation

    def test_masks_of_blocks_laid_end_to_end(self):
        assert _concatenated([(0b1, 1)]) == 0b1
        assert _concatenated([(0b1, 1), (0b10, 2), (0b101, 3)]) == 0b101_10_1
        # five worlds: 4 single blocks, then 512 blocks of 2^16 frames
        limits = EnumerationLimits(max_worlds=5)
        serial = frame_valid(limits, parse("<>T"))
        for k in random.Random(5).sample(range(limits.count), 200):
            fr = frame_at_index(k)
            sources = {u for u, _ in fr.relation}
            assert (serial >> k) & 1 == (len(sources) == fr.size), k

    def test_frame_indices(self):
        assert list(frame_indices(0)) == []
        assert list(frame_indices(0b101001)) == [0, 3, 5]

    def test_world_cap_below_one(self):
        for cap in (0, -2):
            with pytest.raises(ValueError):
                frame_blocks(EnumerationLimits(cap))
            with pytest.raises(ValueError):
                list(enumerate_frames(cap))

    @pytest.mark.parametrize("cap", [50, 1000])
    def test_world_cap_far_above_five(self, cap):
        # refused at once, without counting the frames up to the refused cap
        # (a number of about cap^2 / 3.3 digits)
        limits = EnumerationLimits(cap)
        checks = [
            lambda: frame_valid(limits, parse("p -> p")),
            lambda: frame_valid_quasi_set(limits, []),
            lambda: frame_blocks(limits),
        ]
        start = time.perf_counter()
        for check in checks:
            with pytest.raises(EnumerationCapError) as refused:
                check()
            assert str(refused.value) == (
                f"{cap} worlds would mean at least 68,753,097,234 frames; checks stop at 5 worlds"
            )
        assert time.perf_counter() - start < 1.0


class TestModelFixtures:
    def test_parse_model_roundtrip(self):
        m, g = parse_model("worlds=3; rel={(0,1),(1,2)}; 'i=0; p={0,2}; x=1")
        assert m.frame.size == 3
        assert m.frame.relation == frozenset({(0, 1), (1, 2)})
        assert m.nom_val == {I: 0}
        assert m.prop_val == {P: frozenset({0, 2})}
        assert g == {X: 1}
        j = model_to_json(m, g)
        assert j["worlds"] == 3 and j["assignment"] == {"x": 1}

    def test_nominal_must_be_single_world(self):
        with pytest.raises(ValueError):
            KripkeModel(BARE1, {}, {I: 5})
