"""Satisfaction clauses, validity, and the frame enumeration oracle."""

import itertools
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridcorr.semantics import (
    FRAME_CLASSES,
    EnumerationCapError,
    EnumerationLimits,
    FramesUpTo,
    KripkeFrame,
    KripkeModel,
    UnboundSymbolError,
    enumerate_frames,
    eval_at,
    frame_at,
    frame_at_index,
    frame_blocks,
    frame_indices,
    frame_valid,
    frame_valid_quasi,
    frame_valid_quasi_set,
    globally_true,
    holds_inequality,
    holds_quasi,
    model_to_json,
    truth_mask,
)
from hybridcorr import semantics
from hybridcorr.semantics import (
    _TABLES_KEPT,
    _batch_width,
    _canonical_placements,
    _close_under_renaming,
    _concatenated,
    _one_batch,
    _orbit_representatives,
    _tables,
    check_cases,
)
from hybridcorr.syntax import (
    BOT,
    TOP,
    And,
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
    svar,
)
from hybridcorr.translate import verify_correspondence

from models import parse_model, random_model
from strategies import formulas, models_for, quasis

P = prop("p")
X = svar("x")
I = nom("i")

LOOP1 = KripkeFrame(1, frozenset({(0, 0)}))
BARE1 = KripkeFrame(1, frozenset())
# The one block of each size up to 2.
BLOCKS = list(frame_blocks(2))


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

    monkeypatch.setattr(semantics, "_canonical_placements", built)


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

    def test_cap_guard(self, monkeypatch):
        # 21 nominals: 1 + 2^21 cases on the frames with up to 2 worlds
        refused_before_any_table(monkeypatch)
        q = QuasiInequality((), Inequality(conjunction_of(21), TOP))
        start = time.perf_counter()
        with pytest.raises(EnumerationCapError, match="2,097,153 cases exceed the budget of 1,048,576"):
            frame_valid_quasi(FramesUpTo(2), q)
        assert time.perf_counter() - start < 1.0


class TestCaseBudget:
    """One budget, MAX_CASES = 2^20, bounds a check's cases: on a block of n
    worlds n^nominals * 2^(n*props) * n^state-variables, summed over the
    blocks the check decides, and admitted before any table is built."""

    def test_cases_summed_over_blocks(self, monkeypatch):
        f = parse("<>(p & q & r) -> <>p")
        five = EnumerationLimits(max_worlds=5)
        # 2 + 64 + 512 + 4,096 on sizes 1..4, 2^15 on each of 512 blocks at 5
        assert check_cases(f, frame_blocks(5, five)) == 16_781_896
        refused_before_any_table(monkeypatch)
        with pytest.raises(EnumerationCapError, match="16,781,896 cases"):
            frame_valid(FramesUpTo(5), f, five)
        # 20 nominals: no block has more than 2^20 cases, the two together do
        q = QuasiInequality((), Inequality(conjunction_of(20), TOP))
        with pytest.raises(EnumerationCapError, match="1,048,577 cases"):
            frame_valid_quasi(FramesUpTo(2), q)

    def test_state_variables_counted(self, monkeypatch):
        # 10 nominals and 11 state variables: 1 + 2^21 cases up to 2 worlds
        f = Implies(conjunction_of(10, 11), TOP)
        assert check_cases(f, frame_blocks(2)) == 2_097_153
        refused_before_any_table(monkeypatch)
        with pytest.raises(EnumerationCapError, match="2,097,153 cases"):
            frame_valid(FramesUpTo(2), f)

    def test_props_need_no_cap_of_their_own(self):
        # four props on one frame of one world are 16 cases
        assert check_cases(parse("p & q & r & p1"), [LOOP1]) == 16
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


def placed(*items):
    """Number of nominals and free state variables of the items."""
    _, ns, vs = sorted_symbols(*items)
    return len(ns) + len(vs)


def per_frame(check, item, n, frames, limits=EnumerationLimits(max_worlds=4)):
    """The mask of check(frame_at(n, m), item) over the frame numbers m.
    A single frame renames no world, so it decides every placement."""
    return sum(check(frame_at(n, m), item, limits) << m for m in frames)


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
    return next(b for b in frame_blocks(n, EnumerationLimits(max_worlds=n)) if b.size == n)


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
        canonical = list(_canonical_placements(0, k, n, n))
        # one placement per partition of the symbols into at most n groups
        assert len(canonical) == sum(stirling2(k, j) for j in range(min(k, n) + 1))
        # orbit sizes add up to every placement
        assert sum(weight for _, _, weight in canonical) == n**k
        # each is the least member of its orbit, and they come in order
        assert {valuation for valuation, _, _ in canonical} == {()}
        placements = [p for _, p, _ in canonical]
        assert placements == sorted(placements)
        for _, p, weight in canonical:
            orbit = {tuple(pi[w] for w in p) for pi in itertools.permutations(range(n))}
            assert min(orbit) == p and len(orbit) == weight

    def test_sizes_named_in_the_docs(self):
        assert len(list(_canonical_placements(0, 6, 3, 3))) == 122
        assert len(list(_canonical_placements(0, 7, 4, 4))) == 715

    @pytest.mark.parametrize("k", range(6))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_nothing_renamable_is_the_full_product(self, k, n):
        canonical = _canonical_placements(0, k, n, 1)
        # generated lazily, not kept
        assert iter(canonical) is canonical
        canonical = list(canonical)
        assert [p for _, p, _ in canonical] == list(itertools.product(range(n), repeat=k))
        assert {weight for _, _, weight in canonical} == {1}


class TestCanonicalValuations:
    """Canonical valuations of props together with placements."""

    @pytest.mark.parametrize("p, k, n", itertools.product((1, 2), range(4), range(1, 5)))
    def test_weights_count_every_valuation_and_placement(self, p, k, n):
        canonical = _canonical_placements(p, k, n, n)
        assert sum(weight for _, _, weight in canonical) == 2 ** (p * n) * n**k

    @pytest.mark.parametrize("p, k, n", itertools.product((1, 2), range(4), range(1, 4)))
    def test_least_member_of_its_orbit(self, p, k, n):
        canonical = list(_canonical_placements(p, k, n, n))
        keys = [orbit_key(v, pl, n) for v, pl, _ in canonical]
        assert keys == sorted(set(keys))
        for valuation, placement, weight in canonical:
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
        canonical = _canonical_placements(p, k, n, n)
        assert len(canonical) == count
        assert sum(weight for _, _, weight in canonical) == of

    @pytest.mark.parametrize("p, k, n", [(1, 0, 3), (1, 2, 2), (2, 1, 2), (3, 0, 1)])
    def test_nothing_renamable_is_the_full_product(self, p, k, n):
        canonical = list(_canonical_placements(p, k, n, 1))
        assert [(v, pl) for v, pl, _ in canonical] == list(
            itertools.product(itertools.product(range(1 << n), repeat=p),
                              itertools.product(range(n), repeat=k))
        )
        assert {weight for _, _, weight in canonical} == {1}


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

        limits = EnumerationLimits(max_worlds=4)
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
            assert frame_valid(block, f, limits) & keep == per_frame(
                frame_valid, f, 4, sample, limits
            ), str(ineq)
        for entry in CORPUS:
            if not entry.expect_skeletal:
                continue
            ineq = parse_input(entry.input_text)
            f = Implies(ineq.lhs, ineq.rhs)
            quasis = run(ineq).quasis
            assert frame_valid(block, f, limits) & keep == per_frame(
                frame_valid, f, 4, sample, limits
            ), entry.name
            assert frame_valid_quasi_set(block, quasis, limits) & keep == per_frame(
                frame_valid_quasi_set, quasis, 4, sample, limits
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
        mask = check(block_of_size(n), item, EnumerationLimits(max_worlds=4))
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


class TestBatches:
    """The loop decides up to 2^16 / count valuations and placements per
    evaluation on count frames.  With the bound set to 0 every batch has
    one member, which gives the reference masks."""

    LIMITS = EnumerationLimits(max_worlds=3)

    def test_batches_at_three_worlds(self):
        # 7 nominals: 365 canonical placements, in batches of 2^16 / 512
        assert _batch_width(THREE) == 128
        assert len(_orbit_representatives(0, 7, 3, 3)) == 365
        q = parse_quasi("'a <= <>'b ; 'c <= <>'d ; 'e <= <>'f => 'g <= ~'a")
        assert list(map(len, sorted_symbols(q))) == [0, 7, 0]
        assert [len(batch) for batch, _ in _tables(0, 7, THREE)] == [128, 128, 109]
        assert len(_orbit_representatives(1, 5, 3, 3)) == 326
        assert len(_orbit_representatives(2, 3, 3, 3)) == 296

    def test_widths_by_size(self):
        whole = [block_of_size(n) for n in range(1, 5)]
        assert [_batch_width(b) for b in whole] == [32_768, 4_096, 128, 1]
        assert _batch_width(LOOP1) == 65_536

    @pytest.mark.parametrize(
        "frames, check, text",
        [
            pytest.param(FramesUpTo(3), check, text, id=f"{check.__name__}-{text}")
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
        batched = check(frames, item, self.LIMITS)
        monkeypatch.setattr(semantics, "_BATCH_BITS", 0)
        assert batched == check(frames, item, self.LIMITS)
        if isinstance(frames, KripkeFrame):
            assert batched == check(THREE, item, self.LIMITS) >> 7 & 1
        else:
            assert 0 < batched.bit_count() < frames.count


class TestTableCaches:
    """The tables of canonical members and of one-batch environments are
    kept for a bounded number of shapes."""

    def test_more_shapes_than_kept_stay_bounded(self):
        for cache in (_orbit_representatives, _one_batch):
            assert cache.cache_info().maxsize == _TABLES_KEPT
        # one symbol at n worlds, two of them renamable: n - 1 placements
        for n in range(2, _TABLES_KEPT + 12):
            assert len(_orbit_representatives(0, 1, n, 2)) == n - 1
            reps, values = _one_batch(0, 1, 1, 1, n)
            assert reps == (((), (0,), 1),) and values == [((1 << n) - 1,)]
        for cache in (_orbit_representatives, _one_batch):
            assert cache.cache_info().currsize <= _TABLES_KEPT

    def test_evicted_table_is_rebuilt_equal(self):
        before = _orbit_representatives(1, 3, 3, 3)
        for n in range(2, _TABLES_KEPT + 12):
            _orbit_representatives(0, 1, n, 2)
        assert _orbit_representatives(1, 3, 3, 3) == before


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

    def test_purity_required(self):
        # frame_valid_quasi decides any quasi-inequality; the outputs that
        # verify_correspondence compares with the input must be pure
        q = parse_quasi("'i <= p => 'i <= ~'j")
        assert frame_valid_quasi(BARE1, q) == 0  # p true at the one world
        with pytest.raises(ValueError, match="not pure"):
            verify_correspondence(parse("[]p -> p"), [q], EnumerationLimits(max_worlds=1))

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
                k for k, fr in enumerate(frames) if frame_valid(fr, f, self.LIMITS)
            ]
            assert list(frame_indices(report.valid_out)) == [
                k
                for k, fr in enumerate(frames)
                if frame_valid_quasi_set(fr, quasis, self.LIMITS)
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
        for block in frame_blocks(3):
            n = block.size
            for j in range(block.count):
                held = {(u, v) for u in range(n) for v in range(n) if (block.edges[u][v] >> j) & 1}
                assert held == frame_at(n, block.start + j).relation

    def test_one_block_per_size_up_to_four(self):
        blocks = list(frame_blocks(4, EnumerationLimits(max_worlds=4)))
        assert [(b.size, b.start, b.count) for b in blocks] == [
            (1, 0, 2), (2, 0, 16), (3, 0, 512), (4, 0, 65536)
        ]
        assert [b.index for b in blocks] == [0, 2, 18, 530]

    def test_five_worlds_split_into_blocks_of_2_16(self):
        # decoding only: no formula is evaluated at five worlds
        blocks = [
            b for b in frame_blocks(5, EnumerationLimits(max_worlds=5)) if b.size == 5
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
        serial = frame_valid(FramesUpTo(5), parse("<>T"), limits)
        for k in random.Random(5).sample(range(FramesUpTo(5).count), 200):
            fr = frame_at_index(k)
            sources = {u for u, _ in fr.relation}
            assert (serial >> k) & 1 == (len(sources) == fr.size), k

    def test_frame_indices(self):
        assert list(frame_indices(0)) == []
        assert list(frame_indices(0b101001)) == [0, 3, 5]

    def test_world_cap_below_one(self):
        for cap in (0, -2):
            with pytest.raises(ValueError):
                frame_blocks(cap)
            with pytest.raises(ValueError):
                list(enumerate_frames(cap))


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
