"""Satisfaction clauses, validity, and the frame enumeration oracle."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridcorr.semantics import (
    FRAME_CLASSES,
    EnumerationCapError,
    EnumerationLimits,
    KripkeFrame,
    KripkeModel,
    UnboundSymbolError,
    enumerate_frames,
    eval_at,
    frame_agreement,
    frame_at,
    frame_blocks,
    frame_indices,
    frame_valid,
    frame_valid_quasi,
    frame_valid_quasi_set,
    globally_true,
    holds_inequality,
    holds_quasi,
    model_to_json,
    parse_model,
    random_model,
    truth_mask,
)
from hybridcorr.semantics import _canonical_placements, _close_under_renaming
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

    def test_cap_guard(self):
        f = parse("p & q & r & p1")
        with pytest.raises(EnumerationCapError):
            frame_valid(LOOP1, f)


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


class TestCanonicalPlacements:
    @pytest.mark.parametrize("k", range(8))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_one_per_orbit(self, k, n):
        canonical = _canonical_placements(k, n, n)
        # one placement per partition of the symbols into at most n groups
        assert len(canonical) == sum(stirling2(k, j) for j in range(min(k, n) + 1))
        # orbit sizes add up to every placement
        assert sum(weight for _, weight in canonical) == n**k
        # each is the least member of its orbit, and they come in order
        placements = [p for p, _ in canonical]
        assert placements == sorted(placements)
        for p, weight in canonical:
            orbit = {tuple(pi[w] for w in p) for pi in itertools.permutations(range(n))}
            assert min(orbit) == p and len(orbit) == weight

    def test_sizes_named_in_the_docs(self):
        assert len(_canonical_placements(6, 3, 3)) == 122
        assert len(_canonical_placements(7, 4, 4)) == 715

    @pytest.mark.parametrize("k", range(6))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_nothing_renamable_is_the_full_product(self, k, n):
        canonical = _canonical_placements(k, n, 1)
        assert [p for p, _ in canonical] == list(itertools.product(range(n), repeat=k))
        assert {weight for _, weight in canonical} == {1}


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

        limits = EnumerationLimits(max_worlds=4, max_nominals=12, max_count=50_000_000)
        block = block_of_size(4)
        sample = sorted(random.Random(1).sample(range(1 << 16), 32))
        keep = sum(1 << m for m in sample)
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
        # frame_agreement compares with the input must be pure
        q = parse_quasi("'i <= p => 'i <= ~'j")
        assert frame_valid_quasi(BARE1, q) == 0  # p true at the one world
        with pytest.raises(ValueError, match="not pure"):
            frame_agreement(parse("[]p -> p"), [q], EnumerationLimits(max_worlds=1))

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
            report = frame_agreement(ineq, quasis, self.LIMITS)
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
        report = frame_agreement(trans, refl_box, EnumerationLimits(max_worlds=3))
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
