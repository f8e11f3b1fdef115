"""The signed facts each node keeps, checked against walks of the trees.

Classification, polarity, the final shapes 4/5, uniform-variable
elimination and the distribution-redex search read the signed facts.  Each
is compared here with the same question answered by the walk oracles of
``oracles``, on hypothesis draws and on the first 500 draws of
``SkeletalGenerator(1000)``.
"""

import dataclasses
import functools

import pytest
from hypothesis import given, settings

from hybridcorr import alba
from hybridcorr.alba import (
    _find_redex,
    _uniform_step,
    final_form,
    first_approximation,
    preprocess,
    reduce_substage1,
)
from hybridcorr.classify import (
    OrderType,
    Pol,
    SignedFacts,
    find_order_type,
    inequality_facts,
    is_definite,
    is_skeletal_sahlqvist,
    signed_facts,
)
from hybridcorr.generate import SkeletalGenerator
from hybridcorr.syntax import (
    FreshContext,
    Inequality,
    Nom,
    Not,
    Sign,
    formula_to_json,
    nom,
    parse,
    parse_inequality,
    prop,
    props_in_order,
)

import oracles
from strategies import formulas, inequalities

P = prop("p")
Q = prop("q")
ANCHOR = Nom(nom("a"))


@functools.cache
def generated() -> tuple[Inequality, ...]:
    gen = SkeletalGenerator(1000)
    return tuple(gen.inequality()[0] for _ in range(500))


def assert_classification_matches(ineq: Inequality) -> None:
    for eps in oracles.order_type_candidates(props_in_order(ineq)):
        skeletal = oracles.is_skeletal(ineq, eps)
        assert is_skeletal_sahlqvist(ineq, eps) == skeletal, (str(ineq), str(eps))
        if skeletal:
            assert is_definite(ineq, eps) == oracles.is_definite(ineq, eps), (str(ineq), str(eps))
        else:
            with pytest.raises(ValueError):
                is_definite(ineq, eps)
        uniform = all(
            f.plus <= eps.ones and f.minus <= eps.partials for f in inequality_facts(ineq)
        )
        assert uniform == oracles.is_epsilon_uniform(ineq, eps)
    assert find_order_type(ineq) == oracles.first_witness(ineq)


def assert_shapes_match(ineq: Inequality, eps: OrderType) -> None:
    assert final_form(ineq, eps) == oracles.final_form(ineq, eps), (str(ineq), str(eps))


def assert_stage1_matches(ineq: Inequality) -> None:
    assert _uniform_step(ineq) == oracles.uniform_step(ineq), str(ineq)
    for f, sign in ((ineq.lhs, Sign.PLUS), (ineq.rhs, Sign.MINUS)):
        for s in (sign, sign.flip()):
            expected = oracles.find_redex(f, s)
            assert signed_facts(f, s).redex == (expected is not None), (str(f), str(s))
            if expected is not None:
                assert _find_redex(f, s) == expected, (str(f), str(s))


class TestClassification:
    @settings(max_examples=300, deadline=None)
    @given(inequalities(8))
    def test_drawn(self, ineq):
        assert_classification_matches(ineq)

    def test_generated(self):
        for ineq in generated():
            assert_classification_matches(ineq)


class TestFinalShapes:
    @settings(max_examples=300, deadline=None)
    @given(formulas(8))
    def test_drawn_against_an_anchor(self, f):
        # both system shapes, for every order type on f's variables
        for eps in oracles.order_type_candidates(props_in_order(f)):
            assert_shapes_match(Inequality(ANCHOR, f), eps)
            assert_shapes_match(Inequality(f, Not(ANCHOR)), eps)

    def test_generated_substage1_outputs(self):
        # the inequalities final_form meets in the engine
        for ineq in generated():
            eps = find_order_type(ineq)
            for part in preprocess(ineq):
                system = first_approximation(part, FreshContext.from_formulas(part.lhs, part.rhs))
                for out in reduce_substage1(system).inequalities:
                    assert_shapes_match(out, eps)
                    assert_shapes_match(out, eps.opposite())


class TestStage1:
    @settings(max_examples=300, deadline=None)
    @given(inequalities(8))
    def test_drawn(self, ineq):
        assert_stage1_matches(ineq)

    def test_generated_through_preprocessing(self):
        # every inequality stage 1 holds on the way, not only its inputs
        for ineq in generated():
            trace = alba.AlbaTrace("preprocess", (ineq,))
            preprocess(ineq, trace=trace)
            assert_stage1_matches(ineq)
            for step in trace.steps:
                for produced in step.produced:
                    assert_stage1_matches(produced)

    def test_saturation_trace_is_a_rescan_from_the_start(self):
        # resuming at the rewritten inequality gives the steps a rescan
        # from index 0 would
        for ineq in generated()[:200]:
            trace = alba.AlbaTrace("preprocess", (ineq,))
            preprocess(ineq, trace=trace)
            state = (ineq,)
            steps = []
            for find_step in (alba._distribution_step, alba._split_step, alba._uniform_step):
                while True:
                    found = next(
                        ((i, r) for i in state if (r := find_step(i)) is not None), None
                    )
                    if found is None:
                        break
                    i, (rule, produced, just) = found
                    step = alba.TraceStep(rule, (i,), produced, just)
                    steps.append(step)
                    state = alba.apply_step(state, step)
            assert trace.steps == steps
            assert trace.final == state


class TestFacts:
    def test_examples(self):
        # +([]p & <>(q | p)) and -(p -> <>q)
        plus = signed_facts(parse("[]p & <>(q | p)"), Sign.PLUS)
        assert plus == SignedFacts(
            frozenset({P, Q}), frozenset(), frozenset({P}), frozenset(),
            frozenset({P, Q}), frozenset(), True,
        )
        minus = signed_facts(parse("p -> <>q"), Sign.MINUS)
        assert minus == SignedFacts(
            frozenset({P}), frozenset({Q}), frozenset(), frozenset({Q}),
            frozenset(), frozenset(), False,
        )

    def test_one_pass_order_type(self):
        # p cannot be 1 (a +p under +box) but can be d; q can be 1
        ineq = parse_inequality("[]p & q <= []p")
        eps = find_order_type(ineq)
        assert eps == OrderType(((P, Pol.PARTIAL), (Q, Pol.ONE)))
        # -p under -dia as well: no order type
        assert find_order_type(parse_inequality("[]p <= <>p")) is None

    @settings(max_examples=200, deadline=None)
    @given(formulas(10))
    def test_kept_facts_are_invisible(self, f):
        fresh = oracles.formula_from_json(formula_to_json(f))
        for sign in Sign:
            assert signed_facts(f, sign) == signed_facts(fresh, sign)
        assert f == fresh and hash(f) == hash(fresh) and repr(f) == repr(fresh)
        assert "_plus_facts" not in repr(f)
        assert [x.name for x in dataclasses.fields(f)] == [
            x.name for x in dataclasses.fields(fresh)
        ]
