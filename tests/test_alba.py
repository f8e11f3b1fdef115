"""The rewriting engine: preprocessing, decomposition, elimination, traces."""

import itertools
import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hybridcorr import alba
from hybridcorr.alba import (
    AlbaTrace,
    EngineInvariantError,
    Failure,
    Side,
    Success,
    System,
    ackermann,
    as_inequality,
    finalize,
    first_approximation,
    has_system_shape,
    preprocess,
    reduce_substage1,
    replay,
    _root_redex,
    run,
    simplify_formula,
)
from hybridcorr.classify import OrderType, Pol, find_order_type
from hybridcorr.semantics import (
    EnumerationLimits,
    enumerate_frames,
    eval_at,
    frame_valid,
    frame_valid_quasi_set,
)
from hybridcorr.syntax import (
    BOT,
    NODE_NAMES,
    TOP,
    And,
    At,
    Box,
    Dia,
    Down,
    FreshContext,
    Implies,
    Nom,
    Not,
    Or,
    Prop,
    Sign,
    Svar,
    free_state_vars,
    nominals,
    parse,
    parse_inequality,
    props,
    prop,
    svar,
    nom,
)
from hybridcorr.translate import verify_correspondence

from models import random_model
from oracles import holds_inequality
from strategies import formulas, inequalities, models_for

P = prop("p")
Q = prop("q")
R = prop("r")

FIGURE = parse_inequality("<>p1 & p2 <= <>[]<>p1 | <>[]<>p2")


def ineq_formula(ineq):
    return Implies(ineq.lhs, ineq.rhs)


def make_system(*texts, conclusion="'i0 <= ~'i1"):
    ineqs = tuple(parse_inequality(t) for t in texts)
    concl = parse_inequality(conclusion)
    ctx = FreshContext()
    for i in (*ineqs, concl):
        ctx.register_formula(i.lhs)
        ctx.register_formula(i.rhs)
    return System(ineqs, concl, ctx, "test")


class TestPreprocess:
    def test_figure_unchanged(self):
        eps = find_order_type(FIGURE)
        assert preprocess(FIGURE, eps) == [FIGURE]

    def test_splitting(self):
        ineq = parse_inequality("p | q <= <>p | <>q")
        trace = AlbaTrace("preprocess", (ineq,))
        out = preprocess(ineq, trace=trace)
        split_steps = [s for s in trace.steps if s.rule == "split-or-lhs"]
        assert [str(i) for s in split_steps for i in s.produced] == [
            "p <= <>p | <>q",
            "q <= <>p | <>q",
        ]
        # each split part then loses its now-uniform variable
        assert [str(i) for i in out] == [
            "p <= <>p | <>F",
            "q <= <>F | <>q",
        ]

    def test_uniform_variable_eliminated_with_top(self):
        ineq = parse_inequality("<>r & p <= p")
        out = preprocess(ineq)
        assert out == [parse_inequality("<>T & p <= p")]
        # validity-preservation of the elimination on every small frame
        for fr in enumerate_frames(3):
            assert frame_valid(fr, ineq_formula(ineq)) == frame_valid(
                fr, ineq_formula(out[0])
            )

    def test_antitone_variable_eliminated_with_bottom(self):
        ineq = parse_inequality("T <= <>q")
        out = preprocess(ineq)
        assert out == [parse_inequality("T <= <>F")]
        for fr in enumerate_frames(3):
            assert frame_valid(fr, ineq_formula(ineq)) == frame_valid(
                fr, ineq_formula(out[0])
            )

    def test_distribution_over_disjunction(self):
        ineq = parse_inequality("<>(p | q) <= <>p | <>q")
        trace = AlbaTrace("preprocess", (ineq,))
        out = preprocess(ineq, trace=trace)
        assert trace.steps[0].rule == "dist-dia-or"
        assert [str(i) for i in trace.steps[0].produced] == ["<>p | <>q <= <>p | <>q"]
        assert [str(i) for i in out] == [
            "<>p <= <>p | <>F",
            "<>q <= <>F | <>q",
        ]

    def test_minus_side_distribution(self):
        ineq = parse_inequality("p & q <= [](p & q)")
        trace = AlbaTrace("preprocess", (ineq,))
        out = preprocess(ineq, trace=trace)
        # box distributes over the conjunction under the minus sign, the
        # conjunction splits, and each part loses its unconstrained variable
        assert trace.steps[0].rule == "dist-box-and"
        assert [str(i) for i in trace.steps[0].produced] == ["p & q <= []p & []q"]
        assert [str(i) for i in out] == ["p & T <= []p", "T & q <= []q"]


def _paper_redex(f, sign):
    """The fourteen distribution rules of preprocessing, one arm each as the
    paper lists them: rule name, justification tag, rewritten formula."""
    plus, minus = Sign.PLUS, Sign.MINUS
    match (sign, f):
        case (s, Dia(Or(a, b))) if s is plus:
            return "dist-dia-or", "dia-or", Or(Dia(a), Dia(b))
        case (s, Down(v, Or(a, b))) if s is plus:
            return "dist-down-or", "down-or", Or(Down(v, a), Down(v, b))
        case (s, At(t, Or(a, b))) if s is plus:
            return "dist-at-or", "at-or", Or(At(t, a), At(t, b))
        case (s, Not(Or(a, b))) if s is minus:
            return "dist-not-or", "not-or", And(Not(a), Not(b))
        case (s, And(Or(a, b), c)) if s is plus:
            return "dist-and-or-l", "and-or", Or(And(a, c), And(b, c))
        case (s, And(a, Or(b, c))) if s is plus:
            return "dist-and-or-r", "and-or", Or(And(a, b), And(a, c))
        case (s, Implies(Or(a, b), c)) if s is minus:
            return "dist-implies-or", "implies-or", And(Implies(a, c), Implies(b, c))
        case (s, Box(And(a, b))) if s is minus:
            return "dist-box-and", "box-and", And(Box(a), Box(b))
        case (s, Down(v, And(a, b))) if s is minus:
            return "dist-down-and", "down-and", And(Down(v, a), Down(v, b))
        case (s, At(t, And(a, b))) if s is minus:
            return "dist-at-and", "at-and-dist", And(At(t, a), At(t, b))
        case (s, Not(And(a, b))) if s is plus:
            return "dist-not-and", "not-and", Or(Not(a), Not(b))
        case (s, Or(And(a, b), c)) if s is minus:
            return "dist-or-and-l", "or-and", And(Or(a, c), Or(b, c))
        case (s, Or(a, And(b, c))) if s is minus:
            return "dist-or-and-r", "or-and", And(Or(a, b), Or(a, c))
        case (s, Implies(a, And(b, c))) if s is minus:
            return "dist-implies-and", "implies-and", And(Implies(a, b), Implies(a, c))
    return None


# One builder per node shape, from its children; @ over a nominal and over a
# state variable.
_X = svar("x")
_BUILDERS = [
    (0, lambda: Prop(P)),
    (0, lambda: Svar(_X)),
    (0, lambda: Nom(nom("i"))),
    (0, lambda: BOT),
    (0, lambda: TOP),
    (1, Not),
    (1, Dia),
    (1, Box),
    (1, lambda c: At(nom("i"), c)),
    (1, lambda c: At(_X, c)),
    (1, lambda c: Down(_X, c)),
    (2, Or),
    (2, And),
    (2, Implies),
]
# Each child is a plain atom or one of the two joins.
_CHILD_CHOICES = [Prop(R), Or(Prop(P), Prop(Q)), And(Prop(Q), Svar(_X))]


def _every_shape():
    for arity, build in _BUILDERS:
        for kids in itertools.product(_CHILD_CHOICES, repeat=arity):
            yield build(*kids)


class TestDistributionRules:
    """The derived stage-1a rule against the paper's list of fourteen."""

    def test_every_node_sign_and_position_matches_the_paper(self):
        from hybridcorr.axioms import justification_schemas

        shapes = list(_every_shape())
        assert {type(f) for f in shapes} == set(NODE_NAMES)
        fired = set()
        for f in shapes:
            for sign in Sign:
                expected = _paper_redex(f, sign)
                assert _root_redex(f, sign) == expected, (str(f), sign)
                if expected is not None:
                    fired.add(expected[:2])
        assert len(fired) == 14
        tags = {tag for _, tag in fired}
        assert len(tags) == 12 and tags <= set(justification_schemas())

    @settings(max_examples=300)
    @given(formulas(), st.sampled_from(list(Sign)))
    def test_arbitrary_formulas_match_the_paper(self, f, sign):
        assert _root_redex(f, sign) == _paper_redex(f, sign)


class TestFirstApproximation:
    def test_box_axiom(self):
        ineq = parse_inequality("[]p <= p")
        sys = first_approximation(ineq, FreshContext.from_formulas(ineq.lhs, ineq.rhs))
        assert [str(i) for i in sys.inequalities] == ["'i0 <= []p", "p <= ~'i1"]
        assert str(sys.conclusion) == "'i0 <= ~'i1"

    def test_figure(self):
        sys = first_approximation(
            FIGURE, FreshContext.from_formulas(FIGURE.lhs, FIGURE.rhs)
        )
        assert [str(i) for i in sys.inequalities] == [
            "'i0 <= <>p1 & p2",
            "<>[]<>p1 | <>[]<>p2 <= ~'i1",
        ]

    def test_degenerate(self):
        ineq = parse_inequality("T <= F")
        sys = first_approximation(ineq, FreshContext())
        assert [str(i) for i in sys.inequalities] == ["'i0 <= T", "F <= ~'i1"]


class TestReduceSubstage1:
    def test_nested_diamonds(self):
        sys = make_system("'i0 <= <><>p", "<>p <= ~'i1")
        out = reduce_substage1(sys)
        assert [str(i) for i in out.inequalities] == [
            "'k1 <= p",
            "'j1 <= <>'k1",
            "'i0 <= <>'j1",
            "<>p <= ~'i1",
        ]

    def test_binder_rule(self):
        sys = make_system("'i0 <= !x. <>x")
        out = reduce_substage1(sys)
        assert [str(i) for i in out.inequalities] == ["'i0 <= <>'i0"]

    def test_residuation(self):
        sys = make_system("'i0 <= ~p")
        out = reduce_substage1(sys)
        assert [str(i) for i in out.inequalities] == ["p <= ~'i0"]

    def test_implies_approximation(self):
        sys = make_system("p -> q <= ~'i1")
        out = reduce_substage1(sys)
        assert [str(i) for i in out.inequalities] == [
            "'j1 <= p",
            "q <= ~'k1",
            "'j1 -> ~'k1 <= ~'i1",
        ]

    def test_at_rules(self):
        sys = make_system("'i0 <= @'i p", "@'j q <= ~'i1")
        out = reduce_substage1(sys)
        assert [str(i) for i in out.inequalities] == ["'i <= p", "q <= ~'j"]

    def test_state_variable_sides(self):
        sys = make_system("x <= <>p", "@x q <= ~y")
        out = reduce_substage1(sys)
        assert [str(i) for i in out.inequalities] == [
            "'j1 <= p",
            "x <= <>'j1",
            "q <= ~x",
        ]

    def test_pure_inequalities_stop(self):
        sys = make_system("'i0 <= <>'j1")
        out = reduce_substage1(sys)
        assert out.inequalities == sys.inequalities

    def test_shape_holds_everywhere(self):
        sys = make_system("'i0 <= <>(p & @'i ~q)", "[](p | q) <= ~'i1")
        out = reduce_substage1(sys)
        assert all(has_system_shape(i) for i in out.inequalities)

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setattr(alba, "STEP_BUDGET", 2)
        sys = make_system("'i0 <= <><><><>p")
        with pytest.raises(EngineInvariantError):
            reduce_substage1(sys)


class TestAckermann:
    def test_left_maximal_valuation(self):
        sys = make_system("p <= ~'i1", "'i0 <= []p")
        out = ackermann(sys, P, Side.LEFT)
        assert [str(i) for i in out.inequalities] == ["'i0 <= []~'i1"]

    def test_right_minimal_valuation(self):
        sys = make_system("'k1 <= p", "<>p <= ~'i1")
        out = ackermann(sys, P, Side.RIGHT)
        assert [str(i) for i in out.inequalities] == ["<>'k1 <= ~'i1"]

    def test_right_two_definitions(self):
        sys = make_system("'i <= p", "'j <= p", "<>p <= ~'k")
        out = ackermann(sys, P, Side.RIGHT)
        assert [str(i) for i in out.inequalities] == ["<>('i | 'j) <= ~'k"]

    def test_right_no_definitions_uses_bottom(self):
        sys = make_system("<>p <= ~'i1")
        out = ackermann(sys, P, Side.RIGHT)
        assert [str(i) for i in out.inequalities] == ["<>F <= ~'i1"]

    def test_left_no_definitions_uses_top(self):
        sys = make_system("'i0 <= []p")
        out = ackermann(sys, P, Side.LEFT)
        assert [str(i) for i in out.inequalities] == ["'i0 <= []T"]

    def test_polarity_violation_reported(self):
        from hybridcorr.alba import AckermannPolarityError

        sys = make_system("'i0 <= p", "'j1 <= <>p")
        with pytest.raises(AckermannPolarityError):
            ackermann(sys, P, Side.RIGHT)


class TestRun:
    def test_box_axiom_output(self):
        result = run(parse("[]p -> p"))
        assert isinstance(result, Success)
        assert result.eps is not None and result.eps[P] is Pol.PARTIAL
        assert [str(q) for q in result.quasis] == ["'i0 <= []~'i1 => 'i0 <= ~'i1"]

    def test_transitivity_output(self):
        result = run(parse("<> <> p -> <> p"))
        assert isinstance(result, Success)
        [q] = result.quasis
        assert {str(i) for i in q.antecedents} == {
            "<>'k1 <= ~'i1",
            "'j1 <= <>'k1",
            "'i0 <= <>'j1",
        }
        assert str(q.conclusion) == "'i0 <= ~'i1"

    def test_figure_succeeds_with_first_order_type(self):
        result = run(FIGURE)
        assert isinstance(result, Success)
        assert result.eps == OrderType(((prop("p1"), Pol.ONE), (prop("p2"), Pol.ONE)))
        for q in result.quasis:
            for i in (*q.antecedents, q.conclusion):
                assert not props(i.lhs) and not props(i.rhs)

    def test_non_implication_wrapped(self):
        result = run(parse("<> !x. <>x"))
        assert isinstance(result, Success)
        [q] = result.quasis
        assert str(q.antecedents[0]) == "'i0 <= T"

    def test_outside_class_fails_as_value(self):
        result = run(parse("[]p -> <>p"))
        assert isinstance(result, Failure)
        assert result.unresolved_props == (P,)
        assert result.stuck_system is not None

    def test_bad_hint_rejected(self):
        with pytest.raises(ValueError):
            run(parse("[]p -> p"), eps_hint=OrderType(((P, Pol.ONE),)))
        with pytest.raises(ValueError):
            run(parse("[]p -> p"), eps_hint=OrderType(()))

    def test_no_failures_on_sampled_skeletal_inputs(self):
        from hybridcorr.generate import SkeletalGenerator

        gen = SkeletalGenerator(seed=11)
        for _ in range(200):
            ineq, eps = gen.inequality()
            assert run(ineq, eps_hint=eps).ok

    def test_open_input_names_its_state_variable(self):
        # a free state variable flows through reduction and is named by a
        # fresh nominal in the output, which stays frame-equivalent
        f = parse("@x p -> p")
        result = run(f)
        assert isinstance(result, Success)
        [q] = result.quasis
        assert [str(i) for i in q.antecedents] == ["'j1 <= ~'i1"]
        for i in (*q.antecedents, q.conclusion):
            assert not free_state_vars(i.lhs) and not free_state_vars(i.rhs)
        for fr in enumerate_frames(3):
            assert frame_valid(fr, f) == frame_valid_quasi_set(fr, result.quasis)

    def test_soundness_on_small_frames(self):
        cases = [
            "[]p -> p",
            "p -> <>p",
            "<> <> p -> <> p",
            "p -> [] <> p",
            "~[]~p -> <>p",
            "'i & p -> @'i p",
            "!x.(p & <>x) -> <>p",
        ]
        for text in cases:
            f = parse(text)
            result = run(f)
            assert result.ok
            for fr in enumerate_frames(2):
                assert frame_valid(fr, f) == frame_valid_quasi_set(fr, result.quasis)


class TestRegressions:
    @pytest.mark.parametrize(
        "text, valid", [("<>p & ([]p -> p)", 0), ("[](<>p & ([]p -> p))", 3)]
    )
    def test_unclassified_input_eliminates_on_the_left(self, text, valid):
        # No order type classifies the input, yet it reduces: with no order
        # type Ackermann tries first the side whose definition is present,
        # here the left one of p <= ~'k, and that side succeeds.
        f = parse(text)
        assert find_order_type(as_inequality(f)) is None
        result = run(f)
        assert isinstance(result, Success) and result.eps is None
        rules = [s.rule for s in result.traces[-1].steps]
        assert rules[-2:] == ["approx-implies", "ackermann-left(p)"]
        report = verify_correspondence(as_inequality(f), result.quasis, EnumerationLimits(3))
        assert report.ok and report.agreements == report.frames == 530
        assert report.valid_in.bit_count() == valid

    def test_nested_implication_reduces_and_agrees(self):
        # the antecedent implication is not decomposable (plus-implies is
        # not skeletal) and survives as an opposite-uniform side
        f = parse("((p -> q) -> r) -> r")
        result = run(f)
        assert result.ok
        assert [str(q) for q in result.quasis] == [
            "'i0 <= (T -> F) -> ~'i1 => 'i0 <= ~'i1"
        ]
        for fr in enumerate_frames(3):
            assert frame_valid(fr, f) == frame_valid_quasi_set(fr, result.quasis)

    def test_input_using_anchor_names(self):
        # the user owns 'i0, so the anchors rename to 'i1 and 'j1
        f = parse("@'i0 p -> p")
        result = run(f)
        assert result.ok
        assert [str(q) for q in result.quasis] == ["'i0 <= ~'j1 => 'i1 <= ~'j1"]
        for fr in enumerate_frames(3):
            assert frame_valid(fr, f) == frame_valid_quasi_set(fr, result.quasis)

    def test_down_renames_binders_on_the_state_variable_it_puts_in(self):
        # approx-down puts x for y under !x.: the inner binder becomes x1,
        # where the unrenamed output disagreed with the input on 88 frames
        f = parse("@x !y. <>!x. @y <>x")
        result = run(f)
        assert result.ok
        assert [str(q) for q in result.quasis] == [
            "'i0 <= T ; <>!x1. @'j1 <>x1 <= ~'j1 => 'i0 <= ~'i1"
        ]
        limits = EnumerationLimits(3)
        assert frame_valid(limits, f) == frame_valid_quasi_set(limits, result.quasis)

    def test_substage1_outputs_fit_the_five_shapes(self):
        from hybridcorr.alba import final_form
        from hybridcorr.generate import SkeletalGenerator

        gen = SkeletalGenerator(seed=21)
        for _ in range(150):
            ineq, eps = gen.inequality()
            for part in preprocess(ineq, eps):
                ctx = FreshContext.from_formulas(part.lhs, part.rhs)
                system = reduce_substage1(first_approximation(part, ctx), eps)
                for out in system.inequalities:
                    form = final_form(out, eps)
                    assert form in (1, 2, 3, 4, 5), (ineq, out)

    def test_preprocess_outputs_are_normal_forms(self):
        from hybridcorr.generate import SkeletalGenerator

        gen = SkeletalGenerator(seed=31)
        for _ in range(150):
            ineq, eps = gen.inequality()
            for part in preprocess(ineq, eps):
                assert preprocess(part) == [part]


class TestArbitraryFormulaSoundness:
    """Beyond the by-construction generator: any drawn inequality that
    happens to classify must reduce and agree with the frame oracle on
    every frame with up to two worlds."""

    @settings(max_examples=120, deadline=None)
    @given(inequalities(6))
    def test_classifying_draws_agree_with_oracle(self, ineq):
        assume(not free_state_vars(ineq.lhs) and not free_state_vars(ineq.rhs))
        assume(len(props(ineq.lhs) | props(ineq.rhs)) <= 2)
        eps = find_order_type(ineq)
        assume(eps is not None)
        result = run(ineq, eps_hint=eps)
        assert result.ok
        f = Implies(ineq.lhs, ineq.rhs)
        for fr in enumerate_frames(2):
            assert frame_valid(fr, f) == frame_valid_quasi_set(fr, result.quasis)


class TestFinalize:
    def test_plain_assembly(self):
        sys = make_system("'i0 <= []~'i1")
        q = finalize(sys)
        assert str(q) == "'i0 <= []~'i1 => 'i0 <= ~'i1"

    def test_free_state_variable_named(self):
        sys = make_system("x <= <>'j1", "'j1 <= <>x")
        q = finalize(sys)
        assert [str(i) for i in q.antecedents] == ["'k1 <= <>'j1", "'j1 <= <>'k1"]
        for i in q.antecedents:
            assert not free_state_vars(i.lhs) and not free_state_vars(i.rhs)

    def test_empty_system(self):
        sys = System((), parse_inequality("'i0 <= ~'i1"), FreshContext(), "test")
        q = finalize(sys)
        assert q.antecedents == () and str(q.conclusion) == "'i0 <= ~'i1"

    def test_surviving_prop_is_an_engine_bug(self):
        sys = make_system("'i0 <= p")
        with pytest.raises(EngineInvariantError):
            finalize(sys)


class TestTraces:
    def test_replay_reproduces_final(self):
        result = run(parse("<> <> p -> <> p"))
        for trace in result.traces:
            assert replay(trace) == trace.final

    def test_failure_traces_end_where_each_system_stopped(self):
        # system2 is stuck after system0 and system1 were reduced
        result = run(parse("!y. ([]!x. p -> !y. (y -> q)) -> @y !x. (~x & (x & q))"))
        assert isinstance(result, Failure)
        assert [t.origin for t in result.traces][1:] == ["system0", "system1", "system2"]
        for trace in result.traces:
            assert replay(trace) == trace.final
        assert [len(t.final) for t in result.traces[1:3]] == [2, 2]

    def test_capture_failure_reports_the_system_it_stopped_at(self):
        # q is eliminated; eliminating p would capture x under !x.
        result = run(parse("<>((q -> x & 'i) & y) -> y | @x p | ~q | ~((p -> 'i) -> !x. p)"))
        assert isinstance(result, Failure)
        assert result.reason.startswith("unsafe substitution")
        assert [str(p) for p in result.unresolved_props] == ["p"]
        trace = result.traces[-1]
        assert trace.steps[-1].rule == "ackermann-right(q)"
        assert result.stuck_system.inequalities == replay(trace) == trace.final

    def test_substage1_capture_is_a_failure(self, monkeypatch):
        # Without the renaming of its binders, approx-down would put x
        # under !x.: the substitution is refused and the run fails.
        monkeypatch.setattr(alba, "rename_binders", lambda f, v, fresh: f)
        result = run(parse("@x !y. <>!x. @y <>x"))
        assert isinstance(result, Failure)
        assert result.reason.startswith("unsafe substitution")
        trace = result.traces[-1]
        assert result.stuck_system.inequalities == replay(trace) == trace.final

    def test_each_stage_logs_to_the_system_trace(self):
        # a bare system starts its own trace; every stage extends it
        sys = make_system("'i0 <= <>(p & x)", "<>p <= ~'i1")
        assert sys.trace.initial == sys.inequalities and not sys.trace.steps
        sys = reduce_substage1(sys)
        assert [s.rule for s in sys.trace.steps] == ["approx-dia", "split-conj"]
        assert replay(sys.trace) == sys.inequalities
        sys = ackermann(sys, P, Side.RIGHT)
        assert sys.trace.steps[-1].rule == "ackermann-right(p)"
        assert replay(sys.trace) == sys.inequalities
        q = finalize(sys)
        assert sys.trace.steps[-1].rule == "name-svar(x)"
        assert replay(sys.trace) == q.antecedents == sys.trace.final

    def test_deterministic_serialization(self):
        a = run(parse("<>p1 & p2 -> (<>[]<>p1 | <>[]<>p2)"))
        b = run(parse("<>p1 & p2 -> (<>[]<>p1 | <>[]<>p2)"))
        ja = json.dumps([t.to_json() for t in a.traces])
        jb = json.dumps([t.to_json() for t in b.traces])
        assert ja == jb

    def test_every_tag_is_registered(self):
        from hybridcorr.axioms import justification_schemas

        registry = justification_schemas()
        seen = set()
        for text in ["[]p -> p", "<> <> p -> <> p", "p -> ((p -> F) -> F)",
                     "!x.(p & <>x) -> <>p", "<>(p | q) -> <>p | <>q",
                     "p -> [] <> p", "~[]~p -> <>p", "@'i [] !x. @'i <>x"]:
            result = run(parse(text))
            for trace in result.traces:
                for step in trace.steps:
                    seen.add(step.justification)
        assert seen <= set(registry), seen - set(registry)

    def test_equivalence_rules_preserve_models(self):
        """Distribution, splitting, residuation, and the @/binder steps are
        single-model equivalences; witness-introducing steps are not and are
        checked end to end instead."""
        equivalence_rules = (
            "dist-",
            "split-",
            "resid-",
            "approx-at",
            "approx-down",
            "eliminate-",  # not an equivalence; excluded below
        )
        model_equiv = ("dist-", "split-", "resid-", "approx-at", "approx-down")
        rng = random.Random(13)
        texts = [
            "<>(p | q) -> <>p | <>q",
            "p | q -> <>p | <>q",
            "~[]~p -> <>p",
            "!x.(p & <>x) -> <>p",
            "@'i (p & q) -> @'i p",
            "p -> [](p & q) | F",
        ]
        checked = 0
        for text in texts:
            result = run(parse(text))
            for trace in result.traces:
                state = trace.initial
                for step in trace.steps:
                    from hybridcorr.alba import apply_step

                    new_state = apply_step(state, step)
                    if step.rule.startswith(model_equiv):
                        syms_p = set()
                        syms_n = set()
                        for i in (*state, *new_state):
                            syms_p |= props(i.lhs) | props(i.rhs)
                            syms_n |= nominals(i.lhs) | nominals(i.rhs)
                        for _ in range(12):
                            m = random_model(
                                rng, sorted(syms_p, key=str), sorted(syms_n, key=str)
                            )
                            g = {
                                x: rng.randrange(m.frame.size)
                                for i in (*state, *new_state)
                                for x in free_state_vars(i.lhs) | free_state_vars(i.rhs)
                            }
                            before = all(holds_inequality(m, g, i) for i in state)
                            after = all(holds_inequality(m, g, i) for i in new_state)
                            assert before == after, (step.rule, str(m.frame))
                            checked += 1
                    state = new_state
        assert checked >= 200


class TestSimplify:
    def test_constant_folding(self):
        assert simplify_formula(parse("p & T")) == parse("p")
        assert simplify_formula(parse("<>F | p")) == parse("p")
        assert simplify_formula(parse("[]T & @'i T")) == parse("T")
        assert simplify_formula(parse("T -> ~F")) == parse("T")

    @settings(max_examples=300, deadline=None)
    @given(formulas(10).flatmap(lambda f: models_for(f).map(lambda mg: (f, *mg))))
    def test_same_truth_set_and_idempotent(self, case):
        f, m, g = case
        folded = simplify_formula(f)
        for w in range(m.frame.size):
            assert eval_at(m, g, w, folded) == eval_at(m, g, w, f)
        assert simplify_formula(folded) == folded

    def test_simplification_preserves_frame_classes(self):
        ineq = parse_inequality("<>r & p <= p")
        plain = run(ineq)
        folded = run(ineq, simplify=True)
        for fr in enumerate_frames(3):
            assert frame_valid_quasi_set(fr, plain.quasis) == frame_valid_quasi_set(
                fr, folded.quasis
            )


class TestAsInequality:
    def test_implication(self):
        assert as_inequality(parse("p -> q")) == parse_inequality("p <= q")

    def test_wrapping(self):
        assert as_inequality(parse("<>p")) == parse_inequality("T <= <>p")

    def test_inequality_passthrough(self):
        assert as_inequality(FIGURE) is FIGURE
