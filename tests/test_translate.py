"""The translation into hybrid formulas and its model-level equivalence."""

import pytest
from hypothesis import given, settings

from hybridcorr.semantics import (
    EnumerationCapError,
    EnumerationLimits,
    KripkeFrame,
    KripkeModel,
    globally_true,
    holds_inequality,
    holds_quasi,
    model_to_json,
)
from hybridcorr.syntax import (
    Implies,
    Inequality,
    is_pure,
    nom,
    parse,
    parse_inequality,
    parse_quasi,
    props,
)
from hybridcorr.translate import (
    TranslationShapeError,
    tr_ineq,
    tr_quasi,
    tr_quasiset,
    verify_tr_equivalence,
)

from strategies import all_models_for_item, translatable_inequalities, translatable_quasis


class TestTrIneq:
    def test_left_atom_clause(self):
        assert tr_ineq(parse_inequality("'i0 <= []~'i1")) == parse("@'i0 []~'i1")

    def test_negated_right_atom_clause(self):
        assert tr_ineq(parse_inequality("<>'k1 <= ~'i1")) == parse("~@'i1 <>'k1")

    def test_state_variable_clauses(self):
        assert tr_ineq(parse_inequality("x <= <>'j")) == parse("@x <>'j")
        assert tr_ineq(parse_inequality("<>'j <= ~x")) == parse("~@x <>'j")

    def test_clause_order_on_double_match(self):
        # 'i <= ~'j matches both readings; the left-atom clause is taken
        ineq = parse_inequality("'i <= ~'j")
        assert tr_ineq(ineq) == parse("@'i ~'j")
        # ... and the two readings are model-equivalent
        other = parse("~@'j 'i")
        for m, g in all_models_for_item(ineq, max_worlds=2):
            assert globally_true(m, g, tr_ineq(ineq)) == globally_true(m, g, other)

    def test_shape_violation(self):
        with pytest.raises(TranslationShapeError):
            tr_ineq(parse_inequality("<>'i <= []'j"))


class TestTrQuasi:
    def test_box_axiom_output(self):
        q = parse_quasi("'i0 <= []~'i1 => 'i0 <= ~'i1")
        assert tr_quasi(q) == parse("@'i0 []~'i1 -> ~@'i0 'i1")

    def test_empty_antecedent(self):
        q = parse_quasi("=> 'i0 <= ~'i1")
        assert tr_quasi(q) == parse("T -> ~@'i0 'i1")

    def test_transitivity_assembly(self):
        q = parse_quasi(
            "'i0 <= <>'j1 ; 'j1 <= <>'k1 ; <>'k1 <= ~'i1 => 'i0 <= ~'i1"
        )
        assert tr_quasi(q) == parse(
            "@'i0 <>'j1 & @'j1 <>'k1 & ~@'i1 <>'k1 -> ~@'i0 'i1"
        )

    def test_conclusion_shape_enforced(self):
        with pytest.raises(TranslationShapeError):
            tr_quasi(parse_quasi("'i <= 'j => <>'i <= 'j"))


class TestTrQuasiSet:
    def test_singleton_is_member_translation(self):
        q = parse_quasi("'i0 <= []~'i1 => 'i0 <= ~'i1")
        assert tr_quasiset([q]) == tr_quasi(q)

    def test_empty_set_is_top(self):
        assert tr_quasiset([]) == parse("T")

    def test_pair_conjunction_in_order(self):
        a = parse_quasi("=> 'i0 <= ~'i1")
        b = parse_quasi("'i0 <= <>'i0 => 'i0 <= ~'i1")
        out = tr_quasiset([a, b])
        assert str(out) == f"({tr_quasi(a)}) & ({tr_quasi(b)})"


def oracle_mismatches(item, translation, max_worlds=2):
    """Models (from all_models_for_item) on which the item and its
    translation disagree, decided by eval_at."""
    holds = holds_inequality if isinstance(item, Inequality) else holds_quasi
    models = all_models_for_item(item, max_worlds)
    bad = [
        (m, g)
        for m, g in models
        if holds(m, g, item) != globally_true(m, g, translation)
    ]
    return models, bad


def models_up_to(max_worlds, placed):
    """Frames with up to max_worlds worlds times placements of `placed` symbols."""
    return sum(2 ** (n * n) * n**placed for n in range(1, max_worlds + 1))


def dropped_negation(q):
    """The translation of q with the negation of its conclusion dropped."""
    f = tr_quasi(q)
    return Implies(f.lhs, f.rhs.child)  # ... -> @i j instead of ~@i j


FIXTURES = [
    "'i0 <= []~'i1 => 'i0 <= ~'i1",
    "'i0 <= <>'j1 ; <>'j1 <= ~'i1 => 'i0 <= ~'i1",
    "'i0 <= <>'j1 ; 'j1 <= <>'k1 ; <>'k1 <= ~'i1 => 'i0 <= ~'i1",
    "=> 'i0 <= ~'i1",
    "x <= <>'j ; <>x <= ~'k => 'j <= ~'k",
    "'i <= !y.<>y => 'i <= ~'j",
]


class TestEquivalence:
    LIMITS = EnumerationLimits(max_worlds=2)

    def test_inequality_exhaustive_small(self):
        ineq = parse_inequality("'i <= <>'j")
        report = verify_tr_equivalence(ineq, self.LIMITS)
        assert report.ok and report.checked == len(all_models_for_item(ineq, 2))

    def test_quasi_pointwise_definition(self):
        q = parse_quasi("'i0 <= []~'i1 => 'i0 <= ~'i1")
        for m, g in all_models_for_item(q, 2):
            assert holds_quasi(m, g, q) == globally_true(m, g, tr_quasi(q))

    def test_bottom_left_side(self):
        ineq = parse_inequality("F <= ~'i")
        assert tr_ineq(ineq) == parse("~@'i F")
        report = verify_tr_equivalence(ineq, self.LIMITS)
        assert report.ok and report.checked == len(all_models_for_item(ineq, 2))

    def test_exhaustive_report(self):
        # three nominals: every frame up to 3 worlds times n^3 placements
        q = parse_quasi("'i0 <= <>'j1 ; <>'j1 <= ~'i1 => 'i0 <= ~'i1")
        report = verify_tr_equivalence(q, EnumerationLimits(max_worlds=3))
        assert report.checked == models_up_to(3, 3) == 13_954
        assert report.ok and report.mismatched == 0 and report.mismatches == []
        assert report.to_json() == {
            "checked": 13_954, "mismatched": 0, "mismatches": [], "ok": True
        }

    def test_four_worlds_cover_every_frame(self):
        q = parse_quasi("'i0 <= <>'j1 ; <>'j1 <= ~'i1 => 'i0 <= ~'i1")
        report = verify_tr_equivalence(q, EnumerationLimits(max_worlds=4))
        # 2 + 16 + 512 + 65,536 = 66,066 frames, each under n^3 placements
        assert report.checked == models_up_to(4, 3) == 4_208_258
        assert report.ok

    @pytest.mark.parametrize("text", FIXTURES)
    def test_fixtures_agree_with_oracle(self, text):
        q = parse_quasi(text)
        assert self.checked_against_oracle(q, tr_quasi(q)).ok
        for ineq in q.antecedents:
            assert self.checked_against_oracle(ineq, tr_ineq(ineq)).ok

    @settings(max_examples=60, deadline=None)
    @given(translatable_quasis())
    def test_quasis_agree_with_oracle(self, q):
        assert self.checked_against_oracle(q, tr_quasi(q)).ok

    @settings(max_examples=60, deadline=None)
    @given(translatable_inequalities())
    def test_inequalities_agree_with_oracle(self, ineq):
        assert self.checked_against_oracle(ineq, tr_ineq(ineq)).ok

    def checked_against_oracle(self, item, translation):
        """The exhaustive report counts the models and the mismatches that
        the per-model oracle finds at 2 worlds."""
        report = verify_tr_equivalence(item, self.LIMITS)
        models, bad = oracle_mismatches(item, translation)
        assert report.checked == len(models)
        assert report.mismatched == len(bad)
        assert report.ok == (not bad)
        return report

    def test_dropped_negation_is_caught(self, monkeypatch):
        import hybridcorr.translate as translate

        monkeypatch.setattr(translate, "tr_quasi", dropped_negation)
        q = parse_quasi("'i <= <>'j ; <>'j <= ~'k => 'i <= ~'k")
        report = self.checked_against_oracle(q, dropped_negation(q))
        assert not report.ok
        assert report.to_json()["ok"] is False
        # the first entry names a model that refutes the mutated translation
        entry = report.mismatches[0]
        frame = KripkeFrame(
            entry["model"]["worlds"], frozenset(map(tuple, entry["model"]["relation"]))
        )
        model = KripkeModel(
            frame, {}, {nom(name): w for name, w in entry["model"]["nominals"].items()}
        )
        assert holds_quasi(model, {}, q) == entry["direct"]
        assert globally_true(model, {}, dropped_negation(q)) == entry["translated"]
        assert entry["direct"] != entry["translated"]

    def test_impure_item_rejected(self):
        with pytest.raises(ValueError, match="not pure"):
            verify_tr_equivalence(parse_inequality("'i <= <>p"), self.LIMITS)

    def test_caps_apply(self):
        q = parse_quasi("'i0 <= <>'j1 ; <>'j1 <= ~'i1 => 'i0 <= ~'i1")
        with pytest.raises(EnumerationCapError):
            verify_tr_equivalence(q, EnumerationLimits(max_worlds=2, max_nominals=2))
        with pytest.raises(EnumerationCapError):
            verify_tr_equivalence(q, EnumerationLimits(max_worlds=3, max_count=26))

    def test_purity_preserved(self):
        q = parse_quasi("'i0 <= []~'i1 => 'i0 <= ~'i1")
        assert is_pure(tr_quasi(q))
        assert not props(tr_quasiset([q]))


class TestWeightedCounts:
    """At 3 worlds the check decides one placement per orbit of the world
    permutations and weighs it by the orbit's size."""

    LIMITS = EnumerationLimits(max_worlds=3)

    def against_oracle(self, q, translation):
        report = verify_tr_equivalence(q, self.LIMITS)
        models, bad = oracle_mismatches(q, translation, max_worlds=3)
        assert report.checked == len(models)
        assert report.mismatched == len(bad)
        return report, bad

    @pytest.mark.parametrize(
        "text",
        [
            "'i <= <>'j ; <>'j <= ~'k => 'i <= ~'k",
            "x <= <>'j ; <>x <= ~'k => 'j <= ~'k",
        ],
    )
    def test_counts_equal_the_oracle(self, text):
        q = parse_quasi(text)
        report, bad = self.against_oracle(q, tr_quasi(q))
        assert report.ok and bad == []

    def test_mismatches_are_weighted(self, monkeypatch):
        import hybridcorr.translate as translate

        monkeypatch.setattr(translate, "tr_quasi", dropped_negation)
        q = parse_quasi("'i <= <>'j ; <>'j <= ~'k => 'i <= ~'k")
        report, bad = self.against_oracle(q, dropped_negation(q))
        assert report.mismatched > 0
        # The report walks sizes, then placements in order, then frames;
        # its first entry is the oracle's first refuting model in that order.
        names = sorted(report.mismatches[0]["model"]["nominals"])
        first = min(
            bad,
            key=lambda mg: (
                mg[0].frame.size,
                [mg[0].nom_val[nom(name)] for name in names],
                sum(1 << (a * mg[0].frame.size + b) for a, b in mg[0].frame.relation),
            ),
        )
        assert report.mismatches[0]["model"] == model_to_json(*first)
