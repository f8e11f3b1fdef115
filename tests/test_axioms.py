"""Schema registry: every base-system axiom and derived fact is a validity."""

from hybridcorr.axioms import (
    Schema,
    all_schemas,
    axiom_schemas,
    check_schemas,
    derived_schemas,
    distribution_schemas,
    justification_schemas,
)
from hybridcorr.semantics import EnumerationLimits
from hybridcorr.syntax import parse


def test_axiom_names_cover_the_base_system():
    names = {s.name for s in axiom_schemas()}
    assert names == {
        "classical-tautologies",
        "dual",
        "k-box",
        "k-at",
        "selfdual",
        "ref",
        "intro",
        "back",
        "agree",
        "downarrow-at",
        "name-binder",
        "bound-generalization",
    }


def test_derived_facts_present():
    names = {s.name for s in derived_schemas()}
    assert {"trans", "sym", "at-conjunction", "at-disjunction", "dia-witness",
            "box-witness", "at-agree", "down-at", "implies-witness",
            "at-selfdual", "nominal-join", "nominal-meet"} <= names


def test_distribution_equivalences_present():
    assert len(distribution_schemas()) == 12


def test_all_schemas_valid_on_two_worlds():
    # the acceptance suite runs the full three-world check
    checks = check_schemas(EnumerationLimits(max_worlds=2))
    assert all(c.ok for c in checks), [c.name for c in checks if not c.ok]


def test_registry_has_instances_everywhere():
    for name, schema in justification_schemas().items():
        assert schema.instances, name
    assert all(s.instances for s in all_schemas())


def test_failure_names_the_first_refuting_frame():
    (check,) = check_schemas(schemas=[Schema("bad", (parse("<>p -> p"),))])
    assert not check.ok
    assert check.failures == ["<>p -> p fails on worlds=2; rel={(0,1)}"]
