"""Schema registry: every base-system axiom and derived fact is a validity."""

from hybridcorr import axioms
from hybridcorr.axioms import (
    Schema,
    all_schemas,
    axiom_schemas,
    check_schemas,
    derived_schemas,
    distribution_schemas,
    justification_schemas,
)
from hybridcorr.semantics import (
    EnumerationLimits,
    frame_at_index,
    frame_indices,
    frame_valid,
)
from hybridcorr.syntax import parse, sorted_symbols


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


def test_all_schemas_valid_on_two_worlds(monkeypatch):
    # the acceptance suite runs the full three-world check
    built = []

    def counting(build):
        def counted_build():
            built.append(build)
            return build()

        return counted_build

    for name in ("axiom_schemas", "derived_schemas", "distribution_schemas", "tag_schemas"):
        monkeypatch.setattr(axioms, name, counting(getattr(axioms, name)))
    axioms.all_schemas.cache_clear()
    axioms._registry.cache_clear()
    decided = []

    def counted(frames, f):
        decided.append(f)
        return frame_valid(frames, f)

    monkeypatch.setattr(axioms, "frame_valid", counted)
    two = EnumerationLimits(max_worlds=2)
    checks = check_schemas(two)
    assert all(c.ok for c in checks), [c.name for c in checks if not c.ok]
    # one conjunction per symbol signature, not one check per instance
    signatures = {
        tuple(map(tuple, sorted_symbols(inst))) for s in all_schemas() for inst in s.instances
    }
    assert len(decided) == len(signatures) == 12
    # the schemas and their groups are built once per process, but no
    # verdict is kept: a second call decides every group again
    assert check_schemas(two) == checks and len(decided) == 24
    assert len(built) == len(set(built)) == 4


def test_schema_names_are_unique():
    # axioms-check reports each schema by name
    names = [s.name for s in all_schemas()]
    assert len(names) == len(set(names)) == 42


def test_registry_has_instances_everywhere():
    for name, schema in justification_schemas().items():
        assert schema.instances, name
    assert all(s.instances for s in all_schemas())


def test_failure_names_the_first_refuting_frame():
    two = EnumerationLimits(max_worlds=2)
    assert all(c.ok for c in check_schemas(two))
    (check,) = check_schemas(schemas=[Schema("bad", (parse("<>p -> p"),))])
    assert not check.ok
    assert check.failures == ["<>p -> p fails on worlds=2; rel={(0,1)}"]
    # a caller's schemas leave the registry as it was
    checks = check_schemas(two)
    assert all(c.ok for c in checks) and sum(c.instances for c in checks) == 120


def test_only_the_failing_instances_are_named():
    two = EnumerationLimits(max_worlds=2)

    def refutation(f):
        invalid = two.full ^ frame_valid(two, f)
        return f"{f} fails on {frame_at_index(next(frame_indices(invalid)))}"

    # <>p -> p fails beside passing instances with its symbols; 'i -> []'i
    # has other symbols
    mixed = Schema("mixed", tuple(map(parse, ["p -> p", "<>p -> p", "p | ~p"])))
    nominal = Schema("nominal", (parse("'i -> []'i"),))
    checks = check_schemas(two, [mixed, nominal])
    assert [(c.name, c.instances) for c in checks] == [("mixed", 3), ("nominal", 1)]
    assert checks[0].failures == [refutation(parse("<>p -> p"))]
    assert checks[1].failures == [refutation(parse("'i -> []'i"))]
