"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria, in order:

1. The running example classifies with order type (1,1) and its two
   critical branches match the published tree annotations, under 1 s.
2. 1000 generated skeletal inequalities all reduce successfully, under 60 s.
3. Corpus plus 100 generated inputs agree with their pure outputs on all
   530 frames with up to 3 worlds, zero disagreements, under 5 min; and
   on all 66,066 frames with up to 4 worlds, where the valid frames of the
   named corpus classes are exactly the frames of their FRAME_CLASSES
   predicates.
4. The valid-frame sets of the box-reflexivity, transitivity, and
   diamond-reflexivity outputs are exactly the expected frame classes.
5. Translation equivalence: exhaustive on two-world models for corpus
   outputs, 1000 random three-world models for generated outputs.
6. Every axiom and derived-theorem schema is valid on all models with up
   to 3 worlds.
7. Engine invariants across all runs: the system shape after every trace
   step, freshness of introduced nominals, deterministic trace replay.
"""

import json
import random
import time

from hybridcorr.alba import apply_step, has_system_shape, replay, run
from hybridcorr.axioms import check_schemas
from hybridcorr.classify import (
    OrderType,
    Pol,
    find_order_type,
    inequality_critical_branches,
)
from hybridcorr.corpus import CORPUS
from hybridcorr.generate import GeneratorConfig, SkeletalGenerator
from hybridcorr.semantics import (
    FRAME_CLASSES,
    EnumerationLimits,
    enumerate_frames,
    frame_at,
    frame_blocks,
    frame_indices,
    frame_valid,
    frame_valid_quasi,
    frame_valid_quasi_set,
    is_reflexive,
    is_transitive,
)
from hybridcorr.syntax import (
    Down,
    Implies,
    all_symbols,
    nominals,
    parse,
    parse_inequality,
    parse_input,
    prop,
)
from hybridcorr.translate import tr_ineq, tr_quasi, verify_correspondence

from models import random_model
from oracles import (
    branch_is_skeletal,
    globally_true,
    holds_inequality,
    holds_quasi,
    subformulas,
)
from strategies import all_models_for_item

LIMITS = EnumerationLimits(max_worlds=3)

_cache: dict = {}


def all_frames():
    if "frames" not in _cache:
        _cache["frames"] = list(enumerate_frames(3, LIMITS))
    return _cache["frames"]


def corpus_runs():
    """Classification + reduction for every skeletal corpus entry."""
    if "corpus" not in _cache:
        out = {}
        for entry in CORPUS:
            if not entry.expect_skeletal:
                continue
            result = run(parse_input(entry.input_text))
            assert result.ok, f"corpus entry {entry.name} did not reduce"
            out[entry.name] = (entry, result)
        _cache["corpus"] = out
    return _cache["corpus"]


def generated_success_runs():
    if "gen1000" not in _cache:
        gen = SkeletalGenerator(seed=42)  # depth <= 5, <= 3 variables
        t0 = time.monotonic()
        runs = []
        for _ in range(1000):
            ineq, eps = gen.inequality()
            runs.append((ineq, eps, run(ineq, eps_hint=eps)))
        _cache["gen1000"] = (runs, time.monotonic() - t0)
    return _cache["gen1000"]


def generated_oracle_runs():
    if "gen100" not in _cache:
        cfg = GeneratorConfig(max_depth=4, max_props=2, max_nominals=1, filler_depth=2)
        gen = SkeletalGenerator(seed=7, config=cfg)
        runs = []
        for _ in range(100):
            ineq, eps = gen.inequality()
            runs.append((ineq, eps, run(ineq, eps_hint=eps)))
        _cache["gen100"] = runs
    return _cache["gen100"]


def test_criterion_1_running_example_classification():
    t0 = time.monotonic()
    ineq = parse_inequality("<>p1 & p2 <= <>[]<>p1 | <>[]<>p2")
    eps = find_order_type(ineq)
    assert eps == OrderType(((prop("p1"), Pol.ONE), (prop("p2"), Pol.ONE)))
    branches = inequality_critical_branches(ineq, eps)
    assert [b.node_texts() for b in branches] == [
        ["+p1", "+dia", "+and"],
        ["+p2", "+and"],
    ]
    assert all(branch_is_skeletal(b) for b in branches)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"classification took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 (running-example fidelity): PASS ({elapsed*1000:.0f} ms)")


def test_criterion_2_success_theorem():
    runs, elapsed = generated_success_runs()
    failures = [ineq for ineq, _, result in runs if not result.ok]
    assert not failures, failures[:3]
    assert len(runs) == 1000
    assert elapsed < 60.0, f"1000 reductions took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 (success theorem, 1000/1000): PASS ({elapsed:.1f} s)")


def test_criterion_3_frame_soundness():
    t0 = time.monotonic()
    frames = all_frames()
    assert len(frames) == 530

    entries = corpus_runs()
    binder_entries = [
        name
        for name, (entry, _) in entries.items()
        if any(isinstance(g, Down) for g in subformulas(parse_input(entry.input_text).lhs))
        or any(isinstance(g, Down) for g in subformulas(parse_input(entry.input_text).rhs))
    ]
    assert len(entries) >= 12
    assert len(binder_entries) >= 3
    for required in ("refl-box", "refl-dia", "trans", "join-split"):
        assert required in entries

    blocks = list(frame_blocks(LIMITS))
    assert sum(b.count for b in blocks) == 530
    disagreements = []

    def compare(name, ineq, quasis):
        f = Implies(ineq.lhs, ineq.rhs)
        for b in blocks:
            differ = frame_valid(b, f) ^ frame_valid_quasi_set(b, quasis)
            disagreements.extend(
                (name, frame_at(b.size, b.start + j)) for j in frame_indices(differ)
            )

    for name, (entry, result) in entries.items():
        compare(name, parse_input(entry.input_text), result.quasis)
    for ineq, eps, result in generated_oracle_runs():
        compare(str(ineq), ineq, result.quasis)
    assert disagreements == [], disagreements[:3]
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"soundness sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 3 (frame soundness, 530 frames): PASS ({elapsed:.1f} s)")


def test_one_pass_matches_the_early_exit_path():
    # verify_correspondence takes each output's valid mask from its
    # translation check, which decides every placement on every frame; the
    # validity check stops a block once its mask is empty.  Both give the
    # same masks.
    four = EnumerationLimits(max_worlds=4)
    runs = [
        (parse_input(entry.input_text), result.quasis, LIMITS)
        for entry, result in corpus_runs().values()
    ]
    runs += [(ineq, result.quasis, LIMITS) for ineq, _, result in generated_oracle_runs()]
    runs += [
        (parse_input(entry.input_text), result.quasis, four)
        for entry, result in (corpus_runs()[name] for name in ("refl-dia", "sym"))
    ]
    for ineq, quasis, limits in runs:
        report = verify_correspondence(ineq, quasis, limits)
        assert len(report.translations) == len(quasis)
        for q, translation in zip(quasis, report.translations):
            assert translation.valid == frame_valid_quasi(limits, q), str(q)
        assert report.valid_out == frame_valid_quasi_set(limits, quasis), str(ineq)


# Frames with up to 4 worlds in each named class, counted with the
# FRAME_CLASSES predicates.
FOUR_WORLD_CLASS_COUNTS = {"refl-dia": 4165, "trans": 4180, "sym": 1098, "dense": 35272}


def test_criterion_3_frame_soundness_at_four_worlds():
    t0 = time.monotonic()
    limits = EnumerationLimits(max_worlds=4)
    reports = {}
    for name, (entry, result) in corpus_runs().items():
        reports[name] = verify_correspondence(
            parse_input(entry.input_text), result.quasis, limits
        )
    for k, (ineq, eps, result) in enumerate(generated_oracle_runs()):
        reports[f"gen{k} {ineq}"] = verify_correspondence(ineq, result.quasis, limits)
    assert all(r.frames == 66_066 for r in reports.values())
    failing = [(name, r.counterexamples[:1]) for name, r in reports.items() if not r.ok]
    assert failing == [], failing[:3]
    mismatched = [
        (name, t.mismatches[:1]) for name, r in reports.items() for t in r.translations if not t.ok
    ]
    assert mismatched == [], mismatched[:3]
    # the 66,066-bit masks stay out of the repr, which would fail on them
    assert repr(reports["sym"]).startswith("FrameAgreement(frames=66066, counterexamples=[]")

    frames = list(enumerate_frames(4, limits))
    for name, count in FOUR_WORLD_CLASS_COUNTS.items():
        pred = FRAME_CLASSES[corpus_runs()[name][0].frame_class]
        expected = sum(1 << k for k, fr in enumerate(frames) if pred(fr))
        assert reports[name].valid_in == expected, name
        assert expected.bit_count() == count, name
    elapsed = time.monotonic() - t0
    print(f"\nACCEPTANCE 3 (frame soundness, 66066 frames): PASS ({elapsed:.1f} s)")


def test_criterion_4_known_correspondents():
    frames = all_frames()
    reflexive = [fr for fr in frames if is_reflexive(fr)]
    transitive = [fr for fr in frames if is_transitive(fr)]

    out_box = run(parse("[]p -> p"))
    out_trans = run(parse("<> <> p -> <> p"))
    out_dia = run(parse("p -> <>p"))
    assert out_box.ok and out_trans.ok and out_dia.ok

    def valid_set(result):
        return [fr for fr in frames if frame_valid_quasi_set(fr, result.quasis)]

    assert valid_set(out_box) == reflexive
    assert valid_set(out_trans) == transitive
    assert valid_set(out_dia) == reflexive
    print("\nACCEPTANCE 4 (known correspondents exact): PASS")


def test_criterion_5_translation_equivalence():
    mismatches = 0
    # corpus outputs: every model with up to 2 worlds, exhaustively
    for name, (entry, result) in corpus_runs().items():
        for quasi in result.quasis:
            for m, g in all_models_for_item(quasi, max_worlds=2):
                if holds_quasi(m, g, quasi) != globally_true(m, g, tr_quasi(quasi)):
                    mismatches += 1
            for ineq in quasi.antecedents:
                for m, g in all_models_for_item(ineq, max_worlds=2):
                    if holds_inequality(m, g, ineq) != globally_true(m, g, tr_ineq(ineq)):
                        mismatches += 1
    assert mismatches == 0

    # generated outputs: 1000 random models with up to 3 worlds
    pairs = []
    for ineq, eps, result in generated_oracle_runs():
        pairs.extend(result.quasis)
    rng = random.Random(99)
    checked = 0
    while checked < 1000:
        quasi = pairs[checked % len(pairs)]
        ns = set()
        for i in (*quasi.antecedents, quasi.conclusion):
            ns |= nominals(i.lhs) | nominals(i.rhs)
        m = random_model(rng, [], sorted(ns, key=str), max_worlds=3)
        if holds_quasi(m, {}, quasi) != globally_true(m, {}, tr_quasi(quasi)):
            mismatches += 1
        checked += 1
    assert checked == 1000 and mismatches == 0
    print("\nACCEPTANCE 5 (translation equivalence): PASS")


def test_criterion_6_schema_validity():
    checks = check_schemas(EnumerationLimits(max_worlds=3))
    failing = [c for c in checks if not c.ok]
    assert failing == [], [(c.name, c.failures[:1]) for c in failing]
    total = sum(c.instances for c in checks)
    print(f"\nACCEPTANCE 6 (schema validity, {len(checks)} schemas / {total} instances): PASS")


def _validate_trace_invariants(trace):
    """Shape after every stage-2 step; nominal freshness at introduction."""
    state = trace.initial
    in_system = trace.origin != "preprocess"
    anchored = False
    for step in trace.steps:
        pre_names = {
            (s.kind, s.name)
            for i in state
            for s in all_symbols(i.lhs) | all_symbols(i.rhs)
        }
        new_state = apply_step(state, step)
        if step.rule == "first-approx":
            anchored = True
        if in_system and anchored:
            for i in new_state:
                assert has_system_shape(i), (trace.origin, step.rule, str(i))
        if step.rule.startswith(("approx-dia", "approx-box", "approx-implies", "first-approx", "name-svar")):
            produced_names = {
                (s.kind, s.name)
                for i in step.produced
                for s in all_symbols(i.lhs) | all_symbols(i.rhs)
            }
            consumed_names = {
                (s.kind, s.name)
                for i in step.consumed
                for s in all_symbols(i.lhs) | all_symbols(i.rhs)
            }
            introduced = produced_names - consumed_names
            assert not (introduced & pre_names), (step.rule, introduced & pre_names)
        state = new_state
    assert state == trace.final


def test_criterion_7_engine_invariants():
    runs, _ = generated_success_runs()
    traced = 0
    for ineq, eps, result in runs:
        for trace in result.traces:
            _validate_trace_invariants(trace)
            assert replay(trace) == trace.final
            traced += 1
    for ineq, eps, result in generated_oracle_runs():
        for trace in result.traces:
            _validate_trace_invariants(trace)
            traced += 1

    # determinism: re-running a fixed-seed batch reproduces traces byte for byte
    def snapshot():
        gen = SkeletalGenerator(seed=123)
        payload = []
        for _ in range(25):
            ineq, eps = gen.inequality()
            result = run(ineq, eps_hint=eps)
            payload.append([t.to_json() for t in result.traces])
        return json.dumps(payload, sort_keys=True)

    assert snapshot() == snapshot()
    print(f"\nACCEPTANCE 7 (engine invariants over {traced} traces): PASS")
