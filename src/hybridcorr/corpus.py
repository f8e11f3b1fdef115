"""Shipped regression corpus: named axioms, their classification, and the
golden pure outputs.

The goldens store both pretty text (for humans) and the AST JSON (the
comparison key).  ``corpus run`` recomputes everything on the current
engine and diffs against the goldens; ``corpus bless`` rewrites them and
then re-verifies frame equivalence before accepting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from . import alba
from .classify import find_order_type
from .semantics import (
    DEFAULT_LIMITS,
    EnumerationLimits,
    frame_class_mask,
    frame_indices,
    frame_valid,
    frame_valid_quasi_set,
)
from .syntax import Implies, parse_input, quasi_to_json
from .translate import tr_quasiset


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    input_text: str
    frame_class: str | None  # key into FRAME_CLASSES, or None when unnamed
    expect_skeletal: bool = True
    note: str = ""


CORPUS: list[CorpusEntry] = [
    CorpusEntry("refl-box", "[]p -> p", "reflexive"),
    CorpusEntry("refl-dia", "p -> <>p", "reflexive"),
    CorpusEntry("trans", "<> <> p -> <> p", "transitive"),
    CorpusEntry("sym", "p -> [] <> p", "symmetric"),
    CorpusEntry("dense", "<>p -> <> <> p", "dense"),
    CorpusEntry(
        "join-split",
        "<>p1 & p2 <= <>[]<>p1 | <>[]<>p2",
        None,
        note="conjunction of a diamond and an atom against a disjunction of modal towers",
    ),
    CorpusEntry("back", "<>@'i p -> @'i p", "all", note="valid everywhere"),
    CorpusEntry("dual", "~[]~p -> <>p", "all", note="valid everywhere"),
    CorpusEntry("intro", "'i & p -> @'i p", "all", note="valid everywhere"),
    CorpusEntry("at-transfer", "@'i p -> @'j p", "singleton"),
    CorpusEntry("double-negation", "p -> ((p -> F) -> F)", "all"),
    CorpusEntry(
        "binder-self-loop",
        "<> !x. <>x",
        None,
        note="every world sees a point that sees itself",
    ),
    CorpusEntry(
        "binder-guarded",
        "!x.(p & <>x) -> <>p",
        "all",
        note="binder on a critical branch; valid everywhere",
    ),
    CorpusEntry(
        "binder-roundtrip",
        "@'i [] !x. @'i <>x",
        "all",
        note="binder under a box on the negative side; valid everywhere",
    ),
    CorpusEntry(
        "serial",
        "[]p -> <>p",
        None,
        expect_skeletal=False,
        note="plus-box and minus-dia are not skeletal: outside the class",
    ),
    CorpusEntry(
        "confluence",
        "<>[]p -> []<>p",
        None,
        expect_skeletal=False,
        note="outside the class for the same reason",
    ),
]


GOLDEN_RESOURCE = "corpus_goldens.json"
# The goldens' valid_frames index the frames with up to this many worlds;
# run and bless always enumerate at this size.
GOLDEN_WORLDS = 3
GOLDEN_LIMITS = EnumerationLimits(max_worlds=GOLDEN_WORLDS)


def compute_entry(
    entry: CorpusEntry, limits: EnumerationLimits = DEFAULT_LIMITS
) -> dict:
    """Run the full pipeline on one entry and compute its golden record."""
    ineq = parse_input(entry.input_text)
    eps = find_order_type(ineq)
    record: dict = {
        "name": entry.name,
        "input": entry.input_text,
        "skeletal": eps is not None,
        "order_type": eps.to_json() if eps is not None else None,
    }
    result = alba.run(ineq)
    record["status"] = "success" if result.ok else "failure"
    if not result.ok:
        return record
    record["pure"] = [
        {"text": str(q), "ast": quasi_to_json(q)} for q in result.quasis
    ]
    tr = tr_quasiset(list(result.quasis))
    record["tr"] = {"text": str(tr)}
    valid = frame_valid_quasi_set(limits, result.quasis)
    record["valid_frames"] = list(frame_indices(valid))
    return record


def verify_entry(
    entry: CorpusEntry, record: dict, limits: EnumerationLimits = DEFAULT_LIMITS
) -> list[str]:
    """Frame-level checks a golden must satisfy regardless of its content.

    The output side is the record's valid_frames, which compute_entry
    decided from the record's pure outputs; only the input is decided here.
    """
    problems: list[str] = []
    if record["status"] != ("success" if entry.expect_skeletal else "failure"):
        problems.append(
            f"{entry.name}: expected status for skeletal={entry.expect_skeletal}, "
            f"got {record['status']}"
        )
        return problems
    if not entry.expect_skeletal:
        return problems
    ineq = parse_input(entry.input_text)
    valid_in = frame_valid(limits, Implies(ineq.lhs, ineq.rhs))
    if list(frame_indices(valid_in)) != record["valid_frames"]:
        problems.append(f"{entry.name}: output and input define different frame classes")
    if entry.frame_class is not None:
        expected = frame_class_mask(entry.frame_class, limits)
        if list(frame_indices(expected)) != record["valid_frames"]:
            problems.append(
                f"{entry.name}: valid frames are not exactly the {entry.frame_class} ones"
            )
    return problems


def load_goldens() -> dict[str, dict]:
    ref = resources.files("hybridcorr").joinpath("data").joinpath(GOLDEN_RESOURCE)
    with ref.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def golden_path():
    return resources.files("hybridcorr").joinpath("data").joinpath(GOLDEN_RESOURCE)


def run_corpus() -> tuple[bool, list[str]]:
    """Recompute every entry and diff against the stored goldens."""
    goldens = load_goldens()
    lines: list[str] = []
    ok = True
    for entry in CORPUS:
        record = compute_entry(entry, GOLDEN_LIMITS)
        stored = goldens.get(entry.name)
        if stored is None:
            ok = False
            lines.append(f"MISSING  {entry.name}: no golden stored")
            continue
        if stored != record:
            ok = False
            lines.append(f"DIFF     {entry.name}: output differs from golden")
        else:
            lines.append(f"ok       {entry.name}")
    return ok, lines


def bless_corpus(path=None) -> tuple[bool, list[str]]:
    """Recompute goldens, verify them at frame level, then write them out."""
    records: dict[str, dict] = {}
    lines: list[str] = []
    ok = True
    for entry in CORPUS:
        record = compute_entry(entry, GOLDEN_LIMITS)
        problems = verify_entry(entry, record, GOLDEN_LIMITS)
        if problems:
            ok = False
            lines.extend(f"FAIL     {p}" for p in problems)
        else:
            lines.append(f"blessed  {entry.name}")
        records[entry.name] = record
    if ok:
        target = path if path is not None else golden_path()
        with open(str(target), "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return ok, lines
