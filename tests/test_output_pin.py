"""The engine's output, pinned byte for byte.

A refactor of the formula layer or the engine must leave every trace and
every correspondent unchanged.  This test hashes the stdout and exit code
of ``correspond --json --trace`` on the corpus plus the first 200 draws of
``SkeletalGenerator(1)``, and of ``correspond --simplify --trace`` on the
first 50 of those draws.  It also pins the generator's draws, which the
benchmark's workloads depend on.  The report digest covers the other
``--json`` reports: ``classify`` on every corpus input, ``translate`` on
every golden pure output, and ``verify`` on the non-skeletal entries (the
failure report).  The classification digest covers ``classify --json`` on
the 200 generated draws.

The digest was recorded before the formula-layer refactor with

    PYTHONPATH=src:tests python -c "import test_output_pin as t; print(t.output_digest())"

the report digest, before the JSON writer of ``cli`` replaced
``json.dumps``, with ``t.output_digest(t.report_runs())``, and the
classification digest, before classification read the signed facts of
each node, with ``t.output_digest(t.classify_runs())``.

A change that means to alter the output records the new digest the same
way and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import os
from unittest import mock

from hybridcorr.cli import main
from hybridcorr.corpus import CORPUS, load_goldens
from hybridcorr.generate import SkeletalGenerator

PINNED_DIGEST = "8cc1872f8c48d2885983a21e63d254d3fe09afc3d299b6b59bb9339c59e28a08"
ENUMERATION_DIGEST = "961fc793ecf9ec635a7047b88a163663eb7e916290a0d636031ca788a2f8ea28"
REPORT_DIGEST = "adb8c61e2b497e86ea55e70698765ceaaec6a2a9a277430818054b419cf53232"
CLASSIFY_DIGEST = "dbaf545987d5d0308175bc684368d82dfe1c8e347d4e7349248dfb712cc6a987"


def _drawn() -> list[str]:
    gen = SkeletalGenerator(1)
    return [str(gen.inequality()[0]) for _ in range(200)]


def _runs() -> list[list[str]]:
    drawn = _drawn()
    texts = [e.input_text for e in CORPUS] + drawn
    return [["correspond", t, "--json", "--trace"] for t in texts] + [
        ["correspond", t, "--simplify", "--trace"] for t in drawn[:50]
    ]


def enumeration_runs() -> list[list[str]]:
    runs = [["axioms-check", "--json", "--max-worlds", str(k)] for k in (1, 2, 3)]
    return runs + [
        ["verify", e.input_text, "--json", "--max-worlds", "3"]
        for e in CORPUS
        if e.expect_skeletal
    ]


def report_runs() -> list[list[str]]:
    goldens = load_goldens()
    runs = [["classify", e.input_text, "--json"] for e in CORPUS]
    runs += [
        ["translate", p["text"], "--json"]
        for e in CORPUS
        for p in goldens[e.name].get("pure", [])
    ]
    return runs + [
        ["verify", e.input_text, "--json", "--max-worlds", "2"]
        for e in CORPUS
        if not e.expect_skeletal
    ]


def classify_runs() -> list[list[str]]:
    return [["classify", t, "--json"] for t in _drawn()]


def output_digest(runs: list[list[str]] | None = None) -> str:
    # the default caps, whatever the environment sets
    env = {k: v for k, v in os.environ.items() if not k.startswith("HYBRIDCORR_")}
    h = hashlib.sha256()
    for argv in _runs() if runs is None else runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), mock.patch.dict(os.environ, env, clear=True):
            code = main(argv)
        h.update(f"{argv}\n{code}\n{out.getvalue()}".encode())
    return h.hexdigest()


def test_correspond_output_is_pinned():
    assert output_digest() == PINNED_DIGEST


def test_enumeration_output_is_pinned():
    assert output_digest(enumeration_runs()) == ENUMERATION_DIGEST


def test_report_output_is_pinned():
    assert output_digest(report_runs()) == REPORT_DIGEST


def test_classify_output_is_pinned():
    assert output_digest(classify_runs()) == CLASSIFY_DIGEST
