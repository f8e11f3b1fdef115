"""Smoke runs of the benchmark's traced mode.

The tracer in perfbench/ wraps semantics.frame_valid and
semantics.frame_valid_quasi and reads the frames' ``.size`` and the item
from their first two arguments; it wraps axioms.check_schemas and sums its
checks' ``.instances``.  A change to those functions that breaks
that contract, or any known answer, fails here in about a second per
workload (`reduce`, a full pass of 2,002 reductions, in about four).  A
traced run writes its spans only under perfbench/out/.

On `axioms` the counts are exact: the registry's 12 signature
conjunctions are decided in one frame_valid(limits, conjunction) call
each, with 643 cases in all, on every pass.  Each conjunction keeps its
interned program, so a check that stopped calling frame_valid on those
objects, or decided more or other formulas, would change what the
benchmark's `axioms` workload measures without any other test noticing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["axioms", "agree3", "agree4", "reduce"])
def test_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seconds", "0.2", "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    if workload == "reduce":
        # No frame is enumerated.  Every distribution rule fires, and under a
        # name the tracer counts: the engine derives the names, the tracer
        # lists them.
        assert metrics["alba.rule.other"]["value"] == 0
        dist = [m["value"] for k, m in metrics.items() if k.startswith("alba.rule.dist-")]
        assert len(dist) == 14 and min(dist) > 0
    else:
        assert metrics["semantics.frame_valid_calls"]["value"] > 0
    if workload == "agree3":
        # corpus run: the one traced caller of frame_valid_quasi
        assert metrics["semantics.quasi_valid_calls"]["value"] > 0
    if workload == "axioms":
        # the tracer wraps axioms.check_schemas and sums its checks' .instances
        assert metrics["axioms.instances"]["value"] == 120
        # one frame_valid call per signature conjunction, per pass
        assert metrics["semantics.frame_valid_calls"]["value"] == 12
        assert metrics["semantics.cases_bound"]["value"] == 643
