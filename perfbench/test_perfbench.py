"""Checks on the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs every workload twice traced on the benchmark seed and once untraced on
the held-out seed (a few minutes on two cores), and asserts that

- the traced run matches each workload's rationale (dominant layer);
- two traced runs with one seed give identical counts;
- every known-answer check passes on the held-out seed;
- the metric names and units agree with BENCHMARK.json;
- the benchmark fails, without a result line, when the program is absent.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1
HELD_OUT_SEED = 1000
ENUMERATING = ("agree3", "agree4", "axioms")


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


@functools.cache
def result(workload: str, seed: int, trace: int, repeat: int = 0) -> dict:
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def values(workload: str, repeat: int = 0) -> dict[str, float]:
    metrics = result(workload, SEED, 1, repeat)["metrics"]
    return {name: m["value"] for name, m in metrics.items()}


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("workload", ENUMERATING)
def test_semantics_holds_the_largest_self_time(workload):
    v = values(workload)
    shares = {layer: v[f"{layer}.self_s"] for layer in tracing.LAYERS}
    assert max(shares, key=shares.get) == "semantics", shares


def test_quasi_validity_outweighs_input_validity_on_agree3():
    v = values("agree3")
    assert v["semantics.quasi_valid_s"] > v["semantics.frame_valid_s"]


def test_reduce_enumerates_no_frames():
    v = values("reduce")
    assert v["semantics.self_s"] == 0
    assert v["semantics.frames"] == 0
    assert v["semantics.frame_valid_calls"] == 0
    assert v["semantics.quasi_valid_calls"] == 0
    assert v["alba.runs"] > 0


EXACT = ("alba.trace_steps", "semantics.frames", "semantics.cases_bound")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly(workload):
    first, second = values(workload, 0), values(workload, 1)
    names = [
        n for n in tracing.PER_LAYER
        if n in EXACT or n.startswith("alba.rule.") or n.endswith("_calls")
    ]
    assert {n: first[n] for n in names} == {n: second[n] for n in names}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_known_answers_hold_on_held_out_seed(workload):
    r = result(workload, HELD_OUT_SEED, 0)
    assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("reduce", SEED, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
