"""Smoke runs of the command-line scripts under scripts/."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_desk_verify_small():
    proc = run_script("desk_verify.py", "--generated", "2", "--max-worlds", "2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all checks passed" in proc.stdout


def test_sample_outputs_small():
    proc = run_script("sample_outputs.py", "--count", "2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "[1] input:" in proc.stdout


def test_desk_verify_four_worlds():
    proc = run_script("desk_verify.py", "--generated", "5", "--max-worlds", "4")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all checks passed" in proc.stdout
