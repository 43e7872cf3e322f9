"""Smoke test of the demos: each runs to completion in a fresh interpreter.

The demos build objects through the generators, the PBM and ASCII readers
and writers, and demo 05 asserts that P1, P4 and ASCII round-trip.
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from pixtopo import CaseId, incremental

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_are_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_demo_02_fails_on_an_unmatched_case(monkeypatch):
    demo = runpy.run_path(str(ROOT / "demos" / "02_exhaustive_verification.py"))
    monkeypatch.setattr(incremental, "classify_case", lambda delta: CaseId.UNMATCHED)
    assert demo["main"]() == 1
