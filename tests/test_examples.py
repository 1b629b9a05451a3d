"""Smoke tests: every example script runs to completion.

The examples double as executable documentation; each contains its own
assertions about coordination outcomes, so a clean exit is a meaningful
check, not just an import test.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "course_enrollment.py",
    "mmo_party.py",
    "party_planning.py",
]


def run_example(name: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_fast_example_runs(name):
    result = run_example(name)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_quickstart_reproduces_paper_outcome():
    result = run_example("quickstart.py")
    assert result.returncode == 0, result.stderr
    assert "United" in result.stdout
    assert "flight 122" in result.stdout or "flight 123" in result.stdout


def test_travel_agency_example_runs():
    result = run_example("travel_agency.py")
    assert result.returncode == 0, result.stderr
    assert "Evening round answered" in result.stdout
