"""Tier-1 smoke test of the coordination ledger.

Runs every workload at ``--scale 0.02``, untraced and traced, each in
its own interpreter (as the benchmark always runs), and checks the
contract between ``run.py`` and ``BENCHMARK.json``: the emitted metric
names are exactly the declared ones, every value is finite, nothing
failed, and the trace file is a forest.  It asserts nothing about
speed.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent
DECLARATION = json.loads(
    (LEDGER.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in DECLARATION["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_ledger(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--scale", "0.02",
         "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results() -> dict:
    """Every (workload, trace) run, two interpreters at a time."""
    cases = [(workload, trace) for workload in WORKLOADS
             for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(cases, pool.map(
            lambda case: run_ledger(*case), cases)))


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_matches_declaration(results, workload, trace, section):
    result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    declared = {entry["name"]: entry["unit"]
                for entry in DECLARATION[section]}
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert entry["unit"] == declared[name]
        assert math.isfinite(entry["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_file_is_a_forest(results, workload):
    assert results[workload, 1]["correct"]
    path = LEDGER / "out" / f"{workload}.trace.jsonl"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans, "a traced run records spans"
    ids = {(span["epoch"], span["id"]) for span in spans}
    assert len(ids) == len(spans), "span ids are unique per epoch"
    for span in spans:
        assert span["end_ns"] >= span["start_ns"]
        if span["parent"] is None:
            assert span["name"] == "pass"
        else:
            assert (span["epoch"], span["parent"]) in ids
