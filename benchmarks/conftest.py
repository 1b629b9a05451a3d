"""Shared fixtures for the figure benchmarks.

The social network and database are session-scoped: building them once
mirrors the paper's setup (one Slashdot-derived dataset reused across
experiments) and keeps benchmark time inside the measurement regions.
Scale everything up with ``REPRO_BENCH_SCALE`` (see repro.bench).

Under pytest the default scale is reduced (the figure sweeps are shape
checks here, not measurements — ``python -m repro bench`` remains the
full-scale path, and performance is measured by the coordination
ledger in ``benchmarks/ledger/``), which keeps the tier-1 suite fast.
Setting ``REPRO_BENCH_SCALE`` explicitly overrides the reduction.
"""

from __future__ import annotations

import os

import pytest

#: Benchmark scale applied when the suite runs under pytest and the
#: environment does not say otherwise.  Must be set before the test
#: modules import (their POINT_SIZE constants call scaled() at import).
PYTEST_DEFAULT_SCALE = "0.25"

os.environ.setdefault("REPRO_BENCH_SCALE", PYTEST_DEFAULT_SCALE)

from repro.bench import bench_database, bench_network  # noqa: E402


@pytest.fixture(scope="session")
def network():
    """The benchmark social network (cached across the whole session)."""
    return bench_network()


@pytest.fixture(scope="session")
def database(network):
    """The Friends/User flight database for the benchmark network."""
    return bench_database(network)
