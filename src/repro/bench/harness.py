"""Benchmark harness utilities shared by all figure benchmarks.

Sizing: the paper runs up to 100,000 queries on a dual-Xeon with the
matching engine in Java; the default benchmark sizes here are scaled
down so the whole suite finishes quickly, and the ``REPRO_BENCH_SCALE``
environment variable (a float multiplier, e.g. ``10``) restores larger
runs.  Every benchmark prints its full series of rows, so curve shapes
are directly comparable with the paper's figures at any scale.
"""

from __future__ import annotations

import gc
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..db.database import Database
from ..engine.engine import D3CEngine
from ..workloads.flightdb import build_flight_database
from ..workloads.socialnet import SocialNetwork, generate_social_network

#: Default number of users in the benchmark social network (the paper
#: uses the 82,168-user Slashdot graph; scale with REPRO_BENCH_SCALE).
DEFAULT_BENCH_USERS = 8_000


def bench_scale() -> float:
    """The ``REPRO_BENCH_SCALE`` multiplier (default 1.0)."""
    raw = os.environ.get("REPRO_BENCH_SCALE", "1")
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"REPRO_BENCH_SCALE must be a number, got {raw!r}")
    if value <= 0:
        raise ValueError("REPRO_BENCH_SCALE must be positive")
    return value


def scaled(base: int, multiple_of: int = 1) -> int:
    """Scale a base size by :func:`bench_scale`, rounding to a multiple."""
    value = max(int(base * bench_scale()), multiple_of)
    remainder = value % multiple_of
    if remainder:
        value += multiple_of - remainder
    return value


@dataclass
class SeriesRow:
    """One data point of a benchmark series."""

    x: float
    metrics: dict

    def __str__(self) -> str:
        rendered = "  ".join(f"{key}={value:.4f}"
                             if isinstance(value, float)
                             else f"{key}={value}"
                             for key, value in self.metrics.items())
        return f"{self.x:>10}  {rendered}"


@dataclass
class Series:
    """A named series of (x, metrics) points, printable as a table."""

    name: str
    x_label: str
    rows: list[SeriesRow] = field(default_factory=list)

    def add(self, x: float, **metrics) -> None:
        self.rows.append(SeriesRow(x, metrics))

    def format(self) -> str:
        lines = [f"== {self.name} ==", f"{self.x_label:>10}"]
        lines.extend(str(row) for row in self.rows)
        return "\n".join(lines)

    def print(self) -> None:  # noqa: A003 - mirrors the paper's "plot"
        print()
        print(self.format())

    def metric(self, key: str) -> list[float]:
        """Extract one metric column across rows."""
        return [row.metrics[key] for row in self.rows]

    def xs(self) -> list[float]:
        return [row.x for row in self.rows]


@contextmanager
def stopwatch() -> Iterator[Callable[[], float]]:
    """``with stopwatch() as elapsed: ...; elapsed()`` -> seconds."""
    start = time.perf_counter()
    end: list[float] = []

    def elapsed() -> float:
        return (end[0] if end else time.perf_counter()) - start

    yield elapsed
    end.append(time.perf_counter())


_NETWORK_CACHE: dict = {}


def bench_network(num_users: int | None = None,
                  seed: int = 0) -> SocialNetwork:
    """A cached benchmark social network with planted cliques.

    Cliques of sizes 4-6 are planted so the Figure 7 workload always
    has groups available, mirroring the paper's generator guarantees.
    """
    if num_users is None:
        num_users = scaled(DEFAULT_BENCH_USERS)
    key = (num_users, seed)
    if key not in _NETWORK_CACHE:
        clique_count = max(num_users // 10, 50)
        _NETWORK_CACHE[key] = generate_social_network(
            num_users=num_users, seed=seed,
            planted_cliques={4: clique_count, 5: clique_count,
                             6: clique_count})
    return _NETWORK_CACHE[key]


_DATABASE_CACHE: dict = {}


def bench_database(network: SocialNetwork) -> Database:
    """A cached flight database for *network*, with warm indexes.

    Hash indexes are built lazily on first probe; warming them here
    keeps one-time index construction out of the smallest benchmark
    points (where it would dominate and distort the curve shape).
    """
    key = id(network)
    if key not in _DATABASE_CACHE:
        database = build_flight_database(network)
        for table_name in database.table_names():
            table = database.table(table_name)
            table.index_on((0,))
            table.index_on((0, 1))
            table.index_on((1,))
        _DATABASE_CACHE[key] = database
    return _DATABASE_CACHE[key]


@contextmanager
def frozen_dataset() -> Iterator[None]:
    """Move currently-live objects out of the cyclic collector's scans.

    The benchmark database and social network are large, static, and
    alive for the whole run; without freezing them, every generational
    collection re-traverses millions of rows and index buckets, which
    measured as ~30% of incremental-coordination wall time.  Engine
    garbage created inside the region is still collected normally —
    just in larger batches (the gen-0 threshold is raised for the
    duration, then restored).
    """
    thresholds = gc.get_threshold()
    gc.collect()
    gc.freeze()
    gc.set_threshold(200_000, 100, 100)
    try:
        yield
    finally:
        gc.set_threshold(*thresholds)
        gc.unfreeze()


def run_incremental(database: Database, queries,
                    **engine_kwargs) -> dict:
    """Submit *queries* to a fresh incremental engine; return metrics.

    Metrics: total wall seconds, engine phase timings, answered/pending
    counts, and throughput (queries/second).
    """
    engine = D3CEngine(database, mode="incremental", **engine_kwargs)
    with frozen_dataset():
        with stopwatch() as elapsed:
            engine.submit_all(queries)
        total = elapsed()
    return _metrics(engine, len(queries), total)


def run_batch(database: Database, queries, **engine_kwargs) -> dict:
    """Submit then run one set-at-a-time round; return metrics."""
    engine = D3CEngine(database, mode="batch", **engine_kwargs)
    with frozen_dataset():
        with stopwatch() as elapsed:
            engine.submit_all(queries)
            engine.run_batch()
        total = elapsed()
    return _metrics(engine, len(queries), total)


def _metrics(engine: D3CEngine, num_queries: int, total: float) -> dict:
    from ..obs import absorb_snapshot
    # One snapshot serves the figures below and the global aggregate.
    snapshot = engine.metrics_snapshot()
    counters, gauges = snapshot["counters"], snapshot["gauges"]
    metrics = {
        "queries": num_queries,
        "seconds": total,
        "throughput_qps": num_queries / total if total > 0 else 0.0,
        "answered": counters["answered"],
        "pending": int(gauges["pending"]),
        **{key: counters[key] for key in (
            "closure_events", "coordination_rounds",
            "combined_queries_built")},
        **{key: gauges[key] for key in (
            "graph_seconds", "match_seconds", "db_seconds",
            "safety_seconds")},
    }
    # Outside the stopwatch: fold it into the process-global aggregate
    # (``bench --metrics-json`` reads it).
    absorb_snapshot(snapshot)
    return metrics
