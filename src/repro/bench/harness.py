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
from typing import Callable, Iterator, Sequence

from ..db.database import Database
from ..engine.engine import D3CEngine
from ..workloads.flightdb import build_flight_database
from ..workloads.socialnet import SocialNetwork, generate_social_network

#: Default number of users in the benchmark social network (the paper
#: uses the 82,168-user Slashdot graph; scale with REPRO_BENCH_SCALE).
DEFAULT_BENCH_USERS = 8_000

#: Revision of the timed harness code paths.  Bump whenever a change
#: alters what any runner measures inside its stopwatch (new work in
#: the timed region, different warm-up, changed substrate sizing), so
#: a committed BENCH_*.json baseline can be told apart from reports
#: produced by an incompatible harness.  Recorded in every regression
#: report as ``harness_revision``.
#:
#: Revision 2: observability instrumentation landed inside the timed
#: regions (per-site ``TRACER.enabled`` checks on the query lifecycle
#: and engine hot paths — measured at noise level when disabled by the
#: ``obs_overhead`` probe, but a different timed region nonetheless).
HARNESS_REVISION = 2


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


_SCHEDULE_CACHE: dict = {}


def schedule_database(network: SocialNetwork) -> Database:
    """A cached standalone schedule database for the range benchmarks.

    Holds only the slot-schedule table ``S(user, slot)`` (see
    :func:`repro.workloads.generators.install_schedule_table`) — the
    range workloads' bodies read nothing else, and keeping the flight
    tables out makes the substrate cheap to build at any scale.  Both
    the hash index on the user column and the ordered indexes the
    pushdown path probes (bare slot order, and user-prefixed slot
    order) are warmed here so lazy index construction never lands
    inside a measured leg — crucially not inside the *first* pushdown
    leg of an A/B pair, which would bias the comparison.
    """
    key = id(network)
    if key not in _SCHEDULE_CACHE:
        from ..workloads.generators import (SCHEDULE_TABLE,
                                            install_schedule_table)
        database = Database()
        install_schedule_table(database, network)
        table = database.table(SCHEDULE_TABLE)
        table.index_on((0,))
        table.ordered_index_on((), 1)
        table.ordered_index_on((0,), 1)
        _SCHEDULE_CACHE[key] = database
    return _SCHEDULE_CACHE[key]


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


def run_churn(database: Database, rounds,
              ttl_rounds: int = 4, **engine_kwargs) -> dict:
    """Drive the high-churn arrival/expiry scenario; return metrics.

    *rounds* is a list of per-round arrival blocks (see
    :func:`repro.workloads.generators.churn_rounds`).  Every round
    advances a manual clock by one tick, expires queries older than
    *ttl_rounds* ticks, ingests the round's block, and runs one
    set-at-a-time coordination round; blocks are ingested through
    ``submit_many`` (the batched, parallel arrival pipeline).
    """
    from ..engine.staleness import ManualClock, TimeoutStaleness
    clock = ManualClock()
    engine = D3CEngine(database, mode="batch",
                       staleness=TimeoutStaleness(ttl_rounds + 0.5),
                       clock=clock, **engine_kwargs)
    with frozen_dataset():
        with stopwatch() as elapsed:
            for block in rounds:
                clock.advance(1.0)
                engine.expire_stale()
                engine.submit_many(block)
                engine.run_batch()
            total = elapsed()
    num_queries = sum(len(block) for block in rounds)
    return _metrics(engine, num_queries, total)


def run_dynamic(database: Database, rounds,
                ttl_rounds: int = 4, full_recompute: bool = False,
                wal_dir=None, snapshot_every: int | None = 64,
                sync_every: int | None = 8,
                snapshot_log_bytes: int | None = None,
                **engine_kwargs) -> dict:
    """Drive the live-mutation (``dynamic_db``) scenario; return metrics.

    *rounds* is a list of ``(mutations, arrivals)`` pairs (see
    :func:`repro.workloads.generators.dynamic_db_rounds`).  Every round
    advances the clock, expires stale queries, applies the round's
    mutation batch to the database, ingests the arrival block, and runs
    one set-at-a-time coordination round.

    The engine runs against a **private copy** of *database* (rebuilt
    from its dump text) so the shared cached benchmark substrate is
    never mutated, with the scenario's gate tables installed.  With
    ``full_recompute=True`` every mutation batch is followed by
    ``engine.invalidate_cache()`` — the mark-everything-dirty baseline
    the delta-driven targeted invalidation is measured against; both
    modes answer identically (re-attempting an untouched component is a
    deterministic repeat).

    With ``wal_dir`` the same loop runs under a
    :class:`~repro.durability.DurableEngine` (fresh — the directory
    must not hold prior state): every round's commands are journalled
    with ``sync_every``-batched fsync and a snapshot every
    ``snapshot_every`` commands, and each round's mutation batch goes
    through the durable ``apply_mutations`` API (one ``mutate`` frame
    per round, the recommended bulk path).  This is the logged leg of
    the ``wal_overhead`` regression probe.
    """
    from ..dataio import dump_database, load_database
    from ..engine.staleness import ManualClock, TimeoutStaleness
    from ..workloads.generators import install_dynamic_tables
    working = load_database(dump_database(database))
    install_dynamic_tables(working)
    clock = ManualClock()
    staleness = TimeoutStaleness(ttl_rounds + 0.5)
    if wal_dir is not None:
        from ..durability import DurableEngine
        engine = DurableEngine(wal_dir, working, clock=clock,
                               snapshot_every=snapshot_every,
                               sync_every=sync_every,
                               snapshot_log_bytes=snapshot_log_bytes,
                               mode="batch",
                               staleness=staleness, **engine_kwargs)
    else:
        engine = D3CEngine(working, mode="batch", staleness=staleness,
                           clock=clock, **engine_kwargs)
    mutation_ops = 0
    with frozen_dataset():
        with stopwatch() as elapsed:
            for mutations, block in rounds:
                clock.advance(1.0)
                engine.expire_stale()
                if wal_dir is not None and mutations:
                    # The durable mutate API: the whole batch rides in
                    # one journalled command frame instead of one
                    # wal_delta frame per TableDelta.
                    engine.apply_mutations(mutations)
                else:
                    for kind, table, rows in mutations:
                        if kind == "insert":
                            working.insert(table, rows)
                        else:
                            working.delete_rows(table, rows)
                mutation_ops += len(mutations)
                if full_recompute and mutations:
                    engine.invalidate_cache()
                engine.submit_many(block)
                engine.run_batch()
            total = elapsed()
    num_queries = sum(len(block) for _, block in rounds)
    metrics = _metrics(engine, num_queries, total)
    metrics["mutation_ops"] = mutation_ops
    if wal_dir is not None:
        metrics["wal_bytes"] = engine.wal_bytes
        metrics["wal_commands"] = engine.commands_applied
        metrics["wal_snapshots"] = engine.snapshots_taken
        engine.close()
    return metrics


def run_sharded(database: Database, rounds, num_shards: int,
                backend: str = "process", ttl_rounds: int = 4,
                **coordinator_kwargs) -> dict:
    """Drive arrival/expiry rounds through the sharded service.

    Same round loop as :func:`run_churn` — expire, ingest a block,
    coordinate — but against a :class:`repro.shard.coordinator.
    ShardedCoordinator` with *num_shards* workers on the chosen
    backend.  Worker start-up (process spawn + database rebuild from
    its wire dump) happens before the stopwatch starts, mirroring
    engine construction in the other runners; the measured region is
    steady-state service traffic.  Metrics additionally report the
    cross-shard migration counters.
    """
    from ..engine.staleness import ManualClock, TimeoutStaleness
    from ..shard import ShardedCoordinator
    clock = ManualClock()
    if backend == "process" and "warm_indexes" not in coordinator_kwargs:
        # Mirror bench_database's warm index set inside each worker so
        # lazy index construction stays out of the measured region.
        coordinator_kwargs["warm_indexes"] = [
            (name, positions) for name in database.table_names()
            for positions in ((0,), (0, 1), (1,))
            if max(positions) < database.table(name).schema.arity]
    coordinator = ShardedCoordinator(
        database, num_shards=num_shards, backend=backend, mode="batch",
        staleness=TimeoutStaleness(ttl_rounds + 0.5), clock=clock,
        **coordinator_kwargs)
    try:
        with frozen_dataset():
            with stopwatch() as elapsed:
                for block in rounds:
                    clock.advance(1.0)
                    coordinator.expire_stale()
                    coordinator.submit_many(block)
                    coordinator.run_batch()
                total = elapsed()
        num_queries = sum(len(block) for block in rounds)
        metrics = _metrics(coordinator, num_queries, total)
        metrics["shards"] = num_shards
        metrics["migrations"] = coordinator.migrations
        metrics["migrated_queries"] = coordinator.migrated_queries
        # Protocol round-trip accounting: commands issued to workers
        # over the whole run, and normalized per round — the counter
        # the migration-heavy probe tracks across transport revisions.
        metrics["wire_requests"] = coordinator.wire_requests
        metrics["wire_requests_per_round"] = round(
            coordinator.wire_requests / max(len(rounds), 1), 2)
        return metrics
    finally:
        coordinator.close()


def run_range_sweep(database: Database, queries,
                    pushdown: bool = True, **engine_kwargs) -> dict:
    """Run the slot-window pair workload; return metrics.

    Batch-mode engine run over the ``range_sweep`` queries (see
    :func:`repro.workloads.generators.range_sweep_pairs`), with
    ordered-index pushdown toggled for the duration of the run and
    restored to its default afterwards — ``pushdown=False`` is the
    scan-and-filter baseline leg.  Metrics additionally report the
    run's *delta* of the database's ordered-index counters, so a
    figure row shows how many probes/pruned rows its own queries cost
    rather than a lifetime total of the shared substrate.
    """
    before = database.range_stats()
    database.set_range_pushdown(pushdown)
    try:
        engine = D3CEngine(database, mode="batch", **engine_kwargs)
        with frozen_dataset():
            with stopwatch() as elapsed:
                engine.submit_all(queries)
                engine.run_batch()
            total = elapsed()
    finally:
        database.set_range_pushdown(True)
    after = database.range_stats()
    metrics = _metrics(engine, len(queries), total)
    for key in ("range_probes", "range_rows", "range_pruned",
                "empty_prunes"):
        metrics[key] = after[key] - before[key]
    return metrics


def run_range_scan(database: Database, queries,
                   pushdown: bool = True) -> dict:
    """Evaluate conjunctive *queries* directly; no engine in the loop.

    The measured region is pure :meth:`repro.db.Database.evaluate`
    work — per-query coordination overhead (ingest, matching, outcome
    bookkeeping) would otherwise dilute the index-vs-scan gap this
    probe exists to track.  Beyond the usual timing metrics, returns:

    * ``answered`` — total result rows across all queries;
    * ``digests`` — one ``(row_count, hash)`` pair per query, computed
      from the sorted projection on the query's output variables.  The
      A/B probe compares digests across legs, enforcing that pushdown
      never changes an answer (hashes are only comparable within one
      process — never persist them);
    * deltas of the ordered-index counters, as in
      :func:`run_range_sweep`.
    """
    before = database.range_stats()
    database.set_range_pushdown(pushdown)
    try:
        with frozen_dataset():
            with stopwatch() as elapsed:
                results = [list(database.evaluate(query))
                           for query in queries]
            total = elapsed()
    finally:
        database.set_range_pushdown(True)
    after = database.range_stats()
    digests: list[tuple[int, int]] = []
    rows_total = 0
    for query, valuations in zip(queries, results):
        variables = query.output_variables or tuple(
            sorted(query.variables(), key=lambda var: var.name))
        rows = sorted(tuple(valuation[var] for var in variables)
                      for valuation in valuations)
        rows_total += len(rows)
        digests.append((len(rows), hash(tuple(rows))))
    metrics = {
        "queries": len(queries),
        "seconds": total,
        "throughput_qps": len(queries) / total if total > 0 else 0.0,
        "answered": rows_total,
        "digests": digests,
    }
    for key in ("range_probes", "range_rows", "range_pruned",
                "empty_prunes"):
        metrics[key] = after[key] - before[key]
    return metrics


def _metrics(engine: D3CEngine, num_queries: int, total: float) -> dict:
    from ..core.evaluate import FailureReason
    from ..engine.stats import EngineStats
    from ..obs import TRACER, absorb_snapshot
    # One snapshot serves the figures below and the global aggregate
    # (a fleet's or wrapper's ``stats`` would take a second one).
    snapshot = engine.metrics_snapshot()
    stats = EngineStats.from_metrics(snapshot)
    metrics = {
        "queries": num_queries,
        "seconds": total,
        "throughput_qps": num_queries / total if total > 0 else 0.0,
        "answered": stats.answered,
        "failed_stale": stats.failed[FailureReason.STALE],
        "pending": stats.pending,
        "closure_events": stats.closure_events,
        "coordination_rounds": stats.coordination_rounds,
        "combined_queries_built": stats.combined_queries_built,
        "graph_seconds": stats.graph_seconds,
        "match_seconds": stats.match_seconds,
        "db_seconds": stats.db_seconds,
        "safety_seconds": stats.safety_seconds,
    }
    # Outside the stopwatch: fold it into the process-global aggregate
    # (``bench --metrics-json`` reads it); with tracing on, add
    # per-phase latency quantiles from the ring buffer's spans.
    absorb_snapshot(snapshot)
    if TRACER.enabled:
        metrics.update(phase_latencies())
    return metrics


def phase_latencies() -> dict:
    """p50/p95/p99 per query-lifecycle phase from the tracer's spans.

    Latencies are bucketed power-of-two microseconds (the registry's
    mergeable histogram shape), so the quantiles are conservative
    upper bounds — comparable across runs, not nanosecond-exact.
    Returns an empty dict when no lifecycle spans are buffered.
    """
    from ..obs import MetricsRegistry, TRACER, quantiles
    registry = MetricsRegistry()
    for span in TRACER.spans():
        if span.name.startswith("query.") and span.duration_ns:
            registry.observe(f"latency.{span.name}",
                             span.duration_ns / 1000.0)
    latencies: dict = {}
    for name, histogram in registry.snapshot()["histograms"].items():
        phase = name[len("latency.query."):]
        for quantile_name, value in quantiles(histogram).items():
            latencies[f"{phase}_{quantile_name}_us"] = value
    return latencies
