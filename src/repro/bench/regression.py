"""Benchmark-regression reports: a perf trajectory across PRs.

Each performance-focused PR commits a ``BENCH_<PR>.json`` at the repo
root recording the timings of a fixed probe set — the largest Figure 6
scalability configurations plus the Figure 8 stress points — optionally
against a ``before`` baseline captured on the previous revision.  Future
PRs compare against the committed files to catch regressions and to
document speedups.

Usage::

    # capture a baseline on the old revision
    python -m repro.bench.regression --out /tmp/before.json

    # on the new revision, produce the committed report
    python -m repro.bench.regression --baseline /tmp/before.json \\
        --out BENCH_PR1.json

    # CI smoke (tiny scale, just validates the machinery)
    python -m repro.bench.regression --scale 0.01 --out /tmp/smoke.json

The probe sizes are fixed (``--scale`` multiplies them), so reports are
comparable run-to-run on the same machine.  Every report also records
``harness_revision`` (see :data:`repro.bench.harness.HARNESS_REVISION`)
so a baseline captured by an older harness — different timed regions —
is flagged instead of silently compared.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from pathlib import Path
from typing import Optional, Sequence

from ..workloads import (big_cluster_queries, chain_queries,
                         churn_rounds, dynamic_db_rounds,
                         migration_heavy_rounds, multi_tenant_rounds,
                         non_unifying_queries, range_scan_queries,
                         three_way_triangles, two_way_pairs)
from .harness import (DEFAULT_BENCH_USERS, HARNESS_REVISION,
                      bench_database, bench_network, run_batch,
                      run_churn, run_dynamic, run_incremental,
                      run_range_scan, run_sharded, schedule_database)

#: Largest Figure 6 configuration (per series) at scale 1.
FIG6_SIZE = 12_000
#: Figure 8 linear-series size at scale 1.
FIG8_SIZE = 4_000
#: Figure 8 big-cluster size at scale 1.
CLUSTER_SIZE = 200
#: Arrival-churn probe: rounds are fixed (shape), block size scales.
CHURN_ROUNDS = 24
CHURN_PER_ROUND = 250
#: Shard-scaling probe: multi-tenant rounds (shape fixed, block scales)
#: driven through one engine and through 4 process-backed shards.
SHARD_ROUNDS = 12
SHARD_PER_ROUND = 250
SHARD_COUNT = 4
#: Migration-heavy probe: rendezvous-dominated rounds through 2
#: process-backed shards, paired against the unbatched (one exchange
#: per co-location decision) transport.
MIGRATION_ROUNDS = 10
MIGRATION_PER_ROUND = 200
MIGRATION_SHARDS = 2
#: Dynamic-DB probe: live-mutation rounds (shape fixed, block scales)
#: paired against the full-recompute (invalidate-everything) baseline.
DYNAMIC_ROUNDS = 18
DYNAMIC_PER_ROUND = 250
#: WAL-overhead probe: the same live-mutation rounds with and without
#: the durability journal (fsync batched every SYNC_EVERY records,
#: snapshots on the size-based cadence — a new generation once the
#: log segment reaches SNAPSHOT_LOG_BYTES, which bounds both replay
#: length and write amplification; a command-count cadence would
#: rewrite the multi-megabyte state every N ~2KB frames).  The
#: acceptance budget for the logged run is <= 15% wall-clock over the
#: plain run.
WAL_SYNC_EVERY = 8
WAL_SNAPSHOT_LOG_BYTES = 4 * 1024 * 1024
#: Paired interleaved repetitions of the wal_overhead probe's two
#: legs; each leg keeps its minimum wall-clock (see the probe's
#: docstring for why pairing beats repeating one leg at a time).
_WAL_PROBE_REPS = 5
#: Range-scan probe: direct-evaluation slot-window queries, ordered
#: indexes paired against the scan-and-filter baseline leg.  The query
#: count is modest because the baseline leg full-scans the schedule
#: table per sweep query — the whole point of the probe.
RANGE_SCAN_QUERIES = 16
_RANGE_PROBE_REPS = 3
#: Paired interleaved repetitions of the obs_overhead probe's
#: tracing-enabled / tracing-disabled legs (same pairing rationale as
#: ``_WAL_PROBE_REPS``, two extra reps because the churn legs are
#: short enough that per-rep scheduling noise rivals the measured
#: overhead).  The acceptance budget for the enabled legs is <= 5%
#: wall-clock over the disabled legs.
_OBS_PROBE_REPS = 7
#: Server-throughput probe: a two-way-pairs workload submitted over
#: the asyncio front door (unix socket, ``SERVER_CLIENTS`` concurrent
#: connections, real frames) paired against the same workload run
#: directly in process — the measured gap is the protocol tax of the
#: network-facing server.
SERVER_QUERIES = 1_500
SERVER_CLIENTS = 8

#: The fixed probe set, in execution order.  ``--list`` prints these
#: without building any workload, so CI and scripts can enumerate them.
PROBE_NAMES = (
    "fig6_two_way_generic",
    "fig6_two_way_specific",
    "fig6_three_way",
    "fig8_no_unification",
    "fig8_chains",
    "fig8_cluster_incremental_component",
    "fig8_cluster_batch",
    "churn_arrival_expiry",
    "shard_scaling",
    "migration_heavy",
    "dynamic_db",
    "wal_overhead",
    "range_scan",
    "obs_overhead",
    "server_throughput",
)

#: The fig6 series the acceptance gate tracks (largest configuration).
HEADLINE_SERIES = "fig6_two_way_generic"

SCHEMA_VERSION = 1


def _sized(base: int, scale: float, minimum: int = 4) -> int:
    return max(int(base * scale), minimum)


def collect_series(scale: float = 1.0) -> dict:
    """Run the regression probe set; returns name -> metrics dict."""
    network = bench_network(
        num_users=_sized(DEFAULT_BENCH_USERS, scale, minimum=50))
    database = bench_database(network)
    fig6 = _sized(FIG6_SIZE, scale)
    fig8 = _sized(FIG8_SIZE, scale)
    cluster = _sized(CLUSTER_SIZE, scale)

    probes = (
        ("fig6_two_way_generic", lambda: run_incremental(
            database, two_way_pairs(network, fig6, seed=FIG6_SIZE))),
        ("fig6_two_way_specific", lambda: run_incremental(
            database, two_way_pairs(network, fig6, specific=True,
                                    seed=FIG6_SIZE))),
        ("fig6_three_way", lambda: run_incremental(
            database, three_way_triangles(network, fig6, seed=FIG6_SIZE))),
        ("fig8_no_unification", lambda: run_incremental(
            database, non_unifying_queries(network, fig8, seed=FIG8_SIZE))),
        ("fig8_chains", lambda: run_incremental(
            database, chain_queries(network, fig8, seed=FIG8_SIZE))),
        ("fig8_cluster_incremental_component", lambda: run_incremental(
            database, big_cluster_queries(network, cluster,
                                          seed=CLUSTER_SIZE),
            incremental_strategy="component")),
        ("fig8_cluster_batch", lambda: run_batch(
            database, big_cluster_queries(network, cluster,
                                          seed=CLUSTER_SIZE))),
        ("churn_arrival_expiry", lambda: run_churn(
            database, churn_rounds(network, CHURN_ROUNDS,
                                   _sized(CHURN_PER_ROUND, scale),
                                   answerable_fraction=0.4,
                                   seed=CHURN_PER_ROUND),
            ttl_rounds=6)),
        ("shard_scaling", lambda: _shard_scaling_probe(network, database,
                                                       scale)),
        ("migration_heavy", lambda: _migration_heavy_probe(
            network, database, scale)),
        ("dynamic_db", lambda: _dynamic_db_probe(network, database,
                                                 scale)),
        ("wal_overhead", lambda: _wal_overhead_probe(network, database,
                                                     scale)),
        ("range_scan", lambda: _range_scan_probe(network, scale)),
        ("obs_overhead", lambda: _obs_overhead_probe(network, database,
                                                     scale)),
        ("server_throughput", lambda: _server_throughput_probe(
            network, database, scale)),
    )
    if tuple(name for name, _ in probes) != PROBE_NAMES:
        # A real error, not an assert: --list must never drift from
        # what collect_series runs (asserts vanish under python -O).
        raise RuntimeError(
            "regression probe set drifted from PROBE_NAMES")
    series: dict = {}
    for name, probe in probes:
        metrics = probe()
        series[name] = {
            "queries": metrics["queries"],
            "seconds": round(metrics["seconds"], 4),
            "throughput_qps": round(metrics["throughput_qps"], 2),
            "answered": metrics["answered"],
        }
        for extra in ("shards", "migrations", "migrated_queries",
                      "single_engine_seconds", "scaling_vs_single",
                      "wire_requests_per_round", "unbatched_seconds",
                      "unbatched_wire_requests_per_round",
                      "round_trip_reduction", "mutation_ops",
                      "full_recompute_seconds", "delta_speedup",
                      "match_seconds_targeted",
                      "match_seconds_full_recompute",
                      "plain_seconds", "wal_overhead_pct", "wal_bytes",
                      "wal_commands", "wal_snapshots",
                      "baseline_seconds", "range_speedup",
                      "range_probes", "range_rows", "range_pruned",
                      "empty_prunes",
                      "churn_enabled_seconds", "churn_disabled_seconds",
                      "churn_overhead_pct",
                      "dynamic_enabled_seconds",
                      "dynamic_disabled_seconds",
                      "dynamic_overhead_pct", "obs_overhead_pct",
                      "clients", "delivered_events",
                      "direct_seconds", "server_overhead_x",
                      "note"):
            if extra in metrics:
                series[name][extra] = metrics[extra]
        print(f"{name}: {series[name]}", flush=True)
    return series


def _shard_scaling_probe(network, database, scale: float) -> dict:
    """Multi-tenant rounds: 4 process-backed shards vs one engine.

    Reports the sharded run's timings plus the paired single-engine
    seconds and the scaling ratio.  The ratio only demonstrates
    speedup on a multi-core host — worker processes dodge the GIL, not
    the core count — so a single-core run records a note instead of a
    win (the equivalence suite still proves the answers identical).
    """
    rounds = multi_tenant_rounds(network, SHARD_ROUNDS,
                                 _sized(SHARD_PER_ROUND, scale),
                                 seed=SHARD_PER_ROUND)
    single = run_churn(database, rounds, ttl_rounds=6)
    metrics = run_sharded(database, rounds, SHARD_COUNT,
                          backend="process", ttl_rounds=6)
    if metrics["answered"] != single["answered"]:
        raise RuntimeError(
            f"shard_scaling probe diverged: sharded answered "
            f"{metrics['answered']} vs single {single['answered']}")
    metrics["single_engine_seconds"] = round(single["seconds"], 4)
    if metrics["seconds"] > 0:
        metrics["scaling_vs_single"] = round(
            single["seconds"] / metrics["seconds"], 2)
    if (os.cpu_count() or 1) < 2:
        metrics["note"] = (
            "single-core host: process shards cannot beat one engine "
            "here; scaling_vs_single is an overhead measurement")
    return metrics


def _migration_heavy_probe(network, database, scale: float) -> dict:
    """Rendezvous-dominated traffic through 2 process-backed shards,
    batched-manifest transport paired against the per-decision one.

    Both runs answer identically (checked); the report records the
    per-round protocol round-trip counter (``wire_requests_per_round``)
    for each transport and their ratio — the number the pipelined +
    batched protocol exists to shrink.  Paired interleaved-revision
    runs per ROADMAP conventions: same harness, same process, back to
    back.
    """
    rounds = migration_heavy_rounds(network, MIGRATION_ROUNDS,
                                    _sized(MIGRATION_PER_ROUND, scale),
                                    seed=MIGRATION_PER_ROUND)
    unbatched = run_sharded(database, rounds, MIGRATION_SHARDS,
                            backend="process", ttl_rounds=6,
                            migration_batching=False)
    metrics = run_sharded(database, rounds, MIGRATION_SHARDS,
                          backend="process", ttl_rounds=6)
    if metrics["answered"] != unbatched["answered"]:
        raise RuntimeError(
            f"migration_heavy probe diverged: batched answered "
            f"{metrics['answered']} vs unbatched "
            f"{unbatched['answered']}")
    metrics["unbatched_seconds"] = round(unbatched["seconds"], 4)
    metrics["unbatched_wire_requests_per_round"] = \
        unbatched["wire_requests_per_round"]
    if metrics["wire_requests_per_round"]:
        metrics["round_trip_reduction"] = round(
            unbatched["wire_requests_per_round"]
            / metrics["wire_requests_per_round"], 2)
    return metrics


def _dynamic_db_probe(network, database, scale: float) -> dict:
    """Live-mutation rounds, delta-driven targeted invalidation paired
    against the full-recompute (invalidate-everything) baseline.

    Both runs answer identically (checked); the report records the
    baseline's seconds and the ``delta_speedup`` ratio — the number
    the targeted dirty-marking exists to grow.  Paired back-to-back
    runs per ROADMAP conventions: same harness, same process, same
    private database copy recipe.
    """
    rounds = dynamic_db_rounds(network, DYNAMIC_ROUNDS,
                               _sized(DYNAMIC_PER_ROUND, scale),
                               seed=DYNAMIC_PER_ROUND)
    full = run_dynamic(database, rounds, ttl_rounds=10,
                       full_recompute=True)
    metrics = run_dynamic(database, rounds, ttl_rounds=10)
    if metrics["answered"] != full["answered"]:
        raise RuntimeError(
            f"dynamic_db probe diverged: targeted answered "
            f"{metrics['answered']} vs full recompute "
            f"{full['answered']}")
    metrics["full_recompute_seconds"] = round(full["seconds"], 4)
    if metrics["seconds"] > 0:
        metrics["delta_speedup"] = round(
            full["seconds"] / metrics["seconds"], 2)
    # The structural counter behind the wall-clock gap: a mutation
    # round re-matches only the components reading the mutated gate,
    # so matching seconds shrink while ingestion/expiry stay common.
    metrics["match_seconds_targeted"] = round(
        metrics["match_seconds"], 4)
    metrics["match_seconds_full_recompute"] = round(
        full["match_seconds"], 4)
    return metrics


def _wal_overhead_probe(network, database, scale: float) -> dict:
    """The ``dynamic_db`` rounds with and without the durability
    journal, paired back to back in one process.

    The logged leg runs under a fresh
    :class:`~repro.durability.DurableEngine` in a temporary WAL
    directory (fsync batched, size-triggered snapshots); the plain leg
    is the ordinary engine.  Both legs must answer/expire identically —
    journaling happens after execution and must never change outcomes
    — and the report records ``plain_seconds`` plus the headline
    ``wal_overhead_pct`` (acceptance budget: <= 15%).

    Like the other timed probes, the legs are noise-sensitive, so the
    pair is run interleaved ``_WAL_PROBE_REPS`` times and each leg
    keeps its best (minimum) wall-clock — paired interleaving means a
    background hiccup hits both legs alike instead of skewing the
    ratio one way.
    """
    import shutil
    import tempfile
    rounds = dynamic_db_rounds(network, DYNAMIC_ROUNDS,
                               _sized(DYNAMIC_PER_ROUND, scale),
                               seed=DYNAMIC_PER_ROUND)
    plain = None
    metrics = None
    for _ in range(_WAL_PROBE_REPS):
        plain_run = run_dynamic(database, rounds, ttl_rounds=10)
        wal_dir = tempfile.mkdtemp(prefix="repro-wal-probe-")
        try:
            wal_run = run_dynamic(database, rounds, ttl_rounds=10,
                                  wal_dir=wal_dir,
                                  snapshot_every=None,
                                  snapshot_log_bytes=WAL_SNAPSHOT_LOG_BYTES,
                                  sync_every=WAL_SYNC_EVERY)
        finally:
            shutil.rmtree(wal_dir, ignore_errors=True)
        for field in ("answered", "failed_stale", "pending"):
            if wal_run[field] != plain_run[field]:
                raise RuntimeError(
                    f"wal_overhead probe diverged: logged {field} "
                    f"{wal_run[field]} vs plain {plain_run[field]}")
        if plain is None or plain_run["seconds"] < plain["seconds"]:
            plain = plain_run
        if metrics is None or wal_run["seconds"] < metrics["seconds"]:
            metrics = wal_run
    metrics["plain_seconds"] = round(plain["seconds"], 4)
    if plain["seconds"] > 0:
        metrics["wal_overhead_pct"] = round(
            100.0 * (metrics["seconds"] - plain["seconds"])
            / plain["seconds"], 1)
    return metrics


def _range_scan_probe(network, scale: float) -> dict:
    """Direct-evaluation slot-window queries, ordered-index pushdown
    paired against the scan-and-filter baseline leg.

    No engine in the measured region (see :func:`repro.bench.harness.
    run_range_scan`): per-query coordination overhead is flat across
    the two legs and would dilute the index-vs-scan gap into noise.
    Both legs must produce identical answers — the per-query digests
    are compared on every repetition — and, like ``wal_overhead``, the
    pair is run interleaved ``_RANGE_PROBE_REPS`` times with each leg
    keeping its minimum wall-clock.  The report records
    ``baseline_seconds``, the headline ``range_speedup`` ratio
    (acceptance gate: >= 1.5), and the pushdown leg's ordered-index
    counter deltas.
    """
    database = schedule_database(network)
    queries = range_scan_queries(network,
                                 _sized(RANGE_SCAN_QUERIES, scale),
                                 seed=RANGE_SCAN_QUERIES)
    baseline = None
    metrics = None
    for _ in range(_RANGE_PROBE_REPS):
        baseline_run = run_range_scan(database, queries, pushdown=False)
        pushed_run = run_range_scan(database, queries, pushdown=True)
        if pushed_run["digests"] != baseline_run["digests"]:
            raise RuntimeError(
                "range_scan probe diverged: pushdown answers differ "
                "from the scan-and-filter baseline")
        if (baseline is None
                or baseline_run["seconds"] < baseline["seconds"]):
            baseline = baseline_run
        if metrics is None or pushed_run["seconds"] < metrics["seconds"]:
            metrics = pushed_run
    metrics = dict(metrics)
    # Hashes are process-local; they must never reach the report.
    del metrics["digests"]
    metrics["baseline_seconds"] = round(baseline["seconds"], 4)
    if metrics["seconds"] > 0:
        metrics["range_speedup"] = round(
            baseline["seconds"] / metrics["seconds"], 2)
    return metrics


def _obs_overhead_probe(network, database, scale: float) -> dict:
    """The ``churn`` and ``dynamic_db`` rounds with lifecycle tracing
    enabled and disabled, paired back to back in one process.

    The zero-cost-when-off claim, measured: the disabled legs carry
    only the per-site ``TRACER.enabled`` checks (noise level), and the
    enabled legs pay for real span capture into the ring buffer
    (acceptance budget: <= 5% wall-clock over the disabled legs, per
    scenario).  Both legs of each pair must answer/expire identically
    — tracing observes coordination, never steers it.  Like
    ``wal_overhead``, every (disabled, enabled) pair runs interleaved
    ``_OBS_PROBE_REPS`` times and each leg keeps its minimum
    wall-clock.  The carrier metrics are the disabled ``dynamic_db``
    leg's (ordinary operation); the paired figures ride as
    ``{churn,dynamic}_{enabled,disabled}_seconds`` /
    ``*_overhead_pct`` with the headline ``obs_overhead_pct`` being
    the worse scenario's overhead.
    """
    from ..obs import TRACER, set_tracing
    churn_blocks = churn_rounds(network, CHURN_ROUNDS,
                                _sized(CHURN_PER_ROUND, scale),
                                answerable_fraction=0.4,
                                seed=CHURN_PER_ROUND)
    dynamic = dynamic_db_rounds(network, DYNAMIC_ROUNDS,
                                _sized(DYNAMIC_PER_ROUND, scale),
                                seed=DYNAMIC_PER_ROUND)
    scenarios = (
        ("churn", lambda: run_churn(database, churn_blocks,
                                    ttl_rounds=6)),
        ("dynamic", lambda: run_dynamic(database, dynamic,
                                        ttl_rounds=10)),
    )
    legs: dict = {}
    try:
        for _ in range(_OBS_PROBE_REPS):
            for scenario, runner in scenarios:
                pair: dict = {}
                for mode in ("disabled", "enabled"):
                    set_tracing(mode == "enabled")
                    TRACER.clear()
                    try:
                        pair[mode] = runner()
                    finally:
                        set_tracing(False)
                for field in ("answered", "failed_stale", "pending"):
                    if pair["enabled"][field] != pair["disabled"][field]:
                        raise RuntimeError(
                            f"obs_overhead probe diverged: traced "
                            f"{scenario} {field} "
                            f"{pair['enabled'][field]} vs untraced "
                            f"{pair['disabled'][field]}")
                for mode in ("disabled", "enabled"):
                    key = f"{scenario}_{mode}"
                    best = legs.get(key)
                    if (best is None
                            or pair[mode]["seconds"] < best["seconds"]):
                        legs[key] = pair[mode]
    finally:
        set_tracing(False)
        TRACER.clear()
    metrics = dict(legs["dynamic_disabled"])
    overheads = []
    for scenario, _ in scenarios:
        enabled = legs[f"{scenario}_enabled"]["seconds"]
        disabled = legs[f"{scenario}_disabled"]["seconds"]
        metrics[f"{scenario}_enabled_seconds"] = round(enabled, 4)
        metrics[f"{scenario}_disabled_seconds"] = round(disabled, 4)
        overhead = (100.0 * (enabled - disabled) / disabled
                    if disabled > 0 else 0.0)
        metrics[f"{scenario}_overhead_pct"] = round(overhead, 1)
        overheads.append(overhead)
    metrics["obs_overhead_pct"] = round(max(overheads), 1)
    return metrics


def _server_throughput_probe(network, database, scale: float) -> dict:
    """A two-way-pairs workload served over the network front door,
    paired against the same workload run directly in process.

    The served leg is the loopback harness end to end: boot a
    :class:`~repro.server.server.CoordinationServer` on a unix socket,
    connect ``SERVER_CLIENTS`` concurrent clients (one tenant each),
    submit every query as real frames, run one coordination batch, and
    wait until every settled query's event has been *delivered* to the
    client that owns it — so the timed region includes framing, CRC,
    admission, the command queue, and event push, not just engine
    work.  Both legs must answer identically (checked), and every
    settled query's event must arrive (checked); the report records
    the direct leg's seconds and ``server_overhead_x``, the end-to-end
    slowdown factor the socket hop costs.
    """
    from ..dataio import to_payload
    from ..engine.engine import D3CEngine
    from ..server.loopback import partition_round_robin, run_loopback
    from .harness import frozen_dataset, stopwatch

    count = _sized(SERVER_QUERIES, scale)
    count -= count % 2  # two-way pairs come in twos
    # Specific pairs (each query names its intended partner) so the
    # single set-at-a-time round actually coordinates the bulk of the
    # workload — generic pairs collapse into giant unifiability
    # components that one batch round barely dents, which would make
    # the served throughput number mostly measure matcher give-up.
    queries = two_way_pairs(network, count, specific=True,
                            seed=SERVER_QUERIES)
    # Snapshot the wire payloads before the direct leg touches the
    # query objects, so the served leg replays an identical workload.
    wire = [to_payload(query) for query in queries]
    direct = run_batch(database, queries)
    engine = D3CEngine(database, mode="batch")
    partitions = partition_round_robin(wire, SERVER_CLIENTS)
    with frozen_dataset():
        with stopwatch() as elapsed:
            served = run_loopback(engine, partitions)
        seconds = elapsed()
    if served["answered"] != direct["answered"]:
        raise RuntimeError(
            f"server_throughput probe diverged: served answered "
            f"{served['answered']} vs direct {direct['answered']}")
    if served["delivered"] < served["answered"]:
        raise RuntimeError(
            f"server_throughput probe lost events: "
            f"{served['delivered']} delivered of "
            f"{served['answered']} answered")
    metrics = {
        "queries": len(queries),
        "seconds": seconds,
        "throughput_qps": len(queries) / seconds if seconds > 0 else 0.0,
        "answered": served["answered"],
        "clients": SERVER_CLIENTS,
        "delivered_events": served["delivered"],
        "direct_seconds": round(direct["seconds"], 4),
    }
    if direct["seconds"] > 0:
        metrics["server_overhead_x"] = round(
            seconds / direct["seconds"], 2)
    return metrics


def build_report(after: dict, before: Optional[dict] = None,
                 scale: float = 1.0) -> dict:
    """Assemble the report payload, computing per-series speedups."""
    merged: dict = {}
    for name, metrics in after.items():
        entry = dict(metrics)
        if before and name in before:
            entry["before_seconds"] = before[name]["seconds"]
            entry["before_answered"] = before[name].get("answered")
            if metrics["seconds"] > 0:
                entry["speedup"] = round(
                    before[name]["seconds"] / metrics["seconds"], 2)
        merged[name] = entry
    report = {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "python -m repro.bench.regression",
        "harness_revision": HARNESS_REVISION,
        "python": platform.python_version(),
        "scale": scale,
        "headline_series": HEADLINE_SERIES,
        "series": merged,
    }
    headline = merged.get(HEADLINE_SERIES, {})
    if "speedup" in headline:
        report["headline_speedup"] = headline["speedup"]
    return report


def validate_report(payload: dict) -> None:
    """Raise ValueError if *payload* is not a well-formed report."""
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValueError("missing or unknown schema_version")
    # Optional: reports before the field existed stay valid.
    revision = payload.get("harness_revision")
    if revision is not None and not isinstance(revision, int):
        raise ValueError("harness_revision must be an integer")
    series = payload.get("series")
    if not isinstance(series, dict) or not series:
        raise ValueError("report has no series")
    for name, entry in series.items():
        for field in ("queries", "seconds", "throughput_qps"):
            if field not in entry:
                raise ValueError(f"series {name!r} lacks {field!r}")


def _baseline_candidates() -> list:
    """Committed ``BENCH_*.json`` reports a --baseline could mean.

    Looks in the working directory and at the repo root (relative to
    this file) — the two places ROADMAP conventions put reports.
    """
    roots = {Path.cwd(), Path(__file__).resolve().parents[3]}
    return sorted({str(path) for root in roots
                   for path in root.glob("BENCH_*.json")})


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.regression",
        description="Produce a benchmark-regression report.")
    parser.add_argument("--out", default=None,
                        help="path of the JSON report to write")
    parser.add_argument("--baseline", default=None,
                        help="prior report to diff against (its 'series')")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="probe-size multiplier (default 1.0)")
    parser.add_argument("--list", action="store_true",
                        help="print the probe names (one per line) "
                             "without running anything, then exit")
    args = parser.parse_args(argv)

    if args.list:
        for name in PROBE_NAMES:
            print(name)
        return 0
    if not args.out:
        parser.error("--out is required unless --list is given")

    before = None
    if args.baseline:
        baseline_path = Path(args.baseline)
        if not baseline_path.is_file():
            import sys
            print(f"error: --baseline {args.baseline!r} does not "
                  f"exist", file=sys.stderr)
            candidates = _baseline_candidates()
            if candidates:
                print("committed reports that do exist:",
                      file=sys.stderr)
                for candidate in candidates:
                    print(f"  {candidate}", file=sys.stderr)
            return 2
        with open(args.baseline) as fh:
            payload = json.load(fh)
        before = payload.get("series", payload)
        baseline_revision = payload.get("harness_revision")
        if (baseline_revision is not None
                and baseline_revision != HARNESS_REVISION):
            print(f"warning: baseline harness_revision "
                  f"{baseline_revision} != current {HARNESS_REVISION}; "
                  f"speedup columns compare different timed regions")

    after = collect_series(scale=args.scale)
    report = build_report(after, before=before, scale=args.scale)
    validate_report(report)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
