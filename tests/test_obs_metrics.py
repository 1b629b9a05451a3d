"""The metrics registry and its fleet-merge contract
(:mod:`repro.obs.metrics`).

The properties proven here are what the coordinator's single
aggregation codepath leans on: :func:`repro.obs.merge_snapshots` is
associative and commutative with the empty snapshot as identity, no
key present in any input is dropped, and a snapshot that round-trips
through JSON merges identically to a live one.  The one-stats-surface
tests pin that every field of the engine's counter block
(:class:`~repro.engine.stats.EngineStats`) appears in
``metrics_snapshot`` under its own (dotted) name — a field added is
published with no other edit — for the bare engine, the sharded fleet
(work summed over shards) and the durable wrapper (``durability.*``
joined).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields

import pytest

from repro.core.evaluate import FailureReason
from repro.durability import DurableEngine
from repro.engine.engine import D3CEngine
from repro.engine.staleness import ManualClock
from repro.engine.stats import EngineStats
from repro.lang import parse_ir
from repro.obs import (MetricsRegistry, absorb_snapshot, empty_snapshot,
                       global_snapshot, merge_snapshots, quantiles,
                       reset_global_metrics)
from repro.obs.metrics import quantile
from repro.shard import ShardedCoordinator
from repro.workloads import (build_flight_database, build_intro_database,
                             generate_social_network, two_way_pairs)


def _intro_queries():
    return [
        parse_ir("{Reservation(Jerry, x)} Reservation(Kramer, x) "
                 "<- Flights(x, Paris)", "kramer"),
        parse_ir("{Reservation(Kramer, y)} Reservation(Jerry, y) "
                 "<- Flights(y, Paris), Airlines(y, United)", "jerry"),
    ]


def _random_registry(seed: int) -> MetricsRegistry:
    rng = random.Random(seed)
    registry = MetricsRegistry()
    for name in ("submitted", "answered", f"only_{seed}"):
        registry.inc(name, rng.randint(0, 50))
    registry.gauge("db_seconds", rng.random())
    for _ in range(rng.randint(1, 20)):
        registry.observe("latency", rng.randint(0, 5000))
    return registry


# ---------------------------------------------------------------------------
# Registry basics


def test_snapshot_shape_is_json_safe():
    registry = MetricsRegistry()
    registry.inc("submitted")
    registry.inc("submitted", 4)
    registry.gauge("pending", 3.0)
    registry.observe("latency", 100)
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"submitted": 5}
    assert snapshot["gauges"] == {"pending": 3.0}
    histogram = snapshot["histograms"]["latency"]
    assert histogram["count"] == 1
    assert histogram["sum"] == 100
    assert histogram["min"] == histogram["max"] == 100
    # 100.bit_length() == 7; bucket keys are strings for JSON safety.
    assert histogram["buckets"] == {"7": 1}
    assert json.loads(json.dumps(snapshot)) == snapshot


def test_histogram_quantiles_report_bucket_upper_bounds():
    registry = MetricsRegistry()
    for _ in range(99):
        registry.observe("latency", 5)
    registry.observe("latency", 1000)
    histogram = registry.snapshot()["histograms"]["latency"]
    # 5 lands in bucket 3 (upper bound 8); 1000 in bucket 10 (1024).
    assert quantile(histogram, 0.5) == 8.0
    assert quantile(histogram, 0.99) == 8.0
    assert quantile(histogram, 1.0) == 1024.0
    summary = quantiles(histogram)
    assert set(summary) == {"p50", "p95", "p99"}
    assert summary["p50"] == 8.0
    assert quantile({"count": 0, "buckets": {}}, 0.5) is None


# ---------------------------------------------------------------------------
# Merge semantics


def test_merge_of_nothing_is_the_empty_snapshot():
    assert merge_snapshots() == empty_snapshot()


def test_empty_snapshot_is_the_merge_identity():
    snapshot = _random_registry(7).snapshot()
    assert merge_snapshots(snapshot, empty_snapshot()) == snapshot
    assert merge_snapshots(empty_snapshot(), snapshot) == snapshot


def test_merge_partial_overlap_is_loss_free():
    left = MetricsRegistry()
    left.inc("shared", 3)
    left.inc("left_only", 1)
    left.gauge("seconds", 0.5)
    left.observe("latency", 4)
    right = MetricsRegistry()
    right.inc("shared", 5)
    right.inc("right_only", 2)
    right.observe("latency", 4)
    right.observe("latency", 1000)
    right.observe("sizes", 2)
    merged = merge_snapshots(left.snapshot(), right.snapshot())
    assert merged["counters"] == {"shared": 8, "left_only": 1,
                                  "right_only": 2}
    assert merged["gauges"] == {"seconds": 0.5}
    latency = merged["histograms"]["latency"]
    assert latency["count"] == 3
    assert latency["sum"] == 1008
    assert latency["min"] == 4 and latency["max"] == 1000
    assert latency["buckets"] == {"3": 2, "10": 1}
    assert merged["histograms"]["sizes"]["count"] == 1


def test_merge_is_associative_and_commutative_over_a_fleet_of_four():
    snapshots = [_random_registry(seed).snapshot()
                 for seed in (1, 2, 3, 4)]
    flat = merge_snapshots(*snapshots)
    paired = merge_snapshots(merge_snapshots(*snapshots[:2]),
                             merge_snapshots(*snapshots[2:]))
    reversed_order = merge_snapshots(*reversed(snapshots))
    assert paired == flat
    assert reversed_order == flat
    # Loss-free: every per-shard key survives aggregation.
    for snapshot in snapshots:
        assert set(snapshot["counters"]) <= set(flat["counters"])


def test_snapshot_merges_identically_after_a_json_round_trip():
    snapshots = [_random_registry(seed).snapshot() for seed in (5, 6)]
    thawed = [json.loads(json.dumps(snapshot))
              for snapshot in snapshots]
    assert merge_snapshots(*thawed) == merge_snapshots(*snapshots)


# ---------------------------------------------------------------------------
# One stats surface: metrics_snapshot publishes the engine's counter block


def _assert_publishes(metrics: dict, stats: EngineStats) -> None:
    """Every field of *stats* under its own name: ints as counters,
    floats as gauges, the failure tally as ``failed.<reason>``."""
    counters, gauges = metrics["counters"], metrics["gauges"]
    for spec in fields(stats):
        value = getattr(stats, spec.name)
        if spec.name == "failed":
            for reason, count in value.items():
                assert counters[f"failed.{reason.value}"] == count
        elif isinstance(value, float):
            assert gauges[spec.name] == pytest.approx(value), spec.name
        else:
            assert counters[spec.name] == value, spec.name
    assert gauges["pending"] == stats.pending


def test_engine_stats_round_trip_through_metrics_snapshot():
    engine = D3CEngine(build_intro_database(), mode="batch")
    engine.submit_many(_intro_queries())
    engine.run_batch()
    metrics = engine.metrics_snapshot()
    assert metrics["counters"]["answered"] == 2
    _assert_publishes(metrics, engine.stats)
    # The registry also carries the database-layer counters the engine
    # block never had.
    assert any(key.startswith("db.") for key in metrics["counters"])
    assert any(key.startswith("range_index.")
               for key in metrics["counters"])


def test_every_engine_stats_field_appears_in_metrics_snapshot():
    """A counter is declared once: a field added to the block is
    published by ``metrics_snapshot`` with no other edit."""
    @dataclass(slots=True)
    class Extended(EngineStats):
        probes_sent: int = 0
        probe_seconds: float = 0.0

    engine = D3CEngine(build_intro_database(), mode="batch")
    engine.submit_many(_intro_queries())
    engine.run_batch()
    engine.stats = Extended(**{spec.name: getattr(engine.stats, spec.name)
                               for spec in fields(EngineStats)},
                            probes_sent=3, probe_seconds=0.5)
    engine.stats.failed[FailureReason.STALE] += 1
    metrics = engine.metrics_snapshot()
    _assert_publishes(metrics, engine.stats)
    assert metrics["counters"]["probes_sent"] == 3
    assert metrics["gauges"]["probe_seconds"] == 0.5
    assert metrics["counters"]["failed.stale"] == 1


@pytest.mark.parametrize("backend", ["inprocess"])
def test_coordinator_fleet_merge_matches_stats(backend):
    network = generate_social_network(num_users=120, seed=11,
                                      planted_cliques={4: 4})
    database = build_flight_database(network)
    queries = two_way_pairs(network, 40, specific=True, seed=11)
    coordinator = ShardedCoordinator(database, num_shards=4,
                                     backend=backend, mode="batch")
    coordinator.submit_many(queries)
    coordinator.run_batch()
    metrics = coordinator.metrics_snapshot()
    counters, gauges = metrics["counters"], metrics["gauges"]
    # Lifecycle counters are the coordinator's; work counters and
    # phase seconds are summed over the shard engines.
    assert counters["submitted"] == len(queries)
    assert counters["answered"] == len(queries) - coordinator.pending_count
    shards = [backend.engine.stats for backend in coordinator._backends]
    for spec in fields(EngineStats):
        if spec.name in ("submitted", "answered", "failed"):
            continue
        total = sum(getattr(stats, spec.name) for stats in shards)
        if isinstance(total, float):
            assert gauges[spec.name] == pytest.approx(total), spec.name
        else:
            assert counters[spec.name] == total, spec.name
    assert counters["shard.migrations"] == coordinator.migrations
    assert counters["wire.requests"] >= 0
    assert gauges["pending"] == coordinator.pending_count


def test_durable_engine_metrics_include_durability_counters(tmp_path):
    engine = DurableEngine(tmp_path / "wal", build_intro_database(),
                           mode="batch", sync_every=1,
                           clock=ManualClock())
    try:
        bootstrap = engine.metrics_snapshot()["counters"][
            "durability.snapshots_taken"]
        engine.submit_many(_intro_queries())
        engine.run_batch()
        engine.snapshot()
        metrics = engine.metrics_snapshot()
        counters = metrics["counters"]
        assert counters["durability.snapshots_taken"] == bootstrap + 1
        assert counters["durability.wal_records"] > 0
        assert counters["durability.wal_bytes"] > 0
        assert counters["durability.wal_sync_batches"] > 0
        _assert_publishes(metrics, engine.service.stats)
    finally:
        engine.close()


def test_durability_totals_survive_log_rotation(tmp_path):
    """Snapshotting rotates the WAL segment; the reported counters are
    lifetime totals, not the fresh segment's."""
    engine = DurableEngine(tmp_path / "wal", build_intro_database(),
                           mode="batch", sync_every=1,
                           clock=ManualClock())

    def durability(key):
        return engine.metrics_snapshot()["counters"][f"durability.{key}"]
    try:
        bootstrap = durability("snapshots_taken")
        engine.submit_many(_intro_queries())
        before = durability("wal_records")
        assert before > 0
        engine.snapshot()
        assert durability("wal_records") >= before
        assert durability("snapshots_taken") == bootstrap + 1
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# Process-wide accumulation (bench harness / CLI --metrics-json)


def test_global_accumulator_absorbs_and_resets():
    reset_global_metrics()
    try:
        first = _random_registry(8).snapshot()
        second = _random_registry(9).snapshot()
        absorb_snapshot(first)
        absorb_snapshot(second)
        assert global_snapshot() == merge_snapshots(first, second)
        # global_snapshot returns a copy, not a live alias.
        snapshot = global_snapshot()
        snapshot["counters"]["submitted"] = -1
        assert global_snapshot() == merge_snapshots(first, second)
    finally:
        reset_global_metrics()
    assert global_snapshot() == empty_snapshot()
