"""Fault injection for live-mutation replication.

The invariants under attack:

* a worker killed mid-``db_delta`` loses nothing — its pending
  components are re-homed onto a shard that acked the block, and the
  service keeps answering exactly like a single engine;
* a replica that acks the wrong version for a replication block, or
  refuses it for a gap, is refused loudly
  (:class:`repro.shard.ShardReplicationError`) and re-homed like a
  dead one, never left serving stale data;
* the worker-side version guard makes replays idempotent and gaps
  impossible: an already-applied block is acked without reapplying, a
  block from the future raises before touching the replica.
"""

from __future__ import annotations

import pytest

from repro.core.query import EntangledQuery
from repro.core.terms import Variable, atom
from repro.dataio import db_delta_to_payload, dump_database
from repro.db import Database, TableDelta
from repro.engine.engine import D3CEngine
from repro.shard import (ShardCall, ShardReplicationError,
                         ShardWorkerError, ShardedCoordinator)
from repro.shard.process import ProcessBackend

from servicekit import ScriptedRouter, audit_exactly_once


def gate_db() -> Database:
    db = Database()
    db.create_table("G", "a text", "b text")
    db.create_table("H", "a text", "b text")
    db.create_table("U", "a text", "b text")
    db.insert("U", [("u1", "t"), ("u2", "t"), ("u3", "t"),
                    ("u4", "t")])
    return db


def gated_pair(tag: str, left: str, right: str,
               gate: str) -> list[EntangledQuery]:
    queries = []
    for query_id, user, partner in ((f"{tag}-a", left, right),
                                    (f"{tag}-b", right, left)):
        town = Variable("c")
        queries.append(EntangledQuery(
            query_id=query_id,
            head=(atom("R", user, tag),),
            postconditions=(atom("R", partner, tag),),
            body=(atom(gate, user, partner), atom("U", user, town),
                  atom("U", partner, town))))
    return queries


# ----------------------------------------------------------------------
# worker killed mid-db_delta
# ----------------------------------------------------------------------


def _two_shard_fleet(monkeypatch_kill=None):
    db = gate_db()
    router = ScriptedRouter(2, {"p1-a": 0, "p2-a": 1})
    coordinator = ShardedCoordinator(db, num_shards=2,
                                     backend="process", mode="batch",
                                     router=router)
    coordinator.submit_many(gated_pair("p1", "u1", "u2", "G")
                            + gated_pair("p2", "u3", "u4", "H"))
    assert coordinator.shard_of("p1-a") == 0
    assert coordinator.shard_of("p2-a") == 1
    assert coordinator.run_batch() == 0
    return db, coordinator


def _single_engine_outcome() -> tuple:
    db = gate_db()
    engine = D3CEngine(db, mode="batch")
    tickets = engine.submit_many(gated_pair("p1", "u1", "u2", "G")
                                 + gated_pair("p2", "u3", "u4", "H"))
    engine.run_batch()
    db.insert("G", [("u1", "u2"), ("u2", "u1")])
    db.insert("H", [("u3", "u4"), ("u4", "u3")])
    answered = engine.run_batch()
    rows = sorted((ticket.query_id, ticket.answer.rows)
                  for ticket in tickets
                  if ticket.answer is not None)
    return answered, rows


def test_worker_killed_mid_db_delta_rehomes_components(monkeypatch):
    db, coordinator = _two_shard_fleet()
    with coordinator:
        victim = coordinator._backends[1]
        real_call = victim.call_db_delta

        def kill_then_send(payload):
            victim._process.kill()
            victim._process.join(5)
            return real_call(payload)

        monkeypatch.setattr(victim, "call_db_delta", kill_then_send)
        coordinator.apply_mutations([
            ("insert", "G", [("u1", "u2"), ("u2", "u1")]),
            ("insert", "H", [("u3", "u4"), ("u4", "u3")]),
        ])

        # The dead shard left the fleet; its component was re-homed
        # onto the survivor.
        assert coordinator.dead_shards() == {1}
        assert coordinator.shard_of("p2-a") == 0
        assert sorted(coordinator._backends[0].call_pending().result()) \
            == ["p1-a", "p1-b", "p2-a", "p2-b"]
        audit_exactly_once(coordinator)

        # The re-homed components coordinate against the mutated data
        # exactly as a single engine would have.
        answered = coordinator.run_batch()
        expected_answered, _ = _single_engine_outcome()
        assert answered == expected_answered == 4
        assert coordinator.pending_count == 0

        # New arrivals route only to live shards.
        coordinator.submit_many(gated_pair("p3", "u1", "u3", "G"))
        assert coordinator.shard_of("p3-a") == 0
        audit_exactly_once(coordinator)


def test_lagging_and_dead_workers_in_one_flush(monkeypatch):
    """A shard refusing the block for a gap (a swallowed earlier frame)
    and a shard dying in the SAME replication flush: both leave the
    fleet and both have their components re-homed — neither removal
    may abandon the other."""
    db = gate_db()
    router = ScriptedRouter(3, {"p1-a": 0, "p2-a": 1})
    coordinator = ShardedCoordinator(db, num_shards=3,
                                     backend="process", mode="batch",
                                     router=router)
    with coordinator:
        coordinator.submit_many(gated_pair("p1", "u1", "u2", "G")
                                + gated_pair("p2", "u3", "u4", "H"))
        assert coordinator.run_batch() == 0

        laggard = coordinator._backends[0]
        real_laggard_call = laggard.call_db_delta

        def gap_once(payload):
            monkeypatch.setattr(laggard, "call_db_delta",
                                real_laggard_call)
            return ShardCall.failed(ShardWorkerError(
                "shard 0: stale replica (simulated lost db_delta)"))

        victim = coordinator._backends[1]
        real_victim_call = victim.call_db_delta

        def kill_then_send(payload):
            victim._process.kill()
            victim._process.join(5)
            return real_victim_call(payload)

        monkeypatch.setattr(laggard, "call_db_delta", gap_once)
        monkeypatch.setattr(victim, "call_db_delta", kill_then_send)
        with pytest.raises(ShardReplicationError, match="refused"):
            coordinator.apply_mutations([
                ("insert", "G", [("u1", "u2"), ("u2", "u1")]),
                ("insert", "H", [("u3", "u4"), ("u4", "u3")]),
            ])

        # The casualty and the laggard both left the fleet; every
        # component landed on the one shard that acked the block...
        assert coordinator.dead_shards() == {0, 1}
        assert {coordinator.shard_of(query_id) for query_id
                in ("p1-a", "p1-b", "p2-a", "p2-b")} == {2}
        audit_exactly_once(coordinator)
        # ...and coordinates on the rows that block delivered.
        assert coordinator.run_batch() == 4


def test_all_workers_dead_is_a_named_loud_failure(monkeypatch):
    from repro.shard import ShardMigrationError
    db, coordinator = _two_shard_fleet()
    with coordinator:
        for victim in coordinator._backends:
            real_call = victim.call_db_delta

            def kill_then_send(payload, victim=victim,
                               real_call=real_call):
                victim._process.kill()
                victim._process.join(5)
                return real_call(payload)

            monkeypatch.setattr(victim, "call_db_delta",
                                kill_then_send)
        with pytest.raises((ShardMigrationError, ShardWorkerError)):
            coordinator.insert("G", [("u1", "u2")])


# ----------------------------------------------------------------------
# stale acks are refused
# ----------------------------------------------------------------------


def test_stale_ack_worker_is_refused_and_removed(monkeypatch):
    """A worker acking the wrong version, and one refusing the block
    for a gap in its replica: each is refused, removed and re-homed."""
    replies = {
        "wrong ack": lambda payload: ShardCall.completed(
            payload["version"] - 1),
        "gap": lambda payload: ShardCall.failed(ShardWorkerError(
            "shard 1: stale replica (simulated lost db_delta)")),
    }
    for reply in replies.values():
        db = gate_db()
        coordinator = ShardedCoordinator(db, num_shards=2,
                                         backend="inprocess",
                                         mode="batch")
        with coordinator:
            coordinator.submit_many(gated_pair("p1", "u1", "u2", "G"))
            monkeypatch.setattr(coordinator._backends[1],
                                "call_db_delta", reply)
            with pytest.raises(ShardReplicationError, match="refused"):
                coordinator.insert("G", [("u1", "u2"), ("u2", "u1")])
            # The refused shard left the fleet and its components (if
            # any) were re-homed onto the shard that acked, so the
            # service keeps answering correctly.
            assert coordinator.dead_shards() == {1}
            audit_exactly_once(coordinator)
            assert coordinator.run_batch() == 2
            assert coordinator.pending_count == 0


def test_lagging_worker_is_refused_and_rehomed(monkeypatch):
    """A worker that misses one replication frame (transport hiccup:
    the frame is swallowed before the send) is refused at that frame —
    never kept serving a lagging replica, even though its next frame
    would arrive — and its pending component is re-homed onto the
    shard that acked, where the fleet answers like a single engine."""
    db, coordinator = _two_shard_fleet()
    with coordinator:
        victim = coordinator._backends[0]
        real_call = victim.call_db_delta

        def swallow_once(payload):
            monkeypatch.setattr(victim, "call_db_delta", real_call)
            return ShardCall.failed(ShardWorkerError(
                "shard 0: stale replica (simulated lost db_delta)"))

        monkeypatch.setattr(victim, "call_db_delta", swallow_once)
        with pytest.raises(ShardReplicationError, match="refused"):
            coordinator.insert("G", [("u1", "u2"), ("u2", "u1")])
        assert coordinator.dead_shards() == {0}
        assert coordinator.shard_of("p1-a") == 1
        assert sorted(coordinator._backends[1].call_pending().result()) \
            == ["p1-a", "p1-b", "p2-a", "p2-b"]
        audit_exactly_once(coordinator)

        # The next frame goes to the survivor only, and both gated
        # pairs coordinate exactly like a single engine.
        coordinator.insert("H", [("u3", "u4"), ("u4", "u3")])
        expected_answered, _ = _single_engine_outcome()
        assert coordinator.run_batch() == expected_answered == 4
        assert coordinator.dead_shards() == {0}
        assert coordinator.pending_count == 0
        audit_exactly_once(coordinator)


# ----------------------------------------------------------------------
# worker-side version guard (protocol level)
# ----------------------------------------------------------------------


def _delta_block(primary: Database, mutate) -> dict:
    """Apply *mutate* to the primary, capturing one db_delta payload."""
    collected: list[TableDelta] = []
    primary.add_mutation_listener(collected.append)
    from_version = primary.db_version
    mutate(primary)
    return db_delta_to_payload(from_version, primary.db_version,
                               collected)


def test_worker_version_guard_idempotent_replay_and_gap():
    primary = gate_db()
    config = {
        "database_text": dump_database(primary),
        "db_version": primary.db_version,
        "staleness": ("never",),
        "engine": {"mode": "batch", "safety": "off"},
        "warm_indexes": [],
    }
    worker = ProcessBackend(0, config)
    try:
        base = primary.db_version
        block1 = _delta_block(primary, lambda db: db.insert(
            "G", [("u1", "u2"), ("u2", "u1")]))
        block2 = _delta_block(primary, lambda db: db.delete_rows(
            "G", [("u1", "u2")]))
        assert worker.call_db_delta(block1).result() == base + 1
        # Idempotent replay: already applied, acked without reapplying.
        assert worker.call_db_delta(block1).result() == base + 1
        # Gap: block2 skipped, a future block must be refused.
        future = _delta_block(primary, lambda db: db.insert(
            "H", [("u3", "u4")]))
        with pytest.raises(ShardWorkerError, match="stale replica"):
            worker.call_db_delta(future).result()
        # Replaying the log in order heals the gap.
        assert worker.call_db_delta(block2).result() == base + 2
        assert worker.call_db_delta(future).result() == base + 3
    finally:
        worker.close()


def test_unserializable_delta_keeps_buffer_and_version_consistent():
    """A delta carrying a non-wire value must not be silently dropped
    from replication: the buffer survives the serialization failure
    and every subsequent serving command re-raises."""
    from repro.errors import ValidationError
    db = gate_db()
    db.create_table("Anything", "v")  # bare column: `any` type
    with ShardedCoordinator(db, num_shards=2, backend="inprocess",
                            mode="batch") as coordinator:
        db.insert("Anything", [((1, 2),)])  # hashable, not wire-safe
        with pytest.raises(ValidationError):
            coordinator.run_batch()
        assert coordinator._pending_deltas  # buffer retained
        assert coordinator.db_version == db.db_version - 1
        with pytest.raises(ValidationError):
            coordinator.insert("G", [("u1", "u2")])


def test_apply_mutations_validates_batch_before_applying():
    from repro.errors import ValidationError
    db = gate_db()
    with ShardedCoordinator(db, num_shards=2, backend="inprocess",
                            mode="batch") as coordinator:
        version = db.db_version
        with pytest.raises(ValidationError, match="upsert"):
            coordinator.apply_mutations([
                ("insert", "G", [("u1", "u2")]),
                ("upsert", "G", [("u2", "u1")]),
            ])
        # Nothing applied, nothing buffered for replication.
        assert db.db_version == version
        assert len(list(db.table("G").rows())) == 0
        assert not coordinator._pending_deltas


def test_failed_group_cache_pruned_when_members_leave():
    """Settled/expired members must release their failed-group cache
    entries — a long-lived service cannot grow the failure cache for
    its whole lifetime."""
    from repro.engine.staleness import ManualClock, TimeoutStaleness
    db = gate_db()
    clock = ManualClock()
    engine = D3CEngine(db, mode="incremental",
                       staleness=TimeoutStaleness(1.5), clock=clock)
    engine.submit_many(gated_pair("p1", "u1", "u2", "G"))
    runtime = engine._runtime
    assert runtime._failed_groups and runtime._failed_by_member
    clock.advance(2.0)
    assert engine.expire_stale() == 2
    assert not runtime._failed_groups
    assert not runtime._failed_by_member
