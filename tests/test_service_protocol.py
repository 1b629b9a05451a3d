"""Conformance of every service shape to the one
:class:`~repro.service.CoordinationService` protocol.

The engine, the sharded fleet (both backends) and the durable wrapper
around either must each be an instance of the ``runtime_checkable``
protocol and answer **every** member, with the same meaning, on the
same two-query history — the test that catches a shape lacking a method
another layer assumes (the server's ``stats`` op once did).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.dataio import load_database, record_from_payload
from repro.db import Database
from repro.durability import DurableCoordinator, DurableEngine
from repro.engine.engine import D3CEngine
from repro.engine.futures import TicketState
from repro.engine.staleness import ManualClock
from repro.engine.stats import EngineStats
from repro.errors import ValidationError
from repro.lang import parse_ir
from repro.service import CoordinationService
from repro.shard import ShardedCoordinator
from repro.workloads import build_intro_database

SHAPES = ["engine", "fleet-inprocess", "fleet-process",
          "durable-engine", "durable-fleet"]

#: Every key a ``snapshot_state()`` payload carries, on every shape.
STATE_KEYS = {"database", "db_version", "next_seq", "pending",
              "tombstones", "used_ids", "counters"}


def _build(shape: str, database, wal_dir):
    """A fresh batch-mode service of *shape* over *database*."""
    if shape == "engine":
        return D3CEngine(database, mode="batch")
    if shape.startswith("fleet-"):
        return ShardedCoordinator(database, num_shards=2, mode="batch",
                                  backend=shape.removeprefix("fleet-"))
    cls = DurableEngine if shape == "durable-engine" \
        else DurableCoordinator
    return cls(wal_dir, database, mode="batch", sync_every=None,
               clock=ManualClock())


def _query(text: str, query_id: str):
    return parse_ir(text, query_id)


def _pair():
    return [
        _query("{Reservation(Jerry, x)} Reservation(Kramer, x) "
               "<- Flights(x, Paris)", "kramer"),
        _query("{Reservation(Kramer, y)} Reservation(Jerry, y) "
               "<- Flights(y, Paris), Airlines(y, United)", "jerry"),
    ]


def _loner():
    return _query("{Reservation(Nobody, z)} Reservation(Elaine, z) "
                  "<- Flights(z, Rome)", "elaine")


@pytest.mark.parametrize("shape", SHAPES)
def test_every_shape_answers_every_protocol_member(shape, tmp_path):
    service = _build(shape, build_intro_database(), tmp_path / "wal")
    try:
        assert isinstance(service, CoordinationService)
        assert isinstance(service.database, Database)
        assert service.next_arrival_seq == 0

        # -- submission: the three spellings, one arrival order -------
        kramer, jerry = _pair()
        settled = []
        first = service.submit(kramer, callback=settled.append)
        assert first.state is TicketState.PENDING
        assert service.next_arrival_seq == 1
        (second,) = service.submit_all([jerry])
        (third,) = service.submit_many([_loner()])
        assert service.next_arrival_seq == 3
        assert service.pending_count == 3
        assert service.pending_ids() == ["kramer", "jerry", "elaine"]
        assert service.partition_sizes() == [2, 1]
        with pytest.raises(ValidationError, match="already used"):
            service.submit(_pair()[0])

        # -- rounds and expiry ----------------------------------------
        assert service.run_batch() == 2
        assert settled == [first]
        assert first.state is second.state is TicketState.ANSWERED
        assert first.answer.rows["Reservation"] == \
            [("Kramer", second.answer.rows["Reservation"][0][1])]
        assert third.state is TicketState.PENDING
        assert service.expire_stale() == 0
        assert service.pending_ids() == ["elaine"]

        # -- mutations: whole batch validated, then applied -----------
        version = service.database.db_version
        assert service.insert("Flights", [(300, "Oslo")]) == 1
        assert service.delete_rows("Flights", [(300, "Oslo")]) == 1
        assert service.apply_mutations([
            ("insert", "Flights", [(301, "Oslo"), (302, "Oslo")]),
            ("delete", "Flights", [(301, "Oslo")]),
        ]) == [2, 1]
        with pytest.raises(ValidationError, match="unknown mutation"):
            service.apply_mutations([
                ("insert", "Flights", [(303, "Oslo")]),
                ("upsert", "Flights", [(304, "Oslo")])])
        assert service.database.db_version == version + 4
        rows = set(service.database.table("Flights").rows())
        assert (302, "Oslo") in rows and (303, "Oslo") not in rows
        service.invalidate_cache()
        assert service.run_batch() == 0

        # -- the one stats surface ------------------------------------
        metrics = service.metrics_snapshot()
        assert metrics["counters"]["submitted"] == 3
        assert metrics["counters"]["answered"] == 2
        assert metrics["gauges"]["pending"] == 1
        stats = service.stats
        assert isinstance(stats, EngineStats)
        assert (stats.submitted, stats.answered, stats.pending) \
            == (3, 2, 1)
        assert stats.snapshot().keys() == EngineStats().snapshot().keys()

        # -- durable state out, and back into a fresh twin ------------
        state = service.snapshot_state(dump_cache={})
        assert STATE_KEYS <= state.keys()
        assert state["next_seq"] == 3
        assert state["db_version"] == service.database.db_version
        assert [record["query"]["id"] for record in state["pending"]] \
            == ["elaine"]
        burned = dict.fromkeys(state["used_ids"])
        burned.update(state["tombstones"])
        assert {"kramer", "jerry"} <= burned.keys()

        replica = load_database(state["database"])
        replica.reset_db_version(state["db_version"])
        twin = _build(shape, replica, tmp_path / "wal-twin")
        try:
            counters = state["counters"]
            tickets = twin.restore_state(
                next_seq=state["next_seq"], used_ids=burned,
                records=[record_from_payload(record)
                         for record in state["pending"]],
                submitted=counters["submitted"],
                answered=counters["answered"], failed=Counter())
            assert list(tickets) == ["elaine"]
            assert twin.pending_ids() == ["elaine"]
            assert twin.next_arrival_seq == 3
            assert twin.stats.answered == 2
            for query in _pair():
                with pytest.raises(ValidationError,
                                   match="already used"):
                    twin.submit(query)
        finally:
            twin.close()
    finally:
        service.close()
        service.close()    # idempotent on every shape
