"""Conformance of every service shape to the one
:class:`~repro.service.CoordinationService` protocol.

The engine, the sharded fleet (both backends) and the durable wrapper
around either must each be an instance of the ``runtime_checkable``
protocol and answer **every** member, with the same meaning, on the
same two-query history — the test that catches a shape lacking a method
another layer assumes (the server's former ``stats`` op once did).
"""

from __future__ import annotations

import asyncio
from collections import Counter
import shutil
from dataclasses import fields

import pytest

from repro.dataio import dump_database, load_database, \
    record_from_payload
from repro.db import Database
from repro.durability import DurableCoordinator, DurableEngine
from repro.durability.snapshots import SnapshotStore
from repro.engine.engine import D3CEngine, stamp_records
from repro.engine.futures import TicketState
from repro.engine.staleness import ManualClock
from repro.engine.stats import EngineStats
from repro.errors import SchemaError, ValidationError
from repro.lang import parse_ir
from repro.server import ServerClient, ServerCommandError
from repro.server.protocol import INVALID
from repro.service import CoordinationService
from repro.shard import ShardedCoordinator
from repro.workloads import (build_flight_database, build_intro_database,
                             generate_social_network, two_way_pairs)

from servicekit import (MEND, ScriptedRouter, build, poisoned_database,
                        poisoned_pair, run_model, single, spawn_server,
                        stop)

SHAPES = ["engine", "fleet-inprocess", "fleet-process",
          "durable-engine", "durable-fleet"]

#: Every key a ``snapshot_state()`` payload carries, on every shape;
#: burned ids have the one spelling, ``used_ids``.
STATE_KEYS = {"database", "db_version", "next_seq", "pending",
              "used_ids", "counters"}


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


def _ghost():
    """A query over a table the intro database lacks."""
    return _query("{} R(Ghost, z) <- NoSuchTable(z)", "ghost")


def _misread():
    """A query reading ``Flights`` (two columns) at arity one."""
    return _query("{} R(Ghost, z) <- Flights(z)", "ghost")


def _misordered(query_id="ghost"):
    """A query ordering ``Flights.dest`` (text) against a number."""
    return _query("{Reservation(Elaine, x)} Reservation(George, x) "
                  "<- Flights(x, d), d < 5", query_id)


#: Each query admission refuses, with the text its ``SchemaError``
#: names.
UNREADABLE = [(_ghost, "NoSuchTable"), (_misread, "arity"),
              (_misordered, "text against a number")]


@pytest.mark.parametrize("shape", SHAPES)
def test_every_shape_answers_every_protocol_member(shape, tmp_path):
    service = build(shape, build_intro_database(), tmp_path / "wal")
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
        assert {spec.name for spec in fields(EngineStats)} - {"failed"} \
            <= metrics["counters"].keys() | metrics["gauges"].keys()

        # -- durable state out, and back into a fresh twin ------------
        state = service.snapshot_state(dump_cache={})
        assert STATE_KEYS <= state.keys()
        assert "tombstones" not in state
        assert state["next_seq"] == 3
        assert state["db_version"] == service.database.db_version
        assert [record["query"]["id"] for record in state["pending"]] \
            == ["elaine"]
        # Every admitted id, pending ones included, on every shape.
        burned = state["used_ids"]
        assert burned == ["elaine", "jerry", "kramer"]

        replica = load_database(state["database"])
        replica.reset_db_version(state["db_version"])
        twin = build(shape, replica, tmp_path / "wal-twin")
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
            assert twin.metrics_snapshot()["counters"]["answered"] == 2
            for query in _pair():
                with pytest.raises(ValidationError,
                                   match="already used"):
                    twin.submit(query)
        finally:
            twin.close()
    finally:
        service.close()
        service.close()    # idempotent on every shape


# ----------------------------------------------------------------------
# the one admission path: refusal before admission, callbacks
# ----------------------------------------------------------------------


@pytest.mark.parametrize("shape", SHAPES + ["engine-incremental"])
def test_missing_table_is_refused_before_anything_is_admitted(shape):
    """The model machine submits queries over a missing table and at
    the wrong arity, alone and inside blocks; its own verdict requires
    the refusal, and lockstep that nothing was admitted."""
    options = {"num_shards": 2} if "fleet" in shape else {}
    reference = ("engine-incremental", {}) \
        if shape == "engine-incremental" else ("engine", {})
    run_model(single(shape, reference=reference, **options), seed=34)


@pytest.mark.parametrize("shape,mode", [
    *((shape, "batch") for shape in SHAPES),
    ("engine", "incremental"), ("durable-engine", "incremental")])
def test_unorderable_comparison_is_refused_before_anything_is_admitted(
        shape, mode, tmp_path):
    """``k`` orders a text column against a number, which raises
    whenever its component is evaluated: admitted, it would fail every
    round its partner ``j`` joins — and, in a batch, every round at
    all, unrelated pairs' included.  Every shape refuses it before
    anything of the block is admitted; ``j`` and an unrelated pair
    then submit and coordinate as if ``k`` had never been sent."""
    options = {"num_shards": 2} if "fleet" in shape else {}
    service = build(shape, build_intro_database(), tmp_path / "wal",
                    mode=mode, **options)
    try:
        partner = _query("{Reservation(George, y)} Reservation(Elaine, y) "
                         "<- Flights(y, Paris)", "j")
        with pytest.raises(SchemaError, match="text against a number"):
            service.submit_many([partner, _misordered("k")])
        assert service.pending_ids() == []
        assert service.next_arrival_seq == 0
        service.submit(partner)
        service.submit_many(_pair())
        service.run_batch()
        assert service.pending_ids() == ["j"]
        assert service.metrics_snapshot()["counters"]["answered"] == 2
    finally:
        service.close()


@pytest.mark.parametrize("shape", SHAPES)
def test_a_component_that_raises_does_not_stop_the_round(shape, tmp_path):
    """A round meets the poisoned pair's component first, and it
    raises.  The unrelated pair, on the same engine, still answers in
    that round; the round then raises the typed error, and the pair
    that raised keeps its mark: once its row is mended, the next round
    answers it."""
    options = {"router": ScriptedRouter(2, {"u-a": 0, "kramer": 0})} \
        if "fleet" in shape else {}
    service = build(shape, poisoned_database(), tmp_path / "wal",
                    **options)
    try:
        service.submit_many(poisoned_pair())
        tickets = service.submit_many(_pair())
        with pytest.raises(Exception, match="not supported"):
            service.run_batch()
        assert [ticket.state for ticket in tickets] \
            == [TicketState.ANSWERED] * 2
        assert service.pending_ids() == ["u-a", "u-b"]
        assert service.metrics_snapshot()["counters"]["answered"] == 2
        service.apply_mutations(MEND)
        assert service.run_batch() == 2
        assert service.pending_ids() == []
    finally:
        service.close()


def test_a_served_round_that_raises_still_answers_the_rest(tmp_path):
    """The same round through a served durable child: the client
    gets a typed ``INTERNAL`` reply, the unrelated pair's settlement
    events, and the poisoned pair stays pending."""
    data_path = tmp_path / "poisoned.data"
    data_path.write_text(dump_database(poisoned_database()))
    sock_path = tmp_path / "srv.sock"
    process = spawn_server(data_path, sock_path, tmp_path / "wal")

    async def scenario():
        client = await ServerClient.connect_unix(sock_path)
        try:
            await client.submit(poisoned_pair(), timeout=30)
            tickets = await client.submit(_pair(), timeout=30)
            with pytest.raises(ServerCommandError) as caught:
                await client.run_batch(timeout=30)
            await client.ping(timeout=30)
            return (caught.value.code,
                    [ticket.settled for ticket in tickets],
                    await client.pending(timeout=30))
        finally:
            await client.close()
    try:
        code, done, pending = asyncio.run(scenario())
    finally:
        stop(process)
    assert (code, done, pending) == ("INTERNAL", [True, True],
                                     ["u-a", "u-b"])


@pytest.mark.parametrize("cls", [DurableEngine, DurableCoordinator])
def test_a_submit_adopted_before_it_raised_is_journalled(cls, tmp_path):
    """An incremental block adopts the poisoned pair and the pair; the
    poisoned pair's drain raises, the pair's still runs and answers.
    The wrapper journals the submit all the same, with the pair's
    settlements, and re-raises: after one more mutation, the directory copied as a kill
    -9 leaves it (no ``close()``) recovers to the live state — the
    poisoned pair pending, two answered, ``kramer`` refused."""
    options = dict(mode="incremental", clock=ManualClock(),
                   sync_every=None)
    if cls is DurableCoordinator:
        options.update(num_shards=2, router=ScriptedRouter(
            2, {"kramer": 0, "u-a": 0}))
    live = cls(tmp_path / "wal", poisoned_database(), **options)
    try:
        with pytest.raises(Exception, match="not supported"):
            live.submit_many(poisoned_pair() + _pair())
        live.apply_mutations([("insert", "W", [("w2", "more")])])
        shutil.copytree(live.wal_dir, tmp_path / "crash")
        recovered = cls.recover(tmp_path / "crash", **options)
        try:
            assert recovered.snapshot_state() == live.snapshot_state()
            assert recovered.pending_ids() == ["u-a", "u-b"]
            assert recovered.metrics_snapshot()["counters"][
                "answered"] == 2
            with pytest.raises(ValidationError, match="already used"):
                recovered.submit(_pair()[0])
        finally:
            recovered.close()
    finally:
        live.close()


def test_served_child_refuses_a_missing_table_unjournalled(tmp_path):
    data_path = tmp_path / "intro.data"
    data_path.write_text(dump_database(build_intro_database()))
    sock_path = tmp_path / "srv.sock"
    process = spawn_server(data_path, sock_path, tmp_path / "wal")

    async def scenario():
        client = await ServerClient.connect_unix(sock_path)
        try:
            codes = set()
            for unreadable, _ in UNREADABLE:
                with pytest.raises(ServerCommandError) as caught:
                    await client.submit([unreadable()], timeout=30)
                codes.add(caught.value.code)
            (code,) = codes
            pending = await client.pending(timeout=30)
            await client.submit(_pair(), timeout=30)
            answered = await client.run_batch(timeout=30)
            return code, pending, answered
        finally:
            await client.close()
    try:
        code, pending, answered = asyncio.run(scenario())
    finally:
        stop(process)
    assert (code, pending, answered) == (INVALID, [], 2)
    recovered = DurableEngine.recover(tmp_path / "wal", mode="batch",
                                      clock=ManualClock(),
                                      sync_every=None)
    try:
        # Only the pair's submit and the round reached the journal.
        assert recovered.commands_applied == 2
        assert recovered.next_arrival_seq == 2
        assert "ghost" not in recovered.answers
    finally:
        recovered.close()


@pytest.mark.parametrize("shape", ["engine-incremental",
                                   "fleet-inprocess"])
def test_submit_callback_fires_once_on_a_ticket_settled_in_the_call(
        shape):
    database = build_intro_database()
    service = D3CEngine(database, mode="incremental") \
        if shape == "engine-incremental" \
        else ShardedCoordinator(database, num_shards=2,
                                mode="incremental")
    try:
        fired = []
        kramer, jerry = _pair()
        first = service.submit(kramer, callback=fired.append)
        assert first.state is TicketState.PENDING
        second = service.submit(jerry, callback=fired.append)
        # The pair coordinated inside the second call: the callback
        # added after settlement fires at once, and only once.
        assert second.state is TicketState.ANSWERED
        assert sorted(ticket.query_id for ticket in fired) \
            == ["jerry", "kramer"]
    finally:
        service.close()


@pytest.mark.parametrize("safety", ["off", "reject"])
def test_submit_and_import_adopt_through_one_body(safety):
    """One body makes a query pending: the same records submitted
    (``submit_many``) or imported (``import_pending``) leave the same
    engine after a round — pending set, burned ids, arrival counter,
    partitions and outcomes, the safety screen's included."""
    network = generate_social_network(num_users=80, seed=4)
    database = build_flight_database(network)
    # Every fifth arrival dropped: some pairs answer, some wait.
    queries = [query for position, query in
               enumerate(two_way_pairs(network, 40, seed=4))
               if position % 5]
    clock = ManualClock(3.0)
    submitted, imported = (
        D3CEngine(database, mode="batch", safety=safety, clock=clock)
        for _ in range(2))
    records = stamp_records(queries, 0, clock.now())
    by_submit = submitted.submit_many(queries)
    by_import = imported.import_pending(records)
    assert submitted.run_batch() == imported.run_batch() > 0

    def state(engine):
        snapshot = engine.snapshot_state()
        # An import adopts; it is not a submission.
        del snapshot["counters"]["submitted"]
        return snapshot
    assert state(submitted) == state(imported)
    assert submitted.pending_ids() == imported.pending_ids() != []
    assert submitted.partition_sizes() == imported.partition_sizes()
    assert [(ticket.query_id, ticket.state) for ticket in by_submit] \
        == [(ticket.query_id, ticket.state)
            for ticket in by_import.values()]


# ----------------------------------------------------------------------
# the legacy burned-id spelling is still read
# ----------------------------------------------------------------------


@pytest.mark.parametrize("cls", [DurableEngine, DurableCoordinator])
def test_legacy_tombstones_snapshot_recovers_with_every_id_refused(
        cls, tmp_path):
    """A generation-0 snapshot in the engine's former layout —
    ``tombstones`` [id, seq] pairs beside an empty ``used_ids`` —
    recovers under both durable shapes, its ids all still burned."""
    database = build_intro_database()
    SnapshotStore(tmp_path / "wal").write_snapshot(0, 2, {
        "database": dump_database(database),
        "db_version": database.db_version,
        "next_seq": 3,
        "pending": [],
        "tombstones": [["elaine", 2], ["jerry", 1], ["kramer", 0]],
        "used_ids": [],
        "counters": {"submitted": 3, "answered": 2,
                     "failed": {"unsafe": 1}},
        "answers": [], "failures": [],
    })
    recovered = cls.recover(tmp_path / "wal", mode="batch",
                            clock=ManualClock(), sync_every=None)
    try:
        assert recovered.next_arrival_seq == 3
        assert recovered.snapshot_state()["used_ids"] \
            == ["elaine", "jerry", "kramer"]
        for query in [*_pair(), _loner()]:
            with pytest.raises(ValidationError, match="already used"):
                recovered.submit(query)
    finally:
        recovered.close()
