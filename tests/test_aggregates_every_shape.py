"""The paper's §6 aggregates give one outcome on every service shape.

Jerry attends a Friday party only if more than *n* of his friends
attend the same one (``tests/servicekit.py::jerry_aggregate_query``);
each friend attends whichever party Jerry attends.  ``coordinate()`` is
the set-at-a-time reference: every shape — engine in batch mode and
with the incremental component strategy, in-process and process
fleets, the durable wrapper around an engine and around a fleet, and a
served child — must answer exactly the queries it answers, with the
same rows, and leave the rest pending.  Around that: the local
strategy never answers in violation of an aggregate, aggregates are
not monotone (a delete-only delta can make one hold, an insert into a
table only the aggregate reads too), the component strategy settles
the party on the last friend's arrival, an aggregate query survives a
snapshot and a journal replay with its constraint intact, and a served
child refuses a malformed aggregate before journalling anything.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import replace

import pytest

from repro.core.evaluate import coordinate
from repro.core.extensions import AggregateConstraint
from repro.core.terms import atom
from repro.dataio import dump_database, from_payload, to_payload
from repro.db import Database
from repro.durability import DurableEngine
from repro.engine.engine import D3CEngine
from repro.engine.futures import TicketState
from repro.engine.staleness import ManualClock
from repro.lang import parse_ir
from repro.server import ServerClient, ServerCommandError
from repro.server.protocol import INVALID

from servicekit import (GROUPS, build, friend_query, jerry_aggregate_query,
                        run_model, single, spawn_server, stop)

FRIENDS = ("Elaine", "George", "Newman")

#: (threshold, friends present): the party forms, and it cannot.
CASES = {"forms": (2, FRIENDS), "short": (5, ("Elaine",))}


def _party_db() -> Database:
    db = Database()
    db.create_table("Parties", "pid text", "pdate text")
    db.create_table("Friend", "name1 text", "name2 text")
    db.insert("Parties", [("p1", "Friday"), ("p2", "Friday"),
                          ("p3", "Saturday")])
    db.insert("Friend", [("Jerry", name) for name in FRIENDS])
    return db


def _queries(db: Database, threshold: int, friends) -> list:
    return ([jerry_aggregate_query(db, threshold)]
            + [friend_query(db, name) for name in friends])


def _reference(threshold: int, friends) -> dict:
    """``coordinate()``'s answers — which are the party the paper
    describes (everyone at the first Friday party) exactly when more
    than *threshold* friends come, and nothing otherwise."""
    db = _party_db()
    result = coordinate(_queries(db, threshold, friends), db)
    answers = {query_id: answer.rows
               for query_id, answer in result.answers.items()}
    party = {"jerry": {"Attendance": [("p1", "Jerry")]}}
    party.update((f"f-{name}", {"Attendance": [("p1", name)]})
                 for name in friends)
    assert answers == (party if len(friends) > threshold else {})
    return answers


# ----------------------------------------------------------------------
# every shape, against coordinate()
# ----------------------------------------------------------------------


#: Each shape gets coordinate()'s outcome on §6 parties the model
#: machine draws (host ``U0``, some guests, a threshold of 0 or 1):
#: its invariants hold every aggregate answer to its constraint, and its
#: ground oracle a party's round to ``coordinate()``.
MODEL_SHAPES = {
    "engine-batch": single("engine", forget=True),
    "engine-component": GROUPS["component"],
    "fleet-inprocess": single("fleet", num_shards=2),
    "fleet-process": single("fleet-process", num_shards=2),
    "durable-engine": single("durable-engine"),
    "durable-fleet": single("durable-fleet", num_shards=2),
}


@pytest.mark.parametrize("shape", sorted(MODEL_SHAPES))
def test_every_in_process_shape_gives_coordinates_outcome(shape):
    run_model(MODEL_SHAPES[shape], seed=6)


def _serve(tmp_path, scenario):
    """Run *scenario(client)* against a served durable child; returns
    its result and the journal directory (the child is stopped)."""
    data_path = tmp_path / "party.data"
    data_path.write_text(dump_database(_party_db()))
    sock_path = tmp_path / "srv.sock"
    wal_dir = tmp_path / "wal"
    process = spawn_server(data_path, sock_path, wal_dir)

    async def run():
        client = await ServerClient.connect_unix(sock_path)
        try:
            return await scenario(client)
        finally:
            await client.close()
    try:
        return asyncio.run(run()), wal_dir
    finally:
        stop(process)


@pytest.mark.parametrize("case", sorted(CASES))
def test_served_child_gives_coordinates_outcome(case, tmp_path):
    threshold, friends = CASES[case]
    queries = _queries(_party_db(), threshold, friends)

    async def scenario(client):
        await client.submit(queries, timeout=30)
        await client.run_batch(timeout=30)
        return (await client.resolved(timeout=30),
                await client.pending(timeout=30))

    (resolved, pending), _ = _serve(tmp_path, scenario)
    answered = {query_id: from_payload(payload).rows
                for query_id, payload in resolved["answers"]}
    assert answered == _reference(threshold, friends)
    assert resolved["failures"] == []
    assert sorted(pending) == sorted(
        query.query_id for query in queries
        if query.query_id not in answered)


# ----------------------------------------------------------------------
# the runtime's three non-monotone rules
# ----------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(CASES))
def test_local_strategy_never_answers_against_an_aggregate(case):
    threshold, friends = CASES[case]
    db = _party_db()
    engine = D3CEngine(db, mode="incremental")
    tickets = {ticket.query_id: ticket for ticket in
               (engine.submit(query)
                for query in _queries(db, threshold, friends))}
    engine.run_batch()
    jerry = tickets["jerry"]
    if jerry.state is TicketState.ANSWERED:
        ((party, _),) = jerry.answer.rows["Attendance"]
        attending = [ticket for query_id, ticket in tickets.items()
                     if query_id != "jerry"
                     and ticket.state is TicketState.ANSWERED
                     and ticket.answer.rows["Attendance"][0][0] == party]
        assert len(attending) > threshold
    assert threshold < len(friends) or jerry.state is TicketState.PENDING


def test_component_strategy_settles_on_the_last_friends_arrival():
    db = _party_db()
    engine = D3CEngine(db, mode="incremental",
                       incremental_strategy="component")
    queries = _queries(db, 2, FRIENDS)
    tickets = []
    for query in queries:
        tickets.append(engine.submit(query))
        if len(tickets) < len(queries):
            assert engine.pending_count == len(tickets)
    assert engine.pending_count == 0
    assert {ticket.query_id: ticket.answer.rows for ticket in tickets} \
        == _reference(2, FRIENDS)


def _unbusy_jerry(db: Database):
    """Jerry attends a Friday party only while fewer than one Busy row
    names him: an aggregate over a table his body never reads."""
    query = parse_ir("{} Attendance(p, Jerry) <- Parties(p, Friday)",
                     "jerry")
    return replace(query, aggregates=(AggregateConstraint(
        atoms=(atom("Busy", "Jerry"),), answer_relations=frozenset(),
        op="<", threshold=1),))


@pytest.mark.parametrize("shape", ["engine-batch", "engine-component",
                                   "fleet-inprocess"])
def test_delete_only_delta_lets_a_less_than_aggregate_answer(shape,
                                                             tmp_path):
    db = _party_db()
    db.create_table("Busy", "name text")
    db.insert("Busy", [("Jerry",)])
    service = build(shape, db)
    try:
        (ticket,) = service.submit_many([_unbusy_jerry(db)])
        assert service.run_batch() == 0
        assert ticket.state is TicketState.PENDING
        service.delete_rows("Busy", [("Jerry",)])
        assert service.run_batch() == 1
        assert ticket.answer.rows == {"Attendance": [("p1", "Jerry")]}
    finally:
        service.close()


@pytest.mark.parametrize("shape", ["engine-batch", "fleet-inprocess"])
def test_insert_into_a_table_only_the_aggregate_reads_requeues(
        shape, tmp_path):
    db = _party_db()
    db.delete_rows("Friend", [("Jerry", "Newman")])
    service = build(shape, db)
    try:
        tickets = service.submit_many(_queries(db, 2, FRIENDS))
        assert service.run_batch() == 0
        service.insert("Friend", [("Jerry", "Newman")])
        assert service.run_batch() == 4
        assert {ticket.query_id: ticket.answer.rows
                for ticket in tickets} == _reference(2, FRIENDS)
    finally:
        service.close()


# ----------------------------------------------------------------------
# durability and the wire
# ----------------------------------------------------------------------


def test_aggregate_query_survives_snapshot_and_replay(tmp_path):
    db = _party_db()
    queries = _queries(db, 2, FRIENDS)
    wal_dir = tmp_path / "wal"
    service = DurableEngine(wal_dir, db, mode="batch",
                            clock=ManualClock(), sync_every=None)
    service.submit_many(queries[:2])
    assert service.run_batch() == 0
    service.snapshot()                  # jerry rides in the snapshot
    service.submit(queries[2])          # george in the journal
    assert service.run_batch() == 0
    service.close()

    recovered = DurableEngine.recover(wal_dir, mode="batch",
                                      clock=ManualClock(),
                                      sync_every=None)
    try:
        assert recovered.pending_ids() == [query.query_id
                                           for query in queries[:3]]
        restored = recovered.service._pending["jerry"][0].query
        assert restored.aggregates == queries[0].rename_apart().aggregates
        tickets = recovered.restored_tickets
        tickets["f-Newman"] = recovered.submit(queries[3])
        assert recovered.run_batch() == 4
        assert {query_id: ticket.answer.rows
                for query_id, ticket in tickets.items()} \
            == _reference(2, FRIENDS)
    finally:
        recovered.close()


def test_aggregate_payload_round_trips():
    query = jerry_aggregate_query(_party_db(), 5)
    payload = json.loads(json.dumps(to_payload(query)))
    assert payload["agg"] == [[
        [["Attendance", [["v", "party_id"], ["v", "_2_A_name"]]],
         ["Friend", [["c", "Jerry"], ["v", "_2_A_name"]]]],
        ["Attendance"], ">", 5]]
    assert from_payload(payload) == query


#: One malformed ``agg`` entry per refusal the frame edge owes.
HOSTILE_AGGREGATES = {
    "op": [[["Attendance", [["v", "p"], ["v", "n"]]]],
           ["Attendance"], "~", 1],
    "threshold-text": [[["Attendance", [["v", "p"], ["v", "n"]]]],
                       ["Attendance"], ">", "1"],
    "threshold-bool": [[["Attendance", [["v", "p"], ["v", "n"]]]],
                       ["Attendance"], ">", True],
    "relations": [[["Attendance", [["v", "p"], ["v", "n"]]]],
                  [7], ">", 1],
    "atom-arity": [[["Attendance"]], ["Attendance"], ">", 1],
    "term-tag": [[["Attendance", [["x", "p"]]]], ["Attendance"], ">", 1],
    "term-value": [[["Attendance", [["c", {"a": 1}]]]],
                   ["Attendance"], ">", 1],
    "shape": [[], ["Attendance"], ">"],
}


def test_served_child_refuses_hostile_aggregates_unjournalled(tmp_path):
    good = to_payload(jerry_aggregate_query(_party_db(), 2))
    hostile = {name: dict(good, id=f"hostile-{name}", agg=[entry])
               for name, entry in HOSTILE_AGGREGATES.items()}

    async def scenario(client):
        codes = {}
        for name, payload in hostile.items():
            with pytest.raises(ServerCommandError) as caught:
                await client.submit([payload], timeout=30)
            codes[name] = caught.value.code
        pending_after_refusals = await client.pending(timeout=30)
        await client.submit([good], timeout=30)
        return codes, pending_after_refusals

    (codes, pending), wal_dir = _serve(tmp_path, scenario)
    # A typed refusal, not an internal error.
    assert codes == dict.fromkeys(HOSTILE_AGGREGATES, INVALID)
    assert pending == []
    recovered = DurableEngine.recover(wal_dir, mode="batch",
                                      clock=ManualClock(),
                                      sync_every=None)
    try:
        # Only the well-formed submit reached the journal.
        assert recovered.commands_applied == 1
        assert recovered.pending_ids() == ["jerry"]
    finally:
        recovered.close()
