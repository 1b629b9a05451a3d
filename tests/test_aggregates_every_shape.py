"""The paper's §6 aggregates give one outcome on every service shape.

Jerry attends a Friday party only if more than *n* of his friends
attend the same one (``tests/test_extensions.py::jerry_aggregate_query``);
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
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from repro.core.evaluate import coordinate
from repro.core.extensions import AggregateConstraint
from repro.core.terms import atom
from repro.dataio import dump_database, from_payload, to_payload
from repro.db import Database
from repro.durability import DurableCoordinator, DurableEngine
from repro.engine.engine import D3CEngine
from repro.engine.futures import TicketState
from repro.engine.staleness import ManualClock
from repro.lang import parse_ir
from repro.server import ServerClient, ServerCommandError
from repro.server.protocol import INVALID
from repro.shard import ShardedCoordinator

from test_extensions import friend_query, jerry_aggregate_query

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")

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


def _in_process_shapes(tmp_path):
    clock = dict(clock=ManualClock(), sync_every=None)
    return {
        "engine-batch": lambda db: D3CEngine(db, mode="batch"),
        "engine-component": lambda db: D3CEngine(
            db, mode="incremental", incremental_strategy="component"),
        "fleet-inprocess": lambda db: ShardedCoordinator(
            db, num_shards=2, mode="batch"),
        "fleet-process": lambda db: ShardedCoordinator(
            db, num_shards=2, backend="process", mode="batch"),
        "durable-engine": lambda db: DurableEngine(
            tmp_path / "wal", db, mode="batch", **clock),
        "durable-fleet": lambda db: DurableCoordinator(
            tmp_path / "wal", db, mode="batch", num_shards=2, **clock),
    }


SHAPES = ("engine-batch", "engine-component", "fleet-inprocess",
          "fleet-process", "durable-engine", "durable-fleet")


@pytest.mark.parametrize("shape", SHAPES)
def test_every_in_process_shape_gives_coordinates_outcome(shape,
                                                          tmp_path):
    for case, (threshold, friends) in sorted(CASES.items()):
        db = _party_db()
        service = _in_process_shapes(tmp_path / case)[shape](db)
        try:
            tickets = [service.submit(query)
                       for query in _queries(db, threshold, friends)]
            service.run_batch()
            answered = {ticket.query_id: ticket.answer.rows
                        for ticket in tickets
                        if ticket.state is TicketState.ANSWERED}
            assert answered == _reference(threshold, friends), case
            assert sorted(service.pending_ids()) == sorted(
                ticket.query_id for ticket in tickets
                if ticket.query_id not in answered), case
        finally:
            service.close()


def _spawn_server(data_path, sock_path, wal_dir) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(data_path),
         "--unix", str(sock_path), "--wal-dir", str(wal_dir)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise AssertionError(
                f"server exited early:\n{process.stdout.read()}")
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.connect(str(sock_path))
        except OSError:
            time.sleep(0.05)
        else:
            return process
        finally:
            probe.close()
    process.kill()
    process.wait()
    raise AssertionError("server did not come up within 30s")


def _stop(process: subprocess.Popen) -> None:
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    process.stdout.close()


def _serve(tmp_path, scenario):
    """Run *scenario(client)* against a served durable child; returns
    its result and the journal directory (the child is stopped)."""
    data_path = tmp_path / "party.data"
    data_path.write_text(dump_database(_party_db()))
    sock_path = tmp_path / "srv.sock"
    wal_dir = tmp_path / "wal"
    process = _spawn_server(data_path, sock_path, wal_dir)

    async def run():
        client = await ServerClient.connect_unix(sock_path)
        try:
            return await scenario(client)
        finally:
            await client.close()
    try:
        return asyncio.run(run()), wal_dir
    finally:
        _stop(process)


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
    service = _in_process_shapes(tmp_path)[shape](db)
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
    service = _in_process_shapes(tmp_path)[shape](db)
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
