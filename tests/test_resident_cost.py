"""What a pending query and a replica row cost to keep, in counts.

Every submitted query holds a :class:`CoordinationTicket` until it
settles, and every process shard, served child and recovered durable
service holds a database rebuilt from :func:`repro.dataio.dump_database`
text.  These tests pin the resident cost of both in host-independent
units — GC-tracked objects, traced bytes, object identities — and the
thread-safety contract the lock-free-per-ticket design must keep.
"""

from __future__ import annotations

import asyncio
import gc
import threading
import time
import tracemalloc

import pytest

from repro.core.evaluate import Answer, FailureReason
from repro.core.terms import atom
from repro.dataio import dump_database, load_database
from repro.db import Table
from repro.db.schema import schema
from repro.engine.futures import CoordinationTicket, TicketState
from repro.server.client import RemoteTicket
from repro.workloads import build_flight_database, generate_social_network

TICKETS = 2_000


def make_answer(query_id="q") -> Answer:
    return Answer.from_head_groundings(query_id, [(atom("R", 1),)])


def tracked_referents(ticket) -> list:
    """GC-tracked objects a ticket owns (its class and the shared enum
    member aside)."""
    return [referent for referent in gc.get_referents(ticket)
            if gc.is_tracked(referent) and referent is not type(ticket)
            and not isinstance(referent, TicketState)]


# ----------------------------------------------------------------------
# tickets
# ----------------------------------------------------------------------


def test_fresh_ticket_is_one_gc_object():
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        tickets = [CoordinationTicket(index) for index in range(TICKETS)]
        after = len(gc.get_objects())
    finally:
        gc.enable()
    # The list holding them is the one extra object.
    assert after - before - 1 == len(tickets)


def test_fresh_ticket_is_at_most_200_traced_bytes():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tickets = [CoordinationTicket(index) for index in range(TICKETS)]
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert used / len(tickets) <= 200


def test_ticket_grows_only_for_callbacks_and_blocking_waiters():
    ticket = CoordinationTicket("q")
    assert not ticket.done()
    assert ticket.state is TicketState.PENDING
    assert ticket.answer is None and ticket.failure_reason is None
    assert tracked_referents(ticket) == []
    ticket.add_callback(lambda settled: None)
    assert len(tracked_referents(ticket)) == 1  # the callback list
    waited = CoordinationTicket("w")
    assert not waited.wait(timeout=0)
    assert len(tracked_referents(waited)) == 1  # the waiter's Event


def test_settlement_drops_callbacks_and_event():
    ticket = CoordinationTicket("q")
    ticket.add_callback(lambda settled: None)
    ticket.wait(timeout=0)
    ticket.resolve(make_answer())
    assert all(isinstance(referent, Answer)
               for referent in tracked_referents(ticket))
    # A waiter arriving after settlement builds nothing.
    assert ticket.wait(timeout=0)
    assert ticket.result().rows == {"R": [(1,)]}


def _await_blocked(ticket) -> None:
    """Spin until some thread has parked on *ticket*'s event."""
    deadline = time.monotonic() + 10
    while ticket._event is None:
        assert time.monotonic() < deadline, "waiter never blocked"
        time.sleep(0.001)


@pytest.mark.parametrize("settle", ["resolve", "fail"])
def test_waiter_blocked_in_result_wakes_on_settlement(settle):
    ticket = CoordinationTicket("q")
    outcome = []

    def consumer():
        try:
            outcome.append(ticket.result(timeout=10))
        except Exception as error:  # lint: allow-swallow(the test asserts on it)
            outcome.append(error)

    thread = threading.Thread(target=consumer)
    thread.start()
    _await_blocked(ticket)
    if settle == "resolve":
        ticket.resolve(make_answer())
    else:
        ticket.fail(FailureReason.UNSAFE)
    thread.join(timeout=10)
    assert not thread.is_alive()
    if settle == "resolve":
        assert outcome[0].rows == {"R": [(1,)]}
    else:
        assert "unsafe" in str(outcome[0])


def test_many_waiters_share_one_event_and_all_wake():
    ticket = CoordinationTicket("q")
    woke = []
    threads = [threading.Thread(target=lambda: woke.append(ticket.wait(10)))
               for _ in range(4)]
    for thread in threads:
        thread.start()
    _await_blocked(ticket)
    ticket.fail(FailureReason.STALE)
    for thread in threads:
        thread.join(timeout=10)
    assert woke == [True] * 4


def test_callbacks_added_while_another_thread_settles_fire_once():
    for trial in range(200):
        ticket = CoordinationTicket(trial)
        calls = [0] * 20
        order: list = []
        start = threading.Barrier(2)

        def adder():
            start.wait()
            for index in range(len(calls)):
                def callback(settled, index=index):
                    calls[index] += 1
                    order.append(index)
                ticket.add_callback(callback)

        thread = threading.Thread(target=adder)
        thread.start()
        start.wait()
        ticket.resolve(make_answer())
        thread.join(timeout=10)
        assert calls == [1] * len(calls)
        # Registration order holds for the settler's batch and for the
        # ones fired on the adding thread after settlement alike.
        assert order == sorted(order)


def test_remote_ticket_builds_its_event_only_for_a_pending_waiter():
    async def scenario():
        settled_first = RemoteTicket("a")
        settled_first._settle("answered", {"rows": {}}, None)
        assert await settled_first.wait(timeout=0) == {"rows": {}}
        assert settled_first._event is None
        pending = RemoteTicket("b")
        assert pending._event is None
        waiter = asyncio.ensure_future(pending.wait(timeout=5))
        await asyncio.sleep(0)
        assert pending._event is not None
        pending._settle("failed", None, "stale")
        assert await waiter is None and pending.reason == "stale"

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# replicas
# ----------------------------------------------------------------------


def test_replica_holds_one_str_object_per_distinct_text_value():
    network = generate_social_network(num_users=300, seed=0)
    replica = load_database(dump_database(build_flight_database(network)))
    objects: dict = {}
    values = 0
    for name in replica.table_names():
        for row in replica.table(name).rows():
            for value in row:
                if type(value) is str:
                    values += 1
                    objects[id(value)] = value
    assert values > 2 * len(objects)  # the dataset repeats its values
    assert len(objects) == len(set(objects.values()))


def test_shard_worker_drops_the_dump_text_once_its_replica_is_built():
    from repro.shard.process import _start_host
    config = {"database_text": "table U user:text town:text\n"
                               "row U a x\nrow U b x\n",
              "staleness": ("never",),
              "engine": {"mode": "batch"}}
    host = _start_host(config)
    assert "database_text" not in config
    assert len(host.engine.database.table("U")) == 2


def test_hash_index_key_forms():
    table = Table(schema("F", "a text", "b int", "c text"))
    stored = table.row(table.insert(("x", 1, "y")))
    one_column = table.index_on((1,))
    all_columns = table.index_on((0, 1, 2))
    partial = table.index_on((0, 2))
    assert one_column.lookup(1) == [0]
    assert one_column.probe((1,)) == [0]
    [whole_key] = all_columns._buckets
    assert whole_key is stored
    assert partial.lookup(("x", "y")) == partial.probe(("x", "y")) == [0]


@pytest.mark.parametrize("spec,values", [
    ("v int", (1, 2, 2, 3)),
    ("v text", ("a", "b", "b", "c")),
])
def test_arity_one_table_deletes_and_finds_rows(spec, values):
    """One column is both the one-column and the all-columns index."""
    table = Table(schema("S", spec))
    table.insert_many((value,) for value in values)
    doubled = values[1]
    assert table.contains_row((doubled,))
    assert not table.contains_row(("absent" if spec.endswith("text")
                                   else 99,))
    assert not table.contains_row((doubled, doubled))
    assert table.count_probe({0: doubled}) == 2
    assert list(table.probe({0: doubled})) == [(doubled,), (doubled,)]
    assert table.delete_rows([(doubled,)]) == [(doubled,)]
    assert table.contains_row((doubled,))
    assert table.delete_rows([(doubled,), (doubled,)]) == [(doubled,)]
    assert not table.contains_row((doubled,))
    assert table.count_probe({0: doubled}) == 0
    assert sorted(table.rows()) == [(values[0],), (values[3],)]
