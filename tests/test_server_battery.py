"""Concurrency and fault battery for the coordination server.

The centrepiece: 32 concurrent async clients interleaving entangled
submits and table mutations against one served engine, proven
**byte-identical** to a single in-process oracle by replaying the
union of every client's acknowledged commands in the global ``order``
the server stamped on their replies.

Around it, the fault arms the ISSUE demands: admission control
shedding with typed ``OVERLOADED`` replies (window, tenant bucket,
and queue bounds — a reply, never a hang), queue-deadline timeouts,
graceful-drain ``SHUTTING_DOWN``, a mid-stream client disconnect that
leaves the server serving everyone else, a ``kill -9`` of a durable
server under load with byte-identical answers after recovery, and the
stale unix-socket lifecycle (unlink-on-bind of dead leftovers, refusal
to steal a live listener's path, cleanup on drain).

No pytest-asyncio here: every test drives its own loop via
``asyncio.run`` inside a plain function.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import socket
from dataclasses import fields

import pytest

from repro.dataio import dump_database, from_payload, to_payload
from repro.db import Database
from repro.durability import DurableEngine
from repro.engine.engine import D3CEngine
from repro.engine.futures import TicketState
from repro.engine.stats import EngineStats
from repro.errors import ValidationError
from repro.lang import parse_ir
from repro.server import (CoordinationServer, ServerAddressInUseError,
                          ServerClient, ServerCommandError, ServerConfig,
                          ServerOverloadedError,
                          ServerShuttingDownError, ServerTimeoutError)
from repro.server.protocol import (INVALID, OVERLOADED, FrameDecoder,
                                   encode_frame, event_frame,
                                   hello_frame, request_frame)
from repro.server.server import _Connection, normalize_mutations
from repro.workloads import (build_intro_database,
                             build_flight_database,
                             generate_social_network, two_way_pairs)

from servicekit import (MEND, build, poisoned_database, poisoned_pair,
                        spawn_server)


def _network(seed: int = 11):
    return generate_social_network(
        num_users=240, seed=seed,
        planted_cliques={4: 12, 5: 12, 6: 12})


def _canon(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# the 32-client oracle
# ----------------------------------------------------------------------


N_CLIENTS = 32
QUERIES_PER_CLIENT = 6


async def _client_session(path, index, queries):
    """One client's life: connect, submit half, maybe mutate, submit
    the rest; returns the client (history + events intact)."""
    client = await ServerClient.connect_unix(
        path, tenant=f"tenant-{index % 4}")
    half = len(queries) // 2
    if queries[:half]:
        await client.submit(queries[:half])
    if index % 4 == 0:
        # Interleaved table mutations: new friendships that later
        # submits can coordinate over, so mutation order is load-
        # bearing for the oracle comparison.
        await client.mutate([
            ("insert", "F", [(f"extra-{index}-a", f"extra-{index}-b"),
                             (f"extra-{index}-b", f"extra-{index}-a")]),
        ])
    if queries[half:]:
        await client.submit(queries[half:])
    return client


async def _oracle_scenario():
    network = _network()
    database = build_flight_database(network)
    queries = two_way_pairs(network, N_CLIENTS * QUERIES_PER_CLIENT,
                            seed=5)
    partitions = [queries[i::N_CLIENTS] for i in range(N_CLIENTS)]
    service = D3CEngine(database, mode="batch", safety="off")
    server = CoordinationServer(service)
    import tempfile
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "srv.sock")
        await server.start(unix_path=path)
        clients = await asyncio.gather(*(
            _client_session(path, index, partition)
            for index, partition in enumerate(partitions)))
        try:
            answered = await clients[0].run_batch()
            expired = await clients[0].expire()
            resolved = await clients[0].resolved()
            # Every settled query's event must reach the client that
            # owns it — and nobody else's.
            settled = {qid for qid, _ in resolved["answers"]}
            settled.update(qid for qid, _ in resolved["failures"])
            for index, client in enumerate(clients):
                own = {q.query_id for q in partitions[index]}
                for qid, ticket in client.tickets.items():
                    if qid in settled:
                        await asyncio.wait_for(ticket.wait(), 10)
                event_ids = {qid for _, qid, _ in client.events}
                assert event_ids <= own
            histories = sorted(
                entry for client in clients
                for entry in client.history)
            counters = server.metrics_snapshot()["counters"]
        finally:
            for client in clients:
                await client.close()
            await server.drain(close_service=False)
    return answered, expired, resolved, histories, counters


def _replay(histories):
    """The single-engine oracle: a fresh engine, the union of every
    client's acknowledged commands, in global order."""
    database = build_flight_database(_network())
    engine = D3CEngine(database, mode="batch", safety="off")
    tickets = []
    last_order = 0
    for order, op, args in histories:
        assert order > last_order, "duplicate or reordered history"
        last_order = order
        if op == "submit":
            # The history holds the queries as submitted: objects, or
            # payload dicts for a client that sent the wire form.
            tickets.extend(engine.submit_many(
                [from_payload(q) if isinstance(q, dict) else q
                 for q in args["queries"]]))
        elif op == "run_batch":
            engine.run_batch()
        elif op == "expire":
            engine.expire_stale()
        elif op == "mutate":
            engine.apply_mutations(normalize_mutations(args))
        else:  # pragma: no cover - history only holds ordered ops
            raise AssertionError(op)
    answers, failures = {}, {}
    for ticket in tickets:
        if ticket.state is TicketState.ANSWERED:
            answers[ticket.query_id] = to_payload(ticket.answer)
        elif ticket.state is TicketState.FAILED:
            failures[ticket.query_id] = ticket.failure_reason.value
    return answers, failures


def test_32_clients_match_single_engine_oracle_byte_for_byte():
    answered, expired, resolved, histories, counters = asyncio.run(
        _oracle_scenario())
    assert answered > 0
    assert expired == 0
    # Every client got its own connection, and no settlement event was
    # dropped on the way to its owner.
    assert counters["server.connections.opened"] == N_CLIENTS
    assert counters.get("server.events.dropped", 0) == 0
    # submits (2 per client, minus empty halves) + mutates + batch +
    # expire all carry strictly increasing global order stamps.
    assert len(histories) == 2 * N_CLIENTS + N_CLIENTS // 4 + 2

    oracle_answers, oracle_failures = _replay(histories)
    served_answers = {qid: payload
                      for qid, payload in resolved["answers"]}
    served_failures = {qid: reason
                       for qid, reason in resolved["failures"]}
    assert set(served_answers) == set(oracle_answers)
    assert served_failures == oracle_failures
    assert len(served_answers) == answered
    for qid, payload in oracle_answers.items():
        assert _canon(served_answers[qid]) == _canon(payload), qid


# ----------------------------------------------------------------------
# admission control: typed OVERLOADED replies, never a hang
# ----------------------------------------------------------------------


def _intro_engine() -> D3CEngine:
    return D3CEngine(build_intro_database(), mode="batch",
                     safety="off")


async def _burst(config, requests):
    """Hello + *requests* written in ONE burst, so admission sees the
    pipelined backlog before the consumer can drain any of it.
    Returns the reply frames (order not guaranteed)."""
    server = CoordinationServer(_intro_engine(), config)
    await server.start(port=0)
    host, port = server.tcp_address
    reader, writer = await asyncio.open_connection(host, port)
    decoder = FrameDecoder()
    replies = []
    try:
        writer.write(encode_frame(hello_frame("t")))
        await writer.drain()
        while not any(f.get("kind") == "welcome"
                      for f in decoder.feed(await reader.read(4096))):
            pass
        writer.write(b"".join(encode_frame(r) for r in requests))
        await writer.drain()
        while len(replies) < len(requests):
            data = await asyncio.wait_for(reader.read(1 << 16), 5)
            assert data, "server closed mid-exchange"
            replies.extend(decoder.feed(data))
    finally:
        writer.close()
        await server.drain(close_service=False)
    return replies


def _shed_and_served(replies):
    shed = [r for r in replies
            if r["status"] == "err" and r["code"] == OVERLOADED]
    served = [r for r in replies if r["status"] == "ok"]
    return shed, served


def test_window_bound_sheds_with_typed_overloaded():
    requests = [request_frame(i, "ping", {}) for i in range(1, 7)]
    replies = asyncio.run(_burst(ServerConfig(window=2), requests))
    shed, served = _shed_and_served(replies)
    assert len(shed) == 4 and len(served) == 2
    assert all("window" in r["message"] for r in shed)


def test_tenant_token_bucket_sheds_with_typed_overloaded():
    config = ServerConfig(tenant_rate=0.0, tenant_burst=3.0)
    requests = [request_frame(i, "ping", {}) for i in range(1, 9)]
    replies = asyncio.run(_burst(config, requests))
    shed, served = _shed_and_served(replies)
    assert len(served) == 3 and len(shed) == 5
    assert all("tenant" in r["message"] for r in shed)


def test_queue_bound_sheds_with_typed_overloaded():
    config = ServerConfig(window=50, queue_limit=3)
    requests = [request_frame(i, "ping", {}) for i in range(1, 10)]
    replies = asyncio.run(_burst(config, requests))
    shed, served = _shed_and_served(replies)
    assert len(served) == 3 and len(shed) == 6
    assert all("queue" in r["message"] for r in shed)


def test_client_library_raises_typed_overloaded():
    async def scenario():
        server = CoordinationServer(
            _intro_engine(),
            ServerConfig(tenant_rate=0.0, tenant_burst=1.0))
        await server.start(port=0)
        host, port = server.tcp_address
        client = await ServerClient.connect_tcp(host, port)
        try:
            await client.ping(timeout=5)
            with pytest.raises(ServerOverloadedError):
                await client.ping(timeout=5)
        finally:
            await client.close()
            await server.drain(close_service=False)
    asyncio.run(scenario())


def test_zero_timeout_expires_queued_requests_with_typed_reply():
    async def scenario():
        server = CoordinationServer(
            _intro_engine(), ServerConfig(request_timeout=0.0))
        await server.start(port=0)
        host, port = server.tcp_address
        client = await ServerClient.connect_tcp(host, port)
        try:
            with pytest.raises(ServerTimeoutError):
                await client.ping(timeout=5)
            snapshot = server.metrics_snapshot()
            assert snapshot["counters"]["server.timeouts"] == 1
        finally:
            await client.close()
            await server.drain(close_service=False)
    asyncio.run(scenario())


def test_draining_server_sheds_with_shutting_down():
    async def scenario():
        server = CoordinationServer(_intro_engine())
        await server.start(port=0)
        host, port = server.tcp_address
        client = await ServerClient.connect_tcp(host, port)
        try:
            await client.ping(timeout=5)
            server._draining = True  # drain started, listeners still up
            with pytest.raises(ServerShuttingDownError):
                await client.ping(timeout=5)
        finally:
            await client.close()
            server._draining = False
            await server.drain(close_service=False)
    asyncio.run(scenario())


def test_a_submit_that_raised_after_adopting_keeps_its_owner(tmp_path):
    """An incremental engine adopts one block: the poisoned pair, whose
    drain raises, and the intro pair, which still answers.  The client
    gets a typed ``INTERNAL`` reply and the intro pair's events; the
    poisoned pair stays this connection's, so once its row is mended
    the next round's events reach it too."""
    kramer = parse_ir("{Reservation(Jerry, x)} Reservation(Kramer, x) "
                      "<- Flights(x, Paris)", "kramer")
    jerry = parse_ir("{Reservation(Kramer, y)} Reservation(Jerry, y) "
                     "<- Flights(y, Paris), Airlines(y, United)", "jerry")

    async def scenario():
        server = CoordinationServer(
            D3CEngine(poisoned_database(), mode="incremental"))
        await server.start(unix_path=tmp_path / "srv.sock")
        client = await ServerClient.connect_unix(tmp_path / "srv.sock")
        try:
            with pytest.raises(ServerCommandError) as caught:
                await client.submit(poisoned_pair() + [kramer, jerry],
                                    timeout=10)
            await client.ping(timeout=10)
            first = sorted(query_id for _, query_id, _ in client.events)
            await client.mutate(MEND, timeout=10)
            answered = await client.run_batch(timeout=10)
            await client.ping(timeout=10)
            return (caught.value.code, first, answered,
                    sorted(query_id for _, query_id, _ in client.events))
        finally:
            await client.close()
            await server.drain()
    assert asyncio.run(scenario()) == (
        "INTERNAL", ["jerry", "kramer"], 2,
        ["jerry", "kramer", "u-a", "u-b"])


# ----------------------------------------------------------------------
# read-only ops: every service shape, the same replies
# ----------------------------------------------------------------------


def test_a_stats_request_gets_a_typed_invalid_reply():
    """The ``stats`` op is gone (``metrics`` carries every counter):
    a client that still sends it gets a typed ``INVALID`` reply, and
    its connection keeps serving."""
    async def scenario():
        server = CoordinationServer(
            D3CEngine(build_intro_database(), mode="batch"))
        await server.start(port=0)
        host, port = server.tcp_address
        client = await ServerClient.connect_tcp(host, port)
        try:
            with pytest.raises(ServerCommandError) as caught:
                await client.request("stats", timeout=10)
            assert caught.value.code == INVALID
            assert "unknown op 'stats'" in str(caught.value)
            assert (await client.ping(timeout=10))["pong"] is True
        finally:
            await client.close()
            await server.drain()
    asyncio.run(scenario())



@pytest.mark.parametrize("shape", ["engine", "fleet", "durable-engine",
                                   "durable-fleet"])
def test_read_only_ops_answer_ok_on_every_shape(shape, tmp_path):
    """``ping`` / ``pending`` / ``metrics`` / ``resolved`` over real
    frames: the server asks nothing of its service beyond the
    CoordinationService protocol, so every shape answers each op and
    ``metrics`` carries the engine's counter keys everywhere."""
    async def scenario():
        server = CoordinationServer(
            build(shape, build_intro_database(), tmp_path / "wal"))
        await server.start(port=0)
        host, port = server.tcp_address
        client = await ServerClient.connect_tcp(host, port)
        try:
            await client.submit(_intro_queries("r"), timeout=10)
            assert (await client.ping(timeout=10))["pong"] is True
            assert sorted((await client.pending(timeout=10))) == \
                ["jerry-r", "kramer-r"]
            assert await client.run_batch(timeout=10) == 2
            metrics = await client.metrics(timeout=10)
            counters, gauges = metrics["counters"], metrics["gauges"]
            assert {spec.name for spec in fields(EngineStats)} \
                - {"failed"} <= counters.keys() | gauges.keys()
            assert (counters["submitted"], counters["answered"],
                    gauges["pending"]) == (2, 2, 0)
            assert any(name.startswith("durability.")
                       for name in counters) == shape.startswith("durable")
            assert counters["server.replies"] >= 4
            assert gauges["server.connections.live"] == 1
            resolved = await client.resolved(timeout=10)
            assert [qid for qid, _ in resolved["answers"]] == \
                ["jerry-r", "kramer-r"]
            assert resolved["failures"] == []
        finally:
            await client.close()
            await server.drain()    # closes the service, every shape
    asyncio.run(scenario())


# ----------------------------------------------------------------------
# mid-stream disconnect
# ----------------------------------------------------------------------


def test_disconnecting_client_does_not_take_the_server_down():
    async def scenario():
        network = _network(seed=23)
        service = D3CEngine(build_flight_database(network),
                            mode="batch", safety="off")
        server = CoordinationServer(service)
        await server.start(port=0)
        host, port = server.tcp_address
        queries = two_way_pairs(network, 8, seed=3)
        ghost = await ServerClient.connect_tcp(host, port,
                                               tenant="ghost")
        survivor = await ServerClient.connect_tcp(host, port,
                                                  tenant="survivor")
        try:
            await ghost.submit(queries[:4])
            await survivor.submit(queries[4:])
            # The ghost vanishes mid-stream: a request goes out and
            # the transport is torn down before any reply.
            await ghost._write(request_frame(99, "run_batch", {}))
            ghost._writer.transport.abort()
            # Whether the ghost's dying batch ran or was dropped at
            # dequeue, the survivor's own batch must still be served
            # and everything ends up settled.
            await survivor.run_batch(timeout=10)
            resolved = await survivor.resolved(timeout=10)
            assert len(resolved["answers"]) > 0
            settled = {qid for qid, _ in resolved["answers"]}
            own = {q.query_id for q in queries[4:]}
            # The survivor still gets its own settle events; the
            # ghost's are dropped, not delivered to anyone else.
            for qid, ticket in survivor.tickets.items():
                if qid in settled:
                    await asyncio.wait_for(ticket.wait(), 10)
            assert {qid for _, qid, _ in survivor.events} <= own
            snapshot = await survivor.metrics(timeout=10)
            dropped = snapshot["counters"].get(
                "server.events.dropped", 0)
            ghost_settled = {qid for qid, _ in resolved["answers"]
                             if qid not in own}
            ghost_settled.update(
                qid for qid, _ in resolved["failures"]
                if qid not in own)
            assert dropped >= len(ghost_settled) > 0
            assert (await survivor.ping(timeout=10))["pong"] is True
        finally:
            await ghost.close()
            await survivor.close()
            await server.drain(close_service=False)
    asyncio.run(scenario())


# ----------------------------------------------------------------------
# kill -9 under load, then recovery
# ----------------------------------------------------------------------


def _intro_queries(tag: str):
    kramer = parse_ir(
        "{Reservation(Jerry, x)} Reservation(Kramer, x) "
        "<- Flights(x, Paris)", f"kramer-{tag}")
    jerry = parse_ir(
        "{Reservation(Kramer, y)} Reservation(Jerry, y) "
        "<- Flights(y, Paris), Airlines(y, United)", f"jerry-{tag}")
    return [kramer, jerry]


def test_kill9_under_load_recovers_byte_identical_answers(tmp_path):
    data_path = tmp_path / "intro.data"
    data_path.write_text(dump_database(build_intro_database()))
    sock_path = tmp_path / "srv.sock"
    wal_dir = tmp_path / "wal"

    server = spawn_server(data_path, sock_path, wal_dir)

    async def pre_crash():
        client = await ServerClient.connect_unix(str(sock_path))
        try:
            await client.submit(_intro_queries("a"), timeout=10)
            answered = await client.run_batch(timeout=10)
            assert answered == 2
            resolved = await client.resolved(timeout=10)
            # Load at crash time: more submits in flight, and a batch
            # fired without awaiting its reply.
            await client.submit(_intro_queries("b"), timeout=10)
            batch_task = asyncio.ensure_future(
                client.request("run_batch"))
            await asyncio.sleep(0)
            return resolved, batch_task
        finally:
            # NOTE: close() before returning would cancel the in-
            # flight batch; the kill does that for us.
            pass

    async def run_pre():
        resolved, batch_task = await pre_crash()
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=10)
        try:
            await asyncio.wait_for(batch_task, 5)
        except Exception:  # lint: allow-swallow(killed mid-request; any outcome is fine)
            pass
        return resolved

    resolved_before = asyncio.run(run_pre())
    answers_before = {qid: _canon(payload)
                      for qid, payload in resolved_before["answers"]}
    assert len(answers_before) == 2

    # The kill left a stale socket file behind; the restart must
    # reclaim it (unlink-on-bind) rather than fail EADDRINUSE-style.
    assert sock_path.exists()

    server = spawn_server(data_path, sock_path, wal_dir)

    async def post_crash():
        client = await ServerClient.connect_unix(str(sock_path))
        try:
            await client.submit(_intro_queries("c"), timeout=10)
            answered = await client.run_batch(timeout=10)
            resolved = await client.resolved(timeout=10)
            return resolved, answered
        finally:
            await client.close()

    try:
        resolved_after, answered_after = asyncio.run(post_crash())
    finally:
        server.send_signal(signal.SIGTERM)
        output = server.communicate(timeout=15)[0]
    answers_after = {qid: _canon(payload)
                     for qid, payload in resolved_after["answers"]}
    for qid, canonical in answers_before.items():
        assert answers_after[qid] == canonical
    # The "c" pair always answers post-recovery.  The "b" pair joins
    # it when the dying batch never reached the journal (recovery
    # restores those submits as still pending); if the batch landed
    # before the kill, "b" was already settled and journalled.
    assert answered_after in (2, 4)
    assert "kramer-c" in answers_after and "jerry-c" in answers_after
    if answered_after == 2:
        assert "kramer-b" in answers_after  # settled pre-crash
    assert "recovered" in output
    assert "drained:" in output
    assert not sock_path.exists()


# ----------------------------------------------------------------------
# stale unix sockets: unlink-on-bind, live-listener refusal, drain
# ----------------------------------------------------------------------


def _leave_stale_socket(path) -> None:
    leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    leftover.bind(str(path))
    leftover.close()  # closed without unlink: the crash leftover


def test_stale_socket_file_is_reclaimed_on_bind(tmp_path):
    path = tmp_path / "stale.sock"
    _leave_stale_socket(path)
    assert path.exists()

    async def scenario():
        server = CoordinationServer(_intro_engine())
        await server.start(unix_path=str(path))
        client = await ServerClient.connect_unix(str(path))
        try:
            assert (await client.ping(timeout=5))["pong"] is True
        finally:
            await client.close()
            await server.drain(close_service=False)
    asyncio.run(scenario())
    assert not path.exists()  # drain always cleans up


def test_live_socket_is_not_stolen(tmp_path):
    path = tmp_path / "live.sock"

    async def scenario():
        first = CoordinationServer(_intro_engine())
        await first.start(unix_path=str(path))
        second = CoordinationServer(_intro_engine())
        try:
            with pytest.raises(ServerAddressInUseError):
                await second.start(unix_path=str(path))
        finally:
            await first.drain(close_service=False)
        assert not path.exists()
    asyncio.run(scenario())


def test_non_socket_file_is_never_deleted(tmp_path):
    path = tmp_path / "precious.txt"
    path.write_text("not a socket")

    async def scenario():
        server = CoordinationServer(_intro_engine())
        with pytest.raises(ValidationError):
            await server.start(unix_path=str(path))
    asyncio.run(scenario())
    assert path.read_text() == "not a socket"


def test_drain_finishes_admitted_work_before_closing(tmp_path):
    """Requests admitted before drain still get their replies (FIFO),
    requests after it get SHUTTING_DOWN — never silence."""
    async def scenario():
        server = CoordinationServer(_intro_engine())
        path = tmp_path / "drain.sock"
        await server.start(unix_path=str(path))
        client = await ServerClient.connect_unix(str(path))
        await client.submit(_intro_queries("d"))
        answered_task = asyncio.ensure_future(client.run_batch())
        # Deterministic handoff: wait until the request was actually
        # admitted to the command queue (or already served) before
        # draining, so drain's FIFO guarantee is what's under test.
        while server._queue.qsize() == 0 and not answered_task.done():
            await asyncio.sleep(0)
        await server.drain(close_service=False)
        answered = await asyncio.wait_for(answered_task, 10)
        assert answered == 2
        await client.close()
        assert not path.exists()
    asyncio.run(scenario())


# ----------------------------------------------------------------------
# mutation validation stays all-or-nothing over the wire
# ----------------------------------------------------------------------


def test_invalid_mutation_is_typed_and_changes_nothing():
    async def scenario():
        database = Database()
        database.create_table("T", "a int", "b text")
        database.insert("T", [(1, "x")])
        service = D3CEngine(database, mode="batch", safety="off")
        server = CoordinationServer(service)
        await server.start(port=0)
        host, port = server.tcp_address
        client = await ServerClient.connect_tcp(host, port)
        try:
            from repro.server import ServerCommandError
            with pytest.raises(ServerCommandError):
                # Second op's row violates the schema; the first must
                # not have been applied either.
                await client.mutate([
                    ("insert", "T", [(2, "y")]),
                    ("insert", "T", [("not-an-int", 3)]),
                ], timeout=5)
            assert len(list(database.table("T").rows())) == 1
            counts = await client.mutate(
                [("insert", "T", [(2, "y")])], timeout=5)
            assert counts == [1]
            assert len(list(database.table("T").rows())) == 2
        finally:
            await client.close()
            await server.drain(close_service=False)
    asyncio.run(scenario())


# ----------------------------------------------------------------------
# settlement push: one write per connection per command
# ----------------------------------------------------------------------


class _CountingWriter:
    """Stands in for a connection's ``StreamWriter``: records every
    ``write`` call (optionally failing them all)."""

    def __init__(self, broken: bool = False):
        self.writes: list = []
        self.broken = broken

    def write(self, data) -> None:
        if self.broken:
            raise ConnectionResetError("peer went away")
        self.writes.append(bytes(data))

    async def drain(self) -> None:
        pass

    def events(self) -> list:
        """``(event, query id)`` of every frame written, in order."""
        return [(frame["event"], frame["query"]) for frame
                in FrameDecoder().feed(b"".join(self.writes))]


def _submit_split_pairs(server, conns, tags) -> None:
    """Each pair's kramer goes to ``conns[0]``, its jerry to
    ``conns[1]``, as the reader tasks would have admitted them."""
    for tag in tags:
        for conn, query in zip(conns, _intro_queries(tag)):
            server._do_submit(conn, {"queries": [to_payload(query)]})


def _counter(server, name: str) -> int:
    return server.metrics_snapshot()["counters"].get(name, 0)


def test_flush_events_writes_once_per_connection_per_command():
    async def scenario():
        server = CoordinationServer(_intro_engine())
        conns = [_Connection(_CountingWriter()) for _ in range(2)]
        _submit_split_pairs(server, conns, "abc")
        await server._flush_events()            # nothing settled yet
        assert [conn.writer.writes for conn in conns] == [[], []]
        assert server.service.run_batch() == 6
        await server._flush_events()
        # ``_answers`` is filled in settlement order: each connection
        # must see exactly its own events, in that order, in ONE write.
        settled = list(server._answers)
        assert sorted(settled) == sorted(
            query.query_id for tag in "abc"
            for query in _intro_queries(tag))
        for conn, owner in zip(conns, ("kramer", "jerry")):
            assert len(conn.writer.writes) == 1
            assert conn.writer.events() == [
                ("answered", qid) for qid in settled
                if qid.startswith(owner)]
        assert _counter(server, "server.events.sent") == 6
        # The next command is the next write, not a longer first one.
        _submit_split_pairs(server, conns, "d")
        assert server.service.run_batch() == 2
        await server._flush_events()
        assert [len(conn.writer.writes) for conn in conns] == [2, 2]
        assert _counter(server, "server.events.sent") == 8
        assert _counter(server, "server.events.dropped") == 0
    asyncio.run(scenario())


def test_flush_events_drops_an_oversized_event_alone():
    async def scenario():
        server = CoordinationServer(
            _intro_engine(), ServerConfig(max_frame_bytes=1024))
        conns = [_Connection(_CountingWriter()) for _ in range(2)]
        _submit_split_pairs(server, conns, "ab")
        assert server.service.run_batch() == 4
        huge = event_frame("answered", "huge", "x" * 4096)
        # In the middle of one connection's backlog; the whole of a
        # third connection's.
        server._event_backlog[conns[0]].insert(1, huge)
        lonely = _Connection(_CountingWriter())
        server._event_backlog[lonely] = [huge]
        await server._flush_events()
        for conn in conns:
            assert len(conn.writer.writes) == 1
            assert len(conn.writer.events()) == 2
            assert ("answered", "huge") not in conn.writer.events()
        assert lonely.writer.writes == []       # nothing left to send
        assert _counter(server, "server.sends.oversized") == 2
        assert _counter(server, "server.events.dropped") == 2
        assert _counter(server, "server.events.sent") == 4
    asyncio.run(scenario())


def test_flush_events_counts_a_failed_write_as_dropped_events():
    async def scenario():
        server = CoordinationServer(_intro_engine())
        conns = [_Connection(_CountingWriter(broken=True)),
                 _Connection(_CountingWriter())]
        _submit_split_pairs(server, conns, "ab")
        assert server.service.run_batch() == 4
        await server._flush_events()
        assert conns[0].closed and not conns[1].closed
        assert len(conns[1].writer.events()) == 2
        assert _counter(server, "server.sends.dropped") == 1
        assert _counter(server, "server.events.dropped") == 2
        assert _counter(server, "server.events.sent") == 2
    asyncio.run(scenario())


# ----------------------------------------------------------------------
# the collector: frozen by the process entry point, read by the server
# ----------------------------------------------------------------------


def test_metrics_read_the_collector_without_configuring_it(tmp_path):
    """Library classes report the host process's collector; only
    ``repro serve`` (next test) freezes anything."""
    async def scenario():
        frozen = gc.get_freeze_count()
        server = CoordinationServer(DurableEngine(
            tmp_path / "wal", build_intro_database(), mode="batch"))
        await server.start(port=0)
        try:
            gauges = server.metrics_snapshot()["gauges"]
            assert gauges["process.gc.frozen_objects"] == frozen
            assert gauges["process.gc.full_collections"] == \
                gc.get_stats()[2]["collections"]
            assert gc.get_freeze_count() == frozen
        finally:
            await server.drain()
    asyncio.run(scenario())


def test_stock_serve_freezes_its_static_heap(tmp_path):
    """``repro serve`` moves the loaded database out of the collector's
    reach at boot, and says so through the ``metrics`` op."""
    data_path = tmp_path / "intro.data"
    data_path.write_text(dump_database(build_intro_database()))
    sock_path = tmp_path / "srv.sock"
    server = spawn_server(data_path, sock_path, tmp_path / "wal")

    async def read_metrics():
        client = await ServerClient.connect_unix(str(sock_path))
        try:
            return await client.metrics(timeout=10)
        finally:
            await client.close()

    try:
        gauges = asyncio.run(read_metrics())["gauges"]
    finally:
        server.send_signal(signal.SIGTERM)
        output = server.communicate(timeout=15)[0]
    assert "drained:" in output
    assert gauges["process.gc.frozen_objects"] > 1_000
    assert gauges["process.gc.full_collections"] >= 1
