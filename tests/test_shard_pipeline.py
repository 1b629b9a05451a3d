"""The pipelined shard wire protocol: correlation IDs, in-flight
windows, event ordering under interleaved replies, and manifest
batching.

The regression of record: settle events ride the reply of the command
that produced them, and with several commands in flight the coordinator
may collect replies out of order — events must be decoded at *frame
receipt*, in worker execution order, never at result-collection time
(where a flood of settlements during an in-flight call could be
reordered behind a later command's reply, or dropped with it).
"""

from __future__ import annotations

import pytest

from repro.core.query import EntangledQuery
from repro.engine.engine import PendingRecord
from repro.engine.staleness import Clock, TimeoutStaleness
from repro.obs import TRACER, set_tracing
from repro.core.terms import Variable, atom
from repro.dataio import dump_database
from repro.errors import ValidationError
from repro.shard import (InProcessBackend, ShardBackend, ShardCall,
                         ShardedCoordinator, ShardWorkerError)
from repro.shard.process import ProcessBackend

from servicekit import ScriptedRouter, rendezvous_triple

#: A two-row co-located users table: every `_settling_pair` below
#: coordinates (and therefore settles) at the next run_batch.
TINY_DB = "table U user:text town:text\nrow U a x\nrow U b x\n"


def _settling_pair(tag: str) -> list[EntangledQuery]:
    return [
        EntangledQuery(query_id=f"{tag}-1",
                       head=(atom("R", f"{tag}-1", "d"),),
                       postconditions=(atom("R", f"{tag}-2", "d"),),
                       body=(atom("U", "a", Variable("c1")),)),
        EntangledQuery(query_id=f"{tag}-2",
                       head=(atom("R", f"{tag}-2", "d"),),
                       postconditions=(atom("R", f"{tag}-1", "d"),),
                       body=(atom("U", "b", Variable("c2")),)),
    ]


def _filler(tag: str) -> EntangledQuery:
    return EntangledQuery(query_id=tag,
                          head=(atom("R", tag, "d"),),
                          postconditions=(atom("R", f"{tag}-nobody",
                                               "d"),),
                          body=(atom("U", "a", Variable("c")),))


def _backend(staleness=("never",)) -> ProcessBackend:
    return ProcessBackend(0, {"database_text": TINY_DB,
                              "staleness": staleness,
                              "engine": {"mode": "batch",
                                         "safety": "off"},
                              "warm_indexes": []})


def test_settle_flood_during_inflight_call_keeps_order():
    backend = _backend()
    try:
        queries = [query.rename_apart()
                   for index in range(6)
                   for query in _settling_pair(f"p{index}")]
        submit_call = backend.call_submit_block(
            [PendingRecord(query, seq, 0.0)
             for seq, query in enumerate(queries)])
        round_call = backend.call_run_batch(0.0)  # will settle all 12
        stats_call = backend.call_metrics()  # three commands in flight

        # Collect the *last* command first: pumping its reply forces
        # the earlier replies (carrying the settle flood) through the
        # pipe out of collection order.
        snapshot = stats_call.result()
        assert snapshot["counters"]["answered"] == len(queries)

        events = backend.drain_events()
        answered = [query_id for kind, query_id, _ in events]
        assert all(kind == "answered" for kind, _, _ in events)
        assert sorted(answered) == sorted(query.query_id
                                          for query in queries)
        assert len(answered) == len(set(answered)), "events duplicated"

        assert submit_call.result() is None
        assert round_call.result() == len(queries)
        # Collecting the results later must not replay their events.
        assert backend.drain_events() == []
    finally:
        backend.close()


def test_events_from_pipelined_commands_keep_worker_order():
    backend = _backend(staleness=("timeout", 1.0))
    try:
        backend.call_submit_block(
            [PendingRecord(_filler("old").rename_apart(), 0, 0.0)]).result()
        pair = [query.rename_apart() for query in _settling_pair("new")]
        backend.call_submit_block([PendingRecord(query, seq, 4.5)
                                   for seq, query in enumerate(pair, 1)]
                                  ).result()

        expire_call = backend.call_expire(5.0)  # expires "old" only
        round_call = backend.call_run_batch(5.0)  # answers the pair
        snapshot = backend.call_metrics().result()  # out-of-order collect
        assert snapshot["counters"]["failed.stale"] == 1

        events = backend.drain_events()
        # Worker execution order: the expiry's failure event strictly
        # before the round's answer events, despite all three replies
        # arriving while pipelined.
        assert [kind for kind, _, _ in events] \
            == ["failed", "answered", "answered"]
        assert events[0][1] == "old"

        assert expire_call.result() == 1
        assert round_call.result() == 2
    finally:
        backend.close()


def test_inflight_window_applies_backpressure():
    backend = _backend()
    try:
        backend.window = 2
        calls = [backend.call_metrics() for _ in range(11)]
        assert len(backend._inflight) <= 2
        results = [call.result() for call in calls]
        assert all(snapshot["counters"]["submitted"] == 0
                   for snapshot in results)
        assert backend.wire_requests == 11
    finally:
        backend.close()


def test_replies_resolve_out_of_order():
    backend = _backend()
    try:
        first = backend.call_partition_sizes()
        second = backend.call_metrics()
        third = backend.call_partition_sizes()
        assert third.result() == []
        assert second.result()["counters"]["submitted"] == 0
        assert first.result() == []
    finally:
        backend.close()


def test_collecting_a_call_twice_raises_instead_of_pumping_forever():
    """A reply is handed out once.  Asking for it again must be a
    named error — the frame it would wait for is never coming, so
    pumping the pipe for it would block forever."""
    backend = _backend()
    try:
        call = backend.call_partition_sizes()
        assert call.result() == []
        with pytest.raises(ShardWorkerError, match="already collected"):
            call.result()
        # The connection is still in step afterwards.
        assert backend.call_pending().result() == []
    finally:
        backend.close()


# ----------------------------------------------------------------------
# one spelling per command (protocol conformance)
# ----------------------------------------------------------------------


def _public_methods(cls) -> set:
    return {name for name in dir(cls)
            if not name.startswith("_") and callable(getattr(cls, name))}


_LONER = _filler("loner").rename_apart()

#: The op table: command -> (arguments, what its in-process body
#: raises on them).  Where a command can fail on an idle shard the
#: arguments make it — a query id nobody holds, a block
#: without seqs, one record imported twice, a replication block without
#: its version — and the rest are driven on their happy path.  Every
#: argument encodes, so on the pipe the failure is the worker's.
COMMANDS = {
    "call_submit_block": (([PendingRecord(_LONER, 0, 0.0)] * 2,),
                          ValidationError),
    "call_run_batch": ((0.0,), None),
    "call_expire": ((0.0,), None),
    "call_members": (("ghost",), KeyError),
    "call_detach": ((["ghost"],), ValidationError),
    "call_import": (([PendingRecord(_LONER, 0, 0.0)] * 2,),
                    ValidationError),
    "call_db_delta": (({},), KeyError),
    "call_pending": ((), None),
    "call_partition_sizes": ((), None),
    "call_metrics": ((), None),
    "call_invalidate": ((), None),
}


def test_both_backends_expose_exactly_the_protocol_surface():
    protocol = _public_methods(ShardBackend)
    assert protocol == set(COMMANDS) | {"drain_events", "close"}
    assert _public_methods(InProcessBackend) == protocol
    # The process backend adds only its start-up handshake.
    assert _public_methods(ProcessBackend) == protocol | {"ensure_ready"}
    for cls in (ShardBackend, InProcessBackend, ProcessBackend):
        assert not [name for name in vars(cls)
                    if name.startswith(("begin_", "finish_"))]


@pytest.mark.parametrize("command, transport", [
    pytest.param(command, transport,
                 id=command if transport == "inprocess"
                 else f"{command}-{transport}")
    for command in sorted(COMMANDS)
    for transport in ("inprocess", "process")])
def test_in_process_calls_defer_their_outcome_to_result(
        command, transport, small_flight_db):
    """No ``call_*`` raises when called, on either transport: it
    counts one wire request and the outcome, error included, waits for
    ``result()``.  In-process the host's own error surfaces; on the
    pipe the worker's, as :class:`ShardWorkerError`."""
    if transport == "inprocess":
        backend = InProcessBackend(
            0, small_flight_db, dict(mode="batch", safety="off"))
    else:
        backend = _backend()
    try:
        args, raises = COMMANDS[command]
        call = getattr(backend, command)(*args)
        assert isinstance(call, ShardCall)
        assert backend.wire_requests == 1
        if raises is None:
            call.result()
        elif transport == "inprocess":
            with pytest.raises(raises):
                call.result()
        else:
            # The worker's traceback names the host's own error.
            with pytest.raises(ShardWorkerError, match=raises.__name__):
                call.result()
    finally:
        backend.close()


# ----------------------------------------------------------------------
# manifest batching
# ----------------------------------------------------------------------


def _bridged_coordinator(small_flight_db, backend: str = "inprocess",
                         **options) -> ShardedCoordinator:
    """Two rendezvous triples whose providers straddle shards 0/1;
    submitting both bridges in one block forces two component moves
    with the same (source, destination)."""
    script = {"m1-a": 0, "m1-b": 1, "m2-a": 0, "m2-b": 1}
    coordinator = ShardedCoordinator(
        small_flight_db, num_shards=2, backend=backend, mode="batch",
        router=ScriptedRouter(2, script), **options)
    one, two = rendezvous_triple("m1"), rendezvous_triple("m2")
    coordinator.submit_many([one[0], one[1], two[0], two[1]])
    coordinator.submit_many([one[2], two[2]])
    return coordinator


def test_block_migrations_share_one_manifest(small_flight_db):
    coordinator = _bridged_coordinator(small_flight_db)

    # Both providers moved to shard 0 in ONE manifest exchange: the
    # block's two co-location decisions share a (source, destination).
    assert coordinator.migrations == 1
    assert coordinator.migrated_queries == 2
    assert {coordinator.shard_of(query_id)
            for query_id in ("m1-a", "m1-b", "m1-c",
                             "m2-a", "m2-b", "m2-c")} == {0}
    # A second exchange would add its detach/import pair (11).
    assert coordinator.wire_requests == 9


def test_bridged_block_is_equivalent_on_the_process_backend(
        small_flight_db):
    outcomes = []
    for backend in ("process", "inprocess"):
        with _bridged_coordinator(small_flight_db, backend) as coordinator:
            answered = coordinator.run_batch()
            outcomes.append((answered, coordinator.pending_ids(),
                             coordinator.partition_sizes(),
                             coordinator.migrated_queries))
    assert outcomes[0] == outcomes[1]


class _TickingClock(Clock):
    """Advances one second on every read, so an engine that read the
    clock itself instead of taking the coordinator's ``now`` would
    stamp a later instant than the coordinator's copy."""

    def __init__(self):
        self.seconds = 0.0

    def now(self) -> float:
        self.seconds += 1.0
        return self.seconds


def test_moved_records_carry_the_coordinators_copy_on_both_transports(
        small_flight_db):
    """The destination holds the moved queries under the coordinator's
    arrival seqs (its arrival order is the coordinator's), submission
    instants (the expiry sweep takes them with the partners submitted
    beside them) and trace ids (its expire spans name them)."""
    outcomes = []
    set_tracing(True)
    try:
        for backend in ("inprocess", "process"):
            TRACER.clear()
            with _bridged_coordinator(
                    small_flight_db, backend, clock=_TickingClock(),
                    staleness=TimeoutStaleness(1.5)) as coordinator:
                records = {payload["query"]["id"]: payload for payload
                           in coordinator.snapshot_state()["pending"]}
                # Clock reads: the providers' block at 1.0, the
                # bridges' at 2.0; m1-b and m2-b moved from shard 1.
                providers = ["m1-a", "m1-b", "m2-a", "m2-b"]
                assert [records[query_id]["at"]
                        for query_id in providers] == [1.0] * 4
                assert {coordinator.shard_of(query_id)
                        for query_id in records} == {0}
                destination = coordinator._backends[0]
                arrival_order = destination.call_pending().result()
                assert arrival_order == coordinator.pending_ids()

                # At 3.0 with a 1.5 s timeout: the providers expire,
                # the bridges (1 s old) stay.
                assert coordinator.expire_stale() == 4
                expired_traces = {span.trace_id for span in TRACER.spans()
                                  if span.name == "query.expire"}
                assert expired_traces == {records[query_id]["trace"]
                                          for query_id in providers}
                outcomes.append((arrival_order,
                                 coordinator.pending_ids()))
    finally:
        set_tracing(False)
        TRACER.clear()
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == ["m1-c", "m2-c"]
