"""Fault injection for the cross-shard migration protocol.

The invariant under attack: **no coordination component is ever lost or
duplicated**, whichever side of a migration dies at whichever step —
a destination failing mid-import (including after partially applying
records), a destination worker process killed on the wire, a source
refusing the restore, one pair's detach failing while another pair's
restore does too.  Each
test drives the failure through the real protocol machinery and then
audits the fleet: every query pending exactly once, coordinator
bookkeeping consistent, and the service able to retry and coordinate
afterwards.  Then the first fault of the "stalls rather than dies"
family: a stopped worker must not be able to hang ``close()``.  Last,
a shard lost between commands — a real SIGKILL, and two in-process
shards lost in one dispatch — is contained by the request that meets
it, a routing one included (a bridge's membership lookup, detach or
import): the shard leaves the fleet, its components are re-homed, and
the command completes as one engine's would.  A live shard failing a
submission leaves registered exactly what it adopted.
"""

from __future__ import annotations

import os
import signal
import threading
from contextlib import nullcontext

import pytest

from repro.core.query import EntangledQuery
from repro.core.terms import Constant, Variable, atom
from repro.db import Comparison, Database
from repro.engine.engine import D3CEngine, PendingRecord
from repro.engine.staleness import ManualClock, TimeoutStaleness
from repro.errors import ValidationError
from repro.shard import (ShardCall, ShardLostError, ShardMigrationError,
                         ShardWorkerError, ShardedCoordinator)

from servicekit import (ScriptedRouter, audit_exactly_once, outcome,
                        rendezvous_triple)


def make_pair(query_id_left, query_id_right, left, right, destination):
    """A mutually coordinating specific pair (inlined — ``import
    conftest`` is ambiguous between the tests/ and benchmarks/
    conftests in full-suite runs)."""
    queries = []
    for query_id, user, partner in ((query_id_left, left, right),
                                    (query_id_right, right, left)):
        town = Variable("c")
        queries.append(EntangledQuery(
            query_id=query_id,
            head=(atom("R", user, destination),),
            postconditions=(atom("R", partner, destination),),
            body=(atom("F", user, partner), atom("U", user, town),
                  atom("U", partner, town))))
    return queries


# ----------------------------------------------------------------------
# engine level: a partial import must roll back
# ----------------------------------------------------------------------


def test_partial_import_rolls_back_everything(small_flight_db,
                                              monkeypatch):
    source = D3CEngine(small_flight_db, mode="batch")
    target = D3CEngine(small_flight_db, mode="batch")
    for query in make_pair("r1", "r2", "user1", "user2", "ITH"):
        source.submit(query)
    records = source.export_component(["r1", "r2"])

    real_ingest = target._runtime.ingest
    seen: list = []

    def exploding_ingest(working):
        seen.append(working.query_id)
        if len(seen) == 2:
            raise RuntimeError("mid-import fault")
        return real_ingest(working)

    monkeypatch.setattr(target._runtime, "ingest", exploding_ingest)
    with pytest.raises(RuntimeError, match="mid-import fault"):
        target.import_pending(records)
    # The first record was fully applied before the fault — it must be
    # gone again (a partial import plus an abort-restore on the source
    # would duplicate it across engines).
    assert target.pending_count == 0
    assert target.pending_ids() == []
    assert target.partition_sizes() == []

    monkeypatch.undo()
    tickets = target.import_pending(records)
    assert sorted(tickets) == ["r1", "r2"]
    assert target.pending_ids() == ["r1", "r2"]
    assert target.partition_sizes() == [2]


# ----------------------------------------------------------------------
# coordinator level: destination failures
# ----------------------------------------------------------------------


def _submit_providers(coordinator, triple):
    a, b, c = triple
    coordinator.submit(a)
    coordinator.submit(b)
    assert coordinator.shard_of(a.query_id) == 0
    assert coordinator.shard_of(b.query_id) == 1
    return a, b, c


def test_destination_import_failure_restores_source(small_flight_db,
                                                    monkeypatch):
    router = ScriptedRouter(2, {"t-a": 0, "t-b": 1})
    coordinator = ShardedCoordinator(small_flight_db, num_shards=2,
                                     mode="batch", router=router)
    a, b, c = _submit_providers(coordinator, rendezvous_triple("t"))

    monkeypatch.setattr(
        coordinator._backends[0], "call_import",
        lambda payload: ShardCall.failed(RuntimeError("dest down")))
    with pytest.raises(RuntimeError, match="dest down"):
        coordinator.submit(c)

    # Abort restored the component on its source; nothing duplicated,
    # nothing lost, and the failed arrival left no ghost routing state.
    assert coordinator.shard_of("t-b") == 1
    assert coordinator._backends[1].call_pending().result() == ["t-b"]
    assert coordinator._backends[0].call_pending().result() == ["t-a"]
    assert coordinator.pending_ids() == ["t-a", "t-b"]
    audit_exactly_once(coordinator)

    # After the destination heals, the same bridge id is retryable and
    # the migration completes.
    monkeypatch.undo()
    coordinator.submit(c)
    assert {coordinator.shard_of(query_id)
            for query_id in ("t-a", "t-b", "t-c")} == {0}
    audit_exactly_once(coordinator)


def test_destination_and_source_failure_rehomes_records(
        small_flight_db, monkeypatch):
    router = ScriptedRouter(3, {"d-a": 0, "d-b": 1})
    coordinator = ShardedCoordinator(small_flight_db, num_shards=3,
                                     mode="batch", router=router)
    a, b, c = _submit_providers(coordinator, rendezvous_triple("d"))

    monkeypatch.setattr(
        coordinator._backends[0], "call_import",
        lambda payload: ShardCall.failed(RuntimeError("dest down")))
    monkeypatch.setattr(
        coordinator._backends[1], "call_import",
        lambda records: ShardCall.failed(RuntimeError("source down")))
    with pytest.raises(RuntimeError):
        coordinator.submit(c)

    # Both migration parties failed; the coordinator still held the
    # transferred records and adopted them on the surviving shard.
    assert coordinator.shard_of("d-b") == 2
    assert coordinator._backends[2].call_pending().result() == ["d-b"]
    audit_exactly_once(coordinator)


def test_total_failure_raises_migration_error(small_flight_db,
                                              monkeypatch):
    router = ScriptedRouter(2, {"x-a": 0, "x-b": 1})
    coordinator = ShardedCoordinator(small_flight_db, num_shards=2,
                                     mode="batch", router=router)
    a, b, c = _submit_providers(coordinator, rendezvous_triple("x"))

    monkeypatch.setattr(
        coordinator._backends[0], "call_import",
        lambda payload: ShardCall.failed(RuntimeError("dest down")))
    monkeypatch.setattr(
        coordinator._backends[1], "call_import",
        lambda records: ShardCall.failed(RuntimeError("source down")))
    # Two shards, both failed: there is nowhere left to restore to —
    # that terminal state is named loudly, never silent.
    with pytest.raises(ShardMigrationError, match="could not be "
                                                  "restored"):
        coordinator.submit(c)


def test_failure_between_plan_and_flush_reverts_ownership(
        small_flight_db, monkeypatch):
    """A fault *after* a move was planned but *before* the block
    flushed (here: a later bridge's membership lookup dying) must
    revert the planned ownership edits — they have no physical
    counterpart yet."""
    router = ScriptedRouter(2, {"t-a": 0, "t-b": 1, "u-a": 0,
                                "u-b": 1})
    coordinator = ShardedCoordinator(small_flight_db, num_shards=2,
                                     mode="batch", router=router)
    t_a, t_b, t_c = rendezvous_triple("t", "AAA", "BBB")
    u_a, u_b, u_c = rendezvous_triple("u", "CCC", "DDD")
    coordinator.submit_many([t_a, t_b, u_a, u_b])

    source = coordinator._backends[1]
    real_members = source.call_members

    def failing_members(query_id):
        if query_id == "u-b":
            return ShardCall.failed(RuntimeError("lookup died"))
        return real_members(query_id)

    # First bridge plans moving t-b (1 → 0); the second bridge's
    # lookup fails before anything flushes.
    monkeypatch.setattr(source, "call_members", failing_members)
    with pytest.raises(RuntimeError, match="lookup died"):
        coordinator.submit_many([t_c, u_c])

    assert coordinator.shard_of("t-b") == 1
    assert coordinator._backends[1].call_pending().result() \
        == ["t-b", "u-b"]
    audit_exactly_once(coordinator)

    # After the worker heals the same bridges route and migrate fine.
    monkeypatch.undo()
    coordinator.submit_many([t_c, u_c])
    assert {coordinator.shard_of(query_id)
            for query_id in ("t-a", "t-b", "t-c")} == {0}
    audit_exactly_once(coordinator)


def test_failed_detach_and_failed_restore_lose_no_component(
        small_flight_db, monkeypatch):
    """One block plans two exchanges, 1 → 0 and 2 → 0.  Shard 2's
    detach fails, so nothing is imported and shard 1's detached group
    must go back; shard 1 refuses the restore, so the group lands on
    the one live shard outside its exchange."""
    router = ScriptedRouter(3, {"t-a": 0, "t-b": 1, "u-a": 0,
                                "u-b": 2})
    coordinator = ShardedCoordinator(small_flight_db, num_shards=3,
                                     mode="batch", router=router)
    t_a, t_b, t_c = rendezvous_triple("t", "AAA", "BBB")
    u_a, u_b, u_c = rendezvous_triple("u", "CCC", "DDD")
    coordinator.submit_many([t_a, t_b, u_a, u_b])

    monkeypatch.setattr(
        coordinator._backends[2], "call_detach",
        lambda query_ids: ShardCall.failed(RuntimeError("detach died")))
    monkeypatch.setattr(
        coordinator._backends[1], "call_import",
        lambda records: ShardCall.failed(RuntimeError("source down")))
    with pytest.raises(RuntimeError, match="detach died"):
        coordinator.submit_many([t_c, u_c])

    assert coordinator.shard_of("t-b") == 2
    assert coordinator.shard_of("u-b") == 2
    audit_exactly_once(coordinator)

    monkeypatch.undo()
    coordinator.submit_many([t_c, u_c])
    assert len({coordinator.shard_of(query_id)
                for query_id in ("t-a", "t-b", "t-c")}) == 1
    assert len({coordinator.shard_of(query_id)
                for query_id in ("u-a", "u-b", "u-c")}) == 1
    audit_exactly_once(coordinator)


def test_a_shard_lost_during_a_restore_restores_each_group_once(
        small_flight_db, monkeypatch):
    """One block plans three exchanges into shard 0; shard 3's detach
    fails, so the groups detached from shards 1 and 2 are restored.
    Shard 1 refuses ``t-b``'s restore and shard 2, tried next, is lost
    at it.  Shard 2 detached ``u-b``, so the loss must not re-home
    ``u-b`` from there as well: each group lands exactly once."""
    router = ScriptedRouter(4, {"t-a": 0, "t-b": 1, "u-a": 0, "u-b": 2,
                                "v-a": 0, "v-b": 3})
    coordinator = ShardedCoordinator(small_flight_db, num_shards=4,
                                     mode="batch", router=router)
    t_a, t_b, t_c = rendezvous_triple("t", "AAA", "BBB")
    u_a, u_b, u_c = rendezvous_triple("u", "CCC", "DDD")
    v_a, v_b, v_c = rendezvous_triple("v", "EEE", "FFF")
    coordinator.submit_many([t_a, t_b, u_a, u_b, v_a, v_b])

    monkeypatch.setattr(
        coordinator._backends[3], "call_detach",
        lambda query_ids: ShardCall.failed(RuntimeError("detach died")))
    monkeypatch.setattr(
        coordinator._backends[1], "call_import",
        lambda records: ShardCall.failed(RuntimeError("import refused")))
    victim = coordinator._backends[2]
    real_import = victim.call_import

    def lose_then_import(records):
        _lose(victim, [])
        return real_import(records)

    monkeypatch.setattr(victim, "call_import", lose_then_import)
    with pytest.raises(RuntimeError, match="detach died"):
        coordinator.submit_many([t_c, u_c, v_c])

    assert coordinator.dead_shards() == {2}
    assert coordinator.shard_of("t-b") == 0
    assert coordinator.shard_of("u-b") == 3
    audit_exactly_once(coordinator)

    monkeypatch.undo()
    coordinator.submit_many([t_c, u_c, v_c])
    for tag in "tuv":
        assert len({coordinator.shard_of(f"{tag}-{role}")
                    for role in "abc"}) == 1
    audit_exactly_once(coordinator)


# ----------------------------------------------------------------------
# process backend: a worker killed mid-protocol
# ----------------------------------------------------------------------


def test_killed_destination_worker_aborts_to_source(small_flight_db,
                                                    monkeypatch):
    router = ScriptedRouter(2, {"w-a": 0, "w-b": 1})
    with ShardedCoordinator(small_flight_db, num_shards=2,
                            backend="process", mode="batch",
                            router=router) as coordinator:
        a, b, c = _submit_providers(coordinator,
                                    rendezvous_triple("w"))
        destination = coordinator._backends[0]
        real_import = destination.call_import

        def kill_then_import(payload):
            destination._process.kill()
            destination._process.join(5)
            return real_import(payload)

        monkeypatch.setattr(destination, "call_import",
                            kill_then_import)
        coordinator.submit(c)

        # The loss is contained: the surviving source shard adopts the
        # dead destination's component, the import sent on to it and
        # the bridge — the whole component, exactly once.
        assert coordinator.dead_shards() == {0}
        assert coordinator._backends[1].call_pending().result() \
            == ["w-a", "w-b", "w-c"]
        audit_exactly_once(coordinator)


def test_killed_worker_surfaces_as_shard_worker_error(small_flight_db):
    """Protocol-level: detach on a live source, import into a dead
    worker, re-import on the source — the wire failure is a named error
    and the records survive on the source."""
    from repro.dataio import dump_database
    from repro.shard.process import ProcessBackend

    config = {
        "database_text": dump_database(small_flight_db),
        "staleness": ("never",),
        "engine": {"mode": "batch", "safety": "off"},
        "warm_indexes": [],
    }
    source = ProcessBackend(0, config)
    target = ProcessBackend(1, config)
    try:
        pair = [query.rename_apart()
                for query in make_pair("z1", "z2", "user1", "user2",
                                       "ORD")]
        payload = [PendingRecord(query, seq, 0.0) for seq, query in enumerate(pair)]
        source.call_submit_block(payload).result()
        source.call_detach(["z1", "z2"]).result()

        target._process.kill()
        target._process.join(5)
        with pytest.raises(ShardWorkerError):
            target.call_import(payload).result()

        source.call_import(payload).result()
        assert source.call_pending().result() == ["z1", "z2"]
        assert source.call_partition_sizes().result() == [2]
    finally:
        source.close()
        target.close()


# ----------------------------------------------------------------------
# process backend: a worker that stalls instead of dying
# ----------------------------------------------------------------------


def test_close_is_bounded_against_a_stalled_worker(monkeypatch):
    """A SIGSTOPped worker never acknowledges ``stop`` and never hangs
    up.  ``close()`` must give up on the acknowledgment after one grace
    period and escalate through ``_reap`` — SIGTERM stays pending on a
    stopped process, so it takes the SIGKILL — which bounds it at four
    grace periods.  ``close()`` runs on a thread so that an unbounded
    one fails this test instead of hanging the suite."""
    from repro.shard.process import ProcessBackend

    grace = 0.3
    monkeypatch.setenv("REPRO_SHUTDOWN_TIMEOUT", str(grace))
    backend = ProcessBackend(0, {
        "database_text": "table U user:text town:text\nrow U a x\n",
        "staleness": ("never",),
        "engine": {"mode": "batch", "safety": "off"},
        "warm_indexes": []})
    backend.ensure_ready()
    process = backend._process
    closer = threading.Thread(target=backend.close, daemon=True)
    try:
        os.kill(process.pid, signal.SIGSTOP)
        closer.start()
        closer.join(4 * grace + 1.0)
        assert not closer.is_alive(), \
            "close() is still waiting on the stalled worker"
        assert not process.is_alive()
        assert process.exitcode == -signal.SIGKILL
        backend.close()  # idempotent: nothing left to stop or reap
    finally:
        if process.is_alive():
            process.kill()  # releases a close() that never gave up
        closer.join(5)


# ----------------------------------------------------------------------
# a shard lost between commands: contained at the next fan-out
# ----------------------------------------------------------------------


def _loss_db():
    db = Database()
    db.create_table("F", "a text", "b text")
    db.create_table("U", "a text", "b text")
    db.insert("F", [("u1", "u2"), ("u2", "u1"), ("u3", "u4"),
                    ("u4", "u3"), ("u5", "u6"), ("u6", "u5")])
    db.insert("U", [(f"u{index}", "t") for index in range(1, 9)])
    return db


def _outcomes(service, tickets) -> dict:
    return {"tickets": {ticket.query_id: outcome(ticket)
                        for ticket in tickets},
            "pending": service.pending_ids(),
            "sizes": sorted(service.partition_sizes())}


#: The commands run after the kill, each in turn the first to meet it.
AFTER_THE_KILL = ["run_batch", "expire_stale", "submit_many"]


@pytest.mark.parametrize("first", AFTER_THE_KILL)
def test_worker_killed_between_commands_is_contained(first):
    """SIGKILL a worker between commands: whichever command meets the
    dead pipe first — a round, an expiry sweep or a submission bound
    for the dead shard — and the two after it complete on the
    survivor, and the fleet ends where one engine fed the same history
    does.  Pairs ``a`` and ``b`` answer, ``c`` (whose data never
    serves) expires, and ``d`` arrives for the dead shard."""
    order = AFTER_THE_KILL[AFTER_THE_KILL.index(first):] \
        + AFTER_THE_KILL[:AFTER_THE_KILL.index(first)]
    histories = []
    for shape in ("engine", "fleet"):
        clock = ManualClock()
        options = dict(mode="batch", clock=clock,
                       staleness=TimeoutStaleness(2.5))
        if shape == "engine":
            service = D3CEngine(_loss_db(), **options)
        else:
            service = ShardedCoordinator(
                _loss_db(), num_shards=2, backend="process",
                router=ScriptedRouter(2, {"c1": 1, "a1": 0, "b1": 1,
                                          "d1": 1}), **options)
        with service if shape == "fleet" else nullcontext():
            tickets = service.submit_many(
                make_pair("c1", "c2", "u7", "u8", "ITH"))
            clock.advance(2.0)
            tickets += service.submit_many(
                make_pair("a1", "a2", "u1", "u2", "ITH")
                + make_pair("b1", "b2", "u3", "u4", "ITH"))
            if shape == "fleet":
                assert service.shard_of("b1") == 1
                victim = service._backends[1]._process
                victim.kill()
                victim.join(5)
            clock.advance(1.0)
            for command in order:
                if command == "submit_many":
                    tickets += service.submit_many(
                        make_pair("d1", "d2", "u5", "u6", "ITH"))
                else:
                    getattr(service, command)()
            if shape == "fleet":
                assert service.dead_shards() == {1}
                audit_exactly_once(service)
            histories.append(_outcomes(service, tickets))
    engine, fleet = histories
    assert fleet == engine
    assert engine["tickets"]["c1"] == ("failed", "stale")
    assert engine["tickets"]["b1"][0] == "answered"


def test_two_shards_lost_in_one_dispatch_land_on_the_third():
    """Shards 0 and 1 of an in-process fleet are lost while a block
    bound for both is dispatched.  Shard 0 held nothing, so its
    sub-block is sent on to shard 1 — lost too, which hands both
    sub-blocks and its own pending pair to shard 2.  Nothing is
    imported twice, and one engine fed the same history agrees."""
    histories = []
    for shape in ("engine", "fleet"):
        if shape == "engine":
            service = D3CEngine(_loss_db(), mode="batch")
        else:
            service = ShardedCoordinator(
                _loss_db(), num_shards=3, mode="batch",
                router=ScriptedRouter(3, {"x1": 1, "n1": 0, "m1": 1}))
        tickets = service.submit_many(
            make_pair("x1", "x2", "u1", "u2", "ITH"))
        if shape == "fleet":
            for shard in (0, 1):
                service._backends[shard]._dispatch = (
                    lambda op, **args: ShardCall.failed(
                        ShardLostError(f"lost before {op!r}")))
        tickets += service.submit_many(
            make_pair("n1", "n2", "u3", "u4", "ITH")
            + make_pair("m1", "m2", "u5", "u6", "ORD"))
        if shape == "fleet":
            assert service.dead_shards() == {0, 1}
            assert {service.shard_of(ticket.query_id)
                    for ticket in tickets} == {2}
            audit_exactly_once(service)
        service.run_batch()
        histories.append(_outcomes(service, tickets))
    engine, fleet = histories
    assert fleet == engine
    assert engine["pending"] == []


# ----------------------------------------------------------------------
# a shard lost in routing: contained like any other loss
# ----------------------------------------------------------------------


#: The routing requests a bridge's submission makes, each in turn the
#: first to meet the loss: shard 1's membership lookup (lost before the
#: bridge arrives), shard 1's detach of its provider, shard 0's import
#: of it.
ROUTING_LOSSES = {"members": 1, "detach": 1, "import": 0}


def _lose(backend, met: list) -> None:
    """A lost shard: a SIGKILLed worker, or an in-process host whose
    every later call fails as a dead pipe's would (*met* records them)."""
    if hasattr(backend, "_process"):
        backend._process.kill()
        backend._process.join(5)
        return

    def lost(op, **args):
        met.append(op)
        return ShardCall.failed(ShardLostError(f"lost before {op!r}"))

    backend._dispatch = lost


@pytest.mark.parametrize("backend", ["inprocess", "process"])
@pytest.mark.parametrize("point", sorted(ROUTING_LOSSES))
def test_a_loss_met_in_routing_is_contained(backend, point):
    """Providers ``t-a`` (shard 0) and ``t-b`` (shard 1) of a 3-shard
    fleet, then their bridge ``t-c``: the first request to the lost
    shard is the bridge's membership lookup, the detach of ``t-b`` or
    its import.  The bridge submits on the first try, the shard is
    named dead, and a round answers as one engine fed the same history
    does."""
    histories = []
    for shape in ("engine", "fleet"):
        triple = rendezvous_triple("t")
        database = _loss_db()
        database.insert("U", [("user1", "t"), ("user2", "t")])
        if shape == "engine":
            service = D3CEngine(database, mode="batch")
        else:
            service = ShardedCoordinator(
                database, num_shards=3, backend=backend,
                mode="batch", router=ScriptedRouter(3, {"t-a": 0,
                                                        "t-b": 1}))
        with service if shape == "fleet" else nullcontext():
            tickets = service.submit_many(triple[:1])
            tickets += service.submit_many(triple[1:2])
            met: list = []
            if shape == "fleet":
                assert service.shard_of("t-b") == 1
                victim = service._backends[ROUTING_LOSSES[point]]
                if point == "members":
                    _lose(victim, met)
                else:
                    real = getattr(victim, f"call_{point}")

                    def lose_then_call(*args, real=real):
                        _lose(victim, met)
                        return real(*args)

                    setattr(victim, f"call_{point}", lose_then_call)
            tickets += service.submit_many(triple[2:])
            if shape == "fleet":
                assert met[:1] == ([point] if backend == "inprocess"
                                   else [])
                assert service.dead_shards() == {ROUTING_LOSSES[point]}
                assert len({service.shard_of(ticket.query_id)
                            for ticket in tickets}) == 1
                audit_exactly_once(service)
            service.run_batch()
            histories.append(_outcomes(service, tickets))
    engine, fleet = histories
    assert fleet == engine
    assert engine["tickets"]["t-c"][0] == "answered"


# ----------------------------------------------------------------------
# a live shard failing a submission
# ----------------------------------------------------------------------


@pytest.mark.parametrize("adopted", [False, True])
def test_a_failed_submit_block_registers_what_the_shard_adopted(
        monkeypatch, adopted):
    """Shard 1 of a 2-shard fleet fails its ``submit_block`` — before
    adopting the pair, or after.  The coordinator's registration then
    matches the shard: ids it did not adopt are unregistered, so a
    retry is accepted and answers; ids it adopted stay pending, as on
    one engine whose drain raised, so a retry is refused."""
    coordinator = ShardedCoordinator(
        _loss_db(), num_shards=2, mode="batch",
        router=ScriptedRouter(2, {"u-a": 1}))
    engine = coordinator._backends[1].engine
    real_submit = engine.submit_records

    def failing_submit(records):
        if adopted:
            real_submit(records)
        raise RuntimeError("submit_block failed")

    monkeypatch.setattr(engine, "submit_records", failing_submit)
    pair = make_pair("u-a", "u-b", "u1", "u2", "ITH")
    with pytest.raises(RuntimeError, match="submit_block failed"):
        coordinator.submit_many(pair)
    assert coordinator.dead_shards() == set()
    audit_exactly_once(coordinator)
    monkeypatch.undo()
    if adopted:
        assert coordinator.pending_ids() == ["u-a", "u-b"]
        with pytest.raises(ValidationError, match="already"):
            coordinator.submit_many(pair)
        return
    assert coordinator.pending_ids() == []
    coordinator.submit_many(pair)
    assert coordinator.run_batch() == 2
    assert coordinator.pending_ids() == []
    audit_exactly_once(coordinator)


@pytest.mark.parametrize("backend", ["inprocess", "process"])
def test_a_block_adopted_before_its_drain_failed_still_settles(backend):
    """An incremental shard adopts one block: the answerable pair
    ``g-a`` / ``g-b``, then the pair ``u-a`` / ``u-b``, whose
    comparison reads an ``any`` column holding text.  ``g-a``'s drain
    answers its pair, then ``u-a``'s raises.  The fleet does what one
    engine does: ``g-a`` and ``g-b`` answered (their tickets fire on
    the settlement stream, a retry of ``g-a`` is refused), ``u-a`` /
    ``u-b`` pending — and once the row is mended a later round answers
    them too: the shard reports every settlement of the queries it
    adopted, not only those of blocks that returned."""
    def poisoned_db():
        database = _loss_db()
        database.create_table("W", "a text", "v any")
        database.insert("W", [("u1", "text")])
        return database

    block = make_pair("g-a", "g-b", "u3", "u4", "ITH")
    for query_id, user, partner in (("u-a", "u1", "u2"),
                                    ("u-b", "u2", "u1")):
        value = Variable("v")
        block.append(EntangledQuery(
            query_id=query_id, head=(atom("R", user, "ITH"),),
            postconditions=(atom("R", partner, "ITH"),),
            body=(atom("F", user, partner), atom("W", "u1", value)),
            body_comparisons=(Comparison(value, "<", Constant(5)),)))

    def raise_mid_block(service) -> list:
        fired = []
        service.on_settle = fired.append
        with pytest.raises(Exception, match="not supported"):
            service.submit_many(block)
        assert service.pending_ids() == ["u-a", "u-b"]
        assert service.metrics_snapshot()["counters"]["answered"] == 2
        with pytest.raises(ValidationError, match="already used"):
            service.submit(block[0])
        return [(ticket.query_id, outcome(ticket)) for ticket in fired]

    expected = raise_mid_block(D3CEngine(poisoned_db(),
                                         mode="incremental"))
    assert [query_id for query_id, _ in expected] == ["g-a", "g-b"]
    with ShardedCoordinator(poisoned_db(), num_shards=2, backend=backend,
                            mode="incremental",
                            router=ScriptedRouter(2, {"g-a": 1, "u-a": 1})
                            ) as coordinator:
        assert raise_mid_block(coordinator) == expected
        assert {coordinator.shard_of(query_id)
                for query_id in ("u-a", "u-b")} == {1}
        audit_exactly_once(coordinator)
        coordinator.apply_mutations([("delete", "W", [("u1", "text")]),
                                     ("insert", "W", [("u1", 3)])])
        coordinator.run_batch()
        assert coordinator.pending_ids() == []
        assert coordinator.metrics_snapshot()["counters"]["answered"] == 4
        audit_exactly_once(coordinator)


def test_a_group_no_shard_takes_settles_failed_and_frees_its_ids(
        monkeypatch):
    """A bridge migrates ``t-b`` from shard 1 to shard 0, and both
    shards refuse the import — the move and the restore.  ``t-b``
    left the fleet: its ticket fails ``STALE`` (counted, retryable),
    it leaves the coordinator's maps, and its id is free, so a retry
    of it and the bridge is accepted and answers."""
    database = _loss_db()
    database.insert("U", [("user1", "t"), ("user2", "t")])
    coordinator = ShardedCoordinator(
        database, num_shards=2, mode="batch",
        router=ScriptedRouter(2, {"t-a": 0, "t-b": 1}))
    a, b, c = rendezvous_triple("t")
    coordinator.submit(a)
    lost = coordinator.submit(b)
    for backend in coordinator._backends:
        monkeypatch.setattr(
            backend, "call_import",
            lambda records: ShardCall.failed(RuntimeError("refused")))
    with pytest.raises(ShardMigrationError):
        coordinator.submit_many([c])
    assert outcome(lost) == ("failed", "stale")
    assert coordinator.pending_ids() == ["t-a"]
    assert coordinator.metrics_snapshot()["counters"]["failed.stale"] == 1
    audit_exactly_once(coordinator)

    monkeypatch.undo()
    coordinator.submit_many([b, c])
    assert coordinator.run_batch() == 3
    assert coordinator.pending_ids() == []
    audit_exactly_once(coordinator)
