"""Unit tests for the shard subsystem: router, migration protocol,
engine export/import hooks, and coordinator bookkeeping."""

from __future__ import annotations

import pytest

from repro.engine.engine import D3CEngine, PendingRecord
from repro.engine.staleness import ManualClock, ManualStaleness, \
    NeverStale, TimeoutStaleness
from repro.errors import ValidationError
from repro.shard import InProcessBackend, ShardRouter, ShardedCoordinator
from repro.core.query import EntangledQuery
from repro.core.terms import Variable, atom
from repro.dataio import record_from_payload, record_to_payload
from repro.shard.process import staleness_from_spec, staleness_to_spec
from repro.shard.router import atom_route_key, fingerprint


def make_pair(query_id_left, query_id_right, left, right, destination):
    """A mutually coordinating specific pair (same shape as the
    conftest helper; inlined because `import conftest` is ambiguous
    between the tests/ and benchmarks/ conftests in full-suite runs)."""
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


@pytest.fixture
def database(small_flight_db):
    return small_flight_db


# ----------------------------------------------------------------------
# router
# ----------------------------------------------------------------------


def test_route_key_ignores_variables_and_renaming(kramer_query):
    key_before = atom_route_key(kramer_query.postconditions[0])
    renamed = kramer_query.rename_apart()
    key_after = atom_route_key(renamed.postconditions[0])
    assert key_before == key_after
    assert key_before == ("R", 2, ((0, "Jerry"),))


def test_fingerprint_is_stable_across_processes():
    # A frozen value: catches accidental use of salted builtin hash()
    # (shard workers must agree with the coordinator on every route).
    assert fingerprint(("R", 2, ((0, "Jerry"),))) \
        == fingerprint(("R", 2, ((0, "Jerry"),)))
    assert fingerprint("x") != fingerprint("y")


def test_router_routes_partners_to_one_home(kramer_query, jerry_query):
    router = ShardRouter(4)
    assert 0 <= router.home_shard(kramer_query) < 4
    # Kramer's pc names Jerry; Jerry's head names Jerry: the demand
    # anchor means Kramer's home is where Jerry's head will be sought.
    assert router.anchor_atom(kramer_query) \
        == kramer_query.postconditions[0]


def test_router_rejects_zero_shards():
    with pytest.raises(ValueError):
        ShardRouter(0)


# ----------------------------------------------------------------------
# engine export/import hooks
# ----------------------------------------------------------------------


def test_export_import_moves_a_component(database):
    left = D3CEngine(database, mode="batch")
    right = D3CEngine(database, mode="batch")
    pair = make_pair("a", "b", "user1", "user2", "ITH")
    for query in pair:
        left.submit(query)
    members = left.component_members("a")
    assert members == ["a", "b"]

    records = left.export_component(members)
    assert [record.query.query_id for record in records] == ["a", "b"]
    assert left.pending_count == 0
    assert left.partition_sizes() == []

    tickets = right.import_pending(records)
    assert sorted(tickets) == ["a", "b"]
    assert right.pending_ids() == ["a", "b"]
    assert right.partition_sizes() == [2]
    # The imported component coordinates on the next round if the
    # pair's users are co-located; either way the round must not blow
    # up and the arrival order must be the original one.
    right.run_batch()


def test_export_requires_pending_queries(database):
    engine = D3CEngine(database, mode="batch")
    with pytest.raises(ValidationError):
        engine.export_component(["ghost"])


def test_import_preserves_arrival_order_across_engines(database):
    source = D3CEngine(database, mode="batch")
    target = D3CEngine(database, mode="batch")
    early, late = make_pair("early", "late", "user3", "user4", "JFK")
    source.submit_records([PendingRecord(early.rename_apart(), 10, 0.0)])
    target.submit_records([PendingRecord(late.rename_apart(), 20, 0.0)])
    target.import_pending(source.export_component(["early"]))
    # Arrival order (not import order) governs the pending view.
    assert target.pending_ids() == ["early", "late"]


def test_import_preserves_staleness_deadlines(database):
    clock = ManualClock()
    source = D3CEngine(database, mode="batch",
                       staleness=TimeoutStaleness(2.0), clock=clock)
    target = D3CEngine(database, mode="batch",
                       staleness=TimeoutStaleness(2.0), clock=clock)
    queries = make_pair("x", "y", "user5", "user6", "LAX")
    for query in queries:
        source.submit(query)
    clock.advance(1.5)
    target.import_pending(source.export_component(["x", "y"]))
    # The submission instant migrated with the queries: half a tick
    # later they are overdue on the target.
    clock.advance(1.0)
    assert target.expire_stale() == 2


def test_duplicate_import_rejected(database):
    source = D3CEngine(database, mode="batch")
    target = D3CEngine(database, mode="batch")
    pair = make_pair("p", "q", "user1", "user2", "SFO")
    for query in pair:
        source.submit(query)
        target.submit(query)
    with pytest.raises(ValidationError):
        target.import_pending(source.export_component(["p", "q"]))


def test_import_is_atomic_on_collision(database):
    """A rejected import applies *nothing* — the migration abort path
    relies on this to keep the component existing exactly once."""
    source = D3CEngine(database, mode="batch")
    target = D3CEngine(database, mode="batch")
    importable = make_pair("f1", "f2", "user1", "user2", "ITH")
    clash = make_pair("c1", "cpartner", "user3", "user4", "JFK")[0]
    for query in importable + [clash]:
        source.submit(query)
    target.submit(make_pair("c1", "cx", "user5", "user6", "LAX")[0])
    records = source.export_component(["f1", "f2", "c1"])
    with pytest.raises(ValidationError):
        target.import_pending(records)
    # Nothing from the batch leaked in ahead of the collision.
    assert target.pending_ids() == ["c1"]
    assert target.partition_sizes() == [1]


class _FakeConnection:
    """Scripted duplex pipe for driving _worker_main in-process."""

    def __init__(self, messages):
        self.messages = list(messages)
        self.sent = []

    def recv(self):
        if not self.messages:
            raise EOFError
        return self.messages.pop(0)

    def send(self, payload):
        self.sent.append(payload)

    def close(self):
        pass


def test_worker_error_replies_carry_prior_settlements():
    """A worker command that settles tickets and then fails must ship
    the settlements with the error reply — withholding them would
    desynchronize the coordinator's tickets from the shard engine."""
    from repro.shard.process import _worker_main

    # An answerable pair (the tiny U table has data for both bodies)
    # plus a pair whose bodies read U at the wrong arity: a front door
    # refuses them, but a shard adopts the records it is sent without
    # validating them again, so this hand-built frame admits them —
    # unevaluable: one run_batch settles the first component, then
    # raises on the second.
    town = Variable("c")
    good = [EntangledQuery(query_id="g1",
                           head=(atom("R", "A", "d"),),
                           postconditions=(atom("R", "B", "d"),),
                           body=(atom("U", "a", town),)),
            EntangledQuery(query_id="g2",
                           head=(atom("R", "B", "d"),),
                           postconditions=(atom("R", "A", "d"),),
                           body=(atom("U", "b", Variable("c2")),))]
    bad = [EntangledQuery(query_id="b1",
                          head=(atom("R", "X", "d"),),
                          postconditions=(atom("R", "Y", "d"),),
                          body=(atom("U", Variable("m"),),)),
           EntangledQuery(query_id="b2",
                          head=(atom("R", "Y", "d"),),
                          postconditions=(atom("R", "X", "d"),),
                          body=(atom("U", Variable("m2"),),))]
    config = {
        "database_text": "table U user:text town:text\n"
                         "row U a x\nrow U b x\n",
        "staleness": ("never",),
        "engine": {"mode": "batch", "safety": "off"},
    }
    connection = _FakeConnection([
        (1, "submit_block", {
            "records": [record_to_payload(
                            PendingRecord(query.rename_apart(), seq, 0.0))
                        for seq, query in enumerate(good + bad)]}),
        (2, "run_batch", {"now": 0.0}),
    ])
    _worker_main(connection, config)

    ready, submit_reply, batch_reply = connection.sent
    assert ready == (0, "ok", "ready", [])
    assert submit_reply[:2] == (1, "ok")
    req_id, status, payload, events = batch_reply
    assert req_id == 2
    assert status == "err"
    assert "arity" in payload
    # The good pair's settlements shipped despite the failure.
    assert sorted(event[1] for event in events) == ["g1", "g2"]
    assert all(event[0] == "answered" for event in events)


# ----------------------------------------------------------------------
# two-phase migration protocol (backend level)
# ----------------------------------------------------------------------


@pytest.fixture
def backend_pair(database):
    kwargs = dict(mode="batch", safety="off")
    return (InProcessBackend(0, database, dict(kwargs)),
            InProcessBackend(1, database, dict(kwargs)))


def _submit_pair(backend, ids, users, destination, seqs):
    pair = [query.rename_apart() for query in
            make_pair(ids[0], ids[1], users[0], users[1], destination)]
    backend.call_submit_block([PendingRecord(query, seq, 0.0)
                               for query, seq in zip(pair, seqs)]).result()
    return pair


def test_detach_import_moves_exactly_once(backend_pair):
    source, target = backend_pair
    pair = _submit_pair(source, ("m1", "m2"), ("user1", "user2"), "ITH",
                        [0, 1])
    source.call_detach(["m1", "m2"]).result()
    # Detached queries are gone: the source can no longer coordinate
    # or expire them, and keeps no copy.
    assert source.call_pending().result() == []
    # The caller imports its own copy of the records.
    target.call_import([PendingRecord(query, seq, 0.0)
                        for seq, query in enumerate(pair)]).result()
    assert target.call_pending().result() == ["m1", "m2"]
    with pytest.raises(ValidationError):
        source.call_detach(["m1", "m2"]).result()


def test_reimport_restores_a_detached_component(backend_pair):
    source, _ = backend_pair
    pair = _submit_pair(source, ("a1", "a2"), ("user3", "user4"), "JFK",
                        [0, 1])
    source.call_detach(["a1", "a2"]).result()
    assert source.call_pending().result() == []
    source.call_import([PendingRecord(query, seq, 0.0)
                        for seq, query in enumerate(pair)]).result()
    assert source.call_pending().result() == ["a1", "a2"]
    assert source.call_partition_sizes().result() == [2]


def test_failed_export_detaches_nothing(database):
    """Export is all or nothing: one id that is not pending leaves
    every named query pending and the component whole."""
    engine = D3CEngine(database, mode="batch")
    for query in make_pair("r1", "r2", "user1", "user2", "ITH"):
        engine.submit(query)
    with pytest.raises(ValidationError):
        engine.export_component(["r1", "ghost"])
    assert engine.pending_ids() == ["r1", "r2"]
    assert engine.partition_sizes() == [2]
    records = engine.export_component(["r1", "r2"])
    assert [record.query.query_id for record in records] == ["r1", "r2"]
    assert engine.pending_ids() == []


def test_wire_records_round_trip(database):
    engine = D3CEngine(database, mode="batch")
    pair = make_pair("w1", "w2", "user1", "user2", "ORD")
    for query in pair:
        engine.submit(query)
    records = engine.export_component(["w1", "w2"])
    for record in records:
        rebuilt = record_from_payload(record_to_payload(record))
        assert rebuilt == record


# ----------------------------------------------------------------------
# coordinator bookkeeping and guard rails
# ----------------------------------------------------------------------


def test_coordinator_rejects_rng_and_bad_backend(database):
    import random
    with pytest.raises(ValidationError):
        ShardedCoordinator(database, rng=random.Random(1))
    with pytest.raises(ValueError):
        ShardedCoordinator(database, backend="carrier-pigeon")


def test_coordinator_rejects_reused_ids(database):
    coordinator = ShardedCoordinator(database, num_shards=2)
    pair = make_pair("dup", "other", "user1", "user2", "ITH")
    coordinator.submit(pair[0])
    with pytest.raises(ValidationError):
        coordinator.submit(pair[0])
    with pytest.raises(ValidationError):
        coordinator.submit_many([pair[1], pair[1]])


def test_coordinator_tracks_shard_ownership(database):
    coordinator = ShardedCoordinator(database, num_shards=2,
                                     mode="batch")
    pair = make_pair("own1", "own2", "user1", "user2", "ITH")
    coordinator.submit(pair[0])
    coordinator.submit(pair[1])
    # Partner lookup co-locates the pair regardless of home shards.
    assert coordinator.shard_of("own1") == coordinator.shard_of("own2")
    assert coordinator.pending_count == 2
    assert coordinator.partition_sizes() == [2]


def test_manual_staleness_works_with_inprocess_backend(database):
    policy = ManualStaleness()
    clock = ManualClock()
    coordinator = ShardedCoordinator(database, num_shards=2,
                                     mode="batch", staleness=policy,
                                     clock=clock)
    pair = make_pair("s1", "s2", "user1", "user2", "ITH")
    coordinator.submit_many(pair)
    policy.mark("s1")
    assert coordinator.expire_stale() == 1
    assert coordinator.pending_ids() == ["s2"]


def test_staleness_specs_round_trip_and_reject_custom():
    spec = staleness_to_spec(TimeoutStaleness(2.5))
    assert staleness_from_spec(spec).timeout_seconds == 2.5
    assert isinstance(staleness_from_spec(
        staleness_to_spec(NeverStale())), NeverStale)
    with pytest.raises(ValueError):
        staleness_to_spec(ManualStaleness())


def test_process_backend_requires_wire_staleness(database):
    with pytest.raises(ValueError):
        ShardedCoordinator(database, num_shards=1, backend="process",
                           staleness=ManualStaleness())


def test_coordinator_stats_aggregate(database):
    coordinator = ShardedCoordinator(database, num_shards=2,
                                     mode="batch")
    pair = make_pair("st1", "st2", "user1", "user2", "ITH")
    coordinator.submit_many(pair)
    coordinator.run_batch()
    metrics = coordinator.metrics_snapshot()
    counters = metrics["counters"]
    assert counters["submitted"] == 2
    assert counters["answered"] + metrics["gauges"]["pending"] == 2
    assert counters["coordination_rounds"] >= 1
