"""Guard rails of the durability layer and its ride-along hardening:
the durable wrappers' refusal modes, the replay guards on
:class:`~repro.db.database.Database`, the engine/coordinator restore
preconditions, the salvage path for commands that raise after settling
tickets, and the worker-shutdown escalation
(:func:`repro.shard.process.shutdown_grace_seconds`,
:func:`repro.shard.process._reap`).
"""

from __future__ import annotations

import gc

import pytest

from repro.db import Database
from repro.db.database import TableDelta
from repro.durability import DurableCoordinator, DurableEngine
from repro.engine.engine import D3CEngine
from repro.engine.staleness import ManualClock
from repro.errors import RecoveryError, ValidationError
from repro.lang import parse_ir
from repro.shard import ShardedCoordinator
from repro.shard.process import (DEFAULT_SHUTDOWN_GRACE, _reap,
                                 shutdown_grace_seconds)
from repro.workloads import build_intro_database


def _intro_queries():
    return [
        parse_ir("{Reservation(Jerry, x)} Reservation(Kramer, x) "
                 "<- Flights(x, Paris)", "kramer"),
        parse_ir("{Reservation(Kramer, y)} Reservation(Jerry, y) "
                 "<- Flights(y, Paris), Airlines(y, United)", "jerry"),
    ]


def _durable(cls, wal_dir, **kwargs):
    kwargs.setdefault("clock", ManualClock())
    kwargs.setdefault("sync_every", None)
    kwargs.setdefault("mode", "batch")
    return cls(wal_dir, build_intro_database(), **kwargs)


def _engine(wal_dir, **kwargs):
    return _durable(DurableEngine, wal_dir, **kwargs)


#: The wrapper is one class; its contracts hold over either inner shape.
both_shapes = pytest.mark.parametrize(
    "cls", [DurableEngine, DurableCoordinator],
    ids=["engine", "coordinator"])


# ---------------------------------------------------------------------------
# Wrapper refusal modes


def test_fresh_construction_refuses_existing_state(tmp_path):
    wal_dir = tmp_path / "wal"
    _engine(wal_dir).close()
    with pytest.raises(RecoveryError, match="already holds durable "
                                            "state"):
        _engine(wal_dir)
    with pytest.raises(RecoveryError, match="DurableCoordinator"):
        DurableCoordinator(wal_dir, build_intro_database())


def test_recover_refuses_empty_directory(tmp_path):
    with pytest.raises(RecoveryError, match="nothing to recover"):
        DurableEngine.recover(tmp_path / "nothing")
    assert not DurableEngine.has_state(tmp_path / "nothing")


@both_shapes
def test_durable_service_rejects_rng(tmp_path, cls):
    import random
    with pytest.raises(ValidationError, match="deterministic-only"):
        _durable(cls, tmp_path / "wal", rng=random.Random(1))
    _durable(cls, tmp_path / "wal2").close()
    with pytest.raises(ValidationError, match="deterministic-only"):
        cls.recover(tmp_path / "wal2", rng=random.Random(1))


def test_fresh_construction_requires_database(tmp_path):
    with pytest.raises(ValidationError, match="database is required"):
        DurableEngine(tmp_path / "wal")
    with pytest.raises(ValidationError, match="database is required"):
        DurableCoordinator(tmp_path / "wal2")


@both_shapes
def test_closed_service_refuses_every_command(tmp_path, cls):
    service = _durable(cls, tmp_path / "wal")
    service.close()
    service.close()    # idempotent
    for call in (lambda: service.submit(_intro_queries()[0]),
                 lambda: service.submit_many(_intro_queries()),
                 service.run_batch, service.expire_stale,
                 lambda: service.insert("Flights", [(300, "Oslo")]),
                 service.snapshot, service.sync):
        with pytest.raises(ValidationError, match="closed"):
            call()


@both_shapes
def test_unserializable_submission_has_no_side_effects(tmp_path, cls):
    """The frame is JSON-rendered before execution, so a query the
    wire cannot carry fails with nothing journalled and nothing
    admitted."""
    from repro.core.extensions import AggregateConstraint
    from repro.core.query import EntangledQuery
    from repro.core.terms import Variable, atom
    x = Variable("x")
    aggregate = EntangledQuery(
        query_id=object(), head=(atom("Reservation", "A", x),),
        postconditions=(), body=(atom("Flights", x, "Paris"),),
        aggregates=(AggregateConstraint(
            atoms=(atom("Reservation", "A", x),),
            answer_relations=frozenset({"Reservation"}),
            op=">=", threshold=1),))
    service = _durable(cls, tmp_path / "wal")
    try:
        before = service.commands_applied
        with pytest.raises(ValidationError):
            service.submit(aggregate)
        assert service.commands_applied == before
        assert service.pending_count == 0
        assert service.next_arrival_seq == 0
    finally:
        service.close()


# ---------------------------------------------------------------------------
# Settlements salvaged when a command raises (wal_settle)


@both_shapes
def test_settlements_survive_a_command_that_raises(tmp_path,
                                                   monkeypatch, cls):
    """If ``run_batch`` settles tickets and then dies, the settlements
    were real (their callbacks fired) — a ``wal_settle`` frame keeps
    them durable even though the command itself never happened."""
    wal_dir = tmp_path / "wal"
    service = _durable(cls, wal_dir, snapshot_every=None)
    service.submit_many(_intro_queries())

    real_run_batch = service.service.run_batch

    def poisoned_run_batch():
        result = real_run_batch()
        raise RuntimeError("crash after settling")

    monkeypatch.setattr(service.service, "run_batch",
                        poisoned_run_batch)
    with pytest.raises(RuntimeError, match="crash after settling"):
        service.run_batch()
    assert set(service.answers) == {"jerry", "kramer"}
    assert service.commands_applied == 1    # the submit; not the batch

    del service    # crash without close
    recovered = cls.recover(wal_dir, clock=ManualClock(),
                            sync_every=None, mode="batch")
    try:
        assert set(recovered.answers) == {"jerry", "kramer"}
        assert recovered.pending_count == 0
        assert recovered.commands_applied == 1
        assert recovered.restored_tickets == {}
    finally:
        recovered.close()


def test_answers_and_failures_maps_survive_close_and_recover(tmp_path):
    wal_dir = tmp_path / "wal"
    with _engine(wal_dir) as service:
        service.submit_many(_intro_queries())
        service.run_batch()
        answers = dict(service.answers)
        failures = dict(service.failures)
    assert answers and not failures
    recovered = DurableEngine.recover(wal_dir, clock=ManualClock(),
                                      sync_every=None, mode="batch")
    try:
        assert recovered.answers == answers
        assert recovered.failures == failures
        assert recovered.metrics_snapshot()["counters"]["answered"] \
            == len(answers)
    finally:
        recovered.close()


def test_recovered_engine_refuses_burned_query_ids(tmp_path):
    wal_dir = tmp_path / "wal"
    with _engine(wal_dir) as service:
        service.submit_many(_intro_queries())
        service.run_batch()
    recovered = DurableEngine.recover(wal_dir, clock=ManualClock(),
                                      sync_every=None, mode="batch")
    try:
        with pytest.raises(ValidationError, match="already used"):
            recovered.submit(_intro_queries()[0])
    finally:
        recovered.close()


# ---------------------------------------------------------------------------
# Batched durable mutations and snapshot cadence


def test_apply_mutations_batch_is_one_frame_and_replays(tmp_path):
    wal_dir = tmp_path / "wal"
    service = _engine(wal_dir, snapshot_every=None)
    counts = service.apply_mutations([
        ("insert", "Flights", [(200, "Oslo"), (201, "Oslo")]),
        ("delete", "Flights", [(136, "Rome")]),
    ])
    assert counts == [2, 1]
    assert service.commands_applied == 1    # whole batch, one frame
    rows = set(service.database.table("Flights").rows())
    assert (200, "Oslo") in rows and (136, "Rome") not in rows
    del service    # crash without close: only the log has the batch
    recovered = DurableEngine.recover(wal_dir, clock=ManualClock(),
                                      sync_every=None, mode="batch")
    try:
        assert set(
            recovered.database.table("Flights").rows()) == rows
        assert recovered.commands_applied == 1
    finally:
        recovered.close()


@both_shapes
def test_apply_mutations_validates_before_applying(tmp_path, cls):
    """A bad op anywhere in the batch must leave the database (and the
    journal) untouched — earlier ops in the batch included."""
    wal_dir = tmp_path / "wal"
    with _durable(cls, wal_dir, snapshot_every=None) as service:
        before = set(service.database.table("Flights").rows())
        with pytest.raises(ValidationError, match="unknown mutation op"):
            service.apply_mutations([
                ("insert", "Flights", [(200, "Oslo")]),
                ("upsert", "Flights", [(201, "Oslo")]),
            ])
        with pytest.raises(Exception, match="expects 2 values"):
            service.apply_mutations([
                ("insert", "Flights", [(202, "Oslo")]),
                ("insert", "Flights", [(203, "Oslo", "extra")]),
            ])
        assert set(
            service.database.table("Flights").rows()) == before
        assert service.commands_applied == 0


@both_shapes
def test_snapshot_log_bytes_triggers_on_segment_growth(tmp_path, cls):
    """With the size-based cadence, a snapshot lands once the log
    segment outgrows the threshold — and never before."""
    wal_dir = tmp_path / "wal"
    with _durable(cls, wal_dir, snapshot_every=None,
                  snapshot_log_bytes=1) as service:
        assert service.generation == 0
        service.insert("Flights", [(300, "Oslo")])
        assert service.generation == 1    # any append crosses 1 byte
        assert service.wal_bytes == 0     # fresh segment after snapshot


@both_shapes
def test_snapshot_log_bytes_below_threshold_never_snapshots(tmp_path,
                                                            cls):
    wal_dir = tmp_path / "wal"
    with _durable(cls, wal_dir, snapshot_every=None,
                  snapshot_log_bytes=64 * 1024 * 1024) as service:
        for fno in range(300, 310):
            service.insert("Flights", [(fno, "Oslo")])
        assert service.generation == 0
        assert service.commands_applied == 10


def test_published_fsyncs_count_every_segment_close(tmp_path,
                                                    monkeypatch):
    """``durability.wal_sync_batches`` (the ledger's ``wal.fsyncs``)
    equals the ``WriteAheadLog.sync`` calls actually made, across two
    rotations — a rotated segment's closing fsync included."""
    from repro.durability.wal import WriteAheadLog
    calls = []
    original = WriteAheadLog.sync

    def counting(log):
        calls.append(log.path.name)
        original(log)

    monkeypatch.setattr(WriteAheadLog, "sync", counting)
    service = _engine(tmp_path / "wal", snapshot_every=None,
                      sync_every=8)
    for fno in range(300, 320):
        service.insert("Flights", [(fno, "Oslo")])
    service.snapshot()
    for fno in range(320, 330):
        service.insert("Flights", [(fno, "Oslo")])
    service.snapshot()
    published = service.metrics_snapshot()["counters"][
        "durability.wal_sync_batches"]
    # 20 records: 2 batch syncs + 1 closing; 10 more: 1 + 1 closing.
    assert calls == ["wal-000000.log"] * 3 + ["wal-000001.log"] * 2
    assert published == len(calls)
    service.close()


# ---------------------------------------------------------------------------
# Restore preconditions (engine, coordinator, database)


def test_engine_restore_state_refuses_live_state():
    engine = D3CEngine(build_intro_database(), mode="batch")
    engine.submit(_intro_queries()[0])
    with pytest.raises(RecoveryError, match="live engine state"):
        engine.restore_state(next_seq=8, used_ids=["ghost"],
                             records=[])


def test_engine_restore_state_on_pristine_engine():
    engine = D3CEngine(build_intro_database(), mode="batch")
    engine.restore_state(next_seq=9, used_ids=["ghost"], records=[])
    assert engine.next_arrival_seq == 9
    assert engine.snapshot_state()["used_ids"] == ["ghost"]
    with pytest.raises(ValidationError, match="already used"):
        engine.submit(parse_ir("{Reservation(Jerry, x)} "
                               "Reservation(Kramer, x) "
                               "<- Flights(x, Paris)", "ghost"))


def test_coordinator_restore_state_refuses_live_state():
    coordinator = ShardedCoordinator(build_intro_database(),
                                     num_shards=2, mode="batch")
    try:
        coordinator.submit(_intro_queries()[0])
        with pytest.raises(RecoveryError, match="live"):
            coordinator.restore_state(next_seq=5, used_ids=set(),
                                      records=[])
    finally:
        coordinator.close()


def test_database_reset_version_refuses_live_listeners():
    database = Database()
    database.create_table("T", "n int")

    def listener(delta):
        pass

    database.add_mutation_listener(listener)
    with pytest.raises(RecoveryError, match="listener"):
        database.reset_db_version(40)


def test_database_reset_version_allowed_once_engines_died():
    """Bound-method listeners are weak: a dropped engine stops
    blocking the replica-bootstrap reset."""
    database = Database()
    database.create_table("T", "n int")
    engine = D3CEngine(database, mode="batch")
    with pytest.raises(RecoveryError, match="listener"):
        database.reset_db_version(40)
    del engine
    gc.collect()
    database.reset_db_version(40)
    assert database.db_version == 40


def test_database_apply_delta_out_of_sequence():
    database = Database()
    database.create_table("T", "n int")
    database.insert("T", [(1,)])
    version = database.db_version
    stale = TableDelta("T", ((2,),), (), version)          # replayed
    ahead = TableDelta("T", ((2,),), (), version + 2)       # gap
    for delta in (stale, ahead):
        with pytest.raises(RecoveryError, match="out of sequence"):
            database.apply_delta(delta)
    database.apply_delta(TableDelta("T", ((2,),), (), version + 1))
    assert database.db_version == version + 1
    assert sorted(database.table("T").rows()) == [(1,), (2,)]


# ---------------------------------------------------------------------------
# Worker shutdown escalation (REPRO_SHUTDOWN_TIMEOUT + _reap)


def test_shutdown_grace_default(monkeypatch):
    monkeypatch.delenv("REPRO_SHUTDOWN_TIMEOUT", raising=False)
    assert shutdown_grace_seconds() == DEFAULT_SHUTDOWN_GRACE


def test_shutdown_grace_override(monkeypatch):
    monkeypatch.setenv("REPRO_SHUTDOWN_TIMEOUT", " 0.25 ")
    assert shutdown_grace_seconds() == 0.25


@pytest.mark.parametrize("bogus", ["", "soon", "-1", "0", "1.5s"])
def test_shutdown_grace_rejects_unusable_values(monkeypatch, bogus):
    monkeypatch.setenv("REPRO_SHUTDOWN_TIMEOUT", bogus)
    with pytest.warns(RuntimeWarning, match="REPRO_SHUTDOWN_TIMEOUT"):
        assert shutdown_grace_seconds() == DEFAULT_SHUTDOWN_GRACE


class _FakeProcess:
    """Records the escalation ladder; dies after *dies_after* steps
    (0 = exits during the first join; None = unkillable)."""

    def __init__(self, dies_after):
        self.dies_after = dies_after
        self.calls = []

    def is_alive(self):
        return (self.dies_after is None
                or len(self.calls) < self.dies_after)

    def join(self, timeout=None):
        self.calls.append(("join", timeout))

    def terminate(self):
        self.calls.append(("terminate", None))

    def kill(self):
        self.calls.append(("kill", None))


def test_reap_cooperative_exit_never_escalates():
    process = _FakeProcess(dies_after=1)
    _reap(process, 0.5)
    assert process.calls == [("join", 0.5)]


def test_reap_escalates_to_terminate():
    process = _FakeProcess(dies_after=3)
    _reap(process, 0.5)
    assert process.calls == [("join", 0.5), ("terminate", None),
                             ("join", 0.5)]


def test_reap_escalates_to_kill_and_stays_bounded():
    process = _FakeProcess(dies_after=None)
    _reap(process, 0.5)
    assert process.calls == [("join", 0.5), ("terminate", None),
                             ("join", 0.5), ("kill", None),
                             ("join", 0.5)]


def test_process_backend_close_honours_grace_env(tmp_path, monkeypatch):
    """An end-to-end sweep: a process fleet closes cleanly under a
    tight grace budget (the cooperative stop wins well within it)."""
    monkeypatch.setenv("REPRO_SHUTDOWN_TIMEOUT", "2")
    coordinator = ShardedCoordinator(build_intro_database(),
                                     num_shards=2, backend="process",
                                     mode="batch")
    try:
        tickets = coordinator.submit_many(_intro_queries())
        coordinator.run_batch()
        assert all(ticket.answer is not None for ticket in tickets)
    finally:
        coordinator.close()
