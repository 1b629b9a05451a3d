"""The kill-9 crash-recovery battery (see :mod:`tests.crashkit`).

Each trial launches a child process that drives a durable service
partway through the deterministic dynamic-database scenario and
SIGKILLs itself at a chosen step — after the step's journal frame
landed (``post``) or inside the append itself (``pre_append``, the
log-after-execute contract's hard case).  The parent recovers from the
WAL directory the corpse left behind, resumes the remaining steps, and
requires the full durable state — database text, db_version, arrival
sequence, pending records, tombstones, lifecycle counters, and the
answers/failures maps — to be *byte-identical* to an uncrashed oracle
run of the same scenario.

22 randomized crash points across the single-engine service and both
shard backends, plus the torn-final-record, stale-snapshot-long-tail,
and clean-shutdown controls — and, under the *derived* snapshot
cadence (the one a service gets when its caller names none), kills on,
inside, and on either side of every generation it publishes.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

import crashkit
from repro.durability import SnapshotStore
from repro.engine.futures import TicketState
from repro.engine.staleness import ManualClock
from repro.errors import ValidationError
from repro.lang import parse_ir
from repro.workloads import build_intro_database

CRASHKIT = os.path.join(os.path.dirname(__file__), "crashkit.py")
SNAP_EVERY = 5

_rng = random.Random(2011)
ENGINE_POST = sorted(_rng.sample(range(crashkit.TOTAL_STEPS), 9))
ENGINE_PRE = sorted(_rng.sample(range(crashkit.TOTAL_STEPS), 3))
COORD_POST = sorted(_rng.sample(range(crashkit.TOTAL_STEPS), 5))
COORD_PRE = sorted(_rng.sample(range(crashkit.TOTAL_STEPS), 2))
PROC_POST = sorted(_rng.sample(range(crashkit.TOTAL_STEPS), 3))


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """``(base_text, rounds, serialized_path)`` — derived once here
    and shipped to every child as a file (see crashkit.build_workload
    on why children must not re-derive it)."""
    base_text, rounds = crashkit.build_workload()
    path = tmp_path_factory.mktemp("workload") / "workload.json"
    crashkit.write_workload(path, base_text, rounds)
    return base_text, rounds, path


@pytest.fixture(scope="module")
def oracle(workload, tmp_path_factory):
    """Uncrashed full-run fingerprint per service configuration."""
    base_text, rounds, _ = workload
    cache = {}

    def fingerprint_for(config: str) -> str:
        if config not in cache:
            cls, _ = crashkit.CONFIGS[config]
            wal_dir = tmp_path_factory.mktemp(f"oracle-{config}")
            clock = ManualClock()
            service = cls(wal_dir / "wal",
                          crashkit.fresh_database(base_text),
                          clock=clock,
                          **crashkit.service_kwargs(config, SNAP_EVERY))
            try:
                crashkit.drive(service, clock, rounds, 0,
                               crashkit.TOTAL_STEPS)
                assert service.answers, "oracle answered nothing"
                cache[config] = crashkit.fingerprint(service)
            finally:
                service.close()
        return cache[config]

    return fingerprint_for


def _crash_child(config, wal_dir, workload, crash_step, mode,
                 snap_every=SNAP_EVERY):
    """Run the scenario in a child until it kills itself (or, in
    ``clean`` mode, exits zero)."""
    _, _, workload_path = workload
    completed = subprocess.run(
        [sys.executable, CRASHKIT, config, str(wal_dir),
         str(workload_path), str(crash_step), mode,
         "none" if snap_every is None else str(snap_every)],
        capture_output=True, text=True, timeout=180,
        env={**os.environ, "REPRO_SHUTDOWN_TIMEOUT": "5"})
    expected = 0 if mode == "clean" else -9
    assert completed.returncode == expected, completed.stderr
    return completed


def _recover_and_resume(config, wal_dir, resume_step, workload,
                        snap_every=SNAP_EVERY):
    """Recover the corpse's WAL directory, finish the scenario, and
    return the final-state fingerprint."""
    _, rounds, _ = workload
    cls, _ = crashkit.CONFIGS[config]
    clock = ManualClock()
    service = cls.recover(wal_dir, clock=clock,
                          **crashkit.service_kwargs(config, snap_every))
    try:
        assert service.commands_applied == \
            crashkit.commands_through(config, resume_step)
        crashkit.drive(service, clock, rounds, resume_step,
                       crashkit.TOTAL_STEPS)
        return crashkit.fingerprint(service)
    finally:
        service.close()


@pytest.mark.parametrize("crash_step", ENGINE_POST)
def test_engine_recovers_after_kill9(tmp_path, workload, oracle,
                                     crash_step):
    wal_dir = tmp_path / "wal"
    _crash_child("engine", wal_dir, workload, crash_step, "post")
    got = _recover_and_resume("engine", wal_dir, crash_step + 1,
                              workload)
    assert got == oracle("engine")


@pytest.mark.parametrize("crash_step", ENGINE_PRE)
def test_engine_recovers_from_crash_inside_append(tmp_path, workload,
                                                  oracle, crash_step):
    """The command executed in the doomed process but its frame never
    landed — recovery must treat it as never having happened and
    re-run it."""
    wal_dir = tmp_path / "wal"
    _crash_child("engine", wal_dir, workload, crash_step,
                 "pre_append")
    got = _recover_and_resume("engine", wal_dir, crash_step, workload)
    assert got == oracle("engine")


@pytest.mark.parametrize("crash_step", COORD_POST)
def test_sharded_inprocess_recovers_after_kill9(tmp_path, workload,
                                                oracle, crash_step):
    wal_dir = tmp_path / "wal"
    _crash_child("coord-inprocess", wal_dir, workload, crash_step,
                 "post")
    got = _recover_and_resume("coord-inprocess", wal_dir,
                              crash_step + 1, workload)
    assert got == oracle("coord-inprocess")


@pytest.mark.parametrize("crash_step", COORD_PRE)
def test_sharded_inprocess_recovers_from_crash_inside_append(
        tmp_path, workload, oracle, crash_step):
    wal_dir = tmp_path / "wal"
    _crash_child("coord-inprocess", wal_dir, workload, crash_step,
                 "pre_append")
    got = _recover_and_resume("coord-inprocess", wal_dir, crash_step,
                              workload)
    assert got == oracle("coord-inprocess")


@pytest.mark.parametrize("crash_step", PROC_POST)
def test_sharded_process_backend_recovers_after_kill9(tmp_path,
                                                      workload, oracle,
                                                      crash_step):
    """Multiprocessing fleet: the SIGKILLed parent's workers exit on
    pipe EOF, and recovery re-homes the pending set onto a freshly
    spawned fleet."""
    wal_dir = tmp_path / "wal"
    _crash_child("coord-process", wal_dir, workload, crash_step,
                 "post")
    got = _recover_and_resume("coord-process", wal_dir, crash_step + 1,
                              workload)
    assert got == oracle("coord-process")


def test_recovery_reshapes_the_fleet(tmp_path, workload, oracle):
    """Recovering onto a different shard count re-routes the pending
    set (the snapshot carries state, not fleet shape) and coordinates
    to the same answers."""
    _, rounds, _ = workload
    wal_dir = tmp_path / "wal"
    _crash_child("coord-inprocess", wal_dir, workload, 13, "post")
    clock = ManualClock()
    kwargs = crashkit.service_kwargs("coord-inprocess", SNAP_EVERY)
    kwargs["num_shards"] = 3
    service = crashkit.DurableCoordinator.recover(wal_dir, clock=clock,
                                                  **kwargs)
    try:
        assert service.service.num_shards == 3
        crashkit.drive(service, clock, rounds, 14,
                       crashkit.TOTAL_STEPS)
        assert crashkit.fingerprint(service) == \
            oracle("coord-inprocess")
    finally:
        service.close()


# ---------------------------------------------------------------------------
# The derived cadence: kills around every generation it publishes


@pytest.fixture(scope="module")
def small_workload(tmp_path_factory):
    """The scenario over a database small enough for its log to
    outgrow the state more than once, so the derived cadence — floor
    lowered to a byte — publishes mid-scenario."""
    base_text, rounds = crashkit.build_workload(users=30)
    path = tmp_path_factory.mktemp("small-workload") / "workload.json"
    crashkit.write_workload(path, base_text, rounds)
    return base_text, rounds, path


@pytest.fixture(scope="module")
def derived_oracle(small_workload, tmp_path_factory):
    """Per configuration, from one uncrashed run under the derived
    cadence: the final fingerprint and the steps whose command
    published a generation."""
    base_text, rounds, _ = small_workload
    cache = {}

    def run(config: str):
        if config not in cache:
            cls, _ = crashkit.CONFIGS[config]
            wal_dir = tmp_path_factory.mktemp(f"derived-{config}")
            clock = ManualClock()
            with crashkit.lowered_floor():
                service = cls(
                    wal_dir / "wal", crashkit.fresh_database(base_text),
                    clock=clock,
                    **crashkit.service_kwargs(config, crashkit.DERIVED))
                try:
                    published = crashkit.drive_noting_publications(
                        service, clock, rounds)
                    cache[config] = (crashkit.fingerprint(service),
                                     published)
                finally:
                    service.close()
        return cache[config]

    return run


def _derived_trial(tmp_path, small_workload, derived_oracle, config,
                   publication, kill):
    """Kill *config* at the *publication*-th generation the derived
    cadence publishes — ``kill`` says where relative to it — then
    recover, resume, and compare with the uncrashed run."""
    expected, published = derived_oracle(config)
    assert len(published) >= 2, \
        "the scenario must outgrow its state at least twice"
    step = published[publication]
    crash_step, mode, resume_step = {
        # the generation is published; its segment holds nothing yet
        "after": (step, "post", step + 1),
        # the snapshot is durable; its segment was never opened
        "inside": (step, "mid_publish", step + 1),
        # the frame that would have triggered it never landed
        "before": (step, "pre_append", step),
        # the fresh segment's first append is the one that dies
        "next": (step + 1, "pre_append", step + 1),
    }[kill]
    wal_dir = tmp_path / "wal"
    _crash_child(config, wal_dir, small_workload, crash_step, mode,
                 snap_every=crashkit.DERIVED)
    with crashkit.lowered_floor():
        got = _recover_and_resume(config, wal_dir, resume_step,
                                  small_workload,
                                  snap_every=crashkit.DERIVED)
    assert got == expected


@pytest.mark.parametrize("kill", ["after", "inside", "before", "next"])
@pytest.mark.parametrize("publication", [0, 1], ids=["first", "second"])
def test_engine_recovers_around_derived_publications(
        tmp_path, small_workload, derived_oracle, publication, kill):
    _derived_trial(tmp_path, small_workload, derived_oracle, "engine",
                   publication, kill)


@pytest.mark.parametrize("config, kill",
                         [("coord-inprocess", "after"),
                          ("coord-inprocess", "inside"),
                          ("coord-process", "after")])
def test_fleet_recovers_around_derived_publications(
        tmp_path, small_workload, derived_oracle, config, kill):
    _derived_trial(tmp_path, small_workload, derived_oracle, config,
                   0, kill)


# ---------------------------------------------------------------------------
# Cross-shape recovery: the directory records state, not the shape


def _cross_shape_queries(tag):
    return [
        parse_ir("{Reservation(Jerry, x)} Reservation(Kramer, x) "
                 "<- Flights(x, Paris)", f"kramer-{tag}"),
        parse_ir("{Reservation(Kramer, y)} Reservation(Jerry, y) "
                 "<- Flights(y, Paris), Airlines(y, United)",
                 f"jerry-{tag}"),
    ]


def _cross_shape_loner():
    return parse_ir("{Reservation(Nobody, z)} Reservation(Elaine, z) "
                    "<- Flights(z, Rome)", "elaine")


CROSS_SHAPE = pytest.mark.parametrize(
    "writer, reader",
    [(crashkit.DurableEngine, crashkit.DurableCoordinator),
     (crashkit.DurableCoordinator, crashkit.DurableEngine)],
    ids=["engine-to-fleet", "fleet-to-engine"])
CROSS_KWARGS = dict(sync_every=None, snapshot_every=None, mode="batch",
                    staleness=crashkit.TimeoutStaleness(2.5))


def _assert_history_carried_over(service, burned, next_seq):
    """*service* refuses every id in *burned*, takes the released
    (expired) id back, and continues the arrival counter."""
    assert service.next_arrival_seq == next_seq
    assert service.pending_count == 0
    for query in (_cross_shape_queries("a") + _cross_shape_queries("b")):
        if query.query_id in burned:
            with pytest.raises(ValidationError, match="already used"):
                service.submit(query)
    assert set(service.answers) == burned
    assert service.failures == {"elaine": "stale"}
    retry = service.submit(_cross_shape_loner())
    assert retry.state is TicketState.PENDING
    assert service.next_arrival_seq == next_seq + 1
    assert service.pending_ids() == ["elaine"]


@CROSS_SHAPE
def test_cross_shape_recovery_keeps_burned_ids(tmp_path, writer, reader):
    """``serve --wal-dir D`` then ``serve --wal-dir D --shards 2`` (or
    the reverse): a directory closed by one durable shape and recovered
    by the other still refuses every answered id, keeps an expired id
    retryable, and continues the arrival counter."""
    wal_dir = tmp_path / "wal"
    clock = ManualClock()
    with writer(wal_dir, build_intro_database(), clock=clock,
                **CROSS_KWARGS) as service:
        service.submit_many(_cross_shape_queries("a")
                            + [_cross_shape_loner()])
        assert service.run_batch() == 2
        clock.advance(3.0)
        assert service.expire_stale() == 1
    recovered = reader.recover(wal_dir, clock=clock, **CROSS_KWARGS)
    try:
        assert recovered.restored_tickets == {}
        _assert_history_carried_over(
            recovered, {"kramer-a", "jerry-a"}, next_seq=3)
    finally:
        recovered.close()
    # And back again: what the second shape snapshots, the first reads.
    back = writer.recover(wal_dir, clock=clock, **CROSS_KWARGS)
    try:
        assert set(back.restored_tickets) == {"elaine"}
        assert back.next_arrival_seq == 4
        with pytest.raises(ValidationError, match="already used"):
            back.submit(_cross_shape_queries("a")[0])
    finally:
        back.close()


@CROSS_SHAPE
def test_cross_shape_recovery_from_snapshot_plus_log_suffix(
        tmp_path, writer, reader):
    """The crashed variant: some ids were burned by the snapshot (in
    the writer's dialect), others only by log frames after it — the
    reader must refuse both kinds."""
    wal_dir = tmp_path / "wal"
    clock = ManualClock()
    service = writer(wal_dir, build_intro_database(), clock=clock,
                     **CROSS_KWARGS)
    service.submit_many(_cross_shape_queries("a"))
    assert service.run_batch() == 2
    service.snapshot()              # "a" burned by the snapshot
    service.submit_many(_cross_shape_queries("b")
                        + [_cross_shape_loner()])
    assert service.run_batch() == 2    # "b" burned by log frames only
    clock.advance(3.0)
    assert service.expire_stale() == 1
    assert service.wal_bytes > 0
    del service                     # crash: no final snapshot
    recovered = reader.recover(wal_dir, clock=clock, **CROSS_KWARGS)
    try:
        _assert_history_carried_over(
            recovered, {"kramer-a", "jerry-a", "kramer-b", "jerry-b"},
            next_seq=5)
    finally:
        recovered.close()


def test_torn_final_record_drops_exactly_one_command(tmp_path,
                                                     workload, oracle):
    """Tear the last journalled frame (a machine-crash artifact); the
    torn command never happened, everything before it survives, and
    resuming from the previous step reaches the oracle state."""
    wal_dir = tmp_path / "wal"
    crash_step = 18    # a submit step; its frame is the segment's tail
    _crash_child("engine", wal_dir, workload, crash_step, "post")
    store = SnapshotStore(wal_dir)
    log_path = store.log_path(store.generations()[-1])
    data = log_path.read_bytes()
    assert len(data) > 4
    log_path.write_bytes(data[:-4])
    got = _recover_and_resume("engine", wal_dir, crash_step, workload)
    assert got == oracle("engine")


def test_stale_snapshot_with_long_tail(tmp_path, workload, oracle):
    """Automatic snapshots disabled: recovery replays the entire run
    from generation 0's snapshot plus a 6-round log suffix."""
    wal_dir = tmp_path / "wal"
    _crash_child("engine", wal_dir, workload,
                 crashkit.TOTAL_STEPS - 1, "post", snap_every=None)
    store = SnapshotStore(wal_dir)
    assert store.generations() == [0]
    got = _recover_and_resume("engine", wal_dir, crashkit.TOTAL_STEPS,
                              workload, snap_every=None)
    assert got == oracle("engine")


def test_clean_shutdown_recovers_instantly(tmp_path, workload, oracle):
    """The no-crash control: a closed service reopens from its final
    snapshot with nothing to replay."""
    wal_dir = tmp_path / "wal"
    _crash_child("engine", wal_dir, workload, 0, "clean")
    store = SnapshotStore(wal_dir)
    _, _, records, clean = store.load_newest()
    assert records == [] and clean
    got = _recover_and_resume("engine", wal_dir, crashkit.TOTAL_STEPS,
                              workload)
    assert got == oracle("engine")
