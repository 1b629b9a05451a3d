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

One real subprocess kill per configuration and mode — the engine, the
in-process fleet and the process fleet after an append, the engine and
the in-process fleet inside one — plus the torn-final-record,
stale-snapshot-long-tail and clean-shutdown controls, and, under the
*derived* snapshot cadence (the one a service gets when its caller
names none), kills on, inside, and on either side of every generation
it publishes.  The step coverage the sampled crash points below used to
give is the model machine's (:class:`servicekit.ServiceModel`): its
``crash`` rule recovers a copy of the live directory — what a kill -9
leaves, since every append reaches the OS before it returns — under a
drawn durable shape, and its ``journal_full`` rule is the in-process
form of a death inside the append.  Each sampled point names a run of
it on the shape it names: the kit's tour (a crash into another shape
and a full journal among its steps), then seeded histories.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

import crashkit
from repro.durability import SnapshotStore
from repro.engine.staleness import ManualClock
from servicekit import run_model, single

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


#: One real kill per (configuration, mode): the first sampled point.
HONEST = [("engine", "post", ENGINE_POST[0]),
          ("engine", "pre_append", ENGINE_PRE[0]),
          ("coord-inprocess", "post", COORD_POST[0]),
          ("coord-inprocess", "pre_append", COORD_PRE[0]),
          ("coord-process", "post", PROC_POST[0])]


@pytest.mark.parametrize("config, mode, crash_step", HONEST,
                         ids=[f"{config}-{mode}"
                              for config, mode, _ in HONEST])
def test_kill9_recovers_to_the_uncrashed_state(tmp_path, workload,
                                               oracle, config, mode,
                                               crash_step):
    """``post``: the step's frame landed, recovery resumes at the next
    step.  ``pre_append``: the command executed in the doomed process
    but its frame never landed — recovery must treat it as never
    having happened and re-run it.  A SIGKILLed process fleet's
    workers exit on pipe EOF, and recovery re-homes the pending set
    onto a freshly spawned fleet."""
    wal_dir = tmp_path / "wal"
    _crash_child(config, wal_dir, workload, crash_step, mode)
    resume = crash_step + 1 if mode == "post" else crash_step
    got = _recover_and_resume(config, wal_dir, resume, workload)
    assert got == oracle(config)


#: The durable shape each sampled configuration names in the model.
MODEL = {"engine": single("durable-engine"),
         "coord-inprocess": single("durable-fleet", num_shards=2),
         "coord-process": single("durable-fleet-process", num_shards=2)}


@pytest.mark.parametrize("crash_step", ENGINE_POST)
def test_engine_recovers_after_kill9(crash_step):
    run_model(MODEL["engine"], seed=crash_step)


@pytest.mark.parametrize("crash_step", ENGINE_PRE)
def test_engine_recovers_from_crash_inside_append(crash_step):
    run_model(MODEL["engine"], seed=1000 + crash_step)


@pytest.mark.parametrize("crash_step", COORD_POST)
def test_sharded_inprocess_recovers_after_kill9(crash_step):
    run_model(MODEL["coord-inprocess"], seed=crash_step)


@pytest.mark.parametrize("crash_step", COORD_PRE)
def test_sharded_inprocess_recovers_from_crash_inside_append(crash_step):
    run_model(MODEL["coord-inprocess"], seed=1000 + crash_step)


@pytest.mark.parametrize("crash_step", PROC_POST)
def test_sharded_process_backend_recovers_after_kill9(crash_step):
    run_model(MODEL["coord-process"], seed=crash_step)


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


def _cross_shape(writer):
    return single(writer, **({"num_shards": 2} if "fleet" in writer
                             else {}))


CROSS_SHAPE = pytest.mark.parametrize(
    "writer", ["durable-engine", "durable-fleet"],
    ids=["engine-to-fleet", "fleet-to-engine"])


@CROSS_SHAPE
def test_cross_shape_recovery_keeps_burned_ids(writer):
    """``serve --wal-dir D`` then ``serve --wal-dir D --shards 2`` (or
    the reverse): the model's crash rule recovers under engine and
    fleet shapes alike, and its own verdict refuses every burned id."""
    run_model(_cross_shape(writer), seed=15)


@CROSS_SHAPE
def test_cross_shape_recovery_from_snapshot_plus_log_suffix(writer):
    run_model(_cross_shape(writer), seed=16)


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
