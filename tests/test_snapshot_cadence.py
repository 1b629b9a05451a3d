"""The derived snapshot cadence (:mod:`repro.durability.service`).

A durable service whose caller names no cadence publishes a new
generation once the live log segment has grown to the byte length of
the snapshot that opened it (floored by ``SNAPSHOT_FLOOR_BYTES``).
Four contracts:

* **the rule** — under random command histories on both durable
  shapes the live segment never reaches its threshold without a
  publication, and every snapshot but the newest is paid for by at
  least as many log bytes after it, so lifetime snapshot bytes stay
  within the log's plus the last two snapshots (and within the
  ``2 x log + first + closing`` the design doc quotes);
* **the served shape of the defect it replaces** — 600 commands over
  a state that grows with every answer publish a handful of
  generations, not one per 64 commands of an ever-larger state;
* **the overrides** — ``snapshot_every=N``, ``snapshot_every=None``
  and ``snapshot_log_bytes=N`` mean what they always meant, and naming
  any of them switches the derived rule off;
* **recovery** — a directory abandoned mid-history under the derived
  cadence recovers (under it) to the uninterrupted run's state.  The
  kill-9 arm lives with the rest of the battery, in
  :mod:`tests.test_crash_recovery`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import crashkit
from repro.durability import (DurableCoordinator, DurableEngine,
                              SnapshotStore)
from repro.durability import service as durable_service
from repro.engine.staleness import ManualClock, TimeoutStaleness
from repro.lang import parse_ir
from repro.workloads import (build_flight_database, build_intro_database,
                             churn_rounds, generate_social_network)

both_shapes = pytest.mark.parametrize(
    "cls", [DurableEngine, DurableCoordinator],
    ids=["engine", "coordinator"])


def _pair(tag):
    return [
        parse_ir("{Reservation(Jerry, x)} Reservation(Kramer, x) "
                 "<- Flights(x, Paris)", f"kramer-{tag}"),
        parse_ir("{Reservation(Kramer, y)} Reservation(Jerry, y) "
                 "<- Flights(y, Paris), Airlines(y, United)",
                 f"jerry-{tag}"),
    ]


def _loner(tag):
    return parse_ir("{Reservation(Nobody, z)} Reservation(Elaine, z) "
                    "<- Flights(z, Rome)", f"elaine-{tag}")


def _durability(service) -> dict:
    """The journal's ``durability.*`` counters, by their short names."""
    return {name.partition(".")[2]: value for name, value
            in service.metrics_snapshot()["counters"].items()
            if name.startswith("durability.")}


def _intro_service(cls, wal_dir, clock=None, **kwargs):
    return cls(wal_dir, build_intro_database(),
               clock=clock or ManualClock(), sync_every=None,
               mode="batch", **kwargs)


# ---------------------------------------------------------------------------
# (a) the rule, under random histories


COMMANDS = st.lists(
    st.sampled_from(["pair", "loner", "block", "run_batch", "mutate",
                     "expire"]),
    min_size=1, max_size=40)


def _apply(service, clock, command, index):
    if command == "pair":
        for query in _pair(index):
            service.submit(query)
    elif command == "loner":
        service.submit(_loner(index))
    elif command == "block":
        service.submit_many(_pair(index) + [_loner(index)])
    elif command == "run_batch":
        service.run_batch()
    elif command == "mutate":
        service.apply_mutations(
            [("insert", "Flights", [(1000 + index, "Oslo")]),
             ("delete", "Flights", [(999 + index, "Oslo")])])
    else:
        clock.advance(1.0)
        service.expire_stale()


@both_shapes
@pytest.mark.parametrize("floor", [1, 4096])
@settings(max_examples=25, deadline=None)
@given(commands=COMMANDS)
def test_segment_never_outgrows_the_snapshot_that_opened_it(
        tmp_path_factory, cls, floor, commands):
    wal_dir = tmp_path_factory.mktemp("cadence") / "wal"
    store = SnapshotStore(wal_dir)
    clock = ManualClock()
    with crashkit.lowered_floor(floor):
        service = _intro_service(cls, wal_dir, clock,
                                 staleness=TimeoutStaleness(2.5))
        sizes = [store.snapshot_path(0).stat().st_size]
        try:
            for index, command in enumerate(commands):
                _apply(service, clock, command, index)
                generation = service.generation
                if generation == len(sizes):
                    sizes.append(
                        store.snapshot_path(generation).stat().st_size)
                assert generation == len(sizes) - 1
                # Had the segment reached the threshold, the command
                # that took it there would have published.
                assert service.wal_bytes < max(sizes[-1], floor)
        finally:
            service.close()
    sizes.append(store.snapshot_path(service.generation).stat().st_size)
    stats = _durability(service)
    assert stats["snapshot_bytes"] == sum(sizes)
    assert stats["snapshots_taken"] == len(sizes)
    # Every generation but the live one was followed by at least its
    # own size in log before the next was published ...
    assert sum(sizes[:-2]) <= stats["wal_bytes"]
    # ... and a state is its first snapshot plus what its log added.
    assert stats["snapshot_bytes"] <= (2 * stats["wal_bytes"]
                                       + sizes[0] + sizes[-1])


# ---------------------------------------------------------------------------
# (b) the served shape of the defect, as counters


def test_served_epoch_publishes_a_handful_of_generations(tmp_path):
    """The ``served_durable_rounds`` frames through a stock
    ``DurableEngine``: 200 rounds of two submit frames and a batch over
    the 4 000-user database, every answer retained in the state.  A
    64-command cadence re-encodes that growing state nine times
    (4.8 bytes of snapshot per byte of log); the derived cadence
    publishes when the log has paid for it."""
    network = generate_social_network(num_users=4_000, seed=0)
    rounds = churn_rounds(network, 200, 40, answerable_fraction=1.0,
                          seed=12)
    with DurableEngine(tmp_path / "wal", build_flight_database(network),
                       mode="batch") as engine:
        for block in rounds:
            half = len(block) // 2
            engine.submit_many(block[:half])
            engine.submit_many(block[half:])
            engine.run_batch()
        stats = _durability(engine)
        assert stats["commands_applied"] == 600
        assert len(engine.answers) > 5_000    # the state did grow
        assert stats["snapshots_taken"] <= 4
        assert stats["snapshot_bytes"] <= 1.5 * stats["wal_bytes"]


# ---------------------------------------------------------------------------
# (c) the explicit knobs are overrides


def _generations(service, commands=9):
    seen = []
    for fno in range(commands):
        service.insert("Flights", [(2000 + fno, "Oslo")])
        seen.append(service.generation)
    return seen


@both_shapes
def test_explicit_cadences_switch_the_derived_rule_off(tmp_path, cls):
    """With the floor at one byte the derived rule publishes every few
    commands of this tiny state; under a named cadence that cadence is
    the only trigger left."""
    with crashkit.lowered_floor():
        with _intro_service(cls, tmp_path / "count",
                            snapshot_every=3) as service:
            assert _generations(service) == [0, 0, 1, 1, 1, 2, 2, 2, 3]
        with _intro_service(cls, tmp_path / "never",
                            snapshot_every=None) as service:
            assert _generations(service) == [0] * 9
        with _intro_service(cls, tmp_path / "fixed-size",
                            snapshot_log_bytes=1 << 30) as service:
            assert _generations(service) == [0] * 9
        with _intro_service(cls, tmp_path / "every-append",
                            snapshot_every=None,
                            snapshot_log_bytes=1) as service:
            assert _generations(service) == list(range(1, 10))
        with _intro_service(cls, tmp_path / "derived") as service:
            assert _generations(service, 30)[-1] >= 2


@both_shapes
def test_stock_floor_keeps_a_small_state_from_publishing(tmp_path, cls):
    with _intro_service(cls, tmp_path / "wal") as service:
        assert _generations(service, 30) == [0] * 30
        assert service.wal_bytes < durable_service.SNAPSHOT_FLOOR_BYTES


@both_shapes
def test_snapshot_bytes_ride_the_metrics_surface(tmp_path, cls):
    store = SnapshotStore(tmp_path / "wal")
    with _intro_service(cls, tmp_path / "wal") as service:
        first = store.snapshot_path(0).stat().st_size
        assert _durability(service)["snapshot_bytes"] == first
        service.submit_many(_pair("m"))
        service.run_batch()
        service.snapshot()
        total = first + store.snapshot_path(1).stat().st_size
        metrics = service.metrics_snapshot()
        assert metrics["counters"]["durability.snapshot_bytes"] == total
        assert _durability(service)["snapshots_taken"] == 2


def test_cli_passes_a_cadence_only_when_one_is_named(tmp_path, capsys):
    """``--snapshot-every`` defaults to the derived cadence (here: no
    publication for a two-command run of a tiny state, on a fresh
    start and after recovery); an explicit N keeps its meaning."""
    import os
    from repro.cli import main
    examples = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples", "data")
    run = ["coordinate", os.path.join(examples, "intro.data"),
           os.path.join(examples, "intro.eq"), "--wal-dir"]

    def generation(*arguments):
        assert main(run + list(arguments)) == 0
        summary = capsys.readouterr().out.splitlines()[-1].split()
        return int(summary[summary.index("generation") + 1])

    derived = str(tmp_path / "derived")
    assert generation(derived) == 0
    # close() published 1, recovery 2; the run itself still none.
    assert generation(derived) == 2
    assert generation(str(tmp_path / "every"),
                      "--snapshot-every", "1") == 2


# ---------------------------------------------------------------------------
# (d) recovery under the derived cadence


@pytest.fixture(scope="module")
def scenario():
    """crashkit's scenario over a state its log outgrows twice."""
    return crashkit.build_workload(users=30)


def _derived(config, wal_dir, base_text=None):
    cls, _ = crashkit.CONFIGS[config]
    clock = ManualClock()
    kwargs = crashkit.service_kwargs(config, crashkit.DERIVED)
    if base_text is None:
        return cls.recover(wal_dir, clock=clock, **kwargs), clock
    return cls(wal_dir, crashkit.fresh_database(base_text), clock=clock,
               **kwargs), clock


@pytest.mark.parametrize("config", ["engine", "coord-inprocess"])
def test_abandoned_directory_recovers_to_the_uninterrupted_run(
        tmp_path, scenario, config):
    base_text, rounds = scenario
    with crashkit.lowered_floor():
        service, clock = _derived(config, tmp_path / "whole", base_text)
        with service:
            published = crashkit.drive_noting_publications(
                service, clock, rounds)
            expected = crashkit.fingerprint(service)
        assert len(published) >= 2
        # Abandon right on a publication (an empty segment), one
        # command into a fresh segment, and deep into a long one.
        for stop in (published[0] + 1, published[0] + 2, published[1]):
            wal_dir = tmp_path / f"abandoned-{stop}"
            service, clock = _derived(config, wal_dir, base_text)
            crashkit.drive(service, clock, rounds, 0, stop)
            generation = service.generation
            del service    # crash: no close, no final snapshot
            recovered, clock = _derived(config, wal_dir)
            with recovered:
                assert recovered.generation == generation + 1
                assert recovered.commands_applied == \
                    crashkit.commands_through(config, stop)
                crashkit.drive(recovered, clock, rounds, stop,
                               crashkit.TOTAL_STEPS)
                assert crashkit.fingerprint(recovered) == expected
