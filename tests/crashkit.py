"""Shared machinery of the kill-9 crash-recovery battery.

Not a test module (no ``test_`` prefix): :mod:`tests.test_crash_recovery`
imports the workload/drive helpers and also launches this file as a
*child process* that drives a durable service partway through the
dynamic-database scenario and then SIGKILLs itself — the only honest
way to produce the torn runtime state recovery must cope with.

The workload is deterministic and shared between parent and child:
``ROUNDS`` rounds of the live-mutation scenario, each round being four
*steps* — expire, mutate, submit block, run batch — driven under a
:class:`~repro.engine.staleness.ManualClock` that reads ``r + 1.0``
throughout round ``r``.  A crash point is a global step index plus a
mode:

``post``
    run the step to completion (its journal frame landed), then
    ``kill -9`` — recovery resumes at the *next* step.
``pre_append``
    execute the step but SIGKILL inside the journal append, so the
    command ran in the doomed process's memory and was never
    journalled — by the log-after-execute contract recovery must
    resume at the *same* step.
``mid_publish``
    the step's frame lands and the snapshot generation it triggers is
    published, then SIGKILL before that generation's log segment opens
    — recovery boots from the new snapshot with no segment beside it
    and resumes at the *next* step (the step must publish).
``clean``
    run every step, ``close()`` properly, exit 0 — the no-crash
    control.

Child usage (the parent builds this command line)::

    python tests/crashkit.py CONFIG WAL_DIR WORKLOAD CRASH_STEP MODE \
        SNAP_EVERY

``SNAP_EVERY`` is a command count, ``none`` (never snapshot), or
``derived`` — the cadence a service gets when its caller names none
(a generation once the log segment has outgrown the snapshot it
follows), run with its floor lowered to one byte so that a scenario
this small publishes at all (see :func:`lowered_floor`).
"""

from __future__ import annotations

import os
import signal
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "src"))

from repro.bench.harness import bench_database, bench_network
from repro.dataio import dump_database, load_database
from repro.durability import DurableCoordinator, DurableEngine
from repro.durability import service as durable_service
from repro.engine.staleness import ManualClock, TimeoutStaleness
from repro.workloads.generators import (dynamic_db_rounds,
                                        install_dynamic_tables)

ROUNDS = 6
STEPS_PER_ROUND = 4          # expire, mutate, submit, run_batch
TOTAL_STEPS = ROUNDS * STEPS_PER_ROUND
TTL_SECONDS = 4.5

#: config name -> (service class, extra constructor/recover kwargs)
CONFIGS = {
    "engine": (DurableEngine, {}),
    "coord-inprocess": (DurableCoordinator,
                        {"num_shards": 2, "backend": "inprocess"}),
    "coord-process": (DurableCoordinator,
                      {"num_shards": 2, "backend": "process"}),
}


def build_workload(users: int = 250):
    """The deterministic scenario, derived once by the parent.

    Children never re-derive it: workload generation iterates string
    sets whose order follows the per-process hash seed, so a child
    rebuilding "the same" network would insert rows in a different
    order.  The parent serializes this via :func:`write_workload` and
    children load the identical bytes back.  *users* sizes the
    database (the derived-cadence cases want a state small enough for
    the scenario's log to outgrow it more than once)."""
    network = bench_network(users, seed=3)
    base_text = dump_database(bench_database(network))
    rounds = dynamic_db_rounds(network, ROUNDS, 35, seed=7)
    return base_text, rounds


def write_workload(path, base_text: str, rounds) -> None:
    import json
    from repro.dataio import to_payload
    payload = {
        "database": base_text,
        "rounds": [[[[kind, table, [list(row) for row in rows]]
                     for kind, table, rows in mutations],
                    [to_payload(query) for query in block]]
                   for mutations, block in rounds],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle)


def read_workload(path):
    import json
    from repro.dataio import from_payload
    with open(path) as handle:
        payload = json.load(handle)
    rounds = [([(kind, table, [tuple(row) for row in rows])
                for kind, table, rows in mutations],
               [from_payload(query) for query in block])
              for mutations, block in payload["rounds"]]
    return payload["database"], rounds


def fresh_database(base_text: str):
    database = load_database(base_text)
    install_dynamic_tables(database)
    return database


#: The ``snapshot_every`` a service gets when its caller names none.
DERIVED = "derived"


def service_kwargs(config: str, snapshot_every):
    _, extra = CONFIGS[config]
    return dict(snapshot_every=snapshot_every, sync_every=None,
                mode="batch", staleness=TimeoutStaleness(TTL_SECONDS),
                **extra)


def lowered_floor(floor: int = 1):
    """Patch the derived cadence's floor down to *floor* bytes (a
    context manager): the scenario's log segments are smaller than the
    stock 64 KiB floor, which would otherwise keep them from
    publishing."""
    from unittest import mock
    return mock.patch.object(durable_service, "SNAPSHOT_FLOOR_BYTES",
                             floor)


def commands_through(config: str, steps: int) -> int:
    """Journalled commands after the first *steps* steps completed
    (the engine's mutate step writes deltas, not a command frame)."""
    per_round = 4 if config.startswith("coord") else 3
    full, leftover = divmod(steps, STEPS_PER_ROUND)
    commands = full * per_round
    for k in range(leftover):
        if k != 1 or per_round == 4:
            commands += 1
    return commands


def drive(service, clock: ManualClock, rounds, start_step: int,
          end_step: int) -> None:
    """Run steps ``start_step .. end_step - 1`` of the scenario."""
    for step in range(start_step, end_step):
        r, k = divmod(step, STEPS_PER_ROUND)
        target = r + 1.0
        if target > clock.now():
            clock.advance(target - clock.now())
        mutations, block = rounds[r]
        if k == 0:
            service.expire_stale()
        elif k == 1:
            if isinstance(service, DurableCoordinator):
                service.apply_mutations(mutations)
            else:
                for kind, table, rows in mutations:
                    if kind == "insert":
                        service.database.insert(table, rows)
                    else:
                        service.database.delete_rows(table, rows)
        elif k == 2:
            service.submit_many(block)
        else:
            service.run_batch()


def drive_noting_publications(service, clock: ManualClock,
                              rounds) -> list[int]:
    """Run the whole scenario; returns the steps whose command
    published a snapshot generation (under the derived cadence sizes
    decide them, not a count)."""
    published = []
    for step in range(TOTAL_STEPS):
        before = service.generation
        drive(service, clock, rounds, step, step + 1)
        if service.generation != before:
            published.append(step)
    return published


def fingerprint(service) -> str:
    """The oracle-equivalence surface, rendered byte-stably: database
    text, db_version, arrival sequence, pending records (query + seq +
    submission instant), tombstones, lifecycle counters, and the full
    answers/failures maps."""
    import json
    return json.dumps(service.snapshot_state(), sort_keys=True,
                      ensure_ascii=False)


def main(argv) -> int:
    config, wal_dir, workload_path, crash_step, mode, snap = argv
    crash_step = int(crash_step)
    if snap == DERIVED:
        snapshot_every = DERIVED
        lowered_floor().start()     # for the life of this process
    else:
        snapshot_every = None if snap == "none" else int(snap)
    cls, _ = CONFIGS[config]
    base_text, rounds = read_workload(workload_path)
    clock = ManualClock()
    service = cls(wal_dir, fresh_database(base_text), clock=clock,
                  **service_kwargs(config, snapshot_every))

    if mode == "clean":
        drive(service, clock, rounds, 0, TOTAL_STEPS)
        service.close()
        return 0

    if mode == "post":
        drive(service, clock, rounds, 0, crash_step + 1)
        os.kill(os.getpid(), signal.SIGKILL)

    if mode == "pre_append":
        drive(service, clock, rounds, 0, crash_step)

        def die(_framed):
            os.kill(os.getpid(), signal.SIGKILL)

        # Every record — dict payloads via append() and pre-serialized
        # command bodies via append_body() — funnels through
        # _write_framed, so patching it crashes whichever append the
        # step reaches first.
        service._log._write_framed = die
        drive(service, clock, rounds, crash_step, crash_step + 1)
        # A step that happened to journal nothing: same contract, the
        # journal never saw it — crash here instead.
        os.kill(os.getpid(), signal.SIGKILL)

    if mode == "mid_publish":
        drive(service, clock, rounds, 0, crash_step)

        def die_opening(*_args, **_kwargs):
            os.kill(os.getpid(), signal.SIGKILL)

        service._store.open_log = die_opening
        drive(service, clock, rounds, crash_step, crash_step + 1)
        raise SystemExit(f"step {crash_step} published no generation")

    raise SystemExit(f"unknown crash mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
