"""Mutation oracle equivalence: live mutations must not change answers.

Two contracts under random interleavings of ``insert`` / ``delete`` /
``submit`` / ``expire_stale`` / ``run_batch``:

* **Fresh-engine full recompute** — after any prefix of the
  interleaving, a set-at-a-time round on the live (delta-driven,
  targeted-invalidation) engine settles exactly the queries that a
  brand-new engine, handed the current database and the current pending
  set, would settle — with identical rows.
* **Shard-vs-single** — a :class:`repro.shard.ShardedCoordinator`
  replaying the same interleaving (mutations through
  ``apply_mutations``, replicated as versioned ``db_delta`` frames)
  produces a byte-identical observation log at 1, 2, and 4 shards on
  both backends.

The workload is the ``dynamic_db`` scenario: gate rows arriving and
retracting while gated pairs and filler chains are pending.
"""

from __future__ import annotations

import random

import pytest

from repro.dataio import dump_database, load_database
from repro.engine.engine import D3CEngine
from repro.engine.futures import TicketState
from repro.engine.staleness import ManualClock, TimeoutStaleness
from repro.shard import ShardedCoordinator
from repro.workloads import (build_flight_database, dynamic_db_rounds,
                             generate_social_network,
                             install_dynamic_tables)

SHARD_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def setup():
    network = generate_social_network(num_users=240, seed=9,
                                      planted_cliques={4: 8})
    database = build_flight_database(network)
    install_dynamic_tables(database)
    return network, database


def _copy_db(database):
    working = load_database(dump_database(database))
    install_dynamic_tables(working)
    return working


def _script(network, seed: int, num_rounds: int = 10,
            per_round: int = 24) -> list[tuple]:
    """One deterministic interleaving of mutate/submit/expire/batch.

    Built once per seed and replayed verbatim against every target so
    the comparison is apples to apples.  Mutation batches and arrival
    blocks are split at random points to vary the framing (several
    db_delta frames per round, mixed submit/submit_many).
    """
    rng = random.Random(seed)
    rounds = dynamic_db_rounds(network, num_rounds, per_round,
                               lag=1, seed=seed)
    script: list[tuple] = []
    for mutations, block in rounds:
        script.append(("advance", rng.choice([0.5, 1.0])))
        if rng.random() < 0.7:
            script.append(("expire",))
        if mutations:
            cut = rng.randint(0, len(mutations))
            for part in (mutations[:cut], mutations[cut:]):
                if part:
                    script.append(("mutate", part))
        cut = rng.randint(0, len(block))
        for part in (block[:cut], block[cut:]):
            if part:
                script.append(("submit", part, rng.random() < 0.5))
        if rng.random() < 0.8:
            script.append(("batch",))
    script.extend([("advance", 30.0), ("expire",), ("batch",)])
    return script


def _outcome(ticket):
    if ticket.state is TicketState.ANSWERED:
        return ("answered", ticket.answer.rows, ticket.answer.choices)
    if ticket.state is TicketState.FAILED:
        return ("failed", ticket.failure_reason.value)
    return ("pending",)


def _apply_single(database, mutations):
    for kind, table, rows in mutations:
        if kind == "insert":
            database.insert(table, rows)
        else:
            database.delete_rows(table, rows)


def _drive(engine, database, clock, script,
           apply_mutations=None, observer=None) -> list:
    """Replay *script*; returns the observation log."""
    log: list = []
    tickets: dict = {}
    for step in script:
        if step[0] == "advance":
            clock.advance(step[1])
        elif step[0] == "expire":
            log.append(("expired", engine.expire_stale()))
        elif step[0] == "mutate":
            if apply_mutations is not None:
                apply_mutations(step[1])
            else:
                _apply_single(database, step[1])
        elif step[0] == "submit":
            _, block, as_block = step
            if as_block:
                produced = engine.submit_many(block)
            else:
                produced = [engine.submit(query) for query in block]
            tickets.update((ticket.query_id, ticket)
                           for ticket in produced)
        else:
            if observer is not None:
                observer(engine, log)
            log.append(("batch", engine.run_batch(),
                        tuple(engine.pending_ids()),
                        tuple(engine.partition_sizes())))
    log.append(("final", sorted(
        (query_id, _outcome(ticket))
        for query_id, ticket in tickets.items())))
    return log


# ----------------------------------------------------------------------
# fresh-engine full-recompute oracle
# ----------------------------------------------------------------------


def _oracle_round_answers(engine: D3CEngine) -> dict:
    """What a brand-new engine over the current database and pending
    set would settle in one set-at-a-time round."""
    oracle = D3CEngine(engine.database, mode="batch")
    tickets = {}
    for query_id in engine.pending_ids():
        record, _ = engine._pending[query_id]
        tickets.update(oracle.import_pending([record]))
    oracle.run_batch()
    return {query_id: ticket.answer.rows
            for query_id, ticket in tickets.items()
            if ticket.state is TicketState.ANSWERED}


@pytest.mark.parametrize("seed", [31, 62, 93])
def test_live_engine_matches_fresh_recompute_oracle(setup, seed):
    network, database = setup
    working = _copy_db(database)
    clock = ManualClock()
    engine = D3CEngine(working, mode="batch",
                       staleness=TimeoutStaleness(4.5), clock=clock)
    checked = [0]

    def observer(engine, log):
        expected = _oracle_round_answers(engine)
        before = set(engine.pending_ids())
        answered = engine.run_batch()
        settled = before - set(engine.pending_ids())
        assert settled == set(expected)
        assert answered == len(expected)
        checked[0] += 1
        # The observer already ran the round; make the scripted round
        # a no-op by returning the settled state through the log.
        log.append(("oracle-round", answered))

    _drive(engine, working, clock, _script(network, seed),
           observer=observer)
    assert checked[0] > 0
    assert engine.stats.answered > 0


# ----------------------------------------------------------------------
# shard-vs-single with live mutations
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [41, 82])
@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_inprocess_shards_match_single_engine(setup, num_shards, seed):
    network, database = setup
    script = _script(network, seed)

    single_db = _copy_db(database)
    clock = ManualClock()
    single = D3CEngine(single_db, mode="batch",
                       staleness=TimeoutStaleness(4.5), clock=clock)
    expected = _drive(single, single_db, clock, script)
    assert single.stats.answered > 0

    shard_db = _copy_db(database)
    clock = ManualClock()
    coordinator = ShardedCoordinator(
        shard_db, num_shards=num_shards, backend="inprocess",
        mode="batch", staleness=TimeoutStaleness(4.5), clock=clock)
    actual = _drive(coordinator, shard_db, clock, script,
                    apply_mutations=coordinator.apply_mutations)
    assert actual == expected
    assert coordinator.db_version == single_db.db_version


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_process_shards_match_single_engine(setup, num_shards):
    """The wire fleet: every mutation batch replicates as a versioned
    db_delta frame, every worker acks, answers stay byte-identical."""
    network, database = setup
    script = _script(network, 55, num_rounds=6, per_round=18)

    single_db = _copy_db(database)
    clock = ManualClock()
    single = D3CEngine(single_db, mode="batch",
                       staleness=TimeoutStaleness(4.5), clock=clock)
    expected = _drive(single, single_db, clock, script)

    shard_db = _copy_db(database)
    clock = ManualClock()
    with ShardedCoordinator(
            shard_db, num_shards=num_shards, backend="process",
            mode="batch", staleness=TimeoutStaleness(4.5),
            clock=clock) as coordinator:
        actual = _drive(coordinator, shard_db, clock, script,
                        apply_mutations=coordinator.apply_mutations)
        assert actual == expected
        # Every worker acked the final replicated version.
        assert all(acked == coordinator.db_version
                   for acked in coordinator._acked)


def test_direct_database_mutations_replicate_lazily(setup):
    """Mutating the coordinator's database object directly (not through
    apply_mutations) must still reach the workers before the next
    serving command."""
    network, database = setup
    script = _script(network, 77, num_rounds=5, per_round=16)

    single_db = _copy_db(database)
    clock = ManualClock()
    single = D3CEngine(single_db, mode="batch",
                       staleness=TimeoutStaleness(4.5), clock=clock)
    expected = _drive(single, single_db, clock, script)

    shard_db = _copy_db(database)
    clock = ManualClock()
    with ShardedCoordinator(
            shard_db, num_shards=2, backend="process", mode="batch",
            staleness=TimeoutStaleness(4.5), clock=clock) as coordinator:
        # No apply_mutations: the script's mutations hit shard_db
        # directly and the coordinator's listener flushes them.
        actual = _drive(coordinator, shard_db, clock, script)
        assert actual == expected
        assert coordinator.db_version == shard_db.db_version
