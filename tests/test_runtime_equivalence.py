"""Randomized equivalence: incremental runtime vs from-scratch oracle.

The delta-driven scheduler must be observationally identical to a full
recompute: after any interleaving of submissions (single and block),
expirations, and set-at-a-time rounds, the engine's answers, survivor
sets, and component assignments must match what an oracle computes from
scratch — a fresh unifiability graph over the pending queries, exact
connected components, and a full match/combine/evaluate pass per
component.  This is the contract that lets ``run_batch`` drain a dirty
worklist instead of recomputing partitions (an unchanged component
re-attempted against an unchanged database deterministically reproduces
its previous outcome).
"""

from __future__ import annotations

import random

import pytest

from repro.core.combine import build_combined_query
from repro.core.evaluate import _record_answers
from repro.core.graph import UnifiabilityGraph
from repro.core.matching import match_component
from repro.core.query import EntangledQuery
from repro.core.terms import Variable, atom
from repro.db.database import Database
from repro.engine.engine import D3CEngine
from repro.engine.futures import TicketState
from repro.engine.staleness import ManualClock, TimeoutStaleness
from repro.lang import parse_ir
from repro.workloads import (build_flight_database, chain_queries,
                             generate_social_network, three_way_triangles,
                             two_way_pairs)


def _edge_set(graph: UnifiabilityGraph) -> set[tuple]:
    return {(edge.src, edge.head_pos, edge.dst, edge.pc_pos)
            for query_id in graph.query_ids()
            for edge in graph.out_edges(query_id)}


class Oracle:
    """From-scratch recompute of one set-at-a-time round."""

    def __init__(self, engine: D3CEngine):
        self.order = dict(engine._arrival)
        # The engine's pending map preserves arrival order and holds
        # the renamed-apart working copies — exactly what a fresh
        # graph build needs.
        self.pending = [record.query
                        for record, _ in engine._pending.values()]
        self.graph = UnifiabilityGraph()
        for query in self.pending:
            self.graph.add_query(query)
        self.components = self.graph.connected_components()
        self.components.sort(key=lambda component: min(
            self.order[query_id] for query_id in component))

    def survivors_by_component(self) -> list[tuple]:
        return [match_component(self.graph, component, order=self.order)
                .survivors for component in self.components]

    def round_answers(self, database,
                      max_combined_atoms: int = 512) -> dict:
        """Answers a full recompute round would produce (rng=None)."""
        answers: dict = {}
        for component in self.components:
            match = match_component(self.graph, component,
                                    order=self.order)
            if not match.survivors or match.global_unifier is None:
                continue
            queries_by_id = {query_id: self.graph.query(query_id)
                             for query_id in match.survivors}
            combined = build_combined_query(queries_by_id, match)
            if len(combined.query.atoms) > max_combined_atoms:
                continue
            choose = max(query.choose
                         for query in queries_by_id.values())
            valuations = list(database.evaluate(combined.query,
                                                limit=choose))
            if not valuations:
                continue
            _record_answers(combined, valuations, answers)
        return answers


def _mixed_workload(network, seed: int):
    rng = random.Random(seed)
    queries = (two_way_pairs(network, 120, specific=True, seed=seed)
               + chain_queries(network, 48, chain_length=4,
                               seed=seed + 1)
               + three_way_triangles(network, 36, seed=seed + 2))
    rng.shuffle(queries)
    return queries


@pytest.fixture(scope="module")
def setup():
    network = generate_social_network(num_users=400, seed=21,
                                      planted_cliques={4: 20})
    return network, build_flight_database(network)


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_batch_rounds_match_fullrecompute_oracle(setup, seed):
    network, database = setup
    queries = _mixed_workload(network, seed)
    rng = random.Random(seed * 7)
    clock = ManualClock()
    engine = D3CEngine(database, mode="batch",
                       staleness=TimeoutStaleness(3.5), clock=clock)

    position = 0
    rounds = 0
    while position < len(queries) or engine.pending_count:
        action = rng.random()
        if position < len(queries) and action < 0.55:
            block = queries[position:position + rng.randint(1, 40)]
            position += len(block)
            if rng.random() < 0.5:
                engine.submit_many(block)
            else:
                for query in block:
                    engine.submit(query)
        elif action < 0.75:
            clock.advance(rng.choice([0.5, 1.0, 2.0]))
            engine.expire_stale()
            if position >= len(queries):
                # Drain the tail: everything left eventually expires.
                clock.advance(4.0)
                engine.expire_stale()
        else:
            oracle = Oracle(engine)
            # Component assignments: the partition manager must report
            # exactly the oracle's connected components, and the
            # incrementally maintained graph must carry the same edges.
            engine_components = sorted(
                tuple(sorted(map(repr,
                                 engine._partitions.members_set(root))))
                for root in engine._partitions.roots())
            oracle_components = sorted(
                tuple(sorted(map(repr, component)))
                for component in oracle.components)
            assert engine_components == oracle_components
            assert _edge_set(engine._graph) == _edge_set(oracle.graph)

            # Survivor sets per component agree between the engine's
            # graph and the oracle's from-scratch graph.
            engine_survivors = sorted(
                match_component(engine._graph, component,
                                order=engine._arrival).survivors
                for component in (set(members) for members in (
                    engine._partitions.members_set(root)
                    for root in engine._partitions.roots())))
            assert engine_survivors == sorted(
                oracle.survivors_by_component())

            # Answers: the worklist drain settles exactly the queries a
            # full recompute round would, with identical rows.
            expected = oracle.round_answers(database)
            before = {ticket.query_id
                      for _, ticket in engine._pending.values()}
            answered = engine.run_batch()
            rounds += 1
            still = set(engine.pending_ids())
            settled = before - still
            assert settled == set(expected)
            assert answered == len(expected)
        if rounds > 60:  # safety net against pathological schedules
            break
    assert engine.stats.answered > 0


@pytest.mark.parametrize("seed", [11, 22])
def test_incremental_component_state_matches_oracle(setup, seed):
    """Incremental engines keep exact components across settle/expire."""
    network, database = setup
    queries = _mixed_workload(network, seed)
    rng = random.Random(seed)
    clock = ManualClock()
    engine = D3CEngine(database, staleness=TimeoutStaleness(2.5),
                       clock=clock)
    position = 0
    while position < len(queries):
        block = queries[position:position + rng.randint(1, 25)]
        position += len(block)
        if rng.random() < 0.5:
            engine.submit_many(block)
        else:
            for query in block:
                engine.submit(query)
        if rng.random() < 0.4:
            clock.advance(1.0)
            engine.expire_stale()
        oracle = Oracle(engine)
        engine_components = sorted(
            tuple(sorted(map(repr, engine._partitions.members_set(root))))
            for root in engine._partitions.roots())
        oracle_components = sorted(
            tuple(sorted(map(repr, component)))
            for component in oracle.components)
        assert engine_components == oracle_components
        assert _edge_set(engine._graph) == _edge_set(oracle.graph)
    assert engine.stats.answered > 0


# ----------------------------------------------------------------------
# component strategy: carried matching state vs forced-stale reference
# ----------------------------------------------------------------------

_USERS = [f"U{index}" for index in range(8)]
_DESTINATIONS = ["D0", "D1", "D2"]


def _friend_database(seed: int) -> Database:
    rng = random.Random(seed)
    database = Database()
    database.create_table("F", "a:text", "b:text")
    database.insert("F", [(left, right) for left in _USERS
                          for right in _USERS
                          if left != right and rng.random() < 0.7])
    database.create_table("G", "a:text")  # read by no query
    return database


def _cluster_query(index: int, rng: random.Random) -> EntangledQuery:
    """``{R(x, D)} R(U, D) <- F(U, x)``: joins the one massively
    unifying component of destination *D*.  Some partners are pinned,
    which yields ground postconditions, conflicts and CLEANUP."""
    user, destination = rng.choice(_USERS), rng.choice(_DESTINATIONS)
    partner = (Variable("x") if rng.random() < 0.85
               else rng.choice(_USERS + ["Nobody"]))
    return EntangledQuery(
        query_id=f"c{index}",
        head=(atom("R", user, destination),),
        postconditions=(atom("R", partner, destination),),
        body=(atom("F", user, partner),))


def _befriend_rows(rng: random.Random) -> list:
    """One user befriends (or drops) everybody: flips which clusters
    are answerable on the data."""
    user = rng.choice(_USERS)
    return [pair for other in _USERS if other != user
            for pair in ((user, other), (other, user))]


def _write(rng: random.Random) -> tuple:
    """A write landing between closures: one friendship row or one
    user's whole star appears or disappears — behind the engine's back
    or through it — or a table no query reads grows."""
    rows = (_befriend_rows(rng) if rng.random() < 0.5
            else [tuple(rng.sample(_USERS, 2))])
    kind = rng.choice(["insert", "insert", "delete"])
    route = rng.random()
    if route < 0.4:
        return (kind, rows)
    if route < 0.8:
        return ("apply", [(kind, "F", rows)])
    return ("apply", [("insert", "G", [(rows[0][0],)])])


def _history(seed: int, length: int = 120,
             writes: float = 0.0) -> list[tuple]:
    """One deterministic command history, replayed on both engines.
    *writes* is the share of commands that are database writes
    landing between closures (see :func:`_write`)."""
    rng = random.Random(seed)
    history: list[tuple] = []
    submitted = 0
    for _ in range(length):
        if writes and rng.random() < writes:
            history.append(_write(rng))
            continue
        action = rng.random()
        if action < 0.45:
            history.append(("submit", _cluster_query(submitted, rng)))
            submitted += 1
        elif action < 0.60:
            size = rng.randint(2, 5)
            history.append(("submit_many",
                            [_cluster_query(submitted + offset, rng)
                             for offset in range(size)]))
            submitted += size
        elif action < 0.75:
            rows = _befriend_rows(rng)
            history.append((rng.choice(["insert", "insert", "delete"]),
                            rows))
        elif action < 0.85:
            history.append(("expire", rng.choice([1.0, 2.0, 4.0])))
        elif action < 0.95:
            follow_up = (_cluster_query(submitted, rng)
                         if rng.random() < 0.5 else None)
            submitted += follow_up is not None
            history.append(("migrate", rng.random(), follow_up))
        else:
            history.append(("run_batch",))
    return history


def _replay(history, seed: int, force_stale: bool):
    """Run *history* on a fresh component-strategy engine; returns the
    engine and its observation log (every settlement, in order, with
    rows; every expiry count; the pending set after each command)."""
    database = _friend_database(seed)
    clock = ManualClock()
    engine = D3CEngine(database, incremental_strategy="component",
                       staleness=TimeoutStaleness(9.5), clock=clock)
    log: list = []
    settle = engine._settle_answers

    def logged_settle(answers):
        log.append(("settled", [(query_id, answer.rows)
                                for query_id, answer in answers.items()]))
        return settle(answers)

    engine._settle_answers = logged_settle
    if force_stale:
        partitions = engine._partitions
        carried = partitions.match_state

        def rebuilt(query_id):
            partitions._match_states.clear()
            return carried(query_id)

        partitions.match_state = rebuilt

    for command in history:
        if command[0] == "submit":
            engine.submit(command[1])
        elif command[0] == "submit_many":
            engine.submit_many(command[1])
        elif command[0] == "insert":
            database.insert("F", command[1])
        elif command[0] == "delete":
            database.delete_rows("F", command[1])
        elif command[0] == "apply":
            engine.apply_mutations(command[1])
        elif command[0] == "expire":
            clock.advance(command[1])
            log.append(("expired", engine.expire_stale()))
        elif command[0] == "migrate":
            # Export a whole component and import it back — after an
            # optional arrival, so the records re-enter a live
            # component under older sequence numbers.
            pending = engine.pending_ids()
            if pending:
                pick = pending[int(command[1] * len(pending))]
                records = engine.export_component(
                    engine.component_members(pick))
                if command[2] is not None:
                    engine.submit(command[2])
                engine.import_pending(records)
            elif command[2] is not None:
                engine.submit(command[2])
        else:
            engine.run_batch()
        log.append(("pending", engine.pending_ids()))
    return engine, log


@pytest.mark.parametrize("seed", [5, 17, 29, 43, 71, 97])
def test_component_strategy_carried_state_matches_forced_stale(seed):
    """Carrying the matching state across arrivals, expiries,
    mutations and migrations settles exactly the tickets, in exactly
    the order, with exactly the rows of an engine that re-matches from
    scratch at every attempt."""
    history = _history(seed)
    engine, log = _replay(history, seed, force_stale=False)
    reference, reference_log = _replay(history, seed, force_stale=True)
    assert log == reference_log
    for counter in ("answered", "closure_events", "coordination_rounds"):
        assert getattr(engine.stats, counter) \
            == getattr(reference.stats, counter)
    # A resumed attempt answers from a carried "empty on the data"
    # verdict, or re-evaluates the combined query it retained, where
    # the reference builds and evaluates; it may also be one the
    # reference finds unanswerable or over the atom cap, hence the
    # inequalities.
    built = engine.stats.combined_queries_built
    assert engine.stats.closures_skipped_empty \
        <= engine.stats.match_resumed
    assert built <= reference.stats.combined_queries_built \
        <= built + engine.stats.match_resumed
    assert reference.stats.closures_skipped_empty == 0
    assert engine.stats.answered > 0
    # The comparison is only meaningful if the paths really differ.
    assert engine.stats.match_resumed > 0
    assert reference.stats.match_resumed == 0


@pytest.mark.parametrize("seed", [3, 11, 23, 59])
def test_carried_verdict_matches_forced_stale_between_writes(seed):
    """Inserts and deletes land between closures — through the engine,
    behind its back, and on a table nothing reads — and the engine
    answering closures from carried verdicts still settles what the
    engine that re-evaluates every closure settles."""
    history = _history(seed, length=240, writes=0.3)
    engine, log = _replay(history, seed, force_stale=False)
    reference, reference_log = _replay(history, seed, force_stale=True)
    assert log == reference_log
    assert engine.stats.answered > 0
    assert 0 < engine.stats.closures_skipped_empty
    assert engine.stats.combined_queries_built \
        < reference.stats.combined_queries_built


def test_resumed_component_answers_once_a_mutation_allows_it():
    database = Database()
    database.create_table("F", "a:text", "b:text")
    database.insert("F", [("U0", "U1")])
    engine = D3CEngine(database, incremental_strategy="component")

    def arrive(index: int):
        return engine.submit(EntangledQuery(
            query_id=f"c{index}",
            head=(atom("R", f"U{index}", "D"),),
            postconditions=(atom("R", Variable("x"), "D"),),
            body=(atom("F", f"U{index}", Variable("x")),)))

    tickets = [arrive(index) for index in range(4)]
    stats = engine.stats
    # c1 revives c0 (a rebuild) and the closure finds F(U1, U0)
    # missing; c2 and c3 extend the matched component and are answered
    # from that verdict — closures still, but nothing built.
    assert (stats.coordination_rounds, stats.match_rebuilt,
            stats.match_resumed, stats.combined_queries_built,
            stats.closures_skipped_empty, stats.answered) \
        == (3, 1, 2, 1, 2, 0)
    # A write behind the engine's back: F's version no longer matches
    # the verdict's stamp, so the next closure evaluates again.
    database.insert("F", [(f"U{index}", "U0") for index in range(1, 5)])
    tickets.append(arrive(4))
    assert all(ticket.state is TicketState.ANSWERED for ticket in tickets)
    counters = engine.metrics_snapshot()["counters"]
    assert (counters["match_rebuilt"], counters["match_resumed"],
            counters["combined_queries_built"],
            counters["closures_skipped_empty"]) == (1, 3, 2, 2)


# ----------------------------------------------------------------------
# re-submitting an expired id that is still a union-find ghost
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["batch", "incremental"])
def test_resubmitted_ghost_id_matches_fresh_engine(mode):
    database = Database()
    database.create_table("Flights", "fno:int", "dest:text")
    database.insert("Flights", [(122, "Paris"), (123, "Paris")])
    second = parse_ir("{R(Jerry, y)} R(Kramer, y) <- Flights(y, Paris)",
                      "q2")
    retry = parse_ir("{} R(Jerry, x) <- Flights(x, Paris)", "q1")

    clock = ManualClock()
    engine = D3CEngine(database, mode=mode, clock=clock,
                       staleness=TimeoutStaleness(10))
    engine.submit(parse_ir(
        "{R(Nobody, x)} R(Jerry, x) <- Flights(x, Paris)", "q1"))
    clock.advance(5)
    kramer = engine.submit(second)
    engine.run_batch()
    clock.advance(6)
    assert engine.expire_stale() == 1  # q1; it was q2's forest root
    jerry = engine.submit(retry)
    engine.run_batch()

    fresh = D3CEngine(database, mode=mode)
    expected = [fresh.submit(second), fresh.submit(retry)]
    fresh.run_batch()
    assert [ticket.state for ticket in expected] \
        == [TicketState.ANSWERED] * 2
    assert [(ticket.state, ticket.answer.rows)
            for ticket in (kramer, jerry)] \
        == [(ticket.state, ticket.answer.rows) for ticket in expected]
    assert engine.pending_ids() == [] and engine.partition_sizes() == []
    clock.advance(20)
    assert engine.expire_stale() == 0
