"""The carried "empty on the data" verdict of the component strategy.

A closure whose combined query finds no answer stamps its matching
state with the versions of the tables that query read
(``MatchState.empty_reads``).  While the state is only extended by
monotone arrivals every later combined query is a conjunctive superset
of the failed one, so later closures are answered from the verdict —
counted in ``closures_skipped_empty``, nothing built or evaluated —
until a stamped table changes or the state is dropped.  Each test pins
one way the verdict is dropped or kept; the randomized differential
against an engine that never carries anything is the model machine's
component group (``tests/servicekit.py``).
"""

from __future__ import annotations

import random

import pytest

from repro.core.matching import match_component
from repro.core.query import EntangledQuery
from repro.core.terms import Variable, atom
from repro.core.unify import Unifier
from repro.db import Database
from repro.engine import runtime
from repro.engine.engine import D3CEngine
from repro.engine.futures import TicketState
from repro.engine.staleness import ManualClock, TimeoutStaleness
from repro.obs import TRACER, format_traces, set_tracing
from repro.shard import ShardedCoordinator
from repro.workloads import (big_cluster_queries, build_flight_database,
                             generate_social_network)


def _database(rows=(("U0", "U1"),)) -> Database:
    database = Database()
    database.create_table("F", "a:text", "b:text")
    database.create_table("G", "a:text")  # read by no query
    database.insert("F", list(rows))
    return database


def _cluster_query(index: int, destination: str = "D") -> EntangledQuery:
    """``{R(x, D)} R(Ui, D) <- F(Ui, x)``: every head provides every
    postcondition, so all of them form one closed partition in which
    each member is paired with the earliest-arrived other member."""
    return EntangledQuery(
        query_id=f"c{index}",
        head=(atom("R", f"U{index}", destination),),
        postconditions=(atom("R", Variable("x"), destination),),
        body=(atom("F", f"U{index}", Variable("x")),))


def _engine_with_verdict(database=None, **engine_kwargs) -> D3CEngine:
    """c0 and c1 close a partition whose combined query needs the
    missing row F(U1, U0): one build, one verdict."""
    engine = D3CEngine(database or _database(),
                       incremental_strategy="component", **engine_kwargs)
    engine.submit(_cluster_query(0))
    engine.submit(_cluster_query(1))
    assert _counters(engine) == (1, 0)
    assert [name for name, _, _ in _state(engine, "c0").empty_reads] \
        == ["F"]
    return engine


def _counters(engine) -> tuple:
    stats = engine.stats
    return stats.combined_queries_built, stats.closures_skipped_empty


def _state(engine, query_id):
    partitions = engine._partitions
    return partitions._match_states.get(partitions.find(query_id))


# ----------------------------------------------------------------------
# kept
# ----------------------------------------------------------------------

def test_later_closures_are_answered_from_the_verdict():
    engine = _engine_with_verdict()
    for index in (2, 3, 4):
        engine.submit(_cluster_query(index))
    stats = engine.stats
    assert _counters(engine) == (1, 3)
    # Skipped closures are closures still.
    assert (stats.closure_events, stats.coordination_rounds,
            stats.match_resumed, stats.answered) == (4, 4, 3, 0)
    assert engine.metrics_snapshot()["counters"][
        "closures_skipped_empty"] == 3


def test_kept_across_a_write_to_a_table_the_closure_never_read():
    engine = _engine_with_verdict()
    engine.database.insert("G", [("U1",)])
    engine.submit(_cluster_query(2))
    engine.apply_mutations([("insert", "G", [("U2",)])])
    engine.submit(_cluster_query(3))
    assert _counters(engine) == (1, 2)


def test_kept_across_capped_closures(monkeypatch):
    monkeypatch.setattr(runtime, "MAX_COMBINED_ATOMS", 2)
    engine = _engine_with_verdict()
    # Three body atoms are over the cap: without the verdict the
    # closure would be neither built nor skipped.
    engine.submit(_cluster_query(2))
    assert _counters(engine) == (1, 1)
    assert _state(engine, "c2").empty_reads is not None


def test_a_capped_closure_sets_no_verdict(monkeypatch):
    monkeypatch.setattr(runtime, "MAX_COMBINED_ATOMS", 1)
    engine = D3CEngine(_database(), incremental_strategy="component")
    for index in range(3):
        engine.submit(_cluster_query(index))
    assert _counters(engine) == (0, 0)
    assert _state(engine, "c0").empty_reads is None


def test_kept_under_rng_sampling():
    """Sampling draws from the rng only once valuations exist, so a
    skipped (empty) evaluation leaves the stream where it was."""
    rows = [("U0", "U1"), ("U2", "U0"), ("U3", "U0")]
    engine = _engine_with_verdict(_database(rows), rng=random.Random(7))
    reference_rng = random.Random(7)
    engine.submit(_cluster_query(2))
    assert _counters(engine) == (1, 1)
    assert engine.rng.getstate() == reference_rng.getstate()
    engine.database.insert("F", [("U1", "U0")])
    ticket = engine.submit(_cluster_query(3))
    assert ticket.state is TicketState.ANSWERED
    assert engine.pending_count == 0


# ----------------------------------------------------------------------
# dropped
# ----------------------------------------------------------------------

@pytest.mark.parametrize("write", [
    lambda engine: engine.database.insert("F", [("U7", "U6")]),
    lambda engine: engine.apply_mutations(
        [("insert", "F", [("U7", "U6")])]),
    lambda engine: engine.database.delete_rows("F", [("U0", "U1")]),
    lambda engine: engine.delete_rows("F", [("U0", "U1")]),
], ids=["direct-insert", "apply_mutations", "direct-delete",
        "engine-delete"])
def test_dropped_by_a_write_to_a_read_table(write):
    engine = _engine_with_verdict()
    write(engine)
    # The stamp no longer matches: this closure evaluates again (still
    # empty) and re-stamps; the next one is answered from the new stamp.
    engine.submit(_cluster_query(2))
    assert _counters(engine) == (2, 0)
    engine.submit(_cluster_query(3))
    assert _counters(engine) == (2, 1)
    assert engine.stats.answered == 0


def test_dropped_by_expiry_of_a_member():
    clock = ManualClock()
    engine = _engine_with_verdict(staleness=TimeoutStaleness(5),
                                  clock=clock)
    clock.advance(3)
    engine.submit(_cluster_query(2))
    assert _counters(engine) == (1, 1)
    clock.advance(3)
    assert engine.expire_stale() == 2          # c0 and c1
    assert _state(engine, "c2") is None
    engine.submit(_cluster_query(3))
    # Rebuilt from scratch and evaluated: c2 and c3 pair up now.
    assert _counters(engine) == (2, 1)
    assert engine.stats.match_rebuilt == 2


def test_dropped_by_settlement_of_a_member():
    engine = _engine_with_verdict(ucs_fallback=True)
    # c2 relies on c0 and provides nobody: outside the core c0 <-> c1.
    engine.submit(EntangledQuery(
        query_id="c2", head=(atom("R", "U2", "elsewhere"),),
        postconditions=(atom("R", "U0", "D"),),
        body=(atom("F", "U2", "U0"),)))
    assert _counters(engine) == (1, 1)
    # The round fails on the whole partition (F(U2, U0) is missing) and
    # settles its core; the survivor's state goes with the settled.
    engine.insert("F", [("U1", "U0")])
    engine.run_batch()
    assert engine.pending_ids() == ["c2"]
    assert engine._partitions._match_states == {}


def test_dropped_by_an_out_of_order_import():
    """An imported record older than the members takes their chosen
    provider slots: the new combined query is no superset of the failed
    one, and here it has answers."""
    rows = [("U5", "U0"), ("U0", "U5"), ("U1", "U5"), ("U2", "U5")]
    database = _database(rows)
    donor = D3CEngine(database, incremental_strategy="component")
    donor.submit(_cluster_query(5))                    # arrival 0
    records = donor.export_component(["c5"])

    engine = D3CEngine(database, incremental_strategy="component")
    engine.submit(_cluster_query(9, destination="E"))  # arrival 0
    engine.submit(_cluster_query(0))
    engine.submit(_cluster_query(1))
    assert _counters(engine) == (1, 0)                 # F(U0, U1) missing
    tickets = engine.import_pending(records)
    assert _state(engine, "c0") is None
    engine.submit(_cluster_query(2))
    assert tickets["c5"].state is TicketState.ANSWERED
    assert engine.pending_ids() == ["c9"]
    assert _counters(engine) == (2, 0)


def test_dropped_by_a_revival_arrival():
    database = _database(rows=())
    engine = D3CEngine(database, incremental_strategy="component")

    def arrive(query_id, user, partner=None):
        engine.submit(EntangledQuery(
            query_id=query_id, head=(atom("R", user, "E"),),
            postconditions=(() if partner is None
                            else (atom("R", partner, "E"),)),
            body=(atom("F", user, partner or user),)))

    arrive("e0", "U7")                      # closed alone; no F(U7, U7)
    assert _counters(engine) == (1, 0)
    arrive("g0", "U8", Variable("y"))       # provided by e0: a superset
    assert _counters(engine) == (1, 1)
    # h0 provides g0's postcondition a second time and waits for U9:
    # the partition is open, h0 is unanswerable in the carried state.
    arrive("h0", "U6", "U9")
    assert _counters(engine) == (1, 1)
    assert _state(engine, "h0").empty_reads is not None
    # i0 is the first provider of h0's postcondition: h0 would have to
    # be revived, so the state — verdict included — is rebuilt.
    rebuilt = engine.stats.match_rebuilt
    arrive("i0", "U9")
    assert engine.stats.match_rebuilt == rebuilt + 1
    assert _counters(engine) == (2, 1)


# ----------------------------------------------------------------------
# arrivals under a standing verdict are only recorded
# ----------------------------------------------------------------------

def test_a_cluster_under_its_verdict_folds_nothing_until_a_write(
        monkeypatch):
    """Figure 8's 200-arrival cluster: once the verdict is stamped, an
    arrival builds no edge and merges no unifier; the insert that
    breaks the verdict makes the next attempt fold every recorded
    arrival, and the fold is the from-scratch matching."""
    merges = [0]
    merge = Unifier.merge

    def counted_merge(self, left, right):
        merges[0] += 1
        return merge(self, left, right)

    monkeypatch.setattr(Unifier, "merge", counted_merge)
    network = generate_social_network(num_users=4_000, seed=0)
    engine = D3CEngine(build_flight_database(network),
                       incremental_strategy="component")
    arrivals = big_cluster_queries(network, 200, seed=12)
    stats = engine.stats
    index = 0
    while not stats.closures_skipped_empty:
        engine.submit(arrivals[index])
        index += 1
    edges, merged = stats.edges_materialised, merges[0]
    for query in arrivals[index:]:
        engine.submit(query)
    assert (stats.edges_materialised, merges[0]) == (edges, merged)
    assert stats.closures_skipped_empty == stats.closure_events - 2
    state = _state(engine, arrivals[-1].query_id)
    # Recorded: every arrival since the verdict was stamped.
    assert len(state._pending) == len(arrivals) - index + 1
    (name, _, _), *_ = state.empty_reads
    engine.apply_mutations([("insert", name, [("nobody", "nowhere")])])
    engine.run_batch()
    assert stats.edges_materialised > edges and not state._pending
    assert state.result() == match_component(
        engine._graph, engine.pending_ids(), order=engine._arrival)


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------

@pytest.fixture
def tracing():
    set_tracing(True)
    TRACER.clear()
    yield
    set_tracing(False)
    TRACER.clear()


def test_a_skipped_closure_records_one_span_on_the_arrival(tracing):
    engine = _engine_with_verdict()
    TRACER.clear()
    engine.submit(_cluster_query(2))
    attempts = [span for span in TRACER.spans()
                if span.name == "query.match_attempt"]
    assert len(attempts) == 1           # not one per member
    assert attempts[0].attrs == {"outcome": "empty_carried",
                                 "members": 3}
    submit, = [span for span in TRACER.spans()
               if span.name == "query.submit"]
    assert attempts[0].trace_id == submit.trace_id is not None
    # What `repro trace` prints for the query answers "why didn't it
    # coordinate" on its own.
    rendered = format_traces(TRACER.spans())
    assert "query.match_attempt" in rendered
    assert "members=3 outcome=empty_carried" in rendered
    assert not [span for span in TRACER.spans()
                if span.name == "db.evaluate"]


def test_shard_fleets_merge_the_counter():
    rows = [("U0", "U1"), ("U2", "U3")]
    with ShardedCoordinator(_database(rows), num_shards=2,
                            incremental_strategy="component") as fleet:
        for destination in ("D", "E", "H", "J"):
            for index in range(4):
                query = _cluster_query(index, destination)
                fleet.submit(EntangledQuery(
                    query_id=f"{destination}-{index}", head=query.head,
                    postconditions=query.postconditions,
                    body=query.body))
        # Per cluster: one closure evaluated, two answered from it.
        counters = fleet.metrics_snapshot()["counters"]
        assert counters["closures_skipped_empty"] == 8
        assert counters["combined_queries_built"] == 4
        assert sum(backend.engine.stats.closures_skipped_empty
                   for backend in fleet._backends) == 8
