"""Set-at-a-time rounds re-evaluate, they don't re-derive.

A batch engine retains, per component whose attempt found no data, the
slim :class:`~repro.core.matching.Attempt` — combined query, heads,
data verdict — and drops it whenever the member set changes; a table
delta re-queues its readers only when it inserted rows.  Both are pure
savings: the differential half of this file replays random histories
on a live service and on a twin that is made to forget everything
(attempts dropped, every component re-queued) before every round, and
requires the same tickets to settle with the same rows in the same
order — :class:`servicekit.ServiceModel` runs them, with the
histories that once answered wrongly in ``tests/test_model.py``.  The
exact-counter half pins what each rule skips.
"""

from __future__ import annotations

from repro.core.matching import Attempt, MatchState
from repro.core.query import EntangledQuery
from repro.core.terms import Variable, atom
from repro.db import Database
from repro.engine.engine import D3CEngine
from repro.engine.staleness import ManualClock, TimeoutStaleness

from servicekit import run_model, single

TTL = 2.5


def _database(rows=()) -> Database:
    database = Database()
    database.create_table("F", "a:text", "b:text")
    database.create_table("G", "a:text")
    database.insert("F", list(rows))
    return database


def _query(query_id: str, kind: str, user: int, partner: int,
           destination: str) -> EntangledQuery:
    """Three shapes over ``F``: a *pair* member names its partner, a
    *cluster* member takes whoever the data pairs it with (so heads
    over-unify and an arrival can change everybody's chosen provider),
    and a *gated* pair member also needs ``G(user)``."""
    me, other = f"U{user}", f"U{partner}"
    if kind == "cluster":
        x = Variable("x")
        return EntangledQuery(
            query_id=query_id, head=(atom("R", me, destination),),
            postconditions=(atom("R", x, destination),),
            body=(atom("F", me, x),))
    body = (atom("F", me, other),)
    if kind == "gated":
        body += (atom("G", me),)
    return EntangledQuery(
        query_id=query_id, head=(atom("R", me, destination),),
        postconditions=(atom("R", other, destination),), body=body)


def test_engine_equals_a_twin_that_forgets_before_every_round():
    run_model(single("engine", forget=True), seed=22, examples=20)


def test_sharded_fleet_equals_a_twin_that_forgets():
    """Worker databases receive mutations through ``apply_delta``: the
    insert-only re-queue rule has to hold on replicated deltas too."""
    run_model(single("fleet", num_shards=2, forget=True), seed=22,
              examples=5)


# ----------------------------------------------------------------------
# exact counters
# ----------------------------------------------------------------------

def _failed_pair(rows=()):
    """q0 and q1 need F(U0, U1) and F(U1, U0); one round has matched,
    built and evaluated their component and found nothing."""
    engine = D3CEngine(_database(rows), mode="batch")
    engine.submit_many([_query("q0", "pair", 0, 1, "D"),
                        _query("q1", "pair", 1, 0, "D")])
    assert engine.run_batch() == 0
    assert _counters(engine) == (1, 1, 0, 1)
    return engine


def _counters(engine) -> tuple:
    stats = engine.stats
    return (stats.components_drained, stats.match_rebuilt,
            stats.match_resumed, stats.combined_queries_built)


def _retained(engine, query_id):
    partitions = engine._partitions
    return partitions._match_states.get(partitions.find(query_id))


def test_what_a_batch_engine_retains_is_slim():
    engine = _failed_pair()
    kept = _retained(engine, "q0")
    assert type(kept) is Attempt and not isinstance(kept, MatchState)
    assert list(kept.heads) == ["q0", "q1"]
    assert [name for name, _, _ in kept.empty_reads] == ["F"]
    # Nothing is kept until a round attempts the component, and
    # nothing per arrival.
    engine.submit(_query("q2", "pair", 2, 3, "D"))
    assert _retained(engine, "q2") is None


def test_a_delete_only_delta_requeues_nobody():
    engine = _failed_pair(rows=[("U0", "U1"), ("U3", "U4")])
    engine.delete_rows("F", [("U3", "U4")])
    engine.apply_mutations([("delete", "F", [("U0", "U1")])])
    assert engine.run_batch() == 0
    assert _counters(engine) == (1, 1, 0, 1)
    # ...while an insert re-queues the readers of its table.
    engine.insert("F", [("U3", "U4")])
    assert engine.run_batch() == 0
    assert _counters(engine) == (2, 1, 1, 1)


def test_a_requeued_component_is_reevaluated_not_rederived():
    engine = _failed_pair(rows=[("U0", "U1")])
    engine.insert("F", [("U2", "U0")])      # satisfies nobody
    assert engine.run_batch() == 0
    assert _counters(engine) == (2, 1, 1, 1)
    assert engine.stats.closures_skipped_empty == 0   # it did ask
    engine.insert("F", [("U1", "U0")])      # the missing row
    assert engine.run_batch() == 2
    assert _counters(engine) == (3, 1, 2, 1)
    assert engine._partitions._match_states == {}


def test_a_write_to_an_unread_table_requeues_nobody():
    engine = _failed_pair()
    engine.insert("G", [("U0",)])
    assert engine.run_batch() == 0
    assert _counters(engine) == (1, 1, 0, 1)


def test_an_arrival_joining_the_component_drops_the_attempt():
    engine = _failed_pair(rows=[("U0", "U1")])
    # A third query providing q0's postcondition joins the component.
    engine.submit(_query("q2", "cluster", 1, 0, "D"))
    assert _retained(engine, "q0") is None
    assert engine.run_batch() == 0
    assert _counters(engine) == (2, 2, 0, 2)


def test_id_reuse_after_expiry_rebuilds():
    clock = ManualClock()
    engine = D3CEngine(_database(), mode="batch", clock=clock,
                       staleness=TimeoutStaleness(TTL))
    engine.submit(_query("q0", "pair", 0, 1, "D"))
    clock.advance(2.0)
    engine.submit(_query("q1", "pair", 1, 0, "D"))
    assert engine.run_batch() == 0
    assert _retained(engine, "q1") is not None
    clock.advance(1.0)
    assert engine.expire_stale() == 1                     # q0
    assert _retained(engine, "q1") is None
    # The id comes back as a different query: q1's partner in E, not D.
    # Nothing derived for the old incarnation may answer for it.
    engine.submit(_query("q0", "pair", 0, 1, "E"))
    engine.insert("F", [("U0", "U1"), ("U1", "U0")])
    assert engine.run_batch() == 0
    assert engine.stats.match_resumed == 0
    engine.submit(_query("q2", "pair", 1, 0, "E"))
    assert engine.run_batch() == 2
    assert engine.pending_ids() == ["q1"]
    assert engine.stats.match_resumed == 0


def test_rounds_with_ucs_fallback_retry_cores_on_a_standing_verdict():
    """The verdict speaks for the whole component; a core may answer
    where the whole cannot, so fallback rounds do not consult it."""
    engine = D3CEngine(_database([("U0", "U1"), ("U1", "U0")]),
                       incremental_strategy="component",
                       ucs_fallback=True)
    # q2 relies on q0 and provides nobody: outside the core q0 <-> q1.
    engine.submit(EntangledQuery(
        query_id="q2", head=(atom("R", "U2", "elsewhere"),),
        postconditions=(atom("R", "U0", "D"),),
        body=(atom("F", "U2", "U0"),)))
    engine.submit(_query("q0", "pair", 0, 1, "D"))
    engine.submit(_query("q1", "pair", 1, 0, "D"))
    # The closure attempted the whole partition (no F(U2, U0)) and
    # stamped its verdict; closures do not fall back.
    assert engine.pending_count == 3
    assert _retained(engine, "q0").empty_reads is not None
    assert engine.run_batch() == 2
    assert engine.pending_ids() == ["q2"]
    assert engine.stats.closures_skipped_empty == 0
