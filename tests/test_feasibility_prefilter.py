"""The feasibility prefilter: one bounded enumeration, no memory.

``CoordinationScheduler._feasible_first`` enumerates the origin's body
once per call, in the planner's fan-out order, and keeps the candidate
providers whose ground head the data can pair with.  There is no memo:
the oracle below is recomputed on whatever the tables hold now, so a
call after an insert or a delete must agree with it just like the first
one.  The planner tests pin the join order the enumeration relies on.
These are counts and verdicts, never timings.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import EntangledQuery
from repro.core.terms import Variable, atom
from repro.db import ConjunctiveQuery, Database
from repro.db.executor import evaluate_naive
from repro.db.planner import Planner
from repro.engine.engine import D3CEngine
from repro.engine.runtime import CoordinationScheduler
from repro.workloads import (build_flight_database,
                             generate_social_network, two_way_pairs)

USERS = [f"u{index}" for index in range(6)]
TOWNS = ["t0", "t1"]


def _generic(query_id: str, user: str, tag: str) -> EntangledQuery:
    partner, town = Variable(tag), Variable(tag + "_c")
    return EntangledQuery(
        query_id=query_id,
        head=(atom("Res", user, "PAR"),),
        postconditions=(atom("Res", partner, "PAR"),),
        body=(atom("F", user, partner), atom("U", user, town),
              atom("U", partner, town)))


def _open_head(query_id: str, tag: str) -> EntangledQuery:
    """A provider whose head names whoever lives in town t0."""
    who = Variable(tag)
    return EntangledQuery(
        query_id=query_id, head=(atom("Res", who, "PAR"),),
        postconditions=(), body=(atom("U", who, "t0"),))


def _database(friends, homes) -> Database:
    db = Database()
    db.create_table("F", "a text", "b text")
    db.create_table("U", "u text", "t text")
    db.insert("F", sorted(friends))
    db.insert("U", sorted(homes))
    return db


def _feasible_by_brute_force(db, graph, query, ref) -> bool:
    """Head non-ground, or body ∧ (postcondition = head) has a
    valuation — by nested loops, no planner, no indexes."""
    head = graph.query(ref[0]).head[ref[1]]
    if not head.is_ground():
        return True
    mapping = {}
    for wanted, given_term in zip(query.postconditions[0].args, head.args):
        if mapping.setdefault(wanted, given_term) != given_term:
            return False
    body = tuple(item.substitute(
        {term: value for term, value in mapping.items()
         if isinstance(term, Variable)}) for item in query.body)
    return bool(evaluate_naive(db, ConjunctiveQuery(body)))


def _pending(db, providers, origin):
    """A batch engine (nothing coordinates on submit) holding
    *providers* and *origin*; returns the scheduler, the origin as the
    graph holds it and its candidate refs in arrival order."""
    engine = D3CEngine(db, mode="batch", safety="off")
    engine.submit_many([*providers, origin])
    runtime = engine._runtime
    query = runtime.graph.query(origin.query_id)
    refs = sorted(runtime.graph.provider_refs(origin.query_id)[0],
                  key=lambda ref: engine._arrival[ref[0]])
    return runtime, query, refs


_rows = st.sets(st.tuples(st.sampled_from(USERS), st.sampled_from(USERS)),
                max_size=14)
_homes = st.sets(st.tuples(st.sampled_from(USERS), st.sampled_from(TOWNS)),
                 max_size=9)


@given(_rows, _homes, _rows, _homes,
       st.lists(st.sampled_from(USERS), min_size=2, max_size=6),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_kept_refs_equal_the_brute_force_oracle_across_mutations(
        friends, homes, more_friends, fewer_homes, provider_users,
        open_head):
    db = _database(friends, homes)
    providers = [_generic(f"p{index}", user, f"p{index}")
                 for index, user in enumerate(provider_users)]
    if open_head:
        providers.insert(1, _open_head("open", "o"))
    runtime, query, refs = _pending(db, providers,
                                    _generic("origin", "u0", "x"))

    def check():
        expected = [ref for ref in refs if _feasible_by_brute_force(
            db, runtime.graph, query, ref)]
        assert runtime._feasible_first(query, refs) == expected

    check()
    db.insert("F", sorted(more_friends - friends))
    check()
    db.delete_rows("U", sorted(homes & fewer_homes))
    check()


def test_a_truncated_enumeration_reorders_and_never_drops(monkeypatch):
    monkeypatch.setattr(CoordinationScheduler, "_FEASIBILITY_LIMIT", 4)
    friends = [f"f{index}" for index in range(8)]
    db = _database({("u0", friend) for friend in friends},
                   {("u0", "t0"), *((friend, "t0") for friend in friends)})
    # A stranger first, then every friend: all eight are feasible, the
    # cap lets four be seen.
    providers = [_generic("p-stranger", "nobody", "s")] + [
        _generic(f"p-{friend}", friend, f"p{friend}")
        for friend in friends]
    runtime, query, refs = _pending(db, providers,
                                    _generic("origin", "u0", "x"))
    before = runtime.feasibility_misses
    ordered = runtime._feasible_first(query, refs)
    assert runtime.feasibility_misses == before + 1
    assert sorted(ordered) == sorted(refs)
    seen, unseen = ordered[:4], ordered[4:]
    assert ("p-stranger", 0) not in seen
    assert all(_feasible_by_brute_force(db, runtime.graph, query, ref)
               for ref in seen)
    # Both halves keep arrival order.
    assert seen == [ref for ref in refs if ref in seen]
    assert unseen == [ref for ref in refs if ref in unseen]
    # Uncapped, the same call drops the stranger and only the stranger.
    monkeypatch.setattr(CoordinationScheduler, "_FEASIBILITY_LIMIT", 64)
    assert runtime._feasible_first(query, refs) == refs[1:]


def test_prefilter_sees_rows_written_since_the_last_call():
    db = _database(set(), {("alice", "t1"), ("carol", "t1"),
                           ("dave", "t1")})
    engine = D3CEngine(db, mode="incremental")
    engine.submit(_generic("c1", "carol", "p"))
    engine.submit(_generic("d1", "dave", "q"))
    # Two pending providers force the prefilter; alice has no friends
    # yet, so the enumeration is empty and complete.
    engine.submit(_generic("a1", "alice", "r"))
    assert engine.stats.answered == 0

    # Mutate the data WITHOUT invalidate_cache(); a structurally
    # identical body arriving afterwards must see the new rows.
    db.insert("F", [("alice", "carol"), ("carol", "alice")])
    engine.submit(_generic("a2", "alice", "s"))
    assert engine.stats.answered == 2
    assert set(engine.pending_ids()) == {"d1", "a1"}


def test_every_call_enumerates_and_only_misses_are_published():
    db = _database(set(), {("alice", "t1")})
    engine = D3CEngine(db, mode="incremental")
    engine.submit(_generic("c1", "carol", "p"))
    engine.submit(_generic("d1", "dave", "q"))
    engine.submit(_generic("a1", "alice", "r"))
    engine.submit(_generic("a2", "alice", "s"))
    counters = engine.metrics_snapshot()["counters"]
    # Same body, unchanged data: two calls, two enumerations.
    assert counters["feasibility.misses"] == 2
    assert "feasibility.hits" not in counters
    assert not hasattr(engine, "_feasible_memo")


# ----------------------------------------------------------------------
# the join order the enumeration relies on
# ----------------------------------------------------------------------


def _town_database() -> Database:
    """u0 lives in a town of 39 and has 10 friends, 8 of them there."""
    locals_ = [f"l{index}" for index in range(38)]
    friends = locals_[:8] + ["far0", "far1"]
    return _database(
        {("u0", friend) for friend in friends},
        {("u0", "t0"), ("far0", "t1"), ("far1", "t1"),
         *((user, "t0") for user in locals_)})


def test_minimum_fan_out_goes_before_connectedness():
    db = _town_database()
    body = _generic("q", "u0", "x").body
    plan = Planner(db).plan(ConjunctiveQuery(body))
    friends_of, home_of, partner_home = body
    # U(J, c) binds the town; probing U(x, c) on the town alone would
    # scan all 39 residents, F(J, x) yields 10 friends.
    assert [step.atom for step in plan.steps] == [
        home_of, friends_of, partner_home]
    assert db.count(ConjunctiveQuery(body)) == 8


def test_connectedness_breaks_an_exact_cost_tie():
    db = Database()
    db.create_table("A", "x int")
    db.create_table("B", "x int", "y int")
    db.create_table("C", "z int")
    db.insert("A", [(1,)])
    db.insert("B", [(1, 10), (1, 11), (2, 12), (2, 13)])
    db.insert("C", [(7,), (8,)])
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    # After A(x): B(x, y) is estimated at 4 rows / 2 keys = 2.0, and so
    # is the unconnected two-row C(z), listed first.
    query = ConjunctiveQuery((atom("A", x), atom("C", z),
                              atom("B", x, y)))
    planner = Planner(db)
    assert (planner._estimated_cost(atom("B", x, y), {x})
            == planner._estimated_cost(atom("C", z), {x}) == 2.0)
    assert [step.atom.relation for step in planner.plan(query).steps] \
        == ["A", "B", "C"]


def test_a_warm_pairs_epoch_plans_and_compiles_nothing():
    """``db.plan_cache_hit_ratio`` and ``db.compile_hit_ratio`` read 1.0
    on the ledger's ``pairs_incremental`` because a warm epoch re-uses
    every shape; the cost-first key must not split a shape."""
    network = generate_social_network(num_users=200, seed=0)
    db = build_flight_database(network)
    queries = two_way_pairs(network, 120, seed=12)

    def epoch() -> dict:
        engine = D3CEngine(db, mode="incremental")
        for query in queries:
            engine.submit(query)
        assert engine.stats.answered
        return db.cache_stats()

    epoch()
    warm = epoch()
    again = epoch()
    assert again["plan_cache_misses"] == warm["plan_cache_misses"]
    assert again["compile_misses"] == warm["compile_misses"]
    assert again["plan_cache_hits"] > warm["plan_cache_hits"]
