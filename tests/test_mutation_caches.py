"""Targeted cache invalidation under live database mutations.

Every data-dependent cache in the stack — the planner's shape cache
(plan orders and the programs compiled from them), the scheduler's
failed-group set, and the dirty-component worklist — must (a) return correct results after a mutation to a table
it covered and (b) keep its entries for untouched tables, proven by the
hit counters.  These are the regression tests for the live-mutation
subsystem's invalidation story; the oracle-equivalence suite proves the
end-to-end answers, these pin the mechanism.
"""

from __future__ import annotations

import pytest

from repro.core.query import EntangledQuery
from repro.core.terms import Variable, atom
from repro.db import Database, evaluate_naive
from repro.db.expression import ConjunctiveQuery
from repro.engine.engine import D3CEngine
from repro.errors import SchemaError


def _two_table_db() -> Database:
    db = Database()
    db.create_table("A", "x text", "y text")
    db.create_table("B", "x text", "y text")
    db.insert("A", [("a1", "v1"), ("a2", "v2")])
    db.insert("B", [("b1", "w1"), ("b2", "w2")])
    return db


def _cq(table: str) -> ConjunctiveQuery:
    left, right = Variable(f"{table}_l"), Variable(f"{table}_r")
    return ConjunctiveQuery((atom(table, left, right),))


# ----------------------------------------------------------------------
# planner plan-order cache
# ----------------------------------------------------------------------


def test_plan_cache_mutation_evicts_covered_table_only():
    db = _two_table_db()
    planner = db._executor.planner
    planner.plan(_cq("A"))
    planner.plan(_cq("B"))
    assert planner.cached_plan_count() == 2

    planner.plan(_cq("A"))
    hits_before = planner.cache_hits
    assert hits_before >= 1

    db.insert("B", [("b3", "w3")])
    # B's entry is gone, A's survives and still hits.
    assert planner.cached_plan_count() == 1
    planner.plan(_cq("A"))
    assert planner.cache_hits == hits_before + 1
    misses_before = planner.cache_misses
    rows = sorted(valuation[Variable("B_l")]
                  for valuation in db.evaluate(_cq("B")))
    assert rows == ["b1", "b2", "b3"]
    assert planner.cache_misses == misses_before + 1


def test_plan_cache_delete_also_invalidates():
    db = _two_table_db()
    planner = db._executor.planner
    list(db.evaluate(_cq("A")))
    db.delete_rows("A", [("a1", "v1")])
    rows = sorted(valuation[Variable("A_l")]
                  for valuation in db.evaluate(_cq("A")))
    assert rows == ["a2"]
    assert planner.cached_plan_count() == 1  # the fresh A entry


# ----------------------------------------------------------------------
# compiled programs (kept with their plan-cache entries)
# ----------------------------------------------------------------------


def test_programs_survive_unrelated_mutations():
    db = _two_table_db()
    planner = db._executor.planner
    query_a, query_b = _cq("A"), _cq("B")
    list(db.evaluate(query_a))
    list(db.evaluate(query_b))
    list(db.evaluate(query_a))
    hits_before = planner.program_hits
    assert hits_before >= 1
    assert planner.retained_program_count() == 2

    db.insert("B", [("b3", "w3")])
    assert planner.retained_program_count() == 1
    list(db.evaluate(query_a))
    assert planner.program_hits == hits_before + 1
    builds_before = planner.program_builds
    assert len(list(db.evaluate(query_b))) == 3
    assert planner.program_builds == builds_before + 1


def test_all_constant_probe_not_stale_after_mutation():
    """An all-constant probe key is a run-time probe like any other —
    no rows are captured at compile time, whichever way the table is
    mutated (through the facade, or directly behind it)."""
    db = _two_table_db()
    value = Variable("v")
    query = ConjunctiveQuery((atom("A", "a1", value),))
    assert [valuation[value] for valuation in db.evaluate(query)] \
        == ["v1"]
    db.insert("A", [("a1", "v9")])
    assert sorted(valuation[value]
                  for valuation in db.evaluate(query)) == ["v1", "v9"]
    db.delete_rows("A", [("a1", "v1")])
    assert [valuation[value] for valuation in db.evaluate(query)] \
        == ["v9"]
    db.table("A").insert(("a1", "v7"))
    assert sorted(valuation[value]
                  for valuation in db.evaluate(query)) == ["v7", "v9"]


def _chain(length: int) -> ConjunctiveQuery:
    """A join chain of *length* atoms (a distinct shape per length)."""
    variables = [Variable(f"n{index}") for index in range(length + 1)]
    return ConjunctiveQuery(tuple(
        atom("A", variables[index], variables[index + 1])
        for index in range(length)))


def test_oversized_program_runs_but_is_not_retained(monkeypatch):
    db = _two_table_db()
    db.insert("A", [("v1", "a2")])
    planner = db._executor.planner
    monkeypatch.setattr("repro.db.planner.MAX_RETAINED_STEPS", 4)
    for _ in range(2):
        assert len(list(db.evaluate(_chain(5)))) == \
            len(evaluate_naive(db, _chain(5)))
    # Built on both evaluations, kept on neither; the plan order is
    # cached all the same.
    assert planner.program_builds == 2
    assert planner.program_hits == 0
    assert planner.retained_program_count() == 0
    assert planner.cache_hits == 1


def test_program_budget_counts_steps_and_drops_wholesale(monkeypatch):
    db = _two_table_db()
    planner = db._executor.planner
    monkeypatch.setattr("repro.db.planner.MAX_RETAINED_STEPS", 4)
    list(db.evaluate(_chain(1)))
    list(db.evaluate(_chain(2)))
    assert planner.retained_program_count() == 2
    # 1 + 2 + 3 steps exceed the budget: the retained programs go,
    # their plan orders stay, and the newcomer is kept.
    list(db.evaluate(_chain(3)))
    assert planner.retained_program_count() == 1
    assert planner.cached_plan_count() == 3
    assert planner._retained_steps == 3
    # Evicting the survivor returns its steps to the budget.
    db.insert("A", [("a7", "v7")])
    assert planner.cached_plan_count() == 0
    assert planner._retained_steps == 0


# ----------------------------------------------------------------------
# scheduler: worklist dirty-marking and failed groups
# ----------------------------------------------------------------------


def _gated_pair(tag: str, gate: str) -> list[EntangledQuery]:
    queries = []
    for query_id, user, partner in ((f"{tag}-a", "u1", "u2"),
                                    (f"{tag}-b", "u2", "u1")):
        town = Variable("c")
        queries.append(EntangledQuery(
            query_id=query_id,
            head=(atom("R", user, tag),),
            postconditions=(atom("R", partner, tag),),
            body=(atom(gate, user, partner), atom("U", user, town),
                  atom("U", partner, town))))
    return queries


def _gate_db() -> Database:
    db = Database()
    db.create_table("G1", "a text", "b text")
    db.create_table("G2", "a text", "b text")
    db.insert("U", []) if db.has_table("U") else \
        db.create_table("U", "a text", "b text")
    db.insert("U", [("u1", "t"), ("u2", "t")])
    return db


def test_mutation_requeues_only_reading_components():
    db = _gate_db()
    engine = D3CEngine(db, mode="batch")
    first = engine.submit_many(_gated_pair("d1", "G1"))
    engine.submit_many(_gated_pair("d2", "G2"))
    assert engine.run_batch() == 0
    assert not engine._runtime._dirty

    drained_before = engine.stats.components_drained
    db.insert("G1", [("u1", "u2"), ("u2", "u1")])
    # Only the G1 component is re-queued...
    assert set(engine._runtime._dirty) == {"d1-a", "d1-b"}
    assert engine.run_batch() == 2
    assert first[0].answer.rows
    # ...and only it was re-drained.
    assert engine.stats.components_drained - drained_before == 1


def test_failed_groups_dropped_only_for_mutated_tables():
    db = _gate_db()
    engine = D3CEngine(db, mode="incremental")
    engine.submit_many(_gated_pair("g1", "G1"))
    engine.submit_many(_gated_pair("g2", "G2"))
    failed = engine._failed_groups
    assert len(failed) >= 2
    g2_groups = {group for group in failed
                 if any(str(member).startswith("g2") for member in group)}
    assert g2_groups

    db.insert("G1", [("u1", "u2"), ("u2", "u1")])
    # G1 groups forgotten (they can now succeed); G2 groups retained.
    assert g2_groups <= engine._failed_groups
    assert not any(str(member).startswith("g1")
                   for group in engine._failed_groups
                   for member in group)
    # The freed component answers at the next round.
    assert engine.run_batch() == 2


def test_insert_is_all_or_nothing_on_a_bad_row():
    """A bad row mid-batch must not leave earlier rows committed with
    no delta — listeners and shard replicas would silently diverge."""
    db = _two_table_db()
    committed = []
    db.add_mutation_listener(committed.append)
    version = db.db_version
    with pytest.raises(SchemaError):
        db.insert("A", [("ok", "row"), ("bad",)])
    assert len(list(db.table("A").rows())) == 2
    assert not committed
    assert db.db_version == version


def test_delete_where_evaluates_predicate_once_per_row():
    """A stateful predicate must see each row exactly once, and the
    committed delta must list exactly the rows removed."""
    db = _two_table_db()
    calls: list = []
    committed = []
    db.add_mutation_listener(committed.append)

    def predicate(row):
        calls.append(row)
        return row[0] == "a1"

    assert db.delete_where("A", predicate) == 1
    assert len(calls) == 2
    assert committed[-1].deleted == (("a1", "v1"),)
    assert sorted(db.table("A").rows()) == [("a2", "v2")]


def test_eviction_leaves_every_reverse_index_bucket():
    """An entry reading two tables must vanish from BOTH tables'
    reverse-index buckets when either mutates (no dead references
    retained under mutation-heavy workloads), and its program with
    it."""
    db = _two_table_db()
    planner = db._executor.planner
    left, right = Variable("l"), Variable("r")
    joined = ConjunctiveQuery((atom("A", left, right),
                               atom("B", left, right)))
    list(db.evaluate(joined))
    assert planner.cached_plan_count() == 1
    assert planner.retained_program_count() == 1
    assert set(planner._by_table) == {"A", "B"}

    db.insert("A", [("a9", "v9")])
    assert planner.cached_plan_count() == 0
    assert planner.retained_program_count() == 0
    assert not planner._by_table
    assert planner._retained_steps == 0


def test_db_version_is_monotone_and_per_commit():
    db = _gate_db()
    version = db.db_version
    db.insert("G1", [("u1", "u2"), ("u2", "u1")])
    assert db.db_version == version + 1
    db.delete_rows("G1", [("u1", "u2")])
    assert db.db_version == version + 2
    db.delete_rows("G1", [("never", "there")])  # no-op: no commit
    assert db.db_version == version + 2
