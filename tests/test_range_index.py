"""Ordered range indexes and comparison pushdown, end to end.

* maintenance: randomized insert/delete/delta interleavings keep every
  ordered index consistent with a sorted-scan oracle over the live rows;
* equivalence: the compiled executor answers randomized inequality
  queries identically with pushdown on, pushdown off, and under the
  naive nested-loop oracle;
* integration: the engine's stats snapshot carries the database's
  ordered-index counters.
"""

from __future__ import annotations

import random

import pytest

from repro.core.query import EntangledQuery
from repro.core.terms import Constant, Variable, atom
from repro.db import (Comparison, ConjunctiveQuery, Database,
                      evaluate_naive)
from repro.db.database import TableDelta
from repro.engine.engine import D3CEngine

S = Variable("s")
X = Variable("x")


def _canon(valuations):
    return sorted(tuple(sorted((variable.name, value)
                               for variable, value in valuation.items()))
                  for valuation in valuations)


# ----------------------------------------------------------------------
# maintenance under mutation
# ----------------------------------------------------------------------


def _window_oracle(table, prefix, low, high):
    """Rows matching the window, by scanning and sorting (the truth)."""
    return sorted(row for row in table.rows()
                  if (prefix is None or row[0] == prefix)
                  and low <= row[1] < high)


def _window_probe(table, index, prefix, low, high):
    """Rows the ordered index serves for the same window."""
    key = () if prefix is None else (prefix,)
    row_ids = index.probe_range(key, (low, True), (high, False))
    return [table.row(row_id) for row_id in row_ids]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ordered_index_survives_interleaved_mutations(seed):
    rng = random.Random(seed)
    database = Database()
    database.create_table("T", "k int", "v int")
    table = database.table("T")
    bare = table.ordered_index_on((), 1)
    prefixed = table.ordered_index_on((0,), 1)

    def random_rows(count):
        return [(rng.randrange(6), rng.randrange(40))
                for _ in range(count)]

    database.insert("T", random_rows(30))
    for step in range(60):
        kind = rng.randrange(3)
        if kind == 0:
            database.insert("T", random_rows(rng.randrange(1, 6)))
        elif kind == 1:
            # Delete a mix of present and absent row values (bag
            # semantics: absent values are skipped, one copy per hit).
            victims = ([rng.choice(list(table.rows()))
                        for _ in range(rng.randrange(1, 4))
                        if len(table)]
                       + random_rows(1))
            database.delete_rows("T", victims)
        else:
            # The replication path: a delta produced "elsewhere",
            # carrying both insertions and deletions in one frame.
            deleted = tuple(rng.choice(list(table.rows()))
                            for _ in range(rng.randrange(0, 3))
                            if len(table))
            # delete_rows semantics below removes one copy per value;
            # dedupe so the delta never deletes more copies than held.
            deleted = tuple(dict.fromkeys(deleted))
            database.apply_delta(TableDelta(
                table="T", inserted=tuple(random_rows(2)),
                deleted=deleted,
                version=database.db_version + 1))

        low = rng.randrange(40)
        high = low + rng.randrange(1, 15)
        assert sorted(_window_probe(table, bare, None, low, high)) == \
            _window_oracle(table, None, low, high)
        prefix = rng.randrange(6)
        assert sorted(_window_probe(table, prefixed, prefix,
                                    low, high)) == \
            _window_oracle(table, prefix, low, high)
        # Windows come back in range-column order, not just as the
        # right multiset.
        values = [row[1] for row in _window_probe(table, bare, None,
                                                  low, high)]
        assert values == sorted(values)


# ----------------------------------------------------------------------
# executor equivalence on randomized inequality queries
# ----------------------------------------------------------------------


def _random_comparisons(rng, variables):
    comparisons = []
    for variable in variables:
        shape = rng.randrange(4)
        if shape == 0:
            continue
        if shape == 1:  # one-sided bound
            op = rng.choice(("<", "<=", ">", ">="))
            comparisons.append(
                Comparison(variable, op, Constant(rng.randrange(50))))
        elif shape == 2:  # two-sided window (sometimes empty)
            low = rng.randrange(50)
            high = low + rng.randrange(-5, 20)
            comparisons.append(
                Comparison(variable, ">=", Constant(low)))
            comparisons.append(
                Comparison(variable, rng.choice(("<", "<=")),
                           Constant(high)))
        else:  # constant-on-the-left spelling of a bound
            comparisons.append(
                Comparison(Constant(rng.randrange(50)),
                           rng.choice(("<", "<=", ">", ">=")),
                           variable))
    return tuple(comparisons)


def test_executor_matches_naive_on_random_inequality_queries():
    rng = random.Random(7)
    database = Database()
    database.create_table("T", "a int", "b int")
    database.create_table("J", "b int", "c int")
    database.insert("T", [(rng.randrange(20), rng.randrange(50))
                          for _ in range(250)])
    database.insert("J", [(rng.randrange(50), rng.randrange(20))
                          for _ in range(250)])
    a, b, c = Variable("a"), Variable("b"), Variable("c")
    try:
        for trial in range(40):
            if rng.randrange(2):
                atoms = (atom("T", a, b),)
                query_variables = (a, b)
            else:
                atoms = (atom("T", a, b), atom("J", b, c))
                query_variables = (a, b, c)
            query = ConjunctiveQuery(
                atoms=atoms,
                comparisons=_random_comparisons(rng, query_variables))
            expected = _canon(evaluate_naive(database, query))
            database.set_range_pushdown(True)
            assert _canon(database.evaluate(query)) == expected, \
                f"pushdown leg diverged on trial {trial}: {query}"
            database.set_range_pushdown(False)
            assert _canon(database.evaluate(query)) == expected, \
                f"baseline leg diverged on trial {trial}: {query}"
    finally:
        database.set_range_pushdown(True)


def test_contradictory_interval_prunes_without_scanning():
    database = Database()
    database.create_table("T", "a int", "b int")
    database.insert("T", [(i, i) for i in range(100)])
    query = ConjunctiveQuery(
        atoms=(atom("T", X, S),),
        comparisons=(Comparison(S, "<", Constant(10)),
                     Comparison(S, ">", Constant(20))))
    before = database.range_stats()
    assert list(database.evaluate(query)) == []
    after = database.range_stats()
    assert after["empty_prunes"] == before["empty_prunes"] + 1
    # The collapsed plan touches no index window at all.
    assert after["range_rows"] == before["range_rows"]


# ----------------------------------------------------------------------
# engine integration: counters ride the stats snapshot
# ----------------------------------------------------------------------


def test_engine_metrics_snapshot_reports_range_counters():
    database = Database()
    database.create_table("S", "UserName text", "Slot int")
    database.insert("S", [("amy", 15), ("amy", 90), ("bob", 15),
                          ("bob", 70), ("cid", 3)])
    queries = []
    for member, user, partner in (("a", "amy", "bob"),
                                  ("b", "bob", "amy")):
        queries.append(EntangledQuery(
            query_id=f"pair-{member}",
            head=(atom("R", user, "ITH"),),
            postconditions=(atom("R", partner, "ITH"),),
            body=(atom("S", user, S),),
            body_comparisons=(Comparison(S, ">=", Constant(10)),
                              Comparison(S, "<", Constant(20))),
            owner=user))
    engine = D3CEngine(database, mode="batch")
    engine.submit_all(queries)
    engine.run_batch()
    counters = engine.metrics_snapshot()["counters"]
    assert counters["answered"] == 2
    assert counters["range_index.range_probes"] > 0
    assert counters["range_index.ordered_indexes"] >= 1
    assert counters["range_index.range_pruned"] \
        + counters["range_index.range_rows"] > 0
