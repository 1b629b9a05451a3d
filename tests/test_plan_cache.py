"""Tests for the planner's structural plan cache and compiled execution.

Covers the PR-1 cache guarantees:

* a cache hit replays a plan *structurally equal* to what a cold planner
  would build for the seeding query (same atom order, same comparison
  schedule), including across variable renamings;
* cached-plan execution matches the ``evaluate_naive`` oracle on
  hypothesis-generated queries (the executor always goes through the
  cache, so evaluating twice exercises both the miss and hit paths);
* data mutations invalidate cached orders (table versions shift);
* threads evaluating against one database share the cache without
  losing a lookup or changing a result (``Planner._cache_lock``).
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.terms import Constant, Variable, atom
from repro.db import Comparison, ConjunctiveQuery, Database, evaluate_naive
from repro.db.planner import Planner, query_signature

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def plan_shape(plan):
    """Structural fingerprint of a plan: atom order + check schedule."""
    return tuple((step.atom, step.comparisons) for step in plan.steps), \
        plan.pre_comparisons


def rename(query: ConjunctiveQuery, suffix: str) -> ConjunctiveQuery:
    """A structurally identical copy with fresh variable names."""
    mapping = {variable: Variable(variable.name + suffix)
               for variable in query.variables()}
    new_atoms = tuple(a.substitute(mapping) for a in query.atoms)
    new_comparisons = tuple(
        Comparison(mapping.get(c.left, c.left), c.op,
                   mapping.get(c.right, c.right))
        for c in query.comparisons)
    return ConjunctiveQuery(new_atoms, new_comparisons,
                            distinct=query.distinct)


def make_db() -> Database:
    database = Database()
    database.create_table("F", "a int", "b int")
    database.create_table("U", "a int", "c text")
    database.insert("F", [(i, (i * 3) % 7) for i in range(30)])
    database.insert("U", [(i, f"t{i % 4}") for i in range(30)])
    return database


@pytest.fixture
def db() -> Database:
    return make_db()


class TestSignature:
    def test_rename_invariant(self, db):
        query = ConjunctiveQuery((atom("F", 3, X), atom("U", X, Y)))
        assert query_signature(query) == query_signature(rename(query, "_r"))

    def test_constant_values_ignored(self):
        one = ConjunctiveQuery((atom("F", 3, X),))
        other = ConjunctiveQuery((atom("F", 4, X),))
        assert query_signature(one) == query_signature(other)

    def test_join_structure_captured(self):
        joined = ConjunctiveQuery((atom("F", X, Y), atom("U", Y, Z)))
        apart = ConjunctiveQuery((atom("F", X, Y), atom("U", Z, Z)))
        assert query_signature(joined) != query_signature(apart)

    def test_comparison_shape_captured(self):
        bare = ConjunctiveQuery((atom("F", X, Y),))
        compared = ConjunctiveQuery((atom("F", X, Y),),
                                    (Comparison(X, "<", Y),))
        assert query_signature(bare) != query_signature(compared)


class TestPlanCache:
    def test_hit_replays_cold_plan(self, db):
        query = ConjunctiveQuery((atom("F", 3, X), atom("U", X, Y)))
        cold = Planner(db, cache_plans=False).plan(query)
        warm_planner = Planner(db)
        first = warm_planner.plan(query)
        second = warm_planner.plan(rename(query, "_renamed"))
        assert warm_planner.cache_hits == 1
        assert plan_shape(first) == plan_shape(cold)
        assert plan_shape(second) == plan_shape(
            Planner(db, cache_plans=False).plan(rename(query, "_renamed")))

    def test_mutation_invalidates(self, db):
        query = ConjunctiveQuery((atom("F", 3, X), atom("U", X, Y)))
        planner = Planner(db)
        planner.plan(query)
        db.insert("F", [(99, 99)])
        planner.plan(query)
        assert planner.cache_misses == 2

    def test_clear_cache(self, db):
        planner = Planner(db)
        query = ConjunctiveQuery((atom("F", 3, X),))
        planner.plan(query)
        planner.clear_cache()
        planner.plan(query)
        assert planner.cache_misses == 2

    def test_comparison_schedule_replayed(self, db):
        query = ConjunctiveQuery(
            (atom("F", X, Y), atom("U", X, Z)),
            (Comparison(Y, ">", Constant(0)),
             Comparison(Z, "!=", Constant("t0"))))
        planner = Planner(db)
        first = planner.plan(query)
        second = planner.plan(rename(query, "_q2"))
        assert planner.cache_hits == 1
        cold = Planner(db, cache_plans=False).plan(rename(query, "_q2"))
        assert plan_shape(second) == plan_shape(cold)
        assert plan_shape(first)[0] != ()  # sanity: non-empty plan

    def test_concurrent_evaluations_share_one_program_cache(self):
        """Caller threads look up, build and retain programs in the
        one shape cache concurrently; every evaluation must return
        what a serial run returns, with no lookup lost from the
        cache's counters.  A tiny switch interval forces interleavings
        inside the cache's critical sections."""
        queries = [query for k in range(30) for query in (
            ConjunctiveQuery((atom("F", k, X), atom("U", X, Y))),
            ConjunctiveQuery((atom("U", X, f"t{k % 4}"), atom("F", X, Y)),
                             (Comparison(Y, ">", Constant(k % 5)),)),
            ConjunctiveQuery((atom("F", X, Y), atom("F", Y, k % 7))),
            ConjunctiveQuery((atom("U", k, X),)))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outcomes = []
            for workers in (1, 8):
                # A fresh database per leg: both start from a cold cache.
                database = make_db()

                def evaluate(query):
                    return sorted(sorted(
                        (variable.name, value)
                        for variable, value in valuation.items())
                        for valuation in database.evaluate(query))

                with ThreadPoolExecutor(workers) as pool:
                    outcomes.append(list(pool.map(evaluate, queries)))
                planner = database._executor.planner
                # Every evaluation is one lookup and then exactly one
                # of: a program hit, a program build.
                assert (planner.program_hits + planner.program_builds
                        == planner.cache_hits + planner.cache_misses)
                assert planner.program_hits > planner.program_builds
        finally:
            sys.setswitchinterval(interval)
        assert outcomes[0] == outcomes[1]
        assert any(outcomes[0])


# -- oracle property ----------------------------------------------------

_VALUES = st.integers(min_value=0, max_value=5)
_VARS = st.sampled_from([X, Y, Z])
_TERMS = st.one_of(_VARS, _VALUES.map(Constant))


def _atoms(relation, arity):
    return st.tuples(*([_TERMS] * arity)).map(
        lambda args: atom(relation, *args))


_QUERIES = st.lists(
    st.one_of(_atoms("R", 2), _atoms("S", 2), _atoms("T", 1)),
    min_size=1, max_size=3).map(lambda atoms: ConjunctiveQuery(tuple(atoms)))


@settings(max_examples=60, deadline=None)
@given(query=_QUERIES, data=st.data())
def test_cached_execution_matches_oracle(query, data):
    """Warm-cache execution must agree with the nested-loop oracle."""
    database = Database()
    database.create_table("R", "a int", "b int")
    database.create_table("S", "a int", "b int")
    database.create_table("T", "a int")
    database.insert("R", data.draw(st.lists(
        st.tuples(_VALUES, _VALUES), max_size=8)))
    database.insert("S", data.draw(st.lists(
        st.tuples(_VALUES, _VALUES), max_size=8)))
    database.insert("T", data.draw(st.lists(
        st.tuples(_VALUES), max_size=5)))

    def canonical(valuations):
        return sorted(
            tuple(sorted((variable.name, value)
                         for variable, value in valuation.items()))
            for valuation in valuations)

    expected = canonical(evaluate_naive(database, query))
    # First evaluation misses the plan cache, second (on a renamed but
    # structurally identical copy) hits it; both must match the oracle.
    assert canonical(database.evaluate(query)) == expected
    renamed = rename(query, "_again")
    assert canonical(evaluate_naive(database, renamed)) == \
        canonical(database.evaluate(renamed))
