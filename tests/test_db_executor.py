"""Tests for the conjunctive-query executor and planner, including a
hypothesis property test against the naive nested-loop oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.terms import Atom, Constant, Variable, atom
from repro.db import (Comparison, ConjunctiveQuery, Database,
                      evaluate_naive)
from repro.errors import QueryEvaluationError, SchemaError

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


@pytest.fixture
def flights_db() -> Database:
    db = Database()
    db.create_table("Flights", "fno int", "dest text")
    db.create_table("Airlines", "fno int", "airline text")
    db.insert("Flights", [(122, "Paris"), (123, "Paris"),
                          (134, "Paris"), (136, "Rome")])
    db.insert("Airlines", [(122, "United"), (123, "United"),
                           (134, "Lufthansa"), (136, "Alitalia")])
    return db


def rows(db, query, limit=None):
    return [tuple(sorted((variable.name, value)
                         for variable, value in valuation.items()))
            for valuation in db.evaluate(query, limit=limit)]


class TestSingleAtom:
    def test_full_scan(self, flights_db):
        query = ConjunctiveQuery((atom("Flights", X, Y),))
        assert len(rows(flights_db, query)) == 4

    def test_constant_filter(self, flights_db):
        query = ConjunctiveQuery((atom("Flights", X, "Paris"),))
        values = {valuation[X] for valuation
                  in flights_db.evaluate(query)}
        assert values == {122, 123, 134}

    def test_all_constants_membership(self, flights_db):
        hit = ConjunctiveQuery((atom("Flights", 122, "Paris"),))
        miss = ConjunctiveQuery((atom("Flights", 122, "Rome"),))
        assert flights_db.count(hit) == 1
        assert flights_db.count(miss) == 0

    def test_repeated_variable_within_atom(self):
        db = Database()
        db.create_table("P", "a int", "b int")
        db.insert("P", [(1, 1), (1, 2), (3, 3)])
        query = ConjunctiveQuery((atom("P", X, X),))
        values = {valuation[X] for valuation in db.evaluate(query)}
        assert values == {1, 3}

    def test_unknown_relation(self, flights_db):
        query = ConjunctiveQuery((atom("Nope", X),))
        with pytest.raises(SchemaError):
            list(flights_db.evaluate(query))

    def test_arity_mismatch(self, flights_db):
        query = ConjunctiveQuery((atom("Flights", X),))
        with pytest.raises(QueryEvaluationError, match="arity"):
            list(flights_db.evaluate(query))


class TestJoins:
    def test_two_way_join(self, flights_db):
        query = ConjunctiveQuery((atom("Flights", X, "Paris"),
                                  atom("Airlines", X, "United")))
        values = sorted(valuation[X] for valuation
                        in flights_db.evaluate(query))
        assert values == [122, 123]

    def test_join_on_variable_chain(self, flights_db):
        query = ConjunctiveQuery((atom("Flights", X, Y),
                                  atom("Airlines", X, Z)))
        assert flights_db.count(query) == 4

    def test_cross_product_when_disconnected(self, flights_db):
        query = ConjunctiveQuery((atom("Flights", X, "Rome"),
                                  atom("Airlines", Y, "United")))
        assert flights_db.count(query) == 2  # 1 x 2

    def test_empty_join_result(self, flights_db):
        query = ConjunctiveQuery((atom("Flights", X, "Rome"),
                                  atom("Airlines", X, "United")))
        assert flights_db.count(query) == 0

    def test_limit_short_circuits(self, flights_db):
        query = ConjunctiveQuery((atom("Flights", X, Y),))
        assert len(rows(flights_db, query, limit=2)) == 2
        assert flights_db.first(query) is not None

    def test_first_on_empty(self, flights_db):
        query = ConjunctiveQuery((atom("Flights", X, "Tokyo"),))
        assert flights_db.first(query) is None

    def test_atom_free_query_yields_one_empty_valuation(self,
                                                        flights_db):
        query = ConjunctiveQuery(())
        assert list(flights_db.evaluate(query)) == [{}]


class TestComparisons:
    def test_equality_between_variables(self, flights_db):
        query = ConjunctiveQuery(
            (atom("Flights", X, Y), atom("Airlines", Z, "United")),
            (Comparison(X, "=", Z),))
        values = sorted(valuation[X] for valuation
                        in flights_db.evaluate(query))
        assert values == [122, 123]

    def test_inequality(self, flights_db):
        query = ConjunctiveQuery((atom("Flights", X, Y),),
                                 (Comparison(X, ">", Constant(130)),))
        values = sorted(valuation[X] for valuation
                        in flights_db.evaluate(query))
        assert values == [134, 136]

    def test_constant_only_comparison(self, flights_db):
        true_query = ConjunctiveQuery(
            (atom("Flights", X, Y),),
            (Comparison(Constant(1), "<", Constant(2)),))
        false_query = ConjunctiveQuery(
            (atom("Flights", X, Y),),
            (Comparison(Constant(2), "<", Constant(1)),))
        assert flights_db.count(true_query) == 4
        assert flights_db.count(false_query) == 0

    def test_unbound_comparison_variable_rejected(self, flights_db):
        query = ConjunctiveQuery((atom("Flights", X, Y),),
                                 (Comparison(Z, "=", Constant(1)),))
        with pytest.raises(QueryEvaluationError, match="not bound"):
            list(flights_db.evaluate(query))

    def test_unknown_operator_rejected(self):
        with pytest.raises(QueryEvaluationError):
            Comparison(X, "~", Y)


class TestDistinct:
    def test_distinct_projection(self, flights_db):
        query = ConjunctiveQuery((atom("Flights", X, Y),),
                                 distinct=True, output_variables=(Y,))
        values = sorted(valuation[Y] for valuation
                        in flights_db.evaluate(query))
        assert values == ["Paris", "Rome"]

    def test_distinct_all_variables(self):
        db = Database()
        db.create_table("T", "a int")
        db.insert("T", [(1,), (1,), (2,)])
        query = ConjunctiveQuery((atom("T", X),), distinct=True)
        assert db.count(query) == 2


class TestExplain:
    def test_explain_renders_plan(self, flights_db):
        query = ConjunctiveQuery((atom("Flights", X, "Paris"),
                                  atom("Airlines", X, "United")))
        text = flights_db.explain(query)
        assert "probe" in text
        assert "Flights" in text and "Airlines" in text

    def test_planner_starts_from_selective_atom(self, flights_db):
        # Airlines filtered to one row should be probed first.
        query = ConjunctiveQuery((atom("Flights", X, Y),
                                  atom("Airlines", X, "Alitalia")))
        text = flights_db.explain(query)
        first_line = text.splitlines()[0]
        assert "Airlines" in first_line


# ---------------------------------------------------------------------------
# property test: executor == naive nested loops
# ---------------------------------------------------------------------------

_value = st.integers(min_value=0, max_value=3)
_term = st.one_of(st.sampled_from([X, Y, Z]), _value.map(Constant))


@st.composite
def _database_and_query(draw):
    db = Database()
    db.create_table("R", "a int", "b int")
    db.create_table("S", "a int")
    r_rows = draw(st.lists(st.tuples(_value, _value), max_size=8))
    s_rows = draw(st.lists(st.tuples(_value), max_size=5))
    db.insert("R", r_rows)
    db.insert("S", s_rows)
    atoms = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            atoms.append(Atom("R", (draw(_term), draw(_term))))
        else:
            atoms.append(Atom("S", (draw(_term),)))
    return db, ConjunctiveQuery(tuple(atoms))


def _canon(valuations):
    return sorted(
        tuple(sorted((variable.name, value)
                     for variable, value in valuation.items()))
        for valuation in valuations)


@given(_database_and_query())
@settings(max_examples=150, deadline=None)
def test_executor_matches_naive_oracle(data):
    db, query = data
    assert _canon(db.evaluate(query)) == _canon(evaluate_naive(db, query))


@given(_database_and_query(), st.integers(min_value=0, max_value=6),
       st.lists(st.sampled_from([X, Y, Z]), min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_projection_reads_the_valuations_evaluate_yields(data, limit,
                                                         picked):
    """``project`` is ``evaluate`` minus the dicts: the same rows, in
    the same order, cut at the same limit."""
    db, query = data
    bound = query.variables()
    if not set(picked) <= bound:
        with pytest.raises(QueryEvaluationError):
            db.project(query, picked, limit)
        return
    expected = [tuple(valuation[variable] for variable in picked)
                for valuation in db.evaluate(query, limit=limit)]
    if len(picked) == 1:
        expected = [values[0] for values in expected]
    assert list(db.project(query, picked, limit)) == expected
