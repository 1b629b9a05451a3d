"""Tests for repro.core.extensions — the paper's §6 extensions."""

from __future__ import annotations

import pytest

from repro.core.evaluate import FailureReason, coordinate
from repro.core.extensions import AggregateConstraint
from repro.core.terms import Variable, atom
from repro.db import Database

from servicekit import friend_query, jerry_aggregate_query


@pytest.fixture
def party_db() -> Database:
    db = Database()
    db.create_table("Parties", "pid text", "pdate text")
    db.create_table("Friend", "name1 text", "name2 text")
    db.insert("Parties", [("p1", "Friday"), ("p2", "Friday"),
                          ("p3", "Saturday")])
    db.insert("Friend", [("Jerry", name) for name
                         in ("Elaine", "George", "Newman")])
    return db


class TestAggregateConstraint:
    def test_count_over_answer_rows(self, party_db):
        pid = Variable("pid")
        name = Variable("name")
        constraint = AggregateConstraint(
            atoms=(atom("Attendance", pid, name),),
            answer_relations=frozenset({"Attendance"}),
            op=">", threshold=1)
        rows = {"Attendance": [("p1", "Elaine"), ("p1", "George")]}
        assert constraint.evaluate(party_db, rows, {})
        assert not constraint.evaluate(
            party_db, {"Attendance": [("p1", "Elaine")]}, {})

    def test_count_with_bound_outer_variable(self, party_db):
        pid = Variable("pid")
        name = Variable("name")
        constraint = AggregateConstraint(
            atoms=(atom("Attendance", pid, name),),
            answer_relations=frozenset({"Attendance"}),
            op="=", threshold=1)
        rows = {"Attendance": [("p1", "Elaine"), ("p2", "George")]}
        assert constraint.evaluate(party_db, rows, {pid: "p1"})

    def test_join_with_database_table(self, party_db):
        """Count only *friends of Jerry* among attendees."""
        pid, name = Variable("pid"), Variable("name")
        constraint = AggregateConstraint(
            atoms=(atom("Attendance", pid, name),
                   atom("Friend", "Jerry", name)),
            answer_relations=frozenset({"Attendance"}),
            op="=", threshold=2)
        rows = {"Attendance": [("p1", "Elaine"), ("p1", "George"),
                               ("p1", "Stranger")]}
        assert constraint.evaluate(party_db, rows, {})

    def test_duplicate_answer_rows_counted_once(self, party_db):
        pid, name = Variable("pid"), Variable("name")
        constraint = AggregateConstraint(
            atoms=(atom("Attendance", pid, name),),
            answer_relations=frozenset({"Attendance"}),
            op="=", threshold=1)
        rows = {"Attendance": [("p1", "Elaine"), ("p1", "Elaine")]}
        assert constraint.evaluate(party_db, rows, {})

    def test_rename(self):
        pid = Variable("pid")
        constraint = AggregateConstraint(
            atoms=(atom("A", pid),), answer_relations=frozenset({"A"}),
            op=">", threshold=0)
        renamed = constraint.rename("@q")
        assert renamed.atoms[0].args[0] == Variable("pid@q")
        assert renamed.threshold == 0

    def test_variables(self):
        constraint = AggregateConstraint(
            atoms=(atom("A", Variable("p"), Variable("n")),),
            answer_relations=frozenset({"A"}), op=">", threshold=0)
        assert constraint.variables() == {Variable("p"), Variable("n")}


class TestCoordinateWithAggregates:
    def test_paper_party_example_succeeds(self, party_db):
        queries = [jerry_aggregate_query(party_db, threshold=2)]
        queries += [friend_query(party_db, name)
                    for name in ("Elaine", "George", "Newman")]
        result = coordinate(queries, party_db)
        assert len(result.answers) == 4
        parties = {answer.rows["Attendance"][0][0]
                   for answer in result.answers.values()}
        assert len(parties) == 1  # everyone at the same party

    def test_threshold_not_met_fails_component(self, party_db):
        queries = [jerry_aggregate_query(party_db, threshold=2),
                   friend_query(party_db, "Elaine")]
        result = coordinate(queries, party_db)
        assert not result.answers
        assert all(reason is FailureReason.NO_DATA
                   for reason in result.failures.values())

    def test_queries_without_aggregates_behave_normally(self, intro_db,
                                                        kramer_query,
                                                        jerry_query):
        result = coordinate(
            [kramer_query, jerry_query], intro_db)
        assert set(result.answers) == {"kramer", "jerry"}
