"""Tests for the plain-SELECT statement of the SQL front end
(repro.lang: parse_select, lower_select, run_sql)."""

from __future__ import annotations

import pytest

from repro.errors import ParseError, ValidationError
from repro.lang import (parse_and_lower, parse_entangled_sql, parse_ir,
                        parse_select, run_sql)
from repro.lang.sql_ast import ColumnRef, FromItem
from repro.workloads import build_intro_database

#: Every statement the execution tests below run successfully.
SUCCESSFUL_QUERIES = (
    "SELECT fno FROM Flights WHERE dest = 'Rome'",
    "SELECT * FROM Airlines WHERE airline = 'United'",
    "SELECT F.fno, A.airline FROM Flights F, Airlines A "
    "WHERE F.fno = A.fno AND F.dest = 'Paris'",
    "SELECT fno FROM Flights WHERE fno > 130",
    "SELECT DISTINCT dest FROM Flights",
    "SELECT fno FROM Flights LIMIT 2",
    "SELECT fno FROM Flights WHERE dest = 'Paris' AND dest = 'Rome'",
    "SELECT dest FROM Flights WHERE dest = 'Rome'",
    "SELECT fno FROM Flights LIMIT 1",
    "SELECT airline FROM Airlines WHERE fno = 136",
    "SELECT A.fno, B.fno FROM Flights A, Flights B "
    "WHERE A.dest = 'Rome' AND B.dest = 'Rome'",
)


@pytest.fixture
def db():
    return build_intro_database()


class TestParseSelect:
    def test_star_select(self):
        statement = parse_select("SELECT * FROM Flights")
        assert statement.columns is None
        assert statement.from_items == (FromItem("Flights"),)

    def test_columns_and_aliases(self):
        statement = parse_select(
            "SELECT F.fno, airline FROM Flights F, Airlines AS A")
        assert statement.columns == (ColumnRef("F", "fno"),
                                     ColumnRef(None, "airline"))
        assert statement.from_items == (FromItem("Flights", "F"),
                                        FromItem("Airlines", "A"))

    def test_distinct_and_limit(self):
        statement = parse_select(
            "SELECT DISTINCT dest FROM Flights LIMIT 2")
        assert statement.distinct
        assert statement.limit == 2

    def test_predicates(self):
        statement = parse_select(
            "SELECT fno FROM Flights WHERE dest = 'Paris' "
            "AND fno >= 123")
        assert len(statement.equalities) == 1
        (comparison,) = statement.comparisons
        assert comparison.op == ">="

    def test_bad_limit(self):
        with pytest.raises(ParseError, match="LIMIT"):
            parse_select("SELECT * FROM T LIMIT x")

    def test_missing_from(self):
        with pytest.raises(ParseError):
            parse_select("SELECT a")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_select("SELECT * FROM T garbage more")

    @pytest.mark.parametrize("text", SUCCESSFUL_QUERIES + (
        "SELECT fno FROM Flights WHERE 0 < fno <= 130 "
        "AND dest BETWEEN 'A' AND 'Q'",
        "SELECT DISTINCT * FROM Flights F WHERE F.dest != 'O''Hare' "
        "LIMIT 0",
    ))
    def test_select_ast_roundtrips_through_parser(self, text):
        statement = parse_select(text)
        assert parse_select(str(statement)) == statement


class TestExecution:
    def test_simple_filter(self, db):
        rows = run_sql(db, "SELECT fno FROM Flights WHERE dest = 'Rome'")
        assert rows == [(136,)]

    def test_star_projection(self, db):
        rows = run_sql(db, "SELECT * FROM Airlines "
                           "WHERE airline = 'United'")
        assert sorted(rows) == [(122, "United"), (123, "United")]

    def test_join_via_equality(self, db):
        rows = run_sql(db, """
            SELECT F.fno, A.airline FROM Flights F, Airlines A
            WHERE F.fno = A.fno AND F.dest = 'Paris'
        """)
        assert sorted(rows) == [(122, "United"), (123, "United"),
                                (134, "Lufthansa")]

    def test_range_predicate(self, db):
        rows = run_sql(db, "SELECT fno FROM Flights WHERE fno > 130")
        assert sorted(rows) == [(134,), (136,)]

    def test_distinct(self, db):
        rows = run_sql(db, "SELECT DISTINCT dest FROM Flights")
        assert sorted(rows) == [("Paris",), ("Rome",)]

    def test_limit(self, db):
        rows = run_sql(db, "SELECT fno FROM Flights LIMIT 2")
        assert len(rows) == 2

    def test_contradictory_equalities_yield_nothing(self, db):
        rows = run_sql(db, "SELECT fno FROM Flights "
                           "WHERE dest = 'Paris' AND dest = 'Rome'")
        assert rows == []

    def test_constant_projection_after_equality(self, db):
        rows = run_sql(db, "SELECT dest FROM Flights "
                           "WHERE dest = 'Rome'")
        assert rows == [("Rome",)]

    def test_ambiguous_column_rejected(self, db):
        with pytest.raises(ValidationError, match="ambiguous"):
            run_sql(db, "SELECT fno FROM Flights, Airlines")

    def test_unknown_column_rejected(self, db):
        with pytest.raises(ValidationError, match="unknown column"):
            run_sql(db, "SELECT bogus FROM Flights")

    def test_unknown_binding_rejected(self, db):
        with pytest.raises(ValidationError, match="unknown table alias"):
            run_sql(db, "SELECT Z.fno FROM Flights F")

    def test_duplicate_binding_rejected(self, db):
        with pytest.raises(ValidationError, match="duplicate table alias"):
            run_sql(db, "SELECT * FROM Flights F, Airlines F")

    def test_frontend_reuse(self, db):
        assert run_sql(db, "SELECT fno FROM Flights LIMIT 1")
        assert run_sql(
            db, "SELECT airline FROM Airlines WHERE fno = 136") == \
            [("Alitalia",)]

    def test_self_join_with_aliases(self, db):
        rows = run_sql(db, """
            SELECT A.fno, B.fno FROM Flights A, Flights B
            WHERE A.dest = 'Rome' AND B.dest = 'Rome'
        """)
        assert rows == [(136, 136)]


class TestSubquerySelect:
    """The ``IN (…)`` subquery is a one-column plain SELECT."""

    @pytest.mark.parametrize("subquery", [
        "SELECT * FROM Flights",
        "SELECT fno, dest FROM Flights",
        "SELECT DISTINCT fno FROM Flights",
        "SELECT fno FROM Flights LIMIT 1",
        "SELECT fno FROM Flights WHERE dest = 'Paris' LIMIT 1",
    ])
    def test_in_subquery_rejects_plain_select_extras(self, subquery):
        with pytest.raises(ParseError, match="exactly one column"):
            parse_entangled_sql(f"SELECT x INTO ANSWER R WHERE x IN "
                                f"({subquery}) CHOOSE 1")

    def test_answer_relation_rejected_at_top_level(self):
        with pytest.raises(ParseError, match="aggregate"):
            parse_select("SELECT a FROM ANSWER R")

    def test_limit_and_distinct_still_name_things(self):
        schemas = {"T": ("limit", "distinct")}
        for text in (
                "SELECT distinct INTO ANSWER R WHERE distinct IN "
                "(SELECT distinct FROM T limit) CHOOSE 1",
                "SELECT distinct INTO ANSWER R WHERE distinct IN "
                "(SELECT limit.distinct FROM T AS limit, T distinct "
                "WHERE limit.limit = distinct.limit) CHOOSE 1",
                "SELECT x INTO ANSWER R WHERE x IN "
                "(SELECT limit FROM T limit WHERE limit < 3) "
                "AND limit = 2 AND (limit, x) IN TABLE T CHOOSE 1"):
            assert parse_and_lower(text, "q", schemas).body
        query = parse_ir("{} R(limit, distinct) <- "
                         "T(limit, distinct), limit < distinct", "q")
        assert len(query.body_comparisons) == 1
        statement = parse_select(
            "SELECT distinct, limit FROM T limit WHERE limit.limit = 1 "
            "LIMIT 3")
        assert statement.columns == (ColumnRef(None, "distinct"),
                                     ColumnRef(None, "limit"))
        assert statement.from_items == (FromItem("T", "limit"),)
        assert not statement.distinct and statement.limit == 3
