"""Tests for the Database facade."""

from __future__ import annotations

import pytest

from repro.core.terms import Variable, atom
from repro.db import ConjunctiveQuery, Database
from repro.db.schema import schema
from repro.errors import ReproError, SchemaError


class TestDdl:
    def test_create_and_list_tables(self):
        db = Database()
        db.create_table("B", "x int")
        db.create_table("A", "y text")
        assert db.table_names() == ["A", "B"]
        assert db.has_table("A")
        assert not db.has_table("C")

    def test_create_from_schema(self):
        db = Database()
        table = db.create_table_from_schema(schema("T", "a int"))
        assert table.schema.name == "T"

    def test_duplicate_table_rejected(self):
        db = Database()
        db.create_table("T", "a")
        with pytest.raises(SchemaError):
            db.create_table("T", "b")

    def test_unknown_table_access(self):
        with pytest.raises(SchemaError, match="no such table"):
            Database().table("ghost")


class TestDml:
    def test_bulk_insert_returns_count(self):
        db = Database()
        db.create_table("T", "a int")
        assert db.insert("T", [(1,), (2,)]) == 2
        assert len(db.table("T")) == 2

    def test_insert_row_returns_id(self):
        db = Database()
        db.create_table("T", "a int")
        first = db.insert_row("T", (1,))
        second = db.insert_row("T", (2,))
        assert second == first + 1


class TestApplyMutations:
    @staticmethod
    def _db():
        db = Database()
        db.create_table("T", "a int", "b text")
        db.create_table("U", "n int")
        db.insert("T", [(1, "x"), (2, "y")])
        db.insert("U", [(7,)])
        return db

    def test_batch_applies_in_order_one_delta_per_op(self):
        db = self._db()
        deltas = []
        db.add_mutation_listener(deltas.append)
        version = db.db_version
        counts = db.apply_mutations([
            ("insert", "T", [(3, "z"), [4, "w"]]),
            ("delete", "T", [(1, "x"), (99, "absent")]),
            ("insert", "U", []),
        ])
        assert counts == [2, 1, 0]
        assert sorted(db.table("T").rows()) == [(2, "y"), (3, "z"),
                                                (4, "w")]
        # Empty ops commit nothing; every other op is one delta.
        assert db.db_version == version + 2
        assert [(delta.table, delta.inserted, delta.deleted)
                for delta in deltas] == [
            ("T", ((3, "z"), (4, "w")), ()), ("T", (), ((1, "x"),))]

    @pytest.mark.parametrize("bad", [
        ("upsert", "T", [(5, "v")]),          # unknown kind
        ("insert", "Ghost", [(5, "v")]),      # unknown table
        ("insert", "T", [(5, "v", "extra")]),  # wrong arity
        ("delete", "T", [("not-an-int", "v")]),  # wrong type
    ])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_bad_op_anywhere_changes_nothing(self, bad, position):
        """Whole-batch validation: a bad op leaves ``db_version``,
        every table and every listener untouched — the good ops
        around it included."""
        db = self._db()
        deltas = []
        db.add_mutation_listener(deltas.append)
        version = db.db_version
        before = {name: sorted(db.table(name).rows())
                  for name in db.table_names()}
        batch = [("insert", "T", [(3, "z")]), ("delete", "U", [(7,)])]
        batch.insert(position, bad)
        with pytest.raises(ReproError):
            db.apply_mutations(batch)
        assert db.db_version == version
        assert {name: sorted(db.table(name).rows())
                for name in db.table_names()} == before
        assert deltas == []

    @pytest.mark.parametrize("rows", [[("w2", 1)],
                                      [("w2", "fine"), ("w3", 1)]])
    def test_a_row_an_index_refuses_leaves_nothing_stored(self, rows):
        """An ``any`` column under an ordered index holds text, and the
        batch inserts a number: the index refuses it, and no row of the
        batch stays stored without a delta announcing it."""
        db = Database()
        db.create_table("W", "a text", "v any")
        db.insert("W", [("w1", "text")])
        table = db.table("W")
        ordered = table.ordered_index_on((), 1)
        hashed = table.index_on((0,))
        deltas = []
        db.add_mutation_listener(deltas.append)
        with pytest.raises(TypeError):
            db.apply_mutations([("insert", "W", rows)])
        assert list(table.rows()) == [("w1", "text")]
        assert db.db_version == 1 and deltas == []
        assert len(ordered) == len(hashed) == 1
        assert db.apply_mutations([("insert", "W", [("w4", "more")])]) \
            == [1]
        assert sorted(table.rows()) == [("w1", "text"), ("w4", "more")]


class TestFacadeQueries:
    def test_evaluate_first_count(self):
        db = Database()
        db.create_table("T", "a int")
        db.insert("T", [(1,), (2,), (3,)])
        query = ConjunctiveQuery((atom("T", Variable("x")),))
        assert db.count(query) == 3
        assert db.first(query) is not None
        assert len(list(db.evaluate(query, limit=2))) == 2

    def test_str_lists_tables_and_sizes(self):
        db = Database()
        assert str(db) == "(empty database)"
        db.create_table("T", "a int")
        db.insert("T", [(1,)])
        assert "[1 rows]" in str(db)
