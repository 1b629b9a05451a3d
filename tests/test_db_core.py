"""Tests for the database substrate: types, schema, tables, indexes."""

from __future__ import annotations

import pytest

from repro.db.index import HashIndex
from repro.db.schema import Catalog, Column, TableSchema, schema
from repro.db.table import Table
from repro.db.types import ColumnType, column_type_of
from repro.errors import SchemaError


class TestColumnType:
    def test_int_check(self):
        assert ColumnType.INT.check(5) == 5
        with pytest.raises(SchemaError):
            ColumnType.INT.check("5")
        with pytest.raises(SchemaError):
            ColumnType.INT.check(True)  # bools are not ints here

    def test_text_check(self):
        assert ColumnType.TEXT.check("abc") == "abc"
        with pytest.raises(SchemaError):
            ColumnType.TEXT.check(5)

    def test_float_check_coerces_int(self):
        assert ColumnType.FLOAT.check(5) == 5.0
        assert isinstance(ColumnType.FLOAT.check(5), float)
        with pytest.raises(SchemaError):
            ColumnType.FLOAT.check("5.0")

    def test_bool_check(self):
        assert ColumnType.BOOL.check(True) is True
        with pytest.raises(SchemaError):
            ColumnType.BOOL.check(1)

    def test_any_requires_hashable(self):
        assert ColumnType.ANY.check((1, 2)) == (1, 2)
        with pytest.raises(SchemaError):
            ColumnType.ANY.check([1, 2])

    def test_null_rejected(self):
        for column_type in ColumnType:
            with pytest.raises(SchemaError):
                column_type.check(None)

    def test_column_type_of(self):
        assert column_type_of("TEXT") is ColumnType.TEXT
        with pytest.raises(SchemaError):
            column_type_of("varchar")


class TestSchema:
    def test_schema_helper(self):
        table_schema = schema("User", "UserName text", "Age int")
        assert table_schema.arity == 2
        assert table_schema.column_names() == ("UserName", "Age")
        assert table_schema.columns[1].type is ColumnType.INT

    def test_bare_column_defaults_to_any(self):
        table_schema = schema("T", "x")
        assert table_schema.columns[0].type is ColumnType.ANY

    def test_bad_spec_rejected(self):
        with pytest.raises(SchemaError):
            schema("T", "a b c")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            schema("T", "x int", "x text")

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("T", ())

    def test_position_of(self):
        table_schema = schema("T", "a", "b")
        assert table_schema.position_of("b") == 1
        with pytest.raises(SchemaError):
            table_schema.position_of("zzz")

    def test_check_row(self):
        table_schema = schema("T", "a int", "b text")
        assert table_schema.check_row([1, "x"]) == (1, "x")
        with pytest.raises(SchemaError, match="expects 2"):
            table_schema.check_row([1])
        with pytest.raises(SchemaError):
            table_schema.check_row(["x", 1])

    def test_catalog(self):
        catalog = Catalog()
        catalog.add(schema("T", "a"))
        assert "T" in catalog
        assert catalog.get("T").name == "T"
        with pytest.raises(SchemaError, match="already exists"):
            catalog.add(schema("T", "b"))
        assert "U" not in catalog
        with pytest.raises(SchemaError):
            catalog.get("U")


class TestHashIndex:
    def test_add_probe_remove(self):
        index = HashIndex((0,))
        index.add(1, ("a", 10))
        index.add(2, ("a", 20))
        index.add(3, ("b", 30))
        assert sorted(index.probe(("a",))) == [1, 2]
        index.remove(1, ("a", 10))
        assert index.probe(("a",)) == [2]
        assert index.probe(("zzz",)) == []

    def test_multi_column_key(self):
        index = HashIndex((0, 2))
        index.add(1, ("a", "ignored", "x"))
        assert index.probe(("a", "x")) == [1]
        assert index.probe(("a", "y")) == []

    def test_bucket_statistics(self):
        index = HashIndex((0,))
        for row_id, value in enumerate(["a", "a", "b", "c"]):
            index.add(row_id, (value,))
        assert index.bucket_count() == 3
        assert index.estimate_bucket_size(4) == pytest.approx(4 / 3)
        assert len(index) == 4

    def test_remove_last_in_bucket_clears_key(self):
        index = HashIndex((0,))
        index.add(1, ("a",))
        index.remove(1, ("a",))
        assert index.bucket_count() == 0


class TestTable:
    def make_table(self) -> Table:
        table = Table(schema("U", "name text", "town text"))
        table.insert(("ann", "ITH"))
        table.insert(("bob", "ITH"))
        table.insert(("cem", "JFK"))
        return table

    def test_insert_validates(self):
        table = self.make_table()
        with pytest.raises(SchemaError):
            table.insert((1, "x"))
        assert len(table) == 3

    def test_probe_with_bindings(self):
        table = self.make_table()
        rows = sorted(table.probe({1: "ITH"}))
        assert rows == [("ann", "ITH"), ("bob", "ITH")]
        assert list(table.probe({0: "cem", 1: "JFK"})) == [("cem", "JFK")]
        assert list(table.probe({0: "zzz"})) == []

    def test_probe_no_bindings_scans_all(self):
        table = self.make_table()
        assert len(list(table.probe({}))) == 3

    def test_count_probe(self):
        table = self.make_table()
        assert table.count_probe({1: "ITH"}) == 2
        assert table.count_probe({}) == 3

    def test_indexes_maintained_on_insert(self):
        table = self.make_table()
        table.index_on((1,))
        table.insert(("dia", "ITH"))
        assert table.count_probe({1: "ITH"}) == 3

    def test_delete_where(self):
        table = self.make_table()
        table.index_on((1,))
        deleted = table.delete_where(lambda row: row[1] == "ITH")
        assert deleted == 2
        assert len(table) == 1
        assert table.count_probe({1: "ITH"}) == 0

    def test_duplicate_rows_allowed(self):
        table = self.make_table()
        table.insert(("ann", "ITH"))
        assert table.count_probe({0: "ann"}) == 2

    def test_contains_row(self):
        table = self.make_table()
        assert table.contains_row(("ann", "ITH"))
        assert not table.contains_row(("ann", "JFK"))

    def test_index_position_validation(self):
        table = self.make_table()
        with pytest.raises(SchemaError):
            table.index_on((5,))

    def test_index_positions_canonicalized(self):
        table = self.make_table()
        assert table.index_on((1, 0)) is table.index_on((0, 1))

    def test_row_by_id(self):
        table = Table(schema("T", "v int"))
        row_id = table.insert((7,))
        assert table.row(row_id) == (7,)
        with pytest.raises(SchemaError):
            table.row(999)

    def test_index_stats(self):
        table = self.make_table()
        table.index_on((1,))
        stats = table.index_stats()
        assert stats["hash"][(1,)] == 2  # ITH and JFK
        assert stats["ordered"] == {}
        assert stats["range_probes"] == 0

    def test_index_stats_ordered(self):
        table = self.make_table()
        table.ordered_index_on((0,), 1)
        table.note_range_probe(3, 7)
        stats = table.index_stats()
        assert stats["ordered"][(0, 1)] == len(table)
        assert stats["range_probes"] == 1
        assert stats["range_rows"] == 3
        assert stats["range_pruned"] == 7
