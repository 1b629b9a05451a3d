"""Table schemas and the database catalog."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..errors import SchemaError
from .types import ColumnType, column_type_of


@dataclass(frozen=True, slots=True)
class Column:
    """One typed, named column."""

    name: str
    type: ColumnType = ColumnType.ANY

    def __str__(self) -> str:
        return f"{self.name} {self.type.value}"


@dataclass(frozen=True, slots=True)
class TableSchema:
    """Schema of one relation: an ordered tuple of columns.

    Column names must be unique within a table.  Schemas are immutable;
    altering a table means creating a new one.
    """

    name: str
    columns: tuple[Column, ...]
    #: Number of columns — a slot, not a property: admission reads it
    #: for every database atom of every arrival.
    arity: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.columns, tuple):
            object.__setattr__(self, "columns", tuple(self.columns))
        if not self.columns:
            raise SchemaError(f"table {self.name!r} must have >= 1 column")
        object.__setattr__(self, "arity", len(self.columns))
        seen: set[str] = set()
        for column in self.columns:
            if column.name in seen:
                raise SchemaError(
                    f"table {self.name!r} has duplicate column "
                    f"{column.name!r}")
            seen.add(column.name)

    def column_names(self) -> tuple[str, ...]:
        """Ordered column names."""
        return tuple(column.name for column in self.columns)

    def position_of(self, column_name: str) -> int:
        """Index of a column by name; raises SchemaError if absent."""
        for position, column in enumerate(self.columns):
            if column.name == column_name:
                return position
        raise SchemaError(
            f"table {self.name!r} has no column {column_name!r}")

    def check_row(self, row: Sequence) -> tuple:
        """Validate a row against this schema, returning the stored tuple."""
        if len(row) != self.arity:
            raise SchemaError(
                f"table {self.name!r} expects {self.arity} values, "
                f"got {len(row)}")
        return tuple(column.type.check(value)
                     for column, value in zip(self.columns, row))

    def __str__(self) -> str:
        inner = ", ".join(str(column) for column in self.columns)
        return f"{self.name}({inner})"


def schema(name: str, *column_specs: str) -> TableSchema:
    """Build a schema from ``"colname type"`` strings.

    >>> str(schema("User", "UserName text", "HomeTown text"))
    'User(UserName text, HomeTown text)'

    A bare column name defaults to the ``any`` type.
    """
    columns = []
    for spec in column_specs:
        parts = spec.split()
        if len(parts) == 1:
            columns.append(Column(parts[0]))
        elif len(parts) == 2:
            columns.append(Column(parts[0], column_type_of(parts[1])))
        else:
            raise SchemaError(f"bad column spec {spec!r}; "
                              f"expected 'name' or 'name type'")
    return TableSchema(name, tuple(columns))


class Catalog:
    """Name -> schema registry for one database."""

    def __init__(self) -> None:
        self._schemas: dict[str, TableSchema] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._schemas

    def __iter__(self) -> Iterator[str]:
        return iter(self._schemas)

    def __len__(self) -> int:
        return len(self._schemas)

    def add(self, table_schema: TableSchema) -> None:
        if table_schema.name in self._schemas:
            raise SchemaError(
                f"table {table_schema.name!r} already exists")
        self._schemas[table_schema.name] = table_schema

    def get(self, name: str) -> TableSchema:
        try:
            return self._schemas[name]
        except KeyError:
            raise SchemaError(f"no such table: {name!r}")
