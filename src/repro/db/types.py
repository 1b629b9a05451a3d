"""Column types for the in-memory relational substrate.

The combined queries produced by the coordination algorithm are ordinary
conjunctive queries; the substrate that evaluates them (standing in for
the paper's MySQL 4.1.20) needs only a small, strict type system: typed
columns catch workload-generator bugs early, and hashability is required
because every value may become a hash-index key or a unifier constant.
"""

from __future__ import annotations

import enum
import math
import sys
from typing import Any

from ..errors import SchemaError


class ColumnType(enum.Enum):
    """Supported column types.

    ``ANY`` accepts any hashable value and exists for quick prototyping;
    production schemas should use a concrete type.  Only its text, int,
    float and bool values have a snapshot and wire form
    (:mod:`repro.dataio` refuses the rest).
    """

    INT = "int"
    TEXT = "text"
    FLOAT = "float"
    BOOL = "bool"
    ANY = "any"

    def check(self, value: Any) -> Any:
        """Validate (and lightly coerce) *value* for this column type.

        Returns the stored representation; raises
        :class:`repro.errors.SchemaError` on mismatch.  ``INT`` accepts
        bools = False (Python quirk guarded explicitly), ``FLOAT`` accepts
        ints and stores them as floats.  A ``str`` is stored interned,
        so a table holds one object per distinct string; no other type
        is pooled.  NaN is refused: it equals nothing, itself included,
        so no probe, delete or snapshot reload could find its row.
        """
        if value is None:
            raise SchemaError(f"NULL values are not supported ({self.value})")
        if self is ColumnType.ANY:
            if type(value) is str:
                return sys.intern(value)
            try:
                hash(value)
            except TypeError:
                raise SchemaError(
                    f"values must be hashable, got {type(value).__name__}")
            if isinstance(value, float) and math.isnan(value):
                raise SchemaError("NaN values are not supported (any)")
            return value
        if self is ColumnType.INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(
                    f"expected int, got {type(value).__name__}: {value!r}")
            return value
        if self is ColumnType.TEXT:
            if not isinstance(value, str):
                raise SchemaError(
                    f"expected text, got {type(value).__name__}: {value!r}")
            # sys.intern refuses str subclasses; those keep their type.
            return sys.intern(value) if type(value) is str else value
        if self is ColumnType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(
                    f"expected float, got {type(value).__name__}: {value!r}")
            value = float(value)
            if math.isnan(value):
                raise SchemaError("NaN values are not supported (float)")
            return value
        if self is ColumnType.BOOL:
            if not isinstance(value, bool):
                raise SchemaError(
                    f"expected bool, got {type(value).__name__}: {value!r}")
            return value
        raise SchemaError(f"unknown column type {self!r}")  # pragma: no cover


def column_type_of(name: str) -> ColumnType:
    """Parse a column type from its lowercase name.

    >>> column_type_of("text") is ColumnType.TEXT
    True
    """
    try:
        return ColumnType(name.lower())
    except ValueError:
        valid = ", ".join(member.value for member in ColumnType)
        raise SchemaError(f"unknown column type {name!r}; expected one of "
                          f"{valid}")
