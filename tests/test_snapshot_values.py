"""Every value a column accepts survives a snapshot and a replica.

:func:`repro.dataio.dump_database` text is what a durable service
snapshots and what a process shard or a served child rebuilds its
database from, so a value the text cannot carry would make those shapes
disagree with the in-process engine.  The round trip must keep type and
value exactly — interning included: ``1``, ``1.0``, ``True`` and ``'1'``
stay distinct, and so do ``0.0`` and ``-0.0``.
"""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataio import dump_database, load_database
from repro.db import Database
from repro.db.types import ColumnType
from repro.durability import DurableEngine
from repro.engine.staleness import ManualClock
from repro.errors import SchemaError, ValidationError
from repro.lang import parse_ir
from repro.shard import ShardedCoordinator
from repro.workloads import build_intro_database

#: Values each column type accepts (NaN is refused, see below).
FLOATS = st.floats(allow_nan=False)
COLUMN_VALUES = {
    "int": st.integers(),
    "text": st.text(),
    "float": FLOATS | st.integers(min_value=-2 ** 60, max_value=2 ** 60),
    "bool": st.booleans(),
    "any": st.integers() | st.text() | FLOATS | st.booleans(),
}
TYPES = sorted(COLUMN_VALUES)


def exact(rows) -> list:
    """Rows compared by type and repr: ``1 == 1.0 == True`` and
    ``0.0 == -0.0`` must not hide a changed value."""
    return [tuple((type(value), repr(value)) for value in row)
            for row in rows]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(*[COLUMN_VALUES[name] for name in TYPES]),
                max_size=8))
def test_dump_round_trips_every_column_type(rows):
    database = Database()
    database.create_table(
        "T", *[f"c_{name} {name}" for name in TYPES])
    database.insert("T", rows)
    clone = load_database(dump_database(database))
    assert exact(clone.table("T").rows()) == exact(
        database.table("T").rows())
    for row in clone.table("T").rows():
        for value in row:
            if type(value) is str:
                assert sys.intern(value) is value


def test_look_alike_values_keep_their_types():
    database = Database()
    database.create_table("T", "v any")
    values = [1, 1.0, True, "1", 0.0, -0.0, "true", math.inf, -math.inf,
              1e20, 1e-07, 5e-324, "a\nb", "it's\n-- not a comment",
              "\r\x0b\x0c\x1c\x85 "]
    database.insert("T", [(value,) for value in values])
    clone = load_database(dump_database(database))
    assert exact(clone.table("T").rows()) == exact(
        (value,) for value in values)


@pytest.mark.parametrize("column", ["float", "any"])
def test_nan_is_refused(column):
    with pytest.raises(SchemaError, match="NaN"):
        ColumnType(column).check(math.nan)


def test_a_value_without_a_data_file_form_fails_the_dump():
    database = Database()
    database.create_table("T", "v any")
    database.insert("T", [((1, 2),)])
    with pytest.raises(ValidationError, match="no data-file form"):
        dump_database(database)


def test_a_string_literal_may_span_lines_and_comments_stay_comments():
    database = load_database(
        "table T a:text b:int\n"
        "row T 'first\nsecond' 1 -- it's a comment\n"
        "-- a comment line with an apostrophe: '\n"
        "row T 'x' 2\n")
    assert list(database.table("T").rows()) == [("first\nsecond", 1),
                                                ("x", 2)]


# ----------------------------------------------------------------------
# the service shapes that rebuild a database from its dump
# ----------------------------------------------------------------------

ODD_ROWS = [(1, True, 1e20, "a\nb"), (2, False, -math.inf, "it's")]


def _odd_database() -> Database:
    database = build_intro_database()
    database.create_table("Odd", "k int", "flag bool", "x float",
                          "note text")
    return database


def test_durable_engine_recovers_every_value_it_journalled(tmp_path):
    wal_dir = tmp_path / "wal"
    service = DurableEngine(wal_dir, _odd_database(), clock=ManualClock(),
                            sync_every=None, mode="batch")
    service.apply_mutations([("insert", "Odd", ODD_ROWS)])
    expected = exact(service.database.table("Odd").rows())
    service.close()
    recovered = DurableEngine.recover(wal_dir, clock=ManualClock(),
                                      sync_every=None, mode="batch")
    try:
        assert exact(recovered.database.table("Odd").rows()) == expected
    finally:
        recovered.close()


def test_process_fleet_serves_a_database_with_a_bool_column():
    database = _odd_database()
    database.insert("Odd", ODD_ROWS)
    queries = [
        parse_ir("{Reservation(Jerry, x)} Reservation(Kramer, x) "
                 "<- Flights(x, Paris)", "kramer"),
        parse_ir("{Reservation(Kramer, y)} Reservation(Jerry, y) "
                 "<- Flights(y, Paris), Airlines(y, United)", "jerry"),
    ]
    with ShardedCoordinator(database, num_shards=2, backend="process",
                            mode="batch") as coordinator:
        tickets = coordinator.submit_many(queries)
        coordinator.run_batch()
        assert all(ticket.answer is not None for ticket in tickets)
