"""In-memory tables with lazy hash indexes."""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..errors import SchemaError
from .index import HashIndex, OrderedIndex
from .schema import TableSchema


class Table:
    """A multiset of typed rows with lazily-built hash indexes.

    Rows are stored in a dict keyed by a monotonically increasing row id
    so deletion does not invalidate other ids.  Duplicate rows are
    permitted (bag semantics, like SQL); the flight workloads never rely
    on duplicates but the substrate should not silently dedupe.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: dict[int, tuple] = {}
        self._next_row_id = 0
        self._indexes: dict[tuple[int, ...], HashIndex] = {}
        # Ordered (bisect) indexes, keyed by their position tuple in
        # key order: equality prefix first, range column last.
        self._ordered: dict[tuple[int, ...], OrderedIndex] = {}
        # Range-probe counters (surfaced through index_stats and the
        # engine/shard stats snapshots).
        self.range_probes = 0
        self.range_rows = 0
        self.range_pruned = 0
        # Guards lazy index construction: several caller threads may
        # evaluate against one database concurrently.
        self._index_lock = threading.Lock()
        # Bumped on every mutation; the planner's cached plan orders are
        # validated against this so stale statistics trigger a re-plan.
        self._version = 0

    @property
    def version(self) -> int:
        """Mutation counter (invalidates cached plans on data change)."""
        return self._version

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def insert(self, row: Sequence) -> int:
        """Validate and insert one row; returns its row id."""
        return self.insert_stored(self.schema.check_row(row))

    def insert_stored(self, stored: tuple) -> int:
        """Insert a row already in validated stored form.

        The bulk paths (:meth:`repro.db.database.Database.insert`,
        delta replay) validate whole batches up front for atomicity;
        this skips the redundant second ``check_row``.  An index that
        refuses the row (an ordered index cannot compare a number with
        text) leaves the table as it was.
        """
        row_id = self._next_row_id
        try:
            for index in self._indexes.values():
                index.add(row_id, stored)
            for index in self._ordered.values():
                index.add(row_id, stored)
        except Exception:
            for added in (*self._indexes.values(), *self._ordered.values()):
                if added is index:
                    break
                added.remove(row_id, stored)
            raise
        self._next_row_id = row_id + 1
        self._rows[row_id] = stored
        self._version += 1
        return row_id

    def insert_stored_many(self, stored_rows: Sequence[tuple]) -> None:
        """:meth:`insert_stored` every row, all or none: a row that
        fails takes the rows stored before it back out."""
        first = self._next_row_id
        try:
            for stored in stored_rows:
                self.insert_stored(stored)
        except Exception:
            for row_id in range(first, self._next_row_id):
                self._discard(row_id)
            raise

    def insert_many(self, rows: Iterable[Sequence]) -> int:
        """Insert many rows; returns the number inserted."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def delete_rows(self, rows: Iterable[Sequence]) -> list[tuple]:
        """Delete one stored copy per given row value.

        Bag semantics: a value appearing twice in *rows* removes two
        copies; values not present are skipped.  Returns the rows
        actually removed (validated/coerced form), so callers emitting
        deltas record exactly what left the table.
        """
        rows = list(rows)
        removed: list[tuple] = []
        if not rows:
            return removed
        index = self.index_on(tuple(range(self.schema.arity)))
        for row in rows:
            stored = self.schema.check_row(row)
            bucket = index.lookup(index.key_of(stored))
            if not bucket:
                continue
            removed.append(self._discard(bucket[0]))
        return removed

    def delete_where(self, predicate: Callable[[tuple], bool]) -> int:
        """Delete rows satisfying *predicate*; returns the count removed."""
        return len(self.delete_matching(predicate))

    def delete_matching(self, predicate: Callable[[tuple], bool]
                        ) -> list[tuple]:
        """Delete rows satisfying *predicate*; returns the removed rows.

        One pass, by row id — no value lookups, no index construction;
        the delta-emitting :meth:`repro.db.database.Database.
        delete_where` records the returned rows.
        """
        doomed = [row_id for row_id, row in self._rows.items()
                  if predicate(row)]
        return [self._discard(row_id) for row_id in doomed]

    def _discard(self, row_id: int) -> tuple:
        """Delete the row stored under *row_id*; returns it."""
        row = self._rows.pop(row_id)
        self._version += 1
        for index in self._indexes.values():
            index.remove(row_id, row)
        for index in self._ordered.values():
            index.remove(row_id, row)
        return row

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> Iterator[tuple]:
        """Iterate over all rows (order unspecified but stable)."""
        return iter(self._rows.values())

    def row(self, row_id: int) -> tuple:
        """Fetch a row by id."""
        try:
            return self._rows[row_id]
        except KeyError:
            raise SchemaError(
                f"table {self.schema.name!r} has no row id {row_id}")

    def contains_row(self, row: Sequence) -> bool:
        """Membership test using the full-width index."""
        positions = tuple(range(self.schema.arity))
        index = self.index_on(positions)
        return bool(index.probe(tuple(row)))

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------

    def index_on(self, positions: Sequence[int]) -> HashIndex:
        """Return (building if necessary) the index on *positions*.

        Positions are canonicalized to sorted order so ``(0, 1)`` and
        ``(1, 0)`` share one physical index.
        """
        key = tuple(sorted(set(positions)))
        for position in key:
            if not 0 <= position < self.schema.arity:
                raise SchemaError(
                    f"table {self.schema.name!r} has no column position "
                    f"{position}")
        index = self._indexes.get(key)
        if index is None:
            with self._index_lock:
                index = self._indexes.get(key)
                if index is None:
                    index = HashIndex(
                        key, whole_row=len(key) == self.schema.arity)
                    for row_id, row in self._rows.items():
                        index.add(row_id, row)
                    self._indexes[key] = index
        return index

    def ordered_index_on(self, prefix_positions: Sequence[int],
                         range_position: int) -> OrderedIndex:
        """Return (building if necessary) the ordered index whose
        equality prefix is *prefix_positions* (canonicalized to sorted
        order, like :meth:`index_on`) and whose range column is
        *range_position*.

        The range column may not repeat a prefix position — the prefix
        already pins it to one value, so a range on it is either
        vacuous or empty and should be resolved before probing.
        """
        prefix = tuple(sorted(set(prefix_positions)))
        for position in prefix + (range_position,):
            if not 0 <= position < self.schema.arity:
                raise SchemaError(
                    f"table {self.schema.name!r} has no column position "
                    f"{position}")
        if range_position in prefix:
            raise SchemaError(
                f"table {self.schema.name!r}: range column "
                f"{range_position} is already in the equality prefix "
                f"{prefix}")
        key = prefix + (range_position,)
        index = self._ordered.get(key)
        if index is None:
            with self._index_lock:
                index = self._ordered.get(key)
                if index is None:
                    index = OrderedIndex(key)
                    for row_id, row in self._rows.items():
                        index.add(row_id, row)
                    self._ordered[key] = index
        return index

    def note_range_probe(self, returned: int, pruned: int) -> None:
        """Record one ordered-index probe (executor counter hook)."""
        self.range_probes += 1
        self.range_rows += returned
        self.range_pruned += pruned

    @property
    def row_map(self) -> dict[int, tuple]:
        """The live row-id -> row mapping (treat as read-only).

        Exposed for the executor's compiled plans, which resolve index
        buckets to rows in their inner loop; going through a method per
        probe would dominate small-bucket joins.
        """
        return self._rows

    def probe(self, bindings: dict[int, object]) -> Iterator[tuple]:
        """Yield rows matching equality *bindings* (position -> value).

        Uses the hash index on the bound positions; with no bindings this
        is a full scan.
        """
        if not bindings:
            yield from self.rows()
            return
        for row_id in self._bucket(bindings):
            yield self._rows[row_id]

    def count_probe(self, bindings: dict[int, object]) -> int:
        """Number of rows matching *bindings* (for planner estimates)."""
        if not bindings:
            return len(self._rows)
        return len(self._bucket(bindings))

    def _bucket(self, bindings: dict[int, object]) -> list[int]:
        """Row ids matching non-empty *bindings*, looked up under the
        index's own key form (a bare value for one position)."""
        positions = sorted(bindings)
        index = self.index_on(positions)
        if len(positions) == 1:
            return index.lookup(bindings[positions[0]])
        return index.lookup(tuple([bindings[position]
                                   for position in positions]))

    def index_stats(self) -> dict:
        """Built indexes plus range-probe counters.

        ``hash`` maps index positions to distinct-key counts,
        ``ordered`` maps ordered-index positions (prefix order, range
        column last) to entry counts; the counters mirror
        :meth:`note_range_probe`.
        """
        return {
            "hash": {positions: index.bucket_count()
                     for positions, index in self._indexes.items()},
            "ordered": {positions: len(index)
                        for positions, index in self._ordered.items()},
            "range_probes": self.range_probes,
            "range_rows": self.range_rows,
            "range_pruned": self.range_pruned,
        }
