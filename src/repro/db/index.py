"""Hash and ordered (bisect) indexes over table columns.

The conjunctive-query executor probes tables by equality on a subset of
column positions (the positions bound by constants or already-bound join
variables).  A :class:`HashIndex` maps each row's key to the row ids
having that key.  It builds no key tuple it can avoid: a one-column
index is keyed by the bare value and an all-columns index by the stored
row tuple itself; only the other multi-column indexes keep a projected
tuple per row.  An :class:`OrderedIndex` keeps (key, row id)
entries in sorted order so inequality predicates on the *last* indexed
column resolve to a contiguous window found by binary search instead of
a scan-and-filter pass.  Both kinds are built lazily by the table on
first use of a position set and maintained on insert/delete.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import itemgetter
from typing import Iterable, Optional, Sequence


class HashIndex:
    """Equality index on a fixed tuple of column positions.

    :meth:`key_of` gives a row's key in the index's own form: the value
    for one position, the row itself when *whole_row* says the
    positions are every column of the table, a projected tuple
    otherwise.  :meth:`probe` takes a tuple in position order whatever
    the form; :meth:`lookup` and :meth:`bucket_getter` take the own
    form.  One column wins over whole-row: an arity-1 table's only
    index is keyed by the value.
    """

    __slots__ = ("positions", "_buckets", "key_of")

    def __init__(self, positions: Sequence[int], whole_row: bool = False):
        self.positions = tuple(positions)
        self._buckets: dict[object, list[int]] = {}
        if len(self.positions) == 1 or not whole_row:
            self.key_of = itemgetter(*self.positions)
        else:
            self.key_of = _same_row

    def add(self, row_id: int, row: Sequence) -> None:
        """Index *row* under *row_id*."""
        key = self.key_of(row)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [row_id]
        else:
            bucket.append(row_id)

    def remove(self, row_id: int, row: Sequence) -> None:
        """Drop *row_id* from the bucket of *row* (must be present)."""
        key = self.key_of(row)
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        try:
            bucket.remove(row_id)
        except ValueError:
            return
        if not bucket:
            del self._buckets[key]

    def probe(self, key: tuple) -> list[int]:
        """Row ids whose projection equals *key*, a tuple in position
        order (empty list if none)."""
        if len(self.positions) == 1:
            if len(key) != 1:
                return []
            key = key[0]
        return self._buckets.get(key, [])

    def lookup(self, key: object) -> list[int]:
        """Row ids under *key* in the index's own form (empty if none)."""
        return self._buckets.get(key, [])

    def bucket_getter(self):
        """The buckets' bound ``dict.get`` (missing keys yield None).

        The executor stores this per compiled plan step so its inner
        loop probes without any intermediate method call.
        """
        return self._buckets.get

    def bucket_count(self) -> int:
        """Number of distinct keys (used by the planner's estimates)."""
        return len(self._buckets)

    def estimate_bucket_size(self, total_rows: int) -> float:
        """Average rows per key — a crude selectivity estimate."""
        if not self._buckets:
            return 0.0
        return total_rows / len(self._buckets)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


def _same_row(row: tuple) -> tuple:
    """An all-columns index's key: the stored row tuple itself."""
    return row


class _MaxSentinel:
    """Compares greater than every other value (open upper bounds).

    Appending this to a key prefix gives a bisect probe that lands just
    past every real extension of that prefix, whatever the column type.
    """

    __slots__ = ()

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return other is self

    def __gt__(self, other) -> bool:
        return other is not self

    def __ge__(self, other) -> bool:
        return True

    def __eq__(self, other) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash(_MaxSentinel)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return "<MAX>"


#: Shared upper-bound sentinel (one instance is enough; it is stateless).
MAX_SENTINEL = _MaxSentinel()

#: Row ids are non-negative ints, so -1 sorts before every real entry
#: with the same key and +inf after — the entry-level bisect anchors.
_BEFORE_ROWS = -1
_AFTER_ROWS = float("inf")


class OrderedIndex:
    """Sorted (key, row id) entries over a fixed tuple of positions.

    The key projects the row onto ``positions`` *in the given order*:
    every position except the last is an equality-prefix column, the
    last is the range column.  Entries are kept sorted so an equality
    probe of the prefix plus an interval on the range column is one
    contiguous slice located with two binary searches.

    A shorter tuple compares less than any extension of itself, so the
    bare prefix key and the prefix key extended with
    :data:`MAX_SENTINEL` bracket exactly the rows sharing the prefix —
    open-ended bounds need no special casing per column type.
    """

    __slots__ = ("positions", "_entries")

    def __init__(self, positions: Sequence[int]):
        self.positions = tuple(positions)
        # Sorted list of ((key values...), row_id).
        self._entries: list[tuple[tuple, int]] = []

    def key_of(self, row: Sequence) -> tuple:
        """Project *row* onto this index's positions (prefix order)."""
        return tuple(row[position] for position in self.positions)

    def add(self, row_id: int, row: Sequence) -> None:
        """Insert *row*'s entry, keeping the entries sorted."""
        insort(self._entries, (self.key_of(row), row_id))

    def remove(self, row_id: int, row: Sequence) -> None:
        """Drop the entry for (*row*, *row_id*) if present."""
        entry = (self.key_of(row), row_id)
        position = bisect_left(self._entries, entry)
        if (position < len(self._entries)
                and self._entries[position] == entry):
            del self._entries[position]

    def range_window(self, prefix: tuple,
                     lower: Optional[tuple] = None,
                     upper: Optional[tuple] = None) -> tuple[int, int]:
        """The (start, end) entry window for *prefix* and range bounds.

        *lower*/*upper* are ``(value, inclusive)`` pairs on the range
        column, or None for an open end.  Raises nothing on empty
        intervals — the window is simply empty (start >= end).
        """
        entries = self._entries
        if lower is None:
            start = bisect_left(entries, (prefix, _BEFORE_ROWS))
        else:
            value, inclusive = lower
            anchor = _BEFORE_ROWS if inclusive else _AFTER_ROWS
            start = bisect_left(entries, (prefix + (value,), anchor))
        if upper is None:
            end = bisect_left(entries,
                              (prefix + (MAX_SENTINEL,), _BEFORE_ROWS))
        else:
            value, inclusive = upper
            anchor = _AFTER_ROWS if inclusive else _BEFORE_ROWS
            end = bisect_left(entries, (prefix + (value,), anchor))
        return start, max(start, end)

    def prefix_size(self, prefix: tuple) -> int:
        """Number of entries sharing *prefix* (counter/estimate helper)."""
        start, end = self.range_window(prefix)
        return end - start

    def row_ids_window(self, start: int, end: int) -> list[int]:
        """Row ids of the entries in ``[start, end)`` (window order)."""
        return [row_id for _, row_id in self._entries[start:end]]

    def probe_range(self, prefix: tuple,
                    lower: Optional[tuple] = None,
                    upper: Optional[tuple] = None) -> list[int]:
        """Row ids in the window, in range-column order."""
        start, end = self.range_window(prefix, lower, upper)
        return [row_id for _, row_id in self._entries[start:end]]

    def count_range(self, prefix: tuple,
                    lower: Optional[tuple] = None,
                    upper: Optional[tuple] = None) -> int:
        """Window size without materializing it (planner estimates)."""
        start, end = self.range_window(prefix, lower, upper)
        return end - start

    def __len__(self) -> int:
        return len(self._entries)
