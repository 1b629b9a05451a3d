"""The database facade: catalog + tables + executor in one object."""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..errors import RecoveryError, SchemaError, ValidationError
from .executor import Executor, Valuation
from .expression import ConjunctiveQuery
from .schema import Catalog, TableSchema, schema as make_schema
from .table import Table


@dataclass(frozen=True, slots=True)
class TableDelta:
    """One committed mutation batch against one table.

    The unit of the live-mutation protocol: every DML call commits one
    delta carrying the rows that entered and left the table (in their
    validated stored form) and the database's resulting ``db_version``.
    Deltas are emitted to mutation listeners (coordination engines mark
    affected components dirty; the sharded coordinator replicates them
    to worker databases) and are replayable —
    :meth:`Database.apply_delta` applies one on a byte-identical
    replica, advancing its version in lockstep.
    """

    table: str
    inserted: tuple[tuple, ...]
    deleted: tuple[tuple, ...]
    version: int


#: A mutation listener: called with each committed TableDelta.
MutationListener = Callable[[TableDelta], None]


class Database:
    """An in-memory relational database.

    This is the substrate the D3C engine sends combined queries to —
    the reproduction's stand-in for the paper's MySQL instance.  Typical
    use::

        db = Database()
        db.create_table("Flights", "fno int", "dest text")
        db.insert("Flights", [(122, "Paris"), (123, "Paris")])
        list(db.evaluate(cq))          # all valuations
        db.first(cq)                   # LIMIT 1
    """

    def __init__(self) -> None:
        self._catalog = Catalog()
        self._tables: dict[str, Table] = {}
        self._executor = Executor(self)
        # Monotone mutation counter: +1 per committed TableDelta.  The
        # sharded service's replication protocol versions db_delta
        # frames with it, so replicas can detect gaps and replay.
        self._db_version = 0
        # Mutation listeners, held weakly where possible so transient
        # engines registered against a long-lived database do not leak.
        self._listeners: list = []

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def create_table(self, name: str, *column_specs: str) -> Table:
        """Create a table from ``"col type"`` specs; returns the table."""
        table_schema = make_schema(name, *column_specs)
        return self.create_table_from_schema(table_schema)

    def create_table_from_schema(self, table_schema: TableSchema) -> Table:
        """Create a table from an explicit :class:`TableSchema`."""
        self._catalog.add(table_schema)
        table = Table(table_schema)
        self._tables[table_schema.name] = table
        return table

    def table_names(self) -> list[str]:
        """Names of all tables in the catalog."""
        return sorted(self._catalog)

    def has_table(self, name: str) -> bool:
        """True if *name* is in the catalog."""
        return name in self._tables

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def table(self, name: str) -> Table:
        """Fetch a table by name; raises SchemaError if absent."""
        table = self._tables.get(name)
        if table is None:
            raise SchemaError(f"no such table: {name!r}")
        return table

    def table_or_none(self, name: str) -> Optional[Table]:
        """The table under *name*, or None — cache-validation helper."""
        return self._tables.get(name)

    def insert(self, name: str, rows: Iterable[Sequence]) -> int:
        """Bulk insert; commits one delta, returns the rows inserted.

        All-or-nothing: every row is validated before any is inserted,
        so a bad row mid-batch cannot leave earlier rows committed
        without a delta (listeners and shard replicas would silently
        diverge from the table).
        """
        table = self.table(name)
        stored = tuple(table.schema.check_row(row) for row in rows)
        table.insert_stored_many(stored)
        if stored:
            self._commit_delta(name, stored, ())
        return len(stored)

    def insert_stored_rows(self, name: str,
                           stored_rows: Sequence[tuple]) -> int:
        """Bulk-insert rows already in validated stored form.

        Trusted internal path (``load_database``'s per-table flush):
        skips the facade's re-validation — the caller has already run
        ``schema.check_row`` on every row — while still committing one
        delta for the batch.  All or nothing: a row an index refuses
        leaves no row of the batch stored.
        """
        self.table(name).insert_stored_many(stored_rows)
        if stored_rows:
            self._commit_delta(name, tuple(stored_rows), ())
        return len(stored_rows)

    def insert_row(self, name: str, row: Sequence) -> int:
        """Insert one row; returns its row id."""
        table = self.table(name)
        row_id = table.insert(row)
        self._commit_delta(name, (table.row(row_id),), ())
        return row_id

    def delete_rows(self, name: str, rows: Iterable[Sequence]) -> int:
        """Delete one stored copy per given row value (bag semantics;
        absent values are skipped).  Commits one delta carrying the
        rows actually removed; returns their count."""
        removed = self.table(name).delete_rows(rows)
        if removed:
            self._commit_delta(name, (), tuple(removed))
        return len(removed)

    def delete_where(self, name: str,
                     predicate: Callable[[tuple], bool]) -> int:
        """Delete rows satisfying *predicate*; returns the count.

        The delta-emitting form of :meth:`Table.delete_where` — use
        this (not the table method) when mutation listeners or shard
        replicas must observe the change.  The predicate is evaluated
        exactly once per row (a stateful predicate sees each row a
        single time, and the committed delta lists exactly the rows
        removed).
        """
        removed = self.table(name).delete_matching(predicate)
        if removed:
            self._commit_delta(name, (), tuple(removed))
        return len(removed)

    def apply_mutations(self, operations: Iterable[Sequence]
                        ) -> list[int]:
        """Apply a batch of ``(kind, table, rows)`` DML operations
        (kind ``"insert"`` or ``"delete"``); returns per-op row counts.

        All-or-nothing against bad input: kinds, table names and every
        row are validated before any operation is applied, so a bad op
        mid-batch cannot leave earlier ops committed behind an
        exception (no journal frame would reproduce them, and a retry
        would double-apply them under bag semantics).  Every service's
        ``apply_mutations`` and the journal's replay go through here.
        """
        checked: list[tuple] = []
        for kind, name, rows in operations:
            if kind not in ("insert", "delete"):
                raise ValidationError(
                    f"unknown mutation op {kind!r}; expected 'insert' "
                    f"or 'delete'")
            schema = self.table(name).schema
            checked.append((kind, name,
                            [schema.check_row(row) for row in rows]))
        return [self.insert_stored_rows(name, rows) if kind == "insert"
                else self.delete_rows(name, rows)
                for kind, name, rows in checked]

    # ------------------------------------------------------------------
    # mutation protocol: versions, listeners, delta replay
    # ------------------------------------------------------------------

    @property
    def db_version(self) -> int:
        """Monotone mutation counter (+1 per committed delta)."""
        return self._db_version

    def reset_db_version(self, version: int) -> None:
        """Pin the mutation counter (replica bootstrap only).

        A replica rebuilt from :func:`repro.dataio.dump_database` text
        re-runs every insert, so its counter disagrees with the
        primary's; the shard worker pins it to the primary's value
        after the rebuild so replicated ``db_delta`` frames line up.

        Raises :class:`~repro.errors.RecoveryError` once any mutation
        listener is registered: listeners mean an engine (or a
        durability journal) is already tracking this database's
        history, and re-pinning the counter under it would silently
        desynchronize every versioned protocol built on it.  Pin the
        version *before* wiring engines — both the shard worker and
        crash recovery do.
        """
        live = [reference for reference in self._listeners
                if reference() is not None]
        self._listeners = live
        if live:
            raise RecoveryError(
                f"cannot reset db_version to {version}: "
                f"{len(live)} mutation listener(s) are registered "
                f"(reset is a replica-bootstrap step; it must happen "
                f"before engines attach)")
        self._db_version = version

    def add_mutation_listener(self, listener: MutationListener) -> None:
        """Register a callback invoked with every committed delta.

        Bound methods are held weakly (a dropped engine unregisters
        itself by dying); plain callables are held strongly.
        """
        try:
            reference = weakref.WeakMethod(listener)
        except TypeError:
            self._listeners.append(lambda: listener)
        else:
            self._listeners.append(reference)

    def apply_delta(self, delta: TableDelta) -> None:
        """Replay a delta produced elsewhere onto this database.

        Replication primitive: a replica that starts byte-identical to
        the primary and applies the primary's deltas in order stays
        byte-identical (and its ``db_version`` advances in lockstep —
        both sides bump once per delta).  Raises :class:`SchemaError`
        if a deletion targets rows this replica does not hold (the
        replicas have diverged; silently skipping would entrench it),
        and :class:`~repro.errors.RecoveryError` when the delta is out
        of sequence — re-applying an already-applied delta or skipping
        ahead over a gap would also diverge, just more quietly.
        """
        if delta.version != self._db_version + 1:
            raise RecoveryError(
                f"delta out of sequence: replica at db_version "
                f"{self._db_version}, delta carries version "
                f"{delta.version} (expected {self._db_version + 1}; "
                f"replaying out of order or over live state would "
                f"silently diverge)")
        table = self.table(delta.table)
        inserted = tuple(table.schema.check_row(row)
                         for row in delta.inserted)
        table.insert_stored_many(inserted)
        removed = table.delete_rows(delta.deleted)
        if len(removed) != len(delta.deleted):
            raise SchemaError(
                f"replica diverged: delta v{delta.version} deletes "
                f"{len(delta.deleted)} rows from {delta.table!r} but "
                f"only {len(removed)} were present")
        self._commit_delta(delta.table, inserted, tuple(removed))

    def _commit_delta(self, name: str, inserted: tuple,
                      deleted: tuple) -> None:
        self._db_version += 1
        delta = TableDelta(name, inserted, deleted, self._db_version)
        # Evict cached plans (and the programs compiled from them)
        # reading the table ahead of notification (the per-hit table
        # checks would catch them anyway; eager eviction keeps the
        # cache small and the hit counters honest after mutations).
        self._executor.planner.invalidate_tables((name,))
        if self._listeners:
            live = []
            for reference in self._listeners:
                listener = reference()
                if listener is not None:
                    live.append(reference)
                    listener(delta)
            self._listeners = live

    # ------------------------------------------------------------------
    # query evaluation
    # ------------------------------------------------------------------

    def set_range_pushdown(self, enabled: bool) -> None:
        """Toggle ordered-index pushdown engine-wide.

        Exists as the scan-and-filter reference leg of the range-index
        tests; answers are identical either way (those tests enforce
        it).
        """
        self._executor.set_range_pushdown(enabled)

    def range_stats(self) -> dict:
        """Aggregated ordered-index activity across all tables.

        Stable plain-value keys (ints only), so the dict can ride the
        shard wire protocol and be merged by summation.
        """
        probes = rows = pruned = indexes = 0
        for table in self._tables.values():
            stats = table.index_stats()
            probes += stats["range_probes"]
            rows += stats["range_rows"]
            pruned += stats["range_pruned"]
            indexes += len(stats["ordered"])
        return {
            "range_probes": probes,
            "range_rows": rows,
            "range_pruned": pruned,
            "ordered_indexes": indexes,
            "empty_prunes": self._executor.empty_prunes,
        }

    def cache_stats(self) -> dict:
        """Plan- and program-cache activity for this database.

        Stable plain-int keys like :meth:`range_stats`, so the dict
        merges by summation across a shard fleet (the metrics registry
        surfaces these as ``db.<key>`` counters).  The ``compile*``
        keys count program-cache hits, program builds and retained
        programs.
        """
        planner = self._executor.planner
        return {
            "plan_cache_hits": planner.cache_hits,
            "plan_cache_misses": planner.cache_misses,
            "cached_plans": planner.cached_plan_count(),
            "compile_hits": planner.program_hits,
            "compile_misses": planner.program_builds,
            "compiled_plans": planner.retained_program_count(),
        }

    def evaluate(self, query: ConjunctiveQuery,
                 limit: int | None = None) -> Iterator[Valuation]:
        """Stream valuations satisfying *query*."""
        return self._executor.evaluate(query, limit=limit)

    def project(self, query: ConjunctiveQuery, variables: Sequence,
                limit: int) -> Iterator:
        """The values of *variables* per valuation (Executor.project)."""
        return self._executor.project(query, variables, limit)

    def first(self, query: ConjunctiveQuery) -> Optional[Valuation]:
        """One satisfying valuation or None."""
        return self._executor.first(query)

    def count(self, query: ConjunctiveQuery) -> int:
        """Number of satisfying valuations."""
        return self._executor.count(query)

    def explain(self, query: ConjunctiveQuery) -> str:
        """The executor's chosen plan, rendered."""
        return self._executor.explain(query)

    # ------------------------------------------------------------------

    def __str__(self) -> str:
        lines = []
        for name in self.table_names():
            table = self._tables[name]
            lines.append(f"{table.schema}  [{len(table)} rows]")
        return "\n".join(lines) if lines else "(empty database)"
