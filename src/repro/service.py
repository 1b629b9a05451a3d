"""The one coordination-service surface.

The paper's system is one function — entangled queries in, at most one
grounding per query out (Section 2; an answered id stays burned) — and
every shape it is served in speaks this protocol:
:class:`~repro.engine.engine.D3CEngine`,
:class:`~repro.shard.coordinator.ShardedCoordinator`, and the
journaling wrapper of :mod:`repro.durability.service` around either.
The network server and the CLI are written against it and never ask
which shape they were handed.

Every shape inherits it.  A shape implements the abstract members; the
derived ones are written here, once: :meth:`~CoordinationService.submit`
is a block of one through ``submit_many`` (the one admission path),
``submit_all`` a loop of ``submit``, and ``insert`` / ``delete_rows``
one-operation ``apply_mutations``.  Burned ids have one snapshot
spelling, ``used_ids``, in the state payload :func:`state_payload`
builds for every shape.  ``tests/test_service_protocol.py`` drives
every member on every shape.

Settlements leave a service through one stream: the
:attr:`~CoordinationService.on_settle` slot, which every shape calls
once for every ticket it settles, right after the ticket settles — the
tickets a call returned, the ones it adopted before it raised, and the
restored ones alike.  The layer that owns a service sets the slot once,
when it builds or wraps it (the shard host, the durable wrapper, the
server); applications keep their per-ticket callbacks.
"""

from __future__ import annotations

from abc import abstractmethod
from collections import Counter
from operator import attrgetter
from typing import Iterable, Protocol, Sequence, runtime_checkable

from .core.query import EntangledQuery
from .dataio import dump_database, record_to_payload
from .db.database import Database
from .engine.futures import CoordinationTicket, TicketCallback


def state_payload(database: Database, *, next_seq: int, records,
                  used_ids: Iterable, submitted: int, answered: int,
                  failed: Counter, dump_cache: dict | None) -> dict:
    """The durable state every shape's ``snapshot_state`` returns.

    One key set: the database (text dump plus version), the arrival
    counter, the pending *records* as migration-record payloads, the
    burned ids as ``used_ids`` (bare ids, sorted by ``repr``) and the
    lifecycle counters (failures by reason value, in a stable order).
    """
    return {
        "database": dump_database(database, cache=dump_cache),
        "db_version": database.db_version,
        "next_seq": next_seq,
        "pending": [record_to_payload(record) for record in records],
        "used_ids": sorted(used_ids, key=repr),
        "counters": {"submitted": submitted, "answered": answered,
                     "failed": {reason.value: failed[reason] for reason
                                in sorted(failed, key=attrgetter("value"))}},
    }


@runtime_checkable
class CoordinationService(Protocol):
    """What every service shape answers, with the same meaning."""

    #: The database coordination evaluates against (the replication
    #: primary on a fleet); committed deltas reach the service whether
    #: or not they came through :meth:`apply_mutations`.
    database: Database

    #: The settlement stream: called with every ticket this service
    #: settles, once, right after it settles (a durable wrapper calls
    #: it once its journal holds the settlement).  Set by the layer
    #: that owns the service; None while nothing listens.
    on_settle: TicketCallback | None = None

    # -- derived members -----------------------------------------------

    def submit(self, query: EntangledQuery,
               callback: TicketCallback | None = None
               ) -> CoordinationTicket:
        """Submit one query as a block of one; the ticket may already
        be settled, in which case *callback* fires at once."""
        ticket = self.submit_many([query])[0]
        if callback is not None:
            ticket.add_callback(callback)
        return ticket

    def submit_all(self, queries: Iterable[EntangledQuery]
                   ) -> list[CoordinationTicket]:
        """``submit`` each query in order."""
        return [self.submit(query) for query in queries]

    def insert(self, table: str, rows) -> int:
        """One-operation :meth:`apply_mutations` insert."""
        return self.apply_mutations([("insert", table, rows)])[0]

    def delete_rows(self, table: str, rows) -> int:
        """One-operation :meth:`apply_mutations` delete."""
        return self.apply_mutations([("delete", table, rows)])[0]

    # -- what each shape implements ------------------------------------

    @abstractmethod
    def submit_many(self, queries: Iterable[EntangledQuery]
                    ) -> list[CoordinationTicket]:
        """Submit a block: validated whole (a malformed query, a reused
        id or a read of a missing table refuses the block before
        anything is admitted), ingested together, coordination deferred
        to the end of the block."""

    @abstractmethod
    def run_batch(self) -> int:
        """One set-at-a-time round; returns the number answered."""

    @abstractmethod
    def expire_stale(self) -> int:
        """Expire stale pending queries; returns the number expired
        (their ids become re-submittable)."""

    @abstractmethod
    def apply_mutations(self, operations: Sequence[tuple]) -> list[int]:
        """Apply ``(kind, table, rows)`` DML operations, all-or-nothing
        against bad input; returns per-operation row counts."""

    @abstractmethod
    def invalidate_cache(self) -> None:
        """Re-queue every component and drop data-dependent caches."""

    @abstractmethod
    def pending_ids(self) -> list:
        """Pending query ids in arrival order."""

    @property
    @abstractmethod
    def pending_count(self) -> int:
        """Number of queries awaiting coordination."""

    @abstractmethod
    def partition_sizes(self) -> list[int]:
        """Coordination component sizes, largest first."""

    @property
    @abstractmethod
    def next_arrival_seq(self) -> int:
        """The arrival sequence the next admitted query receives
        (consecutive within a block)."""

    @abstractmethod
    def metrics_snapshot(self) -> dict:
        """Every counter, gauge and histogram as one mergeable
        registry snapshot (:mod:`repro.obs.metrics`): the one stats
        surface, read by metric name on every shape."""

    @abstractmethod
    def snapshot_state(self, *, dump_cache: dict | None = None) -> dict:
        """The durable state as a wire-safe payload
        (:func:`state_payload`'s key set)."""

    @abstractmethod
    def restore_state(self, *, next_seq: int, used_ids: Iterable,
                      records: Sequence, submitted: int = 0,
                      answered: int = 0,
                      failed: Counter | None = None) -> dict:
        """Reinstate a recovered history on a freshly built service;
        every id in *used_ids* is burned.  Returns fresh tickets for
        *records* by query id."""

    @abstractmethod
    def close(self) -> None:
        """Release workers and files (idempotent)."""
