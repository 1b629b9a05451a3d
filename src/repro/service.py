"""The one coordination-service surface.

The paper's system is one function — entangled queries in, at most one
grounding per query out (Section 2; an answered id stays burned) — and
every shape it is served in speaks this protocol:
:class:`~repro.engine.engine.D3CEngine`,
:class:`~repro.shard.coordinator.ShardedCoordinator`, and the
journaling wrapper of :mod:`repro.durability.service` around either.
The network server and the CLI are written against it and never ask
which shape they were handed.  A declaration only — nothing inherits
from it; ``tests/test_service_protocol.py`` drives every member on
every shape.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Protocol, Sequence, \
    runtime_checkable

from .core.query import EntangledQuery
from .db.database import Database
from .engine.futures import CoordinationTicket, TicketCallback
from .engine.stats import EngineStats


@runtime_checkable
class CoordinationService(Protocol):
    """What every service shape answers, with the same meaning."""

    #: The database coordination evaluates against (the replication
    #: primary on a fleet); committed deltas reach the service whether
    #: or not they came through :meth:`apply_mutations`.
    database: Database

    #: Counters and phase timings in the engine's vocabulary (live on
    #: the engine, rendered from :meth:`metrics_snapshot` elsewhere).
    stats: EngineStats

    def submit(self, query: EntangledQuery,
               callback: TicketCallback | None = None
               ) -> CoordinationTicket:
        """Submit one query; the ticket may already be settled."""

    def submit_all(self, queries: Iterable[EntangledQuery]
                   ) -> list[CoordinationTicket]:
        """``submit`` each query in order."""

    def submit_many(self, queries: Iterable[EntangledQuery]
                    ) -> list[CoordinationTicket]:
        """Submit a block: validated whole, ingested together,
        coordination deferred to the end of the block."""

    def run_batch(self) -> int:
        """One set-at-a-time round; returns the number answered."""

    def expire_stale(self) -> int:
        """Expire stale pending queries; returns the number expired
        (their ids become re-submittable)."""

    def apply_mutations(self, operations: Sequence[tuple]) -> list[int]:
        """Apply ``(kind, table, rows)`` DML operations, all-or-nothing
        against bad input; returns per-operation row counts."""

    def insert(self, table: str, rows) -> int:
        """One-operation :meth:`apply_mutations` insert."""

    def delete_rows(self, table: str, rows) -> int:
        """One-operation :meth:`apply_mutations` delete."""

    def invalidate_cache(self) -> None:
        """Re-queue every component and drop data-dependent caches."""

    def pending_ids(self) -> list:
        """Pending query ids in arrival order."""

    @property
    def pending_count(self) -> int:
        """Number of queries awaiting coordination."""

    def partition_sizes(self) -> list[int]:
        """Coordination component sizes, largest first."""

    @property
    def next_arrival_seq(self) -> int:
        """The arrival sequence the next admitted query receives
        (consecutive within a block)."""

    def metrics_snapshot(self) -> dict:
        """Every counter, gauge and histogram as one mergeable
        registry snapshot (:mod:`repro.obs.metrics`)."""

    def snapshot_state(self, *, dump_cache: dict | None = None) -> dict:
        """The durable state as a wire-safe payload: ``database``,
        ``db_version``, ``next_seq``, ``pending``, ``counters`` and the
        burned ids (``tombstones`` and/or ``used_ids``)."""

    def restore_state(self, *, next_seq: int, used_ids: Mapping,
                      records: Sequence, submitted: int = 0,
                      answered: int = 0,
                      failed: Counter | None = None) -> dict:
        """Reinstate a recovered history on a freshly built service;
        *used_ids* maps every burned id to its arrival sequence or
        None.  Returns fresh tickets for *records* by query id."""

    def close(self) -> None:
        """Release workers and files (idempotent)."""
