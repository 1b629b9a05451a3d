"""The shard-worker abstraction: one engine behind a command surface.

A :class:`ShardBackend` owns one :class:`~repro.engine.engine.D3CEngine`
holding a disjoint set of coordination components.  The coordinator
drives backends through a small, strictly request/response command
surface; settlements (answers, staleness failures) come back as
**events** the backend buffers and the coordinator drains after every
call — tickets never cross the backend boundary, which is what lets the
same coordinator drive in-process engines and worker processes
interchangeably.

Two implementations ship:

* :class:`InProcessBackend` (here) — the engine lives in the
  coordinator's process.  Deterministic, debuggable, zero serialization;
  the shard-equivalence oracle suite runs against it, and migration
  records stay live :class:`~repro.engine.engine.PendingRecord` objects.
* :class:`~repro.shard.process.ProcessBackend` — the engine lives in a
  worker process behind the :mod:`repro.dataio` wire format; the GIL
  stays per-process, so shards coordinate on separate cores.

The migration protocol is two-phase on the source shard:
``reserve`` detaches a component and parks it under a manifest (the
queries can no longer coordinate or expire), ``transfer`` hands the
records out, and ``commit`` forgets them once the target has imported —
with ``abort`` restoring the component locally if the import fails.
Answer preservation does not depend on *where* the component lands,
only on it landing exactly once, which reserve/commit guarantees.
"""

from __future__ import annotations

import itertools
from typing import Protocol, Sequence

from ..core.query import EntangledQuery
from ..db.database import Database
from ..engine.engine import D3CEngine, PendingRecord
from ..engine.futures import CoordinationTicket, TicketState

#: One settlement event: ``("answered", query_id, Answer)`` or
#: ``("failed", query_id, FailureReason)``.
Event = tuple


class ShardCall:
    """Handle for one pipelined backend call.

    ``call_*`` methods issue their command without waiting and hand
    back one of these; :meth:`result` collects the reply (raising the
    command's failure, if any).  On the process backend the command is
    genuinely in flight — calls issued against several shards overlap
    on the wire — while the in-process backend executes eagerly and
    parks the outcome, so coordinator code is written once against the
    issue-then-collect shape.  ``result`` may be called at most once.
    """

    __slots__ = ("_resolve",)

    def __init__(self, resolve):
        self._resolve = resolve

    @classmethod
    def completed(cls, value) -> "ShardCall":
        return cls(lambda: value)

    @classmethod
    def failed(cls, error: BaseException) -> "ShardCall":
        def reraise():
            raise error
        return cls(reraise)

    def result(self):
        """The call's result (raises what the command raised)."""
        return self._resolve()


def _eager(fn) -> ShardCall:
    """Run *fn* now, deferring its outcome to ``result()`` time —
    in-process backends mirror the process backend's failure timing."""
    try:
        return ShardCall.completed(fn())
    except Exception as error:
        return ShardCall.failed(error)


class ShardBackend(Protocol):
    """What the coordinator requires of a shard worker."""

    shard_index: int

    #: Protocol commands issued to this worker (request frames on the
    #: process backend, command-method calls in-process).  The bench
    #: layer reads this to report per-round wire traffic.
    wire_requests: int

    def submit_block(self, queries: Sequence[EntangledQuery],
                     seqs: Sequence[int], now: float,
                     trace_ids: Sequence | None = None) -> None:
        """Ingest a block of arrivals with global arrival seqs.

        *trace_ids* (one per query, or None) threads the coordinator's
        lifecycle trace ids through so worker-side spans stitch into
        the front-door trace."""

    def run_batch(self, now: float) -> int:
        """One set-at-a-time round over the shard's dirty components."""

    def expire(self, now: float) -> int:
        """Expire stale pending queries at coordinator time *now*."""

    # Fan-out form of the three serving commands: ``begin_*`` issues
    # the command without waiting, ``finish_*`` collects its result
    # (FIFO per backend).  The coordinator begins on every shard before
    # finishing on any — with process workers the shards genuinely run
    # concurrently (shard state is disjoint, the database only changes
    # between fan-outs — replicated db_delta frames, never mid-round —
    # and events are applied in shard order, so the fan-out is
    # answer-identical to the sequential form).  Commands pipeline:
    # several may be outstanding per backend, bounded by the process
    # backend's in-flight window.

    def begin_submit_block(self, queries: Sequence[EntangledQuery],
                           seqs: Sequence[int], now: float,
                           trace_ids: Sequence | None = None) -> None: ...

    def finish_submit_block(self) -> None: ...

    def begin_run_batch(self, now: float) -> None: ...

    def finish_run_batch(self) -> int: ...

    def begin_expire(self, now: float) -> None: ...

    def finish_expire(self) -> int: ...

    def component_members(self, query_id: object) -> list:
        """The full coordination component of one pending query."""

    def reserve(self, query_ids: Sequence) -> str:
        """Phase 1: detach a component batch for migration; returns a
        manifest id."""

    def transfer(self, manifest: str) -> object:
        """Phase 2: the reserved records (opaque to the coordinator —
        live records in-process, a ``migration_manifest`` payload on
        the wire)."""

    def commit(self, manifest: str) -> None:
        """Phase 3: forget a transferred manifest."""

    def abort(self, manifest: str) -> None:
        """Undo a reservation: restore the component batch locally."""

    def import_records(self, records: object) -> None:
        """Adopt what a peer backend's ``transfer`` produced."""

    def apply_db_delta(self, payload: dict) -> int:
        """Apply one versioned ``db_delta`` replication block to the
        shard's database replica; returns the replica's resulting
        ``db_version`` (the ack the coordinator verifies).  Blocks the
        replica has already applied are acknowledged without reapplying
        (replays are idempotent); a block whose ``from`` version is
        ahead of the replica raises — the replica has a gap and must be
        replayed from the mutation log first."""

    # Pipelined form of the commands the coordinator fans out during
    # routing and migration: ``call_*`` issues without waiting and
    # returns a :class:`ShardCall`.  Several calls may be in flight per
    # backend (the process backend windows them); replies — and the
    # settlement events that ride on them — are applied in worker
    # execution order regardless of collection order.

    def call_members(self, query_id: object) -> ShardCall: ...

    def call_reserve(self, query_ids: Sequence) -> ShardCall: ...

    def call_transfer(self, manifest: str) -> ShardCall: ...

    def call_commit(self, manifest: str) -> ShardCall: ...

    def call_abort(self, manifest: str) -> ShardCall: ...

    def call_import(self, records: object) -> ShardCall: ...

    def call_db_delta(self, payload: dict) -> ShardCall: ...

    def call_metrics(self) -> ShardCall: ...

    def call_partition_sizes(self) -> ShardCall: ...

    def drain_events(self) -> list[Event]:
        """Settlements since the last drain, in settlement order."""

    def pending_ids(self) -> list:
        """Pending query ids on this shard (arrival order)."""

    def partition_sizes(self) -> list[int]:
        """Component sizes on this shard."""

    def metrics_snapshot(self) -> dict:
        """The shard engine's ``MetricsRegistry`` snapshot (see
        :meth:`repro.engine.engine.D3CEngine.metrics_snapshot`)."""

    def invalidate_cache(self) -> None:
        """Forget data-dependent caches after a database mutation."""

    def close(self) -> None:
        """Release the worker (idempotent)."""


class InProcessBackend:
    """A shard engine living in the coordinator's own process.

    The engine shares the coordinator's database and clock objects, so
    ``now`` arguments are informational here (the engine reads the same
    clock the coordinator just did).  Settlement events are captured by
    ticket callbacks the backend wires at submission and import time.
    """

    def __init__(self, shard_index: int, database: Database,
                 engine_kwargs: dict):
        self.shard_index = shard_index
        self.engine = D3CEngine(database, **engine_kwargs)
        self._events: list[Event] = []
        self._manifests: dict[str, list[PendingRecord]] = {}
        self._manifest_counter = itertools.count()
        self._deferred: object = None
        self.wire_requests = 0

    # -- settlement capture --------------------------------------------

    def _track(self, ticket: CoordinationTicket) -> None:
        ticket.add_callback(self._on_settle)

    def _on_settle(self, ticket: CoordinationTicket) -> None:
        if ticket.state is TicketState.ANSWERED:
            self._events.append(("answered", ticket.query_id,
                                 ticket.answer))
        else:
            self._events.append(("failed", ticket.query_id,
                                 ticket.failure_reason))

    def drain_events(self) -> list[Event]:
        events, self._events = self._events, []
        return events

    # -- command surface ------------------------------------------------

    def submit_block(self, queries: Sequence[EntangledQuery],
                     seqs: Sequence[int], now: float,
                     trace_ids: Sequence | None = None) -> None:
        self.wire_requests += 1
        if len(queries) == 1:
            ticket = self.engine.submit(
                queries[0], arrival_seq=seqs[0],
                trace_id=trace_ids[0] if trace_ids else None)
            tickets = [ticket]
        else:
            tickets = self.engine.submit_many(
                queries, arrival_seqs=list(seqs),
                trace_ids=list(trace_ids) if trace_ids else None)
        # Wire settlement capture first, then flush tickets that
        # settled synchronously inside the engine call (their callbacks
        # fire immediately on add).
        for ticket in tickets:
            self._track(ticket)

    def run_batch(self, now: float) -> int:
        self.wire_requests += 1
        return self.engine.run_batch()

    def expire(self, now: float) -> int:
        self.wire_requests += 1
        return self.engine.expire_stale()

    # In-process "fan-out": there is no worker to overlap with, so
    # begin executes eagerly and finish hands the result back.

    def begin_submit_block(self, queries, seqs, now: float,
                           trace_ids=None) -> None:
        self._deferred = self.submit_block(queries, seqs, now,
                                           trace_ids)

    def finish_submit_block(self) -> None:
        self._deferred = None

    def begin_run_batch(self, now: float) -> None:
        self._deferred = self.run_batch(now)

    def finish_run_batch(self) -> int:
        result, self._deferred = self._deferred, None
        return result

    def begin_expire(self, now: float) -> None:
        self._deferred = self.expire(now)

    def finish_expire(self) -> int:
        result, self._deferred = self._deferred, None
        return result

    def component_members(self, query_id: object) -> list:
        self.wire_requests += 1
        return self.engine.component_members(query_id)

    def reserve(self, query_ids: Sequence) -> str:
        self.wire_requests += 1
        records = self.engine.export_component(query_ids)
        manifest = f"m{next(self._manifest_counter)}"
        self._manifests[manifest] = records
        return manifest

    def transfer(self, manifest: str) -> list:
        self.wire_requests += 1
        return list(self._manifests[manifest])

    def commit(self, manifest: str) -> None:
        self.wire_requests += 1
        del self._manifests[manifest]

    def abort(self, manifest: str) -> None:
        self.wire_requests += 1
        records = self._manifests.pop(manifest, None)
        if records:
            for ticket in self.engine.import_pending(records).values():
                self._track(ticket)

    def import_records(self, records: list) -> None:
        self.wire_requests += 1
        for ticket in self.engine.import_pending(records).values():
            self._track(ticket)

    def apply_db_delta(self, payload: dict) -> int:
        self.wire_requests += 1
        # In-process shards share the coordinator's live database
        # object: the mutation block is already applied (and the shard
        # engine's own mutation listener already dirty-marked its
        # components), so the ack is simply the shared version.
        return self.engine.database.db_version

    # In-process pipelining: execute eagerly, park the outcome (see
    # ShardCall — failures surface at result() on both backends).

    def call_members(self, query_id: object) -> ShardCall:
        return _eager(lambda: self.component_members(query_id))

    def call_reserve(self, query_ids: Sequence) -> ShardCall:
        return _eager(lambda: self.reserve(query_ids))

    def call_transfer(self, manifest: str) -> ShardCall:
        return _eager(lambda: self.transfer(manifest))

    def call_commit(self, manifest: str) -> ShardCall:
        return _eager(lambda: self.commit(manifest))

    def call_abort(self, manifest: str) -> ShardCall:
        return _eager(lambda: self.abort(manifest))

    def call_import(self, records: object) -> ShardCall:
        return _eager(lambda: self.import_records(records))

    def call_db_delta(self, payload: dict) -> ShardCall:
        return _eager(lambda: self.apply_db_delta(payload))

    def call_metrics(self) -> ShardCall:
        return _eager(self.metrics_snapshot)

    def call_partition_sizes(self) -> ShardCall:
        return _eager(self.partition_sizes)

    def pending_ids(self) -> list:
        self.wire_requests += 1
        return self.engine.pending_ids()

    def partition_sizes(self) -> list[int]:
        self.wire_requests += 1
        return self.engine.partition_sizes()

    def metrics_snapshot(self) -> dict:
        self.wire_requests += 1
        return self.engine.metrics_snapshot()

    def invalidate_cache(self) -> None:
        self.wire_requests += 1
        self.engine.invalidate_cache()

    def close(self) -> None:
        pass
