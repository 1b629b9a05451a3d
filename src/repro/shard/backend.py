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

Every command has exactly one spelling, ``call_<command>(...)``, which
issues the command without waiting and returns a :class:`ShardCall`;
``.result()`` collects the reply.  A blocking call site is
``backend.call_x(...).result()``; a fan-out issues on every shard
first and collects in shard order afterwards, so process workers
overlap.

The migration protocol is two-phase on the source shard:
``reserve`` detaches a component and parks it under a manifest (the
queries can no longer coordinate or expire), ``transfer`` hands the
records out, and ``commit`` forgets them once the target has imported —
with ``abort`` restoring the component locally if the import fails.
Answer preservation does not depend on *where* the component lands,
only on it landing exactly once, which reserve/commit guarantees.
"""

from __future__ import annotations

import functools
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


class ShardBackend(Protocol):
    """What the coordinator requires of a shard worker.

    Commands are ``call_*`` methods returning a :class:`ShardCall`
    whose ``result()`` is documented per command.  Several calls may
    be in flight per backend (the process backend windows them);
    replies — and the settlement events that ride on them — are applied
    in worker execution order regardless of collection order.  The
    coordinator fans a command out by issuing it on every shard before
    collecting any: shard state is disjoint, the database only changes
    between fan-outs (replicated ``db_delta`` frames, never mid-round)
    and events are applied in shard order, so a fan-out is
    answer-identical to running the shards one after another.
    """

    shard_index: int

    #: Protocol commands issued to this worker (request frames on the
    #: process backend, ``call_*`` invocations in-process).  The bench
    #: layer reads this to report per-round wire traffic.
    wire_requests: int

    def call_submit_block(self, queries: Sequence[EntangledQuery],
                          seqs: Sequence[int], now: float,
                          trace_ids: Sequence | None = None
                          ) -> ShardCall:
        """Ingest a block of arrivals with global arrival seqs.

        *trace_ids* (one per query, or None) threads the coordinator's
        lifecycle trace ids through so worker-side spans stitch into
        the front-door trace."""

    def call_run_batch(self, now: float) -> ShardCall:
        """One set-at-a-time round over the shard's dirty components;
        results in the number answered."""

    def call_expire(self, now: float) -> ShardCall:
        """Expire stale pending queries at coordinator time *now*;
        results in the number expired."""

    def call_members(self, query_id: object) -> ShardCall:
        """The full coordination component of one pending query."""

    def call_reserve(self, query_ids: Sequence) -> ShardCall:
        """Phase 1: detach a component batch for migration; results in
        a manifest id."""

    def call_transfer(self, manifest: str) -> ShardCall:
        """Phase 2: the reserved records (opaque to the coordinator —
        live records in-process, a ``migration_manifest`` payload on
        the wire)."""

    def call_commit(self, manifest: str) -> ShardCall:
        """Phase 3: forget a transferred manifest."""

    def call_abort(self, manifest: str) -> ShardCall:
        """Undo a reservation: restore the component batch locally."""

    def call_import(self, records: object) -> ShardCall:
        """Adopt what a peer backend's ``call_transfer`` produced."""

    def call_db_delta(self, payload: dict) -> ShardCall:
        """Apply one versioned ``db_delta`` replication block to the
        shard's database replica; results in the replica's
        ``db_version`` afterwards (the ack the coordinator verifies).
        Blocks the replica has already applied are acknowledged without
        reapplying (replays are idempotent); a block whose ``from``
        version is ahead of the replica raises — the replica has a gap
        and must be replayed from the mutation log first."""

    def call_metrics(self) -> ShardCall:
        """The shard engine's ``MetricsRegistry`` snapshot (see
        :meth:`repro.engine.engine.D3CEngine.metrics_snapshot`)."""

    def call_partition_sizes(self) -> ShardCall:
        """Component sizes on this shard."""

    def call_pending(self) -> ShardCall:
        """Pending query ids on this shard (arrival order)."""

    def call_invalidate(self) -> ShardCall:
        """Forget data-dependent caches after a database mutation."""

    def drain_events(self) -> list[Event]:
        """Settlements since the last drain, in settlement order."""

    def close(self) -> None:
        """Release the worker (idempotent)."""


def _eager(command):
    """Turn an :class:`InProcessBackend` command body into its
    ``call_*`` method: count one wire request, run the body now, and
    park the outcome in a :class:`ShardCall` — a raised error surfaces
    at ``result()``, mirroring the process backend's failure timing."""
    @functools.wraps(command)
    def call(self, *args, **kwargs) -> ShardCall:
        self.wire_requests += 1
        try:
            return ShardCall.completed(command(self, *args, **kwargs))
        except Exception as error:
            return ShardCall.failed(error)
    return call


class InProcessBackend:
    """A shard engine living in the coordinator's own process.

    The engine shares the coordinator's database and clock objects, so
    ``now`` arguments are informational here (the engine reads the same
    clock the coordinator just did).  Settlement events are captured by
    ticket callbacks the backend wires at submission and import time.
    There is no worker to overlap with: every ``call_*`` executes
    eagerly (see :func:`_eager`) and ``result()`` hands the outcome
    back.
    """

    def __init__(self, shard_index: int, database: Database,
                 engine_kwargs: dict):
        self.shard_index = shard_index
        self.engine = D3CEngine(database, **engine_kwargs)
        self._events: list[Event] = []
        self._manifests: dict[str, list[PendingRecord]] = {}
        self._manifest_counter = itertools.count()
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

    @_eager
    def call_submit_block(self, queries: Sequence[EntangledQuery],
                          seqs: Sequence[int], now: float,
                          trace_ids: Sequence | None = None) -> None:
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

    @_eager
    def call_run_batch(self, now: float) -> int:
        return self.engine.run_batch()

    @_eager
    def call_expire(self, now: float) -> int:
        return self.engine.expire_stale()

    @_eager
    def call_members(self, query_id: object) -> list:
        return self.engine.component_members(query_id)

    @_eager
    def call_reserve(self, query_ids: Sequence) -> str:
        records = self.engine.export_component(query_ids)
        manifest = f"m{next(self._manifest_counter)}"
        self._manifests[manifest] = records
        return manifest

    @_eager
    def call_transfer(self, manifest: str) -> list:
        return list(self._manifests[manifest])

    @_eager
    def call_commit(self, manifest: str) -> None:
        del self._manifests[manifest]

    @_eager
    def call_abort(self, manifest: str) -> None:
        records = self._manifests.pop(manifest, None)
        if records:
            for ticket in self.engine.import_pending(records).values():
                self._track(ticket)

    @_eager
    def call_import(self, records: list) -> None:
        for ticket in self.engine.import_pending(records).values():
            self._track(ticket)

    @_eager
    def call_db_delta(self, payload: dict) -> int:
        # In-process shards share the coordinator's live database
        # object: the mutation block is already applied (and the shard
        # engine's own mutation listener already dirty-marked its
        # components), so the ack is simply the shared version.
        return self.engine.database.db_version

    @_eager
    def call_metrics(self) -> dict:
        return self.engine.metrics_snapshot()

    @_eager
    def call_partition_sizes(self) -> list[int]:
        return self.engine.partition_sizes()

    @_eager
    def call_pending(self) -> list:
        return self.engine.pending_ids()

    @_eager
    def call_invalidate(self) -> None:
        self.engine.invalidate_cache()

    def close(self) -> None:
        pass
