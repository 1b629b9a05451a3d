"""The shard host and its command surface.

A :class:`ShardHost` owns one :class:`~repro.engine.engine.D3CEngine`
holding a disjoint set of coordination components, and holds the one
body of every shard command.  The coordinator drives hosts through a
*transport* — a :class:`ShardBackend` — with a small, strictly
request/response command surface; settlements (answers, staleness
failures) come back as **events** the host buffers from its engine's
settlement stream (:attr:`~repro.service.CoordinationService.on_settle`)
and the coordinator drains after every call — tickets never cross the
transport, which is what lets the same coordinator drive in-process
hosts and worker processes interchangeably.  The stream carries every
settlement the engine makes, so a command that raises after its engine
settled some queries (a drain that failed mid-block) still reports
them.

Two transports ship, both dispatching ``(op, args)`` commands through
the host's one table (:attr:`ShardHost.COMMANDS`):

* :class:`InProcessBackend` (here) — the host lives in the
  coordinator's process.  Deterministic, debuggable, zero
  serialization; the shard-equivalence oracle suite runs against it.
* :class:`~repro.shard.process.ProcessBackend` — the host lives in a
  worker process, behind a codec at the frame edge and the
  :mod:`repro.dataio` wire format; a worker that dies takes only its
  own process down, and the coordinator re-homes its components.

A query reaches a shard as the coordinator's
:class:`~repro.engine.engine.PendingRecord` — renamed apart and stamped
once, at the front door, with its global arrival seq, submission
instant and trace id — and ``submit_block`` adopts it as is: the
coordinator's copy of a pending record *is* the shard's.  On both
transports the host's engine runs on a
:class:`~repro.engine.staleness.PinnedClock` set to the ``now`` every
clock-reading command carries, so expiry is judged in coordinator time
too.

Every command has exactly one spelling, ``call_<command>(...)``, which
issues the command without waiting and returns a :class:`ShardCall`;
``.result()`` collects the reply.  A blocking call site is
``backend.call_x(...).result()``; a fan-out issues on every shard
first and collects in shard order afterwards, so process workers
overlap.

A migration is two commands: ``detach`` drops a component from the
source shard's engine (all or nothing; the shard keeps no copy), and
``import`` adopts records the coordinator builds from its own copy on
the destination.  The coordinator's copy is the only copy, so a lost
shard costs a migration nothing: a detach it owed is complete, and an
import it owed goes to the shard that adopted its components.  When a
live shard fails either step, the coordinator restores the detached
records with the same ``import`` — on the source, else on another live
shard.  Answer preservation does not depend on *where* the component
lands, only on it landing exactly once.
"""

from __future__ import annotations

from typing import Sequence

from ..db.database import Database
from ..engine.engine import D3CEngine, PendingRecord
from ..engine.futures import CoordinationTicket, TicketState
from ..engine.staleness import PinnedClock

#: One settlement event: ``("answered", query_id, Answer)`` or
#: ``("failed", query_id, FailureReason)``.
Event = tuple


class ShardWorkerError(RuntimeError):
    """A shard worker reported a failure executing a command."""


class ShardLostError(ShardWorkerError):
    """The transport to a shard is gone: sending the command failed,
    or the connection closed before its reply arrived.  The coordinator
    removes the shard and re-homes its components (see
    :meth:`~repro.shard.coordinator.ShardedCoordinator._lose`)."""


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


class ShardBackend:
    """A shard transport: the one command surface, carried to a host.

    Commands are ``call_*`` methods returning a :class:`ShardCall`
    whose ``result()`` is documented per command.  Each turns its
    arguments into the host's ``(op, args)`` command (see
    :attr:`ShardHost.COMMANDS`) and hands it to the transport's
    :meth:`_dispatch`, which never raises: a failure, even one to encode
    or send the command, waits for ``result()``.  Several calls may be
    in flight per backend (the process backend windows them); replies —
    and the settlement events that ride on them — are applied in worker
    execution order regardless of collection order.  The coordinator
    fans a command out by issuing it on every shard before collecting
    any: shard state is disjoint, the database only changes between
    fan-outs (replicated ``db_delta`` frames, never mid-round) and
    events are applied in shard order, so a fan-out is answer-identical
    to running the shards one after another.
    """

    shard_index: int

    #: Protocol commands issued to this worker (request frames on the
    #: process backend, ``call_*`` invocations in-process).  The bench
    #: layer reads this to report per-round wire traffic.
    wire_requests: int

    def _dispatch(self, op: str, **args) -> ShardCall:
        """Carry one command to the host."""
        raise NotImplementedError

    def call_submit_block(self, records: Sequence[PendingRecord]
                          ) -> ShardCall:
        """Adopt a block of arrivals and coordinate it: the
        coordinator's records, stamped at its front door (global
        arrival seqs, submission instants, trace ids), adopted as is."""
        return self._dispatch("submit_block", records=records)

    def call_run_batch(self, now: float) -> ShardCall:
        """One set-at-a-time round over the shard's dirty components;
        results in the number answered."""
        return self._dispatch("run_batch", now=now)

    def call_expire(self, now: float) -> ShardCall:
        """Expire stale pending queries at coordinator time *now*;
        results in the number expired."""
        return self._dispatch("expire", now=now)

    def call_members(self, query_id: object) -> ShardCall:
        """The full coordination component of one pending query."""
        return self._dispatch("members", id=query_id)

    def call_detach(self, query_ids: Sequence) -> ShardCall:
        """Drop a component batch for migration, all or nothing: the
        queries leave the shard (they can no longer coordinate or
        expire) and nothing of them is kept there."""
        return self._dispatch("detach", ids=query_ids)

    def call_import(self, records: Sequence[PendingRecord]) -> ShardCall:
        """Adopt pending records (a migrated, restored or re-homed
        component), under their original arrival seqs and submission
        instants."""
        return self._dispatch("import", records=records)

    def call_db_delta(self, payload: dict) -> ShardCall:
        """Apply one versioned ``db_delta`` replication block to the
        shard's database replica; results in the replica's
        ``db_version`` afterwards (the ack the coordinator verifies).
        Blocks the replica has already applied are acknowledged without
        reapplying (replays are idempotent); a block whose ``from``
        version is ahead of the replica raises — the replica has a gap,
        and the coordinator refuses it."""
        return self._dispatch("db_delta", payload=payload)

    def call_metrics(self) -> ShardCall:
        """The shard engine's ``MetricsRegistry`` snapshot (see
        :meth:`repro.engine.engine.D3CEngine.metrics_snapshot`)."""
        return self._dispatch("metrics")

    def call_partition_sizes(self) -> ShardCall:
        """Component sizes on this shard."""
        return self._dispatch("sizes")

    def call_pending(self) -> ShardCall:
        """Pending query ids on this shard (arrival order)."""
        return self._dispatch("pending")

    def call_invalidate(self) -> ShardCall:
        """Forget data-dependent caches after a database mutation."""
        return self._dispatch("invalidate")

    def drain_events(self) -> list[Event]:
        """Settlements since the last drain, in settlement order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the worker (idempotent)."""
        raise NotImplementedError


class ShardHost:
    """One shard engine and the one body of every shard command.

    Both transports run this class: :class:`InProcessBackend` in the
    coordinator's process, the pipe worker of
    :mod:`repro.shard.process` in its own.  A command is a wire op
    name plus an args dict, run by :meth:`execute` through
    :attr:`COMMANDS`; each body's parameters are its frame's arg keys.
    Bodies take and return live objects — the pipe's codec sits at the
    frame edge, outside the host.  Settlement events are what the
    engine's settlement stream delivers, in settlement order.
    """

    def __init__(self, database: Database, engine_kwargs: dict):
        self._clock = PinnedClock()
        self.engine = D3CEngine(database, clock=self._clock,
                                **engine_kwargs)
        self.engine.on_settle = self._on_settle
        self._events: list[Event] = []

    def execute(self, op: str, args: dict):
        """Run one command; returns its result (raises its failure)."""
        command = self.COMMANDS.get(op)
        if command is None:
            raise ValueError(f"unknown shard command {op!r}")
        return command(self, **args)

    # -- settlement capture --------------------------------------------

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

    # -- command bodies -------------------------------------------------

    def submit_block(self, records: Sequence[PendingRecord]) -> None:
        self.engine.submit_records(records)

    def run_batch(self, now: float) -> int:
        self._clock.set(now)
        return self.engine.run_batch()

    def expire(self, now: float) -> int:
        self._clock.set(now)
        return self.engine.expire_stale()

    def members(self, id: object) -> list:
        return self.engine.component_members(id)

    def detach(self, ids: Sequence) -> None:
        self.engine.export_component(ids)

    def import_records(self, records: Sequence[PendingRecord]) -> None:
        # The wire op is "import" (a keyword, hence the body's name).
        self.engine.import_pending(records)

    def db_delta(self, payload: dict) -> int:
        database = self.engine.database
        if database.db_version >= payload["version"]:
            # A replayed block, or a host sharing the primary itself,
            # which is always already current: ack without reapplying.
            return database.db_version
        from ..dataio import db_delta_from_payload
        from_version, version, deltas = db_delta_from_payload(payload)
        if database.db_version != from_version:
            raise ValueError(
                f"stale replica: database at version "
                f"{database.db_version}, db_delta block starts at "
                f"{from_version}")
        for delta in deltas:
            database.apply_delta(delta)
        if database.db_version != version:
            raise ValueError(
                f"replica version skew: expected {version} after "
                f"applying the block, at {database.db_version}")
        return database.db_version

    def metrics(self) -> dict:
        return self.engine.metrics_snapshot()

    def partition_sizes(self) -> list[int]:
        return self.engine.partition_sizes()

    def pending(self) -> list:
        return self.engine.pending_ids()

    def invalidate(self) -> None:
        self.engine.invalidate_cache()

    #: Wire op -> command body: the one table both transports dispatch
    #: through.
    COMMANDS = {
        "submit_block": submit_block, "run_batch": run_batch,
        "expire": expire, "members": members, "detach": detach,
        "import": import_records, "db_delta": db_delta,
        "metrics": metrics, "sizes": partition_sizes, "pending": pending,
        "invalidate": invalidate,
    }


class InProcessBackend(ShardBackend):
    """A shard host living in the coordinator's own process.

    The engine shares the coordinator's database object (``db_delta``
    is then always a replay, acked as is).  There is no worker to
    overlap with: every command runs eagerly and its outcome — a raised
    error included — is parked in a :class:`ShardCall`, so ``result()``
    fails where the process backend's would.
    """

    def __init__(self, shard_index: int, database: Database,
                 engine_kwargs: dict):
        self.shard_index = shard_index
        self.host = ShardHost(database, engine_kwargs)
        self.engine = self.host.engine
        self.wire_requests = 0

    def _dispatch(self, op: str, **args) -> ShardCall:
        self.wire_requests += 1
        try:
            return ShardCall.completed(self.host.execute(op, args))
        except Exception as error:
            return ShardCall.failed(error)

    def drain_events(self) -> list[Event]:
        return self.host.drain_events()

    def close(self) -> None:
        pass
