"""Process-parallel shard workers behind a pipelined wire protocol.

The GIL serializes Python threads; worker *processes* do not share
one, so process shards are this repo's one parallelism story.
:class:`ProcessBackend` runs one :class:`~repro.engine.engine.D3CEngine`
per spawned worker process and speaks a **correlation-ID** command
protocol over a pipe:

* requests are ``(req_id, op, args)`` frames with a per-connection
  monotonically increasing ``req_id``;
* replies are ``(req_id, status, result, events)`` frames;
* several requests may be in flight at once (bounded by
  :attr:`ProcessBackend.window`), so coordinator fan-outs — a
  ``call_*`` issued on every shard before any ``result()`` is
  collected: sub-block ingests, rounds, expiry sweeps,
  partner-discovery lookups, migration exchanges, stats snapshots —
  overlap across shards instead of serializing on round trips.

The worker executes commands strictly in send order (one engine, one
loop), so replies actually come back in order too — but the frame
format never relies on it, and the coordinator side buffers replies by
``req_id``.  Settlement **events** ride on the reply of the command
that produced them and are decoded the moment the frame is read off
the pipe (never when the caller happens to collect that command's
result), so draining stays in worker execution order no matter how
replies interleave with other in-flight calls.

Two layers cross the boundary, and only one of them is ours.  The
payload *trees* inside a frame — queries, settled answers, batched
migration manifests (:func:`repro.dataio.manifest_to_payload`),
``db_delta`` blocks — are dicts, lists, and scalars in the stable
:mod:`repro.dataio` wire format (:func:`~repro.dataio.to_payload` /
:func:`~repro.dataio.from_payload`), so no live object and no class
identity travels.  The frame *envelope* is ``Connection.send`` — a
pickled tuple, delimited by the kernel — deliberately not
:func:`repro.dataio.frame_record`: the pipe is a trusted channel
between two processes of one revision, where a CRC detects nothing the
kernel does not already guarantee, and pickle is the cheaper carrier of
an already-plain tree (a 60-query ``submit_block`` frame: 97 µs to
encode / 237 µs to decode and 13.9 KB pickled, against 330 / 219 µs and
18.0 KB through ``frame_record`` / ``unframe_records``; a 32-answer
reply 12 / 20 µs against 62 / 34 µs — about +0.3 ms per round per
shard for nothing; see EXPERIMENTS.md).

Workers are started with the ``spawn`` method: the coordinator's
process may be running threads (forking one is lock-roulette), and
spawn gives each worker a clean interpreter that rebuilds its database
from :func:`repro.dataio.dump_database` text — a *replica* of the
coordinator's primary, pinned to the primary's ``db_version`` at
start-up and kept current by versioned ``db_delta`` frames (the worker
acks each block's resulting version, skips already-applied replays,
and refuses gapped blocks with a ``stale replica`` error so the
coordinator replays its mutation log).  The worker's clock is a
:class:`~repro.engine.staleness.PinnedClock` set to the coordinator's
``now`` on every command, so staleness is judged against coordinator
time and the process fleet behaves byte-identically to in-process
shards.
"""

from __future__ import annotations

import itertools
import os
import time
import traceback
import warnings
from typing import Sequence

from ..core.evaluate import FailureReason
from ..engine.engine import D3CEngine, PendingRecord
from ..engine.futures import CoordinationTicket, TicketState
from ..engine.staleness import NeverStale, PinnedClock, \
    StalenessPolicy, TimeoutStaleness
from ..obs.trace import TRACER, set_tracing
from .backend import ShardCall

#: ``req_id`` of the worker's one unsolicited frame: the readiness
#: handshake sent after the database rebuild.
READY_REQ_ID = 0


class ReplicaGapError(ValueError):
    """Worker-side: a ``db_delta`` block starts ahead of the replica's
    version (a frame was lost).  Travels the wire as a dedicated
    ``"stale"`` reply status — never by matching message text — so the
    coordinator can replay its mutation log instead of declaring the
    worker dead."""


class ShardWorkerError(RuntimeError):
    """A shard worker reported a failure executing a command."""


class ShardReplicaStaleError(ShardWorkerError):
    """Coordinator-side: the worker refused a ``db_delta`` block
    because its replica is behind the block's ``from`` version.
    Recoverable — the coordinator replays the retained mutation log."""


#: Default grace period (seconds) each step of worker-process shutdown
#: waits before escalating.
DEFAULT_SHUTDOWN_GRACE = 5.0


def shutdown_grace_seconds() -> float:
    """Grace period per step of shard-worker shutdown escalation.

    The ``REPRO_SHUTDOWN_TIMEOUT`` environment variable overrides the
    default (:data:`DEFAULT_SHUTDOWN_GRACE` seconds); deployments with
    slow container teardown raise it, test batteries that churn many
    fleets lower it.  An unusable value (empty, non-numeric, zero, or
    negative) falls back to the default with a :class:`RuntimeWarning`
    — a typo in a deployment manifest should degrade shutdown timing,
    never crash the service as it closes.
    """
    override = os.environ.get("REPRO_SHUTDOWN_TIMEOUT")
    if override is None:
        return DEFAULT_SHUTDOWN_GRACE
    try:
        value = float(override.strip())
    except ValueError:
        value = None
    if value is None or value <= 0:
        warnings.warn(
            f"ignoring REPRO_SHUTDOWN_TIMEOUT={override!r}: expected a "
            f"positive number of seconds; using the default "
            f"({DEFAULT_SHUTDOWN_GRACE})",
            RuntimeWarning, stacklevel=2)
        return DEFAULT_SHUTDOWN_GRACE
    return value


def _reap(process, grace: float) -> None:
    """Deterministic worker shutdown escalation.

    ``join`` (the cooperative stop already happened, timed out, or the
    pipe closed), then ``terminate`` (SIGTERM), then ``kill``
    (SIGKILL) — each step waits the same *grace* period (see
    :func:`shutdown_grace_seconds`) before escalating.  Together with
    the one grace period :meth:`ProcessBackend.close` allows the stop
    acknowledgment, ``close()`` is bounded at four grace periods even
    against a worker that stalls instead of dying (stopped, or wedged
    in uninterruptible state), and an orphaned worker can never outlive
    the backend that owns it.
    """
    process.join(timeout=grace)
    if process.is_alive():
        process.terminate()
        process.join(timeout=grace)
    if process.is_alive():
        process.kill()
        process.join(timeout=grace)


def staleness_to_spec(policy: StalenessPolicy) -> tuple:
    """Encode a staleness policy for the wire (the supported subset)."""
    if isinstance(policy, NeverStale):
        return ("never",)
    if isinstance(policy, TimeoutStaleness):
        return ("timeout", policy.timeout_seconds)
    raise ValueError(
        f"staleness policy {type(policy).__name__} cannot cross the "
        f"process boundary; use NeverStale or TimeoutStaleness (or the "
        f"in-process backend)")


def staleness_from_spec(spec: Sequence) -> StalenessPolicy:
    if spec[0] == "never":
        return NeverStale()
    if spec[0] == "timeout":
        return TimeoutStaleness(spec[1])
    raise ValueError(f"unknown staleness spec {spec!r}")


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------


class _Worker:
    """The engine host running inside a shard worker process."""

    def __init__(self, config: dict):
        from ..dataio import load_database
        if config.get("tracing"):
            # Worker-side lifecycle tracing: spans are buffered here
            # and shipped to the coordinator piggybacked on reply
            # frames (see _worker_main), tagged with this shard's site.
            set_tracing(True,
                        site=f"shard{config.get('shard_index', '?')}")
        self.database = load_database(config["database_text"])
        for spec in config.get("warm_indexes", ()):
            self.database.table(spec[0]).index_on(tuple(spec[1]))
        # The rebuild replayed every row insert, so the replica's
        # mutation counter disagrees with the primary's; pin it so
        # replicated db_delta frames line up from the first block.
        self.database.reset_db_version(config.get("db_version", 0))
        self.clock = PinnedClock()
        self.engine = D3CEngine(
            self.database,
            staleness=staleness_from_spec(config["staleness"]),
            clock=self.clock,
            **config["engine"])
        self.events: list[tuple] = []
        self.manifests: dict[str, list[PendingRecord]] = {}
        self._manifest_counter = itertools.count()

    def _track(self, ticket: CoordinationTicket) -> None:
        ticket.add_callback(self._on_settle)

    def _on_settle(self, ticket: CoordinationTicket) -> None:
        from ..dataio import to_payload
        if ticket.state is TicketState.ANSWERED:
            self.events.append(("answered", ticket.query_id,
                                to_payload(ticket.answer)))
        else:
            self.events.append(("failed", ticket.query_id,
                                ticket.failure_reason.value))

    def handle(self, op: str, args: dict):
        from ..dataio import decode_queries, manifest_from_payload, \
            manifest_to_payload
        if op == "submit_block":
            self.clock.set(args["now"])
            queries = decode_queries(args["queries"])
            # Optional versioned field: coordinators that trace send
            # one trace id per query; older coordinators simply omit
            # the key (and older workers ignore it).
            trace_ids = args.get("trace")
            if len(queries) == 1:
                tickets = [self.engine.submit(
                    queries[0], arrival_seq=args["seqs"][0],
                    trace_id=trace_ids[0] if trace_ids else None)]
            else:
                tickets = self.engine.submit_many(
                    queries, arrival_seqs=args["seqs"],
                    trace_ids=trace_ids)
            for ticket in tickets:
                self._track(ticket)
            return None
        if op == "run_batch":
            self.clock.set(args["now"])
            return self.engine.run_batch()
        if op == "expire":
            self.clock.set(args["now"])
            return self.engine.expire_stale()
        if op == "members":
            return self.engine.component_members(args["id"])
        if op == "reserve":
            records = self.engine.export_component(args["ids"])
            manifest = f"m{next(self._manifest_counter)}"
            self.manifests[manifest] = records
            return manifest
        if op == "transfer":
            return manifest_to_payload(args["manifest"],
                                       self.manifests[args["manifest"]])
        if op == "commit":
            del self.manifests[args["manifest"]]
            return None
        if op == "abort":
            records = self.manifests.pop(args["manifest"], None)
            if records:
                for ticket in self.engine.import_pending(
                        records).values():
                    self._track(ticket)
            return None
        if op == "import":
            _, records = manifest_from_payload(args["manifest"])
            for ticket in self.engine.import_pending(records).values():
                self._track(ticket)
            return None
        if op == "db_delta":
            from ..dataio import db_delta_from_payload
            from_version, version, deltas = db_delta_from_payload(
                args["payload"])
            current = self.database.db_version
            if current >= version:
                # Replayed block (a coordinator re-sync after a fake
                # or lost ack): already applied, ack idempotently.
                return current
            if current != from_version:
                raise ReplicaGapError(
                    f"stale replica: database at version {current}, "
                    f"db_delta block starts at {from_version} — replay "
                    f"the mutation log first")
            for delta in deltas:
                self.database.apply_delta(delta)
            if self.database.db_version != version:
                raise ValueError(
                    f"replica version skew: expected {version} after "
                    f"applying the block, at "
                    f"{self.database.db_version}")
            return self.database.db_version
        if op == "pending":
            return self.engine.pending_ids()
        if op == "sizes":
            return self.engine.partition_sizes()
        if op == "metrics":
            return self.engine.metrics_snapshot()
        if op == "invalidate":
            self.engine.invalidate_cache()
            return None
        raise ValueError(f"unknown shard command {op!r}")


def _ship_spans(events: list) -> None:
    """Piggyback buffered trace spans on an outgoing reply's events.

    A ``("spans", None, payloads)`` pseudo-event; the coordinator's
    frame pump imports it into its own tracer instead of treating it
    as a settlement.  One flag check when tracing is off.
    """
    if TRACER.enabled and len(TRACER):
        events.append(("spans", None, TRACER.drain_payloads()))


def _worker_main(connection, config: dict) -> None:
    """Entry point of a shard worker process (spawned)."""
    try:
        worker = _Worker(config)
    except BaseException:  # lint: allow-swallow(traceback is shipped to the coordinator over the pipe)
        connection.send((READY_REQ_ID, "err", traceback.format_exc(), []))
        connection.close()
        return
    # Readiness handshake: database rebuild and engine construction
    # are done.  The coordinator collects this after starting *all*
    # workers, so start-up overlaps across cores and never leaks into
    # a caller's measured serving region.
    connection.send((READY_REQ_ID, "ok", "ready", []))
    while True:
        try:
            message = connection.recv()
        except EOFError:
            break
        req_id, op, args = message
        if op == "stop":
            connection.send((req_id, "ok", None, []))
            break
        try:
            result = worker.handle(op, args)
        except BaseException as error:
            # Settlements that fired before the failure still ship —
            # withholding them would desynchronize the coordinator's
            # tickets from the engine (the coordinator applies events
            # from error replies before raising).  A replica gap gets
            # its own status so the coordinator's recovery choice
            # never depends on message text.
            status = ("stale" if isinstance(error, ReplicaGapError)
                      else "err")
            events, worker.events = worker.events, []
            _ship_spans(events)
            connection.send((req_id, status, traceback.format_exc(),
                             events))
            continue
        events, worker.events = worker.events, []
        _ship_spans(events)
        connection.send((req_id, "ok", result, events))
    connection.close()


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------


class ProcessBackend:
    """A shard engine hosted in a spawned worker process.

    Commands are correlation-ID frames over a duplex pipe; up to
    :attr:`window` may be in flight at once (``_send`` drains replies
    when the window is full).  Settlement events piggyback on every
    reply and are decoded into the drain buffer *at frame receipt* —
    in worker execution order — so out-of-order result collection can
    never reorder or drop them.  Answers and failure reasons are
    rebuilt from their wire payloads on receipt, so the coordinator
    sees exactly the event vocabulary :class:`~repro.shard.backend.
    InProcessBackend` produces.
    """

    #: In-flight request cap per worker; deep enough that routing-time
    #: lookup bursts and migration exchanges never stall, small enough
    #: to bound pipe buffering.
    window = 64

    def __init__(self, shard_index: int, config: dict):
        import multiprocessing
        self.shard_index = shard_index
        # Workers need their index for trace-site tagging; stamp it
        # into a copy so one shared config dict serves every shard.
        config = dict(config, shard_index=shard_index)
        context = multiprocessing.get_context("spawn")
        self._connection, child = context.Pipe()
        self._process = context.Process(
            target=_worker_main, args=(child, config),
            name=f"repro-shard-{shard_index}", daemon=True)
        self._process.start()
        child.close()
        self._events: list[tuple] = []
        self._req_ids = itertools.count(READY_REQ_ID + 1)
        self._inflight: dict[int, str] = {}
        self._replies: dict[int, tuple] = {}
        self._ready = False
        self._closed = False
        self.wire_requests = 0

    def ensure_ready(self) -> None:
        """Block until the worker finished starting up (idempotent)."""
        if self._ready:
            return
        req_id, status, result, _ = self._recv_frame()
        if req_id != READY_REQ_ID:
            raise ShardWorkerError(
                f"shard {self.shard_index}: expected the readiness "
                f"frame, got a reply to request {req_id}")
        if status != "ok":
            raise ShardWorkerError(
                f"shard {self.shard_index} failed to start:\n{result}")
        self._ready = True

    # -- frame plumbing -------------------------------------------------

    def _recv_frame(self) -> tuple:
        try:
            return self._connection.recv()
        except (EOFError, OSError) as error:
            raise ShardWorkerError(
                f"shard {self.shard_index} worker died "
                f"(connection lost: {error!r})") from error

    def _send(self, op: str, **args) -> int:
        if self._closed:
            raise ShardWorkerError(
                f"shard {self.shard_index} is closed")
        self.ensure_ready()
        while len(self._inflight) >= self.window:
            self._pump_one()
        req_id = next(self._req_ids)
        try:
            self._connection.send((req_id, op, args))
        except (BrokenPipeError, OSError) as error:
            raise ShardWorkerError(
                f"shard {self.shard_index} worker died "
                f"(send failed: {error!r})") from error
        self._inflight[req_id] = op
        self.wire_requests += 1
        return req_id

    def _pump_one(self) -> None:
        """Read one reply frame; decode its events immediately.

        Events are appended to the drain buffer here — at receipt, in
        frame order — never at result-collection time, so events from
        an early in-flight command can't be reordered behind (or lost
        under) a later command's reply that happened to be collected
        first.
        """
        req_id, status, result, events = self._recv_frame()
        from ..dataio import from_payload
        for kind, query_id, payload in events:
            if kind == "answered":
                self._events.append((kind, query_id,
                                     from_payload(payload)))
            elif kind == "spans":
                # Worker-side trace spans riding the reply: stitch
                # them into the coordinator's buffer (they keep their
                # shard site tag) — never a settlement event.
                TRACER.import_payloads(payload)
            else:
                self._events.append((kind, query_id,
                                     FailureReason(payload)))
        op = self._inflight.pop(req_id, "?")
        self._replies[req_id] = (op, status, result)

    def _wait(self, req_id: int):
        while req_id not in self._replies:
            if req_id not in self._inflight:
                # Already consumed (result() called twice?): raising
                # beats pumping forever for a frame that won't come.
                raise ShardWorkerError(
                    f"shard {self.shard_index}: reply to request "
                    f"{req_id} was already collected")
            self._pump_one()
        op, status, result = self._replies.pop(req_id)
        if status == "stale":
            raise ShardReplicaStaleError(
                f"shard {self.shard_index} refused {op!r} as a stale "
                f"replica:\n{result}")
        if status != "ok":
            raise ShardWorkerError(
                f"shard {self.shard_index} failed {op!r}:\n{result}")
        return result

    def _call_async(self, op: str, **args) -> ShardCall:
        try:
            req_id = self._send(op, **args)
        except Exception as error:
            return ShardCall.failed(error)
        return ShardCall(lambda: self._wait(req_id))

    def drain_events(self) -> list[tuple]:
        events, self._events = self._events, []
        return events

    # -- command surface ------------------------------------------------
    #
    # One spelling per command (see the ShardBackend protocol): issue
    # without waiting, collect with ``result()``.  Several calls may be
    # outstanding, bounded by the window.

    def call_submit_block(self, queries, seqs, now: float,
                          trace_ids=None) -> ShardCall:
        from ..dataio import to_payload
        args = dict(
            queries=[to_payload(query) for query in queries],
            seqs=list(seqs), now=now)
        if trace_ids is not None:
            # Optional versioned frame field (see _Worker.handle).
            args["trace"] = list(trace_ids)
        return self._call_async("submit_block", **args)

    def call_run_batch(self, now: float) -> ShardCall:
        return self._call_async("run_batch", now=now)

    def call_expire(self, now: float) -> ShardCall:
        return self._call_async("expire", now=now)

    def call_members(self, query_id) -> ShardCall:
        return self._call_async("members", id=query_id)

    def call_reserve(self, query_ids) -> ShardCall:
        return self._call_async("reserve", ids=list(query_ids))

    def call_transfer(self, manifest: str) -> ShardCall:
        return self._call_async("transfer", manifest=manifest)

    def call_commit(self, manifest: str) -> ShardCall:
        return self._call_async("commit", manifest=manifest)

    def call_abort(self, manifest: str) -> ShardCall:
        return self._call_async("abort", manifest=manifest)

    def call_import(self, records: dict) -> ShardCall:
        return self._call_async("import", manifest=records)

    def call_db_delta(self, payload: dict) -> ShardCall:
        return self._call_async("db_delta", payload=payload)

    def call_metrics(self) -> ShardCall:
        return self._call_async("metrics")

    def call_partition_sizes(self) -> ShardCall:
        return self._call_async("sizes")

    def call_pending(self) -> ShardCall:
        return self._call_async("pending")

    def call_invalidate(self) -> ShardCall:
        return self._call_async("invalidate")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        grace = shutdown_grace_seconds()
        try:
            stop_id = next(self._req_ids)
            self._connection.send((stop_id, "stop", {}))
            # Drain replies to anything still in flight until the stop
            # acknowledgment — or the worker hangs up, or one grace
            # period passes without it (a worker that stalls instead
            # of dying).  Every exit falls through to _reap.
            deadline = time.monotonic() + grace
            while self._connection.poll(
                    max(0.0, deadline - time.monotonic())):
                req_id, _, _, _ = self._connection.recv()
                if req_id == stop_id:
                    break
        except (BrokenPipeError, EOFError, OSError):
            pass
        self._connection.close()
        _reap(self._process, grace)
