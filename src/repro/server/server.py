"""The asyncio coordination server: sockets in front of one engine.

:class:`CoordinationServer` listens on TCP and/or a unix socket and
serves the protocol of :mod:`repro.server.protocol` against one shared
:class:`~repro.service.CoordinationService` — a
:class:`~repro.engine.D3CEngine`, a sharded coordinator, or (the
production shape) a durable wrapper whose journal survives a kill-9
under load.  The service protocol is the server's whole contract with
what it fronts: it calls the service directly and never asks which
shape it was handed.

Design
------

All engine state lives behind **one consumer task** draining **one
command queue**.  Connection readers validate, admit, and enqueue;
they never touch the engine.  This serializes every state-changing
command — the engines are not safe for concurrent use — and it gives
each such command a global ``order`` stamp carried on its reply: the
position at which it executed.  Replaying the union of all clients'
acknowledged commands in ``order`` into a fresh engine reproduces the
server's answers byte for byte (the fault battery's oracle).

Admission happens in the reader, before the queue, with no awaits
between the check and the enqueue (atomic under the event loop):
draining → ``SHUTTING_DOWN``; per-connection window, per-tenant token
bucket, or queue bound exceeded → ``OVERLOADED``.  Shedding is always
a typed reply, never a hang.  Admitted commands carry a deadline; a
command dequeued past it is dropped unexecuted with ``TIMEOUT``.

Settlements route back to the connection that submitted the query:
the service's settlement stream (its ``on_settle`` slot, set once
here, called synchronously inside service calls) appends ``evt``
frames to a per-connection backlog the consumer flushes after every
command.  A durable service streams a settlement only once its journal
holds it, so a command that raises
:class:`~repro.errors.RecoveryError` — a durable service whose journal
append failed, and which now refuses every command — has streamed
nothing that no client may see.  Settlements for vanished connections
are counted and dropped; late or reconnecting clients recover outcomes
through the ``resolved`` op, which (for durable services) is seeded
across crashes from the journal's answer/failure maps.

Graceful drain (``drain()``, wired to SIGTERM by ``repro serve``)
stops the listeners, sheds new requests with ``SHUTTING_DOWN``,
serves the already-admitted queue FIFO to completion, flushes events,
closes every connection and (by default) the service, and always
unlinks the unix socket path.  On bind, a pre-existing socket path is
probed: a live listener raises :class:`ServerAddressInUseError`; a
dead one — the crash-leftover this fixes — is unlinked and reclaimed.
"""

from __future__ import annotations

import asyncio
import gc
import os
import signal
import socket
import stat
import time
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Optional

from ..dataio import decode_queries, to_payload
from ..engine.futures import TicketState
from ..errors import RecoveryError, ReproError, ValidationError
from ..obs.metrics import MetricsRegistry, merge_snapshots
from ..obs.trace import TRACER
from ..service import CoordinationService
from .admission import AdmissionController
from .protocol import (BAD_FRAME, INTERNAL, INVALID, MAX_FRAME_BYTES,
                       ORDERED_OPS, OVERLOADED, SHUTTING_DOWN, TIMEOUT,
                       FrameDecoder, FrameError, check_proto,
                       check_request, encode_frame, error_reply,
                       event_frame, ok_reply, reject_frame,
                       welcome_frame)

#: Queue sentinel: drain() enqueues it after flipping the draining
#: flag; the consumer serves everything ahead of it, then exits.
_STOP = object()

_READ_CHUNK = 64 * 1024


class ServerAddressInUseError(ReproError):
    """The unix socket path has a live server behind it (binding over
    it would silently split the service in two)."""


@dataclass
class ServerConfig:
    """Tunables for one :class:`CoordinationServer`.

    ``request_timeout`` bounds *queue wait*, not execution: it is
    checked when the consumer dequeues the command.  ``None`` disables
    deadlines; ``0.0`` expires every queued request (the timeout
    tests' lever).  ``tenant_rate = None`` disables the token bucket.
    """

    window: int = 64
    queue_limit: int = 256
    tenant_rate: float | None = None
    tenant_burst: float = 64.0
    request_timeout: float | None = 30.0
    max_frame_bytes: int = MAX_FRAME_BYTES


class _Connection:
    """Per-socket state: tenant, in-flight window, and a write lock
    (the reader sheds and the consumer replies on the same stream)."""

    __slots__ = ("writer", "tenant", "inflight", "closed", "lock")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.tenant: Optional[str] = None
        self.inflight = 0
        self.closed = False
        self.lock = asyncio.Lock()


def normalize_mutations(args: dict) -> list:
    """Validate and normalize a mutate request's ``ops`` argument into
    the ``(kind, table, rows-of-tuples)`` shape the services expect."""
    operations = args.get("ops")
    if not isinstance(operations, list) or not operations:
        raise ValidationError(
            "mutate args need a non-empty 'ops' list")
    normalized = []
    for entry in operations:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
            raise ValidationError(
                "each mutation is a [kind, table, rows] triple")
        kind, table, rows = entry
        if kind not in ("insert", "delete"):
            raise ValidationError(
                f"mutation kind must be 'insert' or 'delete', "
                f"got {kind!r}")
        if not isinstance(table, str):
            raise ValidationError(
                f"mutation table must be a string, got {table!r}")
        if not isinstance(rows, list) or not rows:
            raise ValidationError(
                "mutation rows must be a non-empty list")
        normalized.append(
            (kind, table, [tuple(row) for row in rows]))
    return normalized


class CoordinationServer:
    """Asyncio TCP/unix front door for one coordination service."""

    def __init__(self, service: CoordinationService,
                 config: ServerConfig | None = None, *,
                 clock: Callable[[], float] = time.monotonic):
        self.service = service
        self.config = config or ServerConfig()
        self._clock = clock
        self._admission = AdmissionController(
            window=self.config.window,
            queue_limit=self.config.queue_limit,
            tenant_rate=self.config.tenant_rate,
            tenant_burst=self.config.tenant_burst,
            clock=clock)
        # Unbounded asyncio queue: the bound is enforced (and made a
        # typed reply) by admission, never by blocking a reader.
        self._queue: asyncio.Queue = asyncio.Queue()
        self._metrics = MetricsRegistry()
        self._owners: dict = {}
        self._answers: dict = {}
        self._failures: dict = {}
        self._event_backlog: dict = {}
        self._connections: set = set()
        self._listeners: list = []
        self._consumer: Optional[asyncio.Task] = None
        self._order = 0
        self._draining = False
        self._drained = asyncio.Event()
        self._drain_requested = asyncio.Event()
        self._unix_path: Optional[str] = None
        self._tcp_address = None
        service.on_settle = self._on_settle

    # -- lifecycle ----------------------------------------------------

    async def start(self, *, host: str = "127.0.0.1",
                    port: int | None = None,
                    unix_path=None) -> None:
        """Bind the listeners and start the consumer task.

        ``port = 0`` binds an ephemeral TCP port (read it back from
        :attr:`tcp_address`).  A pre-existing unix socket path with a
        live server raises :class:`ServerAddressInUseError`; a stale
        one is unlinked and reclaimed.
        """
        if port is None and unix_path is None:
            raise ValidationError(
                "start() needs a TCP port and/or a unix socket path")
        if self._consumer is not None:
            raise ValidationError("server already started")
        if unix_path is not None:
            path = os.fspath(unix_path)
            self._prepare_unix_path(path)
            listener = await asyncio.start_unix_server(
                self._handle_connection, path=path)
            self._listeners.append(listener)
            self._unix_path = path
        if port is not None:
            listener = await asyncio.start_server(
                self._handle_connection, host, port)
            self._listeners.append(listener)
            self._tcp_address = \
                listener.sockets[0].getsockname()[:2]
        # Read once: the count is a walk over the frozen objects, and
        # whoever freezes (``repro serve``) does so before starting.
        self._metrics.gauge("process.gc.frozen_objects",
                            gc.get_freeze_count())
        self._consumer = asyncio.create_task(self._serve())

    @property
    def tcp_address(self):
        """``(host, port)`` actually bound, or None (unix-only)."""
        return self._tcp_address

    @property
    def unix_path(self) -> Optional[str]:
        return self._unix_path

    @property
    def draining(self) -> bool:
        return self._draining

    @staticmethod
    def _prepare_unix_path(path: str) -> None:
        if not os.path.lexists(path):
            return
        mode = os.lstat(path).st_mode
        if not stat.S_ISSOCK(mode):
            raise ValidationError(
                f"{path!r} exists and is not a socket; refusing to "
                f"delete it")
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.settimeout(0.25)
        try:
            probe.connect(path)
        except OSError:
            # Nobody is listening: a previous server died without
            # cleanup.  Reclaim the address instead of failing the
            # bind (the stale-socket fix).
            os.unlink(path)
        else:
            raise ServerAddressInUseError(
                f"{path!r} already has a live server behind it")
        finally:
            probe.close()

    def install_signal_handlers(self, *signals_) -> None:
        """Wire SIGTERM/SIGINT (or the given signals) to request a
        graceful drain; ``serve_forever()`` performs it."""
        loop = asyncio.get_running_loop()
        for signum in signals_ or (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, self.request_drain)

    def request_drain(self) -> None:
        """Signal-safe drain request (idempotent)."""
        self._drain_requested.set()

    async def serve_forever(self) -> None:
        """Block until a drain is requested, then drain."""
        await self._drain_requested.wait()
        await self.drain()

    async def drain(self, *, close_service: bool = True) -> None:
        """Graceful shutdown: stop listening, finish admitted work,
        flush events, close connections, unlink the unix socket."""
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        for listener in self._listeners:
            listener.close()
        for listener in self._listeners:
            await listener.wait_closed()
        if self._consumer is not None:
            self._queue.put_nowait(_STOP)
            await self._consumer
            self._consumer = None
        await self._flush_events()
        for conn in list(self._connections):
            await self._close_connection(conn)
        if close_service:
            self.service.close()
        self._unlink_unix()
        self._drained.set()

    def _unlink_unix(self) -> None:
        if self._unix_path and os.path.lexists(self._unix_path):
            os.unlink(self._unix_path)
        self._unix_path = None

    # -- connection handling ------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn = _Connection(writer)
        self._connections.add(conn)
        self._metrics.inc("server.connections.opened")
        decoder = FrameDecoder(self.config.max_frame_bytes)
        try:
            while not conn.closed:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                try:
                    frames = decoder.feed(data)
                except FrameError as error:
                    # Serve the valid prefix of the read first: a
                    # pipelined client should not lose acknowledged
                    # work to corruption that arrived behind it.
                    for frame in error.frames:
                        if not await self._dispatch(conn, frame):
                            break
                    self._metrics.inc("server.bad_frames")
                    await self._send(
                        conn, reject_frame(BAD_FRAME, str(error)))
                    break
                keep_going = True
                for frame in frames:
                    keep_going = await self._dispatch(conn, frame)
                    if not keep_going:
                        break
                if not keep_going:
                    break
        except (ConnectionError, TimeoutError, OSError):
            self._metrics.inc("server.connections.reset")
        finally:
            await self._close_connection(conn)

    async def _dispatch(self, conn: _Connection, frame: dict) -> bool:
        """Handle one decoded frame; False closes the connection."""
        reason = check_proto(frame)
        if reason is not None:
            self._metrics.inc("server.bad_frames")
            await self._send(conn, reject_frame(BAD_FRAME, reason))
            return False
        if conn.tenant is None:
            if frame["kind"] != "hello" \
                    or not isinstance(frame.get("tenant"), str) \
                    or not frame["tenant"]:
                self._metrics.inc("server.bad_frames")
                await self._send(conn, reject_frame(
                    BAD_FRAME,
                    "the first frame must be a hello carrying a "
                    "non-empty string tenant"))
                return False
            conn.tenant = frame["tenant"]
            await self._send(conn, welcome_frame(
                self.config.window, self.config.queue_limit,
                self.config.max_frame_bytes))
            return True
        reason = check_request(frame)
        if reason is not None:
            req_id = frame.get("id")
            if isinstance(req_id, int) and req_id > 0:
                # Well-addressed but malformed: a typed reply keeps
                # the connection (the client can correct course).
                self._metrics.inc("server.invalid_requests")
                await self._send(
                    conn, error_reply(req_id, INVALID, reason))
                return True
            self._metrics.inc("server.bad_frames")
            await self._send(conn, reject_frame(BAD_FRAME, reason))
            return False
        return await self._admit(conn, frame)

    async def _admit(self, conn: _Connection, frame: dict) -> bool:
        req_id = frame["id"]
        if self._draining:
            self._metrics.inc("server.rejected.shutdown")
            await self._send(conn, error_reply(
                req_id, SHUTTING_DOWN,
                "the server is draining and takes no new work"))
            return True
        # No awaits between the admission check and the enqueue: the
        # decision and the queue state stay consistent, and a request
        # admitted here is always ahead of drain()'s stop sentinel.
        shed = self._admission.admit(
            conn.tenant, conn.inflight, self._queue.qsize())
        if shed is not None:
            self._metrics.inc(f"server.shed.{shed}")
            await self._send(conn, error_reply(
                req_id, OVERLOADED,
                f"admission shed the request at the {shed} bound; "
                f"retry with backoff"))
            return True
        conn.inflight += 1
        deadline = None
        if self.config.request_timeout is not None:
            deadline = self._clock() + self.config.request_timeout
        self._metrics.inc("server.admitted")
        self._queue.put_nowait(
            (conn, frame, deadline, perf_counter_ns()))
        return True

    async def _close_connection(self, conn: _Connection) -> None:
        if conn in self._connections:
            self._connections.discard(conn)
            self._metrics.inc("server.connections.closed")
        conn.closed = True
        conn.writer.close()
        try:
            await conn.writer.wait_closed()
        except (ConnectionError, OSError):
            self._metrics.inc("server.connections.reset")

    async def _send(self, conn: _Connection, frame: dict) -> bool:
        if conn.closed:
            self._metrics.inc("server.sends.dropped")
            return False
        try:
            data = encode_frame(frame, self.config.max_frame_bytes)
        except FrameError:
            # An oversized reply must not poison the stream; the
            # requester times out instead of decoding garbage.
            self._metrics.inc("server.sends.oversized")
            return False
        return await self._write(conn, data)

    async def _write(self, conn: _Connection, data: bytes) -> bool:
        """One ``write`` + ``drain`` of already-encoded frames."""
        try:
            async with conn.lock:
                conn.writer.write(data)
                await conn.writer.drain()
        except (ConnectionError, OSError):
            self._metrics.inc("server.sends.dropped")
            conn.closed = True
            return False
        return True

    # -- the consumer -------------------------------------------------

    async def _serve(self) -> None:
        while True:
            item = await self._queue.get()
            if item is _STOP:
                break
            await self._handle_command(item)

    async def _handle_command(self, item) -> None:
        conn, frame, deadline, enqueued_ns = item
        conn.inflight -= 1
        req_id, op = frame["id"], frame["op"]
        waited_ns = perf_counter_ns() - enqueued_ns
        self._metrics.observe("server.queue_wait_ns", waited_ns)
        if deadline is not None and self._clock() > deadline:
            self._metrics.inc("server.timeouts")
            await self._send(conn, error_reply(
                req_id, TIMEOUT,
                f"request {req_id} ({op}) waited past its deadline "
                f"in the command queue and was dropped unexecuted"))
            return
        if conn.closed:
            # The submitter vanished before its turn.  Executing would
            # change state no client was ever told about, breaking the
            # acknowledged-commands-only oracle; drop instead.
            self._metrics.inc("server.dropped.disconnected")
            return
        started = perf_counter_ns()
        try:
            result, order = self._execute(conn, op, frame["args"])
        except RecoveryError as error:
            self._metrics.inc("server.internal_errors")
            reply = error_reply(req_id, INTERNAL, str(error))
        except ReproError as error:
            self._metrics.inc("server.invalid_requests")
            reply = error_reply(req_id, INVALID, str(error))
        except Exception as error:
            self._metrics.inc("server.internal_errors")
            reply = error_reply(
                req_id, INTERNAL,
                f"{type(error).__name__}: {error}")
        else:
            self._metrics.inc("server.replies")
            reply = ok_reply(req_id, result, order)
        tracer = TRACER
        if tracer.enabled:
            tracer.record("server.request", started, None, op=op,
                          queue_ns=waited_ns)
        await self._send(conn, reply)
        await self._flush_events()

    def _execute(self, conn: _Connection, op: str, args: dict):
        """Run one command against the service; returns ``(result,
        order)`` where ``order`` is None for read-only ops."""
        if op == "ping":
            return {"pong": True, "draining": self._draining}, None
        if op == "pending":
            return {"ids": self.service.pending_ids()}, None
        if op == "metrics":
            return self.metrics_snapshot(), None
        if op == "resolved":
            answers, failures = self._resolved_maps()
            return {"answers": _sorted_pairs(answers),
                    "failures": _sorted_pairs(failures)}, None
        assert op in ORDERED_OPS, op
        self._order += 1
        order = self._order
        if op == "submit":
            return self._do_submit(conn, args), order
        if op == "run_batch":
            return {"answered": self.service.run_batch()}, order
        if op == "expire":
            return {"expired": self.service.expire_stale()}, order
        return {"counts": self.service.apply_mutations(
            normalize_mutations(args))}, order

    def _do_submit(self, conn: _Connection, args: dict) -> dict:
        payloads = args.get("queries")
        if not isinstance(payloads, list) or not payloads:
            raise ValidationError(
                "submit args need a non-empty 'queries' list")
        queries = decode_queries(payloads)
        ids = [query.query_id for query in queries]
        # Register ownership before submitting: in incremental mode a
        # ticket can settle inside submit_many, and its event must
        # find the owner.  Roll back on failure, but for what the
        # service adopted before it raised (a drain that failed): those
        # ids stay pending, and their settlements still find the owner.
        previous = {qid: self._owners[qid]
                    for qid in ids if qid in self._owners}
        for qid in ids:
            self._owners[qid] = conn
        try:
            self.service.submit_many(queries)
        except BaseException:
            adopted = set(self.service.pending_ids())
            for qid in ids:
                if qid in previous:
                    self._owners[qid] = previous[qid]
                elif qid not in adopted:
                    self._owners.pop(qid, None)
            raise
        return {"ids": ids}

    # -- settlement routing -------------------------------------------

    def _on_settle(self, ticket) -> None:
        query_id = ticket.query_id
        conn = self._owners.pop(query_id, None)
        if ticket.state is TicketState.ANSWERED:
            payload = to_payload(ticket.answer)
            self._answers[query_id] = payload
            self._failures.pop(query_id, None)
            frame = event_frame("answered", query_id, payload)
        else:
            reason = ticket.failure_reason.value
            self._failures[query_id] = reason
            frame = event_frame("failed", query_id, reason)
        if conn is None or conn.closed:
            self._metrics.inc("server.events.dropped")
            return
        self._event_backlog.setdefault(conn, []).append(frame)

    async def _flush_events(self) -> None:
        """Push every backlogged settlement, one write per connection
        (a command settles tens of tickets; a write each is a syscall
        and a ``drain()`` each).  An event too large to frame is
        dropped alone; its neighbours are still delivered, in
        settlement order."""
        if not self._event_backlog:
            return
        backlog, self._event_backlog = self._event_backlog, {}
        limit = self.config.max_frame_bytes
        for conn, frames in backlog.items():
            if conn.closed:
                self._metrics.inc("server.events.dropped",
                                  len(frames))
                continue
            encoded = []
            for frame in frames:
                try:
                    encoded.append(encode_frame(frame, limit))
                except FrameError:
                    self._metrics.inc("server.sends.oversized")
                    self._metrics.inc("server.events.dropped")
            if not encoded:
                continue
            if await self._write(conn, b"".join(encoded)):
                self._metrics.inc("server.events.sent", len(encoded))
            else:
                self._metrics.inc("server.events.dropped",
                                  len(encoded))

    def _resolved_maps(self) -> tuple:
        """Settled outcomes, joined with the durable service's maps so
        answers recorded before a crash survive into the next server
        generation.  A later answer overrides an earlier stale
        failure (expired queries are retryable)."""
        answers = dict(getattr(self.service, "answers", None) or {})
        answers.update(self._answers)
        failures = dict(getattr(self.service, "failures", None) or {})
        failures.update(self._failures)
        for query_id in answers:
            failures.pop(query_id, None)
        return answers, failures

    # -- introspection ------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """The service's metrics merged with the ``server.*`` layer —
        its counters and histograms, and live gauges: open
        connections, queue depth, the last ``order`` stamped,
        draining (1/0), and the answers and failures settled this
        generation — and two readings of the hosting process's
        collector: what was frozen when the server started (``repro
        serve`` freezes its boot heap) and the full collections run so
        far.  Read-only — the server never configures the collector."""
        metrics = self._metrics
        metrics.gauge("process.gc.full_collections",
                      gc.get_stats()[2]["collections"])
        metrics.gauge("server.connections.live", len(self._connections))
        metrics.gauge("server.queued", self._queue.qsize())
        metrics.gauge("server.order", self._order)
        metrics.gauge("server.draining", self._draining)
        metrics.gauge("server.answers", len(self._answers))
        metrics.gauge("server.failures", len(self._failures))
        return merge_snapshots(self.service.metrics_snapshot(),
                               metrics.snapshot())


def _sorted_pairs(mapping: dict) -> list:
    return [[key, mapping[key]]
            for key in sorted(mapping, key=lambda k: (str(type(k)),
                                                      str(k)))]
