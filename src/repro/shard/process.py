"""Shard workers in their own processes, behind a pipelined wire protocol.

A worker process is a fault-containment boundary: a shard that dies
takes only its own engine down, and the coordinator re-homes its
components from its own records.  It is not a speed-up — over the
ledger's ``sharded_rounds`` a 2-shard fleet costs about 2.6× one
engine's wall time (README, "Sharding is fault containment").
:class:`ProcessBackend` runs one :class:`~repro.shard.backend.ShardHost`
— the same command bodies the in-process transport runs — per spawned
worker process, and speaks a **correlation-ID** command protocol over
a pipe:

* requests are ``(req_id, op, args)`` frames with a per-connection
  monotonically increasing ``req_id``;
* replies are ``(req_id, status, result, events)`` frames;
* several requests may be in flight at once (bounded by
  :attr:`ProcessBackend.window`), so coordinator fan-outs — a
  ``call_*`` issued on every shard before any ``result()`` is
  collected: sub-block ingests, rounds, expiry sweeps,
  partner-discovery lookups, migration exchanges, stats snapshots —
  overlap across shards instead of serializing on round trips.

The worker executes commands strictly in send order (one host, one
loop), so replies actually come back in order too — but the frame
format never relies on it, and the coordinator side buffers replies by
``req_id``.  Settlement **events** ride on the reply of the command
that produced them and are decoded the moment the frame is read off
the pipe (never when the caller happens to collect that command's
result), so draining stays in worker execution order no matter how
replies interleave with other in-flight calls.

Two layers cross the boundary, and only one of them is ours.  The
payload *trees* inside a frame — settled answers, the pending records a
``submit_block`` or an ``import`` carries
(:func:`repro.dataio.record_to_payload`), ``db_delta`` blocks — are
dicts, lists, and scalars in the stable
:mod:`repro.dataio` wire format (:func:`~repro.dataio.to_payload` /
:func:`~repro.dataio.from_payload`), so no live object and no class
identity travels; a codec at each frame edge (``_encode_args`` /
``_decode_args``, ``_encode_events`` / ``_decode_events``) converts
between them and the live objects the host's commands take, keyed on
arg names, never on op names.  The frame *envelope* is
``Connection.send`` — a pickled tuple, delimited by the kernel —
deliberately not
:func:`repro.dataio.frame_record`: the pipe is a trusted channel
between two processes of one revision, where a CRC detects nothing the
kernel does not already guarantee, and pickle is the cheaper carrier of
an already-plain tree (a 60-record ``submit_block`` frame is 15.0 KB
pickled against 19.5 KB through ``frame_record`` /
``unframe_records``, and a 32-answer reply encodes / decodes in
12 / 20 µs against 62 / 34 µs; the envelope costs about +0.3 ms per
round per shard for nothing — timings in EXPERIMENTS.md).

Workers are started with the ``spawn`` method: the coordinator's
process may be running threads (forking one is lock-roulette), and
spawn gives each worker a clean interpreter that rebuilds its database
from :func:`repro.dataio.dump_database` text — a *replica* of the
coordinator's primary, pinned to the primary's ``db_version`` at
start-up and kept current by versioned ``db_delta`` frames (the worker
acks each block's resulting version, skips already-applied replays,
and refuses gapped blocks with a ``stale replica`` error, after which
the coordinator removes it).  A broken pipe or a closed connection
raises :class:`~repro.shard.backend.ShardLostError`.  The host's clock
is pinned to the coordinator's ``now`` exactly as in-process, so the
process fleet behaves byte-identically to in-process shards.
"""

from __future__ import annotations

import itertools
import os
import time
import traceback
import warnings
from typing import Sequence

from ..core.evaluate import FailureReason
from ..engine.staleness import NeverStale, StalenessPolicy, \
    TimeoutStaleness
from ..obs.trace import TRACER, set_tracing
from .backend import (ShardBackend, ShardCall, ShardHost,
                      ShardLostError, ShardWorkerError)

#: ``req_id`` of the worker's one unsolicited frame: the readiness
#: handshake sent after the database rebuild.
READY_REQ_ID = 0


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


def _start_host(config: dict) -> ShardHost:
    """The worker's host, over a replica rebuilt from the coordinator's
    database text."""
    from ..dataio import load_database
    if config.get("tracing"):
        # Worker-side lifecycle tracing: spans are buffered here and
        # shipped to the coordinator piggybacked on reply frames (see
        # _worker_main), tagged with this shard's site.
        set_tracing(True, site=f"shard{config.get('shard_index', '?')}")
    # Popped, not read: the worker keeps *config* alive for its whole
    # life, and the text is dead weight once the replica is built.
    database = load_database(config.pop("database_text"))
    for spec in config.get("warm_indexes", ()):
        database.table(spec[0]).index_on(tuple(spec[1]))
    # The rebuild replayed every row insert, so the replica's mutation
    # counter disagrees with the primary's; pin it so replicated
    # db_delta frames line up from the first block.
    database.reset_db_version(config.get("db_version", 0))
    return ShardHost(database, dict(
        config["engine"],
        staleness=staleness_from_spec(config["staleness"])))


# -- the frame-edge codec ----------------------------------------------
#
# Commands take and return live objects on both transports; only these
# four functions know that a pipe sits between coordinator and host.
# They key on arg names, never on op names: ``records`` (a submit
# block's or an import's) is the only live argument, answers and
# failure reasons the only live event payloads.


def _encode_args(args: dict) -> dict:
    from ..dataio import record_to_payload
    if "records" in args:
        args["records"] = [record_to_payload(record)
                           for record in args["records"]]
    return args


def _decode_args(args: dict) -> dict:
    from ..dataio import decode_records
    if "records" in args:
        args["records"] = decode_records(args["records"])
    return args


def _encode_events(events: list) -> list:
    """A reply's events as wire payloads, plus any buffered trace
    spans as one ``("spans", None, payloads)`` pseudo-event (the
    coordinator's frame pump imports it into its own tracer instead of
    treating it as a settlement; one flag check when tracing is off)."""
    from ..dataio import to_payload
    encoded = [(kind, query_id,
                to_payload(outcome) if kind == "answered" else outcome.value)
               for kind, query_id, outcome in events]
    if TRACER.enabled and len(TRACER):
        encoded.append(("spans", None, TRACER.drain_payloads()))
    return encoded


def _decode_events(events: list) -> list:
    from ..dataio import from_payload
    decoded = []
    for kind, query_id, payload in events:
        if kind == "answered":
            decoded.append((kind, query_id, from_payload(payload)))
        elif kind == "spans":
            # Worker-side trace spans riding the reply: stitch them into
            # the coordinator's buffer (they keep their shard site tag)
            # — never a settlement event.
            TRACER.import_payloads(payload)
        else:
            decoded.append((kind, query_id, FailureReason(payload)))
    return decoded


def _worker_main(connection, config: dict) -> None:
    """Entry point of a shard worker process (spawned)."""
    try:
        host = _start_host(config)
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
            # The transport's own control frame, not a host command.
            connection.send((req_id, "ok", None, []))
            break
        try:
            result = host.execute(op, _decode_args(args))
        except BaseException:  # lint: allow-swallow(traceback is shipped to the coordinator in the err reply)
            # Settlements that fired before the failure still ship —
            # withholding them would desynchronize the coordinator's
            # tickets from the engine (the coordinator applies events
            # from error replies before raising).
            connection.send((req_id, "err", traceback.format_exc(),
                             _encode_events(host.drain_events())))
            continue
        connection.send((req_id, "ok", result,
                         _encode_events(host.drain_events())))
    connection.close()


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------


class ProcessBackend(ShardBackend):
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
            raise ShardLostError(
                f"shard {self.shard_index} worker died "
                f"(connection lost: {error!r})") from error

    def _send(self, op: str, args: dict) -> int:
        if self._closed:
            raise ShardWorkerError(
                f"shard {self.shard_index} is closed")
        self.ensure_ready()
        while len(self._inflight) >= self.window:
            self._pump_one()
        req_id = next(self._req_ids)
        try:
            self._connection.send((req_id, op, args))
        except OSError as error:
            raise ShardLostError(
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
        self._events.extend(_decode_events(events))
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
        if status != "ok":
            raise ShardWorkerError(
                f"shard {self.shard_index} failed {op!r}:\n{result}")
        return result

    def _dispatch(self, op: str, **args) -> ShardCall:
        # Encoding failures, like send failures, surface at result().
        try:
            req_id = self._send(op, _encode_args(args))
        except Exception as error:
            return ShardCall.failed(error)
        return ShardCall(lambda: self._wait(req_id))

    def drain_events(self) -> list[tuple]:
        events, self._events = self._events, []
        return events

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
