"""Async client library for the coordination server.

:class:`ServerClient` owns one socket (TCP or unix), performs the
hello/welcome handshake, and multiplexes request/reply pairs by
correlation id while a background reader task routes pushed ``evt``
frames to the :class:`RemoteTicket` of the query they settle — the
wire twin of :class:`repro.engine.futures.CoordinationTicket`.

Error replies raise the typed exceptions of
:mod:`repro.server.protocol` (``ServerOverloadedError`` for a shed
request, ``ServerTimeoutError`` for a queue-deadline drop, …), so
backpressure is something a caller catches, not a hang it debugs.

The client records every acknowledged state-changing command in
:attr:`history` as ``(order, op, args)`` — ``order`` being the global
execution position stamped on the reply, and a submit's ``queries``
the objects (or payload dicts) exactly as handed to :meth:`submit`.
The fault battery merges the histories of all concurrent clients,
sorts by ``order``, and replays them into a fresh in-process engine to
prove the served answers byte-identical to the single-engine oracle.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from ..dataio import compact_json, render_query
from .protocol import (MAX_FRAME_BYTES, ORDERED_OPS, FrameDecoder,
                       FrameError, PROTOCOL_VERSION,
                       ServerDisconnectedError, ServerProtocolError,
                       check_proto, encode_frame, error_for,
                       hello_frame, request_frame)

_READ_CHUNK = 64 * 1024


class RemoteTicket:
    """Settlement future for one submitted query.

    ``answered`` tickets carry the answer *payload* (the wire dict of
    :func:`repro.dataio.to_payload`); ``failed`` tickets carry the
    failure reason string (e.g. ``"stale"``).  ``wait()`` returns the
    payload or raises :class:`ServerDisconnectedError` if the
    connection died first.  The ``asyncio.Event`` a waiter parks on
    is built only when someone awaits a pending ticket.
    """

    __slots__ = ("query_id", "state", "payload", "reason", "_event")

    def __init__(self, query_id):
        self.query_id = query_id
        self.state = "pending"
        self.payload = None
        self.reason: Optional[str] = None
        self._event: Optional[asyncio.Event] = None

    @property
    def settled(self) -> bool:
        return self.state != "pending"

    def _settle(self, state: str, payload, reason) -> None:
        if self.settled:
            return
        self.state = state
        self.payload = payload
        self.reason = reason
        if self._event is not None:
            self._event.set()

    async def wait(self, timeout: float | None = None):
        """Block until settled; returns the answer payload, or None
        for a failed settlement (check :attr:`reason`)."""
        if not self.settled:
            if self._event is None:
                self._event = asyncio.Event()
            if timeout is None:
                await self._event.wait()
            else:
                await asyncio.wait_for(self._event.wait(), timeout)
        if self.state == "lost":
            raise ServerDisconnectedError(
                f"connection closed with query {self.query_id!r} "
                f"still pending")
        return self.payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RemoteTicket {self.query_id!r} {self.state}>"


class ServerClient:
    """One connection to a :class:`CoordinationServer`."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, *,
                 tenant: str = "default",
                 max_frame_bytes: int = MAX_FRAME_BYTES):
        self._reader = reader
        self._writer = writer
        self.tenant = tenant
        self.max_frame_bytes = max_frame_bytes
        self.welcome: Optional[dict] = None
        #: (order, op, args) per acknowledged state-changing command.
        self.history: list = []
        #: every pushed event, in arrival order: (event, query_id,
        #: payload) — the battery's per-client settlement record.
        self.events: list = []
        self.tickets: dict = {}
        self._decoder = FrameDecoder(max_frame_bytes)
        self._waiters: dict = {}
        self._next_id = 0
        self._closed = False
        self._reader_task: Optional[asyncio.Task] = None

    # -- connecting ---------------------------------------------------

    @classmethod
    async def connect_tcp(cls, host: str, port: int, *,
                          tenant: str = "default") -> "ServerClient":
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer, tenant=tenant)
        await client._handshake()
        return client

    @classmethod
    async def connect_unix(cls, path, *,
                           tenant: str = "default") -> "ServerClient":
        reader, writer = await asyncio.open_unix_connection(path)
        client = cls(reader, writer, tenant=tenant)
        await client._handshake()
        return client

    async def _handshake(self) -> None:
        await self._write(hello_frame(self.tenant))
        while True:
            frames = await self._read_frames()
            if frames is None:
                raise ServerDisconnectedError(
                    "connection closed during the handshake")
            for frame in frames:
                reason = check_proto(frame)
                if reason is not None:
                    raise ServerProtocolError(reason)
                kind = frame["kind"]
                if kind == "reject":
                    raise error_for(frame.get("code", ""),
                                    frame.get("message", "rejected"))
                if kind != "welcome":
                    raise ServerProtocolError(
                        f"expected a welcome frame, got {kind!r}")
                self.welcome = frame
                self._reader_task = asyncio.create_task(
                    self._read_loop())
                return

    async def _read_frames(self):
        data = await self._reader.read(_READ_CHUNK)
        if not data:
            return None
        return self._decoder.feed(data)

    # -- the reader task ----------------------------------------------

    async def _read_loop(self) -> None:
        failure: Optional[Exception] = None
        try:
            while True:
                frames = await self._read_frames()
                if frames is None:
                    break
                for frame in frames:
                    self._route(frame)
        except FrameError as error:
            for frame in error.frames:
                self._route(frame)
            failure = error
        except (ConnectionError, TimeoutError, OSError) as error:
            failure = error
        finally:
            self._fail_pending(failure)

    def _route(self, frame: dict) -> None:
        kind = frame.get("kind")
        if kind == "rep":
            waiter = self._waiters.pop(frame.get("id"), None)
            if waiter is not None and not waiter.done():
                waiter.set_result(frame)
            return
        if kind == "evt":
            event = frame.get("event")
            query_id = frame.get("query")
            payload = frame.get("payload")
            self.events.append((event, query_id, payload))
            ticket = self.tickets.get(query_id)
            if ticket is not None:
                if event == "answered":
                    ticket._settle("answered", payload, None)
                else:
                    ticket._settle("failed", None, payload)
            return
        if kind == "reject":
            self._fail_pending(error_for(
                frame.get("code", ""),
                frame.get("message", "rejected")))

    def _fail_pending(self, failure: Optional[Exception]) -> None:
        self._closed = True
        error = failure if isinstance(failure, Exception) else None
        for waiter in self._waiters.values():
            if not waiter.done():
                waiter.set_exception(
                    error or ServerDisconnectedError(
                        "connection closed with requests in flight"))
        self._waiters.clear()
        for ticket in self.tickets.values():
            ticket._settle("lost", None, "disconnected")

    # -- requests -----------------------------------------------------

    async def _write(self, frame: dict) -> None:
        data = encode_frame(frame, self.max_frame_bytes)
        self._writer.write(data)
        await self._writer.drain()

    async def request(self, op: str, args: dict | None = None, *,
                      timeout: float | None = None) -> dict:
        """Send one request; returns the reply's ``result``.

        Error replies raise the typed :class:`ServerError` for their
        code.  *timeout* bounds the client-side wait (raises
        ``TimeoutError``); the server's own queue deadline produces a
        typed ``ServerTimeoutError`` instead.
        """
        args = args or {}
        return await self._exchange(
            op, args, lambda req_id: request_frame(req_id, op, args),
            timeout)

    async def _exchange(self, op: str, args: dict, frame,
                        timeout: float | None):
        """One request/reply round trip: *frame* renders the request
        (a payload dict or its JSON text) for the id it is given;
        *args* is what :attr:`history` records."""
        if self._closed:
            raise ServerDisconnectedError("client is closed")
        self._next_id += 1
        req_id = self._next_id
        data = encode_frame(frame(req_id), self.max_frame_bytes)
        waiter = asyncio.get_running_loop().create_future()
        self._waiters[req_id] = waiter
        self._writer.write(data)
        await self._writer.drain()
        try:
            if timeout is None:
                reply = await waiter
            else:
                reply = await asyncio.wait_for(waiter, timeout)
        finally:
            self._waiters.pop(req_id, None)
        if reply.get("status") != "ok":
            raise error_for(reply.get("code", ""),
                            reply.get("message", "request failed"))
        order = reply.get("order")
        if op in ORDERED_OPS and order is not None:
            self.history.append((order, op, args))
        return reply.get("result")

    async def submit(self, queries, *,
                     timeout: float | None = None) -> list:
        """Submit queries (objects or wire payloads); returns their
        :class:`RemoteTicket`\\ s, registered before the request goes
        out so no settlement event can race past them.

        Query objects are rendered straight into the request frame
        (:func:`repro.dataio.render_query`, the same bytes as their
        payloads); :attr:`history` records the queries as submitted.
        """
        queries = list(queries)
        items = ",".join([
            compact_json(query) if isinstance(query, dict)
            else render_query(query) for query in queries])
        ids = [query.get("id") if isinstance(query, dict)
               else query.query_id for query in queries]

        def frame(req_id: int) -> str:
            # ``request_frame``'s bytes with the rendered array spliced
            # into its empty args: the text ends ``"args":{}}``.
            head = compact_json(request_frame(req_id, "submit", {}))
            return f'{head[:-2]}"queries":[{items}]}}}}'

        fresh = []
        for query_id in ids:
            ticket = self.tickets.get(query_id)
            if ticket is None or ticket.settled:
                ticket = self.tickets[query_id] = \
                    RemoteTicket(query_id)
                fresh.append(query_id)
        try:
            await self._exchange("submit", {"queries": queries}, frame,
                                 timeout)
        except BaseException:
            for query_id in fresh:
                self.tickets.pop(query_id, None)
            raise
        return [self.tickets[query_id] for query_id in ids]

    async def run_batch(self, *, timeout: float | None = None) -> int:
        result = await self.request("run_batch", timeout=timeout)
        return result["answered"]

    async def expire(self, *, timeout: float | None = None) -> int:
        result = await self.request("expire", timeout=timeout)
        return result["expired"]

    async def mutate(self, operations, *,
                     timeout: float | None = None) -> list:
        ops = [[kind, table, [list(row) for row in rows]]
               for kind, table, rows in operations]
        result = await self.request("mutate", {"ops": ops},
                                    timeout=timeout)
        return result["counts"]

    async def pending(self, *,
                      timeout: float | None = None) -> list:
        result = await self.request("pending", timeout=timeout)
        return result["ids"]

    async def metrics(self, *, timeout: float | None = None) -> dict:
        return await self.request("metrics", timeout=timeout)

    async def resolved(self, *,
                       timeout: float | None = None) -> dict:
        return await self.request("resolved", timeout=timeout)

    async def ping(self, *, timeout: float | None = None) -> dict:
        return await self.request("ping", timeout=timeout)

    # -- lifecycle ----------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    async def close(self) -> None:
        """Close the socket and settle any still-pending state."""
        if not self._closed:
            self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass  # lint: allow-swallow(closing a dead socket)
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass  # lint: allow-swallow(own cancellation)
            self._reader_task = None
        self._fail_pending(None)

    async def __aenter__(self) -> "ServerClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
