"""The server's stream protocol: the message vocabulary.

Frames travel in the one self-checking envelope the durable log uses —
``<length:u32><crc32:u32><utf-8 JSON>``, implemented once in
:mod:`repro.dataio` and re-exported here: :func:`encode_frame` is
:func:`~repro.dataio.frame_record` plus the connection's size limit,
and :class:`FrameDecoder` runs the log reader's scan loop
*incrementally* — feed it whatever the socket produced (half a header,
three coalesced frames, one byte at a time) and it yields every
complete payload while buffering the rest.  The two readers differ
only in stop policy: the WAL reads a torn tail as a clean end-of-log,
while a stream has no legitimate torn state, so a CRC mismatch or
undecodable body raises :class:`FrameError` (the server replies with a
typed ``reject`` and closes).

Every frame is a dict stamped ``proto = PROTOCOL_VERSION``; queries
and answers embedded inside requests/events additionally carry their
own ``wire`` stamp (:data:`repro.dataio.WIRE_VERSION`), so the one
connection fails loudly on either kind of revision mismatch.

Frame kinds
-----------

========== ============================================================
``hello``  first client frame: ``tenant`` (admission bucket key)
``welcome`` server's answer to hello: negotiated limits
``reject`` connection-fatal protocol error; the server closes after it
``req``    ``{"id": n, "op": ..., "args": {...}}``; ids are
           per-connection, strictly increasing
``rep``    ``{"id": n, "status": "ok"|"err", ...}``; ok replies carry
           ``result`` and, for state-changing ops, the global
           ``order`` the command executed at (the oracle-replay key)
``evt``    a settlement pushed to the connection that submitted the
           query: ``{"event": "answered"|"failed", "query": id,
           "payload": ...}``
========== ============================================================

Typed error codes (``rep``/``reject`` frames):

============== ========================================================
``OVERLOADED``     admission shed the request (token bucket empty,
                   in-flight window full, or command queue full) —
                   a reply, never a hang; retry with backoff
``TIMEOUT``        the request waited in the command queue past its
                   deadline and was dropped unexecuted
``SHUTTING_DOWN``  the server is draining; finish-in-flight only
``BAD_FRAME``      protocol-level garbage: unknown ``proto`` version,
                   oversized frame, corrupt envelope, non-request kind
``INVALID``        a well-formed request the command layer refused
                   (unknown op, bad payload, duplicate query id)
``INTERNAL``       the command raised unexpectedly; message carries it
============== ========================================================
"""

from __future__ import annotations

# The envelope names are re-exported: clients, the server and the test
# batteries import them from here (and from the package).
from ..dataio import (MAX_FRAME_BYTES, WIRE_VERSION,  # noqa: F401
                      FrameDecoder, FrameError, FrameOversizeError,
                      encode_frame)
from ..errors import ReproError

#: Version stamp of the server stream protocol; bump on changes to the
#: frame vocabulary so mixed client/server revisions fail loudly.
PROTOCOL_VERSION = 1

#: The typed error vocabulary (see the module docstring).
OVERLOADED = "OVERLOADED"
TIMEOUT = "TIMEOUT"
SHUTTING_DOWN = "SHUTTING_DOWN"
BAD_FRAME = "BAD_FRAME"
INVALID = "INVALID"
INTERNAL = "INTERNAL"

ERROR_CODES = (OVERLOADED, TIMEOUT, SHUTTING_DOWN, BAD_FRAME, INVALID,
               INTERNAL)

#: Ops whose ok replies carry the global execution ``order`` — the
#: commands that change engine state, i.e. exactly the ones an oracle
#: replay must reproduce in order.
ORDERED_OPS = ("submit", "run_batch", "expire", "mutate")

#: The full request vocabulary the server understands.
REQUEST_OPS = ORDERED_OPS + ("pending", "metrics", "resolved", "ping")


class ServerError(ReproError):
    """Base class of client-visible server failures; ``code`` is the
    typed error code the reply carried."""

    code = INTERNAL

    def __init__(self, message: str, code: str | None = None):
        if code is not None:
            self.code = code
        super().__init__(message)


class ServerOverloadedError(ServerError):
    """Admission control shed the request (typed ``OVERLOADED``)."""

    code = OVERLOADED


class ServerTimeoutError(ServerError):
    """The request timed out in the server's command queue."""

    code = TIMEOUT


class ServerShuttingDownError(ServerError):
    """The server is draining and takes no new work."""

    code = SHUTTING_DOWN


class ServerProtocolError(ServerError):
    """The server rejected the connection's protocol usage."""

    code = BAD_FRAME


class ServerCommandError(ServerError):
    """The command layer refused or failed the request."""

    code = INVALID


class ServerDisconnectedError(ServerError):
    """The connection dropped with requests or tickets outstanding."""

    code = INTERNAL


#: code -> exception class, for the client to raise typed errors.
_ERROR_TYPES = {
    OVERLOADED: ServerOverloadedError,
    TIMEOUT: ServerTimeoutError,
    SHUTTING_DOWN: ServerShuttingDownError,
    BAD_FRAME: ServerProtocolError,
    INVALID: ServerCommandError,
    INTERNAL: ServerCommandError,
}


def error_for(code: str, message: str) -> ServerError:
    """The typed exception an error reply stands for."""
    return _ERROR_TYPES.get(code, ServerError)(message, code=code)


# ----------------------------------------------------------------------
# message constructors / validators
# ----------------------------------------------------------------------


def hello_frame(tenant: str, client: str = "repro") -> dict:
    return {"proto": PROTOCOL_VERSION, "kind": "hello",
            "tenant": tenant, "client": client}


def welcome_frame(window: int, queue_limit: int,
                  max_frame: int) -> dict:
    return {"proto": PROTOCOL_VERSION, "kind": "welcome",
            "server": "repro", "wire": WIRE_VERSION,
            "window": window, "queue": queue_limit,
            "max_frame": max_frame}


def reject_frame(code: str, message: str) -> dict:
    return {"proto": PROTOCOL_VERSION, "kind": "reject",
            "code": code, "message": message}


def request_frame(req_id: int, op: str, args: dict) -> dict:
    return {"proto": PROTOCOL_VERSION, "kind": "req", "id": req_id,
            "op": op, "args": args}


def ok_reply(req_id: int, result, order: int | None = None) -> dict:
    frame = {"proto": PROTOCOL_VERSION, "kind": "rep", "id": req_id,
             "status": "ok", "result": result}
    if order is not None:
        frame["order"] = order
    return frame


def error_reply(req_id: int, code: str, message: str) -> dict:
    return {"proto": PROTOCOL_VERSION, "kind": "rep", "id": req_id,
            "status": "err", "code": code, "message": message}


def event_frame(event: str, query_id, payload) -> dict:
    return {"proto": PROTOCOL_VERSION, "kind": "evt", "event": event,
            "query": query_id, "payload": payload}


def check_proto(frame: dict) -> str | None:
    """The reason *frame* is protocol-garbage, or None when it is
    acceptable envelope-wise (kind/op checks happen later)."""
    proto = frame.get("proto")
    if proto != PROTOCOL_VERSION:
        return (f"unknown protocol version {proto!r} (this server "
                f"speaks {PROTOCOL_VERSION})")
    if not isinstance(frame.get("kind"), str):
        return "frame lacks a string 'kind'"
    return None


def check_request(frame: dict) -> str | None:
    """The reason *frame* is not a well-formed request, or None."""
    if frame.get("kind") != "req":
        return f"expected a 'req' frame, got {frame.get('kind')!r}"
    req_id = frame.get("id")
    if not isinstance(req_id, int) or req_id <= 0:
        return f"request id must be a positive int, got {req_id!r}"
    if not isinstance(frame.get("args"), dict):
        return "request 'args' must be an object"
    op = frame.get("op")
    if op not in REQUEST_OPS:
        return (f"unknown op {op!r}; this server speaks "
                f"{', '.join(REQUEST_OPS)}")
    return None
