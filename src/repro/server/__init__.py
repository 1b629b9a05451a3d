"""Network-facing coordination server (the service's front door).

The sharded service of :mod:`repro.shard` and the durable wrappers of
:mod:`repro.durability` live behind in-process calls; this package
lifts the same versioned wire format onto real sockets so many
concurrent client connections can submit entangled queries, stream
settlement events, and mutate tables against one shared engine, fleet,
or durable coordinator.

* :mod:`repro.server.protocol` — the stream frame codec (the WAL's
  ``<length, crc32, JSON>`` envelope made incremental) and the typed
  request/reply/event vocabulary, including the typed error codes
  (``OVERLOADED``, ``TIMEOUT``, ``SHUTTING_DOWN``, …) that make load
  shedding a reply instead of a hang.
* :mod:`repro.server.admission` — per-tenant token buckets and the
  bounded per-connection in-flight windows (EMBANKS-style decoupling
  of arrival bursts from serving).
* :mod:`repro.server.server` — :class:`CoordinationServer`: asyncio
  TCP + unix-socket listeners, one serialized command queue (global
  admission order *is* the engine's arrival order), graceful drain,
  and ``server.*`` metrics merged into ``metrics_snapshot()``.
* :mod:`repro.server.client` — :class:`ServerClient`, the async
  client library the CLI (``repro connect``) and the test batteries
  drive.
"""

from .admission import AdmissionController, TokenBucket
from .client import RemoteTicket, ServerClient
from .protocol import (ERROR_CODES, PROTOCOL_VERSION, FrameDecoder,
                       FrameError, FrameOversizeError, ServerError,
                       ServerCommandError, ServerDisconnectedError,
                       ServerOverloadedError, ServerProtocolError,
                       ServerShuttingDownError, ServerTimeoutError,
                       encode_frame, error_for)
from .server import (CoordinationServer, ServerAddressInUseError,
                     ServerConfig)

__all__ = [
    "AdmissionController", "TokenBucket", "RemoteTicket",
    "ServerClient", "ERROR_CODES", "PROTOCOL_VERSION", "FrameDecoder",
    "FrameError", "FrameOversizeError", "ServerError",
    "ServerCommandError", "ServerDisconnectedError",
    "ServerOverloadedError", "ServerProtocolError",
    "ServerShuttingDownError", "ServerTimeoutError", "encode_frame",
    "error_for", "CoordinationServer", "ServerAddressInUseError",
    "ServerConfig",
]
