"""The append-only write-ahead log: CRC-framed records, batched fsync.

One :class:`WriteAheadLog` owns one log segment (a single file).  Every
append writes its record to the OS immediately — a ``write`` that
returned survives ``kill -9`` of the process, which is the failure the
crash-recovery battery injects — while ``fsync`` (needed only against
machine/power failure) is batched every *sync_every* records, which is
what keeps the journal's share of an epoch small (the ledger's
``durability.journal_overhead_pct``).
The record format is :func:`repro.dataio.frame_record`; reading back
uses :func:`repro.dataio.unframe_records`, which stops cleanly at a
torn tail instead of raising.
"""

from __future__ import annotations

import os
from pathlib import Path

from ..dataio import frame_body, frame_record, unframe_records


class WriteAheadLog:
    """One append-only log segment of durable records.

    Args:
        path: the segment file (created empty if absent).
        sync_every: fsync after this many appended records (0 or None
            disables periodic fsync; :meth:`sync` and :meth:`close`
            still flush explicitly).
    """

    def __init__(self, path: str | Path, sync_every: int | None = 8):
        self.path = Path(path)
        self.sync_every = sync_every or 0
        self._file = open(self.path, "ab")
        self._since_sync = 0
        self.records_appended = 0
        #: Bytes appended through this object (excludes pre-existing
        #: segment contents) — the size-based snapshot trigger reads
        #: this instead of stat()ing the file per command.
        self.bytes_appended = 0
        self.syncs = 0

    def append(self, payload: dict) -> None:
        """Append one record; it reaches the OS before this returns.

        The frame is written in a single ``write`` call so a process
        killed between appends never leaves a half-record behind it —
        torn records come only from machine crashes, and the CRC
        framing confines those to the tail.
        """
        self._write_framed(frame_record(payload))

    def append_body(self, body: bytes) -> None:
        """Append one record from already-serialized JSON body bytes.

        Same durability contract as :meth:`append`; used by the
        journal's command path, which serializes its frame exactly
        once (see :func:`repro.dataio.frame_body`).
        """
        self._write_framed(frame_body(body))

    def _write_framed(self, framed: bytes) -> None:
        self._file.write(framed)
        self._file.flush()
        self.records_appended += 1
        self.bytes_appended += len(framed)
        self._since_sync += 1
        if self.sync_every and self._since_sync >= self.sync_every:
            self.sync()

    def sync(self) -> None:
        """Flush and fsync the segment (durable against power loss)."""
        self._file.flush()
        os.fsync(self._file.fileno())
        self._since_sync = 0
        self.syncs += 1

    def abandon(self) -> None:
        """Release the segment without writing another byte.

        A failed append can leave its frame in the write buffer; the
        flush a :meth:`close` does would land it after its caller was
        told the append failed.  Closing the raw file first turns the
        buffered close into a no-op.
        """
        self._file.raw.close()
        self._file.close()

    def close(self) -> None:
        """Sync and close the segment (idempotent)."""
        if self._file.closed:
            return
        self.sync()
        self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_log(path: str | Path) -> tuple[list[dict], bool]:
    """Read a log segment; returns ``(records, clean)``.

    *clean* is False when the segment ends in a torn or corrupt record
    (which the records list simply omits — the crash-recovery contract
    treats an unreadable final record as a command that never
    happened).  A missing file reads as an empty, clean log: a crash
    between publishing a snapshot and the first append of its segment
    leaves exactly that state behind.
    """
    path = Path(path)
    if not path.exists():
        return [], True
    data = path.read_bytes()
    records, consumed = unframe_records(data)
    return records, consumed == len(data)
