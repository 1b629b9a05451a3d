"""Snapshot generations: the durable directory layout and truncation.

A WAL directory holds numbered *generations*; generation ``g`` is one
snapshot file plus one log segment::

    snapshot-000003.json      state at the moment the generation began
    wal-000003.log            commands applied since that snapshot

The snapshot file is a single CRC frame (:func:`repro.dataio.
frame_record`) wrapping a ``wal_snapshot`` payload, published
atomically: written to a temp file, fsynced, then renamed into place
(with a directory fsync), so a crash leaves either the old generation
set or the new one — never a half-written snapshot under the final
name.  Older generations are pruned only after the new snapshot is
durable; that deferred deletion is what lets the log be truncated
without ever passing through a state where no complete generation
exists.  Recovery scans generations newest-first and boots from the
first one whose snapshot frame verifies.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

from ..dataio import WIRE_VERSION, frame_record, unframe_records
from ..errors import RecoveryError
from .wal import WriteAheadLog, read_log

_SNAPSHOT_NAME = re.compile(r"^snapshot-(\d{6})\.json$")


class SnapshotStore:
    """The generation-numbered layout of one WAL directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- layout --------------------------------------------------------

    def snapshot_path(self, generation: int) -> Path:
        return self.root / f"snapshot-{generation:06d}.json"

    def log_path(self, generation: int) -> Path:
        return self.root / f"wal-{generation:06d}.log"

    def generations(self) -> list[int]:
        """Generation numbers present, ascending (snapshot-file
        presence defines existence — a log segment alone is an orphan
        from an interrupted prune and is ignored)."""
        found = []
        for entry in self.root.iterdir():
            match = _SNAPSHOT_NAME.match(entry.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def has_state(self) -> bool:
        """True when any generation exists (use ``recover``, not a
        fresh construction, against this directory)."""
        return bool(self.generations())

    # -- snapshots -----------------------------------------------------

    def write_snapshot(self, generation: int, commands: int,
                       state: dict) -> int:
        """Publish a snapshot atomically (temp + fsync + rename);
        returns the byte length of the published frame."""
        payload = {"wire": WIRE_VERSION, "kind": "wal_snapshot",
                   "generation": generation, "commands": commands,
                   "state": state}
        framed = frame_record(payload)
        final = self.snapshot_path(generation)
        temp = final.with_suffix(".json.tmp")
        with open(temp, "wb") as handle:
            handle.write(framed)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, final)
        self._sync_dir()
        return len(framed)

    def load_snapshot(self, generation: int) -> dict:
        """Load and verify one snapshot; raises RecoveryError if the
        frame is torn, corrupt, or not a snapshot of *generation*."""
        path = self.snapshot_path(generation)
        try:
            data = path.read_bytes()
        except OSError as error:
            raise RecoveryError(
                f"cannot read snapshot {path}: {error}") from error
        frames, consumed = unframe_records(data)
        if len(frames) != 1 or consumed != len(data):
            raise RecoveryError(
                f"snapshot {path} is torn or corrupt "
                f"({len(frames)} intact frames, {consumed}/{len(data)} "
                f"clean bytes)")
        payload = frames[0]
        if (payload.get("wire") != WIRE_VERSION
                or payload.get("kind") != "wal_snapshot"
                or payload.get("generation") != generation):
            raise RecoveryError(
                f"snapshot {path} carries wire={payload.get('wire')!r} "
                f"kind={payload.get('kind')!r} "
                f"generation={payload.get('generation')!r}; expected a "
                f"wire-{WIRE_VERSION} wal_snapshot of generation "
                f"{generation}")
        return payload

    def load_newest(self) -> tuple[int, dict, list[dict], bool]:
        """Boot state: newest generation whose snapshot verifies.

        Returns ``(generation, snapshot_payload, log_records,
        log_clean)``.  A corrupt newest snapshot falls back to the
        previous generation when one survives (prune is deferred until
        the next snapshot is durable, so mid-publication crashes always
        leave a verifiable predecessor); raises
        :class:`~repro.errors.RecoveryError` when no generation
        verifies.
        """
        generations = self.generations()
        if not generations:
            raise RecoveryError(
                f"no snapshot generations in {self.root}; nothing to "
                f"recover (start fresh instead)")
        errors: list[str] = []
        for generation in reversed(generations):
            try:
                payload = self.load_snapshot(generation)
            except RecoveryError as error:
                errors.append(str(error))
                continue
            records, clean = read_log(self.log_path(generation))
            return generation, payload, records, clean
        raise RecoveryError(
            "every snapshot generation failed verification:\n  "
            + "\n  ".join(errors))

    # -- log segments and truncation -----------------------------------

    def open_log(self, generation: int,
                 sync_every: int | None = 8) -> WriteAheadLog:
        return WriteAheadLog(self.log_path(generation),
                             sync_every=sync_every)

    def prune_before(self, generation: int) -> None:
        """Drop all generations older than *generation* (best effort:
        called only after the newer snapshot is durable, so a crash
        mid-prune leaves stale-but-ignorable files, never a gap)."""
        for old in self.generations():
            if old >= generation:
                continue
            for path in (self.log_path(old), self.snapshot_path(old)):
                try:
                    path.unlink()
                except OSError:
                    pass
        self._sync_dir()

    def _sync_dir(self) -> None:
        try:
            fd = os.open(self.root, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
