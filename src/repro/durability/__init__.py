"""Durability: write-ahead log, snapshots, and crash recovery.

Everything else in the reproduction is in-memory; this package is what
lets a coordinator survive its process.  Three layers:

* :mod:`repro.durability.wal` — an append-only log of CRC-framed
  :mod:`repro.dataio` payloads (see :func:`repro.dataio.frame_record`)
  with fsync batching; the reader tolerates a torn tail.
* :mod:`repro.durability.snapshots` — the generation-numbered on-disk
  layout: one checksummed snapshot file plus one log segment per
  generation, with atomic snapshot publication and truncation of old
  generations.
* :mod:`repro.durability.service` — the journaling wrapper, written
  once against :class:`~repro.service.CoordinationService` and named
  :class:`DurableEngine` / :class:`DurableCoordinator` after the inner
  :class:`~repro.engine.engine.D3CEngine` /
  :class:`~repro.shard.coordinator.ShardedCoordinator` it builds; its
  ``recover`` classmethod rebuilds the exact pre-crash state from the
  newest valid snapshot plus the log suffix.

See DESIGN.md §8 for the record framing, the snapshot/truncate state
machine, and the recovery sequence.
"""

from .service import DurableCoordinator, DurableEngine
from .snapshots import SnapshotStore
from .wal import WriteAheadLog

__all__ = [
    "DurableCoordinator", "DurableEngine", "SnapshotStore",
    "WriteAheadLog",
]
