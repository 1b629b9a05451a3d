"""The D3C engine: coordination middleware over a database.

* :class:`~repro.engine.engine.D3CEngine` — submit entangled queries,
  get :class:`~repro.engine.futures.CoordinationTicket` futures back;
  incremental and set-at-a-time evaluation modes, admission-time
  safety, staleness expiry.
* :mod:`~repro.engine.staleness` — pluggable staleness policies and
  injectable clocks.
* :mod:`~repro.engine.runtime` — the delta-driven scheduler: the
  dirty-component worklist, batched arrival ingestion, and the
  coordination mechanics every evaluation mode runs through.
* :mod:`~repro.engine.partitions` — the incremental partition state
  (union-find, closure detection, cached partial unifiers, exact lazy
  re-splitting on removal).
* :mod:`~repro.engine.stats` — the hot-path counter block, read
  through ``metrics_snapshot()``.
"""

from .engine import D3CEngine
from .futures import CoordinationTicket, TicketCallback, TicketState
from .partitions import PartitionManager
from .runtime import CoordinationScheduler
from .staleness import (Clock, ManualClock, ManualStaleness, NeverStale,
                        StalenessPolicy, SystemClock, TimeoutStaleness)
from .stats import EngineStats

__all__ = [
    "D3CEngine",
    "CoordinationTicket", "TicketCallback", "TicketState",
    "PartitionManager",
    "CoordinationScheduler",
    "Clock", "ManualClock", "ManualStaleness", "NeverStale",
    "StalenessPolicy", "SystemClock", "TimeoutStaleness",
    "EngineStats",
]
