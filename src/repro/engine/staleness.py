"""Query staleness (paper Section 5.1).

It is unrealistic for an entangled query to wait forever for a partner;
when a query becomes *stale* it is removed from the pending set and its
evaluation is considered failed.  The paper names timeouts and manual
intervention as two mechanisms; both are implemented here, plus a
no-staleness policy.  Clocks are injected so tests control time.
"""

from __future__ import annotations

import abc
import time
from typing import Optional

from ..core.query import EntangledQuery


class Clock(abc.ABC):
    """Monotonic time source."""

    @abc.abstractmethod
    def now(self) -> float:
        """Current monotonic time in seconds."""


class SystemClock(Clock):
    """Wall-clock-backed monotonic clock (the default)."""

    def now(self) -> float:
        return time.monotonic()


class ManualClock(Clock):
    """A clock advanced explicitly — deterministic staleness in tests."""

    def __init__(self, start: float = 0.0):
        self._now = start

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot move a monotonic clock backwards")
        self._now += seconds


class PinnedClock(Clock):
    """A clock frozen between commands and pinned at each command
    boundary: by the durable wrapper to its source clock's reading, by
    shard workers to the ``now`` every coordinator frame carries.
    ``set`` never moves backwards — a caller mixing clock sources must
    not unexpire anything."""

    def __init__(self, start: float = 0.0):
        self._now = start

    def now(self) -> float:
        return self._now

    def set(self, now: float) -> None:
        if now > self._now:
            self._now = now


class StalenessPolicy(abc.ABC):
    """Decides when a pending query has waited long enough.

    ``is_stale`` is the source of truth.  Policies that can *predict*
    expiry additionally expose :meth:`deadline` (a fixed future instant
    per query) or :meth:`candidates` (explicitly flagged ids) and set
    ``requires_full_scan = False``; the engine then sweeps in
    O(expired) off an expiry heap instead of testing every pending
    query.  Custom subclasses inherit the safe full-scan default.
    """

    #: True when an expiry sweep must test every pending query (the
    #: conservative default for custom policies).
    requires_full_scan = True

    @abc.abstractmethod
    def is_stale(self, query: EntangledQuery, submitted_at: float,
                 now: float) -> bool:
        """True if the query should be expired."""

    def deadline(self, query: EntangledQuery,
                 submitted_at: float) -> Optional[float]:
        """The instant after which the query turns stale, if known.

        ``None`` means "no predictable deadline" (the query is never
        scheduled on the expiry heap); ``math.inf`` likewise keeps it
        off the heap (it never expires by time).
        """
        return None

    def candidates(self) -> tuple:
        """Query ids flagged for expiry outside the deadline mechanism
        (e.g. manual marks).  Checked with :meth:`is_stale` before
        expiring."""
        return ()

    def on_expired(self, query_id: object) -> None:
        """Notification that *query_id* was just expired.

        Policies holding per-id state (manual marks) must release it
        here: expired ids may be re-submitted, and a verdict left over
        from a previous incarnation would expire the new record early.
        The default is a no-op.
        """


class NeverStale(StalenessPolicy):
    """Queries wait indefinitely (the default for batch workloads)."""

    requires_full_scan = False

    def is_stale(self, query: EntangledQuery, submitted_at: float,
                 now: float) -> bool:
        return False


class TimeoutStaleness(StalenessPolicy):
    """Expire queries pending longer than a fixed number of seconds."""

    requires_full_scan = False

    def __init__(self, timeout_seconds: float):
        if timeout_seconds <= 0:
            raise ValueError("timeout must be positive")
        self.timeout_seconds = timeout_seconds

    def is_stale(self, query: EntangledQuery, submitted_at: float,
                 now: float) -> bool:
        return now - submitted_at > self.timeout_seconds

    def deadline(self, query: EntangledQuery,
                 submitted_at: float) -> Optional[float]:
        return submitted_at + self.timeout_seconds


class ManualStaleness(StalenessPolicy):
    """Expire only queries explicitly marked stale by the application."""

    requires_full_scan = False

    def __init__(self) -> None:
        self._marked: set = set()

    def mark(self, query_id: object) -> None:
        """Flag one query for expiry at the next staleness sweep."""
        self._marked.add(query_id)

    def unmark(self, query_id: object) -> None:
        """Withdraw a previous mark (no-op if absent)."""
        self._marked.discard(query_id)

    def is_stale(self, query: EntangledQuery, submitted_at: float,
                 now: float) -> bool:
        return query.query_id in self._marked

    def candidates(self) -> tuple:
        return tuple(self._marked)

    def on_expired(self, query_id: object) -> None:
        # A mark is consumed by the expiry it caused; keeping it would
        # instantly kill a re-submission of the same id.
        self._marked.discard(query_id)
