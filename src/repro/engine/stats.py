"""Engine statistics: counters and phase timings.

The benchmarks read these to report the same breakdowns as the paper's
figures (e.g. matching time vs. database time in Figure 7).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..core.evaluate import FailureReason


def lifecycle_payload(submitted: int, answered: int,
                      failed: Counter) -> dict:
    """The lifecycle counters as a JSON-safe dict with stable key order
    (the ``counters`` block of every service's durable state)."""
    return {"submitted": submitted, "answered": answered,
            "failed": {reason.value: count
                       for reason, count in sorted(
                           failed.items(),
                           key=lambda item: item[0].value)}}


@dataclass(slots=True)
class EngineStats:
    """Aggregated counters for one engine instance."""

    submitted: int = 0
    answered: int = 0
    failed: Counter = field(default_factory=Counter)
    coordination_rounds: int = 0
    combined_queries_built: int = 0
    closure_events: int = 0
    #: Submitted blocks: each block adopted and coordinated counts
    #: once — a ``submit_many`` call (a single ``submit`` is a block of
    #: one) or a shard's ``submit_records``; an import is no block.
    blocks_ingested: int = 0
    components_drained: int = 0
    #: Whole-component attempts (closures, and components drained by
    #: set-at-a-time rounds) that started from what the last attempt
    #: left — resumed matching, retained combined query — / matched from
    #: scratch, and those answered from a carried "empty on the data"
    #: verdict.  In batch mode ``match_resumed - closures_skipped_empty``
    #: re-evaluations built nothing.
    match_resumed: int = 0
    match_rebuilt: int = 0
    closures_skipped_empty: int = 0
    #: ``Edge`` objects the unifiability graph built: it stores provider
    #: refs and materialises an edge only for a ref some caller follows,
    #: so this counts pairs matching actually looked at, not pairs that
    #: unify.
    edges_materialised: int = 0
    graph_seconds: float = 0.0
    match_seconds: float = 0.0
    db_seconds: float = 0.0
    safety_seconds: float = 0.0
    #: Ordered-index pushdown counters, refreshed from the database by
    #: ``metrics_snapshot()`` (empty until then).
    range_index: dict = field(default_factory=dict)
    #: Durability counters (WAL appends, fsync batches, bytes,
    #: snapshots taken): filled by :meth:`from_metrics` from the
    #: ``durability.*`` counters the durable wrapper adds to its
    #: metrics snapshot (empty on an unjournalled service).
    durability: dict = field(default_factory=dict)

    @property
    def pending(self) -> int:
        """Queries submitted but not yet settled."""
        return self.submitted - self.answered - sum(self.failed.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    def record_failure(self, reason: FailureReason, count: int = 1) -> None:
        self.failed[reason] += count

    def snapshot(self) -> dict:
        """A plain-dict view (stable keys) for logging and benchmarks."""
        return {
            **lifecycle_payload(self.submitted, self.answered,
                                self.failed),
            "pending": self.pending,
            "coordination_rounds": self.coordination_rounds,
            "combined_queries_built": self.combined_queries_built,
            "closure_events": self.closure_events,
            "blocks_ingested": self.blocks_ingested,
            "components_drained": self.components_drained,
            "match_resumed": self.match_resumed,
            "match_rebuilt": self.match_rebuilt,
            "closures_skipped_empty": self.closures_skipped_empty,
            "edges_materialised": self.edges_materialised,
            "graph_seconds": self.graph_seconds,
            "match_seconds": self.match_seconds,
            "db_seconds": self.db_seconds,
            "safety_seconds": self.safety_seconds,
            "range_index": dict(self.range_index),
            "durability": dict(self.durability),
        }

    #: Snapshot keys that are plain monotonic counters (the gauges —
    #: pending and the phase-seconds — and the nested dicts are listed
    #: separately by consumers).
    COUNTER_KEYS = ("submitted", "answered", "coordination_rounds",
                    "combined_queries_built", "closure_events",
                    "blocks_ingested", "components_drained",
                    "match_resumed", "match_rebuilt",
                    "closures_skipped_empty", "edges_materialised")
    SECONDS_KEYS = ("graph_seconds", "match_seconds", "db_seconds",
                    "safety_seconds")

    def to_metrics(self, registry) -> None:
        """Pour this snapshot into a
        :class:`repro.obs.MetricsRegistry` under the same key names
        the plain :meth:`snapshot` dict uses (nested dicts become
        dotted counters: ``failed.<reason>``, ``range_index.<key>``,
        ``durability.<key>``)."""
        for key in self.COUNTER_KEYS:
            registry.inc(key, getattr(self, key))
        for reason, count in self.failed.items():
            registry.inc(f"failed.{reason.value}", count)
        for key in self.SECONDS_KEYS:
            registry.gauge(key, getattr(self, key))
        registry.gauge("pending", self.pending)
        for key, value in self.range_index.items():
            registry.inc(f"range_index.{key}", value)
        for key, value in self.durability.items():
            registry.inc(f"durability.{key}", value)

    @classmethod
    def from_metrics(cls, snapshot: dict) -> "EngineStats":
        """The inverse of :meth:`to_metrics`: render a
        ``metrics_snapshot()`` back into the engine's vocabulary.

        The one stats path of every service shape — the fleet's merged
        snapshot, the durable wrapper's (``durability.*`` joined), and
        the server's ``stats`` op all read their figures from here;
        counters outside this vocabulary (``db.*``, ``shard.*``,
        ``server.*``…) are ignored.
        """
        counters = snapshot["counters"]
        gauges = snapshot["gauges"]
        stats = cls()
        for key in cls.COUNTER_KEYS:
            setattr(stats, key, counters.get(key, 0))
        for key in cls.SECONDS_KEYS:
            setattr(stats, key, gauges.get(key, 0.0))
        for key, value in counters.items():
            prefix, _, name = key.partition(".")
            if prefix == "failed":
                stats.failed[FailureReason(name)] = value
            elif prefix in ("range_index", "durability"):
                getattr(stats, prefix)[name] = value
        return stats

    def __str__(self) -> str:
        failed = ", ".join(f"{reason.value}={count}"
                           for reason, count in sorted(
                               self.failed.items(),
                               key=lambda item: item[0].value))
        return (f"submitted={self.submitted} answered={self.answered} "
                f"pending={self.pending} failed=[{failed}] "
                f"rounds={self.coordination_rounds} "
                f"graph={self.graph_seconds:.3f}s "
                f"match={self.match_seconds:.3f}s "
                f"db={self.db_seconds:.3f}s "
                f"safety={self.safety_seconds:.3f}s")
