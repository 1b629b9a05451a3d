"""The engine's hot-path counter block.

Bumped as plain attribute stores on the per-query path and read only
through :meth:`~repro.engine.engine.D3CEngine.metrics_snapshot`, the
one stats surface, where the benchmarks take the same breakdowns as
the paper's figures (e.g. matching time vs. database time in Figure 7).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields


@dataclass(slots=True)
class EngineStats:
    """Aggregated counters and phase seconds for one engine instance
    (a new field is published by :meth:`to_metrics` as it stands)."""

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

    @property
    def pending(self) -> int:
        """Queries submitted but not yet settled."""
        return self.submitted - self.answered - sum(self.failed.values())

    def to_metrics(self, registry) -> None:
        """Pour every field into a :class:`repro.obs.MetricsRegistry`
        under its own name, so a counter is declared once, as a field:
        an int is a counter, a float (the phase seconds) a gauge, and
        the failure tally one ``failed.<reason>`` counter per reason;
        :attr:`pending` joins as a gauge."""
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, Counter):
                for reason, count in value.items():
                    registry.inc(f"{spec.name}.{reason.value}", count)
            elif isinstance(value, float):
                registry.gauge(spec.name, value)
            else:
                registry.inc(spec.name, value)
        registry.gauge("pending", self.pending)
