"""Typed metrics with a deterministic, loss-free merge.

One :class:`MetricsRegistry` snapshot is the one stats surface of
every service shape: the engine's counter block, ordered-index
``range_stats``, prefilter enumerations, plan-cache hits,
``wire_requests``, WAL/fsync counters and the server's layer are all
read from ``metrics_snapshot()`` by metric name, and from nowhere
else.  Fleet aggregation is :func:`merge_snapshots` — associative,
commutative, with the empty snapshot as identity — so the
coordinator's metrics fan-out is one codepath regardless of shard
count.

Three instrument types:

* **counters** — monotonic ints; merge by summation.
* **gauges** — floats (accrued seconds, pending depth); merge by
  summation, which is the fleet semantics for every gauge we keep
  (total seconds across shards, total pending across shards).
* **histograms** — power-of-two buckets keyed by
  ``int(value).bit_length()``.  Bucketing at record time makes the
  merge a plain key-wise sum: no samples are retained, yet merging
  loses nothing the snapshot ever had.  Quantiles come from bucket
  upper bounds (about 2x resolution — plenty for latency triage).

Snapshots are plain JSON-safe dicts (histogram bucket keys are
strings) so a snapshot that round-trips through ``json`` merges
identically to a live one.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence


class _Histogram:
    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: int) -> None:
        value = int(value)
        if value < 0:
            value = 0
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = value.bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def snapshot(self) -> dict:
        return {"count": self.count, "sum": self.total,
                "min": self.min, "max": self.max,
                "buckets": {str(bucket): count for bucket, count
                            in sorted(self.buckets.items())}}


class MetricsRegistry:
    """Counters, gauges, and histograms under dotted string names."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, _Histogram] = {}

    def inc(self, name: str, value: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + int(value)

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = float(value)

    def observe(self, name: str, value: int) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = _Histogram()
        histogram.observe(value)

    def snapshot(self) -> dict:
        """The registry's full state as a JSON-safe dict."""
        return {"counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {name: histogram.snapshot()
                               for name, histogram
                               in self._histograms.items()}}


def empty_snapshot() -> dict:
    """The merge identity."""
    return {"counters": {}, "gauges": {}, "histograms": {}}


def _merge_histogram(into: dict, part: dict) -> None:
    into["count"] += part.get("count", 0)
    into["sum"] += part.get("sum", 0)
    for field, pick in (("min", min), ("max", max)):
        value = part.get(field)
        if value is not None:
            into[field] = (value if into[field] is None
                           else pick(into[field], value))
    buckets = into["buckets"]
    for bucket, count in part.get("buckets", {}).items():
        bucket = str(bucket)
        buckets[bucket] = buckets.get(bucket, 0) + count


def merge_snapshots(*snapshots: dict) -> dict:
    """Key-wise merge: counters and gauges sum, histograms sum bucket
    by bucket.  Associative and commutative; ``empty_snapshot()`` is
    the identity; no key present in any input is dropped."""
    merged = empty_snapshot()
    for snap in snapshots:
        if not snap:
            continue
        counters = merged["counters"]
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        gauges = merged["gauges"]
        for name, value in snap.get("gauges", {}).items():
            gauges[name] = gauges.get(name, 0.0) + value
        histograms = merged["histograms"]
        for name, part in snap.get("histograms", {}).items():
            into = histograms.get(name)
            if into is None:
                into = histograms[name] = {"count": 0, "sum": 0,
                                           "min": None, "max": None,
                                           "buckets": {}}
            _merge_histogram(into, part)
    return merged


def quantile(histogram: dict, q: float) -> Optional[float]:
    """The *q*-quantile's bucket upper bound (``2**bucket``), or None
    for an empty histogram."""
    count = histogram.get("count", 0)
    if not count:
        return None
    threshold = q * count
    seen = 0
    for bucket in sorted(histogram.get("buckets", {}),
                         key=lambda key: int(key)):
        seen += histogram["buckets"][bucket]
        if seen >= threshold:
            return float(1 << int(bucket))
    return float(histogram["max"]) if histogram["max"] else 0.0


def quantiles(histogram: dict,
              qs: Sequence[float] = (0.5, 0.95, 0.99)) -> dict:
    """p50/p95/p99-style summary of one histogram snapshot."""
    return {f"p{int(q * 100)}": quantile(histogram, q) for q in qs}


# -- process-wide accumulation (bench / CLI --metrics-json) -----------

_GLOBAL = empty_snapshot()


def absorb_snapshot(snapshot: dict) -> None:
    """Fold *snapshot* into the process-wide accumulated snapshot
    (used by the bench harness so ``--metrics-json`` covers every
    engine a run constructed)."""
    global _GLOBAL
    _GLOBAL = merge_snapshots(_GLOBAL, snapshot)


def global_snapshot() -> dict:
    """A copy of the process-wide accumulated snapshot."""
    return merge_snapshots(_GLOBAL)


def reset_global_metrics() -> None:
    global _GLOBAL
    _GLOBAL = empty_snapshot()
