"""Tests for the engine statistics and the benchmark harness."""

from __future__ import annotations

import pytest

from repro.bench import (Series, bench_scale, run_batch,
                         run_incremental, scaled, stopwatch)
from repro.bench.harness import bench_database, bench_network
from repro.core.evaluate import FailureReason
from repro.engine.stats import EngineStats
from repro.obs import MetricsRegistry
from repro.workloads import build_intro_database, two_way_pairs


def _metrics(stats: EngineStats) -> dict:
    registry = MetricsRegistry()
    stats.to_metrics(registry)
    return registry.snapshot()


class TestEngineStats:
    def test_counters_and_snapshot(self):
        stats = EngineStats()
        stats.submitted = 10
        stats.answered = 4
        stats.failed[FailureReason.STALE] += 2
        stats.failed[FailureReason.UNSAFE] += 1
        assert stats.pending == 3
        metrics = _metrics(stats)
        assert metrics["gauges"]["pending"] == 3
        assert {key: value for key, value in metrics["counters"].items()
                if key.startswith("failed.")} \
            == {"failed.stale": 2, "failed.unsafe": 1}

    def test_str_rendering(self):
        # The counters are read by metric name; there is no rendering.
        stats = EngineStats()
        stats.submitted = 2
        assert _metrics(stats)["counters"]["submitted"] == 2


class TestSeries:
    def test_add_and_extract(self):
        series = Series("demo", "n")
        series.add(10, seconds=0.5, answered=3)
        series.add(20, seconds=1.0, answered=6)
        assert series.xs() == [10, 20]
        assert series.metric("seconds") == [0.5, 1.0]

    def test_format_contains_rows(self):
        series = Series("demo", "n")
        series.add(10, seconds=0.5)
        text = series.format()
        assert "== demo ==" in text
        assert "seconds=0.5000" in text


class TestHarness:
    def test_bench_scale_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == 1.0
        monkeypatch.setenv("REPRO_BENCH_SCALE", "2.5")
        assert bench_scale() == 2.5
        monkeypatch.setenv("REPRO_BENCH_SCALE", "zero")
        with pytest.raises(ValueError):
            bench_scale()
        monkeypatch.setenv("REPRO_BENCH_SCALE", "-1")
        with pytest.raises(ValueError):
            bench_scale()

    def test_scaled_rounds_to_multiple(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "1")
        assert scaled(10, 6) == 12
        assert scaled(12, 6) == 12
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        assert scaled(100) == 50

    def test_stopwatch(self):
        with stopwatch() as elapsed:
            during = elapsed()
        after = elapsed()
        assert 0 <= during <= after

    def test_bench_network_cached(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
        first = bench_network()
        second = bench_network()
        assert first is second
        assert bench_database(first) is bench_database(second)

    def test_run_incremental_metrics(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
        network = bench_network()
        database = bench_database(network)
        queries = two_way_pairs(network, 20, specific=True, seed=99)
        metrics = run_incremental(database, queries)
        assert metrics["queries"] == 20
        assert metrics["answered"] + metrics["pending"] == 20
        assert metrics["seconds"] > 0
        assert metrics["throughput_qps"] > 0

    def test_run_batch_metrics(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
        network = bench_network()
        database = bench_database(network)
        queries = two_way_pairs(network, 20, specific=True, seed=98)
        metrics = run_batch(database, queries)
        assert metrics["queries"] == 20
        assert metrics["answered"] + metrics["pending"] == 20
