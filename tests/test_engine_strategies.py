"""Tests for engine tuning knobs: incremental strategies, group-size
and combined-query caps, and UCS fallback in batch rounds."""

from __future__ import annotations

import pytest

from repro.db import Database
from repro.engine import D3CEngine, runtime
from repro.lang import parse_ir


@pytest.fixture
def db():
    database = Database()
    database.create_table("F", "fno int", "dest text")
    database.create_table("A", "fno int", "airline text")
    database.insert("F", [(1, "PAR"), (2, "PAR")])
    database.insert("A", [(1, "Delta"), (2, "United")])
    return database


def mutual_pair(tag: str):
    return [
        parse_ir(f"{{R(B{tag}, x)}} R(A{tag}, x) <- F(x, PAR)",
                 f"{tag}-a"),
        parse_ir(f"{{R(A{tag}, y)}} R(B{tag}, y) <- F(y, PAR)",
                 f"{tag}-b"),
    ]


class TestComponentStrategy:
    def test_component_strategy_answers_pairs(self, db):
        engine = D3CEngine(db, incremental_strategy="component")
        first, second = mutual_pair("p")
        ticket_a = engine.submit(first)
        assert not ticket_a.done()
        ticket_b = engine.submit(second)
        assert ticket_a.done() and ticket_b.done()

    def test_component_strategy_counts_closures(self, db):
        engine = D3CEngine(db, incremental_strategy="component")
        engine.submit_all(mutual_pair("p"))
        assert engine.stats.closure_events == 1

    def test_strategies_agree_on_simple_pairs(self, db):
        local = D3CEngine(db)
        local.submit_all(mutual_pair("p"))
        component = D3CEngine(db, incremental_strategy="component")
        component.submit_all(mutual_pair("p"))
        assert local.stats.answered == component.stats.answered == 2

    def test_unknown_strategy_rejected(self, db):
        with pytest.raises(ValueError, match="strategy"):
            D3CEngine(db, incremental_strategy="psychic")


class TestCaps:
    def test_max_group_size_defers_large_groups(self, db, monkeypatch):
        # A 3-cycle cannot close under a group cap of 2.
        monkeypatch.setattr(runtime, "MAX_GROUP_SIZE", 2)
        engine = D3CEngine(db)
        tickets = [
            engine.submit(parse_ir("{R(B, x)} R(A, x) <- F(x, PAR)",
                                   "qa")),
            engine.submit(parse_ir("{R(C, y)} R(B, y) <- F(y, PAR)",
                                   "qb")),
            engine.submit(parse_ir("{R(A, z)} R(C, z) <- F(z, PAR)",
                                   "qc")),
        ]
        assert not any(ticket.done() for ticket in tickets)
        # A set-at-a-time round has no group cap and answers all three.
        assert engine.run_batch() == 3

    def test_max_combined_atoms_blocks_monster_queries(self, db,
                                                       monkeypatch):
        monkeypatch.setattr(runtime, "MAX_COMBINED_ATOMS", 1)
        engine = D3CEngine(db, mode="batch")
        engine.submit_all(mutual_pair("p"))
        assert engine.run_batch() == 0
        assert engine.pending_count == 2

    def test_candidate_attempts_bounded(self, db, monkeypatch):
        monkeypatch.setattr(runtime, "MAX_CANDIDATE_ATTEMPTS", 1)
        engine = D3CEngine(db)
        engine.submit_all(mutual_pair("p"))
        assert engine.stats.answered == 2


class TestBatchUcsFallback:
    def test_fallback_rescues_core_in_batch_round(self, db):
        engine = D3CEngine(db, mode="batch", ucs_fallback=True)
        engine.submit_all(mutual_pair("p"))
        # Frank dangles off the pair, demanding a Swiss flight (none).
        engine.submit(parse_ir(
            "{R(Ap, z)} R(Frank, z) <- F(z, PAR), A(z, Swiss)",
            "frank"))
        answered = engine.run_batch()
        assert answered == 2
        assert engine.pending_count == 1  # frank stays pending

    def test_no_fallback_blocks_whole_component(self, db):
        engine = D3CEngine(db, mode="batch", ucs_fallback=False)
        engine.submit_all(mutual_pair("p"))
        engine.submit(parse_ir(
            "{R(Ap, z)} R(Frank, z) <- F(z, PAR), A(z, Swiss)",
            "frank"))
        assert engine.run_batch() == 0


class TestStatsAccounting:
    def test_phase_timings_accumulate(self, db):
        engine = D3CEngine(db)
        engine.submit_all(mutual_pair("p"))
        stats = engine.stats
        assert stats.graph_seconds >= 0
        assert stats.combined_queries_built >= 1
        metrics = engine.metrics_snapshot()
        assert metrics["counters"]["answered"] == 2
        assert metrics["gauges"]["pending"] == 0
        assert metrics["gauges"]["graph_seconds"] == stats.graph_seconds
