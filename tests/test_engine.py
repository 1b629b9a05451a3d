"""Tests for the D3C engine: both modes, safety, staleness, parallel."""

from __future__ import annotations

import random

import pytest

from repro.core.evaluate import FailureReason
from repro.db import Database
from repro.engine import (D3CEngine, ManualClock, TicketState,
                          TimeoutStaleness)
from repro.errors import StaleQueryError, ValidationError
from repro.lang import parse_ir


@pytest.fixture
def pair_db() -> Database:
    db = Database()
    db.create_table("F", "u text", "v text")
    db.create_table("U", "u text", "t text")
    db.insert("F", [("jerry", "kramer"), ("kramer", "jerry"),
                    ("elaine", "newman"), ("newman", "elaine")])
    db.insert("U", [("jerry", "ITH"), ("kramer", "ITH"),
                    ("elaine", "NYC"), ("newman", "LAX")])
    return db


def pair(query_id: str, user: str, partner: str,
         destination: str = "PAR"):
    return parse_ir(
        f"{{R({partner.upper()}, {destination})}} "
        f"R({user.upper()}, {destination}) "
        f"<- F('{user}', '{partner}'), U('{user}', c), "
        f"U('{partner}', c)", query_id)


class TestIncrementalMode:
    def test_pair_answers_on_second_arrival(self, pair_db):
        engine = D3CEngine(pair_db)
        first = engine.submit(pair("j", "jerry", "kramer"))
        assert not first.done()
        assert engine.pending_count == 1
        second = engine.submit(pair("k", "kramer", "jerry"))
        assert first.done() and second.done()
        assert engine.pending_count == 0
        assert first.result().rows == {"R": [("JERRY", "PAR")]}
        assert engine.stats.answered == 2

    def test_non_cotown_pair_stays_pending(self, pair_db):
        engine = D3CEngine(pair_db)
        engine.submit(pair("e", "elaine", "newman"))
        engine.submit(pair("n", "newman", "elaine"))
        assert engine.pending_count == 2
        assert engine.stats.answered == 0

    def test_callback_invoked(self, pair_db):
        engine = D3CEngine(pair_db)
        seen = []
        engine.submit(pair("j", "jerry", "kramer"),
                      callback=lambda t: seen.append(t.query_id))
        engine.submit(pair("k", "kramer", "jerry"))
        assert seen == ["j"]

    def test_duplicate_id_rejected(self, pair_db):
        engine = D3CEngine(pair_db)
        engine.submit(pair("dup", "jerry", "kramer"))
        with pytest.raises(ValidationError, match="already used"):
            engine.submit(pair("dup", "kramer", "jerry"))

    def test_id_not_reusable_after_answering(self, pair_db):
        engine = D3CEngine(pair_db)
        engine.submit(pair("j", "jerry", "kramer"))
        engine.submit(pair("k", "kramer", "jerry"))
        with pytest.raises(ValidationError):
            engine.submit(pair("j", "jerry", "kramer"))

    def test_postcondition_free_query_answers_alone(self, pair_db):
        ticket = D3CEngine(pair_db).submit(
            parse_ir("{} R(u, t) <- U(u, t)", "solo"))
        assert ticket.done()
        assert ticket.answer.rows["R"]

    def test_three_way_cycle(self, pair_db):
        pair_db.insert("F", [("jerry", "elaine"), ("elaine", "jerry"),
                             ("kramer", "elaine"),
                             ("elaine", "kramer")])
        pair_db.table("U").delete_where(lambda row: row[0] == "elaine")
        pair_db.insert("U", [("elaine", "ITH")])
        engine = D3CEngine(pair_db)
        tickets = [
            engine.submit(pair("t1", "jerry", "kramer")),
            engine.submit(pair("t2", "kramer", "elaine")),
            engine.submit(pair("t3", "elaine", "jerry")),
        ]
        assert all(ticket.done() for ticket in tickets)

    def test_partition_sizes_diagnostics(self, pair_db):
        engine = D3CEngine(pair_db)
        engine.submit(pair("e", "elaine", "newman"))
        assert engine.partition_sizes() == [1]

    def test_failed_group_cache_and_invalidation(self, pair_db):
        engine = D3CEngine(pair_db)
        engine.submit(pair("e", "elaine", "newman"))
        engine.submit(pair("n", "newman", "elaine"))
        assert engine.pending_count == 2
        # Elaine moves to LAX: the pair becomes feasible, but the
        # failed-group cache must be invalidated to see it.
        pair_db.table("U").delete_where(lambda row: row[0] == "elaine")
        pair_db.insert("U", [("elaine", "LAX")])
        engine.invalidate_cache()
        answered = engine.run_batch()
        assert answered == 2


class TestBatchMode:
    def test_run_batch_answers_pairs(self, pair_db):
        engine = D3CEngine(pair_db, mode="batch")
        tickets = [engine.submit(pair("j", "jerry", "kramer")),
                   engine.submit(pair("k", "kramer", "jerry")),
                   engine.submit(pair("e", "elaine", "newman")),
                   engine.submit(pair("n", "newman", "elaine"))]
        assert not any(ticket.done() for ticket in tickets)
        answered = engine.run_batch()
        assert answered == 2
        assert tickets[0].done() and tickets[1].done()
        assert not tickets[2].done()
        assert engine.pending_count == 2

    def test_repeated_batches_converge(self, pair_db):
        engine = D3CEngine(pair_db, mode="batch")
        engine.submit(pair("j", "jerry", "kramer"))
        assert engine.run_batch() == 0
        engine.submit(pair("k", "kramer", "jerry"))
        assert engine.run_batch() == 2
        assert engine.run_batch() == 0

    def test_partition_sizes_available_in_batch_mode(self, pair_db):
        # The unified runtime maintains partition state incrementally
        # for batch engines too, so the diagnostic works in both modes.
        engine = D3CEngine(pair_db, mode="batch")
        assert engine.partition_sizes() == []
        engine.submit(pair("j", "jerry", "kramer"))
        engine.submit(pair("k", "kramer", "jerry"))
        engine.submit(pair("e", "elaine", "newman"))
        assert engine.partition_sizes() == [2, 1]
        engine.run_batch()
        assert engine.partition_sizes() == [1]


class TestSafetyModes:
    def test_reject_mode_fails_overunifying_arrival(self, pair_db):
        engine = D3CEngine(pair_db, safety="reject")
        engine.submit(parse_ir(
            "{R(Partner1, PAR)} R(Kramer, PAR) <- U(u, c)", "r1"))
        engine.submit(parse_ir(
            "{R(Partner2, PAR)} R(Jerry, PAR) <- U(u, c)", "r2"))
        greedy = engine.submit(parse_ir(
            "{R(x, PAR)} R(Elaine, PAR) <- U(x, c)", "greedy"))
        assert greedy.state is TicketState.FAILED
        assert greedy.failure_reason is FailureReason.UNSAFE
        assert engine.stats.failed[FailureReason.UNSAFE] == 1

    def test_off_mode_admits_everything(self, pair_db):
        engine = D3CEngine(pair_db, safety="off")
        engine.submit(parse_ir(
            "{R(Partner1, PAR)} R(Kramer, PAR) <- U(u, c)", "r1"))
        engine.submit(parse_ir(
            "{R(Partner2, PAR)} R(Jerry, PAR) <- U(u, c)", "r2"))
        greedy = engine.submit(parse_ir(
            "{R(x, PAR)} R(Elaine, PAR) <- U(x, c)", "greedy"))
        assert greedy.failure_reason is not FailureReason.UNSAFE

    def test_invalid_modes_rejected(self, pair_db):
        with pytest.raises(ValueError):
            D3CEngine(pair_db, mode="streaming")
        with pytest.raises(ValueError):
            D3CEngine(pair_db, safety="maybe")


class TestStaleness:
    def test_timeout_expiry(self, pair_db):
        clock = ManualClock()
        engine = D3CEngine(pair_db, staleness=TimeoutStaleness(60),
                           clock=clock)
        lonely = engine.submit(pair("e", "elaine", "newman"))
        clock.advance(61)
        assert engine.expire_stale() == 1
        assert lonely.failure_reason is FailureReason.STALE
        assert engine.pending_count == 0
        with pytest.raises(StaleQueryError):
            lonely.result(timeout=0.1)

    def test_fresh_queries_survive_sweep(self, pair_db):
        clock = ManualClock()
        engine = D3CEngine(pair_db, staleness=TimeoutStaleness(60),
                           clock=clock)
        engine.submit(pair("e", "elaine", "newman"))
        clock.advance(30)
        assert engine.expire_stale() == 0
        assert engine.pending_count == 1

    def test_expired_query_cannot_coordinate_later(self, pair_db):
        clock = ManualClock()
        engine = D3CEngine(pair_db, staleness=TimeoutStaleness(60),
                           clock=clock)
        engine.submit(pair("j", "jerry", "kramer"))
        clock.advance(61)
        engine.expire_stale()
        partner = engine.submit(pair("k", "kramer", "jerry"))
        assert not partner.done()


class TestChooseSemantics:
    def test_rng_sampling(self, pair_db):
        pair_db.create_table("Flights", "fno int", "dest text")
        pair_db.insert("Flights", [(1, "PAR"), (2, "PAR"), (3, "PAR")])
        chosen = set()
        for seed in range(12):
            engine = D3CEngine(pair_db, rng=random.Random(seed))
            left = engine.submit(parse_ir(
                "{S(Kramer, f)} S(Jerry, f) <- Flights(f, PAR)",
                "left"))
            engine.submit(parse_ir(
                "{S(Jerry, g)} S(Kramer, g) <- Flights(g, PAR)",
                "right"))
            chosen.add(left.result().rows["S"][0][1])
        assert len(chosen) > 1  # random tuple choice across seeds
