"""Incremental runtime vs full recompute, and carried vs forgotten state.

The delta-driven scheduler must be observationally identical to a full
recompute, and an engine that carries its matching state across
arrivals, expiries, mutations and migrations to one that re-matches
from scratch at every attempt.  The generators, the from-scratch
oracle and the replay loop this file held are gone: each randomized
case runs :class:`servicekit.ServiceModel` — against a twin that
forgets everything before every round (batch), or its matching state
at every attempt (component strategy) — on the seed it always had, and
requires the compared paths to differ: the carrying engine resumed
attempts (with the component strategy also answering closures from
carried verdicts and building fewer combined queries), the twin never
did.
What stays here are two exact scenarios of the runtime itself.
"""

from __future__ import annotations

import pytest

from repro.core.query import EntangledQuery
from repro.core.terms import Variable, atom
from repro.db.database import Database
from repro.engine.engine import D3CEngine
from repro.engine.futures import TicketState
from repro.engine.staleness import ManualClock, TimeoutStaleness
from repro.lang import parse_ir

from servicekit import GROUPS, run_model, single


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_batch_rounds_match_fullrecompute_oracle(seed):
    run_model(single("engine", forget=True), seed=seed)


@pytest.mark.parametrize("seed", [11, 22])
def test_incremental_component_state_matches_oracle(seed):
    """Per-arrival engines keep the same components, settlements and
    pending sets as a fleet."""
    run_model(single("fleet", num_shards=2, mode="incremental",
                     reference=("engine-incremental", {})), seed=seed)


@pytest.mark.parametrize("seed", [5, 17, 29, 43, 71, 97])
def test_component_strategy_carried_state_matches_forced_stale(seed):
    run_model(GROUPS["component"], seed=seed, examples=5, steps=30)


@pytest.mark.parametrize("seed", [3, 11, 23, 59])
def test_carried_verdict_matches_forced_stale_between_writes(seed):
    run_model(GROUPS["component"], seed=seed, examples=5, steps=30)


def test_resumed_component_answers_once_a_mutation_allows_it():
    database = Database()
    database.create_table("F", "a:text", "b:text")
    database.insert("F", [("U0", "U1")])
    engine = D3CEngine(database, incremental_strategy="component")

    def arrive(index: int):
        return engine.submit(EntangledQuery(
            query_id=f"c{index}",
            head=(atom("R", f"U{index}", "D"),),
            postconditions=(atom("R", Variable("x"), "D"),),
            body=(atom("F", f"U{index}", Variable("x")),)))

    tickets = [arrive(index) for index in range(4)]
    stats = engine.stats
    # c1 revives c0 (a rebuild) and the closure finds F(U1, U0)
    # missing; c2 and c3 extend the matched component and are answered
    # from that verdict — closures still, but nothing built.
    assert (stats.coordination_rounds, stats.match_rebuilt,
            stats.match_resumed, stats.combined_queries_built,
            stats.closures_skipped_empty, stats.answered) \
        == (3, 1, 2, 1, 2, 0)
    # A write behind the engine's back: F's version no longer matches
    # the verdict's stamp, so the next closure evaluates again.
    database.insert("F", [(f"U{index}", "U0") for index in range(1, 5)])
    tickets.append(arrive(4))
    assert all(ticket.state is TicketState.ANSWERED for ticket in tickets)
    counters = engine.metrics_snapshot()["counters"]
    assert (counters["match_rebuilt"], counters["match_resumed"],
            counters["combined_queries_built"],
            counters["closures_skipped_empty"]) == (1, 3, 2, 2)


# ----------------------------------------------------------------------
# re-submitting an expired id that is still a union-find ghost
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["batch", "incremental"])
def test_resubmitted_ghost_id_matches_fresh_engine(mode):
    database = Database()
    database.create_table("Flights", "fno:int", "dest:text")
    database.insert("Flights", [(122, "Paris"), (123, "Paris")])
    second = parse_ir("{R(Jerry, y)} R(Kramer, y) <- Flights(y, Paris)",
                      "q2")
    retry = parse_ir("{} R(Jerry, x) <- Flights(x, Paris)", "q1")

    clock = ManualClock()
    engine = D3CEngine(database, mode=mode, clock=clock,
                       staleness=TimeoutStaleness(10))
    engine.submit(parse_ir(
        "{R(Nobody, x)} R(Jerry, x) <- Flights(x, Paris)", "q1"))
    clock.advance(5)
    kramer = engine.submit(second)
    engine.run_batch()
    clock.advance(6)
    assert engine.expire_stale() == 1  # q1; it was q2's forest root
    jerry = engine.submit(retry)
    engine.run_batch()

    fresh = D3CEngine(database, mode=mode)
    expected = [fresh.submit(second), fresh.submit(retry)]
    fresh.run_batch()
    assert [ticket.state for ticket in expected] \
        == [TicketState.ANSWERED] * 2
    assert [(ticket.state, ticket.answer.rows)
            for ticket in (kramer, jerry)] \
        == [(ticket.state, ticket.answer.rows) for ticket in expected]
    assert engine.pending_ids() == [] and engine.partition_sizes() == []
    clock.advance(20)
    assert engine.expire_stale() == 0
