"""Parallel component evaluation must be invisible in the output.

The PR-1 acceptance bar: ``coordinate(..., parallel_workers=N)`` yields
byte-identical answers and failures to sequential mode on a fixed-seed
workload, because results are merged on the calling thread in arrival
order.  Same for the engine's batch mode on the shared pool.
"""

from __future__ import annotations

import dataclasses
import random
import sys

from repro.core.evaluate import coordinate
from repro.engine.engine import D3CEngine
from repro.workloads import (build_flight_database,
                             generate_social_network, three_way_triangles,
                             two_way_pairs)


def _workload(seed: int = 7):
    network = generate_social_network(num_users=300, seed=seed,
                                      planted_cliques={4: 15, 5: 15})
    database = build_flight_database(network)
    specific = [dataclasses.replace(query, query_id=f"sp-{query.query_id}")
                for query in two_way_pairs(network, 40, specific=True,
                                           seed=seed + 1)]
    queries = (two_way_pairs(network, 60, seed=seed)
               + specific
               + three_way_triangles(network, 30, seed=seed + 2))
    return database, queries


def _rendered(result) -> tuple:
    """A byte-comparable rendering of answers + failures, in order."""
    answers = tuple(
        (query_id, answer.choices,
         tuple(sorted((relation, tuple(rows))
                      for relation, rows in answer.rows.items())))
        for query_id, answer in result.answers.items())
    failures = tuple((query_id, reason.value)
                     for query_id, reason in result.failures.items())
    return answers, failures


class TestParallelCoordinate:
    def test_byte_identical_to_sequential(self):
        database, queries = _workload()
        sequential = coordinate(queries, database)
        parallel = coordinate(queries, database, parallel_workers=8)
        assert _rendered(parallel) == _rendered(sequential)
        assert repr(_rendered(parallel)) == repr(_rendered(sequential))

    def test_parallel_with_ucs_fallback(self):
        database, queries = _workload(seed=11)
        sequential = coordinate(queries, database, ucs_fallback=True)
        parallel = coordinate(queries, database, ucs_fallback=True,
                              parallel_workers=4)
        assert _rendered(parallel) == _rendered(sequential)

    def test_rng_mode_stays_sequential_and_deterministic(self):
        database, queries = _workload(seed=13)
        one = coordinate(queries, database, rng=random.Random(5),
                         parallel_workers=8)
        two = coordinate(queries, database, rng=random.Random(5))
        assert _rendered(one) == _rendered(two)


class TestParallelBatchEngine:
    def test_batch_parallel_matches_sequential(self):
        database, queries = _workload(seed=17)
        outcomes = []
        for workers in (1, 6):
            engine = D3CEngine(database, mode="batch",
                               parallel_workers=workers)
            tickets = engine.submit_all(queries)
            engine.run_batch()
            outcomes.append(tuple(
                (ticket.query_id, ticket.state.value
                 if hasattr(ticket.state, "value") else str(ticket.state))
                for ticket in tickets))
        assert outcomes[0] == outcomes[1]

    def test_parallel_rounds_share_one_program_cache(self):
        """Worker threads look up, build and retain programs in the one
        shape cache concurrently; several rounds must settle
        byte-identically to serial, with no lookup lost from the
        cache's counters.  A tiny switch interval forces interleavings
        inside the cache's critical sections."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outcomes = []
            for workers in (1, 8):
                # A fresh database per leg: both start from a cold cache.
                database, queries = _workload(seed=19)
                engine = D3CEngine(database, mode="batch",
                                   parallel_workers=workers)
                rendered = []
                for start in range(0, len(queries), 45):
                    tickets = engine.submit_all(queries[start:start + 45])
                    engine.run_batch()
                    rendered.extend(
                        (ticket.query_id, ticket.state.value,
                         ticket.answer and sorted(
                             (relation, tuple(rows)) for relation, rows
                             in ticket.answer.rows.items()))
                        for ticket in tickets)
                planner = database._executor.planner
                # Every evaluation is one lookup and then exactly one
                # of: a program hit, a program build.
                assert (planner.program_hits + planner.program_builds
                        == planner.cache_hits + planner.cache_misses)
                assert planner.program_hits > planner.program_builds
                outcomes.append(rendered)
        finally:
            sys.setswitchinterval(interval)
        assert repr(outcomes[0]) == repr(outcomes[1])
        assert any(state == "answered" for _, state, _ in outcomes[0])
