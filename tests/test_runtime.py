"""Unit tests for the incremental runtime: deltas, worklist, ingestion,
heap-based expiry, introspection, and the per-layer caches that ride on
the scheduler (compiled-plan templates, interned rename_apart terms)."""

from __future__ import annotations

import random

import pytest

from repro.core.graph import GraphDelta, UnifiabilityGraph
from repro.core.terms import Variable
from repro.db import Database
from repro.db.expression import ConjunctiveQuery
from repro.db.planner import bind_query
from repro.engine import (D3CEngine, ManualClock, ManualStaleness,
                          StalenessPolicy, TimeoutStaleness)
from repro.lang import parse_ir
from repro.workloads import (generate_social_network,
                             build_flight_database, two_way_pairs)


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


class TestGraphDeltas:
    def test_add_and_remove_emit_structured_deltas(self, pair_db):
        graph = UnifiabilityGraph()
        deltas: list[GraphDelta] = []
        graph.add_listener(deltas.append)
        left = pair("j", "jerry", "kramer").rename_apart()
        right = pair("k", "kramer", "jerry").rename_apart()
        graph.add_query(left)
        # Nothing to unify with yet: one postcondition, no provider,
        # and no slot the head was written into.
        assert [list(refs) for refs in deltas[0].providers] == [[]]
        assert list(deltas[0].slots) == []
        assert graph.add_query(right) is deltas[1]
        assert [delta.kind for delta in deltas] == ["add", "add"]
        # The second arrival carries both directions as refs: who
        # provides its postcondition, and whose slot its head entered.
        assert [list(refs) for refs in deltas[1].providers] == [[("j", 0)]]
        assert list(deltas[1].slots) == [("j", 0)]
        assert deltas[1].query is right
        # The delta's ref maps are the graph's own, not copies.
        assert deltas[1].providers[0] is graph.provider_refs("k")[0]
        assert graph.edges_materialised == 0  # refs, not Edge objects
        graph.remove_query("j")
        assert deltas[-1].kind == "remove"
        assert deltas[-1].query_id == "j" and deltas[-1].query is None
        assert deltas[-1].providers == () and deltas[-1].slots == ()
        # The removal left no ref behind, in either direction.
        assert list(graph.provider_refs("k")[0]) == []
        assert graph.out_edges("k") == []

    def test_block_of_arrivals_leaves_the_loops_view(self):
        """A ``submit_many`` block ingests by the same loop as
        ``submit``: the edge view, the partitions and the ref order are
        those of one-at-a-time submission, whatever the block split."""
        network = generate_social_network(num_users=300, seed=3)
        database = build_flight_database(network)
        queries = two_way_pairs(network, 120, seed=4)
        loop = D3CEngine(database, mode="batch")
        for query in queries:
            loop.submit(query)
        block = D3CEngine(database, mode="batch")
        block.submit_many(queries[:60])
        block.submit_many(queries[60:])

        def view(engine):
            graph = engine._graph
            return [[(e.src, e.head_pos, e.dst, e.pc_pos) for e in edges]
                    for query in queries
                    for edges in (graph.in_edges(query.query_id),
                                  graph.out_edges(query.query_id))]
        assert view(loop) == view(block)
        assert loop.partition_sizes() == block.partition_sizes()
        assert any(any(edges) for edges in view(loop))


class TestWorklist:
    def test_failed_components_are_not_reattempted(self, pair_db):
        engine = D3CEngine(pair_db, mode="batch")
        engine.submit(pair("e", "elaine", "newman"))
        engine.submit(pair("n", "newman", "elaine"))
        assert engine.run_batch() == 0
        drained = engine.stats.components_drained
        assert drained == 1
        # Untouched failed component: the next round drains nothing.
        assert engine.run_batch() == 0
        assert engine.stats.components_drained == drained

    def test_invalidate_cache_requeues_components(self, pair_db):
        engine = D3CEngine(pair_db, mode="batch")
        engine.submit(pair("e", "elaine", "newman"))
        engine.submit(pair("n", "newman", "elaine"))
        engine.run_batch()
        pair_db.table("U").delete_where(lambda row: row[0] == "elaine")
        pair_db.insert("U", [("elaine", "LAX")])
        engine.invalidate_cache()
        assert engine.run_batch() == 2

    def test_arrival_dirties_only_its_component(self, pair_db):
        engine = D3CEngine(pair_db, mode="batch")
        engine.submit(pair("e", "elaine", "newman"))
        engine.submit(pair("n", "newman", "elaine"))
        engine.run_batch()
        drained = engine.stats.components_drained
        engine.submit(pair("j", "jerry", "kramer"))
        engine.submit(pair("k", "kramer", "jerry"))
        assert engine.run_batch() == 2
        # Only the jerry/kramer component was re-matched.
        assert engine.stats.components_drained == drained + 1

    def test_expiry_requeues_surviving_partition(self, pair_db):
        clock = ManualClock()
        policy = ManualStaleness()
        engine = D3CEngine(pair_db, mode="batch", staleness=policy,
                           clock=clock)
        engine.submit(pair("j", "jerry", "kramer"))
        engine.submit(pair("k", "kramer", "jerry"))
        # A greedy query glues itself onto the pair's component and
        # poisons matching (two candidate providers per pc resolve by
        # arrival, but the combined query finds no data for it).
        engine.submit(parse_ir(
            "{R(x, PAR)} R(JERRY, PAR) <- F('jerry', p), U(x, c)",
            "greedy"))
        assert engine.run_batch() == 0
        assert engine.partition_sizes() == [3]
        policy.mark("greedy")
        assert engine.expire_stale() == 1
        # The survivors were re-marked dirty by the removal delta.
        assert engine.run_batch() == 2


class TestSubmitMany:
    def test_block_matches_loop_of_submits(self, pair_db):
        """One block settles what the loop of submits settles (the
        block ingests by that very loop; there is no second path)."""
        queries = [pair("j", "jerry", "kramer"),
                   pair("k", "kramer", "jerry"),
                   pair("e", "elaine", "newman")]

        def outcomes(tickets):
            return [(ticket.query_id, ticket.done(),
                     ticket.answer.rows if ticket.done() else None)
                    for ticket in tickets]
        block = outcomes(D3CEngine(pair_db).submit_many(queries))
        loop = outcomes(D3CEngine(pair_db).submit_all(queries))
        assert block == loop
        assert block[0][1]  # the pair coordinated

    def test_block_counts_and_validation(self, pair_db):
        from repro.errors import ValidationError
        engine = D3CEngine(pair_db, mode="batch")
        engine.submit_many([pair("a", "jerry", "kramer"),
                            pair("b", "kramer", "jerry")])
        assert engine.stats.blocks_ingested == 1
        assert engine.pending_count == 2
        with pytest.raises(ValidationError, match="already used"):
            engine.submit_many([pair("c", "elaine", "newman"),
                                pair("a", "jerry", "kramer")])
        # The failed block admitted nothing.
        assert engine.pending_count == 2

    def test_unsafe_block_members_rejected(self, pair_db):
        from repro.core.evaluate import FailureReason
        engine = D3CEngine(pair_db, safety="reject")
        tickets = engine.submit_many([
            parse_ir("{R(P1, PAR)} R(Kramer, PAR) <- U(u, c)", "r1"),
            parse_ir("{R(P2, PAR)} R(Jerry, PAR) <- U(u, c)", "r2"),
            parse_ir("{R(x, PAR)} R(Elaine, PAR) <- U(x, c)", "greedy"),
        ])
        assert tickets[2].failure_reason is FailureReason.UNSAFE
        assert engine.pending_count == 2


class TestHeapExpiry:
    def test_timeout_policy_uses_deadlines(self, pair_db):
        clock = ManualClock()
        engine = D3CEngine(pair_db, staleness=TimeoutStaleness(10),
                           clock=clock)
        engine.submit(pair("e", "elaine", "newman"))
        clock.advance(5)
        engine.submit(pair("n2", "newman", "jerry"))
        assert len(engine._expiry_heap) == 2
        clock.advance(6)  # only the first is past its deadline
        assert engine.expire_stale() == 1
        assert engine.pending_ids() == ["n2"]
        clock.advance(5)
        assert engine.expire_stale() == 1

    def test_custom_policy_falls_back_to_full_scan(self, pair_db):
        class EvenIdsAreStale(StalenessPolicy):
            def is_stale(self, query, submitted_at, now):
                return int(query.query_id[-1]) % 2 == 0

        engine = D3CEngine(pair_db, staleness=EvenIdsAreStale())
        engine.submit(pair("q1", "elaine", "newman"))
        engine.submit(pair("q2", "newman", "elaine"))
        assert engine.staleness.requires_full_scan
        assert engine.expire_stale() == 1
        assert engine.pending_ids() == ["q1"]

    def test_answered_entries_are_dropped_lazily(self, pair_db):
        clock = ManualClock()
        engine = D3CEngine(pair_db, staleness=TimeoutStaleness(10),
                           clock=clock)
        engine.submit(pair("j", "jerry", "kramer"))
        engine.submit(pair("k", "kramer", "jerry"))  # answers both
        assert engine.pending_count == 0
        clock.advance(11)
        assert engine.expire_stale() == 0  # stale heap entries ignored


class TestIntrospection:
    def test_pending_ids_in_arrival_order(self, pair_db):
        engine = D3CEngine(pair_db, mode="batch")
        engine.submit(pair("z", "elaine", "newman"))
        engine.submit(pair("a", "newman", "elaine"))
        engine.submit(pair("m", "jerry", "kramer"))
        assert engine.pending_ids() == ["z", "a", "m"]

    def test_partition_sizes_from_manager_both_modes(self, pair_db):
        for mode in ("incremental", "batch"):
            engine = D3CEngine(pair_db, mode=mode)
            engine.submit(pair("e", "elaine", "newman"))
            engine.submit(pair("n", "newman", "elaine"))
            engine.submit(pair("solo", "jerry", "nobody"))
            assert engine.partition_sizes() == [2, 1]


class TestProgramCache:
    def _query(self, suffix=""):
        return ConjunctiveQuery(tuple(parse_ir(
            f"{{}} R(u{suffix}, t{suffix}) <- "
            f"F(u{suffix}, v{suffix}), U(v{suffix}, t{suffix})",
            "probe").body))

    def test_repeated_evaluation_hits_program(self, pair_db):
        planner = pair_db._executor.planner
        first = sorted(map(repr, pair_db.evaluate(self._query())))
        builds, hits = planner.program_builds, planner.program_hits
        assert sorted(map(repr, pair_db.evaluate(self._query()))) == first
        assert planner.program_builds == builds
        assert planner.program_hits == hits + 1
        # A renamed-apart copy is the same shape: same program.
        renamed = list(pair_db.evaluate(self._query("_2")))
        assert len(renamed) == len(first)
        assert planner.program_builds == builds
        assert planner.program_hits == hits + 2

    def test_retained_program_reads_live_rows(self, pair_db):
        # A program holds index and table handles, never rows: run
        # again after a mutation — without being rebuilt — it sees the
        # table as it is now.
        executor = pair_db._executor
        query = self._query()
        shape, params, slots = bind_query(query)
        before = list(pair_db.evaluate(query))
        _, program = executor.planner.lookup(shape, query)
        assert program is not None
        pair_db.insert("F", [("newman", "jerry")])
        after = list(executor._search(program, params, slots))
        assert len(after) > len(before)
        assert sorted(map(repr, after)) == \
            sorted(map(repr, pair_db.evaluate(query)))

    def test_reattempted_component_skips_compilation(self, pair_db):
        pair_db.insert("F", [("george", "susan"), ("susan", "george")])
        pair_db.insert("U", [("george", "BOS"), ("susan", "SFO")])
        engine = D3CEngine(pair_db, mode="batch")
        for left, right in (("elaine", "newman"), ("george", "susan")):
            engine.submit(pair(left[0], left, right))
            engine.submit(pair(right[0], right, left))
        engine.run_batch()
        planner = pair_db._executor.planner
        built = engine.stats.combined_queries_built
        assert built == 2
        # A real insert that satisfies nobody re-queues both readers
        # of U and evicts the plan their combined queries share.  Each
        # retained query is re-evaluated as it stands — nothing is
        # matched or built again — and one compilation serves both.
        pair_db.insert("U", [("puddy", "ITH")])
        builds, hits = planner.program_builds, planner.program_hits
        rebuilt = engine.stats.match_rebuilt
        assert engine.run_batch() == 0
        assert engine.stats.components_drained == 4
        assert engine.stats.combined_queries_built == built
        assert engine.stats.match_rebuilt == rebuilt
        assert planner.program_builds == builds + 1
        assert planner.program_hits == hits + 1

    def test_unchanged_reattempt_is_answered_from_the_verdict(self,
                                                              pair_db):
        engine = D3CEngine(pair_db, mode="batch")
        engine.submit(pair("e", "elaine", "newman"))
        engine.submit(pair("n", "newman", "elaine"))
        engine.run_batch()
        # Forced to re-attempt on the data it already failed on, the
        # component is answered from its carried verdict: the database
        # is not asked, so not even a cached program is hit.
        planner = pair_db._executor.planner
        cached, hits = planner.cache_hits, planner.program_hits
        engine.invalidate_cache()
        assert engine.run_batch() == 0
        assert engine.stats.closures_skipped_empty == 1
        assert engine.stats.combined_queries_built == 1
        assert (planner.cache_hits, planner.program_hits) == (cached, hits)


class TestRenameInterning:
    def test_rename_apart_shares_variable_objects(self):
        query = pair("t", "jerry", "kramer")
        renamed = query.rename_apart()
        occurrences = [term for atom in renamed.body for term in atom.args
                       if isinstance(term, Variable)
                       and term.name.startswith("c@")]
        assert len(occurrences) == 2
        assert occurrences[0] is occurrences[1]

    def test_ground_atoms_returned_unchanged(self):
        from repro.core.terms import atom
        ground = atom("R", "Kramer", "PAR")
        assert ground.rename("@x") is ground
