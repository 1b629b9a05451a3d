"""Tests for the incremental partition state (PartitionManager)."""

from __future__ import annotations

import pytest

from repro.core.graph import UnifiabilityGraph
from repro.core.matching import match_component
from repro.core.terms import Constant, Variable
from repro.engine.partitions import PartitionManager
from repro.lang import parse_ir


def setup_manager(track_matching=True):
    graph = UnifiabilityGraph()
    return graph, PartitionManager(graph, graph.insertion_ranks,
                                   track_matching)


def admit(graph, manager, text, query_id):
    query = parse_ir(text, query_id).rename_apart()
    edges = graph.add_query(query)
    return manager.add_query(query, edges)


class TestMembershipAndClosure:
    def test_isolated_query_is_its_own_partition(self):
        graph, manager = setup_manager()
        root = admit(graph, manager,
                     "{R(Kramer, x)} R(Jerry, x) <- F(x, Paris)",
                     "jerry")
        assert manager.members(root) == ["jerry"]
        assert manager.partition_size(root) == 1
        assert not manager.is_closed(root)

    def test_pair_merges_and_closes(self):
        graph, manager = setup_manager()
        admit(graph, manager,
              "{R(Kramer, x)} R(Jerry, x) <- F(x, Paris)", "jerry")
        root = admit(graph, manager,
                     "{R(Jerry, y)} R(Kramer, y) <- F(y, Paris)",
                     "kramer")
        assert sorted(manager.members(root)) == ["jerry", "kramer"]
        assert manager.is_closed(root)
        assert len(manager) == 2

    def test_chain_stays_open(self):
        graph, manager = setup_manager()
        admit(graph, manager, "{B(1)} A(1)", "qa")
        root = admit(graph, manager, "{C(1)} B(1)", "qb")
        assert manager.partition_size(root) == 2
        assert not manager.is_closed(root)

    def test_separate_destinations_stay_separate(self):
        graph, manager = setup_manager()
        root_a = admit(graph, manager,
                       "{R(B, ITH)} R(A, ITH) <- F(x, ITH)", "a")
        root_b = admit(graph, manager,
                       "{R(D, JFK)} R(C, JFK) <- F(y, JFK)", "c")
        assert manager.find("a") != manager.find("c")
        assert sorted(manager.partition_sizes()) == [1, 1]

    def test_multiple_pcs_counted(self):
        graph, manager = setup_manager()
        admit(graph, manager, "{} R(Elaine, SBN)", "p1")
        root = admit(graph, manager,
                     "{R(Elaine, SBN), R(Kramer, SBN)} R(Jerry, SBN)",
                     "needy")
        assert not manager.is_closed(root)  # Kramer's head missing
        root = admit(graph, manager, "{} R(Kramer, SBN)", "p2")
        assert manager.is_closed(root)


def scratch(graph, manager, query_id):
    return match_component(graph, manager.members_set(query_id))


def assert_same_match(state, expected):
    got = state.result()
    assert got.component == expected.component
    assert got.survivors == expected.survivors
    assert got.removed == expected.removed
    assert got.chosen_edges == expected.chosen_edges
    assert got.unifiers == expected.unifiers
    assert got.global_unifier == expected.global_unifier


class TestMatchState:
    def test_stale_state_is_rebuilt_at_first_read_then_carried(self):
        graph, manager = setup_manager()
        admit(graph, manager, "{R(B, x)} R(A, x) <- F(x)", "a")
        admit(graph, manager, "{R(A, y)} R(B, y) <- F(y)", "b")
        state, resumed = manager.match_state("a")
        assert not resumed  # b revived a
        assert set(state.result().survivors) == {"a", "b"}
        assert manager.match_state("b") == (state, True)

    def test_late_arrival_resumes_with_its_providers_constraints(self):
        graph, manager = setup_manager()
        admit(graph, manager, "{R(B, 1)} R(A, x) <- F(x)", "a")
        admit(graph, manager, "{R(A, y)} R(B, y) <- F(y)", "b")
        state, _ = manager.match_state("a")
        # c's postcondition is provided by a, whose fixpoint already
        # pins its variable to 1; c inherits that without a re-match.
        admit(graph, manager, "{R(A, z)} R(C, z) <- F(z)", "c")
        resumed_state, resumed = manager.match_state("c")
        assert resumed and resumed_state is state
        assert state.result().unifiers["c"].constant_of(
            Variable("z@c")) == Constant(1)
        assert_same_match(state, scratch(graph, manager, "c"))

    def test_conflicting_arrival_is_removed_without_disturbing_members(
            self):
        graph, manager = setup_manager()
        admit(graph, manager, "{R(B, 1)} R(A, x) <- F(x)", "a")
        admit(graph, manager, "{R(A, y)} R(B, y) <- F(y)", "b")
        state, _ = manager.match_state("a")
        admit(graph, manager, "{R(A, 2)} R(C, 2) <- F(z)", "c")
        assert manager.match_state("c") == (state, True)
        assert set(state.result().survivors) == {"a", "b"}
        assert_same_match(state, scratch(graph, manager, "c"))

    def test_first_provider_of_an_open_postcondition_goes_stale(self):
        graph, manager = setup_manager()
        admit(graph, manager, "{R(B, x)} R(A, x) <- F(x)", "a")
        state, _ = manager.match_state("a")
        assert not state.result().survivors  # nobody provides R(B, x) yet
        admit(graph, manager, "{R(A, y)} R(B, y) <- F(y)", "b")
        rebuilt, resumed = manager.match_state("a")
        assert not resumed and rebuilt is not state
        assert set(rebuilt.result().survivors) == {"a", "b"}

    def test_removal_goes_stale(self):
        graph, manager = setup_manager()
        admit(graph, manager, "{R(B, x)} R(A, x) <- F(x)", "a")
        admit(graph, manager, "{R(A, y)} R(B, y) <- F(y)", "b")
        admit(graph, manager, "{R(A, z)} R(C, z) <- F(z)", "c")
        manager.match_state("a")
        graph.remove_query("c")
        manager.remove_queries(["c"])
        state, resumed = manager.match_state("a")
        assert not resumed
        assert_same_match(state, scratch(graph, manager, "a"))

    def test_bridging_arrival_drops_the_states(self):
        graph, manager = setup_manager()
        admit(graph, manager, "{} R(A, 1) <- F(x)", "a")
        admit(graph, manager, "{} S(B, 2) <- G(y)", "b")
        assert manager.match_state("a")[1] and manager.match_state("b")[1]
        admit(graph, manager, "{R(A, u), S(B, v)} T(u, v) <- H(u, v)",
              "c")
        state, resumed = manager.match_state("c")
        assert not resumed
        assert list(state.result().component) == ["a", "b", "c"]
        assert len(manager._match_states) == 1

    def test_unmatched_side_of_a_bridge_drops_the_state(self):
        graph, manager = setup_manager()
        admit(graph, manager, "{} R(A, 1) <- F(x)", "a")
        admit(graph, manager, "{P(w)} S(B, 2) <- G(w)", "b")
        admit(graph, manager, "{} P(3) <- G(y)", "p")  # revives b
        assert manager.find("b") not in manager._match_states
        admit(graph, manager, "{R(A, u), S(B, v)} T(u, v) <- H(u, v)",
              "c")
        state, resumed = manager.match_state("c")
        assert not resumed
        assert set(state.result().survivors) == {"a", "b", "p", "c"}

    def test_structure_only_mode_keeps_no_state(self):
        graph, manager = setup_manager(track_matching=False)
        admit(graph, manager, "{R(B, x)} R(A, x) <- F(x)", "a")
        admit(graph, manager, "{R(A, y)} R(B, y) <- F(y)", "b")
        assert manager.members("a") == ["a", "b"]
        assert not manager._match_states


class TestRemoval:
    def test_remove_answered_pair(self):
        graph, manager = setup_manager()
        admit(graph, manager,
              "{R(Kramer, x)} R(Jerry, x) <- F(x, Paris)", "jerry")
        root = admit(graph, manager,
                     "{R(Jerry, y)} R(Kramer, y) <- F(y, Paris)",
                     "kramer")
        graph.remove_query("jerry")
        graph.remove_query("kramer")
        manager.remove_queries(["jerry", "kramer"])
        assert len(manager) == 0
        assert manager.partition_sizes() in ([], [0])

    def test_partial_removal_keeps_survivor(self):
        graph, manager = setup_manager()
        admit(graph, manager, "{B(1)} A(1)", "qa")
        admit(graph, manager, "{C(1)} B(1)", "qb")
        graph.remove_query("qb")
        manager.remove_queries(["qb"])
        assert len(manager) == 1
        root = manager.find("qa")
        assert manager.members(root) == ["qa"]
        # Exact open counts are restored on demand: qa's B(1) lost
        # its only provider.
        assert not manager.is_closed(root)

    def test_remove_is_idempotent(self):
        graph, manager = setup_manager()
        admit(graph, manager, "{B(1)} A(1)", "qa")
        graph.remove_query("qa")
        manager.remove_queries(["qa"])
        manager.remove_queries(["qa"])
        assert len(manager) == 0

    def test_remove_unknown_is_noop(self):
        graph, manager = setup_manager()
        manager.remove_queries(["ghost"])
        assert len(manager) == 0


class TestResubmittedGhost:
    """An expired id may be re-submitted while it is still a ghost in
    the union-find forest of a stale, not yet re-split partition."""

    def test_ghost_root_is_refreshed_before_its_id_is_reused(self):
        graph, manager = setup_manager(track_matching=False)
        heads = {"q1": "R(Jerry, x)", "q2": "R(Kramer, x)"}
        admit(graph, manager,
              "{R(Kramer, x)} R(Jerry, x) <- Flights(x, Paris)", "q1")
        admit(graph, manager,
              "{R(Jerry, x)} R(Kramer, x) <- Flights(x, Paris)", "q2")
        # Whichever id the forest elected root is the one that departs
        # and comes back (the pair is symmetric).
        ghost = manager.find("q1")
        (survivor,) = {"q1", "q2"} - {ghost}
        assert manager.find(survivor) == ghost
        graph.remove_query(ghost)
        manager.remove_queries([ghost])
        assert manager.find(survivor) == ghost  # resolves through it
        assert ghost in manager._stale_roots
        admit(graph, manager,
              f"{{}} {heads[ghost]} <- Flights(x, Paris)", ghost)
        # The stale partition was re-split before the id re-entered
        # the forest, and the newcomer joined the survivor afresh.
        assert not manager._stale_roots
        assert manager.members_set(survivor) == {"q1", "q2"}
        assert manager.partition_sizes() == [2]
        graph.remove_query(ghost)
        assert manager.remove_queries([ghost]) == [survivor]
        assert manager.partition_sizes() == [1]

    def test_interior_ghost_is_refreshed_too(self):
        graph, manager = setup_manager(track_matching=False)
        admit(graph, manager, "{B(1)} A(1)", "qa")
        admit(graph, manager, "{C(1)} B(1)", "qb")
        admit(graph, manager, "{D(1)} C(1)", "qc")
        graph.remove_query("qb")
        manager.remove_queries(["qb"])
        admit(graph, manager, "{Z(1)} Y(1)", "qb")
        assert sorted(manager.partition_sizes()) == [1, 1, 1]
        assert manager.members_set("qb") == {"qb"}
