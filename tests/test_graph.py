"""Tests for repro.core.graph — the unifiability graph (§4.1.1)."""

from __future__ import annotations

import pytest

from repro.core.graph import UnifiabilityGraph, build_unifiability_graph
from repro.core.query import EntangledQuery, rename_workload_apart
from repro.core.terms import Constant, Variable, atom
from repro.lang import parse_ir


def paper_running_example() -> list[EntangledQuery]:
    """The q1/q2/q3 example of paper Section 4.1.1."""
    return [
        parse_ir("{R(x1), S(x2)} T(x3) <- D1(x1, x2, x3)", "q1"),
        parse_ir("{T(1)} R(y1) <- D2(y1)", "q2"),
        parse_ir("{T(z1)} S(z2) <- D3(z1, z2)", "q3"),
    ]


class TestGraphConstruction:
    def test_paper_graph_shape(self):
        """Figure 4(a): q1 <-> q2 and q1 <-> q3 edges."""
        graph = build_unifiability_graph(paper_running_example())
        assert graph.successors("q1") == {"q2", "q3"}
        assert graph.predecessors("q1") == {"q2", "q3"}
        assert graph.successors("q2") == {"q1"}
        assert graph.successors("q3") == {"q1"}

    def test_indegree_vs_pccount(self):
        """Safety gives INDEGREE(q) <= PCCOUNT(q) (§4.1.1)."""
        graph = build_unifiability_graph(paper_running_example())
        for query_id in graph.query_ids():
            assert (graph.indegree(query_id)
                    <= graph.query(query_id).pccount)
        # Here equality holds: every postcondition has a provider.
        assert graph.indegree("q1") == 2
        assert graph.indegree("q2") == 1

    def test_edge_unifiers(self):
        graph = build_unifiability_graph(paper_running_example())
        (edge,) = graph.in_edges_for_pc("q2", 0)
        assert edge.src == "q1"
        # T(x3) unified with T(1): x3 = 1.
        assert edge.unifier.constant_of(Variable("x3")) == Constant(1)

    def test_no_self_edges(self):
        """A query's head must not satisfy its own postcondition."""
        query = parse_ir("{R(x)} R(y) <- D(x, y)", "selfish")
        graph = build_unifiability_graph([query])
        assert graph.out_edges("selfish") == []
        assert graph.in_edges("selfish") == []

    def test_duplicate_id_rejected(self):
        graph = UnifiabilityGraph()
        graph.add_query(parse_ir("{} R(1)", "dup"))
        with pytest.raises(KeyError):
            graph.add_query(parse_ir("{} S(1)", "dup"))

    def test_add_query_returns_new_edges_both_directions(self):
        graph = UnifiabilityGraph()
        graph.add_query(parse_ir("{R(Kramer, x)} R(Jerry, x) "
                                 "<- F(x, Paris)", "jerry"))
        delta = graph.add_query(
            parse_ir("{R(Jerry, y)} R(Kramer, y) <- F(y, Paris)",
                     "kramer"))
        # Incoming: jerry's head 0 provides kramer's postcondition 0;
        # outgoing: kramer's head was written into jerry's slot 0.
        assert [list(refs) for refs in delta.providers] == [[("jerry", 0)]]
        assert list(delta.slots) == [("jerry", 0)]
        directions = {(edge.src, edge.dst)
                      for edge in (graph.in_edges("kramer")
                                   + graph.out_edges("kramer"))}
        assert directions == {("kramer", "jerry"), ("jerry", "kramer")}

    def test_naive_index_variant_equivalent(self):
        queries = rename_workload_apart(paper_running_example())
        indexed = build_unifiability_graph(queries, use_index=True)
        naive = build_unifiability_graph(queries, use_index=False)
        for query_id in ("q1", "q2", "q3"):
            assert (indexed.successors(query_id)
                    == naive.successors(query_id))


class TestGraphRemoval:
    def test_remove_clears_edges(self):
        graph = build_unifiability_graph(paper_running_example())
        graph.remove_query("q2")
        assert "q2" not in graph
        assert graph.successors("q1") == {"q3"}
        assert graph.unsatisfied_pcs("q1") == [0]  # R(x1) lost provider

    def test_remove_missing_is_noop(self):
        graph = build_unifiability_graph(paper_running_example())
        graph.remove_query("ghost")
        assert len(graph) == 3

    def test_reinsert_after_remove(self):
        queries = paper_running_example()
        graph = build_unifiability_graph(queries)
        graph.remove_query("q2")
        graph.add_query(queries[1])
        assert graph.successors("q2") == {"q1"}
        assert graph.in_edges_for_pc("q2", 0)


class TestDerivedQuantities:
    def test_unsatisfied_pcs(self):
        graph = UnifiabilityGraph()
        graph.add_query(parse_ir("{R(Kramer, x)} R(Jerry, x) "
                                 "<- F(x, Paris)", "jerry"))
        assert graph.unsatisfied_pcs("jerry") == [0]
        assert not graph.is_fully_matched("jerry")
        graph.add_query(parse_ir("{R(Jerry, y)} R(Kramer, y) "
                                 "<- F(y, Paris)", "kramer"))
        assert graph.is_fully_matched("jerry")
        assert graph.is_fully_matched("kramer")

    def test_connected_components(self):
        queries = paper_running_example()
        queries.append(parse_ir("{Z(q)} W(q) <- D4(q)", "island"))
        graph = build_unifiability_graph(rename_workload_apart(queries))
        components = sorted(graph.connected_components(), key=len)
        assert [len(component) for component in components] == [1, 3]
        assert components[0] == {"island"}

    def test_component_of(self):
        graph = build_unifiability_graph(paper_running_example())
        assert graph.component_of("q2") == {"q1", "q2", "q3"}

    def test_descendants(self):
        graph = build_unifiability_graph(paper_running_example())
        # q1's head feeds q2 and q3; their heads feed q1 back: all
        # three are mutually reachable.
        assert graph.descendants("q1") == {"q1", "q2", "q3"}

    def test_descendants_of_chain(self):
        # a provides for b; b provides for c (chain, no cycle).
        queries = [
            parse_ir("{} A(1)", "a"),
            parse_ir("{A(1)} B(2)", "b"),
            parse_ir("{B(2)} C(3)", "c"),
        ]
        graph = build_unifiability_graph(queries)
        assert graph.descendants("a") == {"b", "c"}
        assert graph.descendants("c") == set()

    def test_multigraph_parallel_edges(self):
        """Two heads of one query can satisfy two pcs of another."""
        provider = parse_ir("{} R(1), R(2)", "provider")
        consumer = parse_ir("{R(1), R(2)} S(9)", "consumer")
        graph = build_unifiability_graph([provider, consumer])
        assert len(graph.out_edges("provider")) >= 2
        assert graph.indegree("consumer") >= 2


def test_removing_every_query_leaves_no_residue():
    """Every per-query and per-ref map, and both atom indexes, empty
    out once the last query leaves (long-lived engines would otherwise
    grow with history, not with the pending set)."""
    queries = rename_workload_apart(paper_running_example() + [
        parse_ir("{T(w1)} R(w1) <- D2(w1)", "q4"),
        parse_ir("{R(v1)} T(v1) ∧ S(v1) <- D1(v1, v1, v1)", "q5"),
    ])
    graph = UnifiabilityGraph()
    for round_ in range(2):
        for query in queries:
            graph.add_query(query)
        assert any(graph.provider_refs(query.query_id)[0]
                   for query in queries if query.pccount)
        for query in (queries if round_ else reversed(queries)):
            graph.remove_query(query.query_id)
        assert len(graph) == 0
        for residue in (graph._providers, graph._dependents,
                        graph._head_values, graph._rank,
                        graph._head_index._relations,
                        graph._pc_index._relations):
            assert residue == {}
        assert len(graph._head_index) == len(graph._pc_index) == 0
