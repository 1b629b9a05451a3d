"""The edge view's contract (DESIGN.md §3).

The unifiability graph stores provider refs, not edges.  Whatever the
history of arrivals, removals and ids re-submitted under another head,
every read accessor must show exactly the edges a brute-force
``unify_atoms`` over all (head, postcondition) pairs of the live queries
finds — in insertion-rank order, self-edges excluded — on both index
classes; a ``submit_many`` block must leave what the loop of ``submit``
leaves; and the number of ``Edge`` objects actually built must stay a
small multiple of the arrivals, readable from the stats surface.
"""

from __future__ import annotations

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.graph import Edge, UnifiabilityGraph
from repro.core.matching import match_component
from repro.core.query import EntangledQuery
from repro.core.terms import Atom, Constant, Variable, atom
from repro.core.unify import unify_atoms
from repro.db import Database
from repro.engine import D3CEngine
from repro.shard import ShardedCoordinator
from repro.workloads import (big_cluster_queries, build_flight_database,
                             generate_social_network, two_way_pairs)

# Two constants and two variables, mostly over one binary relation:
# most pairs of atoms share a relation, so shared constants (R(A, x) /
# R(A, B)), repeated variables (R(x, x)) and all-variable atoms
# (R(x, y)) all occur and decide unifiability in both directions.
_TERMS = st.sampled_from([Constant("A"), Constant(1),
                          Variable("x"), Variable("y")])
_BINARY = st.builds(lambda left, right: Atom("R", (left, right)),
                    _TERMS, _TERMS)
_ATOMS = st.one_of(_BINARY, _BINARY, st.builds(
    lambda a, b, c: Atom("T", (a, b, c)), _TERMS, _TERMS, _TERMS))
_IDS = st.sampled_from([f"q{index}" for index in range(6)])


@st.composite
def _queries(draw, query_id=None):
    query_id = draw(_IDS) if query_id is None else query_id
    head = draw(st.lists(_ATOMS, min_size=1, max_size=2))
    postconditions = draw(st.lists(_ATOMS, min_size=0, max_size=2))
    variables = sorted({term.name for item in head + postconditions
                        for term in item.variables()})
    # The body binds every variable over a table that stays empty, so
    # engines admit the query and nothing ever settles.
    body = [atom("D", Variable("z"))] + [atom("D", Variable(name))
                                         for name in variables]
    return EntangledQuery(query_id, tuple(head), tuple(postconditions),
                          tuple(body)).rename_apart()


#: ("put", query) adds the query, first removing a live query of the
#: same id (so the id comes back with other atoms); ("drop", id)
#: removes it if live.
_PUT = st.tuples(st.just("put"), _queries())
_STEPS = st.lists(st.one_of(_PUT, _PUT, _PUT,
                            st.tuples(st.just("drop"), _IDS)),
                  min_size=8, max_size=30)


def _brute_force(live: list) -> list[tuple]:
    """Every (src, head_pos, dst, pc_pos) over the live queries (a list
    in insertion-rank order), ordered by destination, postcondition,
    then provider rank and head position."""
    return [(src.query_id, head_pos, dst.query_id, pc_pos)
            for dst in live
            for pc_pos, pc_atom in enumerate(dst.postconditions)
            for src in live if src is not dst
            for head_pos, head in enumerate(src.head)
            if unify_atoms(head, pc_atom) is not None]


def _keys(edges) -> list[tuple]:
    return [(edge.src, edge.head_pos, edge.dst, edge.pc_pos)
            for edge in edges]


def _components(live: list, edges: list[tuple]) -> set[frozenset]:
    component = {query.query_id: {query.query_id} for query in live}
    for src, _, dst, _ in edges:
        if component[src] is not component[dst]:
            component[src] |= component[dst]
            for member in component[dst]:
                component[member] = component[src]
    return {frozenset(members) for members in component.values()}


def _assert_view(graph: UnifiabilityGraph, live: list) -> None:
    expected = _brute_force(live)
    rank = {query.query_id: index for index, query in enumerate(live)}
    assert list(graph.query_ids()) == [query.query_id for query in live]
    for query in live:
        query_id = query.query_id
        incoming = [key for key in expected if key[2] == query_id]
        assert _keys(graph.in_edges(query_id)) == incoming
        assert graph.indegree(query_id) == len(incoming)
        assert graph.predecessors(query_id) == {key[0] for key in incoming}
        open_pcs = []
        for pc_pos in range(query.pccount):
            into_pc = [key for key in incoming if key[3] == pc_pos]
            assert list(graph.provider_refs(query_id)[pc_pos]) \
                == [key[:2] for key in into_pc]
            assert _keys(graph.in_edges_for_pc(query_id, pc_pos)) \
                == into_pc
            by_src = graph.in_edges_by_src(query_id, pc_pos)
            assert [key for edges in by_src.values()
                    for key in _keys(edges)] == into_pc
            assert all(edge.src == src for src, edges in by_src.items()
                       for edge in edges)
            if not into_pc:
                open_pcs.append(pc_pos)
        assert graph.unsatisfied_pcs(query_id) == open_pcs
        assert graph.is_fully_matched(query_id) == (not open_pcs)
        outgoing = sorted((key for key in expected if key[0] == query_id),
                          key=lambda key: (rank[key[2]], key[3], key[1]))
        assert _keys(graph.out_edges(query_id)) == outgoing
        assert graph.successors(query_id) == {key[2] for key in outgoing}
    components = _components(live, expected)
    assert {frozenset(component)
            for component in graph.connected_components()} == components
    assert len(graph.connected_components()) == len(components)
    for query in live:
        assert frozenset(graph.component_of(query.query_id)) in components
    for edge in (edge for query in live
                 for edge in graph.in_edges(query.query_id)):
        assert edge.unifier == unify_atoms(edge.head_atom, edge.pc_atom)


@given(_STEPS)
@settings(max_examples=150, deadline=None)
def test_view_equals_brute_force_unification(steps):
    graphs = [UnifiabilityGraph(use_index=True),
              UnifiabilityGraph(use_index=False)]
    live: list = []
    for kind, payload in steps:
        query_id = payload.query_id if kind == "put" else payload
        live = [query for query in live if query.query_id != query_id]
        for graph in graphs:
            graph.remove_query(query_id)
            if kind == "put":
                graph.add_query(payload)
        if kind == "put":
            live.append(payload)
        for graph in graphs:
            _assert_view(graph, live)
    event(f"edges at the end: {min(len(_brute_force(live)), 20) // 5 * 5}+")


def _engine_state(engine: D3CEngine, queries: list) -> tuple:
    graph, partitions = engine._graph, engine._partitions
    view = [(query.query_id, _keys(graph.in_edges(query.query_id)),
             _keys(graph.out_edges(query.query_id)))
            for query in queries if query.query_id in graph]
    components = sorted(sorted(partitions.members_set(root))
                        for root in partitions.roots())
    matches = []
    if engine.incremental_strategy == "component":
        for members in components:
            state, _ = partitions.match_state(members[0])
            match = state.result()
            assert match == match_component(graph, members,
                                            order=engine._arrival)
            matches.append((match.component, match.survivors,
                            match.chosen_edges, match.unifiers,
                            match.global_unifier))
    return view, components, matches


@given(st.lists(_IDS, min_size=2, max_size=6, unique=True).flatmap(
           lambda ids: st.tuples(*[_queries(query_id=query_id)
                                   for query_id in ids])),
       st.integers(min_value=0, max_value=6),
       st.sampled_from([("incremental", "component"),
                        ("incremental", "local"), ("batch", "local")]))
@settings(max_examples=60, deadline=None)
def test_block_leaves_what_the_loop_of_submits_leaves(queries, split,
                                                      shape):
    mode, strategy = shape
    database = Database()
    database.create_table("D", "v text")

    def engine():
        return D3CEngine(database, mode=mode,
                         incremental_strategy=strategy)
    loop, block = engine(), engine()
    loop.submit_all(queries)
    block.submit_many(queries[:split])
    block.submit_many(queries[split:])
    assert loop.pending_count == block.pending_count == len(queries)
    assert _engine_state(loop, queries) == _engine_state(block, queries)


class TestEdgeValues:
    def test_edges_are_values_memoised_per_ref(self):
        graph = UnifiabilityGraph()
        graph.add_query(EntangledQuery(
            "p", (atom("R", "A", 1),), (), ()))
        graph.add_query(EntangledQuery(
            "c", (atom("S", 1),), (atom("R", Variable("x"), 1),), ()))
        assert graph.edges_materialised == 0
        assert graph.indegree("c") == 1 and graph.successors("p") == {"c"}
        assert graph.edges_materialised == 0  # counting builds nothing
        (edge,) = graph.in_edges("c")
        assert graph.out_edges("p") == [edge]
        assert graph.edge("c", 0, ("p", 0)) is edge  # kept in its slot
        assert graph.edges_materialised == 1
        twin = Edge("p", 0, "c", 0, edge.head_atom, edge.pc_atom)
        assert twin == edge and twin is not edge
        assert hash(twin) == hash(edge) and len({twin, edge}) == 1
        assert twin != Edge("p", 0, "c", 1, edge.head_atom, edge.pc_atom)

    def test_resubmitted_id_with_another_head_finds_no_stale_ref(self):
        for use_index in (True, False):
            graph = UnifiabilityGraph(use_index=use_index)
            graph.add_query(EntangledQuery(
                "c", (atom("S", 1),), (atom("R", Variable("x"), 1),), ()))
            graph.add_query(EntangledQuery(
                "p", (atom("R", "A", 1),), (), ()))
            assert _keys(graph.in_edges("c")) == [("p", 0, "c", 0)]
            graph.remove_query("p")
            assert graph.in_edges("c") == []
            assert graph.unsatisfied_pcs("c") == [0]
            # The id comes back providing nothing c asks for ...
            graph.add_query(EntangledQuery(
                "p", (atom("R", "A", 2),), (), ()))
            assert graph.in_edges("c") == [] == graph.out_edges("p")
            graph.remove_query("p")
            # ... and again with two heads, the second of which does.
            graph.add_query(EntangledQuery(
                "p", (atom("R", "A", 2), atom("R", "B", 1)), (), ()))
            assert _keys(graph.in_edges("c")) == [("p", 1, "c", 0)]
            assert graph.in_edges("c")[0].head_atom == atom("R", "B", 1)


class TestEdgesMaterialised:
    """The mechanism, read off the stats surface: edges are built for
    the refs matching follows, not for the pairs that unify."""

    def test_cluster_builds_at_most_two_edges_per_arrival(self):
        network = generate_social_network(num_users=4_000, seed=0)
        engine = D3CEngine(build_flight_database(network),
                           incremental_strategy="component")
        arrivals = big_cluster_queries(network, 200, seed=12)
        engine.submit_all(arrivals)
        # Every arrival unifies with nearly every other, both ways
        # (39 008 pairs); it follows one ref, its chosen provider.
        graph = engine._graph
        assert sum(graph.indegree(query_id)
                   for query_id in graph.query_ids()) > 30_000
        assert 0 < engine.stats.edges_materialised <= 2 * len(arrivals)
        # Arrivals answered from the carried verdict are never folded.
        assert engine.stats.edges_materialised <= 10
        assert engine.metrics_snapshot()["counters"][
            "edges_materialised"] == engine.stats.edges_materialised

    def test_pairs_build_few_edges_and_the_fleet_reports_them(self):
        network = generate_social_network(num_users=4_000, seed=0)
        database = build_flight_database(network)
        arrivals = two_way_pairs(network, 4_000, seed=12)
        engine = D3CEngine(database)
        engine.submit_all(arrivals)
        assert engine.stats.answered > 2_000
        assert 0 < engine.stats.edges_materialised <= 51_000
        fleet = ShardedCoordinator(database, num_shards=2)
        try:
            fleet.submit_many(arrivals[:400])
            counters = fleet.metrics_snapshot()["counters"]
            assert 0 < counters["edges_materialised"] <= 51_000
            assert sum(backend.engine.stats.edges_materialised
                       for backend in fleet._backends) \
                == counters["edges_materialised"]
        finally:
            fleet.close()
