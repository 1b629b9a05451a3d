"""Property-based tests for the matching pipeline's invariants.

Random *safe* workloads are generated as collections of mutually
coordinating groups (pairs, triangles, stars); whatever the shapes,
Algorithm 1's outcome must satisfy the structural invariants the
paper's correctness argument relies on.
"""

from __future__ import annotations

import random

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.combine import build_combined_query
from repro.core.graph import UnifiabilityGraph, build_unifiability_graph
from repro.core.matching import match_all, match_component
from repro.core.query import EntangledQuery, rename_workload_apart
from repro.core.terms import Variable, atom
from repro.core.unify import mgu
from repro.engine.partitions import PartitionManager


def _cycle_group(group_index: int, size: int,
                 destination: str) -> list[EntangledQuery]:
    """A ring of `size` queries, each requiring the next one's head."""
    names = [f"g{group_index}m{position}" for position in range(size)]
    queries = []
    for position, name in enumerate(names):
        partner = names[(position + 1) % size]
        variable = Variable("v")
        queries.append(EntangledQuery(
            query_id=name,
            head=(atom("R", name.upper(), variable),),
            postconditions=(atom("R", partner.upper(), variable),),
            body=(atom("D", variable, destination),)))
    return queries


def _star_group(group_index: int, leaves: int,
                destination: str) -> list[EntangledQuery]:
    """A hub plus `leaves` queries; hub requires all leaves, each leaf
    requires the hub — a (leaves+1)-clique-like closed structure."""
    hub = f"s{group_index}hub"
    leaf_names = [f"s{group_index}leaf{position}"
                  for position in range(leaves)]
    variable = Variable("w")
    queries = [EntangledQuery(
        query_id=hub,
        head=(atom("R", hub.upper(), variable),),
        postconditions=tuple(atom("R", leaf.upper(), variable)
                             for leaf in leaf_names),
        body=(atom("D", variable, destination),))]
    for leaf in leaf_names:
        leaf_variable = Variable("u")
        queries.append(EntangledQuery(
            query_id=leaf,
            head=(atom("R", leaf.upper(), leaf_variable),),
            postconditions=(atom("R", hub.upper(), leaf_variable),),
            body=(atom("D", leaf_variable, destination),)))
    return queries


@st.composite
def _workloads(draw):
    group_count = draw(st.integers(min_value=1, max_value=4))
    queries: list[EntangledQuery] = []
    for group_index in range(group_count):
        destination = draw(st.sampled_from(["P", "Q"]))
        if draw(st.booleans()):
            size = draw(st.integers(min_value=2, max_value=4))
            queries.extend(_cycle_group(group_index, size, destination))
        else:
            leaves = draw(st.integers(min_value=1, max_value=3))
            queries.extend(_star_group(group_index, leaves, destination))
    # Sprinkle in queries with unsatisfiable postconditions.
    for extra in range(draw(st.integers(min_value=0, max_value=2))):
        variable = Variable("z")
        queries.append(EntangledQuery(
            query_id=f"lonely{extra}",
            head=(atom("R", f"LONELY{extra}", variable),),
            postconditions=(atom("R", f"NOBODY{extra}", variable),),
            body=(atom("D", variable, "P"),)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=99)))
    rng.shuffle(queries)
    return queries


@given(_workloads())
@settings(max_examples=60, deadline=None)
def test_matching_invariants(queries):
    graph = build_unifiability_graph(rename_workload_apart(queries))
    matches = match_all(graph)

    covered = set()
    for match in matches:
        # Components partition the workload.
        assert not (set(match.component) & covered)
        covered.update(match.component)
        # Survivors + removed == component.
        assert set(match.survivors) | set(match.removed) == \
            set(match.component)
        assert not (set(match.survivors) & set(match.removed))

        for query_id in match.survivors:
            query = graph.query(query_id)
            # Every postcondition of a survivor has a chosen provider
            # that is itself a survivor.
            for pc_pos in range(query.pccount):
                edge = match.chosen_edges[(query_id, pc_pos)]
                assert edge.src in match.survivors
            # Node unifiers embed the chosen in-edge constraints.
            unifier = match.unifiers[query_id]
            for pc_pos in range(query.pccount):
                edge = match.chosen_edges[(query_id, pc_pos)]
                assert mgu(unifier, edge.unifier) == unifier

        if match.survivors and match.global_unifier is not None:
            # The global unifier is at least as strong as every node's.
            for query_id in match.survivors:
                merged = mgu(match.global_unifier,
                             match.unifiers[query_id])
                assert merged == match.global_unifier
    assert covered == set(graph.query_ids())


@given(_workloads())
@settings(max_examples=40, deadline=None)
def test_combined_query_heads_cover_postconditions(queries):
    """Grounding the combined query yields a coordinating set."""
    from repro.core.query import GroundedQuery, is_coordinating_set
    from repro.core.terms import Constant

    graph = build_unifiability_graph(rename_workload_apart(queries))
    queries_by_id = {query.query_id: query for query in
                     rename_workload_apart(queries)}
    for match in match_all(graph):
        if not match.survivors or match.global_unifier is None:
            continue
        combined = build_combined_query(queries_by_id, match)
        # Fabricate a valuation: every remaining variable -> token value.
        valuation = {variable: f"val-{variable.name}"
                     for variable in combined.query.variables()}
        mapping = {variable: Constant(value)
                   for variable, value in valuation.items()}
        groundings = []
        for query_id in combined.survivors:
            query = queries_by_id[query_id]
            substitution = combined.unifier.substitution()
            heads = tuple(
                item.substitute(substitution).substitute(mapping)
                for item in query.head)
            postconditions = tuple(
                item.substitute(substitution).substitute(mapping)
                for item in query.postconditions)
            groundings.append(GroundedQuery(query_id, heads,
                                            postconditions))
        assert is_coordinating_set(groundings)

# ----------------------------------------------------------------------
# resumed matching == from-scratch matching
# ----------------------------------------------------------------------

def _joiner(index: int, destination: str, pin) -> EntangledQuery:
    """A cluster-style query: its postcondition ``R(x, dest)`` unifies
    with every head over *destination*, so it joins (and keeps
    extending) whatever component lives there.  *pin* optionally fixes
    the partner, which makes some joiners conflict with their
    provider's constraints."""
    partner = Variable("x") if pin is None else pin
    return EntangledQuery(
        query_id=f"j{index}",
        head=(atom("R", f"J{index}", destination),),
        postconditions=(atom("R", partner, destination),),
        body=(atom("D", partner, destination),))


@st.composite
def _histories(draw):
    """A workload plus an interleaving of in-order adds, out-of-order
    adds (a removed query re-entering under its old sequence number,
    as an import does) and removals, and after each step whether the
    matchings are read."""
    queries = draw(_workloads())
    for index in range(draw(st.integers(min_value=2, max_value=7))):
        destination = draw(st.sampled_from(["P", "Q"]))
        pin = draw(st.sampled_from([None, None, "J0", "G0M0", "NOBODY"]))
        queries.append(_joiner(index, destination, pin))
    rng = random.Random(draw(st.integers(min_value=0, max_value=999)))
    rng.shuffle(queries)
    steps = draw(st.lists(st.sampled_from(["add", "add", "add", "remove",
                                           "readd"]),
                          min_size=len(queries),
                          max_size=len(queries) + 12))
    reads = draw(st.lists(st.booleans(), min_size=len(steps),
                          max_size=len(steps)))
    return rename_workload_apart(queries), list(zip(steps, reads)), rng


@given(_histories())
@settings(max_examples=150, deadline=None)
def test_resumed_match_state_equals_from_scratch(history):
    """Whatever the history, every component's carried
    :class:`MatchState` is the matching ``match_component`` computes
    from scratch — read after every step or after several arrivals
    were only recorded on it, and always at the end."""
    queries, steps, rng = history
    graph = UnifiabilityGraph()
    order: dict = {}
    manager = PartitionManager(graph, order, track_matching=True)
    waiting = list(enumerate(queries))
    removed: list = []
    resumed_reads = deferred = 0

    def admit(seq, query):
        order[query.query_id] = seq
        manager.add_query(query, graph.add_query(query))

    for index, (step, read) in enumerate(steps):
        if step == "add" and waiting:
            admit(*waiting.pop(0))
        elif step == "readd" and removed:
            admit(*removed.pop(rng.randrange(len(removed))))
        elif step == "remove" and len(graph):
            query_id = rng.choice(sorted(graph.query_ids()))
            removed.append((order[query_id], graph.query(query_id)))
            graph.remove_query(query_id)
            manager.remove_queries([query_id])
        if not read and index < len(steps) - 1:
            continue
        for root in manager.roots():
            state, resumed = manager.match_state(root)
            resumed_reads += resumed
            deferred = max(deferred, len(state._pending))
            got = state.result()
            want = match_component(graph, manager.members_set(root),
                                   order=order)
            assert got.component == want.component
            assert got.survivors == want.survivors
            assert got.removed == want.removed
            assert got.chosen_edges == want.chosen_edges
            assert got.unifiers == want.unifiers
            assert got.global_unifier == want.global_unifier
    event(f"resumed reads: {min(resumed_reads, 20) // 5 * 5}+")
    event(f"most arrivals folded at one read: {min(deferred, 4)}+")
