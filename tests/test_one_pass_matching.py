"""One-pass Algorithm 1 against the work-queue fixpoint it replaced.

``MatchState._settle`` computes Algorithm 1's fixpoint in one pass over
the strongly connected components of the chosen edges;
``reference_matching.FixpointMatchState`` reaches it by queue
propagation, as the paper states it.  The twin test requires equal
``ComponentMatch`` values on random graphs — cycles, chains whose
constants clash hops away, missing providers, dead providers feeding
cycles, multi-head providers, several candidates per postcondition —
from scratch and after every resumed ``add``; the counting tests pin
the work one closure costs (counts, not timings).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_matching import FixpointMatchState
from repro.core.graph import UnifiabilityGraph
from repro.core.matching import MatchState, match_component
from repro.core.query import EntangledQuery, rename_workload_apart
from repro.core.terms import Variable, atom
from repro.core.unify import Unifier

_RELATIONS = ("R", "S")


@st.composite
def _workloads(draw):
    """Queries over two answer relations ``(owner, value)``.

    Owners come from a pool no larger than the workload, so a
    postcondition may find no, one or several providers; values are the
    query's own variable or one of two constants, so constraints meet
    and clash along chains and cycles of any length.
    """
    count = draw(st.integers(min_value=1, max_value=7))
    owners = [f"N{index}" for index in range(count)]
    queries = []
    for index in range(count):
        variable = Variable("v")
        values = st.sampled_from([variable, 1, 2])
        head_count = draw(st.integers(min_value=1, max_value=2))
        head = tuple(
            atom(relation, draw(st.sampled_from(owners)), draw(values))
            for relation in _RELATIONS[:head_count])
        postconditions = tuple(
            atom(draw(st.sampled_from(_RELATIONS)),
                 draw(st.sampled_from(owners + ["NOBODY"])),
                 draw(values))
            for _ in range(draw(st.integers(min_value=0, max_value=3))))
        queries.append(EntangledQuery(
            query_id=f"q{index}", head=head,
            postconditions=postconditions,
            body=(atom("D", variable),)))
    return rename_workload_apart(queries)


def _from_scratch(cls, graph, order):
    state = cls(graph, order)
    state.extend(sorted(graph.query_ids(), key=order.__getitem__))
    return state


@given(_workloads())
@settings(max_examples=300, deadline=None)
def test_one_pass_equals_fixpoint_from_scratch(queries):
    graph = UnifiabilityGraph()
    for query in queries:
        graph.add_query(query)
    order = graph.insertion_ranks
    assert (_from_scratch(MatchState, graph, order).result()
            == _from_scratch(FixpointMatchState, graph, order).result())


@given(_workloads(), st.integers(min_value=0, max_value=99),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_one_pass_equals_fixpoint_after_every_resumed_add(
        queries, seed, in_order):
    """Both states accept and refuse the same arrivals (out of order,
    or a first provider of a settled member), and agree after each."""
    arrival = list(range(len(queries)))
    if not in_order:
        random.Random(seed).shuffle(arrival)
    graph = UnifiabilityGraph()
    order: dict = {}
    states = [MatchState(graph, order), FixpointMatchState(graph, order)]
    for query, sequence in zip(queries, arrival):
        order[query.query_id] = sequence
        delta = graph.add_query(query)
        # A slot that holds only the arrival's refs had no provider.
        revives = any(
            {src for src, _ in graph.provider_refs(dst)[pc_pos]}
            == {query.query_id}
            for dst, pc_pos in delta.slots)
        accepted = [not revives and state.add(query.query_id)
                    for state in states]
        assert accepted[0] == accepted[1]
        if not accepted[0]:
            states = [_from_scratch(cls, graph, order)
                      for cls in (MatchState, FixpointMatchState)]
        one_pass, fixpoint = (state.result() for state in states)
        assert one_pass == fixpoint
        assert one_pass == _from_scratch(MatchState, graph,
                                         order).result()


def _graph_of(queries) -> UnifiabilityGraph:
    graph = UnifiabilityGraph()
    for query in rename_workload_apart(queries):
        graph.add_query(query)
    return graph


def _ring(size: int) -> list:
    variable = Variable("v")
    return [EntangledQuery(
        query_id=f"r{index}",
        head=(atom("R", f"R{index}", variable),),
        postconditions=(atom("R", f"R{(index + 1) % size}", variable),),
        body=(atom("D", variable),)) for index in range(size)]


def test_dead_provider_feeding_a_live_cycle_removes_the_cycle():
    variable = Variable("v")
    ring = _ring(2)
    # r0 additionally needs X, whose own postcondition nobody provides.
    ring[0] = EntangledQuery(
        query_id="r0", head=ring[0].head,
        postconditions=ring[0].postconditions
        + (atom("R", "X", variable),),
        body=ring[0].body)
    dead = EntangledQuery(
        query_id="x", head=(atom("R", "X", variable),),
        postconditions=(atom("R", "NOBODY", variable),),
        body=(atom("D", variable),))
    bystanders = _ring(3)
    for index, query in enumerate(bystanders):
        bystanders[index] = EntangledQuery(
            query_id=f"b{index}",
            head=(atom("S", f"R{index}", variable),),
            postconditions=(atom("S", f"R{(index + 1) % 3}", variable),),
            body=query.body)
    graph = _graph_of([dead, *ring, *bystanders])
    match = match_component(graph, set(graph.query_ids()))
    assert set(match.removed) == {"x", "r0", "r1"}
    assert match.survivors == ("b0", "b1", "b2")
    # One cycle, one unifier object.
    assert len({id(match.unifiers[query_id])
                for query_id in match.survivors}) == 1


def test_constants_clashing_two_hops_up_remove_only_the_descendants():
    variable = Variable("v")

    def link(name, value, needs):
        return EntangledQuery(
            query_id=name.lower(), head=(atom("R", name, value),),
            postconditions=tuple(atom("R", target, variable)
                                 for target in needs),
            body=(atom("D", variable),))

    graph = _graph_of([
        link("TOP1", 1, ()), link("TOP2", 2, ()),
        link("MID1", variable, ("TOP1",)),
        link("MID2", variable, ("TOP2",)),
        # Its own in-edges agree (v = MID1's = MID2's variable); the
        # closures behind them say 1 and 2.
        link("LOW", variable, ("MID1", "MID2")),
        link("LOWER", variable, ("LOW",)),
    ])
    match = match_component(graph, set(graph.query_ids()))
    assert set(match.removed) == {"low", "lower"}
    assert match.survivors == ("top1", "top2", "mid1", "mid2")
    assert match.is_answerable


class _Counts:
    """Calls of the three ``Unifier`` methods a closure is made of."""

    def __init__(self, monkeypatch):
        self.update = self.copy = self.canonical = 0
        for name in ("update", "copy", "canonical"):
            monkeypatch.setattr(Unifier, name,
                                self._counting(name, getattr(Unifier,
                                                             name)))

    def _counting(self, name, method):
        def counted(unifier, *args):
            setattr(self, name, getattr(self, name) + 1)
            return method(unifier, *args)
        return counted


def test_a_mutual_pair_closure_costs_a_handful_of_folds(monkeypatch):
    graph = _graph_of(_ring(2))
    counts = _Counts(monkeypatch)
    match = match_component(graph, {"r0", "r1"})
    assert match.is_complete
    assert counts.update <= 4
    assert counts.copy <= 1
    assert counts.canonical == 0


def _chain(length: int) -> list:
    """Query i relies on query i + 1; the last relies on nobody."""
    variable = Variable("v")
    return [EntangledQuery(
        query_id=f"c{index}",
        head=(atom("R", f"C{index}", variable),),
        postconditions=((atom("R", f"C{index + 1}", variable),)
                        if index + 1 < length else ()),
        body=(atom("D", variable),)) for index in range(length)]


@pytest.mark.parametrize("length", [8, 32])
def test_a_chain_costs_linearly_many_folds(monkeypatch, length):
    graph = _graph_of(_chain(length))
    order = graph.insertion_ranks
    counts = _Counts(monkeypatch)
    one_pass = _from_scratch(MatchState, graph, order).result()
    folds = counts.update
    # Per member: its in-edge, its provider's closure, the global fold.
    assert folds <= 3 * length
    assert counts.canonical == 0
    # The queue form re-propagates every closure down the chain.
    counts.update = 0
    fixpoint = _from_scratch(FixpointMatchState, graph, order).result()
    assert counts.update > length * length / 4
    assert one_pass == fixpoint and one_pass.is_complete
