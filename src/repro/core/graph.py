"""The unifiability graph (paper Section 4.1.1).

A directed multigraph with one node per query.  There is an edge from
``N(qi)`` to ``N(qj)`` for each pair ``(h, p)`` where ``h`` is a head atom
of ``qi``, ``p`` a postcondition atom of ``qj``, and ``h`` unifies with
``p`` — i.e. an edge points from the *provider* of an answer tuple to the
*requirer*.

The graph supports incremental insertion and removal of queries, which
the engine's incremental mode relies on, and exposes the derived
quantities the matching algorithm needs: per-postcondition providers,
successors/predecessors, and connected components.  Edges are a view
over per-postcondition provider refs, not stored objects; DESIGN.md §3
states the contract.

Self-edges (a query's own head satisfying its own postcondition) are
excluded; see DESIGN.md §3 for why this interpretation is forced by the
paper's own experimental workloads.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (Callable, Iterable, Iterator, Mapping, NamedTuple,
                    Optional, Sequence)

from .atom_index import AtomIndex, NaiveAtomIndex
from .query import EntangledQuery
from .terms import Atom, Constant
from .unify import Unifier, unify_atoms

#: Handle for a specific head atom: (query_id, head_position).
HeadRef = tuple
#: Handle for a specific postcondition atom: (query_id, pc_position).
PcRef = tuple

#: The query id of either handle.
_FIRST = itemgetter(0)


class Edge:
    """One unifiable (head, postcondition) pair, as a value.

    The graph stores edges as provider refs and builds an ``Edge`` only
    for a pair a caller follows (see :class:`UnifiabilityGraph`), so two
    edges for the same ``(src, head_pos, dst, pc_pos)`` are equal, not
    necessarily identical.

    Attributes:
        src: query id providing the head atom.
        head_pos: index of the head atom within ``src``'s head.
        dst: query id whose postcondition is satisfied.
        pc_pos: index of the postcondition atom within ``dst``.
        head_atom / pc_atom: the two atoms.
        unifier: the most general unifier of the two atoms — computed
            on first use and kept, so re-matching a pair the graph has
            already materialised unifies nothing again.
    """

    __slots__ = ("src", "head_pos", "dst", "pc_pos", "head_atom",
                 "pc_atom", "_unifier")

    def __init__(self, src: object, head_pos: int, dst: object,
                 pc_pos: int, head_atom: Atom, pc_atom: Atom):
        self.src = src
        self.head_pos = head_pos
        self.dst = dst
        self.pc_pos = pc_pos
        self.head_atom = head_atom
        self.pc_atom = pc_atom
        self._unifier: Optional[Unifier] = None

    @property
    def unifier(self) -> Unifier:
        """The atoms' MGU (cached; the edge's existence guarantees it)."""
        if self._unifier is None:
            self._unifier = unify_atoms(self.head_atom, self.pc_atom)
            assert self._unifier is not None, "edge atoms must unify"
        return self._unifier

    def _key(self) -> tuple:
        return self.src, self.head_pos, self.dst, self.pc_pos

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Edge) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"Edge({self.src!r}[{self.head_pos}] -> "
                f"{self.dst!r}[{self.pc_pos}])")


class GraphDelta(NamedTuple):
    """One structural change to the unifiability graph.

    The graph emits a delta to its listeners after every mutation; this
    is the protocol the engine's incremental scheduler consumes to keep
    partition state and the dirty-component worklist in sync without
    ever recomputing from scratch (see DESIGN.md §"Incremental
    runtime").  A NamedTuple, not a dataclass: one delta is built per
    graph mutation, squarely on the arrival hot path.

    Attributes:
        kind: ``"add"`` or ``"remove"``.
        query_id: the query inserted or removed.
        query: the inserted query (``None`` for removals).
        providers: per postcondition of the arrival, its provider-ref
            map — the graph's own live map, not a copy: read-only, and
            later arrivals append to it, so listeners read it when the
            delta is emitted (empty for removals).
        slots: the ``(dst, pc_pos)`` postconditions the arrival's heads
            were written into, in commit order — head position, then
            the slot's insertion rank (empty for removals).
    """

    kind: str
    query_id: object
    query: Optional[EntangledQuery]
    providers: tuple = ()
    slots: Sequence[PcRef] = ()


class UnifiabilityGraph:
    """Incremental multigraph over a set of entangled queries.

    Edges are a *view*.  What is stored, per pending postcondition, is
    one insertion-ordered map of **provider refs** — ``(src id, head
    pos)`` handles of the pending heads that unify with it, in
    insertion-rank order — filled from the two atom-index lookups an
    arrival makes (its heads against the pending postconditions, its
    postconditions against the pending heads).  The read accessors
    derive everything else from the refs and build an :class:`Edge`
    only for a ref a caller follows, memoised in the ref's own map
    slot.  Each query also remembers which queries hold one of its
    heads, so removal is O(degree) with no index lookup and leaves no
    ref behind for a re-submitted id to resurrect.

    Queries must be renamed apart before insertion.  ``counters`` is the
    object whose ``edges_materialised`` attribute counts the edges
    built (the engine passes its statistics; default: the graph).
    """

    def __init__(self, use_index: bool = True, counters: object = None):
        index_cls = AtomIndex if use_index else NaiveAtomIndex
        self._queries: dict[object, EntangledQuery] = {}
        self._head_index = index_cls()
        self._pc_index = index_cls()
        # dst query id -> per pc position, the provider refs of that
        # postcondition: {(src id, head pos): its Edge once built}.
        self._providers: dict[object, tuple[dict[HeadRef,
                                                 Optional[Edge]], ...]] = {}
        # src query id -> {dst id: None} of the queries holding a ref
        # to one of its heads (what removal walks).
        self._dependents: dict[object, dict[object, None]] = {}
        # head ref -> the head's argument values when it is ground,
        # else None (what a data-feasibility check compares a
        # candidate provider by).
        self._head_values: dict[HeadRef, Optional[tuple]] = {}
        # query id -> insertion rank: the order of every ref map, so
        # the view does not depend on how a query's neighbours arrived.
        self._rank: dict[object, int] = {}
        self._next_rank = 0
        self.edges_materialised = 0
        self._counters = self if counters is None else counters
        # delta listeners (the engine's scheduler); called after every
        # mutation with a GraphDelta.
        self._listeners: list[Callable[[GraphDelta], None]] = []

    # ------------------------------------------------------------------
    # delta protocol
    # ------------------------------------------------------------------

    def add_listener(self, listener: Callable[[GraphDelta], None]) -> None:
        """Register a callback invoked with a delta after each mutation."""
        self._listeners.append(listener)

    def _emit(self, delta: GraphDelta) -> None:
        for listener in self._listeners:
            listener(delta)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._queries)

    def __contains__(self, query_id: object) -> bool:
        return query_id in self._queries

    def query(self, query_id: object) -> EntangledQuery:
        """Return the query stored under *query_id*."""
        return self._queries[query_id]

    def query_ids(self) -> Iterator[object]:
        """Iterate over the ids of all queries in the graph."""
        return iter(self._queries)

    def queries(self) -> Iterator[EntangledQuery]:
        """Iterate over all queries in the graph."""
        return iter(self._queries.values())

    @property
    def insertion_ranks(self) -> dict[object, int]:
        """Live query id -> insertion rank mapping (read-only): the
        default arrival order of matching."""
        return self._rank

    # ------------------------------------------------------------------
    # the edge view
    # ------------------------------------------------------------------

    def provider_refs(self, query_id: object
                      ) -> tuple[Mapping[HeadRef, Optional[Edge]], ...]:
        """Per postcondition of *query_id*, the ``(src, head_pos)`` refs
        of the pending heads satisfying it, in insertion-rank order
        (read-only; iterate a map for its refs, and turn a ref into its
        edge with :meth:`edge`)."""
        return self._providers[query_id]

    @property
    def head_values(self) -> Mapping[HeadRef, Optional[tuple]]:
        """Live provider ref -> its head's argument values, computed at
        insertion; None for a non-ground head (read-only)."""
        return self._head_values

    def edge(self, query_id: object, pc_pos: int, ref: HeadRef) -> Edge:
        """The edge from provider *ref* into one postcondition, built
        on first use and kept in the ref's slot from then on."""
        refs = self._providers[query_id][pc_pos]
        edge = refs[ref]
        if edge is None:
            src, head_pos = ref
            queries = self._queries
            edge = refs[ref] = Edge(
                src, head_pos, query_id, pc_pos,
                queries[src].head[head_pos],
                queries[query_id].postconditions[pc_pos])
            self._counters.edges_materialised += 1
        return edge

    def in_edges_by_src(self, query_id: object,
                        pc_pos: int) -> dict[object, list[Edge]]:
        """Provider -> edges mapping for one postcondition."""
        by_src: dict[object, list[Edge]] = {}
        for edge in self.in_edges_for_pc(query_id, pc_pos):
            by_src.setdefault(edge.src, []).append(edge)
        return by_src

    def in_edges_for_pc(self, query_id: object, pc_pos: int) -> list[Edge]:
        """Edges into one specific postcondition of *query_id*."""
        slots = self._providers.get(query_id, ())
        return [self.edge(query_id, pc_pos, ref)
                for ref in (slots[pc_pos] if pc_pos < len(slots) else ())]

    def in_edges(self, query_id: object) -> list[Edge]:
        """Edges into *query_id*'s postconditions, across all positions."""
        return [self.edge(query_id, pc_pos, ref)
                for pc_pos, refs
                in enumerate(self._providers.get(query_id, ()))
                for ref in refs]

    def out_edges(self, query_id: object) -> list[Edge]:
        """Edges from *query_id*'s heads to other queries'
        postconditions, by dependent rank, then postcondition, then
        head position."""
        query = self._queries.get(query_id)
        if query is None:
            return []
        heads = range(len(query.head))
        return [self.edge(dst, pc_pos, (query_id, head_pos))
                for dst in sorted(self._dependents[query_id],
                                  key=self._rank.__getitem__)
                for pc_pos, refs in enumerate(self._providers[dst])
                for head_pos in heads if (query_id, head_pos) in refs]

    def indegree(self, query_id: object) -> int:
        """INDEGREE(q): number of edges into the query node."""
        return sum(map(len, self._providers.get(query_id, ())))

    def successors(self, query_id: object) -> set[object]:
        """Distinct queries whose postconditions this query's heads satisfy."""
        return set(self._dependents.get(query_id, ()))

    def predecessors(self, query_id: object) -> set[object]:
        """Distinct queries whose heads satisfy this query's postconditions."""
        return {src for refs in self._providers.get(query_id, ())
                for src, _ in refs}

    def unsatisfied_pcs(self, query_id: object) -> list[int]:
        """Postcondition positions with no incoming edge."""
        return [pc_pos for pc_pos, refs
                in enumerate(self._providers[query_id]) if not refs]

    def is_fully_matched(self, query_id: object) -> bool:
        """True if every postcondition of the query has >= 1 incoming edge."""
        return not self.unsatisfied_pcs(query_id)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add_query(self, query: EntangledQuery) -> GraphDelta:
        """Insert a query, writing its provider refs in both directions.

        Emits and returns the ``"add"`` delta.  The query's own atoms
        are indexed last, so it never provides for itself.
        """
        query_id = query.query_id
        if query_id in self._queries:
            raise KeyError(f"query id {query_id!r} already in graph")
        # The two lookups, before anything is written: the pending
        # postconditions each new head satisfies, and the pending heads
        # satisfying each new postcondition.  The index returns entries
        # in insertion order, so appending below keeps every ref map in
        # rank order.
        found = [*map(self._pc_index.lookup_unifiable, query.head)]
        own = tuple(map(dict.fromkeys,
                        map(self._head_index.lookup_unifiable,
                            query.postconditions)))

        self._queries[query_id] = query
        self._rank[query_id] = self._next_rank
        self._next_rank += 1
        providers, dependents = self._providers, self._dependents
        slots: list[PcRef] = []
        for head_pos, head in enumerate(query.head):
            ref = (query_id, head_pos)
            for dst, pc_pos in found[head_pos]:
                providers[dst][pc_pos][ref] = None
            slots += found[head_pos]
            self._head_index.add(ref, head)
            values = tuple([term.value for term in head.args
                            if isinstance(term, Constant)])
            self._head_values[ref] = (values if len(values) == head.arity
                                      else None)
        dependents[query_id] = dict.fromkeys(map(_FIRST, slots))
        for refs in own:
            for src, _ in refs:
                dependents[src][query_id] = None
        providers[query_id] = own
        for pc_pos, postcondition in enumerate(query.postconditions):
            self._pc_index.add((query_id, pc_pos), postcondition)
        delta = GraphDelta("add", query_id, query, own, slots)
        self._emit(delta)
        return delta

    def remove_query(self, query_id: object) -> None:
        """Remove a query and every ref to or from it, in O(degree).

        Emits a ``"remove"`` delta so listeners can update derived
        state."""
        query = self._queries.pop(query_id, None)
        if query is None:
            return
        del self._rank[query_id]
        heads = [(query_id, head_pos) for head_pos in range(len(query.head))]
        for ref in heads:
            self._head_index.remove(ref)
            del self._head_values[ref]
        for pc_pos in range(query.pccount):
            self._pc_index.remove((query_id, pc_pos))
        providers, dependents = self._providers, self._dependents
        for dst in dependents.pop(query_id):
            for refs in providers[dst]:
                for ref in heads:
                    refs.pop(ref, None)
        for refs in providers.pop(query_id):
            for src, _ in refs:
                dependents[src].pop(query_id, None)
        self._emit(GraphDelta("remove", query_id, None))

    # ------------------------------------------------------------------
    # partitioning (paper Section 4.1.2)
    # ------------------------------------------------------------------

    def connected_components(self) -> list[set[object]]:
        """Weakly connected components of the graph.

        These are the independent partitions of the workload: any
        coordinating set spanning two components splits into coordinating
        sets within each, so each component is processed separately (and,
        in the engine, in parallel).
        """
        remaining = set(self._queries)
        components: list[set[object]] = []
        while remaining:
            component = self.component_of(remaining.pop())
            remaining -= component
            components.append(component)
        return components

    def component_of(self, query_id: object) -> set[object]:
        """The weakly connected component containing *query_id*."""
        component = {query_id}
        frontier = [query_id]
        while frontier:
            current = frontier.pop()
            fresh = (self.successors(current)
                     | self.predecessors(current)) - component
            component |= fresh
            frontier += fresh
        return component

    def descendants(self, query_id: object) -> set[object]:
        """All queries reachable from *query_id* along forward edges.

        Used by CLEANUP: when a query is unanswerable, every query that
        (transitively) relies on one of its heads is unanswerable too
        under safety.  The result excludes *query_id* itself unless it
        lies on a cycle through itself.
        """
        visited: set[object] = set()
        frontier = [query_id]
        while frontier:
            current = frontier.pop()
            for successor in self.successors(current):
                if successor not in visited:
                    visited.add(successor)
                    frontier.append(successor)
        return visited


def build_unifiability_graph(queries: Iterable[EntangledQuery],
                             use_index: bool = True) -> UnifiabilityGraph:
    """Construct the unifiability graph for a workload.

    Queries are inserted in order; callers must have renamed variables
    apart (see :func:`repro.core.query.rename_workload_apart`).
    """
    graph = UnifiabilityGraph(use_index=use_index)
    for query in queries:
        graph.add_query(query)
    return graph
