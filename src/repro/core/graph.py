"""The unifiability graph (paper Section 4.1.1).

A directed multigraph with one node per query.  There is an edge from
``N(qi)`` to ``N(qj)`` for each pair ``(h, p)`` where ``h`` is a head atom
of ``qi``, ``p`` a postcondition atom of ``qj``, and ``h`` unifies with
``p`` — i.e. an edge points from the *provider* of an answer tuple to the
*requirer*.

The graph supports incremental insertion and removal of queries, which
the engine's incremental mode relies on, and exposes the derived
quantities the matching algorithm needs: per-postcondition incoming
edges, successors/predecessors, and connected components.

Self-edges (a query's own head satisfying its own postcondition) are
excluded; see DESIGN.md §3 for why this interpretation is forced by the
paper's own experimental workloads.
"""

from __future__ import annotations


from typing import (Callable, Hashable, Iterable, Iterator, NamedTuple,
                    Optional)

from .atom_index import AtomIndex, NaiveAtomIndex
from .query import EntangledQuery
from .terms import Atom
from .unify import Unifier, unify_atoms

#: Handle for a specific head atom: (query_id, head_position).
HeadRef = tuple
#: Handle for a specific postcondition atom: (query_id, pc_position).
PcRef = tuple

#: Sentinel for Edge's lazily computed ground-head key.
_UNSET = object()


class Edge:
    """One unifiable (head, postcondition) pair.

    Attributes:
        src: query id providing the head atom.
        head_pos: index of the head atom within ``src``'s head.
        dst: query id whose postcondition is satisfied.
        pc_pos: index of the postcondition atom within ``dst``.
        head_atom / pc_atom: the two atoms.
        unifier: the most general unifier of the two atoms — computed
            lazily, because graphs over large pending sets carry many
            edges that matching never follows.
    """

    __slots__ = ("src", "head_pos", "dst", "pc_pos", "head_atom",
                 "pc_atom", "_unifier", "_ground_key")

    def __init__(self, src: object, head_pos: int, dst: object,
                 pc_pos: int, head_atom: Atom, pc_atom: Atom):
        self.src = src
        self.head_pos = head_pos
        self.dst = dst
        self.pc_pos = pc_pos
        self.head_atom = head_atom
        self.pc_atom = pc_atom
        self._unifier: Optional[Unifier] = None
        self._ground_key: object = _UNSET

    @property
    def unifier(self) -> Unifier:
        """The atoms' MGU (cached; the edge's existence guarantees it)."""
        if self._unifier is None:
            self._unifier = unify_atoms(self.head_atom, self.pc_atom)
            assert self._unifier is not None, "edge atoms must unify"
        return self._unifier

    def ground_key(self) -> Optional[tuple]:
        """The head atom's value tuple if it is ground, else None.

        Cached: the engine's feasibility prefilter asks for this once
        per (arrival, candidate) pair, and edges live as long as their
        queries stay pending.
        """
        if self._ground_key is _UNSET:
            if self.head_atom.is_ground():
                self._ground_key = tuple(term.value
                                         for term in self.head_atom.args)
            else:
                self._ground_key = None
        return self._ground_key

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
        edges: the edges created with the insertion, in their committed
            (deterministic) order, or the edges that vanished with the
            removal (order unspecified).
    """

    kind: str
    query_id: object
    query: Optional[EntangledQuery]
    edges: tuple[Edge, ...]


class UnifiabilityGraph:
    """Incremental multigraph over a set of entangled queries.

    Queries must be renamed apart before insertion (the graph checks and
    raises on shared variables only when ``strict_variables`` is set,
    since the check is linear in query size).
    """

    def __init__(self, use_index: bool = True):
        index_cls = AtomIndex if use_index else NaiveAtomIndex
        self._index_cls = index_cls
        self._queries: dict[object, EntangledQuery] = {}
        self._head_index = index_cls()
        self._pc_index = index_cls()
        # dst query id -> pc position -> src query id -> edges from that
        # provider into that pc.  Keying the bucket by provider makes
        # edge removal O(providers touched) instead of O(bucket), and
        # lets matching collect a group's candidate edges without
        # copying whole buckets.
        self._in_edges: dict[object, dict[int, dict[object, list[Edge]]]] = {}
        # src query id -> dst query id -> edges to that dependent
        # (dst-keyed for the same O(1)-removal reason as above)
        self._out_edges: dict[object, dict[object, list[Edge]]] = {}
        # query id -> insertion rank; edge lists are committed in rank
        # order, so sequential and block (parallel-discovery) ingestion
        # produce byte-identical edge orderings.
        self._rank: dict[object, int] = {}
        self._next_rank = 0
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

    def make_scratch_index(self) -> object:
        """A fresh atom index of the graph's configured class.

        Block ingestion keeps side indexes of the atoms committed so far
        within one arrival block; using the graph's own index class keeps
        naive-index graphs (tests, ablations) fully naive.
        """
        return self._index_cls()

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

    def out_edges(self, query_id: object) -> list[Edge]:
        """Edges from *query_id*'s heads to other queries' postconditions."""
        return [edge for edges in self._out_edges.get(query_id, {}).values()
                for edge in edges]

    def in_edges(self, query_id: object) -> list[Edge]:
        """Edges into *query_id*'s postconditions, across all positions."""
        per_pc = self._in_edges.get(query_id, {})
        return [edge for by_src in per_pc.values()
                for edges in by_src.values() for edge in edges]

    def in_edges_for_pc(self, query_id: object, pc_pos: int) -> list[Edge]:
        """Edges into one specific postcondition of *query_id*."""
        by_src = self._in_edges.get(query_id, {}).get(pc_pos)
        if not by_src:
            return []
        return [edge for edges in by_src.values() for edge in edges]

    def in_edges_by_src(self, query_id: object,
                        pc_pos: int) -> dict[object, list[Edge]]:
        """Provider -> edges mapping for one postcondition (read-only)."""
        by_src = self._in_edges.get(query_id, {}).get(pc_pos)
        return by_src if by_src is not None else {}

    def indegree(self, query_id: object) -> int:
        """INDEGREE(q): number of edges into the query node."""
        return sum(len(edges)
                   for by_src in self._in_edges.get(query_id, {}).values()
                   for edges in by_src.values())

    def successors(self, query_id: object) -> set[object]:
        """Distinct queries whose postconditions this query's heads satisfy."""
        return set(self._out_edges.get(query_id, ()))

    def predecessors(self, query_id: object) -> set[object]:
        """Distinct queries whose heads satisfy this query's postconditions."""
        result: set[object] = set()
        for by_src in self._in_edges.get(query_id, {}).values():
            result.update(by_src)
        return result

    def unsatisfied_pcs(self, query_id: object) -> list[int]:
        """Postcondition positions with no incoming edge."""
        query = self._queries[query_id]
        per_pc = self._in_edges.get(query_id, {})
        return [position for position in range(query.pccount)
                if not per_pc.get(position)]

    def is_fully_matched(self, query_id: object) -> bool:
        """True if every postcondition of the query has >= 1 incoming edge."""
        return not self.unsatisfied_pcs(query_id)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add_query(self, query: EntangledQuery) -> list[Edge]:
        """Insert a query, discovering edges in both directions.

        Returns the new edges, which the incremental matcher uses to decide
        which unifiers to refresh.  Self-edges are never created.
        """
        return self.insert_query(query, self.discover_edges(query))

    def discover_edges(self, query: EntangledQuery,
                       head_index: object | None = None,
                       pc_index: object | None = None) -> list[Edge]:
        """Candidate edges between *query* and the indexed atoms.

        Read-only: looks up the graph's own atom indexes (or the given
        side indexes, used by block ingestion to find intra-block edges)
        without mutating anything, so blocks of arrivals can discover
        their edges concurrently on a worker pool before being committed
        one at a time.  Self-edges are excluded; the result's order is
        irrelevant — :meth:`insert_query` commits edges in a canonical
        rank order.
        """
        query_id = query.query_id
        if head_index is None:
            head_index = self._head_index
        if pc_index is None:
            pc_index = self._pc_index
        edges: list[Edge] = []
        # New heads may satisfy existing postconditions.  The index's
        # verified lookup skips per-candidate unification except for the
        # rare repeated/shared-variable cases it cannot decide itself.
        for head_pos, head in enumerate(query.head):
            for (dst_id, pc_pos), pc_atom \
                    in pc_index.lookup_unifiable(head):
                if dst_id == query_id:
                    continue
                edges.append(Edge(query_id, head_pos,
                                  dst_id, pc_pos, head, pc_atom))
        # Existing heads may satisfy the new postconditions.
        for pc_pos, postcondition in enumerate(query.postconditions):
            for (src_id, head_pos), head \
                    in head_index.lookup_unifiable(postcondition):
                if src_id == query_id:
                    continue
                edges.append(Edge(src_id, head_pos,
                                  query_id, pc_pos, head,
                                  postcondition))
        return edges

    def canonical_edge_order(self, query_id: object,
                             edges: Iterable[Edge]) -> list[Edge]:
        """Sort candidate edges into the canonical commit order.

        The canonical order — outgoing (head → existing postcondition)
        before incoming, then by atom position and the partner's
        insertion rank — is what :meth:`discover_edges` already produces
        against a single index (the atom index returns candidates in
        insertion order).  This explicit sort exists for callers that
        merge discoveries from several indexes (the block-ingestion
        pipeline, for multi-head/multi-postcondition queries).
        """
        rank = self._rank

        # Packed integer sort keys (direction, major pos, partner rank,
        # minor pos): 20 bits per atom position, far beyond any real
        # query, so fields cannot collide.
        def commit_order(edge: Edge) -> int:
            if edge.src == query_id:
                return ((edge.head_pos << 84) | (rank[edge.dst] << 20)
                        | edge.pc_pos)
            return ((1 << 104) | (edge.pc_pos << 84)
                    | (rank[edge.src] << 20) | edge.head_pos)

        return sorted(edges, key=commit_order)

    def insert_query(self, query: EntangledQuery,
                     candidate_edges: Iterable[Edge]) -> list[Edge]:
        """Commit *query* with the given discovered edges.

        Edges are wired in the caller's order, which must be the
        canonical commit order — what :meth:`discover_edges` produces
        (the atom index yields candidates in insertion order), or
        :meth:`canonical_edge_order` for merged discoveries — so the
        committed structure does not depend on how the candidates were
        found (sequentially or by the parallel block pipeline).  Emits
        an ``"add"`` delta and returns the committed edge list.
        """
        query_id = query.query_id
        if query_id in self._queries:
            raise KeyError(f"query id {query_id!r} already in graph")
        self._queries[query_id] = query
        self._rank[query_id] = self._next_rank
        self._next_rank += 1
        self._in_edges[query_id] = {position: {}
                                    for position in range(query.pccount)}
        self._out_edges[query_id] = {}

        new_edges = (candidate_edges
                     if isinstance(candidate_edges, list)
                     else list(candidate_edges))
        for edge in new_edges:
            self._out_edges[edge.src].setdefault(edge.dst, []).append(edge)
            self._in_edges[edge.dst].setdefault(
                edge.pc_pos, {}).setdefault(edge.src, []).append(edge)

        # Index the new atoms last so the query cannot match itself.
        for head_pos, head in enumerate(query.head):
            self._head_index.add((query_id, head_pos), head)
        for pc_pos, postcondition in enumerate(query.postconditions):
            self._pc_index.add((query_id, pc_pos), postcondition)
        self._emit(GraphDelta("add", query_id, query, tuple(new_edges)))
        return new_edges

    def remove_query(self, query_id: object) -> None:
        """Remove a query and all its incident edges.

        Emits a ``"remove"`` delta carrying the edges that vanished, so
        listeners can update derived state in O(affected)."""
        query = self._queries.pop(query_id, None)
        if query is None:
            return
        self._rank.pop(query_id, None)
        for head_pos in range(len(query.head)):
            self._head_index.remove((query_id, head_pos))
        for pc_pos in range(query.pccount):
            self._pc_index.remove((query_id, pc_pos))
        removed_edges: list[Edge] = []
        # Both edge maps are keyed by the opposite endpoint, so removal
        # is one dict pop per incident bucket — no list rebuilds.
        for by_dst in self._out_edges.pop(query_id, {}).values():
            for edge in by_dst:
                removed_edges.append(edge)
                dst_pcs = self._in_edges.get(edge.dst)
                if dst_pcs is not None:
                    by_src = dst_pcs.get(edge.pc_pos)
                    if by_src is not None:
                        by_src.pop(query_id, None)
        for per_pc in self._in_edges.pop(query_id, {}).values():
            for src_id, edges in per_pc.items():
                removed_edges.extend(edges)
                src_out = self._out_edges.get(src_id)
                if src_out is not None:
                    src_out.pop(query_id, None)
        self._emit(GraphDelta("remove", query_id, None,
                              tuple(removed_edges)))

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
            seed = remaining.pop()
            component = {seed}
            frontier = [seed]
            while frontier:
                current = frontier.pop()
                for neighbor in (self.successors(current)
                                 | self.predecessors(current)):
                    if neighbor in remaining:
                        remaining.discard(neighbor)
                        component.add(neighbor)
                        frontier.append(neighbor)
            components.append(component)
        return components

    def component_of(self, query_id: object) -> set[object]:
        """The weakly connected component containing *query_id*."""
        component = {query_id}
        frontier = [query_id]
        while frontier:
            current = frontier.pop()
            for neighbor in (self.successors(current)
                             | self.predecessors(current)):
                if neighbor not in component:
                    component.add(neighbor)
                    frontier.append(neighbor)
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
