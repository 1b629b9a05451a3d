"""Uniqueness of coordination structure (paper Section 3.1.2).

The UCS property is defined over the *simplified* unifiability graph —
one node per query, a single edge ``qi -> qj`` whenever *some* head atom
of ``qi`` unifies with *some* postcondition atom of ``qj``.  A workload
has the UCS property iff every node belongs to a strongly connected
component of that graph, where "belongs to an SCC" is read as the paper
intends: the node lies on at least one directed cycle (singleton SCCs
without a self-loop, like Frank's query in Figure 3(b), violate UCS).

UCS is the correctness half of Theorem 3.1: with UCS, collapsing each
component into a single combined query cannot miss coordinating sets
supported by proper subsets of a component.

This module implements Tarjan's algorithm iteratively (workloads can be
large and Python's recursion limit is small) and exposes:

* :func:`iter_sccs` / :func:`strongly_connected_components` over an
  arbitrary successor function / adjacency map (matching settles
  Algorithm 1 over the same pass);
* :func:`simplified_graph` — project a :class:`UnifiabilityGraph` down to
  the simple digraph;
* :func:`check_ucs` / :func:`is_ucs` — the property itself;
* :func:`scc_cores` — the maximal cyclic cores used by the UCS-aware
  fallback extension (retry coordination on each core after dropping
  dangling queries like Frank's).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Hashable, Iterable, Iterator, Mapping,
                    Sequence)

from .graph import UnifiabilityGraph
from .query import EntangledQuery


def iter_sccs(roots: Iterable[Hashable],
              successors: Callable[[Hashable], Iterable[Hashable]]
              ) -> Iterator[list]:
    """Tarjan's SCC algorithm, iterative form, over what *roots* reach.

    Yields each strongly connected component once, as the list of its
    members, after every component it has an edge into (reverse
    topological order).  Roots are visited in the order given and
    *successors* is called once per node.
    """
    index: dict[Hashable, int] = {}
    lowlink: dict[Hashable, int] = {}
    on_stack: set[Hashable] = set()
    stack: list[Hashable] = []
    for root in roots:
        if root in index:
            continue
        # Each work item is (node, iterator over its successors).
        work = [(root, iter(successors(root)))]
        index[root] = lowlink[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, pending = work[-1]
            for successor in pending:
                if successor not in index:
                    index[successor] = lowlink[successor] = len(index)
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(successors(successor))))
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    yield component


def strongly_connected_components(
        adjacency: Mapping[Hashable, Iterable[Hashable]]
) -> list[set[Hashable]]:
    """The SCCs of an adjacency map (see :func:`iter_sccs`).

    *adjacency* maps each node to its successors; nodes appearing only as
    successors are treated as having no outgoing edges.  Returns SCCs in
    reverse topological order (standard for Tarjan).
    """
    all_nodes = set(adjacency)
    for successors in adjacency.values():
        all_nodes.update(successors)
    # Visit roots in a hash-independent order: the reverse-topological
    # component list this returns feeds answer assembly downstream, so
    # its tie-breaks must not observe PYTHONHASHSEED.
    return [set(component) for component in iter_sccs(
        sorted(all_nodes, key=repr),
        lambda node: adjacency.get(node, ()))]


def simplified_graph(
        graph: UnifiabilityGraph,
        restrict_to: set[object] | None = None) -> dict[object, set[object]]:
    """Project a unifiability multigraph to a simple adjacency map.

    With *restrict_to*, only nodes in that set (and edges among them) are
    kept — used when checking one component at a time.
    """
    adjacency: dict[object, set[object]] = {}
    for query_id in graph.query_ids():
        if restrict_to is not None and query_id not in restrict_to:
            continue
        successors = graph.successors(query_id)
        if restrict_to is not None:
            successors = successors & restrict_to
        adjacency[query_id] = successors
    return adjacency


@dataclass(frozen=True, slots=True)
class UcsReport:
    """Outcome of a UCS check.

    Attributes:
        is_ucs: True when every node lies on a directed cycle.
        dangling: query ids violating the property (not on any cycle).
        cores: the cyclic SCCs (each of size >= 2, or with a self-loop).
    """

    is_ucs: bool
    dangling: frozenset
    cores: tuple[frozenset, ...]


def check_ucs(adjacency: Mapping[Hashable, Iterable[Hashable]]) -> UcsReport:
    """Evaluate the UCS property over an adjacency map."""
    adjacency = {node: set(successors)
                 for node, successors in adjacency.items()}
    components = strongly_connected_components(adjacency)
    dangling: set[Hashable] = set()
    cores: list[frozenset] = []
    for component in components:
        if len(component) > 1:
            cores.append(frozenset(component))
            continue
        (node,) = component
        if node in adjacency.get(node, ()):  # self-loop counts as a cycle
            cores.append(frozenset(component))
        else:
            dangling.add(node)
    return UcsReport(is_ucs=not dangling,
                     dangling=frozenset(dangling),
                     cores=tuple(cores))


def check_ucs_graph(graph: UnifiabilityGraph,
                    restrict_to: set[object] | None = None) -> UcsReport:
    """UCS check directly over a :class:`UnifiabilityGraph`."""
    return check_ucs(simplified_graph(graph, restrict_to))


def is_ucs(queries: Sequence[EntangledQuery]) -> bool:
    """Convenience: build the graph for *queries* and test UCS.

    Queries are renamed apart defensively; graph construction dominates
    the cost, so prefer :func:`check_ucs_graph` if a graph already exists.
    """
    from .graph import build_unifiability_graph
    from .query import rename_workload_apart
    graph = build_unifiability_graph(rename_workload_apart(queries))
    return check_ucs_graph(graph).is_ucs


def scc_cores(graph: UnifiabilityGraph,
              restrict_to: set[object] | None = None) -> list[set[object]]:
    """Maximal cyclic cores of (a component of) the graph.

    The UCS-aware fallback retries coordination on each core separately:
    in Figure 3(b), dropping Frank's dangling query leaves the
    Jerry/Kramer 2-cycle, which can coordinate on any Paris flight.
    """
    report = check_ucs_graph(graph, restrict_to)
    return [set(core) for core in report.cores]
