"""Query matching: unifier propagation with cleanup (paper Section 4.1).

Given the unifiability graph of a (component of a) workload, matching

1. chooses, for every postcondition of every query, the head atom that
   will satisfy it (under safety there is at most one candidate);
2. computes the fixpoint of **Algorithm 1** — every node's unifier is
   the most general unifier of the chosen in-edges of the node and all
   its ancestors — in one pass over the strongly connected components
   of the chosen edges, providers first (DESIGN.md §5.1);
3. removes *unanswerable* queries: any query with an unsatisfiable
   postcondition or a collapsed unifier, plus (CLEANUP) all its
   descendants, since under safety they relied on its heads.

The result is, per component, the set of surviving queries with their
final unifiers — everything Section 4.2's combined-query construction
needs.

Conflict policies (DESIGN.md §3): when a postcondition has several
candidate heads (the workload is not strictly safe — transiently common
in the incremental engine), ``"first"`` picks the earliest-arrived
provider, ``"error"`` raises :class:`repro.errors.SafetyViolation`, and
``"backtrack"`` explores alternative choices for small components.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Literal, Mapping, Optional, Sequence

from ..errors import SafetyViolation
from .graph import UnifiabilityGraph
from .ucs import iter_sccs
from .unify import Unifier

ConflictPolicy = Literal["first", "error", "backtrack"]

#: Components with more than this many multi-candidate postconditions fall
#: back from "backtrack" to "first" to bound the search.
MAX_BACKTRACK_CHOICE_POINTS = 12


@dataclass(slots=True)
class ComponentMatch:
    """Matching outcome for one connected component.

    Attributes:
        component: all query ids of the component, in arrival order.
        survivors: ids of answerable queries, in arrival order.
        removed: ids eliminated as unanswerable.
        unifiers: final unifier per surviving query.
        chosen_edges: for each surviving (query_id, pc_pos), the edge
            providing that postcondition.
        global_unifier: MGU of all survivor unifiers, or None if they are
            jointly inconsistent (in which case the paper rejects the
            whole component).
    """

    component: tuple
    survivors: tuple
    removed: frozenset
    unifiers: dict
    chosen_edges: dict
    global_unifier: Optional[Unifier]

    @property
    def is_complete(self) -> bool:
        """True if every query of the component survived matching."""
        return not self.removed and self.global_unifier is not None

    @property
    def is_answerable(self) -> bool:
        """True if at least one query survived with a consistent MGU."""
        return bool(self.survivors) and self.global_unifier is not None


class Attempt:
    """What a component's last coordination attempt left to re-evaluate:
    all a set-at-a-time engine retains per failed component (an
    unchanged member set derives the same combined query), and part of
    the component strategy's :class:`MatchState`.

    Attributes:
        query, heads, choose, aggregates: their ``CombinedQuery``
            namesakes for the current member set; ``query`` is None
            until built.
        empty_reads: ``(relation, table, version)`` per distinct table
            read by the last combined query that found no answer on the
            data, else None.  Conjunctive queries are monotone: it, and
            every conjunctive superset of it, is empty for as long as
            those versions stand (the scheduler sets and checks it).
            An attempt with aggregates never sets it: they are not
            monotone.
    """

    __slots__ = ("query", "heads", "choose", "aggregates", "empty_reads")

    def __init__(self) -> None:
        self.query = self.heads = self.empty_reads = None
        self.choose = 1
        self.aggregates = ()


class MatchState(Attempt):
    """Resumable Algorithm 1 state for one component (paper §5.1).

    Holds everything the matching of a component consists of — per
    member the chosen provider edge of each postcondition (policy
    ``"first"``), the fixpoint unifier and the alive/removed verdict,
    plus the running global unifier — so an arrival *continues* the
    matching instead of repeating it.  :meth:`extend` matches members
    from scratch; :meth:`add` only records an arrival, and
    :meth:`result` folds the recorded arrivals in, in arrival order,
    before it reads: both end in :meth:`_settle`, the one Algorithm 1
    pass.  An attempt answered from a carried verdict never reads, so
    a component growing under one builds no edge and merges no
    unifier.

    The fixpoint is a function of the chosen edges alone (a node is
    removed iff some ancestor-or-self along chosen edges has an
    unsatisfiable postcondition or an inconsistent ancestor closure;
    a survivor's unifier is the MGU of its ancestors' chosen in-edge
    unifiers), never of the propagation order — which is why a resumed
    state equals a from-scratch one.  A deferred fold equals an eager
    one: each recorded arrival is linked among the members folded
    before it, which are exactly the providers an eager link saw.

    Attributes:
        members: folded query ids, in arrival order.
        chosen: per folded member, its chosen in-edge (or None) per
            postcondition position (also the membership index).
        unifiers: fixpoint unifier per surviving member; the members
            of one chosen-edge cycle share one object (read-only).
        alive: the surviving members.
        global_unifier: MGU of all survivor unifiers, None when they
            are jointly inconsistent.

    The folded attributes lag the recorded arrivals until
    :meth:`result` reads them.  :meth:`add` drops the inherited
    ``query`` (the grown component combines anew) and keeps
    ``empty_reads``: a resumed state only adds survivors and refines
    the global unifier, so every later combined query is a conjunctive
    superset of the one that came back empty.
    """

    __slots__ = ("_graph", "_order", "_pending", "members", "chosen",
                 "unifiers", "alive", "global_unifier")

    def __init__(self, graph: UnifiabilityGraph, order: Mapping):
        super().__init__()
        self._graph = graph
        self._order = order
        # Recorded arrivals not folded yet, in arrival order.
        self._pending: list = []
        self.members: list = []
        self.chosen: dict = {}
        self.unifiers: dict = {}
        self.alive: set = set()
        self.global_unifier: Optional[Unifier] = Unifier()

    def extend(self, members: Sequence,
               policy: ConflictPolicy = "first") -> None:
        """Match *members* (arrival-ordered) into an empty state."""
        self._link(members, policy)
        self._settle(members)

    def add(self, query_id: object) -> bool:
        """Record one arrival; False if it arrives out of order.

        The caller has ruled out the other arrival that is no monotone
        extension: one whose head is the first provider of a member's
        postcondition (that member and its CLEANUP-ed dependents would
        have to be revived), which is a postcondition flipping from
        unsatisfied to satisfied in the caller's closure accounting.
        An in-order arrival then takes no chosen slot from an earlier
        provider, so the members keep their chosen edges, unifiers and
        verdicts, and the arrival — which nobody relies on yet — waits
        for :meth:`result` to settle it, from its chosen in-edges and
        its providers' (final) unifiers.  An arrival carrying an older
        sequence number (an import) leaves the state untouched for the
        caller to discard.
        """
        last = self._pending or self.members
        if last and self._order[query_id] < self._order[last[-1]]:
            return False
        self._pending.append(query_id)
        self.query = self.heads = None
        return True

    def _link(self, fresh: Sequence, policy: ConflictPolicy,
              alternatives: dict | None = None) -> None:
        """Register *fresh* members and pick one provider per
        postcondition among the state's members: the earliest-arrived
        head, the only ref an edge is built for.  Postconditions with
        several candidates are recorded in *alternatives* (every
        candidate's edge, sorted) when the caller wants to backtrack.
        """
        graph, order = self._graph, self._order
        chosen = self.chosen
        self.members += fresh
        for query_id in fresh:
            chosen[query_id] = ()

        for query_id in fresh:
            slots: list = []
            for pc_pos, refs in enumerate(graph.provider_refs(query_id)):
                candidates = [ref for ref in refs if ref[0] in chosen]
                if not candidates:
                    slots.append(None)
                    continue
                best = candidates[0]
                if len(candidates) > 1:
                    if policy == "error":
                        raise SafetyViolation(
                            f"postcondition {pc_pos} of query "
                            f"{query_id!r} has {len(candidates)} "
                            f"candidate providers",
                            offending_query_id=query_id,
                            witnesses=tuple(ref[0] for ref in candidates))
                    # A provider's refs are in head order, so the first
                    # ref of the earliest provider is the earliest head.
                    srcs = [ref[0] for ref in candidates]
                    best = candidates[srcs.index(
                        min(srcs, key=order.__getitem__))]
                    if alternatives is not None:
                        candidates.sort(key=lambda ref: order[ref[0]])
                        alternatives[(query_id, pc_pos)] = [
                            graph.edge(query_id, pc_pos, ref)
                            for ref in candidates]
                # A ref's value is its edge once some match built it.
                slots.append(refs[best]
                             or graph.edge(query_id, pc_pos, best))
            chosen[query_id] = slots

    def _settle(self, fresh: Sequence) -> None:
        """Algorithm 1 in one pass over *fresh* members: their strongly
        connected components along chosen edges, providers first, one
        unifier per component, folded once into the global unifier.
        From scratch every member is fresh; on resumption only the
        recorded arrivals are.  Members of a component that cannot be
        answered never become alive, so every component relying on one
        finds a dead provider: that is CLEANUP.
        """
        chosen, unifiers, alive = self.chosen, self.unifiers, self.alive
        fresh_set = set(fresh)
        global_unifier = self.global_unifier
        if global_unifier is not None and len(fresh) < len(self.members):
            # Folded in place below; results handed out keep theirs.
            global_unifier = global_unifier.copy()

        def fresh_providers(query_id) -> list:
            return [edge.src for edge in chosen[query_id]
                    if edge is not None and edge.src in fresh_set]

        for component in iter_sccs(fresh, fresh_providers):
            unifier = self._closure(component)
            if unifier is None:
                continue
            for query_id in component:
                unifiers[query_id] = unifier
            alive.update(component)
            if global_unifier is not None \
                    and not global_unifier.update(unifier):
                global_unifier = None
        self.global_unifier = global_unifier

    def _closure(self, component: Sequence) -> Optional[Unifier]:
        """The MGU of the chosen in-edges of *component*'s members and
        of all their ancestors, or None when the component is
        unanswerable: a postcondition without a provider, a removed
        provider, or a clash.  Providers outside the component are
        settled, and their unifiers already are their own closures.
        """
        chosen, unifiers, alive = self.chosen, self.unifiers, self.alive
        inside = set(component)
        # By identity: a Unifier hashes by its canonical fingerprint.
        settled: dict[int, Unifier] = {}
        unifier = Unifier()
        for query_id in component:
            for edge in chosen[query_id]:
                if edge is None:
                    return None
                src = edge.src
                if src in alive:
                    settled[id(unifiers[src])] = unifiers[src]
                elif src not in inside:
                    return None
                if not unifier.update(edge.unifier):
                    return None
        for provided in settled.values():
            # Size-aware: a settled closure is usually the larger
            # operand, and is copied rather than re-merged term by term.
            unifier = unifier.merged_with(provided)
            if unifier is None:
                return None
        return unifier

    def result(self) -> ComponentMatch:
        """The matching outcome as an immutable-by-convention value,
        once every recorded arrival is folded in."""
        if self._pending:
            pending, self._pending = self._pending, []
            for query_id in pending:
                self._link((query_id,), "first")
            self._settle(pending)
        alive, chosen, unifiers = self.alive, self.chosen, self.unifiers
        survivors = tuple([query_id for query_id in self.members
                           if query_id in alive])
        return ComponentMatch(
            component=tuple(self.members),
            survivors=survivors,
            removed=frozenset(self.members).difference(alive),
            unifiers={query_id: unifiers[query_id]
                      for query_id in survivors},
            chosen_edges={(query_id, pc_pos): edge
                          for query_id in survivors
                          for pc_pos, edge in enumerate(chosen[query_id])},
            global_unifier=self.global_unifier,
        )


def match_component(graph: UnifiabilityGraph,
                    component: Iterable,
                    policy: ConflictPolicy = "first",
                    order: Mapping | None = None) -> ComponentMatch:
    """Match one connected component of the unifiability graph.

    *order* maps query ids to arrival sequence numbers (defaults to the
    graph's insertion order) and is used both for deterministic conflict
    resolution and for reporting survivors in arrival order.
    """
    if order is None:
        order = graph.insertion_ranks
    members = sorted(component, key=order.__getitem__)
    if policy == "backtrack":
        return _match_with_backtracking(graph, members, order)
    state = MatchState(graph, order)
    state.extend(members, policy)
    return state.result()


def _match_with_backtracking(graph: UnifiabilityGraph,
                             members: list,
                             order: Mapping) -> ComponentMatch:
    """Explore alternative providers when postconditions over-unify.

    Enumerates combinations of choices at multi-candidate postconditions
    (bounded by :data:`MAX_BACKTRACK_CHOICE_POINTS`) and returns the
    outcome with the most survivors, preferring earlier arrival order on
    ties.  With no choice points this degenerates to the "first" policy.
    """
    base = MatchState(graph, order)
    alternatives: dict = {}
    base._link(members, "first", alternatives)
    if not alternatives or len(alternatives) > MAX_BACKTRACK_CHOICE_POINTS:
        base._settle(members)
        return base.result()

    best: Optional[MatchState] = None
    best_score = -2
    for combination in itertools.product(*alternatives.values()):
        trial = MatchState(graph, order)
        trial.members = base.members
        trial.chosen = {query_id: list(slots)
                        for query_id, slots in base.chosen.items()}
        for (query_id, pc_pos), edge in zip(alternatives, combination):
            trial.chosen[query_id][pc_pos] = edge
        trial._settle(members)
        score = (-1 if trial.global_unifier is None
                 else len(trial.alive))
        if score > best_score:
            best, best_score = trial, score
            if len(trial.alive) == len(members):
                break
    return best.result()


def match_all(graph: UnifiabilityGraph) -> list[ComponentMatch]:
    """Partition the graph and match every component (paper §4.1.2).

    Components are independent, so callers may parallelize; this helper
    runs them sequentially in deterministic (arrival) order.
    """
    order = graph.insertion_ranks
    components = graph.connected_components()
    components.sort(key=lambda component: min(order[query_id]
                                              for query_id in component))
    return [match_component(graph, component, order=order)
            for component in components]
