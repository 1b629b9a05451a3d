"""Incremental partition state for the streaming engine.

The incremental evaluation mode (paper Section 5.1) maintains the
unifiability graph across query arrivals and "stores the partial
matching unifiers and continues the matching algorithm from this state
with the addition of a new query".  This module tracks:

* the **partition structure** — a union-find over query ids, merged
  once per neighbouring component as an arrival's provider refs connect
  components;
* per (query, postcondition) **satisfaction** — whether at least one
  provider ref exists — and the per-partition count of open
  postconditions, so *closure* (every postcondition of every member
  satisfied) is detected with one flag check per slot the arrival's
  heads were written into;
* the **resumable matching state** — per matched component a
  :class:`~repro.core.matching.MatchState` (chosen edges, Algorithm 1
  fixpoint unifiers, survivors, global unifier) on which each arrival
  is recorded, to be folded in (one edge built per postcondition of
  the arrival) only when an attempt reads the matching — or, in
  structure-only mode, just the slim
  :class:`~repro.core.matching.Attempt` (combined query, heads, data
  verdict) a set-at-a-time round retained to re-evaluate.

Closure is the trigger for a coordination attempt; the matching state
is what the attempt reads, so a closed partition that keeps growing
(Figure 8's massively-unifying cluster) is never re-matched from
scratch.  A state lives for as long as its component only grows by
monotone extensions since it was last matched (a lone arrival is
trivially matched); anything else — a removal, an out-of-order import,
a providerless postcondition gaining its first provider, an arrival
bridging two components or joining an unmatched one — drops it, and the
next attempt rebuilds it, like a stale partition.  A retained attempt
is dropped likewise, and by any arrival joining its component.
Union-find cannot delete, so removals *ghost* the departed queries in
O(removed) and mark their partitions structurally stale; the exact
rebuild — survivors re-unioned along the graph's surviving refs so
components split back apart, with satisfaction recounted — runs lazily,
the first time a consumer actually reads the partition (a set-at-a-time
drain, the closure check, or a diagnostic).  Readers therefore always
see exact components, while the per-removal cost on hot settlement
paths stays O(removed).  This is what lets the manager serve as the
engine's sole source of component truth: the scheduler's set-at-a-time
rounds read components straight from here instead of recomputing
connected components from scratch.
"""

from __future__ import annotations

from typing import Collection, Iterable, Mapping

from ..core.graph import GraphDelta, UnifiabilityGraph
from ..core.matching import Attempt, MatchState
from ..core.query import EntangledQuery


class PartitionManager:
    """Tracks components, closure, and matching state incrementally.

    Arrivals come as the graph's ``"add"`` delta — provider refs and
    written slots, never edge objects.  ``track_matching=False`` puts
    the manager in structure-only mode for engines that never attempt
    a whole partition per arrival (batch engines and the incremental
    ``"local"`` strategy): the per-slot closure (postcondition-
    satisfaction) accounting and the resumable matching state are
    skipped — set-at-a-time rounds drain whole components regardless,
    matching one from scratch only when its member set changed
    (:meth:`retain`).  :meth:`is_closed` is meaningless in this mode.

    *order* is the live query id -> arrival sequence mapping matching
    resolves conflicts by.
    """

    def __init__(self, graph: UnifiabilityGraph, order: Mapping,
                 track_matching: bool):
        self._graph = graph
        self._order = order
        self._track_matching = track_matching
        self._parent: dict = {}
        self._rank: dict = {}
        # (query_id, pc_pos) -> satisfied?
        self._pc_satisfied: dict = {}
        # per-node count of unsatisfied postconditions
        self._node_open: dict = {}
        # root -> aggregated open-postcondition count
        self._root_open: dict = {}
        # root -> member set (kept small-into-large on union)
        self._root_members: dict = {}
        # root -> MatchState of the components whose matching is
        # current (structure-only: the retained slim Attempt); an
        # absent entry means "never matched, or stale"
        self._match_states: dict = {}
        # removed queries left as structural ghosts in the forest
        self._dead: set = set()
        # roots whose structure may be coarse (a member was removed and
        # the partition has not been re-split yet)
        self._stale_roots: set = set()

    # ------------------------------------------------------------------
    # union-find
    # ------------------------------------------------------------------

    def find(self, query_id):
        """Partition representative of *query_id*."""
        root = query_id
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[query_id] != root:
            self._parent[query_id], query_id = root, self._parent[query_id]
        return root

    def _union(self, left, right):
        root_left, root_right = self.find(left), self.find(right)
        if root_left == root_right:
            return root_left
        if self._rank[root_left] < self._rank[root_right]:
            root_left, root_right = root_right, root_left
        self._parent[root_right] = root_left
        if self._rank[root_left] == self._rank[root_right]:
            self._rank[root_left] += 1
        self._root_open[root_left] += self._root_open.pop(root_right)
        self._root_members[root_left] |= self._root_members.pop(root_right)
        if root_right in self._stale_roots:
            self._stale_roots.discard(root_right)
            self._stale_roots.add(root_left)
        return root_left

    # ------------------------------------------------------------------
    # arrival processing
    # ------------------------------------------------------------------

    def add_query(self, query: EntangledQuery,
                  delta: GraphDelta) -> object:
        """Record an arrival; returns the partition root after merging.

        *delta* is the graph's ``"add"`` delta for this arrival: its
        provider refs per postcondition and the slots its heads were
        written into.  Merges the arrival with each neighbouring
        component once, updates closure bookkeeping per slot and
        records the arrival on the matching state of the component it
        joins, unless a slot flipping to satisfied shows it revives a
        member.
        """
        query_id = query.query_id
        if query_id in self._dead:
            # A re-submitted id is still a ghost in the forest; live
            # members of its old partition may resolve through it until
            # that partition is re-split.
            self._refresh(self.find(query_id))
            self._dead.discard(query_id)
        self._parent[query_id] = query_id
        self._rank[query_id] = 0
        self._node_open[query_id] = query.pccount
        self._root_open[query_id] = query.pccount
        self._root_members[query_id] = {query_id}
        # The neighbouring components, in first-seen order.  Slots and
        # refs are both (neighbour id, position) pairs; a neighbour in
        # the component found last needs no find of its own, so a
        # cluster costs one find and one union however many refs lead
        # there.
        joined: dict = {}
        members: Collection = ()
        for pairs in (delta.slots, *delta.providers):
            for neighbour, _ in pairs:
                if neighbour not in members:
                    root = self.find(neighbour)
                    joined[root] = None
                    members = self._root_members[root]

        if not self._track_matching:
            # Structure-only mode: merge components (dropping what
            # they retained), skip closure accounting and matching.
            root = query_id
            for neighbour in joined:
                self._match_states.pop(neighbour, None)
                root = self._union(root, neighbour)
            return root

        # The matching carries over when the arrival starts a component
        # (trivially matched) or extends exactly one matched component;
        # one that bridges components, or joins an unmatched one, leaves
        # the union to be rebuilt by the next attempt.
        states = [self._match_states.pop(root, None) for root in joined]
        root = query_id
        for neighbour in joined:
            root = self._union(root, neighbour)

        # Closure accounting, per slot: the arrival's own postconditions
        # that found a provider, then the slots its heads now provide.
        satisfied = self._pc_satisfied
        own: list = []
        for pc_pos, refs in enumerate(delta.providers):
            satisfied[(query_id, pc_pos)] = False
            if refs:
                own.append((query_id, pc_pos))
        revives = False
        for slot in (*own, *delta.slots):
            if not satisfied[slot]:
                satisfied[slot] = True
                self._node_open[slot[0]] -= 1
                self._root_open[root] -= 1
                # A member's slot (the arrival never provides for
                # itself) that had no provider: the matching carried
                # that member as removed, and the arrival revives it.
                revives |= slot[0] != query_id
        state = (MatchState(self._graph, self._order) if not states
                 else states[0] if len(states) == 1 else None)
        if state is not None and not revives and state.add(query_id):
            self._match_states[root] = state
        return root

    # ------------------------------------------------------------------
    # closure and removal
    # ------------------------------------------------------------------

    def _fresh_root(self, query_id):
        """The exact root of a query's partition, re-splitting if stale.

        Accepts live member ids and (for single-component refreshes)
        stale root handles whose query has since been removed."""
        root = self.find(query_id)
        if root in self._stale_roots:
            self._refresh(root)
            root = self.find(query_id)
        if root not in self._root_members:
            raise KeyError(
                f"{query_id!r} is no longer live and its partition "
                f"split; resolve through a live member instead")
        return root

    def is_closed(self, query_id) -> bool:
        """True if every postcondition in the partition is satisfied.

        Accepts any live member id (roots are members too).  Reading
        through this accessor re-splits a stale partition first, so
        closure is always judged against exact structure.
        """
        return self._root_open[self._fresh_root(query_id)] == 0

    def members(self, query_id) -> list:
        """All query ids in the (exact) partition of *query_id*."""
        return sorted(self._root_members[self._fresh_root(query_id)],
                      key=repr)

    def members_set(self, query_id) -> set:
        """A copy of the partition's member set (mutation-safe)."""
        return set(self._root_members[self._fresh_root(query_id)])

    def first_arrival(self, root) -> int:
        """Earliest arrival in the partition at exact *root*."""
        return min(map(self._order.__getitem__, self._root_members[root]))

    def roots(self) -> list:
        """Current partition representatives (diagnostics/scheduler)."""
        self._refresh_all()
        return [root for root in self._root_members
                if self._parent[root] == root]

    def partition_size(self, query_id) -> int:
        """Member count of the (exact) partition."""
        return len(self._root_members[self._fresh_root(query_id)])

    def partition_sizes(self) -> list[int]:
        """Sizes of all current partitions (diagnostics)."""
        self._refresh_all()
        return [len(members)
                for root, members in self._root_members.items()
                if self._parent[root] == root]

    def match_state(self, query_id) -> tuple[Attempt, bool]:
        """What the (exact) partition kept from its last attempt, and
        whether it was carried forward (True) or matched from scratch
        (which structure-only mode leaves to :meth:`retain` to keep)."""
        root = self._fresh_root(query_id)
        state = self._match_states.get(root)
        if state is not None:
            return state, True
        state = MatchState(self._graph, self._order)
        state.extend(sorted(self._root_members[root],
                            key=self._order.__getitem__))
        if self._track_matching:
            self._match_states[root] = state
        return state, False

    def retain(self, query_id, state: Attempt, combined) -> Attempt:
        """Keep *combined*'s evaluable parts for the partition: on its
        matching *state* or, in structure-only mode, as a slim record."""
        if not self._track_matching:
            state = self._match_states[self._fresh_root(query_id)] = Attempt()
        state.query, state.heads, state.choose, state.aggregates = (
            combined.query, combined.heads, combined.choose,
            combined.aggregates)
        return state

    def remove_queries(self, removed: Iterable) -> list:
        """Forget answered/expired queries, in O(removed) time.

        The caller must already have removed them from the graph.
        Removed nodes stay in the union-find forest as structural
        ghosts (union-find cannot delete) but leave the member sets and
        the open-postcondition accounting; the affected partitions lose
        their matching state, are marked structurally *stale* and
        re-split exactly — survivors re-unioned along surviving edges,
        satisfaction recounted — the first time a consumer reads them
        (:meth:`refreshed_roots`, :meth:`members`, :meth:`is_closed`,
        the size diagnostics).

        Returns one surviving representative per affected partition
        (the scheduler's dirty marks; resolving a representative at
        drain time yields *all* the components the stale partition
        splits into).
        """
        representatives: list = []
        affected: set = set()
        for query_id in removed:
            if query_id not in self._parent or query_id in self._dead:
                continue
            root = self.find(query_id)
            self._root_members[root].discard(query_id)
            self._root_open[root] -= self._node_open.pop(query_id, 0)
            self._dead.add(query_id)
            affected.add(root)
            pc_pos = 0
            while (query_id, pc_pos) in self._pc_satisfied:
                del self._pc_satisfied[(query_id, pc_pos)]
                pc_pos += 1
        for root in sorted(affected, key=repr):
            self._match_states.pop(root, None)
            members = self._root_members[root]
            if members:
                self._stale_roots.add(root)
                representatives.append(next(iter(members)))
            else:
                del self._root_members[root]
                self._root_open.pop(root, None)
                self._stale_roots.discard(root)
        return representatives

    # ------------------------------------------------------------------
    # lazy re-splitting
    # ------------------------------------------------------------------

    def _refresh(self, root) -> list:
        """Re-split one stale partition exactly; returns its new roots.

        Survivors become fresh singletons with graph-exact
        satisfaction, then are re-unioned along the graph's surviving
        edges (edges never span partitions, so this touches only this
        partition's members).  Cost is O(members + their edges), paid
        once per stale partition by whichever consumer reads it first.
        """
        if root not in self._stale_roots:
            return [root]
        self._stale_roots.discard(root)
        members = self._root_members.pop(root)
        self._root_open.pop(root, None)
        graph = self._graph
        for query_id in members:
            self._parent[query_id] = query_id
            self._rank[query_id] = 0
            if self._track_matching:
                open_count = 0
                for pc_pos, refs in enumerate(
                        graph.provider_refs(query_id)):
                    self._pc_satisfied[(query_id, pc_pos)] = bool(refs)
                    if not refs:
                        open_count += 1
                self._node_open[query_id] = open_count
            self._root_open[query_id] = self._node_open.get(query_id, 0)
            self._root_members[query_id] = {query_id}
        # Every edge is stored once, at its destination: walking each
        # member's providers visits all of them.
        for query_id in members:
            for src in graph.predecessors(query_id):
                if src in members:
                    self._union(src, query_id)
        roots = sorted({self.find(query_id) for query_id in members},
                       key=repr)
        if root in self._dead and len(roots) == 1:
            # Keep the departed root resolving as a handle: callers
            # holding the old representative still reach the (single)
            # surviving component.  A multi-way split has no unique
            # successor, so such handles dangle and raise on use.
            self._parent[root] = roots[0]
        return roots

    def refreshed_roots(self, query_id) -> list:
        """Exact roots arising from *query_id*'s (possibly stale)
        partition.

        For a fresh partition this is just ``[find(query_id)]``; for a
        stale one the partition is re-split first and every resulting
        root is returned — the scheduler uses this to turn one dirty
        mark into all the components a removal may have split off.
        """
        return self._refresh(self.find(query_id))

    def _refresh_all(self) -> None:
        for root in list(self._stale_roots):
            self._refresh(root)

    def __len__(self) -> int:
        """Number of live (non-removed) queries tracked."""
        return len(self._node_open)
