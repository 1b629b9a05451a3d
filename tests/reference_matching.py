"""The work-queue form of Algorithm 1, kept as the matching oracle.

:class:`FixpointMatchState` is :class:`repro.core.matching.MatchState`
with ``_settle`` as it stood before the one-pass form replaced it
(paper Section 4.1, Algorithm 1 verbatim: initialise each node from its
chosen in-edges, push unifiers along chosen edges through a queue until
nothing changes, CLEANUP on every collapse).  The production class no
longer keeps the dependents map the queue walks, so the oracle keeps its
own.  ``tests/test_one_pass_matching.py`` requires both to produce
equal :class:`~repro.core.matching.ComponentMatch` values.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Optional, Sequence

from repro.core.matching import MatchState
from repro.core.unify import Unifier


class FixpointMatchState(MatchState):
    """``MatchState`` settling by queue propagation to a fixpoint."""

    __slots__ = ("dependents",)

    def __init__(self, graph, order):
        super().__init__(graph, order)
        #: per member, the members relying on one of its heads through
        #: a chosen edge (insertion-ordered).
        self.dependents: defaultdict = defaultdict(dict)

    def _settle(self, fresh: Sequence) -> None:
        """Algorithm 1: initialise *fresh* members, then propagate
        unifiers along chosen edges, with cascading CLEANUP, until
        quiescent; finally fold the fresh survivors into the global
        unifier.  From scratch every member is fresh; on resumption
        only the arrival is.
        """
        chosen, dependents = self.chosen, self.dependents
        unifiers, alive = self.unifiers, self.alive
        fresh_set = set(fresh)
        alive |= fresh_set
        for query_id in fresh:
            for edge in chosen[query_id]:
                if edge is not None:
                    dependents[edge.src][query_id] = None

        in_queue: set = set()
        updates: deque = deque()

        def cleanup(node) -> None:
            """Remove *node* and all its chosen-edge descendants."""
            frontier = [node]
            while frontier:
                current = frontier.pop()
                if current not in alive:
                    continue
                alive.discard(current)
                in_queue.discard(current)
                unifiers.pop(current, None)
                frontier.extend(dependents[current])

        # Initialization: a node's unifier is the MGU of the atom-level
        # unifiers of its chosen in-edges — and of the unifier of every
        # provider settled earlier, whose constraints are final and
        # will not come through the queue.  A node with an
        # unsatisfiable postcondition (no candidate, or a removed
        # provider) is unanswerable immediately.
        for query_id in fresh:
            if query_id not in alive:
                continue
            node_unifier: Optional[Unifier] = Unifier()
            for edge in chosen[query_id]:
                if edge is None or edge.src not in alive:
                    node_unifier = None
                    break
                node_unifier = node_unifier.merged_with(edge.unifier)
                if node_unifier is not None \
                        and edge.src not in fresh_set:
                    node_unifier = node_unifier.merged_with(
                        unifiers[edge.src])
                if node_unifier is None:
                    break
            if node_unifier is None:
                cleanup(query_id)
            else:
                unifiers[query_id] = node_unifier

        for query_id in fresh:
            if query_id in alive:
                updates.append(query_id)
                in_queue.add(query_id)

        # Algorithm 1 proper.  merged_with prefers the child's forest as
        # the merge base on size ties, and the cached canonical
        # fingerprint makes the `merged != unifiers[child]` change
        # detection a frozenset comparison instead of two partition
        # rebuilds.
        while updates:
            parent = updates.popleft()
            if parent not in alive:
                continue
            in_queue.discard(parent)
            for child in dependents[parent]:
                if child not in alive or parent not in alive:
                    continue
                merged = unifiers[child].merged_with(unifiers[parent])
                if merged is None:
                    cleanup(child)
                    continue
                if merged != unifiers[child]:
                    unifiers[child] = merged
                    if child not in in_queue:
                        updates.append(child)
                        in_queue.add(child)

        global_unifier = self.global_unifier
        for query_id in fresh:
            if global_unifier is None:
                break
            if query_id in alive:
                global_unifier = global_unifier.merged_with(
                    unifiers[query_id])
        self.global_unifier = global_unifier
