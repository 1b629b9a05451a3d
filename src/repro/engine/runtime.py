"""The incremental coordination runtime: one delta-driven scheduler.

The paper's coordination loop is inherently incremental — queries
arrive, join the unifiability graph, and only the affected components
need re-matching — so per-arrival admission, set-at-a-time rounds and
expiry sweeps all run behind a single scheduler built on two pieces of
machinery:

* **Graph deltas** — :class:`repro.core.graph.UnifiabilityGraph` emits a
  :class:`~repro.core.graph.GraphDelta` after every insertion/removal.
  The scheduler is the listener: it keeps
  :class:`~repro.engine.partitions.PartitionManager` (the sole source of
  component truth) in sync and marks the touched components *dirty*.
* **A dirty-component worklist** — set-at-a-time rounds
  (:meth:`CoordinationScheduler.drain_all`) simply drain the worklist:
  only components whose member set changed are re-matched, only those
  an insert may have made answerable are re-evaluated.  An unchanged
  component would deterministically produce its previous outcome on an
  unchanged database — or, conjunctive bodies being monotone, on one
  that only lost rows — so skipping it is answer-preserving.  (§6
  aggregates are not monotone: their readers are re-queued on any
  write to a table they read.)

Arrival ingestion is one path (:meth:`CoordinationScheduler.ingest`):
the graph writes the arrival's provider refs and emits its delta, and a
block of arrivals (``submit_many``) is that same call in a loop — the
graph keeps every ref map in insertion-rank order, so a block leaves
exactly the state the one-at-a-time loop leaves.

The scheduler owns coordination *mechanics* (worklist, matching,
combined-query evaluation, failure caches); its host — the
:class:`~repro.engine.engine.D3CEngine` — owns *policy and lifecycle*
(admission, safety, tickets, staleness, statistics) and exposes the
configuration and settlement callbacks the scheduler uses.
"""

from __future__ import annotations

import time
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from ..core.combine import build_combined_query
from ..core.evaluate import _pick_valuations, _record_answers
from ..core.graph import GraphDelta, UnifiabilityGraph
from ..core.matching import ComponentMatch, match_component
from ..core.query import EntangledQuery
from ..core.terms import Constant, Variable
from ..core.ucs import check_ucs_graph
from ..db.expression import ConjunctiveQuery
from ..db.types import ColumnType
from ..errors import ReproError, SchemaError, ValidationError
from ..obs.trace import TRACER
from .partitions import PartitionManager

#: Incremental mode's cap on the local coordination group built around
#: an arrival; a group that would exceed it is left to set-at-a-time
#: rounds (the paper reaches the same conclusion for massively unifying
#: partitions, Section 5.3.4).
MAX_GROUP_SIZE = 64

#: How many alternative providers an arrival's first postcondition
#: tries when pending heads transiently over-unify.
MAX_CANDIDATE_ATTEMPTS = 8

#: Combined queries with more body atoms than this are never sent to
#: the database (the paper's Figure 7 shows it collapsing past a
#: join-count threshold); their queries stay pending.
MAX_COMBINED_ATOMS = 512


class CoordinationScheduler:
    """Delta-driven coordination over one unifiability graph.

    The *host* (the engine) provides configuration attributes
    (``database``, ``stats``, ``rng``, ``incremental_strategy``,
    ``ucs_fallback``), the arrival-order mapping ``_arrival``, the
    trace-id lookup ``_trace_id``, and the settlement callback
    ``_settle_answers``.  All entry points must be called under the
    host's lock.
    """

    #: Cap on body valuations enumerated by the feasibility prefilter.
    _FEASIBILITY_LIMIT = 64

    def __init__(self, host):
        self._host = host
        self.graph = UnifiabilityGraph(counters=host.stats)
        # Closure accounting and the resumable matching state are
        # maintained only where they are consumed: per-arrival attempts
        # on whole partitions.  Batch engines and the local strategy
        # keep structure-only partitions (nothing per arrival; a round
        # retains the slim Attempt of each component it fails on).
        self.partitions = PartitionManager(
            self.graph, host._arrival,
            track_matching=(host.mode == "incremental"
                            and host.incremental_strategy == "component"))
        self.graph.add_listener(self._on_delta)
        # The worklist: query id -> None, insertion-ordered.  Entries
        # are representatives — drain_all resolves each to its current
        # partition root and deduplicates, so the worklist stays exact
        # across union-find merges without eager re-rooting.
        self._dirty: dict = {}
        # Local groups whose combined query found no data; the database
        # is treated as a snapshot per the paper, so a failed group
        # cannot succeed until the data changes (see invalidate).  A
        # group with §6 aggregates is never cached: its failure is not
        # monotone in the data.  Indexed by member so a mutation drops
        # the affected groups without scanning the whole set.
        self._failed_groups: set[frozenset] = set()
        self._failed_by_member: dict = {}
        # Body enumerations the feasibility prefilter ran (published
        # as ``feasibility.misses``: every call enumerates).
        self.feasibility_misses = 0
        # relation name -> {query_id: None} of live queries whose body
        # reads it, plus the inverse for cleanup: database mutations
        # dirty-mark exactly the components that read the mutated
        # table (see mark_table_dirty).  Built lazily at the first
        # mutation — mutation-free workloads (every paper benchmark)
        # pay nothing on the arrival hot path — then maintained
        # incrementally by the delta listener.
        self._readers: Optional[dict] = None
        self._reads_of: dict = {}
        # Live queries carrying §6 aggregates -> the tables they read,
        # kept eagerly (the one reader set a delete-only delta
        # re-queues); empty, and never consulted, without aggregates.
        self._aggregated: dict = {}
        # When set, removal deltas are collected instead of applied so
        # multi-query removals rebuild each affected partition once.
        self._removal_batch: Optional[list] = None

    # ------------------------------------------------------------------
    # delta protocol
    # ------------------------------------------------------------------

    def _on_delta(self, delta: GraphDelta) -> None:
        """Fold one graph delta into partition state and the worklist."""
        query_id = delta.query_id
        if delta.kind == "add":
            query = delta.query
            self.partitions.add_query(query, delta)
            self._dirty[query_id] = None
            if self._readers is not None:
                self._track_reader(query)
            if query.aggregates:
                self._aggregated[query_id] = _tables_read(query)
            return
        # A removal is forgotten here, in the pass that removes it; only
        # the partition bookkeeping waits for the end of a block.
        self._dirty.pop(query_id, None)
        if self._readers is not None:
            self._forget_reader(query_id)
        if self._aggregated:
            self._aggregated.pop(query_id, None)
        if self._failed_by_member:
            self._drop_failed_groups_of(query_id)
        if self._removal_batch is not None:
            self._removal_batch.append(query_id)
            return
        for representative in self.partitions.remove_queries((query_id,)):
            self._dirty[representative] = None

    def _track_reader(self, query: EntangledQuery) -> None:
        relations = _tables_read(query)
        self._reads_of[query.query_id] = relations
        for relation in sorted(relations):
            self._readers.setdefault(relation, {})[query.query_id] = None

    def _forget_reader(self, query_id) -> None:
        for relation in self._reads_of.pop(query_id, ()):
            readers = self._readers.get(relation)
            if readers is not None:
                readers.pop(query_id, None)
                if not readers:
                    del self._readers[relation]

    def _ensure_reader_index(self) -> None:
        """Build the relation -> readers index from the live graph
        (first mutation only; incremental from then on)."""
        if self._readers is not None:
            return
        self._readers = {}
        for query_id in self.graph.query_ids():
            self._track_reader(self.graph.query(query_id))

    def remove_block(self, query_ids: Sequence) -> None:
        """Remove many queries, rebuilding affected partitions once.

        Used by settlement and expiry; the survivors of every affected
        partition are marked dirty, so the next set-at-a-time round
        re-attempts exactly the components that changed shape.
        """
        if not query_ids:
            return
        self._removal_batch = []
        try:
            for query_id in query_ids:
                self.graph.remove_query(query_id)
        finally:
            removed, self._removal_batch = self._removal_batch, None
        for representative in self.partitions.remove_queries(removed):
            self._dirty[representative] = None

    @property
    def pristine(self) -> bool:
        """True while the scheduler holds no coordination state at all.

        Recovery restore paths (:mod:`repro.durability.service`) use
        this as a guard: burned ids and pending imports may only be
        replayed onto a scheduler that has never ingested a query, so
        the recovered history is the *only* history.
        """
        return (len(self.graph) == 0 and not self._dirty
                and not self._failed_groups
                and not self.partitions.partition_sizes())

    def mark_table_dirty(self, delta) -> None:
        """Targeted invalidation after a committed ``TableDelta``.

        Exactly the queries that read the mutated table — in their
        bodies or in their aggregates' atoms — are re-queued (their
        components re-attempt at the next drain — previously failed
        groups over that table may now succeed); components reading
        only untouched tables keep their clean state and their
        failed-group entries.  A delta that inserted nothing re-queues
        only the readers carrying §6 aggregates: a combined query is
        conjunctive, hence monotone — losing rows makes nothing
        answerable — but an aggregate is not (``COUNT(...) < n`` can
        come to hold when rows leave).

        Both invalidations go through maintained reverse indexes
        (relation -> readers, member -> failed groups): the
        per-mutation cost is proportional to what is actually
        invalidated, never to the size of the caches.
        """
        if delta.inserted:
            self._ensure_reader_index()
            # (Mark order is immaterial: rounds go by arrival.)
            readers = self._readers.get(delta.table, ())
            self._dirty.update(readers)
            if self._failed_by_member:  # never, in batch engines
                for query_id in readers:
                    self._drop_failed_groups_of(query_id)
        elif self._aggregated:
            # (No failed group to drop: aggregate groups are not cached.)
            for query_id, tables in self._aggregated.items():
                if delta.table in tables:
                    self._dirty[query_id] = None

    def invalidate(self) -> None:
        """Forget data-dependent caches and re-queue everything."""
        self._failed_groups.clear()
        self._failed_by_member.clear()
        self._dirty.update(dict.fromkeys(self.graph.query_ids()))

    def _record_failed_group(self, group: frozenset) -> None:
        """Cache a group's data failure, indexed by member for
        targeted invalidation on mutation."""
        self._failed_groups.add(group)
        for member in group:
            self._failed_by_member.setdefault(member, set()).add(group)

    def _drop_failed_groups_of(self, query_id) -> None:
        """Forget every cached failure involving *query_id*.

        Called on mutation (the failure may no longer hold) and on
        query removal (a settled or expired member can never re-form
        the identical group — and a re-submitted incarnation deserves
        a fresh attempt), so the failure cache tracks the live pending
        set instead of growing for the engine's lifetime.
        """
        for group in self._failed_by_member.pop(query_id, ()):
            self._failed_groups.discard(group)
            for member in group:
                if member == query_id:
                    continue
                bucket = self._failed_by_member.get(member)
                if bucket is not None:
                    bucket.discard(group)
                    if not bucket:
                        del self._failed_by_member[member]

    # ------------------------------------------------------------------
    # arrival ingestion
    # ------------------------------------------------------------------

    def ingest(self, query: EntangledQuery) -> GraphDelta:
        """Admit one query into the graph; returns its ``"add"`` delta."""
        stats = self._host.stats
        start = time.perf_counter()
        delta = self.graph.add_query(query)
        stats.graph_seconds += time.perf_counter() - start
        return delta

    # ------------------------------------------------------------------
    # incremental (per-arrival) draining
    # ------------------------------------------------------------------

    def drain_arrival(self, query: EntangledQuery, delta: GraphDelta,
                      attempted_roots: Optional[set] = None) -> None:
        """Attempt coordination triggered by one arrival (*delta* is
        what :meth:`ingest` returned for it).

        ``"component"`` strategy: match the arrival's whole partition
        when it just closed.  ``"local"`` strategy: build bounded local
        groups around the arrival (or its dependents, for a
        postcondition-free arrival).

        *attempted_roots* dedupes component-strategy attempts within
        one ingestion block: every member of a closed-but-unsatisfied
        partition would otherwise re-match the identical partition (a
        deterministic repeat of the same failure) once per block
        member, where sequential submission attempts once at closure.
        """
        host = self._host
        origin = query.query_id
        if host.incremental_strategy == "component":
            if self.partitions.is_closed(origin):
                if attempted_roots is not None:
                    # Key by member set, not root id: a partition that
                    # lost members to a settlement mid-block must be
                    # re-attempted even if its representative recurs,
                    # while an identical member set implies an
                    # identical graph and a deterministic repeat.
                    key = frozenset(self.partitions.members_set(origin))
                    if key in attempted_roots:
                        return
                    attempted_roots.add(key)
                host.stats.closure_events += 1
                host.stats.coordination_rounds += 1
                self._attempt_component(origin)
            return
        if query.pccount:
            self._attempt_around(origin)
        else:
            # A postcondition-free query can satisfy others or answer
            # alone.  Give dependents first shot at forming a group
            # containing it; if none consumes it, answer it solo.
            for dst in self._arrival_order({dst for dst, _
                                            in delta.slots}):
                if origin not in self.graph:
                    return
                if dst in self.graph:
                    self._attempt_around(dst)
            if origin in self.graph:
                self._attempt_group(frozenset((origin,)))

    def _arrival_order(self, query_ids: Iterable) -> list:
        arrival = self._host._arrival
        return sorted(query_ids, key=arrival.__getitem__)

    def _combinable(self, match: ComponentMatch) -> Optional[dict]:
        """The survivors' queries by id — or None when their combined
        query would exceed :data:`MAX_COMBINED_ATOMS` (the paper
        observes the DB collapsing past a join-count threshold, Figure
        7; the queries stay pending).  The simplified combined query has
        exactly one atom per member body atom, so the cap is decided
        before anything is built."""
        queries_by_id = {query_id: self.graph.query(query_id)
                         for query_id in match.survivors}
        if sum(len(query.body) for query in queries_by_id.values()) \
                > MAX_COMBINED_ATOMS:
            return None
        return queries_by_id

    def _attempt_component(self, origin, fallback: bool = False) -> None:
        """Paper-faithful attempt: evaluate *origin*'s whole partition.

        The one match -> combine -> evaluate path of whole components:
        the ``"component"`` strategy takes it at closure, set-at-a-time
        rounds per dirty component (*fallback*: their ``ucs_fallback``).
        It starts from what the partition's last attempt left: the
        matching is resumed where arrivals extended it, else rebuilt;
        the combined query is reused while the member set stands; and
        one that was empty on table versions that still stand
        (``Attempt.empty_reads``) is empty still, as is every
        conjunctive superset a resumed matching can yield, so nothing
        is built or evaluated — nor is the matching read, so the
        arrivals recorded on it stay unfolded.  A growing
        massively-unifying partition (Figure 8) therefore costs, per
        arrival and end to end, the graph's ref writes and the closure
        accounting; an arrival's edges are built (one per
        postcondition) only when a later attempt reads the matching.
        An attempt with §6 aggregates stamps no verdict (a count can
        come to hold as members join or rows leave); one stamped
        before aggregates joined stays sound, since aggregates only
        filter valuations.  A *fallback* round ignores the
        verdict: it speaks for the whole component, not for its cores.
        """
        host = self._host
        stats = host.stats
        partitions = self.partitions
        tracer = TRACER
        if tracer.enabled:
            start_ns = time.perf_counter_ns()
        start = time.perf_counter()
        kept, resumed = partitions.match_state(origin)
        if resumed:
            stats.match_resumed += 1
        else:
            stats.match_rebuilt += 1
        if kept.empty_reads is not None and not fallback:
            table_or_none = host.database.table_or_none
            if all(table_or_none(name) is table and table.version == version
                   for name, table, version in kept.empty_reads):
                stats.closures_skipped_empty += 1
                stats.match_seconds += time.perf_counter() - start
                if tracer.enabled:
                    tracer.record("query.match_attempt", start_ns,
                                  host._trace_id(origin),
                                  outcome="empty_carried",
                                  members=partitions.partition_size(origin))
                return
        match = kept.result() if kept.query is None else None
        stats.match_seconds += time.perf_counter() - start
        if tracer.enabled:
            self._record_match_spans(
                partitions.members_set(origin), start_ns,
                "reused" if match is None else "built")
        if match is not None:
            if not match.survivors or match.global_unifier is None:
                return
            queries_by_id = self._combinable(match)
            if queries_by_id is None:
                return
            kept = partitions.retain(
                origin, kept, build_combined_query(queries_by_id, match))
            stats.combined_queries_built += 1
        # Stamped before evaluating: a write racing the evaluation then
        # reads as a version mismatch, never as a verdict that stands.
        reads = tuple([(name, table, table.version)
                       for name in dict.fromkeys(
                           [atom.relation for atom in kept.query.atoms])
                       for table in (host.database.table(name),)])
        if not self._evaluate_combined(kept):
            if not kept.aggregates:
                kept.empty_reads = reads
            if fallback:
                self._core_fallback(tuple(kept.heads))

    def _attempt_around(self, origin) -> None:
        """Try bounded local coordination groups seeded at *origin*.

        Builds the dependency closure of *origin* under the current
        pending set, preferring providers already in the group (so
        mutually coordinating pairs and cliques close on themselves).
        When the origin's postconditions transiently over-unify with
        several pending heads, alternative providers are tried up to
        :data:`MAX_CANDIDATE_ATTEMPTS`, *feasible-first*: a cheap
        semi-join of the origin's body against the database reorders
        candidates so providers the data can actually pair with are
        tried before stale pendings (this is what keeps the paper's
        "random workload" linear — without it, attempts are wasted on
        dead queries).
        Groups whose combined query already failed on the data are
        skipped for free.
        """
        host = self._host
        query = self.graph.query(origin)
        choices: Sequence = (None,)
        if query.pccount:
            choices = [*self.graph.provider_refs(origin)[0]]
            if len(choices) > 1:
                choices = self._feasible_first(query, choices)
            # No choice left means no pending provider, or none the
            # data can pair with: any group through this postcondition
            # is empty on the DB.
            choices = choices[:MAX_CANDIDATE_ATTEMPTS]
        tried: set[frozenset] = set()
        for ref in choices:
            forced = {} if ref is None else {(origin, 0): ref[0]}
            group = self._build_group(origin, forced)
            if group is None or group in tried:
                continue
            tried.add(group)
            if group in self._failed_groups:
                continue
            host.stats.closure_events += 1
            if self._attempt_group(group):
                return

    def _feasible_first(self, query: EntangledQuery,
                        refs: list) -> list:
        """Filter/reorder candidate provider refs by data feasibility,
        into arrival order (a provider's refs stay in head order).

        One bounded enumeration of the origin query's body, in the
        planner's fan-out order, projected from the executor's slots
        onto its first postcondition's variables; then one
        set-membership test per candidate, by the ground head values
        the graph keeps at those positions (its constants agree, or it
        would not unify).  If the enumeration is *complete* (did not
        hit the cap), candidates the data cannot pair with are dropped
        outright — their combined query is guaranteed empty.  If it was
        truncated, they merely move to the back.  Either way a provider
        whose head is non-ground is kept in front.  Only survivors are
        sorted, and nothing is remembered between calls, so there is
        nothing a mutation could leave stale.
        """
        host = self._host
        arrival = host._arrival

        def by_arrival(kept: list) -> list:
            return sorted(kept, key=lambda ref: arrival[ref[0]])

        args = query.postconditions[0].args
        positions = [position for position, term in enumerate(args)
                     if isinstance(term, Variable)]
        if not query.body or not positions:
            return by_arrival(refs)
        tracer = TRACER
        if tracer.enabled:
            start_ns = time.perf_counter_ns()
        limit = self._FEASIBILITY_LIMIT
        self.feasibility_misses += 1
        start = time.perf_counter()
        try:
            rows = [*host.database.project(
                ConjunctiveQuery(query.body),
                [args[position] for position in positions], limit)]
        except ReproError:
            return by_arrival(refs)
        finally:
            host.stats.db_seconds += time.perf_counter() - start
        feasible = set(rows)
        preferred, fallback = [], []
        key_of = itemgetter(*positions)
        head_values = self.graph.head_values
        for ref in refs:
            values = head_values[ref]
            if values is None or key_of(values) in feasible:
                preferred.append(ref)
            else:
                fallback.append(ref)
        complete = len(rows) < limit
        if tracer.enabled:
            tracer.record("query.prefilter", start_ns,
                          host._trace_id(query.query_id),
                          candidates=len(refs), enumerated=len(rows),
                          kept=len(preferred), complete=complete)
        return by_arrival(preferred) + ([] if complete
                                        else by_arrival(fallback))

    def _build_group(self, origin, forced: dict) -> Optional[frozenset]:
        """Dependency closure of *origin*, or None if it cannot close.

        Every member's every postcondition must have a provider inside
        the group; providers already in the group are preferred, then
        earliest arrival.  ``forced`` pins the provider of specific
        postconditions (used to iterate alternatives for the origin's
        first postcondition).  Reads refs only: the one edge per slot a
        group ends up using is built by its matching.
        """
        group: set = {origin}
        stack: list = [origin]
        arrival = self._host._arrival
        while stack:
            current = stack.pop()
            for pc_pos, refs in enumerate(
                    self.graph.provider_refs(current)):
                chosen = forced.get((current, pc_pos))
                if chosen is None:
                    providers = [src for src, _ in refs]
                    if not providers:
                        return None
                    in_group = [src for src in providers if src in group]
                    chosen = min(in_group or providers,
                                 key=arrival.__getitem__)
                if chosen not in group:
                    if len(group) >= MAX_GROUP_SIZE:
                        return None
                    group.add(chosen)
                    stack.append(chosen)
        return frozenset(group)

    def _record_match_spans(self, members, start_ns, outcome) -> None:
        """One ``query.match_attempt`` span per member that carries a
        trace id (members with no live trace are skipped); all spans
        share the attempt's start, so they report the same matching
        interval from each participating query's point of view.
        *outcome*: the combined query was ``"built"`` or ``"reused"``."""
        if TRACER.enabled:
            traced = [trace_id for trace_id
                      in map(self._host._trace_id, members)
                      if trace_id is not None]
            if traced:
                TRACER.record_many("query.match_attempt", start_ns, traced,
                                   members=len(members), outcome=outcome)

    def _attempt_group(self, group: frozenset) -> bool:
        """Match, combine, and evaluate one candidate group."""
        host = self._host
        host.stats.coordination_rounds += 1
        tracer = TRACER
        if tracer.enabled:
            start_ns = time.perf_counter_ns()
        start = time.perf_counter()
        match = match_component(self.graph, group,
                                order=host._arrival)
        host.stats.match_seconds += time.perf_counter() - start
        if tracer.enabled:
            self._record_match_spans(group, start_ns, "built")
        if (set(match.survivors) != set(group)
                or match.global_unifier is None):
            # The group as chosen cannot mutually satisfy; it is a
            # static failure, cache it so retries are free.
            self._record_failed_group(group)
            return False
        queries_by_id = {query_id: self.graph.query(query_id)
                         for query_id in match.survivors}
        host.stats.combined_queries_built += 1
        combined = build_combined_query(queries_by_id, match)
        if self._evaluate_combined(combined):
            return True
        if not combined.aggregates:
            self._record_failed_group(group)
        return False

    # ------------------------------------------------------------------
    # set-at-a-time draining (the worklist)
    # ------------------------------------------------------------------

    def drain_all(self) -> None:
        """One set-at-a-time coordination round over dirty components.

        Only components touched since their last attempt are attempted
        again.  Components whose evaluation settles queries re-enter the
        worklist through the removal deltas (their survivors changed
        shape); failed components stay clean until something changes.
        A component whose attempt raises (a planner or evaluation
        error) keeps its mark, every other component is still
        attempted, and the round then raises the first error.  If the
        round is interrupted outright, every consumed mark is restored.
        """
        marks = list(self._dirty)
        self._dirty.clear()
        try:
            error = self._drain_marks(marks)
        except BaseException:
            for query_id in marks:
                self._dirty[query_id] = None
            raise
        if error is not None:
            raise error

    def _drain_marks(self, marks: Sequence) -> Optional[Exception]:
        """Attempt the live components *marks* stand for (answered and
        expired marks drop out), in arrival order; returns the first
        error an attempt raised (its component is marked again)."""
        roots: set = set()
        for query_id in marks:
            if query_id in self.graph:
                # A mark from a removal stands for its whole (possibly
                # stale) partition: refreshing yields every component
                # the partition split into, all of which changed shape.
                roots.update(self.partitions.refreshed_roots(query_id))
        host = self._host
        host.stats.components_drained += len(roots)
        # (Components are disjoint: settling one keeps the rest exact.)
        error = None
        for root in sorted(roots, key=self.partitions.first_arrival):
            try:
                self._attempt_component(root, host.ucs_fallback)
            except Exception as failure:
                self._dirty[root] = None
                if error is None:
                    error = failure
        return error

    def _core_fallback(self, survivors: Sequence) -> None:
        """Retry a failed component's strongly connected cores."""
        host = self._host
        report = check_ucs_graph(self.graph, set(survivors))
        for core in report.cores:
            core_match = match_component(self.graph, core,
                                         order=host._arrival)
            if (not core_match.survivors
                    or core_match.global_unifier is None):
                continue
            core_queries = self._combinable(core_match)
            if core_queries is not None:
                self._evaluate_combined(
                    build_combined_query(core_queries, core_match))

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def _evaluate_combined(self, combined) -> bool:
        """Evaluate a combined query (a ``CombinedQuery`` or the
        ``Attempt`` retained of one); settle and evict on success."""
        host = self._host
        tracer = TRACER
        if tracer.enabled:
            start_ns = time.perf_counter_ns()
        start = time.perf_counter()
        valuations = _pick_valuations(host.database, combined,
                                      combined.choose, host.rng)
        host.stats.db_seconds += time.perf_counter() - start
        if tracer.enabled:
            tracer.record("db.evaluate", start_ns,
                          atoms=len(combined.query.atoms),
                          valuations=len(valuations))
        if not valuations:
            return False

        answers: dict = {}
        _record_answers(combined, valuations, answers)
        host._settle_answers(answers)
        return True


def _atoms_read(query: EntangledQuery) -> tuple:
    """The database atoms *query* evaluates: its body's and its
    aggregates' (a mutation of either table can change its outcome)."""
    atoms = query.body
    for constraint in query.aggregates:
        atoms += constraint.database_atoms()
    return atoms


def _tables_read(query: EntangledQuery) -> set:
    """The database tables *query* reads."""
    return {atom.relation for atom in _atoms_read(query)}


def check_block(queries: Sequence[EntangledQuery], used,
                database) -> None:
    """Refuse a block before anything of it is admitted.

    Every query must be well formed, its id neither in *used* (the
    service's burned ids) nor twice in the block, and every database
    atom it evaluates (body and §6 aggregates) must name a table
    present in *database*, at the table's arity, and no ordering
    comparison (``<``, ``<=``, ``>``, ``>=``) may set text against a
    number, as far as constants and typed columns tell — admitted,
    such a query would fail every round that evaluates its component,
    its partners' rounds included.  Every shape's ``submit_many``
    calls this first.
    """
    seen: set = set()
    table_or_none = database.table_or_none
    for query in queries:
        query.validate()
        query_id = query.query_id
        if query_id in used:
            raise ValidationError(
                f"query id {query_id!r} already used in this service")
        if query_id in seen:
            raise ValidationError(
                f"query id {query_id!r} appears twice in one block")
        seen.add(query_id)
        for atom in _atoms_read(query):
            table = table_or_none(atom.relation)
            if table is None or len(atom.args) != table.schema.arity:
                raise SchemaError(_unreadable(query_id, atom, table))
        if query.body_comparisons:
            _check_orderable(query, table_or_none)


#: Which side of text-against-number a typed column holds (an ``any``
#: column may hold either).
_COLUMN_KINDS = {ColumnType.TEXT: "text", ColumnType.INT: "number",
                 ColumnType.FLOAT: "number", ColumnType.BOOL: "number"}


def _check_orderable(query: EntangledQuery, table_or_none) -> None:
    """Refuse an ordering comparison of *query* that sets text against
    a number — it raises whenever it is evaluated — as far as its
    constants' types and its variables' typed body columns tell."""
    kinds: dict = {}
    for atom in query.body:
        columns = table_or_none(atom.relation).schema.columns
        for term, column in zip(atom.args, columns):
            if isinstance(term, Variable) and column.type in _COLUMN_KINDS:
                kinds.setdefault(term, set()).add(_COLUMN_KINDS[column.type])
    for comparison in query.body_comparisons:
        left, right = (
            {"text" if isinstance(term.value, str) else "number"}
            if isinstance(term, Constant) else kinds.get(term, set())
            for term in (comparison.left, comparison.right))
        if comparison.op in ("<", "<=", ">", ">=") and left and right \
                and len(left | right) == 2:
            raise SchemaError(
                f"query {query.query_id!r} orders text against a "
                f"number: {comparison}")


def _unreadable(query_id, atom, table) -> str:
    if table is None:
        return (f"query {query_id!r} reads no such table: "
                f"{atom.relation!r}")
    return (f"query {query_id!r} reads {atom.relation!r} with arity "
            f"{len(atom.args)}; the table has {table.schema.arity} "
            f"columns")
