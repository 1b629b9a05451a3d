"""The D3C engine (paper Section 5.1).

Ties everything together: applications submit entangled queries and get
back :class:`~repro.engine.futures.CoordinationTicket` futures; the
engine admits queries (validation, safety, staleness bookkeeping) and
hands coordination to one incremental runtime — the delta-driven
scheduler of :mod:`repro.engine.runtime`.

Two evaluation modes, as in the paper, now served by a single scheduler
path:

* **incremental** — every arrival updates the graph and the partition
  state through the scheduler; coordination is attempted around the
  arrival immediately (bounded local groups, or the whole partition at
  closure under the ``"component"`` strategy).
* **batch** (set-at-a-time) — arrivals only accumulate (they still
  maintain the graph and partition state incrementally); coordination
  runs when :meth:`D3CEngine.run_batch` drains the scheduler's
  dirty-component worklist.  Only components touched since their last
  attempt are attempted, re-matched only if their member set changed.
  Independent
  components run in parallel by living on different process shards
  (:mod:`repro.shard`), not on threads.

Every arrival enters through :meth:`D3CEngine.submit_many` — a single
``submit`` is a block of one (:class:`~repro.service.
CoordinationService`): the block is validated whole, stamped into
:class:`PendingRecord`\\ s, adopted and ingested arrival by arrival,
and coordination is attempted once the whole block is in the graph.
One body adopts records (:meth:`D3CEngine._adopt`), whether they were
just submitted, stamped by the sharded coordinator, or imported.

Safety is enforced at admission: a query that would make the pending
workload unsafe is rejected immediately (``safety="reject"``), mirroring
the admission check stress-tested in the paper's Figure 9.

Every ticket the engine settles — answered, expired or refused unsafe —
goes to :attr:`~repro.service.CoordinationService.on_settle` right
after it settles, whichever call settled it.
"""

from __future__ import annotations

import heapq
import math
import random
import threading
import time
from collections import Counter
from operator import attrgetter
from typing import Iterable, Literal, NamedTuple, Optional, Sequence

from ..core.evaluate import FailureReason
from ..core.query import EntangledQuery
from ..core.safety import SafetyChecker
from ..db.database import Database
from ..errors import RecoveryError, ValidationError
from ..obs.metrics import MetricsRegistry
from ..obs.trace import TRACER
from ..service import CoordinationService, state_payload

#: Shared attrs for hot-path settle spans — one constant dict instead
#: of an allocation per settlement.  Never mutated by any reader.
_SETTLED_ANSWERED = {"outcome": "answered"}
from .futures import CoordinationTicket
from .runtime import CoordinationScheduler, check_block
from .staleness import Clock, NeverStale, StalenessPolicy, SystemClock
from .stats import EngineStats

EngineMode = Literal["incremental", "batch"]
SafetyMode = Literal["reject", "off"]

#: Sentinel distinguishing "id had no arrival entry" from "entry was
#: None" when rolling back a failed adoption.
_ABSENT = object()


class PendingRecord(NamedTuple):
    """One pending query: the one form it takes from admission to
    settlement, on every service shape.

    Stamped once at the front door (:func:`stamp_records`): the
    renamed-apart working copy, the (global) arrival sequence number,
    and the submission timestamp staleness is judged against.  An
    engine stores the record itself as the query's pending entry, and
    every other path hands the stored record on as is — export and
    import, snapshot and restore, and on a fleet the coordinator's
    copy, which is what a shard adopts on submission, migration and
    re-homing.
    """

    query: EntangledQuery
    arrival_seq: int
    submitted_at: float
    #: Originating trace id when lifecycle tracing stamped one; rides
    #: along so a migrated component keeps contributing spans to the
    #: trace that submitted it.  Defaults to None (tracing off, or a
    #: record serialized before the field existed).
    trace_id: Optional[str] = None


_ARRIVAL_SEQ = attrgetter("arrival_seq")


def stamp_records(queries: Sequence[EntangledQuery], first_seq: int,
                  now: float) -> list[PendingRecord]:
    """Rename a validated block apart and stamp its records: arrival
    sequences from *first_seq*, submission instant *now*, and — while
    tracing — a fresh trace id per query, opened by its
    ``query.submit`` and ``query.rename_apart`` spans.  The one place
    a query becomes a record (an engine's and a fleet's front door)."""
    tracer = TRACER
    if tracer.enabled:
        records = []
        site = tracer.site
        for seq, query in enumerate(queries, first_seq):
            trace_id = tracer.new_trace_id()
            start_ns = time.perf_counter_ns()
            tracer.emit(("query.submit", trace_id, site, start_ns, 0,
                         {"query": str(query.query_id)}))
            working = query.rename_apart()
            tracer.emit(("query.rename_apart", trace_id, site, start_ns,
                         time.perf_counter_ns() - start_ns, None))
            records.append(PendingRecord(working, seq, now, trace_id))
        return records
    return [PendingRecord(query.rename_apart(), seq, now)
            for seq, query in enumerate(queries, first_seq)]


class D3CEngine(CoordinationService):
    """Coordination middleware over one database.

    Args:
        database: substrate evaluated against (a snapshot per round;
            the engine never writes to it, but it may be mutated
            between rounds — the engine listens for committed
            :class:`~repro.db.database.TableDelta`\\ s and re-queues
            exactly the components reading the mutated tables).
        mode: ``"incremental"`` or ``"batch"`` (set-at-a-time).
        safety: ``"reject"`` fails arrivals that over-unify with pending
            heads immediately; ``"off"`` (default) admits everything and
            lets matching resolve transient multi-candidates by arrival
            order.  The paper runs its scalability workloads without the
            admission check and stress-tests it separately (Figure 9);
            pending heads sharing a destination routinely over-unify
            transiently, so ``"reject"`` suits admission-control
            deployments, not the throughput experiments.
        staleness: policy deciding when pending queries expire; checked
            during :meth:`expire_stale` sweeps.
        clock: time source for staleness (injected for tests).
        rng: randomness for CHOOSE's random-tuple semantics (None =
            take the executor's first valuations, the LIMIT 1 path).
        ucs_fallback: retry strongly connected cores when a closed
            partition finds no data (Section 6-adjacent extension;
            applies to :meth:`run_batch` rounds).
        incremental_strategy: ``"local"`` (default) attempts bounded
            local groups per arrival; ``"component"`` reproduces the
            paper's design faithfully — whenever the arrival's whole
            partition is closed, evaluate the entire partition,
            continuing the stored matching state with the arrival
            (Section 5.1) instead of re-matching.  On massively
            unifying partitions the combined query is still rebuilt
            and re-evaluated at every closure, which is the behaviour
            behind the paper's Figure 8 set-at-a-time recommendation.

    The caps on a local group's size, on the alternative providers
    tried per arrival and on a combined query's atoms are constants of
    :mod:`repro.engine.runtime`.
    """

    def __init__(self, database: Database,
                 mode: EngineMode = "incremental",
                 safety: SafetyMode = "off",
                 staleness: StalenessPolicy | None = None,
                 clock: Clock | None = None,
                 rng: Optional[random.Random] = None,
                 ucs_fallback: bool = False,
                 incremental_strategy: str = "local"):
        if mode not in ("incremental", "batch"):
            raise ValueError(f"unknown mode {mode!r}")
        if safety not in ("reject", "off"):
            raise ValueError(f"unknown safety mode {safety!r}")
        if incremental_strategy not in ("local", "component"):
            raise ValueError(
                f"unknown incremental strategy {incremental_strategy!r}")
        self.database = database
        self.mode = mode
        self.safety_mode = safety
        self.staleness = staleness or NeverStale()
        self.clock = clock or SystemClock()
        self.rng = rng
        self.ucs_fallback = ucs_fallback
        self.incremental_strategy = incremental_strategy
        self.stats = EngineStats()

        self._lock = threading.RLock()
        # query_id -> (PendingRecord, ticket); insertion order is
        # arrival order for submissions (imports may splice earlier
        # sequences in; pending_ids sorts).
        self._pending: dict = {}
        # query_id -> arrival sequence number; the scheduler's partition
        # manager holds this very dict as its matching order.
        self._arrival: dict = {}
        self._next_seq = 0
        self._runtime = CoordinationScheduler(self)
        self._safety = SafetyChecker()
        # (deadline, seq, query_id) min-heap for deadline-bearing
        # staleness policies; settled entries are dropped lazily, so an
        # expiry sweep is O(expired log pending), not O(pending).
        self._expiry_heap: list[tuple] = []
        # Live-mutation hook: every committed TableDelta re-queues
        # exactly the components whose plans read the mutated table
        # (held weakly by the database — a dropped engine unregisters
        # itself).
        database.add_mutation_listener(self._on_table_delta)

    # ------------------------------------------------------------------
    # compatibility views (tests and diagnostics reach for these)
    # ------------------------------------------------------------------

    @property
    def _graph(self):
        return self._runtime.graph

    @property
    def _partitions(self):
        return self._runtime.partitions

    @property
    def _failed_groups(self):
        return self._runtime._failed_groups

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """This engine's metrics as one registry snapshot.

        The one stats surface: every :class:`EngineStats` field
        appears under its own name (:meth:`EngineStats.to_metrics`),
        joined by the database's ordered-index counters
        (``range_index.*``, read here so hot-path counter bumps stay
        attribute stores), its cache counters (``db.*``) and the
        prefilter's enumeration count (``feasibility.misses``).  The
        shape is JSON-safe and merges across a fleet with
        :func:`repro.obs.merge_snapshots`.
        """
        registry = MetricsRegistry()
        with self._lock:
            self.stats.to_metrics(registry)
            for key, value in self.database.range_stats().items():
                registry.inc(f"range_index.{key}", value)
            registry.inc("feasibility.misses",
                         self._runtime.feasibility_misses)
            for key, value in self.database.cache_stats().items():
                registry.inc(f"db.{key}", value)
        return registry.snapshot()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit_many(self, queries: Iterable[EntangledQuery]
                    ) -> list[CoordinationTicket]:
        """Submit a block of arrivals, coordinating after the block.

        The one admission path (``submit`` is a block of one).  The
        block is refused whole by :func:`~repro.engine.runtime.
        check_block` — every query well formed, every id unused, every
        atom it evaluates over a present table of its arity — before
        any query is admitted; a refused block leaves the engine
        untouched.  An id whose previous incarnation *expired* may be
        re-submitted (application retry semantics — the new record gets
        a fresh submission instant and deadline).  The block is then
        renamed apart and stamped (:func:`stamp_records`), then adopted
        and coordinated as :meth:`submit_records` describes.

        Returns the tickets in input order; tickets may already be
        settled on return.
        """
        queries = list(queries)
        with self._lock:
            check_block(queries, self._arrival, self.database)
            return self._submit(stamp_records(
                queries, self._next_seq, self.clock.now()))

    def submit_records(self, records: Sequence[PendingRecord]
                       ) -> list[CoordinationTicket]:
        """Adopt a block of stamped records, then coordinate.

        :meth:`submit_many` enters here with the records it stamped;
        a shard engine enters here with the sharded coordinator's,
        which imposes one global arrival order (and one trace id per
        query) across shard engines — so nothing is validated, renamed
        or stamped again.  The records are adopted by the one body
        that makes a query pending (:meth:`_adopt`), and coordination
        is deferred to the end of the block: incremental engines drain
        each arrival in order, batch engines wait for :meth:`run_batch`.
        (This deferral is the one semantic difference from a loop of
        ``submit``, where an arrival may coordinate before the next is
        ingested.)  Returns the tickets in record order.
        """
        with self._lock:
            return self._submit(records)

    def _submit(self, records: Sequence[PendingRecord]
                ) -> list[CoordinationTicket]:
        """Adopt a block, coordinate after it, then fail the arrivals
        the safety screen refused (engine lock held).

        An arrival whose attempt raises does not stop the block: the
        other arrivals are still attempted and the refused ones failed,
        then the first error is raised.  The block stays adopted, its
        components dirty for the next round."""
        tickets, arrivals, unsafe = self._adopt(records)
        self.stats.submitted += len(tickets)
        self.stats.blocks_ingested += 1
        error = None
        if self.mode == "incremental":
            # Closure dedupe matters only between block members; a
            # block of one skips building its member-set key.
            attempted_roots = set() if len(arrivals) > 1 else None
            graph = self._runtime.graph
            for working, delta in arrivals:
                if working.query_id in graph:
                    try:
                        self._runtime.drain_arrival(working, delta,
                                                    attempted_roots)
                    except Exception as failure:
                        if error is None:
                            error = failure
        if unsafe:
            self._fail(unsafe, FailureReason.UNSAFE)
        if error is not None:
            raise error
        return tickets

    def _adopt(self, records: Sequence[PendingRecord]):
        """The one body that makes queries pending (engine lock held).

        Per record, in order: the arrival entry (sequence from the
        record, the counter moved past it), the safety screen and state
        (``safety="reject"`` only), the pending entry ``(record,
        ticket)``, the expiry-heap entry, and graph ingest.  All or
        nothing: a record already pending (here or earlier in the
        block) or any failure mid-way rolls back every record applied
        so far, the arrival counter included.

        Returns ``(tickets, arrivals, unsafe)``: a fresh ticket per
        record, in order; ``(query, graph delta)`` per ingested record;
        and the tickets the safety screen refused — their ids stay
        burned, and the caller fails them once the block is done.
        """
        pending = self._pending
        next_seq = self._next_seq
        prior: dict = {}
        tickets: list[CoordinationTicket] = []
        arrivals: list = []
        unsafe: list[CoordinationTicket] = []
        try:
            for record in records:
                working = record.query
                query_id = working.query_id
                if query_id in pending or query_id in prior:
                    raise ValidationError(
                        f"query id {query_id!r} is already pending in "
                        f"this engine")
                prior[query_id] = self._arrival.get(query_id, _ABSENT)
                seq = record.arrival_seq
                self._arrival[query_id] = seq
                if seq >= self._next_seq:
                    self._next_seq = seq + 1
                ticket = CoordinationTicket(query_id)
                tickets.append(ticket)
                if self.safety_mode == "reject" \
                        and not self._screen(record):
                    unsafe.append(ticket)
                    continue
                pending[query_id] = (record, ticket)
                deadline = self.staleness.deadline(working,
                                                   record.submitted_at)
                if deadline is not None and deadline != math.inf:
                    heapq.heappush(self._expiry_heap,
                                   (deadline, seq, query_id))
                arrivals.append((working, self._runtime.ingest(working)))
        except BaseException:
            self._rollback(prior, next_seq)
            raise
        return tickets, arrivals, unsafe

    def _screen(self, record: PendingRecord) -> bool:
        """The admission safety check (Figure 9): True when *record*
        keeps the pending workload safe — it then joins the safety
        state — else False, with the failure counted and traced."""
        start = time.perf_counter()
        safe = self._safety.is_safe_to_add(record.query)
        self.stats.safety_seconds += time.perf_counter() - start
        if safe:
            self._safety.add(record.query)
            return True
        self.stats.failed[FailureReason.UNSAFE] += 1
        tracer = TRACER
        if tracer.enabled:
            tracer.event("query.settle", record.trace_id,
                         query=str(record.query.query_id),
                         outcome="unsafe")
        return False

    def _rollback(self, prior: dict, next_seq: int) -> None:
        """Undo a partially applied adoption (under the engine lock).

        Every record touched (the keys of *prior*, each mapped to its
        arrival entry before the adoption, or ``_ABSENT``) leaves the
        pending set, the safety state and the graph, and gets its
        arrival entry back; the arrival counter returns to *next_seq*.
        Stale expiry-heap entries are dropped lazily by the sweep's
        pending-and-is_stale re-check, so they need no undo.
        """
        for query_id in prior:
            self._pending.pop(query_id, None)
            self._safety.remove(query_id)
        self._runtime.remove_block(
            [query_id for query_id in prior
             if query_id in self._runtime.graph])
        for query_id, before in prior.items():
            if before is _ABSENT:
                self._arrival.pop(query_id, None)
            else:
                self._arrival[query_id] = before
        self._next_seq = next_seq

    def _trace_id(self, query_id):
        """The trace id stamped on a pending query's record (None when
        it is not pending or was stamped with tracing off)."""
        entry = self._pending.get(query_id)
        return None if entry is None else entry[0].trace_id

    # ------------------------------------------------------------------
    # settlement (called by the scheduler under the engine lock)
    # ------------------------------------------------------------------

    def _fail(self, tickets, reason: FailureReason) -> None:
        """Fail *tickets* with *reason*, each on the stream right
        after it settles."""
        on_settle = self.on_settle
        for ticket in tickets:
            ticket.fail(reason)
            if on_settle is not None:
                on_settle(ticket)

    def _settle_answers(self, answers: dict) -> int:
        """Settle answered queries: tickets, safety, graph eviction."""
        resolved: list[tuple[CoordinationTicket, object]] = []
        settled: list = []
        tracer = TRACER
        for query_id, answer in answers.items():
            entry = self._pending.pop(query_id, None)
            if entry is None:
                continue
            record, ticket = entry
            resolved.append((ticket, answer))
            self._safety.remove(query_id)
            settled.append(query_id)
            self.stats.answered += 1
            if tracer.enabled and record.trace_id is not None:
                tracer.emit(("query.settle", record.trace_id,
                             tracer.site, time.perf_counter_ns(), 0,
                             _SETTLED_ANSWERED))
        self._runtime.remove_block(settled)
        on_settle = self.on_settle
        for ticket, answer in resolved:
            ticket.resolve(answer)
            if on_settle is not None:
                on_settle(ticket)
        return len(settled)

    def apply_mutations(self, operations: Sequence[tuple]) -> list[int]:
        """Apply a batch of ``(kind, table, rows)`` DML operations to
        the engine's database, all-or-nothing against bad input (see
        :meth:`Database.apply_mutations`); returns per-op row counts.
        No cache hammer follows: each committed delta reaches
        :meth:`_on_table_delta`, which re-queues exactly the readers of
        the mutated table."""
        return self.database.apply_mutations(operations)

    def invalidate_cache(self) -> None:
        """Forget data-dependent coordination state, indiscriminately.

        The full-recompute hammer: every component is re-queued and
        every data-dependent cache dropped.  Mutations performed
        through the :class:`~repro.db.database.Database` DML surface do
        not need it — the engine listens for
        :class:`~repro.db.database.TableDelta` commits and re-queues
        exactly the components whose plans read the mutated table (see
        :meth:`_on_table_delta`).  Kept for mutations that bypass the
        facade and as the full-recompute reference the mutation tests
        check targeted invalidation against.
        """
        with self._lock:
            self._runtime.invalidate()

    def _on_table_delta(self, delta) -> None:
        """Database mutation listener: targeted dirty-marking.

        Components whose plans read ``delta.table`` are invalidated as
        :meth:`CoordinationScheduler.mark_table_dirty` describes (an
        insert re-queues them, a delete does not); components over
        untouched tables keep their clean state.  The db layer's shape
        cache (plan orders, compiled programs) was already evicted by
        the database before listeners ran.
        """
        with self._lock:
            self._runtime.mark_table_dirty(delta)

    # ------------------------------------------------------------------
    # component migration (the sharded service's export/import hooks)
    # ------------------------------------------------------------------

    def component_members(self, query_id) -> list:
        """All pending query ids in *query_id*'s coordination component.

        Reported by the partition manager (exact even after removals),
        in arrival order.  The sharded coordinator uses this to move
        whole components — never fragments — between shard engines.
        """
        with self._lock:
            members = self._runtime.partitions.members_set(query_id)
            return sorted(members, key=self._arrival.__getitem__)

    def export_component(self, query_ids: Sequence) -> list[PendingRecord]:
        """Detach pending queries for migration to another engine.

        The queries leave the pending set, the safety state, and the
        graph (their partitions re-split and survivors are re-queued,
        exactly as settlement would).  Their tickets are abandoned
        unsettled — the caller owns answer delivery across engines and
        re-wires fresh tickets on import.  Returns one record per
        query, in arrival order.

        Callers must export whole components (see
        :meth:`component_members`); exporting a fragment would leave
        edges dangling across engines and change coordination outcomes.

        Atomic: every id is validated before any query is detached, so
        a bad id leaves the engine untouched — the migration protocol
        leaves a group whose detach failed where it is.
        """
        exported = list(query_ids)
        with self._lock:
            seen: set = set()
            for query_id in exported:
                if query_id not in self._pending or query_id in seen:
                    raise ValidationError(
                        f"query {query_id!r} is not pending; cannot "
                        f"export it")
                seen.add(query_id)
            records: list[PendingRecord] = []
            for query_id in exported:
                records.append(self._pending.pop(query_id)[0])
                self._safety.remove(query_id)
            self._runtime.remove_block(exported)
            records.sort(key=_ARRIVAL_SEQ)
            return records

    def import_pending(self, records: Iterable[PendingRecord]) -> dict:
        """Adopt previously exported queries; returns fresh tickets.

        The inverse of :meth:`export_component`: the records — in
        arrival order — go through the same body a submission does
        (:meth:`_adopt`), so each re-enters the pending set and the
        graph under its original arrival sequence number, submission
        instant and trace id, exactly as if it had been submitted here
        in the first place (a ``safety="reject"`` engine screens it as
        it would have then).  No coordination attempt runs — imported
        components are re-attempted by the next arrival that touches
        them or the next set-at-a-time round (imports mark them dirty).

        Returns ``{query_id: ticket}`` with fresh tickets, unsettled
        unless the safety screen refused the record; their settlements
        reach :attr:`on_settle` like any other.

        Atomic: a record already pending, or any failure while
        applying (a poisoned record, an engine fault), rolls back the
        records applied so far — the migration protocol's abort path
        relies on this (a partial import plus an abort would duplicate
        part of the component across engines).
        """
        with self._lock:
            tickets, _, unsafe = self._adopt(
                sorted(records, key=_ARRIVAL_SEQ))
            self._fail(unsafe, FailureReason.UNSAFE)
        return {ticket.query_id: ticket for ticket in tickets}

    # ------------------------------------------------------------------
    # durability hooks (see repro.durability.service)
    # ------------------------------------------------------------------

    def snapshot_state(self, *, dump_cache: dict | None = None) -> dict:
        """The engine's durable state as a wire-safe payload
        (:func:`~repro.service.state_payload`).

        The pending set is taken non-destructively — a *live* engine is
        snapshotted and keeps serving.  The burned ids are every
        arrival entry, pending ids included, as on the fleet: answered
        and safety-rejected ids stay burned for the engine's lifetime
        (only expiry releases one).
        """
        with self._lock:
            records = sorted((record for record, _
                              in self._pending.values()),
                             key=_ARRIVAL_SEQ)
            return state_payload(
                self.database, next_seq=self._next_seq, records=records,
                used_ids=self._arrival,
                submitted=self.stats.submitted,
                answered=self.stats.answered, failed=self.stats.failed,
                dump_cache=dump_cache)

    def restore_state(self, *, next_seq: int, used_ids: Iterable,
                      records: Sequence[PendingRecord],
                      submitted: int = 0, answered: int = 0,
                      failed: Counter | None = None) -> dict:
        """Reinstate a recovered history on a freshly built engine.

        Every id in *used_ids* is burned: it enters the arrival map
        with sequence ``None`` (nothing reads the sequence of a settled
        id, it only has to be present so a re-submission is refused);
        *next_seq* continues the pre-crash arrival counter even when
        the highest sequences belonged to since-expired queries;
        *records* re-enter through :meth:`import_pending`, whose fresh
        tickets are returned.  Raises
        :class:`~repro.errors.RecoveryError` over live state —
        restoring onto an engine that already admitted queries would
        silently merge two histories.
        """
        with self._lock:
            if (self._pending or self._arrival or self._next_seq
                    or not self._runtime.pristine):
                raise RecoveryError(
                    "cannot restore over live engine state "
                    f"({len(self._pending)} pending, "
                    f"{len(self._arrival)} arrival entries, "
                    f"next_seq={self._next_seq})")
            self._arrival.update(dict.fromkeys(used_ids))
            self._next_seq = next_seq
            self.stats.submitted = submitted
            self.stats.answered = answered
            self.stats.failed = Counter(failed or ())
            return self.import_pending(records)

    def close(self) -> None:
        """Release the engine (it owns no workers or files; present so
        every service shape closes the same way)."""

    @property
    def next_arrival_seq(self) -> int:
        """The sequence number the next submission will be assigned."""
        with self._lock:
            return self._next_seq

    # ------------------------------------------------------------------
    # batch (set-at-a-time) mode
    # ------------------------------------------------------------------

    def run_batch(self) -> int:
        """Run one set-at-a-time coordination round.

        Drains the scheduler's dirty-component worklist: every
        component touched since its last attempt (new arrivals,
        expirations, settlements, rows inserted into a table it reads,
        or an :meth:`invalidate_cache`) is attempted again, re-matched
        only if its member set changed.  Returns the number of queries
        answered this round; unanswered queries stay pending (until
        stale).  Valid in both modes — in incremental mode it
        re-attempts everything the per-arrival paths left pending but
        touched.
        """
        with self._lock:
            self.stats.coordination_rounds += 1
            answered_before = self.stats.answered
            tracer = TRACER
            if tracer.enabled:
                start_ns = time.perf_counter_ns()
                self._runtime.drain_all()
                tracer.record(
                    "engine.run_batch", start_ns,
                    answered=self.stats.answered - answered_before)
            else:
                self._runtime.drain_all()
            return self.stats.answered - answered_before

    # ------------------------------------------------------------------
    # staleness
    # ------------------------------------------------------------------

    def expire_stale(self) -> int:
        """Expire pending queries per the staleness policy.

        Returns the number expired.  Call periodically (the paper's
        middleware does the equivalent on a timer).  Policies that
        expose deadlines or explicit marks are swept in O(affected)
        via the expiry heap; custom policies fall back to a full scan.
        Expired queries leave the graph as removal deltas, so only
        their partitions are rebuilt and re-queued.
        """
        now = self.clock.now()
        expired: list[CoordinationTicket] = []
        with self._lock:
            policy = self.staleness
            if policy.requires_full_scan:
                doomed = [query_id
                          for query_id, (record, _)
                          in self._pending.items()
                          if policy.is_stale(record.query,
                                             record.submitted_at, now)]
            else:
                doomed = self._due_candidates(policy, now)
            tracer = TRACER
            for query_id in doomed:
                record, ticket = self._pending.pop(query_id)
                self._safety.remove(query_id)
                expired.append(ticket)
                self.stats.failed[FailureReason.STALE] += 1
                if tracer.enabled and record.trace_id is not None:
                    # The submit span already names the query; an
                    # expire marker needs only the trace id.
                    tracer.emit(("query.expire", record.trace_id,
                                 tracer.site, time.perf_counter_ns(), 0,
                                 None))
            self._runtime.remove_block(doomed)
            # Expired ids become re-submittable (an application retry
            # is a new incarnation): drop the arrival entry and let
            # the policy release per-id verdict state (manual marks).
            # Any heap entry the old incarnation left behind is
            # harmless — the sweep re-checks is_stale against the
            # *current* record before expiring (see _due_candidates).
            for query_id in doomed:
                self._arrival.pop(query_id, None)
                policy.on_expired(query_id)
        self._fail(expired, FailureReason.STALE)
        return len(expired)

    def _due_candidates(self, policy: StalenessPolicy,
                        now: float) -> list:
        """Doomed ids from the expiry heap plus the policy's marks."""
        candidates: list = []
        heap = self._expiry_heap
        while heap and heap[0][0] < now:
            _, _, query_id = heapq.heappop(heap)
            candidates.append(query_id)
        candidates.extend(policy.candidates())
        doomed: list = []
        seen: set = set()
        for query_id in candidates:
            if query_id in seen:
                continue
            seen.add(query_id)
            entry = self._pending.get(query_id)
            if entry is None:
                continue
            record = entry[0]
            query, submitted_at = record.query, record.submitted_at
            if policy.is_stale(query, submitted_at, now):
                doomed.append(query_id)
            else:
                # Popped but not stale (a policy with drifting
                # deadlines): keep it scheduled.
                deadline = policy.deadline(query, submitted_at)
                if deadline is not None and deadline != math.inf:
                    heapq.heappush(heap, (deadline,
                                          self._arrival[query_id],
                                          query_id))
        doomed.sort(key=self._arrival.__getitem__)
        return doomed

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Number of queries awaiting coordination."""
        with self._lock:
            return len(self._pending)

    def pending_ids(self) -> list:
        """Ids of pending queries, in arrival order.

        Sorted by arrival sequence: the pending map's insertion order
        is arrival order for submitted queries, but
        :meth:`import_pending` may splice migrated queries in at
        earlier sequence numbers.
        """
        with self._lock:
            return sorted(self._pending, key=self._arrival.__getitem__)

    def partition_sizes(self) -> list[int]:
        """Current partition sizes, reported by the partition manager.

        Available in both modes — the unified runtime maintains the
        partition structure incrementally for batch engines too.
        """
        with self._lock:
            return sorted(self._runtime.partitions.partition_sizes(),
                          reverse=True)
