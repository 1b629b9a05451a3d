"""The sharded coordination service (front door + migration protocol).

:class:`ShardedCoordinator` is a
:class:`~repro.service.CoordinationService` — the surface of one
:class:`~repro.engine.engine.D3CEngine` — over N shard workers, each
owning a disjoint set of coordination components.  Three mechanisms
make the fleet behave byte-identically to one engine:

* **Component co-location.**  Coordination components are the unit of
  independent work (paper §4.1.2), so answers are preserved as long as
  every component lives wholly on one shard.  The coordinator keeps a
  global routing index (the same verified atom index the unifiability
  graph uses) over all pending heads and postconditions; an arrival's
  partners are discovered *before* placement, and when they span
  shards, the smaller components are migrated to a single owner first
  (detach on the source shard, then import on the destination of
  records built from the coordinator's own copy; see
  :mod:`repro.shard.backend`).  Arrivals with no partners fall to the
  deterministic :class:`~repro.shard.router.ShardRouter` fingerprint.
* **Global arrival order.**  Matching resolves conflicts by arrival
  order, so the coordinator issues one global sequence number per
  arrival and shard engines adopt it (including across migrations) —
  a query coordinates identically wherever it lands.
* **Coordinator-owned policy.**  Tickets and the staleness clock live
  here; shard engines only execute.  Shard workers report settlements
  as events, which the coordinator applies to its own tickets in order
  — and hands each settled ticket to its own settlement stream
  (:attr:`~repro.service.CoordinationService.on_settle`).

Restrictions (all checked at construction): safety must be ``"off"``
(the admission check needs the *global* pending set; the paper's
throughput experiments run without it), and ``rng`` must be ``None``
(sampled CHOOSE draws from one shared stream cannot be replayed
per-shard).
"""

from __future__ import annotations

import time
from collections import Counter, deque
from typing import Iterable, Sequence

from ..core.atom_index import AtomIndex
from ..core.evaluate import FailureReason
from ..core.query import EntangledQuery
from ..db.database import Database
from ..engine.engine import PendingRecord, stamp_records
from ..engine.futures import CoordinationTicket
from ..engine.staleness import Clock, NeverStale, StalenessPolicy, \
    SystemClock
from ..engine.runtime import check_block
from ..errors import RecoveryError, ValidationError
from ..obs import MetricsRegistry, TRACER, merge_snapshots
from ..service import CoordinationService, state_payload
from .backend import InProcessBackend, ShardBackend, ShardLostError
from .router import ShardRouter

#: Backend selector values accepted by :class:`ShardedCoordinator`.
BACKENDS = ("inprocess", "process")


class ShardMigrationError(RuntimeError):
    """Pending records could not be restored anywhere (every candidate
    shard failed); the affected component left the fleet, its queries
    settled failed ``STALE`` (retryable)."""


class ShardReplicationError(RuntimeError):
    """A shard replica acknowledged the wrong database version for a
    ``db_delta`` block.  A worker whose ack disagrees with the block it
    was sent is refused — removed from the fleet with its components
    re-homed onto current replicas — rather than left serving answers
    from stale data."""


class ShardedCoordinator(CoordinationService):
    """A D3C engine fleet behind one engine-shaped front door.

    Args:
        database: shared substrate and replication *primary*.
            In-process shards share the live object; process shards
            rebuild a replica from its
            :func:`repro.dataio.dump_database` text and stay current
            via versioned ``db_delta`` frames (see
            :meth:`apply_mutations`).
        num_shards: worker count (1 is a valid, useful baseline).
        backend: ``"inprocess"`` (deterministic, debuggable — the
            equivalence oracle runs against it) or ``"process"``
            (spawned workers: a worker that dies takes only its own
            shard down, and its components are re-homed — isolation,
            not speed; see DESIGN.md §6).
        mode / staleness / clock / ucs_fallback /
        incremental_strategy: exactly as on
            :class:`~repro.engine.engine.D3CEngine`; forwarded to every
            shard engine.
        router: injectable :class:`~repro.shard.router.ShardRouter`
            (defaults to one over *num_shards*).
    """

    def __init__(self, database: Database,
                 num_shards: int = 2,
                 backend: str = "inprocess",
                 mode: str = "incremental",
                 staleness: StalenessPolicy | None = None,
                 clock: Clock | None = None,
                 rng=None,
                 ucs_fallback: bool = False,
                 incremental_strategy: str = "local",
                 router: ShardRouter | None = None,
                 warm_indexes: Sequence[tuple] = ()):
        if backend not in BACKENDS:
            raise ValueError(f"unknown shard backend {backend!r}")
        if rng is not None:
            raise ValidationError(
                "the sharded coordinator is deterministic-only: CHOOSE "
                "sampling from a shared rng cannot be replayed "
                "per-shard (submit with rng=None)")
        self.database = database
        self.mode = mode
        self.num_shards = num_shards
        # Set before backend construction: the failure path below
        # calls close(), which reads it.
        self._closed = False
        # Fleet-health counters for best-effort failure paths (close /
        # restore attempts that may themselves fail while a primary
        # failure is handled); merged into metrics_snapshot().
        self._health = MetricsRegistry()
        self._staleness = staleness or NeverStale()
        self._clock = clock or SystemClock()
        self._router = router or ShardRouter(num_shards)
        if self._router.num_shards != num_shards:
            raise ValueError("router and coordinator disagree on the "
                             "shard count")

        engine_kwargs = dict(
            mode=mode, safety="off", rng=None, ucs_fallback=ucs_fallback,
            incremental_strategy=incremental_strategy)

        self._backends: list[ShardBackend] = []
        if backend == "inprocess":
            for index in range(num_shards):
                self._backends.append(InProcessBackend(
                    index, database,
                    dict(engine_kwargs, staleness=self._staleness)))
        else:
            from ..dataio import dump_database
            from .process import ProcessBackend, staleness_to_spec
            # Workers rebuild the database from text, which loses the
            # caller's lazily built hash indexes; warm_indexes
            # ((table, positions) pairs) rebuilds them at worker
            # start-up instead of inside the serving path.
            config = {
                "database_text": dump_database(database),
                "db_version": database.db_version,
                "staleness": staleness_to_spec(self._staleness),
                "engine": engine_kwargs,
                "warm_indexes": [[table, list(positions)]
                                 for table, positions in warm_indexes],
                # Captured at construction: workers enable their own
                # tracer (site "shard<N>") and ship spans back on
                # reply frames, so enable tracing BEFORE building the
                # fleet to get worker-side spans.
                "tracing": TRACER.enabled,
            }
            try:
                for index in range(num_shards):
                    self._backends.append(ProcessBackend(index, config))
                # Start every worker before waiting on any: database
                # rebuilds overlap across cores, and serving calls
                # never absorb start-up latency.
                for shard_backend in self._backends:
                    shard_backend.ensure_ready()
            except BaseException:
                self.close()
                raise

        # Global routing state: verified atom indexes over every
        # pending query's heads and postconditions (entries are
        # (query_id, position) handles, like the graph's own indexes).
        self._head_index = AtomIndex()
        self._pc_index = AtomIndex()
        self._shard_of: dict = {}
        # qid -> PendingRecord, stamped at this front door: the
        # coordinator's own copy of every pending record, the one a
        # shard adopts on submission, and the one migration, restores,
        # re-homing and snapshots hand out — no worker returns a copy.
        self._pending_meta: dict = {}
        self._tickets: dict = {}
        self._used_ids: set = set()
        self._next_seq = 0

        # Live-mutation replication state: the coordinator's database
        # is the primary; TableDeltas it commits buffer here (via the
        # mutation listener) and flush as ONE versioned db_delta frame
        # per block to every live worker, which must ack the resulting
        # version or leave the fleet — so no live replica ever lags.
        self._db_version = database.db_version
        self._pending_deltas: list = []
        self._dead: set[int] = set()
        #: Lost shard -> the shard that adopted its components.
        self._heirs: dict[int, int] = {}
        database.add_mutation_listener(self._on_local_delta)

        self._submitted = 0
        self._answered = 0
        self._failed: Counter = Counter()
        #: Cross-shard migration counters (the ledger's
        #: ``shard.migrations`` / ``shard.migrated_queries``):
        #: ``migrations`` counts *exchanges* (one detach → import
        #: round per (source, destination) pair, all of a routing
        #: block's moves batched), ``migrated_queries`` the records
        #: moved by them.
        self.migrations = 0
        self.migrated_queries = 0

    # ------------------------------------------------------------------
    # routing and migration
    # ------------------------------------------------------------------

    def _index_query(self, working: EntangledQuery) -> None:
        query_id = working.query_id
        for head_pos, head in enumerate(working.head):
            self._head_index.add((query_id, head_pos), head)
        for pc_pos, pc_atom in enumerate(working.postconditions):
            self._pc_index.add((query_id, pc_pos), pc_atom)

    def _unindex_query(self, working: EntangledQuery) -> None:
        query_id = working.query_id
        for head_pos in range(len(working.head)):
            self._head_index.remove((query_id, head_pos))
        for pc_pos in range(working.pccount):
            self._pc_index.remove((query_id, pc_pos))

    def _find_partner_ids(self, working: EntangledQuery) -> set:
        """Pending queries this arrival would share an edge with.

        The same verified lookups graph insertion performs, so the
        partner set equals the arrival's future edge partners exactly —
        migrations happen if and only if real entanglement spans
        shards.
        """
        query_id = working.query_id
        partners: set = set()
        for head in working.head:
            for entry in self._pc_index.lookup_unifiable(head):
                if entry[0] != query_id:
                    partners.add(entry[0])
        for pc_atom in working.postconditions:
            for entry in self._head_index.lookup_unifiable(pc_atom):
                if entry[0] != query_id:
                    partners.add(entry[0])
        return partners

    def _route_block(self, workings: Sequence[EntangledQuery]) -> list[int]:
        """Choose a shard per arrival, migrating components to co-locate.

        Invariant maintained: every coordination component (and every
        not-yet-submitted block member, counting the partners known so
        far) lives wholly on one shard.  Within a block, adjacency is
        tracked symmetrically so a later arrival that bridges earlier
        block members drags their whole clusters to one owner.

        Owners are *planned* in block-local maps — ``assignments`` for
        arrivals, ``moves`` for resident queries that are to move —
        while ``_shard_of`` stays true: it says where registered
        records are.  The moves flush after the whole block is planned
        (see :meth:`_exchange`), so a component retargeted several
        times within a block moves at most once, directly to its final
        owner.  Every request goes through :meth:`_fan_out`, so a shard
        lost at any of them is contained by :meth:`_lose`, and planned
        owners it took down are handed to its heir.  On failure the
        block's arrivals (never registered) are unwound from the
        routing indexes, leaving no ghost partner entries.
        """
        assignments: dict = {}
        moves: dict = {}
        queued_partners: dict = {}
        try:
            for working in workings:
                query_id = working.query_id
                partners = self._find_partner_ids(working)
                queued_partners[query_id] = set(partners)
                for partner in partners:
                    if partner in queued_partners:
                        queued_partners[partner].add(query_id)
                if not partners:
                    assignments[query_id] = self._heir(
                        self._router.home_shard(working))
                else:
                    assignments[query_id] = self._colocate(
                        query_id, partners, queued_partners, assignments,
                        moves)
                self._index_query(working)
            self._exchange(moves)
        except BaseException:
            for working in workings:
                if working.query_id in assignments:
                    self._unindex_query(working)
            raise
        # Read placements only now: a later block member that bridged
        # two clusters may have reassigned earlier members.
        self._hand_to_heirs(assignments)
        return [assignments[working.query_id] for working in workings]

    def _hand_to_heirs(self, planned: dict) -> None:
        """Point every *planned* owner lost so far at its heir."""
        if self._dead:
            for query_id, owner in planned.items():
                planned[query_id] = self._heir(owner)

    def _colocate(self, origin, partners: set, queued_partners: dict,
                  assignments: dict, moves: dict) -> int:
        """Pick one owner shard for an arrival's partners; plan the
        rest's component moves to it.  Returns the owner."""
        # Transitive closure over same-block (queued) adjacency;
        # resident partners anchor engine-resident components, which
        # are already co-located per the invariant.  The origin itself
        # is unplaced (it is being routed right now) and excluded.
        resident: set = set()
        queued: set = set()
        frontier = list(partners)
        seen = set(partners) | {origin}
        while frontier:
            partner = frontier.pop()
            if partner in queued_partners:
                queued.add(partner)
                for neighbor in queued_partners[partner]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        frontier.append(neighbor)
            else:
                resident.add(partner)

        shard_of = self._shard_of
        owners = {moves.get(partner, shard_of[partner])
                  for partner in resident}
        owners |= {assignments[partner] for partner in queued}
        if len(owners) == 1:
            # Every partner is on one shard already: nothing can move,
            # so no component needs looking up.
            return owners.pop()

        # One membership lookup per component, on the shard holding it:
        # an anchor already in a looked-up component is skipped.
        components: list = []
        for anchor in sorted(resident, key=repr):
            if not any(anchor in members for _, members in components):
                components.append((anchor, set(self._fan_out(
                    lambda backend, _: backend.call_members(anchor),
                    {anchor: (shard_of[anchor], ())})[-1][1])))
        # Owners are read only now: a shard lost at a lookup handed its
        # components to its heir.
        self._hand_to_heirs(assignments)
        self._hand_to_heirs(moves)
        weight: Counter = Counter()
        for anchor, members in components:
            weight[moves.get(anchor, shard_of[anchor])] += len(members)
        for partner in sorted(queued, key=repr):
            weight[assignments[partner]] += 1
        # Owner: the shard already holding the most involved queries
        # ("move the smaller components"), ties to the lowest index.
        target = min(weight, key=lambda shard: (-weight[shard], shard))

        for anchor, members in components:
            if moves.get(anchor, shard_of[anchor]) != target:
                for member in sorted(members, key=repr):
                    moves[member] = target
        for partner in sorted(queued, key=repr):
            assignments[partner] = target
        return target

    def _exchange(self, moves: dict) -> None:
        """Move every resident query in *moves* that is away from its
        planned owner: detach → import, one exchange per (source,
        destination) pair, each step one :meth:`_fan_out` across the
        pairs.  The source keeps nothing; the destination imports the
        coordinator's own records, which are the only copy.

        Every group ends up on exactly one shard.  A lost shard fails
        nothing: a detach it owed is complete (the import places the
        records), an import it owed goes to its heir.  A detach that
        fails on a live shard leaves its group in place (detach is all
        or nothing) and nothing is imported; the groups detached by
        then, or a group whose import failed on a live shard, are on
        no shard until :meth:`_rehome` restores them (the source
        first, never the target) or, when no shard takes one, settles
        it failed; then the failure is raised.
        """
        groups: dict[tuple[int, int], list] = {}
        for query_id, target in moves.items():
            source = self._shard_of.get(query_id)
            if source is not None and source != target:
                groups.setdefault((source, target), []).append(
                    self._pending_meta[query_id])
        if not groups:
            return
        tracer = TRACER
        exchange_start_ns = (time.perf_counter_ns()
                             if tracer.enabled else 0)
        pairs = sorted(groups)
        for pair in pairs:
            # Group order is arrival order (matches export order).
            groups[pair].sort(key=lambda record: record.arrival_seq)
        errors: dict = {}
        self._fan_out(lambda backend, records: backend.call_detach(
            [record.query.query_id for record in records]),
            {pair: (pair[0], groups[pair]) for pair in pairs}, errors,
            resend=False)
        stray = [pair for pair in pairs if pair not in errors]
        if not errors:
            # Detached everywhere: each group is owed to its target.
            blocks = {pair: (self._heir(pair[1]), groups[pair])
                      for pair in pairs}
            for target, records in blocks.values():
                for record in records:
                    self._shard_of[record.query.query_id] = target
            self._fan_out(lambda backend, records: backend.call_import(
                records), blocks, errors)
            stray = [pair for pair in pairs if pair in errors]
            for pair in pairs:
                if pair not in errors:
                    self.migrations += 1
                    self.migrated_queries += len(groups[pair])
                    if tracer.enabled:
                        # One span per imported group; the duration
                        # covers the whole batched exchange.
                        tracer.record("shard.migration", exchange_start_ns,
                                      None, source=pair[0], dest=pair[1],
                                      queries=len(groups[pair]))
        # Forget every stray owner before any restore: one that loses a
        # shard must not re-home a stray group a second time.
        stray_ids = {pair: [record.query.query_id for record in
                            groups[pair]] for pair in stray}
        for query_ids in stray_ids.values():
            for query_id in query_ids:
                del self._shard_of[query_id]
        lost: list = []
        for (source, target), query_ids in stray_ids.items():
            try:
                self._rehome(query_ids, first=source, exclude={target})
            except ShardMigrationError as error:
                lost.append(error)  # the other groups still restore
        if errors:
            # A lost component outranks whatever failed first.
            raise (lost or list(errors.values()))[0]

    def _arrival_seq(self, query_id) -> int:
        return self._pending_meta[query_id].arrival_seq

    def _rehome(self, query_ids: list, first: int | None = None,
                exclude: set = frozenset()) -> int:
        """The one restore path: import the coordinator's copy of
        *query_ids* onto *first* (when live), else onto the
        lowest-indexed live shard outside *exclude* — every live
        replica is at the current ``db_version``, so a restored
        component never coordinates against older data than the rest
        of the fleet.  A candidate lost on the way hands the import to
        its heir.  Returns the shard that took them.  When none did,
        the queries settle failed ``STALE`` — counted, unregistered,
        their ids free for a retry, as an expiry leaves them — and
        :class:`ShardMigrationError` is raised."""
        records = [self._pending_meta[query_id] for query_id in query_ids]
        candidates = [shard for shard in self._live_shards()
                      if shard not in exclude and shard != first]
        if first is not None and first not in self._dead:
            candidates.insert(0, first)
        if not records and candidates:
            return candidates[0]  # nothing to import
        for shard in candidates:
            if shard in self._dead:
                continue  # lost while an earlier candidate was tried
            failures: dict = {}
            replies = self._fan_out(
                lambda backend, block: backend.call_import(block),
                {shard: (shard, records)}, failures)
            if not failures:
                shard = replies[-1][0]
                for query_id in query_ids:
                    self._shard_of[query_id] = shard
                return shard
            self._health.inc("shard.rehome_import_failures")
            for query_id in query_ids:
                self._shard_of.pop(query_id, None)
        self._apply_events([("failed", query_id, FailureReason.STALE)
                            for query_id in query_ids])
        raise ShardMigrationError(
            f"pending queries {query_ids!r} could not be restored on "
            f"any shard: records lost from the fleet")

    # ------------------------------------------------------------------
    # live mutations: replication to shard replicas
    # ------------------------------------------------------------------

    def _on_local_delta(self, delta) -> None:
        """Database mutation listener: buffer deltas for replication.

        Mutations through :meth:`apply_mutations` (or directly against
        :attr:`database`) land here; they flush as one ``db_delta``
        frame per block — explicitly in :meth:`apply_mutations`, or
        lazily before the next serving command, so a worker never
        coordinates against data older than the coordinator's.
        """
        self._pending_deltas.append(delta)

    def apply_mutations(self, operations: Sequence[tuple]) -> list[int]:
        """Apply a batch of DML operations and replicate them.

        *operations* is a sequence of ``("insert", table, rows)`` /
        ``("delete", table, rows)`` tuples, applied in order against
        the coordinator's database (the primary) and then shipped to
        every live worker as a single versioned ``db_delta`` frame.
        All-or-nothing against bad input (see
        :meth:`Database.apply_mutations`): a bad op mid-batch leaves
        nothing applied, so a retry of the "failed" batch cannot
        double-apply earlier ops fleet-wide under bag semantics.
        Returns the per-operation row counts.  Workers ack the
        resulting ``db_version``; a worker acking any other version, or
        failing the block, is refused (:class:`ShardReplicationError`),
        and a worker lost mid-frame has its components re-homed onto a
        current shard (see :meth:`_replicate`).
        """
        counts = self.database.apply_mutations(operations)
        self._replicate()
        return counts

    @property
    def db_version(self) -> int:
        """The last database version replicated to the fleet."""
        return self._db_version

    def dead_shards(self) -> set[int]:
        """Shards removed from the fleet: lost, or refused as stale
        replicas."""
        return set(self._dead)

    def _live_shards(self) -> list[int]:
        return [shard for shard in range(len(self._backends))
                if shard not in self._dead]

    def _replicate(self) -> None:
        """Flush buffered deltas as one db_delta frame to every live
        worker.

        A worker lost on the way is re-homed as at any fan-out.  One
        that acks any version but the block's, or fails the block (a
        gap in its replica included), is refused: removed like a lost
        one, then :class:`ShardReplicationError` is raised.  Either
        way every live worker has acked the current version when the
        flush ends, so no live replica lags and nothing is replayed.
        """
        if not self._pending_deltas:
            return
        from ..dataio import db_delta_to_payload
        version = self.database.db_version
        # Serialize BEFORE consuming the buffer: if a delta carries a
        # non-wire value (an `any`-typed column holding an object),
        # the buffer survives and every subsequent serving command
        # re-raises — the fleet never silently skips a version range.
        payload = db_delta_to_payload(self._db_version, version,
                                      self._pending_deltas)
        self._pending_deltas = []
        self._db_version = version
        failures: dict = {}
        acks = dict(self._fan_out(
            lambda backend, _: backend.call_db_delta(payload),
            failures=failures))
        refused = sorted(set(failures).union(
            shard for shard, ack in acks.items() if ack != version))
        if not refused:
            return
        failure = ShardReplicationError(
            f"shards {refused!r} acked the wrong db_version for block "
            f"->{version}, or failed it; stale replicas are refused "
            f"(removed from the fleet, components re-homed)")
        # Mark every refused shard dead before re-homing any, so one's
        # components never land on another refused in the same flush.
        self._dead.update(refused)
        for shard in refused:
            self._lose(shard, failures.get(shard, failure))
        raise failure from next(iter(failures.values()), None)

    def _lose(self, shard: int, cause: BaseException,
              spare: set = frozenset()) -> int:
        """The one loss path: remove *shard* from the fleet and re-home
        its components.

        The shard is marked dead, the settlements already decoded off
        its wire are applied (their tickets must still resolve), its
        backend is closed, and every pending query whose records it
        held is imported from the coordinator's own records by
        :meth:`_rehome` — the worker's cooperation is not needed.
        *spare* ids (blocks the shard owed when it was lost, which
        :meth:`_fan_out` sends on or counts as detached) stay behind.
        Returns the heir, the shard that adopted the rest (the lowest
        live one when there was none), which a router home or a planned
        owner on *shard* resolves to (:meth:`_heir`); raises
        :class:`ShardMigrationError` when no live shard remains.
        """
        backend = self._backends[shard]
        self._dead.add(shard)
        self._apply_events(backend.drain_events())
        try:
            backend.close()
        except Exception:
            # Closing a worker that already died is best-effort.
            self._health.inc("shard.close_failures")
        stranded = sorted(
            (query_id for query_id, owner in self._shard_of.items()
             if owner == shard and query_id not in spare),
            key=self._arrival_seq)
        try:
            heir = self._rehome(stranded)
        except ShardMigrationError:
            raise ShardMigrationError(
                f"components of lost shard {shard} ({cause!r}) could "
                f"not be re-homed on any live shard: records lost from "
                f"the fleet") from cause
        self._heirs[shard] = heir
        return heir

    def _heir(self, shard: int) -> int:
        """*shard*, or the live shard its components went to if it was
        lost (an heir lost in turn hands on to its own)."""
        while shard in self._dead:
            shard = self._heirs[shard]
        return shard

    def _fan_out(self, issue, blocks: dict | None = None,
                 failures: dict | None = None, resend: bool = True
                 ) -> list:
        """The one request path: issue a command on shards, then
        collect the replies in issue order, applying each shard's
        settlement events after its reply.

        *blocks* maps a key to ``(shard, records)``: one call
        ``issue(backend, records)`` on that shard per key, in the order
        of *blocks* (by default one per live shard, carrying nothing).
        Records a call carries are owed by its shard until the reply is
        in.  A shard lost on the way goes through :meth:`_lose`, which
        leaves what it owed to this loop: each block is issued again on
        the heir — or, with *resend* false (a detach), is complete,
        since the coordinator holds the only copy of its records — so
        the command finishes on the survivors.  Any other failure is
        put in *failures* (key -> error) when given, else raised once
        every reply is in.  Returns ``(shard, reply)`` pairs in
        collection order: a shard that adopted a lost one's components
        replies again, after it did so.
        """
        if blocks is None:
            blocks = {shard: (shard, ()) for shard in self._live_shards()}
        backends = self._backends
        owed: dict = {}  # key -> the shard its call is on
        calls: deque = deque()
        for key, (shard, records) in blocks.items():
            owed[key] = shard
            calls.append((key, shard, issue(backends[shard], records)))
        replies: list = []
        errors = {} if failures is None else failures
        while calls:
            key, carrier, call = calls.popleft()
            if owed.get(key) != carrier:
                continue  # issued again after its carrier was lost
            try:
                replies.append((carrier, call.result()))
            except ShardLostError as error:
                moved = [other for other, owner in owed.items()
                         if owner == carrier]
                heir = self._lose(carrier, error, spare={
                    record.query.query_id
                    for other in moved for record in blocks[other][1]})
                for other in moved:
                    if not resend:
                        del owed[other]
                        continue
                    owed[other] = heir
                    records = blocks[other][1]
                    for record in records:
                        self._shard_of[record.query.query_id] = heir
                    calls.append((other, heir,
                                  issue(backends[heir], records)))
                continue
            except Exception as error:
                errors.setdefault(key, error)
            del owed[key]
            self._apply_events(backends[carrier].drain_events())
        if failures is None and errors:
            raise next(iter(errors.values()))
        return replies

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit_many(self, queries: Iterable[EntangledQuery]
                    ) -> list[CoordinationTicket]:
        """Submit a block through the shards' batched pipelines (the
        one admission path; ``submit`` is a block of one).

        The block is refused whole by :func:`~repro.engine.runtime.
        check_block` against the coordinator's own state and database
        (the primary) before anything is routed, then stamped
        (:func:`~repro.engine.engine.stamp_records`: one global arrival
        sequence and one trace id per query) and placed
        (:meth:`_place`), which moves the sequence counter past the
        block only once the block is routed and registered, so a block
        that fails in routing leaves it where one engine's would be.
        Each shard adopts its sub-block of records as is and
        coordinates it with the same deferred-drain semantics as
        :meth:`D3CEngine.submit_many` — entangled block members are
        always co-located, so the per-shard deferral reproduces the
        single engine's whole-block deferral.
        """
        queries = list(queries)
        check_block(queries, self._used_ids, self.database)
        self._replicate()
        records = stamp_records(queries, self._next_seq,
                                self._clock.now())
        return self._place(records, ShardBackend.call_submit_block)

    def _place(self, records: list[PendingRecord],
               command) -> list[CoordinationTicket]:
        """Route → register → dispatch: the one step that puts
        records on the fleet, for submissions and restores alike.

        The records are routed as one block (with migrations; see
        :meth:`_route_block`), registered (burned id, coordinator copy,
        fresh ticket, owner, the sequence counter moved past it, the
        ``submitted`` count), split
        into per-shard sub-blocks preserving arrival order, and handed
        to the shards by *command* —
        :meth:`ShardBackend.call_submit_block` (adopt and coordinate)
        or :meth:`ShardBackend.call_import` (adopt only) — through
        :meth:`_fan_out`, which sends a lost shard's sub-block on to
        the shard that adopts its components.  A sub-block a live shard
        fails is settled by :meth:`_settle_refused` before the failure
        is raised.  Returns the tickets in record order.
        """
        tracer = TRACER
        workings = [record.query for record in records]
        if tracer.enabled:
            start_ns = time.perf_counter_ns()
            targets = self._route_block(workings)
            # One route span per block member (they share the block's
            # routing duration), each tagged with its final shard.
            for record, target in zip(records, targets):
                tracer.record("query.route", start_ns, record.trace_id,
                              shard=target)
        else:
            targets = self._route_block(workings)
        tickets: list[CoordinationTicket] = []
        blocks: dict[int, list] = {}
        for record, target in zip(records, targets):
            query_id = record.query.query_id
            ticket = CoordinationTicket(query_id)
            tickets.append(ticket)
            self._used_ids.add(query_id)
            self._pending_meta[query_id] = record
            self._tickets[query_id] = ticket
            self._shard_of[query_id] = target
            blocks.setdefault(target, []).append(record)
        if records:
            # Registered records own their seqs (records come in
            # arrival order); a block refused in routing never gets here.
            self._next_seq = max(self._next_seq,
                                 records[-1].arrival_seq + 1)
        self._submitted += len(records)
        failures: dict = {}
        self._fan_out(command, {target: (target, blocks[target])
                                for target in sorted(blocks)}, failures)
        if failures:
            for target in failures:
                self._settle_refused(blocks[target])
            raise next(iter(failures.values()))
        return tickets

    def _settle_refused(self, records: list) -> None:
        """Make the registration of *records*, a sub-block a live shard
        failed, match what that shard adopted: one ``pending`` request
        to the shard holding them.  An id it did not adopt is
        unregistered, uncounted and its id freed, so a retry is
        accepted; one it adopted stays pending, as on one engine whose
        drain raised."""
        unsettled = [record.query.query_id for record in records
                     if record.query.query_id in self._tickets]
        if not unsettled:
            return
        shard = self._shard_of[unsettled[0]]
        adopted = set(self._fan_out(
            lambda backend, _: backend.call_pending(),
            {shard: (shard, ())})[-1][1])
        for query_id in unsettled:
            if query_id in self._tickets and query_id not in adopted:
                del self._tickets[query_id], self._shard_of[query_id]
                self._unindex_query(self._pending_meta.pop(query_id).query)
                self._used_ids.discard(query_id)
                self._submitted -= 1

    # ------------------------------------------------------------------
    # rounds, expiry, events
    # ------------------------------------------------------------------

    def run_batch(self) -> int:
        """One set-at-a-time round across every shard (dirty components
        only, per shard); returns the number answered.

        Shards round concurrently — components are disjoint and the
        database only changes between rounds (buffered mutations are
        replicated before the fan-out), so the fan-out settles exactly
        what sequential rounds would; events apply in shard order.  A
        shard that adopts a lost one's components rounds again.
        """
        self._replicate()
        now = self._clock.now()
        return sum(answered for _, answered in self._fan_out(
            lambda backend, _: backend.call_run_batch(now)))

    def expire_stale(self) -> int:
        """Expire stale pending queries fleet-wide; returns the count."""
        self._replicate()
        now = self._clock.now()
        return sum(expired for _, expired in self._fan_out(
            lambda backend, _: backend.call_expire(now)))

    def invalidate_cache(self) -> None:
        """Forget data-dependent coordination state on every shard."""
        self._fan_out(lambda backend, _: backend.call_invalidate())

    def _apply_events(self, events) -> None:
        """Settle the coordinator's tickets by shard *events*, in
        order, each on the stream right after it settles."""
        on_settle = self.on_settle
        for kind, query_id, payload in events:
            ticket = self._tickets.pop(query_id, None)
            record = self._pending_meta.pop(query_id, None)
            if record is not None:
                self._unindex_query(record.query)
            self._shard_of.pop(query_id, None)
            if ticket is None:
                continue
            if kind == "answered":
                self._answered += 1
                ticket.resolve(payload)
            else:
                self._failed[payload] += 1
                if payload is FailureReason.STALE:
                    # Expired ids are retryable (mirrors the engine):
                    # a re-submission is a fresh incarnation.
                    self._used_ids.discard(query_id)
                ticket.fail(payload)
            if on_settle is not None:
                on_settle(ticket)

    # ------------------------------------------------------------------
    # durability hooks (see repro.durability.service)
    # ------------------------------------------------------------------

    @property
    def next_arrival_seq(self) -> int:
        """The sequence number the next submission will be assigned."""
        return self._next_seq

    def snapshot_state(self, *, dump_cache: dict | None = None) -> dict:
        """The coordinator's durable state as a wire-safe payload
        (:func:`~repro.service.state_payload`).

        The pending set is the coordinator's own records — workers are
        not consulted.  Shard placement is deliberately
        *not* captured: restore re-routes the pending set onto whatever
        fleet shape the recovering caller builds, which is also what
        re-homing after a worker death does.
        """
        return state_payload(
            self.database, next_seq=self._next_seq,
            records=[self._pending_meta[query_id]
                     for query_id in self.pending_ids()],
            used_ids=self._used_ids, submitted=self._submitted,
            answered=self._answered, failed=self._failed,
            dump_cache=dump_cache)

    def restore_state(self, *, next_seq: int, used_ids: Iterable,
                      records: Sequence, submitted: int = 0,
                      answered: int = 0,
                      failed: Counter | None = None) -> dict:
        """Reinstate a recovered coordinator history onto fresh shards.

        Every id in *used_ids* is burned.  *records* are the
        :class:`~repro.engine.engine.PendingRecord`\\ s of every pending
        query (the whole fleet's, in any order); they are placed as one
        block by the step a submission takes (:meth:`_place`) — every
        coordination partner is in the block, so routing is purely
        logical and no cross-shard migrations run — but imported, not
        submitted: adopted with their original sequence numbers,
        submission instants and trace ids, exactly as re-homing a dead
        shard's components does.  Returns ``{query_id: ticket}`` with
        fresh unsettled tickets.

        Raises :class:`~repro.errors.RecoveryError` over live state:
        the coordinator must have been constructed (over the recovered
        database) and never used.
        """
        if self._pending_meta or self._used_ids or self._next_seq:
            raise RecoveryError(
                "cannot restore over live coordinator state "
                f"({len(self._pending_meta)} pending, "
                f"{len(self._used_ids)} used ids, "
                f"next_seq={self._next_seq})")
        self._used_ids = set(used_ids)
        self._next_seq = next_seq
        self._answered = answered
        self._failed = Counter(failed or ())
        tickets = self._place(
            sorted(records, key=lambda record: record.arrival_seq),
            ShardBackend.call_import)
        # Placing counted the records; they were counted when submitted.
        self._submitted = submitted
        return {ticket.query_id: ticket for ticket in tickets}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Number of queries awaiting coordination, fleet-wide."""
        return len(self._tickets)

    def pending_ids(self) -> list:
        """Ids of pending queries, in global arrival order."""
        return sorted(self._tickets, key=self._arrival_seq)

    def partition_sizes(self) -> list[int]:
        """Component sizes across all shards, largest first (each
        shard's last reply: an heir's counts what it adopted)."""
        replies = dict(self._fan_out(
            lambda backend, _: backend.call_partition_sizes()))
        return sorted((size for sizes in replies.values()
                       for size in sizes), reverse=True)

    def shard_of(self, query_id) -> int:
        """The shard currently owning a pending query."""
        return self._shard_of[query_id]

    @property
    def wire_requests(self) -> int:
        """Protocol commands issued across all shard workers (request
        frames on the process backend).  Exchange batching is visible
        here: migrating N components between one shard pair costs one
        detach/import pair of requests instead of N."""
        return sum(backend.wire_requests for backend in self._backends)

    def metrics_snapshot(self) -> dict:
        """Fleet-wide metrics as one registry snapshot.

        The single aggregation codepath: every live worker's
        :meth:`~repro.engine.engine.D3CEngine.metrics_snapshot` is
        collected by :meth:`_fan_out` (an heir's last reply counts)
        and merged key-wise with :func:`repro.obs.merge_snapshots`.  The
        coordinator then overrides the lifecycle counters it is
        authoritative for (``submitted`` / ``answered`` /
        ``failed.*`` — worker-local counts double-count nothing, but
        migrations make them misleading) and contributes the
        fleet-level figures only it can see: ``shard.migrations`` /
        ``shard.migrated_queries`` / ``wire.requests`` counters and
        the global ``pending`` gauge.
        """
        replies = dict(self._fan_out(
            lambda backend, _: backend.call_metrics()))
        merged = merge_snapshots(*replies.values(),
                                 self._health.snapshot())
        counters = merged["counters"]
        for key in [key for key in counters
                    if key.startswith("failed.")]:
            del counters[key]
        counters["submitted"] = self._submitted
        counters["answered"] = self._answered
        for reason, count in self._failed.items():
            counters[f"failed.{reason.value}"] = count
        counters["shard.migrations"] = self.migrations
        counters["shard.migrated_queries"] = self.migrated_queries
        counters["wire.requests"] = self.wire_requests
        merged["gauges"]["pending"] = float(len(self._tickets))
        return merged

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut down shard workers (idempotent; in-process is a no-op)."""
        if self._closed:
            return
        self._closed = True
        for backend in self._backends:
            backend.close()

    def __enter__(self) -> "ShardedCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
