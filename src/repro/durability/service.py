"""The durable journaling wrapper: a crash-recoverable service.

:class:`DurableEngine` and :class:`DurableCoordinator` wrap the
in-memory :class:`~repro.engine.engine.D3CEngine` and
:class:`~repro.shard.coordinator.ShardedCoordinator` with a write-ahead
command journal (:mod:`repro.durability.wal`) under a generation-
numbered snapshot layout (:mod:`repro.durability.snapshots`).  They are
one class — the wrapper is written once against the
:class:`~repro.service.CoordinationService` protocol and the two names
only say which inner service to build.  The journal is *logical* and
written **after** each command executes:

* ``wal_cmd`` — one frame per serving command (``submit``, ``mutate``,
  ``run_batch``, ``expire``) carrying the command's inputs, its pinned
  clock reading, the arrival sequence numbers it assigned, and every
  settlement event (answer payloads / failure reasons) it produced.
* ``wal_delta`` — one frame per :class:`~repro.db.database.TableDelta`
  committed *outside* a journalled mutate command (applications may
  mutate the shared database directly; a listener captures it).
* ``wal_settle`` — settlement events salvaged when a command raises
  after settling some tickets; the command itself is not counted.  A
  submit whose inner service adopted queries before it raised is the
  exception: its own ``wal_cmd`` frame is appended with its events
  (the adopted queries are real), then the error propagates.

Settlements reach the wrapper through the inner service's settlement
stream (:attr:`~repro.service.CoordinationService.on_settle`), which
the wrapper sets when it builds the service, and leave it through its
own stream only once the journal holds them.

Because frames land after execution, a crash between execute and
append makes the in-flight command *never happened* — exactly the
contract a torn final record gets.  An append that *fails* (a full
disk) leaves the same journal behind while this process has run the
command, so the wrapper fail-stops: it writes nothing more, and every
later command raises :class:`~repro.errors.RecoveryError` until the
directory is recovered.  Recovery is uniform: rebuild
from the newest valid snapshot, then fold the log suffix into plain
state (no coordination is re-executed; answers were recorded when they
were produced).  Recovery ends by restoring that state into a freshly
built inner service — of either shape, whichever wrote the directory —
and writing a new snapshot generation, so every boot starts with a
short log.

Clock discipline: the wrapper owns the inner service's clock and *pins*
it once per command to the caller-supplied source clock's reading.
The pinned value rides in the command frame, so submission instants in
later snapshots agree byte-for-byte with the journal.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Literal, Sequence

from ..core.evaluate import FailureReason
from ..dataio import (WIRE_VERSION, compact_json, decode_records,
                      delta_from_payload, delta_to_payload, id_pairs,
                      load_database, render_query, to_payload)
from ..engine.engine import D3CEngine
from ..engine.futures import CoordinationTicket, TicketState
from ..engine.staleness import Clock, PinnedClock, SystemClock
from ..errors import RecoveryError, ValidationError
from ..obs import TRACER
from ..service import CoordinationService
from ..shard.coordinator import ShardedCoordinator
from .snapshots import SnapshotStore

#: Floor of the derived snapshot cadence (see :class:`_DurableService`):
#: without it a near-empty state, whose snapshot is a few hundred
#: bytes, would publish a generation per command.
SNAPSHOT_FLOOR_BYTES = 64 * 1024


class _RecoveredState:
    """What replaying snapshot + log suffix yields: plain state, ready
    to seed a fresh engine or coordinator."""

    #: ``burned`` is the set of ids that may not be re-submitted.
    __slots__ = ("database", "next_seq", "pending", "burned",
                 "answers", "failures", "submitted", "answered",
                 "failed", "commands", "generation", "log_clean")

    def pending_records(self) -> list:
        """The pending set as :class:`~repro.engine.engine.
        PendingRecord`\\ s, in arrival order (snapshot records and
        replayed submit frames decoded in one call)."""
        ordered = sorted(self.pending.values(),
                         key=lambda payload: payload["seq"])
        records = []
        for record in decode_records(ordered):
            # Submit frames journal the query exactly as the caller
            # handed it over; the engine renames apart on admission
            # with a deterministic suffix (the query id).  Renaming
            # here converges both sources — snapshot-sourced records
            # are already renamed (no-op), log-sourced ones become
            # the exact working copies the crashed engine held.
            working = record.query.rename_apart()
            if working is not record.query:
                record = record._replace(query=working)
            records.append(record)
        return records

    def failed_counter(self) -> Counter:
        return Counter({FailureReason(value): count
                        for value, count in self.failed.items()})


def _replay_store(store: SnapshotStore) -> _RecoveredState:
    """Rebuild pre-crash state from the newest valid generation.

    State-based replay: no coordination re-runs.  Submit frames
    reinstate pending records and burn ids; settlement events (recorded
    when they originally happened) pop them into the answers/failures
    maps; mutate and delta frames re-apply database changes in commit
    order, reproducing the exact ``db_version``.  A torn final record
    was already dropped by the log reader — by the log-after-execute
    contract, its command never happened.
    """
    generation, snapshot, frames, log_clean = store.load_newest()
    state = snapshot["state"]

    recovered = _RecoveredState()
    recovered.generation = generation
    recovered.log_clean = log_clean
    recovered.database = load_database(state["database"])
    recovered.database.reset_db_version(state["db_version"])
    recovered.next_seq = state["next_seq"]
    recovered.pending = {payload["query"]["id"]: payload
                         for payload in state["pending"]}
    recovered.burned = set(state["used_ids"])
    # Legacy reader: engine snapshots written before ``used_ids`` was
    # the one spelling burned ids as ``tombstones`` [id, seq] pairs.
    recovered.burned.update(query_id for query_id, _
                            in state.get("tombstones", ()))
    recovered.answers = {query_id: payload
                         for query_id, payload in state["answers"]}
    recovered.failures = {query_id: value
                          for query_id, value in state["failures"]}
    counters = state["counters"]
    recovered.submitted = counters["submitted"]
    recovered.answered = counters["answered"]
    recovered.failed = dict(counters["failed"])
    recovered.commands = snapshot["commands"]

    for frame in frames:
        if frame.get("wire") != WIRE_VERSION:
            raise RecoveryError(
                f"log record carries wire version "
                f"{frame.get('wire')!r} != {WIRE_VERSION}")
        kind = frame.get("kind")
        if kind == "wal_cmd":
            _replay_command(recovered, frame)
            recovered.commands += 1
        elif kind == "wal_settle":
            _replay_events(recovered, frame["events"])
        elif kind == "wal_delta":
            recovered.database.apply_delta(
                delta_from_payload(frame["delta"]))
        else:
            raise RecoveryError(f"unknown log record kind {kind!r}")
    return recovered


def _replay_command(recovered: _RecoveredState, frame: dict) -> None:
    op = frame["op"]
    if op == "submit":
        for payload, seq in zip(frame["queries"], frame["seqs"]):
            query_id = payload["id"]
            recovered.pending[query_id] = {
                "query": payload, "seq": seq, "at": frame["at"]}
            recovered.burned.add(query_id)
            recovered.next_seq = max(recovered.next_seq, seq + 1)
            recovered.submitted += 1
    elif op == "mutate":
        recovered.database.apply_mutations(frame["ops"])
    elif op not in ("run_batch", "expire"):
        raise RecoveryError(f"unknown journalled command {op!r}")
    _replay_events(recovered, frame.get("events", ()))


def _replay_events(recovered: _RecoveredState, events) -> None:
    for kind, query_id, payload in events:
        record = recovered.pending.pop(query_id, None)
        if record is not None:
            # Settling burns the id.  The id's submit frame usually
            # already recorded that, but when the submit predates the
            # snapshot this record arrived via the snapshot's pending
            # set — the settlement is the only replay step that knows
            # the id must stay burned.
            recovered.burned.add(query_id)
        if kind == "answered":
            recovered.answers[query_id] = payload
            recovered.answered += 1
        elif kind == "failed":
            recovered.failures[query_id] = payload
            recovered.failed[payload] = \
                recovered.failed.get(payload, 0) + 1
            if payload == FailureReason.STALE.value:
                # Expired ids are retryable: the engine releases them.
                recovered.burned.discard(query_id)
        else:
            raise RecoveryError(f"unknown settlement event {kind!r}")


class _DurableService(CoordinationService):
    """A coordination service that survives its process.

    Implements the :class:`~repro.service.CoordinationService` protocol
    by delegating to :attr:`service` — the inner
    :attr:`_service_class` instance it builds — and journaling every
    state-changing command.  Construction starts *fresh*: builds the
    inner service over *database*, writes generation 0, and refuses a
    directory that already holds state (that history belongs to
    :meth:`recover`, never to silent overwrite).  Keyword arguments
    beyond the journal's own pass through to the inner service
    unchanged, except ``clock`` (the wrapper owns the inner clock —
    pass the source clock here) and ``rng`` (refused: sampled CHOOSE
    draws cannot be reproduced by recovery).

    Snapshot cadence: when the caller names none, it is *derived* — a
    new generation is published once the live log segment has grown to
    the byte length of the snapshot that opened it (floored by
    :data:`SNAPSHOT_FLOOR_BYTES`).  However long the service lives,
    recovery therefore never replays more than one state's worth of
    log, and every snapshot but the newest was followed by at least
    its own size in log: lifetime snapshot bytes stay within the log's
    plus the newest snapshot's — about twice the log's for a state
    that grows no faster than its journal.  ``snapshot_every=N``
    (every N commands), ``snapshot_every=None`` (never) and
    ``snapshot_log_bytes=N`` (a fixed segment size) are explicit
    overrides; naming any of them turns the derived rule off.

    Fail-stop: once a journal append raises, the journal no longer
    holds what this process ran.  The wrapper releases the segment
    without flushing, raises :class:`~repro.errors.RecoveryError`
    naming the directory for that command and every later one (none
    executes), and :meth:`close` publishes no snapshot; the settlement
    maps keep only what the journal holds.  A direct write to
    :attr:`database` after the stop reaches the listener only once the
    database has applied it: it changes the stopped process's memory,
    raises, and is never journalled.

    Restrictions: queries must be wire-serializable (an id, owner or
    constant the wire format cannot carry is rejected at submission,
    exactly as on the sharded service's wire format).
    """

    #: The inner service class a concrete wrapper journals.
    _service_class: type

    def __init__(self, wal_dir: str | Path, database=None, *,
                 clock: Clock | None = None,
                 snapshot_every: int | Literal["derived"] | None = "derived",
                 sync_every: int | None = 8,
                 snapshot_log_bytes: int | None = None,
                 **service_kwargs):
        store = SnapshotStore(wal_dir)
        if store.has_state():
            raise RecoveryError(
                f"{store.root} already holds durable state; use "
                f"{type(self).__name__}.recover() (a fresh start would "
                f"orphan that history)")
        if database is None:
            raise ValidationError(
                "a database is required to start a fresh durable "
                "service")
        self._open(store, database, clock, snapshot_every, sync_every,
                   snapshot_log_bytes, service_kwargs)
        self.snapshot()

    @classmethod
    def recover(cls, wal_dir: str | Path, *,
                clock: Clock | None = None,
                snapshot_every: int | Literal["derived"] | None = "derived",
                sync_every: int | None = 8,
                snapshot_log_bytes: int | None = None,
                **service_kwargs):
        """Rebuild the service a crashed (or closed) one left in
        *wal_dir*.

        Configuration (mode, staleness policy, shard count, backend…)
        is the caller's to supply — the journal records *state*, not
        configuration, so the recovering shape may differ from the one
        that wrote the directory: a fleet of another size, or the
        other inner service altogether (restore re-routes the pending
        set, exactly as dead-shard re-homing does).  The recovered
        service is at the exact pre-crash ``db_version`` and arrival
        sequence and refuses every id the crashed one had burned;
        still-pending queries get fresh tickets in
        :attr:`restored_tickets`, and a new snapshot generation is
        written before this returns, so the next boot replays nothing.
        """
        store = SnapshotStore(wal_dir)
        recovered = _replay_store(store)

        self = cls.__new__(cls)
        self._open(store, recovered.database, clock, snapshot_every,
                   sync_every, snapshot_log_bytes, service_kwargs)
        self.answers = recovered.answers
        self.failures = recovered.failures
        self.commands_applied = recovered.commands
        self._generation = recovered.generation
        self.restored_tickets = self.restore_state(
            next_seq=recovered.next_seq,
            used_ids=recovered.burned,
            records=recovered.pending_records(),
            submitted=recovered.submitted,
            answered=recovered.answered,
            failed=recovered.failed_counter())
        return self

    def _open(self, store: SnapshotStore, database,
              clock: Clock | None,
              snapshot_every: int | Literal["derived"] | None,
              sync_every: int | None, snapshot_log_bytes: int | None,
              service_kwargs: dict) -> None:
        """Journal bookkeeping plus the inner service over *database*
        (shared by fresh construction and :meth:`recover`)."""
        if service_kwargs.get("rng") is not None:
            raise ValidationError(
                "durable services are deterministic-only: sampled "
                "CHOOSE draws cannot be reproduced by recovery (pass "
                "rng=None)")
        self._store = store
        self._clock = clock or SystemClock()
        self._pinned = PinnedClock()
        derived = snapshot_every == "derived"
        #: No cadence named: snapshot() re-derives the segment-size
        #: threshold from every snapshot it publishes.
        self._derived_cadence = derived and not snapshot_log_bytes
        self._snapshot_every = 0 if derived else snapshot_every or 0
        self._snapshot_log_bytes = snapshot_log_bytes or 0
        self._sync_every = sync_every
        self._log = None
        self._generation = -1
        self._since_snapshot = 0
        self._suppress_deltas = False
        self._closed = False
        #: Why the service stopped (a failed journal append), or None.
        self._stopped: str | None = None
        #: The running command's settlements: encoded events for its
        #: frame, and their tickets for this service's stream.
        self._events: list = []
        self._settled: list = []
        #: Per-table rendered-text cache for snapshot dumps (see
        #: :func:`repro.dataio.dump_database` — repeat snapshots
        #: re-render only the tables that mutated since the last one).
        self._dump_cache: dict = {}
        #: Journalled commands applied over this service's lifetime
        #: (snapshots record it; the crash battery uses it as its
        #: resume cursor).
        self.commands_applied = 0
        self.snapshots_taken = 0
        # Lifetime WAL totals: each snapshot generation opens a fresh
        # segment whose counters start at zero, so the closed
        # segments' figures accumulate here (see _absorb_log_counters).
        self._wal_records = 0
        self._wal_sync_batches = 0
        self._wal_bytes_total = 0
        self._snapshot_bytes_total = 0
        #: query_id -> answer payload / failure-reason value, for every
        #: journalled settlement (recovery rebuilds both maps exactly —
        #: they are the oracle-equivalence surface).
        self.answers: dict = {}
        self.failures: dict = {}
        #: query_id -> fresh ticket for queries that were pending at
        #: recovery (empty on a fresh start).
        self.restored_tickets: dict = {}
        #: The journalled inner service.
        self.service = self._service_class(database, clock=self._pinned,
                                           **service_kwargs)
        self.service.on_settle = self._on_settle
        database.add_mutation_listener(self._on_delta)

    # -- properties ----------------------------------------------------

    @property
    def wal_dir(self) -> Path:
        return self._store.root

    @property
    def generation(self) -> int:
        """The snapshot generation currently being journalled."""
        return self._generation

    @property
    def wal_bytes(self) -> int:
        """Bytes in the current generation's log segment."""
        if self._log is None or not self._log.path.exists():
            return 0
        return self._log.path.stat().st_size

    # -- journaling core -----------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise ValidationError("this durable service is closed")
        if self._stopped is not None:
            raise RecoveryError(self._stopped)

    def _fail_stop(self, error: BaseException) -> RecoveryError:
        """Stop after a failed append (see the class docstring)."""
        self._stopped = (
            f"{self._store.root}: a journal append failed "
            f"({type(error).__name__}: {error}); the service is "
            f"stopped, recover the directory to continue")
        self._log.abandon()
        return RecoveryError(self._stopped)

    def _publish(self, events: list) -> None:
        """Fold journalled settlement *events* into the maps, then hand
        their tickets on to this service's stream."""
        for kind, query_id, payload in events:
            if kind == "answered":
                self.answers[query_id] = payload
            else:
                self.failures[query_id] = payload
        del events[:]
        on_settle = self.on_settle
        if on_settle is not None:
            for ticket in self._settled:
                on_settle(ticket)
        del self._settled[:]

    def _command(self, op: str, fields: str,
                 execute: Callable[[], object],
                 adopted: Callable[[], str | None] = lambda: None):
        """Run one serving command under the journal.

        *fields* is the JSON text of the frame's command-specific
        members (``',"ops":[...]'``; empty for none), rendered by the
        caller *before* execution, so an unserializable input fails
        cleanly with no side effects; the append happens *after*, so a
        crash anywhere in between leaves a journal in which the command
        never happened.  Events settled while the command ran ride
        inside its frame; if the command raises after settling
        tickets, the events are salvaged into a ``wal_settle`` frame
        (the settlements are real — their tickets fired) and the
        exception propagates — unless *adopted* (called after the
        failure) returns fields: then the command's own frame is
        appended with them (a submit's, narrowed to what the inner
        service adopted).  A failed append fail-stops.
        """
        self._ensure_open()
        self._pinned.set(self._clock.now())
        head = compact_json({"wire": WIRE_VERSION, "kind": "wal_cmd",
                             "op": op, "at": self._pinned.now()})
        # The one serialization of the frame: the events (which do not
        # exist yet) are spliced in after execution.
        body = head[:-1] + fields
        events = self._events
        del events[:], self._settled[:]
        try:
            result = execute()
        except BaseException:
            fields = adopted()
            if fields is not None:
                self._append_command(op, head[:-1] + fields, events)
            elif events:
                try:
                    self._log.append({"wire": WIRE_VERSION,
                                      "kind": "wal_settle",
                                      "events": events})
                except BaseException as error:
                    raise self._fail_stop(error) from error
                self._publish(events)
            raise
        self._append_command(op, body, events)
        return result

    def _append_command(self, op: str, body: str, events: list) -> None:
        """Append one command frame (*body* plus *events*), publish its
        settlements and count it, snapshotting on the cadence."""
        framed = (body + ',"events":' + compact_json(events)
                  + "}").encode("utf-8")
        tracer = TRACER
        try:
            if tracer.enabled:
                start_ns = time.perf_counter_ns()
                self._log.append_body(framed)
                tracer.record("wal.append", start_ns, None, op=op,
                              bytes=len(framed))
            else:
                self._log.append_body(framed)
        except BaseException as error:
            raise self._fail_stop(error) from error
        self._publish(events)
        self.commands_applied += 1
        self._since_snapshot += 1
        if (self._snapshot_every
                and self._since_snapshot >= self._snapshot_every):
            self.snapshot()
        elif (self._snapshot_log_bytes
                and self._log.bytes_appended >= self._snapshot_log_bytes):
            # Size-based cadence: snapshot once the segment has grown
            # to the threshold — derived from the snapshot that opened
            # it unless the caller fixed one — bounding both replay
            # length and write amplification (a command-count cadence
            # re-writes the whole state however little the log grew —
            # ruinous when the state dwarfs a command frame).
            self.snapshot()

    def _on_settle(self, ticket: CoordinationTicket) -> None:
        """The inner service's stream: encode the settlement for the
        running command's frame and keep the ticket to hand on."""
        if ticket.state is TicketState.ANSWERED:
            self._events.append(["answered", ticket.query_id,
                                 to_payload(ticket.answer)])
        else:
            self._events.append(["failed", ticket.query_id,
                                 ticket.failure_reason.value])
        self._settled.append(ticket)

    def _on_delta(self, delta) -> None:
        """Database mutation listener: journal out-of-band mutations.

        Mutations routed through a journalled ``mutate`` command are
        suppressed (the command frame already reconstructs them);
        everything else — an application writing the shared database
        directly — lands here as one ``wal_delta`` frame per committed
        :class:`~repro.db.database.TableDelta`, in commit order.
        """
        if self._suppress_deltas or self._closed:
            return
        self._ensure_open()
        try:
            self._log.append({"wire": WIRE_VERSION, "kind": "wal_delta",
                              "delta": delta_to_payload(delta)})
        except BaseException as error:
            raise self._fail_stop(error) from error

    # -- snapshots and lifecycle ---------------------------------------

    def snapshot(self) -> int:
        """Write a new snapshot generation and truncate the log.

        Publication order is what makes this crash-safe at every step:
        the new snapshot is durable (temp + fsync + rename) *before*
        the new log segment opens, and older generations are pruned
        only after that — a crash anywhere leaves at least one
        complete generation on disk.  Returns the new generation.
        """
        self._ensure_open()
        tracer = TRACER
        start_ns = time.perf_counter_ns() if tracer.enabled else 0
        generation = self._generation + 1
        written = self._store.write_snapshot(
            generation, self.commands_applied,
            self.snapshot_state(dump_cache=self._dump_cache))
        self._snapshot_bytes_total += written
        if self._derived_cadence:
            self._snapshot_log_bytes = max(written, SNAPSHOT_FLOOR_BYTES)
        if self._log is not None:
            self._log.close()
            # After the close: its fsync is the segment's last.
            self._absorb_log_counters()
        self._log = self._store.open_log(generation, self._sync_every)
        self._store.prune_before(generation)
        self._generation = generation
        self._since_snapshot = 0
        self.snapshots_taken += 1
        if tracer.enabled:
            tracer.record("wal.snapshot", start_ns, None,
                          generation=generation)
        return generation

    def _absorb_log_counters(self) -> None:
        """Fold the closed segment's counters into lifetime totals."""
        log = self._log
        self._wal_records += log.records_appended
        self._wal_sync_batches += log.syncs
        self._wal_bytes_total += log.bytes_appended

    def sync(self) -> None:
        """Force the journal to stable storage (fsync now)."""
        self._ensure_open()
        self._log.sync()

    def close(self) -> None:
        """Snapshot, sync, and release resources (idempotent).

        A cleanly closed service reopens from its final snapshot with
        an empty log — recovery is instant.  A stopped one publishes
        nothing: its directory recovers to the journalled state.
        """
        if self._closed:
            return
        if self._stopped is not None:
            self._closed = True
            self.service.close()
            return
        try:
            self.snapshot()
        finally:
            self._closed = True
            if self._log is not None:
                self._log.close()
            self.service.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def has_state(wal_dir: str | Path) -> bool:
        """True when *wal_dir* holds recoverable state (use
        ``recover``; a fresh construction would refuse it)."""
        return SnapshotStore(wal_dir).has_state()

    # -- serving surface (the CoordinationService protocol) ------------

    @property
    def database(self):
        return self.service.database

    def submit_many(self, queries: Iterable) -> list[CoordinationTicket]:
        """Submit a block durably: one journalled ``submit`` frame.

        The frame carries the queries as handed over — rendered by
        :func:`~repro.dataio.render_query`, the bytes of their payloads
        — and the arrival sequences the inner service is about to
        assign (consecutive from its counter, safety-rejected arrivals
        included); replay re-renames them apart to the same working
        copies (suffix = query id).  A query the wire cannot carry
        fails here, before anything runs; the inner service refuses a
        bad query or block before touching any state: that raises out
        of ``execute()`` and the prepared frame is discarded
        unappended.  A block the inner service adopted before it raised
        (a drain that failed) is journalled all the same, narrowed to
        the queries it adopted — pending now, or settled by the call —
        so recovery rebuilds what the live service holds.
        """
        queries = list(queries)
        service = self.service
        start = service.next_arrival_seq
        rendered = [render_query(query) for query in queries]
        seqs = list(range(start, start + len(queries)))

        def adopted():
            if service.next_arrival_seq == start:
                return None
            kept = set(service.pending_ids()).union(
                event[1] for event in self._events)
            chosen = [index for index, query in enumerate(queries)
                      if query.query_id in kept]
            if not chosen:
                return None
            return _submit_fields([rendered[index] for index in chosen],
                                  [seqs[index] for index in chosen])

        return self._command("submit", _submit_fields(rendered, seqs),
                             lambda: service.submit_many(queries),
                             adopted)

    def run_batch(self) -> int:
        """One journalled set-at-a-time round; returns answered count."""
        return self._command("run_batch", "", self.service.run_batch)

    def expire_stale(self) -> int:
        """One journalled expiry sweep; returns the expired count."""
        return self._command("expire", "", self.service.expire_stale)

    def apply_mutations(self, operations: Sequence[tuple]) -> list[int]:
        """Apply a batch of DML operations under ONE journal frame.

        Direct mutations of the service's database are journalled too
        — the delta listener writes one ``wal_delta`` frame per
        committed :class:`~repro.db.database.TableDelta` — but a
        mutation-heavy round pays per-frame append cost for every
        delta.  Batching through here costs one ``mutate`` command
        frame for the whole block.  The inner service validates the
        whole batch before applying any of it, so a bad op leaves the
        database and the journal untouched.
        """
        ops = [[kind, table, [list(row) for row in rows]]
               for kind, table, rows in operations]

        def execute():
            self._suppress_deltas = True
            try:
                return self.service.apply_mutations(ops)
            finally:
                self._suppress_deltas = False

        return self._command("mutate", ',"ops":' + compact_json(ops),
                             execute)

    def invalidate_cache(self) -> None:
        self.service.invalidate_cache()

    @property
    def next_arrival_seq(self) -> int:
        return self.service.next_arrival_seq

    @property
    def pending_count(self) -> int:
        return self.service.pending_count

    def pending_ids(self) -> list:
        return self.service.pending_ids()

    def partition_sizes(self) -> list[int]:
        return self.service.partition_sizes()

    def metrics_snapshot(self) -> dict:
        """The inner service's metrics snapshot joined by the journal's
        lifetime activity (the journal lives on the wrapper) as
        ``durability.*`` counters: snapshots taken and their bytes,
        commands applied, and WAL records, fsync batches and bytes,
        the live segment's included."""
        snapshot = self.service.metrics_snapshot()
        log = self._log
        records, syncs, appended = (
            (0, 0, 0) if log is None
            else (log.records_appended, log.syncs, log.bytes_appended))
        snapshot["counters"].update({
            "durability.snapshots_taken": self.snapshots_taken,
            "durability.commands_applied": self.commands_applied,
            "durability.wal_records": self._wal_records + records,
            "durability.wal_sync_batches": self._wal_sync_batches + syncs,
            "durability.wal_bytes": self._wal_bytes_total + appended,
            "durability.snapshot_bytes": self._snapshot_bytes_total,
        })
        return snapshot

    def snapshot_state(self, *, dump_cache: dict | None = None) -> dict:
        """The inner service's durable state plus the settlement maps
        (the snapshot body, and the crash battery's fingerprint)."""
        state = self.service.snapshot_state(dump_cache=dump_cache)
        state["answers"] = id_pairs(self.answers)
        state["failures"] = id_pairs(self.failures)
        return state

    def restore_state(self, **state) -> dict:
        """Restore the (pristine) inner service and publish the result
        as a new snapshot generation; returns the fresh tickets (their
        settlements are journalled like any other)."""
        tickets = self.service.restore_state(**state)
        self.snapshot()
        return tickets


def _submit_fields(rendered: list, seqs: list) -> str:
    """A submit frame's own members: the rendered queries and the
    arrival sequences they take."""
    return f',"queries":[{",".join(rendered)}],"seqs":{compact_json(seqs)}'


class DurableEngine(_DurableService):
    """A durable :class:`~repro.engine.engine.D3CEngine` (see
    :class:`_DurableService`; engine keyword arguments pass through)."""

    _service_class = D3CEngine


class DurableCoordinator(_DurableService):
    """A durable :class:`~repro.shard.coordinator.ShardedCoordinator`
    (see :class:`_DurableService`; ``num_shards``, ``backend``,
    ``staleness``, ``warm_indexes``… pass through — shard count and
    backend may differ from the run that wrote the directory)."""

    _service_class = ShardedCoordinator
