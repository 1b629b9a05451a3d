"""Shared scaffolding of the service batteries, and the model machine.

Not a test module (no ``test_`` prefix): the batteries import the one
copy of what they share from here — :class:`ScriptedRouter`, the
exactly-once migration audit, :func:`build` for every shape, and
:func:`spawn_server` / :func:`stop` for served children — and
``tests/test_model.py`` runs :class:`ServiceModel`, the model-based
differential machine every service shape is held to.

The machine drives one command history in lockstep through a
reference plain batch :class:`~repro.engine.engine.D3CEngine` and the
subject shapes of a :class:`Group`, and after every rule checks:

(a) every subject matches the reference on the rule's result or the
    type of error it raised, on what settled during the rule, on
    ``pending_ids()``, sorted ``partition_sizes()`` and the lifecycle
    counters of ``metrics_snapshot()``; the in-process shapes also on
    ``snapshot_state()``;
(b) what settles together is a coordinating set (the paper's
    Section 2.3): every answer is one of ``materialize_groundings(query,
    database)`` at the instant it settles, whose postconditions are
    heads answered with it; an aggregate answer satisfies its
    constraint; and an id settles at most once per incarnation across
    the whole history, crashes and reshapes included;
(c) the ground oracle: in a round, a coordination component of at most
    eight pending queries that is safe, UCS and closed (every
    postcondition unifies with a head in it) is answered whole exactly
    when ``find_coordinating_set`` finds a coordinating set covering it
    (Theorem 2.1), and else not at all; one whose queries carry a §6
    aggregate gets ``coordinate()``'s answers;
(d) after a fault, every fleet passes the exactly-once audit; after a
    shard is lost, the fleet names it dead and still matches the
    reference — the loss cost nothing but a re-home;
(e) on every in-process shape, the reference included, the settlement
    stream (``on_settle``) delivered exactly the settlements the
    tickets report, once each and in settlement order — and nothing a
    fail-stopped journal lacks.

Besides the lockstep comparison the machine keeps a small model of its
own: which ids are burned (pending or answered) and which queries read
a missing table or a table at the wrong arity, so a refusal every
shape forgot still fails.  A twin that forgets its carried state must
never resume an attempt.

:func:`run_model` replays :data:`TOUR` — every rule the group has,
once — before hypothesis's examples, if the group has any (the first
is always hypothesis's simplest history), and then requires of the
whole run what makes its comparisons mean something: every rule of
the group reached, answers given, the live shapes resuming carried
attempts where a forgetting twin is compared with them, fleets of
more than one shard migrating, and a lost shard named dead, some loss
first met by routing.
"""

from __future__ import annotations

import asyncio
import collections
import errno
import itertools
import os
import resource
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, precondition,
                                 rule, run_state_machine_as_test)

from repro.core.baseline import (find_coordinating_set,
                                 materialize_groundings)
from repro.core.evaluate import coordinate
from repro.core.extensions import AggregateConstraint
from repro.core.query import EntangledQuery
from repro.core.safety import is_safe
from repro.core.terms import Constant, Variable, atom
from repro.core.ucs import is_ucs
from repro.core.unify import atoms_unifiable
from repro.dataio import dump_database, from_payload
from repro.db import Database
from repro.db.expression import Comparison
from repro.durability import DurableCoordinator, DurableEngine
from repro.durability.snapshots import SnapshotStore
from repro.engine.engine import D3CEngine
from repro.engine.futures import TicketState
from repro.engine.staleness import ManualClock, TimeoutStaleness
from repro.errors import RecoveryError, ReproError
from repro.lang import parse_and_lower, parse_ir, schema_resolver
from repro.server import ServerClient, ServerCommandError
from repro.shard import (InProcessBackend, ShardCall, ShardLostError,
                         ShardMigrationError, ShardRouter,
                         ShardedCoordinator)
from repro.workloads import build_intro_database

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = REPO_ROOT / "src"


# ----------------------------------------------------------------------
# the pieces every battery shares
# ----------------------------------------------------------------------


class ScriptedRouter(ShardRouter):
    """Pins chosen query ids to chosen home shards, so rendezvous
    providers provably start on different shards."""

    def __init__(self, num_shards: int, script: dict):
        super().__init__(num_shards)
        self.script = script

    def home_shard(self, query) -> int:
        if query.query_id in self.script:
            return self.script[query.query_id]
        return super().home_shard(query)


def rendezvous_triple(tag: str, dest_a: str = "AAA",
                      dest_b: str = "BBB") -> list[EntangledQuery]:
    """Providers ``a`` and ``b`` plus a two-postcondition bridge ``c``
    that entangles both (same shape as the multi-tenant generator)."""
    a = EntangledQuery(
        query_id=f"{tag}-a",
        head=(atom("R", f"{tag}-a", dest_a),),
        postconditions=(atom("R", f"{tag}-c", dest_a),),
        body=(atom("U", "user1", Variable("t")),))
    b = EntangledQuery(
        query_id=f"{tag}-b",
        head=(atom("R", f"{tag}-b", dest_b),),
        postconditions=(atom("R", f"{tag}-c", dest_b),),
        body=(atom("U", "user2", Variable("t")),))
    c = EntangledQuery(
        query_id=f"{tag}-c",
        head=(atom("R", f"{tag}-c", dest_a),
              atom("R", f"{tag}-c", dest_b)),
        postconditions=(atom("R", f"{tag}-a", dest_a),
                        atom("R", f"{tag}-b", dest_b)),
        body=(atom("U", "user1", Variable("t")),))
    return [a, b, c]


def audit_exactly_once(coordinator) -> None:
    """Every tracked query pending on exactly one live shard, the
    coordinator's ownership map agreeing with the engines, and its own
    maps agreeing with each other: one key set for records, tickets and
    owners, every key a burned id."""
    owners = set(coordinator._shard_of)
    assert set(coordinator._pending_meta) == owners, \
        set(coordinator._pending_meta) ^ owners
    assert set(coordinator._tickets) == owners, \
        set(coordinator._tickets) ^ owners
    assert owners <= coordinator._used_ids, owners - coordinator._used_ids
    held = {shard: coordinator._backends[shard].call_pending().result()
            for shard in coordinator._live_shards()}
    fleet = [query_id for ids in held.values() for query_id in ids]
    assert len(fleet) == len(set(fleet)), f"duplicated: {fleet}"
    assert sorted(fleet, key=repr) == sorted(coordinator._shard_of,
                                             key=repr)
    for query_id in fleet:
        assert query_id in held[coordinator.shard_of(query_id)]


def lifecycle(metrics: dict) -> tuple:
    """Submitted, answered and pending, read from a
    ``metrics_snapshot()`` by metric name."""
    return (metrics["counters"]["submitted"],
            metrics["counters"]["answered"],
            int(metrics["gauges"]["pending"]))


def exact(value):
    """*value* with every scalar tagged by its type: ``1``, ``1.0`` and
    ``True`` compare equal in Python, and must not here."""
    if isinstance(value, (list, tuple)):
        return tuple(exact(item) for item in value)
    return (type(value).__name__, repr(value))


def answer_form(rows: dict) -> tuple:
    """An answer's rows, type-exact and in one order."""
    return tuple((relation, exact(rows[relation]))
                 for relation in sorted(rows))


def outcome(ticket) -> tuple:
    """What a settled (or pending) ticket says, type-exact."""
    if ticket.state is TicketState.ANSWERED:
        return ("answered", answer_form(ticket.answer.rows))
    if ticket.state is TicketState.FAILED:
        return ("failed", ticket.failure_reason.value)
    return ("pending",)


#: The ANSWER relation of the paper's §6 party.
ANSWER_SCHEMAS = {"Attendance": ("pid", "name")}


def jerry_aggregate_query(db: Database, threshold: int):
    """The paper's §6 aggregation example (parameterized threshold):
    Jerry attends a Friday party only if more than *threshold* of his
    friends attend it."""
    return parse_and_lower(f"""
        SELECT party_id, 'Jerry' INTO ANSWER Attendance
        WHERE party_id IN (SELECT pid FROM Parties
                           WHERE pdate = 'Friday')
          AND (SELECT COUNT(*) FROM ANSWER Attendance A, Friend F
               WHERE party_id = A.pid AND A.name = F.name2
                 AND F.name1 = 'Jerry') > {threshold}
        CHOOSE 1
    """, "jerry", schema_resolver(db), ANSWER_SCHEMAS)


def friend_query(db: Database, friend: str):
    """A friend attends whichever Friday party Jerry attends."""
    return parse_and_lower(f"""
        SELECT party_id, '{friend}' INTO ANSWER Attendance
        WHERE party_id IN (SELECT pid FROM Parties
                           WHERE pdate = 'Friday')
          AND (party_id, 'Jerry') IN ANSWER Attendance
        CHOOSE 1
    """, f"f-{friend}", schema_resolver(db), ANSWER_SCHEMAS)


def poisoned_database() -> Database:
    """The intro database plus ``W``, whose ``any`` column holds
    text: admission cannot tell that ordering it against a number
    raises, so :func:`poisoned_pair` is admitted and its component
    raises whenever it is evaluated (until :data:`MEND`)."""
    database = build_intro_database()
    database.create_table("W", "a text", "v any")
    database.insert("W", [("w1", "text")])
    return database


def poisoned_pair() -> list:
    """``u-a`` / ``u-b``: a pair whose comparison raises on
    :func:`poisoned_database`, and no partner of the intro pair."""
    return [parse_ir(f"{{Reservation({partner}, x)}} "
                     f"Reservation({user}, x) "
                     f"<- Flights(x, Paris), W(w1, v), v < 5", query_id)
            for query_id, user, partner in (("u-a", "Newman", "Susan"),
                                            ("u-b", "Susan", "Newman"))]


#: The mutation that mends the poisoned pair's row.
MEND = [("delete", "W", [("w1", "text")]), ("insert", "W", [("w1", 3)])]


def build(shape: str, database, wal_dir=None, **options):
    """A fresh set-at-a-time service of *shape* over *database*.

    Shapes: ``engine`` (``engine-incremental`` and ``engine-component``
    for the per-arrival modes), ``fleet`` / ``fleet-inprocess`` /
    ``fleet-process`` (``num_shards`` defaults to 2) and the durable
    wrapper around either, ``durable-engine`` / ``durable-fleet`` /
    ``durable-fleet-process`` (journal fsync off, a manual clock
    unless *options* name one).  *options* override the defaults.
    """
    options.setdefault("mode", "batch")
    if shape == "engine-incremental":
        options["mode"] = "incremental"
    elif shape == "engine-component":
        options.update(mode="incremental",
                       incremental_strategy="component")
    if "fleet" in shape:
        options.setdefault("num_shards", 2)
        options.setdefault("backend", "process"
                           if shape.endswith("-process") else "inprocess")
    if shape.startswith("durable"):
        options.setdefault("clock", ManualClock())
        options.setdefault("sync_every", None)
        cls = DurableCoordinator if "fleet" in shape else DurableEngine
        return cls(wal_dir, database, **options)
    if "fleet" in shape:
        return ShardedCoordinator(database, **options)
    return D3CEngine(database, **options)


def spawn_server(data_path, sock_path, wal_dir, *extra) -> subprocess.Popen:
    """Start ``repro serve DATA --unix SOCK --wal-dir WAL [extra…]`` and
    wait until it accepts connections."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(data_path),
         "--unix", str(sock_path), "--wal-dir", str(wal_dir), *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise AssertionError(
                f"server exited early:\n{process.stdout.read()}")
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.connect(str(sock_path))
        except OSError:
            time.sleep(0.05)
        else:
            return process
        finally:
            probe.close()
    process.kill()
    process.wait()
    raise AssertionError("server did not come up within 30s")


def stop(process: subprocess.Popen) -> None:
    """SIGTERM a served child (a graceful drain), SIGKILL if it hangs."""
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    process.stdout.close()


# ----------------------------------------------------------------------
# the model's world: tables, values and query kinds
# ----------------------------------------------------------------------

USERS = ("U0", "U1", "U2", "U3")
DESTINATIONS = ("D", "E")
#: Ids come from a small pool, so histories reuse live, answered and
#: expired ids.
ID_POOL = tuple(f"q{index}" for index in range(12))
TTL = 2.5

#: One value pool per column of ``V``, each with the values a snapshot
#: or a replica once failed to carry.
INTS = (0, 1, -7)
FLOATS = (0.5, 1.0, 1e20, float("inf"), float("-inf"))
BOOLS = (True, False)
TEXTS = ("a\nb", "x", "it's")
ANYS = (1, 1.0, True, "1", 1e20, float("-inf"), "a\nb")


def base_database() -> Database:
    database = Database()
    database.create_table("F", "a text", "b text")
    database.create_table("G", "a text")
    database.create_table("V", "d text", "i int", "f float", "b bool",
                          "s text", "x any")
    database.create_table("Parties", "pid text", "pdate text")
    database.create_table("Friend", "name1 text", "name2 text")
    database.insert("F", [("U0", "U1"), ("U1", "U0"), ("U2", "U3")])
    database.insert("V", [("D", 1, 1e20, True, "a\nb", 1.0)])
    database.insert("Parties", [("p1", "Friday"), ("p2", "Saturday"),
                                ("p3", "Friday")])
    database.insert("Friend", [("U0", "U1"), ("U0", "U2")])
    return database


#: Kinds a submission refuses before admitting anything: a read of a
#: missing table, one at the wrong arity, and an ordering comparison
#: of a text column against a number.
UNREADABLE = ("missing", "arity", "misordered")
KINDS = ("pair", "pair", "pair", "gated", "cluster", "bridge", "valued",
         "valued", "host", "guest", "guest") + UNREADABLE


class Spec(NamedTuple):
    """One drawn query: its id, kind, user, destination and — for a §6
    host — threshold.  A user's partner is fixed (``U0``-``U1``,
    ``U2``-``U3``), so mutual pairs are common; every guest's host is
    ``U0``.  A *fresh* spec trades a burned id for a free one when the
    pool has one (most draws are fresh: reused ids are then the
    exception they are in service)."""

    query_id: str
    kind: str
    user: int
    destination: str
    threshold: int = 0
    fresh: bool = False

    def build(self) -> EntangledQuery:
        me, other = USERS[self.user], USERS[self.user ^ 1]
        third = USERS[(self.user + 2) % len(USERS)]
        d, x, p = self.destination, Variable("x"), Variable("p")
        head, post = (atom("R", me, d),), (atom("R", other, d),)
        body, aggregates = (atom("F", me, other),), ()
        comparisons = ()
        if self.kind == "gated":
            body += (atom("G", me),)
        elif self.kind == "cluster":
            # Over-unifying: it takes whoever the data pairs it with.
            head, post = (atom("C", me, d),), (atom("C", x, d),)
            body = (atom("F", me, x),)
        elif self.kind == "bridge":
            post += (atom("R", third, d),)
            body += (atom("F", me, third),)
        elif self.kind == "valued":
            values = [Variable(name) for name in "ifbsx"]
            head = (atom("S", me, d, *values),)
            post = (atom("S", other, d, *values),)
            body += (atom("V", d, *values),)
        elif self.kind in ("host", "guest"):
            # The paper's §6 party: the host attends a Friday party
            # only if more than *partner* of its friends attend it;
            # a guest attends whichever party its host attends.
            head = (atom("Att", p, me),)
            post = (atom("Att", p, USERS[0]),) if self.kind == "guest" \
                else ()
            body = (atom("Parties", p, "Friday"),)
            if self.kind == "host":
                friend = Variable("f")
                aggregates = (AggregateConstraint(
                    atoms=(atom("Att", p, friend),
                           atom("Friend", me, friend)),
                    answer_relations=frozenset({"Att"}), op=">",
                    threshold=self.threshold),)
        elif self.kind == "missing":
            head, post, body = (atom("R", me, x),), (), (
                atom("NoSuchTable", x),)
        elif self.kind == "arity":
            head, post, body = (atom("R", me, x),), (), (atom("F", x),)
        elif self.kind == "misordered":
            head, post, body = (atom("R", me, x),), (), (
                atom("F", me, x),)
            comparisons = (Comparison(x, "<", Constant(5)),)
        return EntangledQuery(query_id=self.query_id, head=head,
                              postconditions=post, body=body,
                              body_comparisons=comparisons,
                              aggregates=aggregates)


_user = st.integers(0, len(USERS) - 1)
_destination = st.sampled_from(DESTINATIONS)
specs = st.builds(Spec, st.sampled_from(ID_POOL), st.sampled_from(KINDS),
                  _user, _destination, st.integers(0, 1),
                  st.sampled_from([True] * 4 + [False]))


def _structure(kind: str, users, destination: str, threshold: int = 0,
               chain: bool = False) -> list:
    """Fresh specs of *kind* for *users*; a *chain* makes the last a
    bridge, arriving after both pairs it joins (which may live on
    different shards by then)."""
    return [Spec(ID_POOL[0], "bridge" if chain and index == len(users) - 1
                 else kind, user, destination, threshold, fresh=True)
            for index, user in enumerate(users)]


#: What one submission carries: a structure that can coordinate — a
#: mutual pair (plain, gated or over typed values), a cluster, a chain
#: bridging two pairs, a §6 party (host ``U0`` and some guests) — or
#: one or two loose queries, unreadable ones included.
blocks = st.one_of(
    st.builds(lambda kind, user, destination: _structure(
        kind, (user, user ^ 1), destination),
        st.sampled_from(["pair", "gated", "valued"]),
        st.sampled_from([0, 2]), _destination),
    st.builds(lambda users, destination: _structure(
        "cluster", users, destination),
        st.lists(_user, min_size=2, max_size=3, unique=True),
        _destination),
    st.builds(lambda destination: _structure(
        "pair", (1, 2, 3, 0), destination, chain=True), _destination),
    st.builds(lambda guests, threshold: _structure(
        "host", (0,), "D", threshold) + _structure(
        "guest", guests, "D"),
        st.lists(st.sampled_from([1, 2, 3]), max_size=3, unique=True),
        st.integers(0, 1)),
    st.lists(specs, min_size=1, max_size=2))

_name = st.sampled_from(USERS)
_rows = {
    "F": st.tuples(_name, _name),
    "G": st.tuples(_name),
    "V": st.tuples(st.sampled_from(DESTINATIONS), st.sampled_from(INTS),
                   st.sampled_from(FLOATS), st.sampled_from(BOOLS),
                   st.sampled_from(TEXTS), st.sampled_from(ANYS)),
    "Friend": st.tuples(_name, _name),
}
operations = st.sampled_from(sorted(_rows)).flatmap(
    lambda table: st.tuples(
        st.sampled_from(["insert", "insert", "delete"]), st.just(table),
        st.lists(_rows[table], min_size=1, max_size=3)))


# ----------------------------------------------------------------------
# subjects: a service shape behind the calls the machine makes
# ----------------------------------------------------------------------


class InjectedFault(RuntimeError):
    """The failure an armed shard call returns."""


#: The shard calls a migration makes, and a fault can fail.
FAULT_KINDS = ("members", "detach", "import")

#: The commands that can meet a lost shard first (``observe``: the
#: check's own reads, ``metrics_snapshot`` and ``partition_sizes``;
#: ``submit``: a bridge whose partners may span shards, so its routing
#: meets the loss).
LOSS_POINTS = ("run_batch", "expire_stale", "invalidate_cache",
               "mutate", "observe", "submit")


def _forget_before_rounds(service) -> None:
    """Drop every retained attempt and re-queue every component: a
    round after this re-derives everything the live service kept."""
    fleet = service if isinstance(service, ShardedCoordinator) else None
    engines = ([backend.engine for backend in fleet._backends]
               if fleet is not None else [service])
    for engine in engines:
        engine._partitions._match_states.clear()
    service.invalidate_cache()


def _forget_every_match_state(engine) -> None:
    """Re-match from scratch at every attempt: the carried matching
    state is cleared whenever the runtime asks for it."""
    partitions = engine._partitions
    carried = partitions.match_state

    def rebuilt(query_id):
        partitions._match_states.clear()
        return carried(query_id)

    partitions.match_state = rebuilt


class InProcess:
    """An in-process shape (engine, fleet, durable wrapper)."""

    served = False

    def __init__(self, name: str, service, forget: bool = False):
        self.name = name
        self.service = service
        self.forget = forget
        self.settled: list = []
        #: What the settlement stream delivered (invariant e), and what
        #: ticket callbacks saw as it settled (not on a late add).
        self.stream: list = []
        self._as_settled: list = []
        self._watching = False
        service.on_settle = self._on_stream
        #: Raw answer rows by id, for invariant (b).
        self.rows: dict = {}
        #: Ids with an unsettled incarnation (invariant b).
        self.live: set = set()
        self._dump_cache: dict = {}
        if forget and getattr(service, "incremental_strategy",
                              "") == "component":
            _forget_every_match_state(service)

    @property
    def durable(self) -> bool:
        return hasattr(self.service, "wal_dir")

    def fleets(self) -> list:
        inner = getattr(self.service, "service", self.service)
        return [inner] if isinstance(inner, ShardedCoordinator) else []

    def watch(self, tickets) -> None:
        self._watching = True
        try:
            for ticket in tickets:
                ticket.add_callback(self._on_settle)
        finally:
            self._watching = False

    def _on_settle(self, ticket) -> None:
        entry = (ticket.query_id, outcome(ticket))
        self.settled.append(entry)
        if not self._watching:
            self._as_settled.append(entry)
        if ticket.answer is not None:
            self.rows[ticket.query_id] = ticket.answer.rows

    def _on_stream(self, ticket) -> None:
        assert ticket.done(), (self.name, ticket)
        self.stream.append((ticket.query_id, outcome(ticket)))

    def check_stream(self) -> None:
        """Invariant (e): the stream holds what the tickets report,
        once each, and in the order the callbacks saw them settle."""
        assert sorted(self.stream, key=repr) == sorted(
            self.settled, key=repr), (self.name, self.stream, self.settled)
        heard = set(self._as_settled)
        assert [entry for entry in self.stream if entry in heard] \
            == self._as_settled, (self.name, self.stream,
                                  self._as_settled)
        self.forget_settled()

    def forget_settled(self) -> None:
        """Drop what settled since the last check (the service that
        settled it is gone)."""
        for seen in (self.settled, self.stream, self._as_settled):
            seen.clear()

    def submit_many(self, queries) -> list:
        tickets = self.service.submit_many(queries)
        self.watch(tickets)
        return [ticket.query_id for ticket in tickets]

    def run_batch(self) -> int:
        if self.forget and self.service.mode == "batch":
            _forget_before_rounds(self.service)
        return self.service.run_batch()

    def expire_stale(self) -> int:
        return self.service.expire_stale()

    def apply_mutations(self, ops, direct: bool) -> list:
        if not direct:
            return self.service.apply_mutations(ops)
        database = self.service.database
        return [database.insert(table, rows) if kind == "insert"
                else database.delete_rows(table, rows)
                for kind, table, rows in ops]

    def invalidate_cache(self) -> None:
        self.service.invalidate_cache()

    def snapshot(self) -> None:
        if self.durable:
            self.service.snapshot()

    def observe(self) -> dict:
        stats = lifecycle(self.service.metrics_snapshot())
        state = self.service.snapshot_state(dump_cache=self._dump_cache)
        for key in ("answers", "failures"):
            state.pop(key, None)
        return {"pending": self.service.pending_ids(),
                "sizes": sorted(self.service.partition_sizes()),
                "stats": stats, "state": state}

    def replace_service(self, service) -> None:
        self.service = service
        self._dump_cache = {}
        service.on_settle = self._on_stream
        self.watch(service.restored_tickets.values())

    def counters(self) -> collections.Counter:
        """What this incarnation resumed, built, answered and migrated
        (the run-level checks sum them over incarnations)."""
        counters = self.service.metrics_snapshot()["counters"]
        role = "forget" if self.forget else "live"
        counts = collections.Counter({
            f"{role}.{counter}": counters[counter] for counter in (
                "match_resumed", "closures_skipped_empty",
                "combined_queries_built")})
        counts["migrations"] = sum(fleet.migrations
                                   for fleet in self.fleets())
        counts["lost"] = sum(len(fleet.dead_shards())
                             for fleet in self.fleets())
        return counts

    def close(self) -> None:
        self.service.close()


class Served:
    """A served durable child, driven through a client connection.

    Settlements are read from the ``resolved`` op after every rule (the
    served group never expires anything, so an id settles at most once
    and the answer map is a complete log)."""

    served = True
    durable = True

    def __init__(self, name: str, workdir: Path, database):
        self.name = name
        self.settled: list = []
        self.live: set = set()
        self._data_path = workdir / "served.data"
        self._data_path.write_text(dump_database(database))
        self.wal_dir = workdir / "wal"
        self._sock = workdir / "srv.sock"
        self._loop = asyncio.new_event_loop()
        self._known: dict = {}
        self._process = self._client = None
        self._start()

    def _start(self) -> None:
        self._process = spawn_server(self._data_path, self._sock,
                                     self.wal_dir)
        self._client = self._run(ServerClient.connect_unix(self._sock))

    def _run(self, awaitable):
        return self._loop.run_until_complete(
            asyncio.wait_for(awaitable, 30))

    def fleets(self) -> list:
        return []

    def counters(self) -> collections.Counter:
        return collections.Counter()

    def submit_many(self, queries) -> list:
        tickets = self._run(self._client.submit(queries))
        return [ticket.query_id for ticket in tickets]

    def run_batch(self) -> int:
        return self._run(self._client.run_batch())

    def expire_stale(self) -> int:
        return self._run(self._client.expire())

    def apply_mutations(self, ops, direct: bool) -> list:
        return self._run(self._client.mutate(ops))

    def events(self) -> int:
        """Settlement events pushed so far (a ping first, so every
        event of the previous command has arrived)."""
        self._run(self._client.ping())
        return len(self._client.events)

    def collect(self) -> None:
        """Append what settled since the last call to :attr:`settled`."""
        resolved = self._run(self._client.resolved())
        assert resolved["failures"] == []
        for query_id, payload in resolved["answers"]:
            if query_id not in self._known:
                self._known[query_id] = payload
                self.settled.append((query_id, (
                    "answered", answer_form(from_payload(payload).rows))))

    def observe(self) -> dict:
        self.collect()
        return {"pending": self._run(self._client.pending()),
                "stats": lifecycle(self._run(self._client.metrics()))}

    def fill_journal(self) -> None:
        """The child's next append finds no room: its file-size limit
        drops to the live segment's size (EFBIG on the next write)."""
        store = SnapshotStore(self.wal_dir)
        size = store.log_path(store.generations()[-1]).stat().st_size
        _, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        resource.prlimit(self._process.pid, resource.RLIMIT_FSIZE,
                         (size, hard))

    def kill(self) -> None:
        """``kill -9`` the child and serve its directory again."""
        self._process.kill()
        self._process.wait()
        self._process.stdout.close()
        self._run(self._client.close())
        self._start()

    def close(self) -> None:
        try:
            self._run(self._client.close())
        finally:
            stop(self._process)
            self._loop.close()


# ----------------------------------------------------------------------
# groups: which shapes run in lockstep, and which rules apply
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Group:
    """One lockstep group: a reference and its subjects.

    *subjects* are ``(shape, options)`` pairs for :func:`build`, plus
    ``("served", {})``; an option ``forget=True`` makes a twin that
    forgets its carried state (retained attempts before every round in
    batch mode; the matching state at every attempt with the component
    strategy).  *reshapes* are the ``(durable shape, num_shards)``
    pairs a crash may recover into."""

    name: str
    subjects: tuple
    #: ``(shape, options)`` of the reference (a plain batch engine
    #: unless a per-arrival mode is what the subjects are held to).
    reference: tuple = ("engine", {})
    ttl: float | None = TTL
    faults: bool = False
    reshapes: tuple = ()
    examples: int = 20
    steps: int = 25

    @property
    def served(self) -> bool:
        return any(shape == "served" for shape, _ in self.subjects)

    @property
    def durable(self) -> bool:
        return any(shape == "served" or shape.startswith("durable")
                   for shape, _ in self.subjects)

    def rules(self) -> set:
        """The rules this group's machine runs (its preconditions, the
        tour's steps and what a run must reach)."""
        rules = {"submit", "submit_many", "mutate", "advance",
                 "run_batch"}
        if not self.served:
            rules.add("invalidate_cache")
        if self.durable:
            rules |= {"crash", "journal_full"}
            if not self.served:
                rules.add("snapshot")
        if self.faults:
            rules.add("fault")
        if any("fleet" in shape and not shape.endswith("-process")
               and options.get("num_shards", 2) > 1
               for shape, options in self.subjects):
            rules.add("lose")
        return rules


IN_PROCESS_RESHAPES = (("durable-engine", 0), ("durable-fleet", 1),
                       ("durable-fleet", 2), ("durable-fleet", 4))

GROUPS = {
    "in-process": Group(
        "in-process",
        subjects=(("engine", {"forget": True}),
                  ("fleet", {"num_shards": 1}),
                  ("fleet", {"num_shards": 2, "forget": True}),
                  ("fleet", {"num_shards": 4}),
                  ("durable-engine", {}),
                  ("durable-fleet", {"num_shards": 2})),
        faults=True, reshapes=IN_PROCESS_RESHAPES),
    "component": Group(
        "component", reference=("engine-component", {}),
        subjects=(("engine-component", {"forget": True}),)),
    "process": Group(
        "process",
        # One and two process shards are the named runs' subjects
        # (test_shard_equivalence, test_mutation_equivalence): six
        # workers at a time is enough for one machine.
        subjects=(("fleet-process", {"num_shards": 4}),
                  ("durable-fleet-process", {"num_shards": 2})),
        reshapes=(("durable-fleet-process", 2), ("durable-engine", 0)),
        examples=2, steps=12),
    "served": Group(
        "served", ttl=None, subjects=(("served", {}),),
        examples=2, steps=10),
}


def single(shape: str, reference: tuple = ("engine", {}),
           **options) -> Group:
    """A one-subject group with the rules that apply to *shape* — what
    a named entry point runs (*reference* as in :class:`Group`): its
    tour, then seeded histories.  A process shape walks its tour only:
    every example spawns its workers, so its random histories are the
    process group's."""
    shards = options.get("num_shards", 0)
    process = shape.endswith("-process")
    reshapes = ()
    if shape.startswith("durable"):
        reshapes = ((shape, shards),) if process else IN_PROCESS_RESHAPES
    return Group(f"{shape}{shards or ''}", subjects=((shape, options),),
                 reference=reference,
                 ttl=None if shape == "served" else TTL,
                 faults="fleet" in shape and not process
                 and options.get("mode", "batch") == "batch",
                 reshapes=reshapes, examples=0 if process else 5,
                 steps=12)


# ----------------------------------------------------------------------
# the machine
# ----------------------------------------------------------------------


def _in_group(name: str):
    """Enable the rule *name* only where its group has it."""
    return precondition(lambda self: name in self.group.rules())


def _error_kind(subject, error: BaseException) -> str:
    """How a refusal compares: by type in process, by "refused" for a
    served child (whose typed reply is ``INVALID``)."""
    if subject.served:
        assert isinstance(error, ServerCommandError), error
        assert error.code == "INVALID", error
        return "refused"
    return type(error).__name__


class ServiceModel(RuleBasedStateMachine):
    """The model-based differential machine (see the module docstring).

    Build it with :func:`machine_for` so it knows its :class:`Group`.
    """

    group: Group = GROUPS["in-process"]
    #: Home shard per pool id, for every fleet's ScriptedRouter: the
    #: ids scatter, so bridging arrivals force migrations.
    homes: dict = dict(zip(ID_POOL, itertools.cycle(range(4))))

    #: What the run reached: rules, and the subjects' counters (see
    #: :func:`run_model`); :func:`machine_for` gives each run its own.
    tally: collections.Counter = collections.Counter()

    def __init__(self):
        super().__init__()
        self.workdir = Path(tempfile.mkdtemp(prefix="model-"))
        self.clock = ManualClock()
        self.counter = itertools.count()
        self.queries: dict = {}       # id -> the pending incarnation
        self.burned: set = set()
        self.reference = InProcess("reference", self._build(
            *self.group.reference))
        self.subjects = [self._subject(shape, options)
                         for shape, options in self.group.subjects]

    # -- construction -------------------------------------------------

    def _options(self, shape: str, options: dict) -> dict:
        options = {key: value for key, value in options.items()
                   if key != "forget"}
        options["clock"] = self.clock
        if self.group.ttl is not None:
            options["staleness"] = TimeoutStaleness(self.group.ttl)
        if "fleet" in shape:
            shards = options.setdefault("num_shards", 2)
            options["router"] = ScriptedRouter(shards, {
                query_id: home % shards
                for query_id, home in self.homes.items()})
        return options

    def _wal_dir(self) -> Path:
        return self.workdir / f"wal-{next(self.counter)}"

    def _build(self, shape: str, options: dict):
        return build(shape, base_database(), self._wal_dir(),
                     **self._options(shape, options))

    def _subject(self, shape: str, options: dict):
        name = f"{shape}{options.get('num_shards', '')}" + (
            "-forget" if options.get("forget") else "")
        if shape == "served":
            workdir = self._wal_dir()
            workdir.mkdir()
            return Served(name, workdir, base_database())
        return InProcess(name, self._build(shape, options),
                         forget=options.get("forget", False))

    def _recover(self, wal_dir, reshape: int):
        """Recover *wal_dir* under the group's *reshape*-th shape."""
        reshapes = self.group.reshapes
        shape, shards = reshapes[reshape % len(reshapes)]
        cls = DurableCoordinator if "fleet" in shape else DurableEngine
        options = self._options(shape, {"num_shards": shards}
                                if shards else {})
        options.setdefault("mode", "batch")
        options["sync_every"] = None
        if "process" in shape:
            options["backend"] = "process"
        return cls.recover(wal_dir, **options)

    def _retire(self, subject) -> None:
        """Count what *subject*'s service did, before it closes."""
        self.tally.update(subject.counters())
        if subject is self.reference:
            self.tally["answered"] += subject.service.metrics_snapshot()[
                "counters"]["answered"]

    def teardown(self):
        try:
            for subject in [self.reference, *self.subjects]:
                try:
                    self._retire(subject)
                finally:
                    subject.close()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    # -- running one command everywhere --------------------------------

    def _attempt(self, subject, call):
        try:
            return ("ok", call(subject))
        except (ReproError, ServerCommandError) as error:
            return ("err", _error_kind(subject, error))

    def _each(self, call, *, faulty: bool = False):
        """Run *call* on the reference and on every subject; each must
        match the reference's result or error kind.  Returns the
        reference's ``(status, value)``."""
        expected = self._attempt(self.reference, call)
        for subject in list(self.subjects):
            try:
                got = self._attempt(subject, call)
            except ShardMigrationError:
                # A fault that leaves no shard to restore onto is named
                # loudly; that fleet has diverged and leaves the group.
                assert faulty
                self.subjects.remove(subject)
                self._retire(subject)
                subject.close()
                continue
            except InjectedFault:
                assert faulty
                for fleet in subject.fleets():
                    audit_exactly_once(fleet)
                    _disarm(fleet)
                got = self._attempt(subject, call)
            if subject.served and expected[0] == "err":
                expected_kind = ("err", "refused")
            else:
                expected_kind = expected
            assert got == expected_kind, (subject.name, got, expected)
        return expected

    def _fresh(self, specs) -> list:
        taken: set = set()
        resolved = []
        for spec in specs:
            if spec.fresh and (spec.query_id in self.burned
                               or spec.query_id in taken):
                free = [query_id for query_id in ID_POOL
                        if query_id not in self.burned | taken]
                if free:
                    spec = spec._replace(query_id=free[0])
            taken.add(spec.query_id)
            resolved.append(spec)
        return resolved

    def _submit(self, specs, *, faulty: bool = False):
        specs = self._fresh(specs)
        queries = [spec.build() for spec in specs]
        ids = [query.query_id for query in queries]
        bad_ids = len(set(ids)) < len(ids) or not self.burned.isdisjoint(
            ids)
        bad_schema = any(spec.kind in UNREADABLE for spec in specs)
        status, value = self._each(
            lambda subject: subject.submit_many(queries), faulty=faulty)
        # The model's own verdict, whatever every shape agreed on.
        if bad_ids or bad_schema:
            assert status == "err", (specs, value)
            if not bad_schema:
                assert value == "ValidationError", value
            elif not bad_ids:
                assert value == "SchemaError", value
            return
        assert (status, value) == ("ok", ids)
        self.queries.update(zip(ids, queries))
        self.burned.update(ids)
        for subject in [self.reference, *self.subjects]:
            assert subject.live.isdisjoint(ids), subject.name
            subject.live.update(ids)

    # -- rules ---------------------------------------------------------

    @rule(block=blocks)
    def submit(self, block):
        """The block query by query (each a block of one)."""
        for spec in block:
            self._submit([spec])
        self._check("submit")

    @rule(block=blocks)
    def submit_many(self, block):
        self._submit(block)
        self._check("submit_many")

    @rule(ops=st.lists(operations, min_size=1, max_size=2),
          direct=st.booleans())
    def mutate(self, ops, direct):
        status, _ = self._each(
            lambda subject: subject.apply_mutations(ops, direct))
        assert status == "ok"
        self._check("mutate")

    @rule(seconds=st.sampled_from([1.0, 2.0]), then_round=st.booleans())
    def advance(self, seconds, then_round):
        """The clock moves on and stale queries expire; the service
        loop's round may follow."""
        self.clock.advance(seconds)
        status, _ = self._each(lambda subject: subject.expire_stale())
        assert status == "ok"
        self._check("advance")
        if then_round:
            self.run_batch()

    @rule()
    def run_batch(self):
        expected = self._ground_oracle()
        status, _ = self._each(lambda subject: subject.run_batch())
        assert status == "ok"
        answered = {query_id for query_id, (kind, *_)
                    in self.reference.settled if kind == "answered"}
        for component, ids in expected:
            assert answered & component == ids, (component, ids)
        self._check("run_batch")

    @_in_group("invalidate_cache")
    @rule()
    def invalidate_cache(self):
        self._each(lambda subject: subject.invalidate_cache())
        self._check("invalidate_cache")

    @_in_group("snapshot")
    @rule()
    def snapshot(self):
        for subject in self.subjects:
            if subject.durable:
                subject.snapshot()
        self._check("snapshot")

    @_in_group("crash")
    @rule(reshape=st.integers(0, 3))
    def crash(self, reshape):
        """A kill -9: every append reached the OS before it returned,
        so a copy of the live directory is what the kill leaves; it is
        recovered under a drawn durable shape, which replaces the live
        service."""
        for subject in self.subjects:
            if subject.served:
                subject.kill()
            elif subject.durable:
                copy = self._wal_dir()
                shutil.copytree(subject.service.wal_dir, copy)
                self._retire(subject)
                subject.close()
                subject.forget_settled()
                subject.replace_service(self._recover(copy, reshape))
        self._check("crash")

    @_in_group("fault")
    @rule(faults=st.dictionaries(st.sampled_from(FAULT_KINDS),
                                 st.integers(1, 2), min_size=1),
          block=blocks)
    def fault(self, faults, block):
        """The next shard calls of each drawn kind — as many as drawn,
        on whichever shards they go to — fail while *block* arrives
        query by query (a chain's bridge after the pairs it joins, so
        migrations run); a subject that raised is audited and given the
        query again."""
        for subject in self.subjects:
            for fleet in subject.fleets():
                _arm(fleet, dict(faults))
        try:
            for spec in block:
                self._submit([spec], faulty=True)
        finally:
            for subject in self.subjects:
                for fleet in subject.fleets():
                    _disarm(fleet)
                    audit_exactly_once(fleet)
        self._check("fault")

    @_in_group("lose")
    @rule(victim=st.integers(0, 3), then=st.sampled_from(LOSS_POINTS),
          ops=st.lists(operations, min_size=1, max_size=2),
          block=blocks)
    def lose(self, victim, then, ops, block=()):
        """A shard of every in-process fleet with more than one live
        shard is lost: from now on each of its calls fails with
        ShardLostError, as a dead worker's would.  *then* is the
        command that meets the loss first; it completes and matches
        the reference, and the fleet names the shard dead.  For
        ``submit``, *block* but its last query (a chain's pairs)
        arrives first, the shard holding the newest pending query is
        the one lost, and the last query (the chain's bridge) arrives:
        where its partners span shards, routing meets the loss."""
        provider = None
        if then == "submit" and block:
            self._submit(block[:-1])
            provider = next(reversed(self.queries), None)
        met = [_lose_shard(fleet, victim, provider)
               for subject in self.subjects
               for fleet in subject.fleets()]
        if then == "submit" and block:
            self._submit(block[-1:])
        elif then == "mutate":
            self._each(lambda subject: subject.apply_mutations(ops, False))
        elif then != "observe":
            self._each(lambda subject: getattr(subject, then)())
        self.tally["lost_in_routing"] += sum(
            1 for ops_met in met if ops_met and ops_met[0] in FAULT_KINDS)
        self._check("lose")
        for subject in self.subjects:
            for fleet in subject.fleets():
                assert not [shard for shard in fleet._live_shards()
                            if _is_lost(fleet._backends[shard])], \
                    subject.name
                audit_exactly_once(fleet)

    @_in_group("journal_full")
    @rule(command=st.sampled_from(["run_batch", "expire", "mutate",
                                   "insert"]),
          ops=st.lists(operations, min_size=1, max_size=2),
          reshape=st.integers(0, 3))
    def journal_full(self, command, ops, reshape):
        """The next journal append fails (a full disk).  The durable
        subjects fail-stop: the command raises RecoveryError naming the
        directory, so does every later one, and close() publishes
        nothing; none of the command's settlements is seen, and the
        directory recovers to the state before it — the command never
        happened, and the reference never runs it."""
        if self.group.served:
            command = "run_batch"
        for subject in self.subjects:
            if not subject.durable:
                continue
            if subject.served:
                _served_journal_full(subject)
                continue
            self._retire(subject)
            _in_process_journal_full(subject, command, ops)
            subject.forget_settled()
            subject.replace_service(self._recover(
                subject.service.wal_dir, reshape))
        self._check("journal_full")

    # -- invariants ----------------------------------------------------

    def _ground_oracle(self) -> list:
        """``(component ids, ids the paper answers)`` for each
        component the oracle speaks for in the round about to start."""
        if self.group.reference != ("engine", {}):
            return []
        database = self.reference.service.database
        verdicts = []
        for component in _components([
                self.queries[query_id]
                for query_id in self.reference.service.pending_ids()]):
            if len(component) > 8 or not is_safe(component) or any(
                    atoms_unifiable(post, head) for query in component
                    for post in query.postconditions
                    for head in query.head):
                # The engine never lets a query provide for itself;
                # the brute-force search would.
                continue
            ids = {query.query_id for query in component}
            if any(query.aggregates for query in component):
                verdicts.append((ids, set(coordinate(
                    component, database, check_safety=False).answers)))
            elif is_ucs(component) and _closed(component):
                verdicts.append((ids, set(find_coordinating_set(
                    component, database, require_all=True
                ).answered_ids)))
        return verdicts

    def _check(self, reached: str):
        expected = sorted(self.reference.settled, key=repr)
        view = self.reference.observe()
        for subject in self.subjects:
            if getattr(subject, "forget", False):
                # The twin re-derives everything: nothing carried.
                counters = subject.service.metrics_snapshot()["counters"]
                assert counters["match_resumed"] == 0, subject.name
                assert counters["closures_skipped_empty"] == 0, \
                    subject.name
            got = subject.observe()
            assert sorted(subject.settled, key=repr) == expected, (
                subject.name, subject.settled, expected)
            for key, value in got.items():
                assert value == view[key], (subject.name, key, value,
                                            view[key])
        self._check_answers()
        for subject in [self.reference, *self.subjects]:
            for query_id, _ in subject.settled:
                # Settled at most once per incarnation.
                assert query_id in subject.live, (subject.name, query_id)
                subject.live.discard(query_id)
            if subject.served:
                subject.settled.clear()
            else:
                subject.check_stream()
        self.tally[reached] += 1

    def _check_answers(self):
        """Invariant (b) on the reference (every subject matched it)."""
        database = self.reference.service.database
        answers = {query_id: sorted(
            ((relation, tuple(row)) for relation, rows
             in self.reference.rows.pop(query_id).items()
             for row in rows), key=repr)
            for query_id, (kind, *_) in self.reference.settled
            if kind == "answered"}
        settled_rows: dict = {}
        for rows in answers.values():
            for relation, row in rows:
                settled_rows.setdefault(relation, []).append(row)
        provided = {exact(item) for rows in answers.values()
                    for item in rows}
        for query_id, (kind, *rest) in self.reference.settled:
            query = self.queries.pop(query_id)
            if kind != "answered":
                assert rest == ["stale"], rest
                self.burned.discard(query_id)
                continue
            answered = answers[query_id]
            assert any(
                exact(sorted(map(_ground, grounding.head), key=repr))
                == exact(answered)
                and all(exact(_ground(post)) in provided
                        for post in grounding.postconditions)
                for grounding in materialize_groundings(query, database)
            ), (query_id, answered)
            for constraint in query.aggregates:
                binding = {term: value for head in query.head
                           for relation, row in answered
                           if relation == head.relation
                           for term, value in zip(head.args, row)
                           if isinstance(term, Variable)}
                assert constraint.evaluate(database, settled_rows,
                                           binding), (query_id, binding)


def _ground(item) -> tuple:
    """A ground atom as ``(relation, values)``."""
    return (item.relation, tuple(term.value for term in item.args))


def _closed(component) -> bool:
    """Every postcondition unifies with some head of *component*."""
    renamed = [query.rename_apart() for query in component]
    heads = [head for query in renamed for head in query.head]
    return all(any(atoms_unifiable(post, head) for head in heads)
               for query in renamed for post in query.postconditions)


def _components(queries) -> list:
    """The coordination components of *queries*: linked when a
    postcondition of one unifies with a head of another."""
    renamed = [query.rename_apart() for query in queries]
    root = list(range(len(queries)))

    def find(index):
        while root[index] != index:
            index = root[index]
        return index

    for left, right in itertools.permutations(range(len(queries)), 2):
        if any(atoms_unifiable(post, head)
               for post in renamed[left].postconditions
               for head in renamed[right].head):
            root[find(left)] = find(right)
    groups: dict = {}
    for index, query in enumerate(queries):
        groups.setdefault(find(index), []).append(query)
    return list(groups.values())


def _arm(fleet, faults: dict) -> None:
    """The next ``faults[kind]`` calls of ``call_<kind>`` on *fleet*,
    whichever shard they go to, fail with InjectedFault."""
    for backend in fleet._backends:
        for kind in faults:
            method = f"call_{kind}"

            def call(*args, _kind=kind, _real=getattr(backend, method),
                     **kwargs):
                if not faults[_kind]:
                    return _real(*args, **kwargs)
                faults[_kind] -= 1
                return ShardCall.failed(InjectedFault(
                    f"injected {_kind} fault"))

            setattr(backend, method, call)


def _disarm(fleet) -> None:
    for backend in fleet._backends:
        for kind in FAULT_KINDS:
            backend.__dict__.pop(f"call_{kind}", None)


def _is_lost(backend) -> bool:
    return "_dispatch" in vars(backend)


def _lose_shard(fleet, victim: int, holding=None) -> list | None:
    """From now on every call to one shard of an in-process *fleet*
    fails with ShardLostError: the one holding the query *holding*
    when given, else the *victim*-th of its shards not yet lost,
    busiest first, so a loss usually strands pending queries; a fleet
    keeps at least one shard.  Returns the list the lost shard's calls
    append their ops to (``None`` when no shard was lost)."""
    standing = [shard for shard in fleet._live_shards()
                if isinstance(fleet._backends[shard], InProcessBackend)
                and not _is_lost(fleet._backends[shard])]
    if len(standing) < 2:
        return None
    owned = collections.Counter(fleet._shard_of.values())
    standing.sort(key=lambda shard: -owned[shard])
    shard = fleet._shard_of.get(holding)
    if shard not in standing:
        shard = standing[victim % len(standing)]
    backend = fleet._backends[shard]
    met: list = []

    def lost(op, **args):
        met.append(op)
        return ShardCall.failed(ShardLostError(
            f"shard {backend.shard_index} lost before {op!r}"))

    backend._dispatch = lost
    return met


def _in_process_journal_full(subject, command: str, ops) -> None:
    service = subject.service
    wal_dir = service.wal_dir
    store = SnapshotStore(wal_dir)

    def full(_framed):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    service._log._write_framed = full
    streamed = len(subject.stream)
    calls = {"run_batch": service.run_batch,
             "expire": service.expire_stale,
             "mutate": lambda: service.apply_mutations(ops),
             "insert": lambda: service.database.insert(
                 "G", [("U0",)])}
    for call in (calls[command], service.run_batch, service.snapshot):
        with pytest.raises(RecoveryError, match=str(wal_dir)):
            call()
    # The journal holds none of the failed commands' settlements, so
    # the stream delivered none.
    assert len(subject.stream) == streamed
    generations = store.generations()
    segment = store.log_path(generations[-1]).read_bytes()
    service.close()
    assert store.generations() == generations
    assert store.log_path(generations[-1]).read_bytes() == segment


def _served_journal_full(subject) -> None:
    before = subject.events()
    subject.fill_journal()
    for _ in range(2):
        with pytest.raises(ServerCommandError) as refused:
            subject.run_batch()
        assert refused.value.code == "INTERNAL"
        assert str(subject.wal_dir) in str(refused.value)
    # Nothing the failed round settled reached the client.
    assert subject.events() == before
    subject.kill()


def machine_for(group: Group):
    """A :class:`ServiceModel` subclass bound to *group*, with a tally
    of its own."""
    return type(f"ServiceModel_{group.name}", (ServiceModel,),
                {"group": group, "tally": collections.Counter()})


#: Every rule once, in an order that makes each one bite: a block
#: refused whole for one query at the wrong arity, pairs that answer,
#: typed values written directly, a gated pair that fails, a
#: chain whose bridge joins two pending halves on different shards (a
#: migration, while detach calls fail), a write that lets the chain
#: answer and resumes the gated pair's attempt, the shard holding a
#: provider (``q9``: shard 1 of 2, 3 or 4) lost right before a bridge
#: joins it to the gated pair (shard 0) — the bridge's membership
#: lookup meets the loss — then the busiest shard left lost before the
#: round that answers the chain, a crash into another shape, expiry
#: (the gated pair and the bridged provider free their ids), a §6
#: party, a full journal, and a query over a missing table.
TOUR = [
    ("submit_many", {"block": [Spec("q0", "pair", 0, "D"),
                               Spec("q1", "arity", 1, "D")]}),
    ("submit", {"block": [Spec("q0", "pair", 0, "D"),
                          Spec("q1", "pair", 1, "D")]}),
    ("submit_many", {"block": [Spec("q2", "valued", 0, "E"),
                               Spec("q3", "valued", 1, "E"),
                               Spec("q4", "gated", 2, "D"),
                               Spec("q5", "gated", 3, "D")]}),
    ("mutate", {"ops": [("insert", "V", [
        ("E", -7, float("-inf"), False, "it's", "a\nb")])],
                "direct": True}),
    ("run_batch", {}),
    ("fault", {"faults": {"detach": 1}, "block": [
        Spec("q6", "pair", 1, "E"), Spec("q7", "pair", 2, "E"),
        Spec("q8", "pair", 3, "E"), Spec("q10", "bridge", 0, "E")]}),
    ("mutate", {"ops": [("insert", "F", [("U3", "U2"), ("U0", "U2")])],
                "direct": False}),
    ("lose", {"victim": 0, "then": "submit", "ops": [], "block": [
        Spec("q9", "pair", 1, "D"), Spec("q11", "bridge", 0, "D")]}),
    ("lose", {"victim": 0, "then": "run_batch", "ops": []}),
    ("run_batch", {}),
    ("crash", {"reshape": 2}),
    ("invalidate_cache", {}),
    ("advance", {"seconds": 2.0, "then_round": True}),
    ("snapshot", {}),
    ("advance", {"seconds": 1.0, "then_round": False}),
    ("submit_many", {"block": [Spec("q9", "host", 0, "D", 1),
                               Spec("q11", "guest", 1, "D"),
                               Spec("q4", "guest", 2, "D", fresh=True)]}),
    ("run_batch", {}),
    ("journal_full", {"command": "run_batch", "ops": [], "reshape": 0}),
    ("submit", {"block": [Spec("q5", "missing", 0, "D"),
                          Spec("q6", "misordered", 1, "D")]}),
    ("run_batch", {}),
]


def tour(group: Group) -> list:
    """:data:`TOUR` as far as *group*'s rules go; without the fault rule
    the chain arrives by plain ``submit`` (its bridge still migrates)."""
    steps = []
    for name, arguments in TOUR:
        if name == "fault" and name not in group.rules():
            name, arguments = "submit", {"block": arguments["block"]}
        if name in group.rules():
            steps.append((name, arguments))
    return steps


def replay(group: Group, history, machine=None) -> None:
    """Run an explicit *history* — ``(rule name, keyword arguments)``
    pairs — through *group*'s machine (or *machine*, a class from
    :func:`machine_for`), every invariant checked."""
    instance = (machine or machine_for(group))()
    try:
        for name, arguments in history:
            getattr(instance, name)(**arguments)
    finally:
        instance.teardown()


def require_reached(group: Group, tally) -> None:
    """What a run of *group* must have done for its comparisons to mean
    anything."""
    missing = group.rules() - set(tally)
    assert not missing, f"{group.name}: no {sorted(missing)} in {tally}"
    assert tally["answered"] > 0, tally
    if any(options.get("forget") for _, options in group.subjects):
        # The compared paths really differed.
        assert tally["live.match_resumed"] > 0, tally
    if group.reference[0] == "engine-component":
        # One carrying engine against its forgetting twin: it answered
        # closures from carried verdicts, and built less.
        assert tally["live.closures_skipped_empty"] > 0, tally
        assert (tally["live.combined_queries_built"]
                < tally["forget.combined_queries_built"]), tally
    if any(options.get("num_shards", 2) > 1
           for shape, options in group.subjects if "fleet" in shape):
        assert tally["migrations"] > 0, tally
    if "lose" in group.rules():
        # Some loss was first met by routing: a membership lookup, a
        # detach or an import.
        assert tally["lost"] > 0, tally
        assert tally["lost_in_routing"] > 0, tally


def run_model(group: Group, *, seed: int | None = None,
              examples: int | None = None, steps: int | None = None):
    """Run *group*'s machine: its :func:`tour`, then hypothesis's
    *examples* histories (none if the group has none) — a fixed *seed*
    makes them reproducible; the first is always hypothesis's simplest,
    so there are at least two — and :func:`require_reached` over the
    whole run."""
    examples = group.examples if examples is None else examples
    assert examples != 1, "the first example is hypothesis's simplest"
    machine = machine_for(group)
    replay(group, tour(group), machine)
    if examples:
        factory = machine
        if seed is not None:
            from hypothesis import seed as fixed_seed
            factory = fixed_seed(seed)(lambda: machine())
        run_state_machine_as_test(factory, settings=settings(
            max_examples=examples,
            stateful_step_count=steps or group.steps, deadline=None,
            database=None, suppress_health_check=list(HealthCheck)))
    require_reached(group, machine.tally)
