"""The five workload shapes of the coordination ledger.

Each class generates its inputs from the seed (the program only ever
sees generated queries), boots one service per epoch, drives it in a
closed loop through the service's public calls, and reads outcomes and
published counters back from surfaces the program already exposes.

Sizes are committed constants, calibrated once on the 2-core reference
host so that one epoch takes about two seconds; ``--scale`` multiplies
them (the smoke test runs at 0.02).  They are never derived at run
time.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from repro.dataio import dump_database, load_database
from repro.durability import DurableEngine
from repro.engine import (D3CEngine, ManualClock, TicketState,
                          TimeoutStaleness)
from repro.server import ServerClient, ServerError
from repro.shard import ShardedCoordinator
from repro.workloads import (big_cluster_queries, build_flight_database,
                             churn_rounds, dynamic_db_rounds,
                             generate_social_network,
                             install_dynamic_tables, multi_tenant_rounds,
                             two_way_pairs)

import layers
from harness import REPO_ROOT, Recorder

#: Users in the social network behind every workload at scale 1.  The
#: dataset is fixed (network seed 0); ``--seed`` draws the arrivals.
USERS = 4_000
#: Index positions warmed on every table before anything is measured
#: (the same set ``repro.bench`` warms), here and inside shard workers.
WARM_POSITIONS = ((0,), (0, 1), (1,))
#: Seconds a served round may wait for its settlement events.
EVENT_TIMEOUT = 30.0
#: Seconds a child gets to boot, and to drain after SIGTERM.
CHILD_TIMEOUT = 60.0


def sized(base: int, scale: float, minimum: int, multiple: int = 1) -> int:
    value = max(int(base * scale), minimum)
    return value - value % multiple


class Dataset:
    """The social network and its flight database with warm indexes."""

    def __init__(self, scale: float):
        start = time.perf_counter()
        self.network = generate_social_network(
            num_users=sized(USERS, scale, 200), seed=0)
        self.network_seconds = time.perf_counter() - start
        start = time.perf_counter()
        self.database = build_flight_database(self.network)
        warm_indexes(self.database)
        self.database_seconds = time.perf_counter() - start
        self._text = None

    def text(self) -> str:
        """The ``repro.dataio`` dump (what a child process loads)."""
        if self._text is None:
            self._text = dump_database(self.database)
        return self._text


def warm_indexes(database) -> None:
    for name in database.table_names():
        table = database.table(name)
        for positions in WARM_POSITIONS:
            if max(positions) < table.schema.arity:
                table.index_on(positions)


# ----------------------------------------------------------------------
# outcomes
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    """What one epoch did to its queries."""

    submitted: int
    answered: list
    failures: dict
    pending: int
    db_version: int = 0
    #: free-form disagreements found while collecting (delivery gaps,
    #: service counters that contradict the tickets, ...)
    problems: list = field(default_factory=list)

    def digest(self) -> str:
        text = json.dumps([self.submitted, self.answered,
                           sorted(self.failures.items()), self.pending,
                           self.db_version])
        return hashlib.sha256(text.encode()).hexdigest()

    def check(self) -> list:
        """Structural check valid on any seed."""
        problems = list(self.problems)
        settled = len(self.answered) + sum(self.failures.values())
        if settled + self.pending != self.submitted:
            problems.append(
                f"answered {len(self.answered)} + failed "
                f"{sum(self.failures.values())} + pending "
                f"{self.pending} != submitted {self.submitted}")
        return problems


def outcome_of_tickets(tickets, service, db_version: int = 0) -> Outcome:
    answered = sorted(ticket.query_id for ticket in tickets
                      if ticket.state is TicketState.ANSWERED)
    failures = Counter(ticket.failure_reason.value for ticket in tickets
                       if ticket.state is TicketState.FAILED)
    pending = sum(ticket.state is TicketState.PENDING
                  for ticket in tickets)
    outcome = Outcome(len(tickets), answered, dict(failures), pending,
                      db_version)
    if service.pending_count != pending:
        outcome.problems.append(
            f"service reports {service.pending_count} pending, its "
            f"tickets say {pending}")
    return outcome


def query_text(query) -> str:
    """Canonical text of one query, from its public fields."""
    return " | ".join((
        str(query.query_id),
        ", ".join(map(str, query.head)),
        ", ".join(map(str, query.postconditions)),
        ", ".join(map(str, query.body))))


# ----------------------------------------------------------------------
# published counters (surfaces the program already exposes)
# ----------------------------------------------------------------------

def ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def histogram_quantile(histogram: dict, q: float) -> float:
    """Upper bound of the power-of-two bucket holding the quantile."""
    seen = 0
    for bucket in sorted(histogram.get("buckets", {}), key=int):
        seen += histogram["buckets"][bucket]
        if seen >= q * histogram["count"]:
            return float(1 << int(bucket))
    return 0.0


def published_metrics(snapshot: dict, cache_before: dict,
                      queries: int) -> dict:
    """Per-layer metrics read from one ``metrics_snapshot()``."""
    counters, gauges = snapshot["counters"], snapshot["gauges"]

    def cache(key):
        return counters.get(f"db.{key}", 0) - cache_before.get(key, 0)

    values = {
        "engine.graph_s": gauges.get("graph_seconds", 0.0),
        "engine.match_s": gauges.get("match_seconds", 0.0),
        "engine.db_s": gauges.get("db_seconds", 0.0),
        "engine.rounds_per_arrival":
            counters.get("coordination_rounds", 0) / queries,
        "engine.combined_per_answer":
            counters.get("combined_queries_built", 0)
            / max(counters.get("answered", 0), 1),
        "engine.feasibility_hit_ratio":
            ratio(counters.get("feasibility.hits", 0),
                  counters.get("feasibility.misses", 0)),
        "engine.pending_end": gauges.get("pending", 0.0),
        "db.plan_cache_hit_ratio":
            ratio(cache("plan_cache_hits"), cache("plan_cache_misses")),
        "db.compile_hit_ratio":
            ratio(cache("compile_hits"), cache("compile_misses")),
        "wal.records": counters.get("durability.wal_records", 0),
        "wal.fsyncs": counters.get("durability.wal_sync_batches", 0),
        "wal.bytes_per_query":
            counters.get("durability.wal_bytes", 0) / queries,
        "snapshots.count": counters.get("durability.snapshots_taken", 0),
    }
    if "server.queue_wait_ns" in snapshot["histograms"]:
        values["server.queue_wait_p95_us"] = histogram_quantile(
            snapshot["histograms"]["server.queue_wait_ns"], 0.95) / 1e3
        values["server.refused"] = sum(
            count for name, count in counters.items()
            if name.startswith(("server.shed.", "server.rejected."))
            or name == "server.timeouts")
        values["server.events_dropped"] = counters.get(
            "server.events.dropped", 0)
    return values


# ----------------------------------------------------------------------
# the workload base
# ----------------------------------------------------------------------

class Workload:
    """One workload shape; see the subclasses and README.md."""

    name = ""
    #: what one op is (its latency is ``op_p50_ms`` / ``op_p95_ms``)
    op = ""

    def __init__(self, dataset: Dataset, seed: int, scale: float,
                 workdir: Path):
        self.dataset = dataset
        self.workdir = workdir
        self.generate(seed, scale)

    # -- inputs --------------------------------------------------------

    def generate(self, seed: int, scale: float) -> None:
        raise NotImplementedError

    def all_queries(self) -> list:
        raise NotImplementedError

    def sample_block(self) -> list:
        """One block of arrivals for the ``core`` stage replay."""
        raise NotImplementedError

    @property
    def database(self):
        """The database this workload's bodies read."""
        return self.dataset.database

    def input_digest(self) -> str:
        digest = hashlib.sha256()
        for line in self.input_lines():
            digest.update(line.encode())
            digest.update(b"\n")
        return digest.hexdigest()

    def input_lines(self):
        return map(query_text, self.all_queries())

    @property
    def queries_per_epoch(self) -> int:
        return len(self.all_queries())

    # -- one epoch -----------------------------------------------------

    def boot(self, index: int):
        """Build a fresh service (unmeasured); returns the session."""
        raise NotImplementedError

    def drive(self, session, rec) -> None:
        """The measured pass: ``rec.begin()`` ... ``rec.end()``."""
        raise NotImplementedError

    def outcome(self, session) -> Outcome:
        return outcome_of_tickets(session.tickets, session.service)

    def published(self, session) -> dict:
        """Per-layer metrics the service publishes (read after the
        pass, before shutdown)."""
        return {}

    def shutdown(self, session, traced: bool) -> dict:
        """Tear the session down; returns teardown metrics (on a
        traced epoch also the probes that need the closing service)."""
        return {}

    # -- the paired in-process leg -------------------------------------

    def reference(self):
        """``(outcome, seconds, extras)`` of the same inputs through
        the plain in-process service this shape wraps, or None."""
        return None

    # -- outside probes (traced runs, after the pass) ------------------

    def probes(self, values: dict, epoch_seconds: float) -> dict:
        """Single layers timed through their public functions on this
        workload's inputs.  *values* holds the metrics gathered so
        far, *epoch_seconds* the median untraced epoch (the numerator
        of the overhead ratios against the paired leg)."""
        return {**layers.core_stages(self), **layers.database_first(self)}


def in_process_published(session, queries: int) -> dict:
    service = session.service
    start = time.perf_counter()
    snapshot = service.metrics_snapshot()
    elapsed = time.perf_counter() - start
    values = published_metrics(snapshot, session.cache_before, queries)
    values["obs.metrics_snapshot_ms"] = elapsed * 1e3
    sizes = service.partition_sizes()
    values["engine.component_max"] = max(sizes, default=0)
    return values


# ----------------------------------------------------------------------
# pairs_incremental / cluster_incremental
# ----------------------------------------------------------------------

class _Incremental(Workload):
    """One ``D3CEngine(mode="incremental")``, one ``submit()`` per
    arrival; the op is that call."""

    op = "one submit() call"
    engine_kwargs: dict = {}

    def all_queries(self):
        return self.queries

    def boot(self, index):
        return SimpleNamespace(
            service=D3CEngine(self.database, mode="incremental",
                              **self.engine_kwargs),
            tickets=[], cache_before=self.database.cache_stats())

    def drive(self, session, rec):
        submit = session.service.submit
        tickets = session.tickets
        rec.begin()
        for index, query in enumerate(self.queries):
            rec.op_begin(index)
            try:
                tickets.append(rec.call("engine.submit", submit, query))
            except Exception as error:  # a raising call is a failed op
                print(f"submit {query.query_id!r} raised {error!r}",
                      file=sys.stderr)
                rec.op_end(failed=True)
            else:
                rec.op_end()
        rec.end()

    def published(self, session):
        return in_process_published(session, len(self.queries))


class PairsIncremental(_Incremental):
    name = "pairs_incremental"
    ARRIVALS = 4_000

    def generate(self, seed, scale):
        self.queries = two_way_pairs(
            self.dataset.network, sized(self.ARRIVALS, scale, 40, 2),
            seed=seed)

    def sample_block(self):
        return self.queries[:500]


class ClusterIncremental(_Incremental):
    name = "cluster_incremental"
    ARRIVALS = 200
    engine_kwargs = {"incremental_strategy": "component"}

    def generate(self, seed, scale):
        self.queries = big_cluster_queries(
            self.dataset.network, sized(self.ARRIVALS, scale, 12),
            seed=seed)

    def sample_block(self):
        return self.queries

    def probes(self, values, epoch_seconds):
        found = super().probes(values, epoch_seconds)
        # Per-arrival re-matching against one matching of the final
        # cluster (the replayed block is the whole cluster).
        found["engine.rematch_x"] = (
            values["engine.match_s"] * 1e3
            / found["core.matching.match_ms_per_block"])
        return found


# ----------------------------------------------------------------------
# round-shaped workloads
# ----------------------------------------------------------------------

def drive_rounds(service, clock, rounds, rec, prefix: str,
                 mutate=None) -> list:
    """The closed round loop shared by the in-process round shapes:
    advance the clock, expire, (mutate,) ingest the block, coordinate.
    Returns the tickets in submission order."""
    tickets: list = []
    rec.begin(getattr(service, "child_pids", ()))
    for index, (mutations, block) in enumerate(rounds):
        rec.op_begin(index)
        try:
            clock.advance(1.0)
            rec.call(f"{prefix}.expire", service.expire_stale)
            if mutations:
                rec.call(f"{prefix}.mutate", mutate, mutations)
            tickets.extend(
                rec.call(f"{prefix}.submit", service.submit_many, block))
            rec.call(f"{prefix}.run_batch", service.run_batch)
        except Exception as error:  # a raising call is a failed op
            print(f"round {index} raised {error!r}", file=sys.stderr)
            rec.op_end(failed=True)
        else:
            rec.op_end()
    rec.end()
    return tickets


def plain_leg(database, rounds, config: dict, db_writes: bool = False):
    """The same rounds through one plain ``D3CEngine``: the paired leg
    the wrapped shapes are compared with.  Returns ``(outcome,
    seconds)``."""
    clock = ManualClock()
    engine = D3CEngine(database, clock=clock, **config)
    rec = Recorder(traced=False)
    version_before = database.db_version
    tickets = drive_rounds(engine, clock, rounds, rec, "engine",
                           mutate=apply_directly(database))
    return (outcome_of_tickets(
        tickets, engine,
        database.db_version - version_before if db_writes else 0),
        rec.wall_seconds)


def apply_directly(database):
    """Mutation applier for a plain engine (no journal)."""
    def apply(mutations):
        for kind, table, rows in mutations:
            if kind == "insert":
                database.insert(table, rows)
            else:
                database.delete_rows(table, rows)
    return apply


class DynamicDurableRounds(Workload):
    name = "dynamic_durable_rounds"
    op = "one round: expire, mutate, submit_many, run_batch"
    ROUNDS = 200
    PER_ROUND = 50
    TTL = 10.5
    DURABLE = dict(snapshot_every=None, sync_every=8,
                   snapshot_log_bytes=4 * 1024 * 1024)

    def generate(self, seed, scale):
        self.rounds = dynamic_db_rounds(
            self.dataset.network, sized(self.ROUNDS, scale, 4),
            self.PER_ROUND, seed=seed)
        # The rounds write to the database, so this workload owns a
        # private copy; the gate tables are emptied after every epoch.
        self.working = load_database(self.dataset.text())
        install_dynamic_tables(self.working)
        warm_indexes(self.working)
        self.gate_tables = sorted(
            {table for mutations, _ in self.rounds
             for _, table, _ in mutations})

    @property
    def database(self):
        return self.working

    def all_queries(self):
        return [query for _, block in self.rounds for query in block]

    def input_lines(self):
        for mutations, block in self.rounds:
            yield json.dumps(mutations)
            yield from map(query_text, block)

    def sample_block(self):
        return self.rounds[len(self.rounds) // 2][1]

    def engine_config(self) -> dict:
        return dict(mode="batch", staleness=TimeoutStaleness(self.TTL))

    def boot(self, index):
        clock = ManualClock()
        wal_dir = self.workdir / f"wal-{index}"
        return SimpleNamespace(
            service=DurableEngine(wal_dir, self.working, clock=clock,
                                  **self.DURABLE, **self.engine_config()),
            clock=clock, wal_dir=wal_dir, tickets=[],
            version_before=self.working.db_version,
            cache_before=self.working.cache_stats())

    def drive(self, session, rec):
        session.tickets = drive_rounds(
            session.service, session.clock, self.rounds, rec, "engine",
            mutate=session.service.apply_mutations)

    def outcome(self, session):
        return outcome_of_tickets(
            session.tickets, session.service,
            self.working.db_version - session.version_before)

    def published(self, session):
        return in_process_published(session, self.queries_per_epoch)

    def reset_database(self) -> None:
        for table in self.gate_tables:
            self.working.delete_where(table, lambda row: True)

    def shutdown(self, session, traced):
        service = session.service
        values: dict = {}
        try:
            if traced:
                values.update(layers.journal(
                    session.wal_dir, self.workdir / "scratch.log",
                    self.DURABLE["sync_every"]))
                start = time.perf_counter()
                service.snapshot()
                values["snapshots.write_ms"] = (
                    time.perf_counter() - start) * 1e3
                live = {"pending": sorted(service.pending_ids()),
                        "answered": sorted(service.answers),
                        "db_version": self.working.db_version}
            service.close()
            if traced:
                values.update(layers.recovery(
                    session.wal_dir, live, **self.DURABLE,
                    **self.engine_config()))
        finally:
            service.close()
            self.reset_database()
            shutil.rmtree(session.wal_dir, ignore_errors=True)
        return values

    def reference(self):
        outcome, seconds = plain_leg(self.working, self.rounds,
                                     self.engine_config(),
                                     db_writes=True)
        self.reset_database()
        return outcome, seconds, {}

    def probes(self, values, epoch_seconds):
        found = super().probes(values, epoch_seconds)
        found.update(layers.database_mutations(self))
        found["durability.journal_overhead_pct"] = 100.0 * (
            epoch_seconds / self.reference()[1] - 1.0)
        return found


class ShardedRounds(Workload):
    name = "sharded_rounds"
    op = "one round: expire, submit_many, run_batch"
    ROUNDS = 200
    PER_ROUND = 50
    SHARDS = 2
    TTL = 6.5

    def generate(self, seed, scale):
        blocks = multi_tenant_rounds(
            self.dataset.network, sized(self.ROUNDS, scale, 4),
            self.PER_ROUND, seed=seed)
        self.rounds = [((), block) for block in blocks]

    def all_queries(self):
        return [query for _, block in self.rounds for query in block]

    def sample_block(self):
        return self.rounds[len(self.rounds) // 2][1]

    def engine_config(self) -> dict:
        return dict(mode="batch", staleness=TimeoutStaleness(self.TTL))

    def boot(self, index):
        clock = ManualClock()
        database = self.database
        before = {process.pid
                  for process in multiprocessing.active_children()}
        service = ShardedCoordinator(
            database, num_shards=self.SHARDS, backend="process",
            warm_indexes=[(name, positions)
                          for name in database.table_names()
                          for positions in WARM_POSITIONS],
            clock=clock, **self.engine_config())
        service.child_pids = tuple(
            process.pid for process in multiprocessing.active_children()
            if process.pid not in before)
        return SimpleNamespace(service=service, clock=clock, tickets=[],
                               cache_before={})

    def drive(self, session, rec):
        session.tickets = drive_rounds(
            session.service, session.clock, self.rounds, rec, "shard")

    def published(self, session):
        service = session.service
        values = in_process_published(session, self.queries_per_epoch)
        values.update({
            "shard.wire_requests_per_round":
                service.wire_requests / len(self.rounds),
            "shard.migrations": service.migrations,
            "shard.migrated_queries": service.migrated_queries,
            "shard.dead_shards": len(service.dead_shards()),
        })
        return values

    def shutdown(self, session, traced):
        pids = session.service.child_pids
        start = time.perf_counter()
        session.service.close()
        elapsed = time.perf_counter() - start
        leftover = [pid for pid in pids if os.path.exists(f"/proc/{pid}")]
        if leftover:
            raise RuntimeError(f"shard workers outlived close(): "
                               f"{leftover}")
        return {"shard.close_s": elapsed}

    def reference(self):
        return (*plain_leg(self.database, self.rounds,
                           self.engine_config()), {})

    def probes(self, values, epoch_seconds):
        found = super().probes(values, epoch_seconds)
        found.update(layers.router(self))
        # Three processes on two cores: overhead, not scaling.
        found["shard.overhead_x"] = epoch_seconds / self.reference()[1]
        return found


# ----------------------------------------------------------------------
# served_durable_rounds
# ----------------------------------------------------------------------

class ServedDurableRounds(Workload):
    """A stock ``python -m repro serve`` child behind a unix socket,
    two client connections, real frames."""

    name = "served_durable_rounds"
    op = "one round: first submit frame sent to last settlement received"
    ROUNDS = 200
    PER_ROUND = 40
    FRAME_QUERIES = 32
    CLIENTS = 2

    def generate(self, seed, scale):
        self.rounds = churn_rounds(
            self.dataset.network, sized(self.ROUNDS, scale, 4),
            self.PER_ROUND, answerable_fraction=1.0, seed=seed)
        # Each connection submits half of every block, in frames.
        self.plan = []
        for block in self.rounds:
            half = len(block) // 2
            self.plan.append([
                [part[start:start + self.FRAME_QUERIES]
                 for start in range(0, len(part), self.FRAME_QUERIES)]
                for part in (block[:half], block[half:])])
        self.data_file = self.workdir / "data.repro"
        self.data_file.write_text(self.dataset.text())
        self.expected_events: set = set()

    def all_queries(self):
        return [query for block in self.rounds for query in block]

    def sample_block(self):
        return self.rounds[len(self.rounds) // 2]

    def frames(self):
        """Every submit frame's queries, in per-round client order."""
        return [chunk for halves in self.plan for chunks in halves
                for chunk in chunks]

    # -- the child -----------------------------------------------------

    def boot(self, index):
        wal = f"wal-{index}"
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src")]
            + ([environment["PYTHONPATH"]]
               if environment.get("PYTHONPATH") else []))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", self.data_file.name,
             "--unix", "s.sock", "--wal-dir", wal],
            cwd=self.workdir, env=environment, stdout=subprocess.PIPE,
            text=True)
        session = SimpleNamespace(
            process=process, wal_dir=self.workdir / wal,
            socket=os.path.relpath(self.workdir / "s.sock"),
            tickets=[], cache_before={}, rtt={})
        ready, _, _ = select.select([process.stdout], [], [],
                                    CHILD_TIMEOUT)
        banner = process.stdout.readline() if ready else ""
        if not banner.startswith("serving "):
            process.kill()
            process.wait()
            process.stdout.close()
            raise RuntimeError(f"repro serve did not come up: "
                               f"{banner!r}")
        return session

    def shutdown(self, session, traced):
        process = session.process
        values: dict = {}
        try:
            if traced and process.poll() is None:
                values.update(layers.journal(
                    session.wal_dir, self.workdir / "scratch.log",
                    sync_every=8))
            start = time.perf_counter()
            process.send_signal(signal.SIGTERM)
            code = process.wait(timeout=CHILD_TIMEOUT)
            values["server.drain_s"] = time.perf_counter() - start
            tail = process.stdout.read()
            if code != 0 or "drained:" not in tail:
                raise RuntimeError(f"repro serve drain exited {code}: "
                                   f"{tail!r}")
            if traced:
                live = {"pending": sorted(session.pending_ids),
                        "answered": sorted(
                            query_id for query_id, _
                            in session.resolved["answers"])}
                values.update(layers.recovery(
                    session.wal_dir, live, snapshot_every=64,
                    mode="batch"))
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
            shutil.rmtree(session.wal_dir, ignore_errors=True)
        return values

    # -- the pass ------------------------------------------------------

    def drive(self, session, rec):
        asyncio.run(self._drive(session, rec))

    async def _drive(self, session, rec):
        clients = [await ServerClient.connect_unix(
            session.socket, tenant=f"loadgen-{index}")
            for index in range(self.CLIENTS)]
        try:
            rec.begin((session.process.pid,))
            for index, halves in enumerate(self.plan):
                rec.op_begin(index)
                try:
                    await self._round(clients, halves, rec)
                except (ServerError, asyncio.TimeoutError) as error:
                    print(f"round {index} failed: {error!r}",
                          file=sys.stderr)
                    rec.op_end(failed=True)
                else:
                    rec.op_end()
            rec.end()
            # Closing a client marks its unsettled tickets "lost", so
            # the states are read while the connections are up.
            session.tickets = [
                (ticket.query_id, ticket.state, ticket.reason)
                for client in clients
                for ticket in client.tickets.values()]
            start = time.perf_counter()
            session.metrics = await clients[0].metrics()
            session.metrics_seconds = time.perf_counter() - start
            session.resolved = await clients[0].resolved()
            session.pending_ids = await clients[0].pending()
        finally:
            for client in clients:
                await client.close()

    async def _round(self, clients, halves, rec):
        async def submit(client, chunks):
            tickets = []
            for chunk in chunks:
                tickets.extend(await rec.acall(
                    "server.submit", client.submit(chunk)))
            return tickets

        results = await asyncio.gather(
            *(submit(client, chunks)
              for client, chunks in zip(clients, halves)),
            return_exceptions=True)
        for result in results:
            if isinstance(result, BaseException):
                raise result
        await rec.acall("server.run_batch", clients[0].run_batch())
        # The round ends when every query the in-process leg answered
        # has had its settlement pushed to the connection that owns it.
        due = [ticket.wait() for tickets in results for ticket in tickets
               if ticket.query_id in self.expected_events]
        await rec.acall("server.event_drain", asyncio.wait_for(
            asyncio.gather(*due), EVENT_TIMEOUT))

    # -- outcomes ------------------------------------------------------

    def outcome(self, session):
        tickets = session.tickets
        answered = sorted(query_id for query_id, state, _ in tickets
                          if state == "answered")
        failures = Counter(reason for _, state, reason in tickets
                           if state in ("failed", "lost"))
        pending = sum(state == "pending" for _, state, _ in tickets)
        outcome = Outcome(len(tickets), answered, dict(failures), pending)
        served = sorted(query_id for query_id, _
                        in session.resolved["answers"])
        if served != answered:
            outcome.problems.append(
                f"the server answered {len(served)} queries but "
                f"{len(answered)} settlement events reached their "
                f"owners")
        if len(session.pending_ids) != pending:
            outcome.problems.append(
                f"the server reports {len(session.pending_ids)} pending, "
                f"the clients' tickets say {pending}")
        return outcome

    def published(self, session):
        values = published_metrics(session.metrics, {},
                                   self.queries_per_epoch)
        values["obs.metrics_snapshot_ms"] = session.metrics_seconds * 1e3
        return values

    # -- the paired in-process leg -------------------------------------

    def reference(self, journal: bool = True):
        """The same frames through an in-process engine with the
        configuration stock ``repro serve --wal-dir`` builds
        (*journal*) or the plain engine under it."""
        wal_dir = self.workdir / "wal-reference"
        if journal:
            engine = DurableEngine(wal_dir, self.database,
                                   snapshot_every=64, mode="batch")
        else:
            engine = D3CEngine(self.database, mode="batch")
        tickets = []
        start = time.perf_counter()
        for halves in self.plan:
            for chunks in halves:
                for chunk in chunks:
                    tickets.extend(engine.submit_many(chunk))
            engine.run_batch()
        seconds = time.perf_counter() - start
        outcome = outcome_of_tickets(tickets, engine)
        extras = {}
        if journal:
            start = time.perf_counter()
            engine.snapshot()
            extras["snapshots.write_ms"] = (
                time.perf_counter() - start) * 1e3
            engine.close()
            shutil.rmtree(wal_dir, ignore_errors=True)
        self.expected_events = set(outcome.answered)
        return outcome, seconds, extras

    def probes(self, values, epoch_seconds):
        found = super().probes(values, epoch_seconds)
        found.update(layers.transport(self))
        _, durable_seconds, extras = self.reference()
        found.update(extras)
        found["server.overhead_x"] = epoch_seconds / durable_seconds
        found["durability.journal_overhead_pct"] = 100.0 * (
            durable_seconds / self.reference(journal=False)[1] - 1.0)
        return found


WORKLOADS = {cls.name: cls for cls in (
    PairsIncremental, ClusterIncremental, DynamicDurableRounds,
    ServedDurableRounds, ShardedRounds)}
