"""Command-line interface: ``python -m repro <command>``.

Commands:

``demo``
    Run the paper's introduction example end to end and print the
    coordinated reservations.

``coordinate DATA WORKLOAD``
    Load a database from a data file (see :mod:`repro.dataio`) and an
    entangled-query workload (one IR-syntax query per line), coordinate
    them set-at-a-time, and print per-query answers and failures.
    ``--shards N`` routes the same workload through the sharded
    coordination service (:mod:`repro.shard`) instead of one engine.
    ``--wal-dir DIR`` journals every command to a write-ahead log (and
    recovers from DIR when it already holds state — see
    :mod:`repro.durability`).  Snapshot cadence is derived by default
    (a generation is published whenever the log segment has outgrown
    the snapshot it follows); ``--snapshot-every N`` overrides it with
    one snapshot per N journalled commands.

``sql DATA "SELECT ..."``
    Run a plain SQL SELECT against a data file.

``trace [DATA WORKLOAD]``
    Coordinate a workload (or the introduction example when no files
    are given) with per-query lifecycle tracing enabled and print the
    stitched traces — one block per query showing
    ``submit → rename_apart → route → match_attempt → settle`` with
    per-phase latencies, plus the engine-level spans (batch drains,
    DB evaluations, migrations).  ``--jsonl PATH`` additionally
    exports the raw spans as JSON lines.

``bench [FIGURE ...]``
    Regenerate the paper's Figures 6-9 (all four by default); scale
    run sizes with ``REPRO_BENCH_SCALE``.  ``--metrics-json PATH``
    writes the aggregated metrics snapshot of every engine the run
    built.  Performance claims are made by the coordination ledger
    (``benchmarks/ledger/``), not by this command.

``lint [PATHS ...]``
    Run the invariant linter (:mod:`repro.analysis`) over the source
    tree — determinism, wire-protocol, mutation-safety, exception,
    tracing, clock, and worker-frame rules; any finding fails the run.
    ``--json`` emits a machine-readable report; ``--rules`` lists the
    rule catalog.

``serve DATA``
    Boot the network-facing coordination server (:mod:`repro.server`)
    over the data file: ``--unix PATH`` and/or ``--port N`` pick the
    listeners (``--port 0`` binds an ephemeral port, printed in the
    banner), ``--shards``/``--wal-dir`` select the sharded or durable
    service behind it, and the admission knobs (``--window``,
    ``--queue-limit``, ``--tenant-rate``, ``--request-timeout``)
    bound what each connection and tenant may have in flight.
    SIGTERM/SIGINT drain gracefully: listeners stop, admitted requests
    finish, the unix socket path is unlinked.

``connect ACTION [WORKLOAD]``
    Drive a running server as one async client: ``ping``, ``stats``,
    ``metrics``, ``pending``, ``resolved``, ``batch``, ``expire``, or
    ``submit WORKLOAD`` (submit an IR workload file, run a batch, and
    print each query's settlement like ``coordinate`` does).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import Sequence

from .core.evaluate import coordinate
from .dataio import load_database
from .errors import ReproError
from .lang import parse_ir_workload, run_sql
from .workloads import build_intro_database


def _output_path_error(path: str, flag: str) -> str | None:
    """Up-front writability check for an output path.

    Returns an error message (or None) *before* any work runs, so a
    long coordination or bench run never completes only to fail on
    the final write.
    """
    target = os.path.abspath(path)
    if os.path.exists(target):
        if os.path.isdir(target):
            return f"{flag}: {path!r} is a directory"
        if not os.access(target, os.W_OK):
            return f"{flag}: {path!r} is not writable"
        return None
    parent = os.path.dirname(target)
    if not os.path.isdir(parent):
        return f"{flag}: directory {parent!r} does not exist"
    if not os.access(parent, os.W_OK):
        return f"{flag}: directory {parent!r} is not writable"
    return None


def _write_metrics_json(path: str, snapshot: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _intro_queries():
    from .lang import parse_ir
    return [
        parse_ir("{Reservation(Jerry, x)} Reservation(Kramer, x) "
                 "<- Flights(x, Paris)", "kramer"),
        parse_ir("{Reservation(Kramer, y)} Reservation(Jerry, y) "
                 "<- Flights(y, Paris), Airlines(y, United)", "jerry"),
    ]


def _command_demo(arguments: argparse.Namespace) -> int:
    database = build_intro_database()
    queries = _intro_queries()
    print("Entangled queries (paper Figure 2a):")
    for query in queries:
        print(f"  {query}")
    result = coordinate(queries, database)
    print("\nCoordinated answers:")
    for query_id in sorted(result.answers):
        print(f"  {query_id}: {result.answers[query_id].rows}")
    return 0


def _command_coordinate(arguments: argparse.Namespace) -> int:
    if arguments.metrics_json:
        error = _output_path_error(arguments.metrics_json,
                                   "--metrics-json")
        if error:
            print(error, file=sys.stderr)
            return 1
    try:
        with open(arguments.data) as handle:
            database = load_database(handle.read())
        with open(arguments.workload) as handle:
            queries = parse_ir_workload(handle.read())
        if not queries:
            print("workload is empty", file=sys.stderr)
            return 1
        if arguments.wal_dir or arguments.shards:
            return _coordinate_service(database, queries, arguments)
        result = coordinate(queries, database,
                            check_safety=not arguments.no_safety,
                            ucs_fallback=arguments.ucs_fallback)
    except (ReproError, OSError) as error:
        print(f"coordinate: {error}", file=sys.stderr)
        return 1
    for query_id in sorted(result.answers, key=repr):
        print(f"answered  {query_id}: {result.answers[query_id].rows}")
    for query_id in sorted(result.failures, key=repr):
        reason = result.failures[query_id]
        print(f"failed    {query_id}: {reason.value}")
    timings = result.timings
    print(f"-- graph {timings.graph_seconds:.3f}s  "
          f"match {timings.match_seconds:.3f}s  "
          f"db {timings.db_seconds:.3f}s")
    if arguments.metrics_json:
        _write_metrics_json(arguments.metrics_json,
                            _plain_metrics(queries, result, database))
    return 0 if result.answers else 2


def _plain_metrics(queries, result, database) -> dict:
    """A registry snapshot for the one-shot ``coordinate()`` path,
    in the same vocabulary as the engine's ``metrics_snapshot()``."""
    from collections import Counter
    from .obs import MetricsRegistry
    registry = MetricsRegistry()
    registry.inc("submitted", len(queries))
    registry.inc("answered", len(result.answers))
    for reason, count in Counter(result.failures.values()).items():
        registry.inc(f"failed.{reason.value}", count)
    timings = result.timings
    registry.gauge("graph_seconds", timings.graph_seconds)
    registry.gauge("match_seconds", timings.match_seconds)
    registry.gauge("db_seconds", timings.db_seconds)
    for key, value in database.range_stats().items():
        registry.inc(f"range_index.{key}", value)
    for key, value in database.cache_stats().items():
        registry.inc(f"db.{key}", value)
    return registry.snapshot()


def _open_service(arguments: argparse.Namespace, database=None,
                  **options):
    """The coordination service a command's flags name.

    The one place ``--shards`` / ``--shard-backend`` / ``--wal-dir`` /
    ``--snapshot-every`` are interpreted: ``--shards`` picks a fleet
    over one engine, ``--wal-dir`` wraps either in the durable journal
    — recovering when the directory holds state (*database*, or the
    data file loaded when it is None, only seeds a fresh start).  Every
    shape is served set-at-a-time (``repro trace --mode incremental``
    alone overrides *mode*) with safety checking off (admission
    checking needs the global pending set; the paper's service
    experiments run without it).
    """
    options.setdefault("mode", "batch")
    if arguments.shards:
        from .shard import ShardedCoordinator as build
        options.update(num_shards=arguments.shards,
                       backend=arguments.shard_backend)
    else:
        from .engine.engine import D3CEngine as build
    if arguments.wal_dir:
        from .durability import DurableCoordinator, DurableEngine
        durable = DurableCoordinator if arguments.shards else DurableEngine
        if arguments.snapshot_every is not None:
            options["snapshot_every"] = arguments.snapshot_every
        if durable.has_state(arguments.wal_dir):
            service = durable.recover(arguments.wal_dir, **options)
            note = (f"recovered {arguments.wal_dir}: generation "
                    f"{service.generation}, {service.commands_applied} "
                    f"commands journalled, "
                    f"{len(service.restored_tickets)} queries still "
                    f"pending")
            if database is not None:
                # The caller's loaded database is ignored in favour of
                # the recovered one; say where that one stands.
                note += f", db_version {service.database.db_version}"
            print(note, file=sys.stderr)
            return service
        build, options["wal_dir"] = durable, arguments.wal_dir
    if database is None:
        database = load_database(arguments.data)
    return build(database=database, **options)


def _report_tickets(tickets) -> int:
    """Print one ``answered`` / ``failed`` / ``pending`` line per
    ticket (sorted by id); returns the answered count.  Queries a round
    cannot answer are reported pending — a service holds them for
    future partners, it does not fail them."""
    from .engine.futures import TicketState
    answered = 0
    for ticket in sorted(tickets, key=lambda t: repr(t.query_id)):
        if ticket.state is TicketState.ANSWERED:
            print(f"answered  {ticket.query_id}: {ticket.answer.rows}")
            answered += 1
        elif ticket.state is TicketState.FAILED:
            print(f"failed    {ticket.query_id}: "
                  f"{ticket.failure_reason.value}")
        else:
            print(f"pending   {ticket.query_id}")
    return answered


def _coordinate_service(database, queries, arguments) -> int:
    """Coordinate a workload through a service (one round).

    The first run against ``--wal-dir`` starts fresh from the data
    file; later runs recover the journalled state (database, pending
    queries, burned ids) and the data file is ignored in favour of the
    recovered database.
    """
    if not arguments.no_safety:
        flag, why = (("--wal-dir", "durable services run without the "
                                   "admission check")
                     if arguments.wal_dir else
                     ("--shards", "admission checking is global"))
        print(f"note: {flag} implies --no-safety ({why})",
              file=sys.stderr)
    service = _open_service(arguments, database,
                            ucs_fallback=arguments.ucs_fallback)
    try:
        # Workload files number their queries from 0 on every run;
        # shift this run's ids past everything a recovered journal has
        # seen (pending or settled ids are all below the arrival
        # counter, which is 0 on a fresh service), so re-running a
        # workload extends the history instead of colliding with it.
        offset = service.next_arrival_seq
        if offset:
            from dataclasses import replace
            queries = [replace(query, query_id=offset + index)
                       for index, query in enumerate(queries)]
        tickets = service.submit_many(queries)
        service.run_batch()
        answered = _report_tickets(tickets)
        if arguments.wal_dir:
            print(f"-- wal {arguments.wal_dir}  "
                  f"generation {service.generation}  "
                  f"commands {service.commands_applied}  "
                  f"pending {service.pending_count}")
        else:
            gauges = service.metrics_snapshot()["gauges"]
            print(f"-- shards {arguments.shards}  "
                  f"migrations {service.migrations}  "
                  f"graph {gauges['graph_seconds']:.3f}s  "
                  f"match {gauges['match_seconds']:.3f}s  "
                  f"db {gauges['db_seconds']:.3f}s")
        if arguments.metrics_json:
            _write_metrics_json(arguments.metrics_json,
                                service.metrics_snapshot())
        return 0 if answered else 2
    finally:
        service.close()


def _command_sql(arguments: argparse.Namespace) -> int:
    try:
        rows = run_sql(load_database(arguments.data), arguments.query)
    except ReproError as error:
        print(f"sql: {error}", file=sys.stderr)
        return 1
    for row in rows:
        print("\t".join(str(value) for value in row))
    return 0


def _command_bench(arguments: argparse.Namespace) -> int:
    from .bench.figures import FIGURES, run_all
    from .obs import global_snapshot, reset_global_metrics
    if arguments.metrics_json:
        error = _output_path_error(arguments.metrics_json,
                                   "--metrics-json")
        if error:
            print(error, file=sys.stderr)
            return 1
        reset_global_metrics()
    if not arguments.figures:
        run_all()
    else:
        for number in arguments.figures:
            for series in FIGURES[number]():
                series.print()
    if arguments.metrics_json:
        # The harness absorbs every engine's metrics snapshot into the
        # process-global registry; this is the run's aggregate.
        _write_metrics_json(arguments.metrics_json, global_snapshot())
    return 0


def _command_trace(arguments: argparse.Namespace) -> int:
    from .obs import TRACER, format_traces, set_tracing
    if arguments.jsonl:
        error = _output_path_error(arguments.jsonl, "--jsonl")
        if error:
            print(error, file=sys.stderr)
            return 1
    if bool(arguments.data) != bool(arguments.workload):
        print("trace: DATA and WORKLOAD must be given together",
              file=sys.stderr)
        return 1
    if arguments.data:
        database = load_database(arguments.data)
        with open(arguments.workload) as handle:
            queries = parse_ir_workload(handle.read())
        if not queries:
            print("workload is empty", file=sys.stderr)
            return 1
    else:
        database = build_intro_database()
        queries = _intro_queries()
    # Enable BEFORE building any engine or fleet: process-backend
    # workers read the flag at spawn time.
    set_tracing(True)
    TRACER.clear()
    try:
        service = _open_service(arguments, database, mode=arguments.mode)
        try:
            if arguments.mode == "incremental":
                # One arrival per call: each submit() runs the closure
                # (prefilter, matching, evaluation) it triggers.
                for query in queries:
                    service.submit(query)
            else:
                service.submit_many(queries)
                service.run_batch()
        finally:
            service.close()
        print(format_traces(TRACER.spans()))
        if TRACER.dropped:
            print(f"-- {TRACER.dropped} spans dropped: the ring keeps "
                  f"the newest {len(TRACER)}", file=sys.stderr)
        if arguments.jsonl:
            TRACER.export_jsonl(arguments.jsonl)
            print(f"-- {len(TRACER)} spans exported to "
                  f"{arguments.jsonl}", file=sys.stderr)
    finally:
        set_tracing(False)
    return 0


def _command_serve(arguments: argparse.Namespace) -> int:
    import asyncio
    from .server import CoordinationServer, ServerConfig
    if arguments.port is None and not arguments.unix:
        print("serve: need --unix PATH and/or --port N",
              file=sys.stderr)
        return 1
    config = ServerConfig(
        window=arguments.window,
        queue_limit=arguments.queue_limit,
        tenant_rate=arguments.tenant_rate,
        tenant_burst=arguments.tenant_burst,
        request_timeout=arguments.request_timeout)
    try:
        service = _open_service(arguments)
    except ReproError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 1
    # The loaded (or recovered) database and its indexes live as long
    # as the server does: take them out of the collector's reach, or
    # every full collection of a serving epoch walks them again.  Done
    # here and not in the service classes — the collector belongs to
    # the process entry point, never to a library object.
    gc.collect()
    gc.freeze()

    async def _run() -> int:
        server = CoordinationServer(service, config)
        try:
            await server.start(host=arguments.host,
                               port=arguments.port,
                               unix_path=arguments.unix or None)
        except (ReproError, OSError) as error:
            print(f"serve: {error}", file=sys.stderr)
            service.close()
            return 1
        server.install_signal_handlers()
        listening = []
        if server.unix_path:
            listening.append(f"unix={server.unix_path}")
        if server.tcp_address:
            host, port = server.tcp_address
            listening.append(f"tcp={host}:{port}")
        # One parseable banner line; smoke scripts wait for it.
        print(f"serving {' '.join(listening)} pid={os.getpid()}",
              flush=True)
        await server.serve_forever()
        gauges = server.metrics_snapshot()["gauges"]
        print(f"drained: commands={gauges['server.order']:.0f} "
              f"answers={gauges['server.answers']:.0f} "
              f"failures={gauges['server.failures']:.0f}", flush=True)
        return 0

    return asyncio.run(_run())


def _command_connect(arguments: argparse.Namespace) -> int:
    import asyncio
    return asyncio.run(_connect_async(arguments))


async def _connect_async(arguments: argparse.Namespace) -> int:
    from .server import ServerClient, ServerError
    if arguments.action == "submit" and not arguments.workload:
        print("connect: submit needs a WORKLOAD file",
              file=sys.stderr)
        return 1
    try:
        if arguments.unix:
            client = await ServerClient.connect_unix(
                arguments.unix, tenant=arguments.tenant)
        elif arguments.port is not None:
            client = await ServerClient.connect_tcp(
                arguments.host, arguments.port,
                tenant=arguments.tenant)
        else:
            print("connect: need --unix PATH or --port N",
                  file=sys.stderr)
            return 1
    except (ServerError, OSError) as error:
        print(f"connect: {error}", file=sys.stderr)
        return 1
    timeout = arguments.timeout
    try:
        action = arguments.action
        if action in ("ping", "metrics", "pending", "resolved"):
            result = await client.request(action, timeout=timeout)
            print(json.dumps(result, sort_keys=True))
            return 0
        if action == "batch":
            print(f"answered {await client.run_batch(timeout=timeout)}")
            return 0
        if action == "expire":
            print(f"expired {await client.expire(timeout=timeout)}")
            return 0
        return await _connect_submit(client, arguments, timeout)
    except ServerError as error:
        print(f"connect: {error.code}: {error}", file=sys.stderr)
        return 1
    except TimeoutError:
        print(f"connect: no reply within {timeout}s", file=sys.stderr)
        return 1
    finally:
        await client.close()


async def _connect_submit(client, arguments: argparse.Namespace,
                          timeout: float | None) -> int:
    with open(arguments.workload) as handle:
        queries = parse_ir_workload(handle.read())
    if not queries:
        print("workload is empty", file=sys.stderr)
        return 1
    if arguments.id_prefix:
        # Workload files number queries from 0 on every run; a prefix
        # keeps concurrent submitters (or reruns against a long-lived
        # server) from colliding on ids.
        from .core.query import EntangledQuery
        queries = [EntangledQuery(
            query_id=f"{arguments.id_prefix}{query.query_id}",
            head=query.head, postconditions=query.postconditions,
            body=query.body, choose=query.choose, owner=query.owner)
            for query in queries]
    tickets = await client.submit(queries, timeout=timeout)
    await client.run_batch(timeout=timeout)
    resolved = await client.resolved(timeout=timeout)
    settled = {query_id for query_id, _ in resolved["answers"]}
    settled.update(query_id for query_id, _ in resolved["failures"])
    answered = 0
    for ticket in sorted(tickets, key=lambda t: repr(t.query_id)):
        if ticket.query_id in settled:
            await ticket.wait(timeout)
        if ticket.state == "answered":
            rows = ticket.payload["rows"]
            print(f"answered  {ticket.query_id}: {rows}")
            answered += 1
        elif ticket.state == "failed":
            print(f"failed    {ticket.query_id}: {ticket.reason}")
        else:
            print(f"pending   {ticket.query_id}")
    return 0 if answered else 2


def _command_lint(arguments: argparse.Namespace) -> int:
    from .analysis.cli import run_lint
    return run_lint(arguments.paths,
                    as_json=arguments.json,
                    list_rules=arguments.rules)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Entangled queries: declarative data-driven "
                    "coordination (SIGMOD 2011 reproduction).")
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser(
        "demo", help="run the paper's introduction example")
    demo.set_defaults(handler=_command_demo)

    coordinate_parser = subparsers.add_parser(
        "coordinate", help="coordinate a workload file over a data file")
    coordinate_parser.add_argument("data", help="data file (repro.dataio "
                                                "format)")
    coordinate_parser.add_argument("workload",
                                   help="one IR query per line")
    coordinate_parser.add_argument("--no-safety", action="store_true",
                                   help="skip the safety repair")
    coordinate_parser.add_argument("--ucs-fallback", action="store_true",
                                   help="retry strongly connected cores "
                                        "when a component finds no data")
    coordinate_parser.add_argument("--shards", type=int, default=0,
                                   metavar="N",
                                   help="coordinate through the sharded "
                                        "service with N shard workers "
                                        "(implies --no-safety)")
    coordinate_parser.add_argument("--shard-backend",
                                   choices=["inprocess", "process"],
                                   default="inprocess",
                                   help="shard worker backend for "
                                        "--shards (default: inprocess)")
    coordinate_parser.add_argument("--wal-dir", metavar="DIR",
                                   help="journal commands to a write-"
                                        "ahead log in DIR; a DIR that "
                                        "already holds state is "
                                        "recovered (crash-safe) and "
                                        "the data file is ignored")
    coordinate_parser.add_argument("--snapshot-every", type=int,
                                   default=None, metavar="N",
                                   help="with --wal-dir: write a "
                                        "snapshot generation every N "
                                        "journalled commands (default: "
                                        "derived - whenever the log "
                                        "has outgrown the snapshot it "
                                        "follows)")
    coordinate_parser.add_argument("--metrics-json", metavar="PATH",
                                   help="write the run's metrics-"
                                        "registry snapshot to PATH as "
                                        "JSON (validated up front)")
    coordinate_parser.set_defaults(handler=_command_coordinate)

    sql = subparsers.add_parser(
        "sql", help="run a plain SELECT against a data file")
    sql.add_argument("data", help="data file (repro.dataio format)")
    sql.add_argument("query", help="SELECT statement")
    sql.set_defaults(handler=_command_sql)

    bench = subparsers.add_parser(
        "bench", help="regenerate the paper's Figures 6-9")
    bench.add_argument("figures", nargs="*",
                       choices=["6", "7", "8", "9", []],
                       help="figure numbers (default: all)")
    bench.add_argument("--metrics-json", metavar="PATH",
                       help="write the aggregated metrics-registry "
                            "snapshot of every engine the run built "
                            "to PATH as JSON (validated up front)")
    bench.set_defaults(handler=_command_bench)

    trace = subparsers.add_parser(
        "trace", help="coordinate with lifecycle tracing on and print "
                      "the stitched per-query traces")
    trace.add_argument("data", nargs="?",
                       help="data file (repro.dataio format); omit "
                            "with WORKLOAD to trace the introduction "
                            "example")
    trace.add_argument("workload", nargs="?",
                       help="one IR query per line")
    trace.add_argument("--shards", type=int, default=0, metavar="N",
                       help="trace through the sharded service with N "
                            "shard workers")
    trace.add_argument("--shard-backend",
                       choices=["inprocess", "process"],
                       default="inprocess",
                       help="shard worker backend for --shards "
                            "(default: inprocess)")
    trace.add_argument("--mode", choices=["batch", "incremental"],
                       default="batch",
                       help="batch: one submit_many block and one "
                            "round (default); incremental: one "
                            "submit() per query, tracing the "
                            "per-arrival closures")
    trace.add_argument("--jsonl", metavar="PATH",
                       help="also export the raw spans as JSON lines "
                            "to PATH (validated up front)")
    trace.set_defaults(handler=_command_trace, wal_dir=None)

    lint = subparsers.add_parser(
        "lint", help="run the invariant linter (determinism, wire, "
                     "mutation-safety, exception, tracing, clock and "
                     "worker-frame rules)")
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint (default: "
                           "src and tests)")
    lint.add_argument("--json", action="store_true",
                      help="emit a machine-readable JSON report")
    lint.add_argument("--rules", action="store_true",
                      help="list the rule catalog and exit")
    lint.set_defaults(handler=_command_lint)

    serve = subparsers.add_parser(
        "serve", help="boot the network-facing coordination server "
                      "over a data file")
    serve.add_argument("data", help="data file (repro.dataio format); "
                                    "ignored when --wal-dir recovers")
    serve.add_argument("--unix", metavar="PATH",
                       help="listen on a unix socket at PATH (a stale "
                            "leftover path is reclaimed; a live one "
                            "fails the bind)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind host (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None, metavar="N",
                       help="listen on TCP port N (0 = ephemeral, "
                            "printed in the banner)")
    serve.add_argument("--shards", type=int, default=0, metavar="N",
                       help="serve a sharded fleet with N workers")
    serve.add_argument("--shard-backend",
                       choices=["inprocess", "process"],
                       default="inprocess",
                       help="shard worker backend for --shards "
                            "(default: inprocess)")
    serve.add_argument("--wal-dir", metavar="DIR",
                       help="serve a durable service journalled in "
                            "DIR (recovers when DIR holds state)")
    serve.add_argument("--snapshot-every", type=int, default=None,
                       metavar="N",
                       help="with --wal-dir: snapshot every N "
                            "journalled commands (default: derived - "
                            "whenever the log has outgrown the "
                            "snapshot it follows)")
    serve.add_argument("--window", type=int, default=64, metavar="N",
                       help="per-connection in-flight request window "
                            "(default: 64)")
    serve.add_argument("--queue-limit", type=int, default=256,
                       metavar="N",
                       help="command queue bound; beyond it requests "
                            "shed with OVERLOADED (default: 256)")
    serve.add_argument("--tenant-rate", type=float, default=None,
                       metavar="R",
                       help="per-tenant token-bucket refill rate in "
                            "requests/second (default: unlimited)")
    serve.add_argument("--tenant-burst", type=float, default=64.0,
                       metavar="B",
                       help="per-tenant token-bucket capacity "
                            "(default: 64)")
    serve.add_argument("--request-timeout", type=float, default=30.0,
                       metavar="S",
                       help="queue-wait deadline per request in "
                            "seconds (default: 30)")
    serve.set_defaults(handler=_command_serve)

    connect = subparsers.add_parser(
        "connect", help="drive a running coordination server as one "
                        "async client")
    connect.add_argument("action",
                         choices=["ping", "metrics", "pending",
                                  "resolved", "batch",
                                  "expire", "submit"],
                         help="request to issue; 'submit' sends a "
                              "workload file, runs a batch, and "
                              "prints each settlement")
    connect.add_argument("workload", nargs="?",
                         help="IR workload file (submit only)")
    connect.add_argument("--unix", metavar="PATH",
                         help="connect over the unix socket at PATH")
    connect.add_argument("--host", default="127.0.0.1",
                         help="TCP host (default: 127.0.0.1)")
    connect.add_argument("--port", type=int, default=None,
                         metavar="N", help="TCP port")
    connect.add_argument("--tenant", default="default",
                         help="tenant name for admission control "
                              "(default: 'default')")
    connect.add_argument("--id-prefix", default="", metavar="PREFIX",
                         help="prefix submitted query ids (keeps "
                              "concurrent submitters from colliding)")
    connect.add_argument("--timeout", type=float, default=30.0,
                         metavar="S",
                         help="client-side wait per request in "
                              "seconds (default: 30)")
    connect.set_defaults(handler=_command_connect)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    arguments = build_parser().parse_args(argv)
    return arguments.handler(arguments)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
