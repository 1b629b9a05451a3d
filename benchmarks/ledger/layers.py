"""Outside probes: single layers timed through their public functions
on the workload's own inputs (traced runs only).

Every probe is bounded (fixed sample sizes) so a traced run stays
inside the same time budget as an untraced one.
"""

from __future__ import annotations

import random
import time

from repro.core import (build_combined_query, build_unifiability_graph,
                        match_all, rename_workload_apart)
from repro.dataio import from_payload, to_payload
from repro.db import ConjunctiveQuery
from repro.durability import DurableEngine, SnapshotStore, WriteAheadLog
from repro.durability.wal import read_log
from repro.server import AdmissionController, FrameDecoder, encode_frame
from repro.server.protocol import request_frame
from repro.shard import ShardRouter

#: Workload bodies sampled for ``db.body_first_us``.
BODY_SAMPLE = 1_000
#: Admission decisions timed for ``admission.admit_us``.
ADMISSION_SAMPLE = 10_000
#: WAL records re-appended for ``wal.append_us_per_record``.
WAL_SAMPLE = 2_000


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def core_stages(workload) -> dict:
    """Replay one block through graph -> matching -> combine."""
    block = rename_workload_apart(workload.sample_block())
    graph, graph_seconds = timed(build_unifiability_graph, block)
    matches, match_seconds = timed(match_all, graph)
    answerable = [match for match in matches if match.is_answerable]
    by_id = {query.query_id: query for query in block}
    start = time.perf_counter()
    for match in answerable:
        build_combined_query(by_id, match)
    combine_seconds = time.perf_counter() - start
    return {
        "core.graph.build_ms_per_block": graph_seconds * 1e3,
        "core.matching.match_ms_per_block": match_seconds * 1e3,
        "core.matching.answerable_ratio":
            len(answerable) / max(len(matches), 1),
        "core.combine.build_us_per_component":
            combine_seconds * 1e6 / max(len(answerable), 1),
    }


def database_first(workload) -> dict:
    """``Database.first`` on sampled workload bodies."""
    queries = workload.all_queries()
    sample = random.Random(0).sample(
        queries, min(BODY_SAMPLE, len(queries)))
    database = workload.database
    bodies = [ConjunctiveQuery(query.body) for query in sample]
    start = time.perf_counter()
    for body in bodies:
        database.first(body)
    return {"db.body_first_us":
            (time.perf_counter() - start) * 1e6 / len(bodies)}


def database_mutations(workload) -> dict:
    """The rounds' mutation batches applied with no engine attached
    (the gate tables are emptied again afterwards)."""
    database = workload.database
    rows_touched = 0
    start = time.perf_counter()
    for mutations, _ in workload.rounds:
        for kind, table, rows in mutations:
            if kind == "insert":
                rows_touched += database.insert(table, rows)
            else:
                rows_touched += database.delete_rows(table, rows)
    elapsed = time.perf_counter() - start
    workload.reset_database()
    return {"db.mutate_us_per_row": elapsed * 1e6 / max(rows_touched, 1)}


def router(workload) -> dict:
    """Replay ``ShardRouter.home_shard`` over every arrival."""
    queries = workload.all_queries()
    shard_router = ShardRouter(workload.SHARDS)
    start = time.perf_counter()
    homes = [shard_router.home_shard(query) for query in queries]
    elapsed = time.perf_counter() - start
    counts = [homes.count(shard) for shard in range(workload.SHARDS)]
    return {
        "shard.router.home_us_per_query": elapsed * 1e6 / len(queries),
        "shard.route_skew": max(counts) * len(counts) / len(queries),
    }


def transport(workload) -> dict:
    """The pass's submit frames through the codec, in process."""
    queries = workload.all_queries()[:BODY_SAMPLE]
    payloads, to_seconds = timed(
        lambda: [to_payload(query) for query in queries])
    _, from_seconds = timed(
        lambda: [from_payload(payload) for payload in payloads])
    frames = [request_frame(index + 1, "submit",
                            {"queries": [to_payload(query)
                                         for query in chunk]})
              for index, chunk in enumerate(workload.frames()[:200])]
    encoded, encode_seconds = timed(
        lambda: [encode_frame(frame) for frame in frames])
    decoder = FrameDecoder()
    _, decode_seconds = timed(
        lambda: [decoder.feed(data) for data in encoded])
    framed_queries = sum(len(frame["args"]["queries"])
                         for frame in frames)
    controller = AdmissionController()
    start = time.perf_counter()
    for _ in range(ADMISSION_SAMPLE):
        controller.admit("loadgen-0", 0, 0)
    admit_seconds = time.perf_counter() - start
    return {
        "dataio.to_payload_us": to_seconds * 1e6 / len(queries),
        "dataio.from_payload_us": from_seconds * 1e6 / len(queries),
        "protocol.encode_us_per_frame":
            encode_seconds * 1e6 / len(frames),
        "protocol.decode_us_per_frame":
            decode_seconds * 1e6 / len(frames),
        "protocol.bytes_per_query":
            sum(map(len, encoded)) / framed_queries,
        "admission.admit_us": admit_seconds * 1e6 / ADMISSION_SAMPLE,
    }


def journal(wal_dir, scratch, sync_every: int) -> dict:
    """Re-append the live segment's own records to a scratch log at
    the same fsync cadence, then time bare fsyncs."""
    store = SnapshotStore(wal_dir)
    records, _ = read_log(store.log_path(max(store.generations())))
    records = records[:WAL_SAMPLE]
    values = {}
    log = WriteAheadLog(scratch, sync_every=sync_every)
    try:
        if records:
            start = time.perf_counter()
            for record in records:
                log.append(record)
            values["wal.append_us_per_record"] = (
                (time.perf_counter() - start) * 1e6 / len(records))
        syncs = 20
        start = time.perf_counter()
        for _ in range(syncs):
            log.append({"op": "probe"})
            log.sync()
        values["wal.fsync_ms"] = (
            (time.perf_counter() - start) * 1e3 / syncs)
    finally:
        log.close()
        scratch.unlink()
    return values


def recovery(wal_dir, live: dict, **engine_config) -> dict:
    """``DurableEngine.recover`` on a closed service's directory; the
    recovered pending ids, answers and ``db_version`` must equal the
    live ones captured before the close."""
    recovered, seconds = timed(
        lambda: DurableEngine.recover(wal_dir, **engine_config))
    try:
        got = {"pending": sorted(recovered.pending_ids()),
               "answered": sorted(recovered.answers),
               "db_version": recovered.database.db_version}
    finally:
        recovered.close()
    for key, value in live.items():
        if got[key] != value:
            raise RuntimeError(
                f"recovery diverged on {key}: recovered "
                f"{len(got[key]) if key != 'db_version' else got[key]} "
                f"vs live "
                f"{len(value) if key != 'db_version' else value}")
    return {"durability.recover_s": seconds}
