"""Per-query lifecycle tracing and cross-shard stitching
(:mod:`repro.obs.trace`).

The contract proven here: tracing off records nothing (the flag is
the only cost), tracing on yields one trace per submitted query whose
spans walk the lifecycle (``submit -> rename_apart -> [route ->]
match_attempt* -> settle|expire``), worker-shard spans ship back over
the frame protocol and stitch into the coordinator's buffer under the
originating trace id — including for queries that migrated between
shards mid-flight — and the span payload format tolerates appended
fields (the versioning rule for the ``spans`` frame events).
"""

from __future__ import annotations

import json

import pytest

from repro.engine.engine import D3CEngine
from repro.engine.staleness import ManualClock, TimeoutStaleness
from repro.lang import parse_ir
from repro.obs import TRACER, Span, format_traces, set_tracing
from repro.shard import ShardedCoordinator
from repro.workloads import (build_flight_database, build_intro_database,
                             generate_social_network, multi_tenant_rounds,
                             two_way_pairs)


@pytest.fixture(autouse=True)
def _tracing_reset():
    """Every test starts and ends with tracing off and an empty
    buffer, whatever it toggled in between."""
    set_tracing(False)
    TRACER.clear()
    yield
    set_tracing(False)
    TRACER.clear()


def _intro_queries():
    return [
        parse_ir("{Reservation(Jerry, x)} Reservation(Kramer, x) "
                 "<- Flights(x, Paris)", "kramer"),
        parse_ir("{Reservation(Kramer, y)} Reservation(Jerry, y) "
                 "<- Flights(y, Paris), Airlines(y, United)", "jerry"),
    ]


def _by_name(spans):
    names = {}
    for span in spans:
        names.setdefault(span.name, []).append(span)
    return names


# ---------------------------------------------------------------------------
# Zero-cost-when-off


def test_tracing_off_records_nothing():
    engine = D3CEngine(build_intro_database(), mode="batch")
    engine.submit_many(_intro_queries())
    engine.run_batch()
    assert len(TRACER) == 0
    assert engine.stats.answered == 2


# ---------------------------------------------------------------------------
# Single-engine lifecycle


def test_single_engine_lifecycle_spans():
    set_tracing(True)
    engine = D3CEngine(build_intro_database(), mode="batch")
    engine.submit_many(_intro_queries())
    engine.run_batch()
    traces = TRACER.traces()
    engine_spans = _by_name(traces.pop(None))
    assert "engine.run_batch" in engine_spans
    assert "db.evaluate" in engine_spans
    # One trace per submitted query, each walking the full lifecycle.
    assert len(traces) == 2
    for trace_id, spans in traces.items():
        names = _by_name(spans)
        assert set(names) == {"query.submit", "query.rename_apart",
                              "query.match_attempt", "query.settle"}
        assert names["query.settle"][0].attrs["outcome"] == "answered"
        assert all(span.trace_id == trace_id for span in spans)
        assert all(span.site == "coordinator" for span in spans)
    # The entangled pair matched as one component: both traces'
    # match_attempt spans report the same component size.
    sizes = {span.attrs["members"]
             for spans in traces.values() for span in spans
             if span.name == "query.match_attempt"}
    assert sizes == {2}


def test_expire_emits_a_span_on_the_originating_trace():
    set_tracing(True)
    clock = ManualClock()
    engine = D3CEngine(build_intro_database(), mode="batch",
                       staleness=TimeoutStaleness(1.0), clock=clock)
    # The kramer half alone cannot settle: it expires.
    engine.submit(_intro_queries()[0])
    engine.run_batch()
    clock.advance(5.0)
    assert engine.expire_stale() == 1
    traces = TRACER.traces()
    traces.pop(None, None)
    (spans,) = traces.values()
    names = _by_name(spans)
    assert "query.expire" in names
    assert "query.settle" not in names
    assert names["query.expire"][0].trace_id == \
        names["query.submit"][0].trace_id


# ---------------------------------------------------------------------------
# Sharded fleets


def test_inprocess_two_shard_lifecycle_round_trip():
    set_tracing(True)
    network = generate_social_network(num_users=120, seed=3,
                                      planted_cliques={4: 4})
    database = build_flight_database(network)
    queries = two_way_pairs(network, 24, specific=True, seed=3)
    coordinator = ShardedCoordinator(database, num_shards=2,
                                     backend="inprocess", mode="batch")
    coordinator.submit_many(queries)
    coordinator.run_batch()
    traces = TRACER.traces()
    traces.pop(None, None)
    assert len(traces) == len(queries)
    routed_shards = set()
    for spans in traces.values():
        names = _by_name(spans)
        assert "query.submit" in names
        assert "query.rename_apart" in names
        assert "query.route" in names
        routed_shards.add(names["query.route"][0].attrs["shard"])
        assert "query.settle" in names or "query.match_attempt" in names
    assert routed_shards == {0, 1}


def test_process_backend_yields_one_stitched_trace():
    """The acceptance criterion: a query through a 2-shard process
    fleet yields one trace holding coordinator-side spans (submit /
    rename_apart / route) and worker-side spans (match_attempt /
    settle tagged ``shard<N>``), stitched in the coordinator's
    buffer."""
    set_tracing(True)
    network = generate_social_network(num_users=120, seed=7,
                                      planted_cliques={4: 4})
    database = build_flight_database(network)
    queries = two_way_pairs(network, 16, specific=True, seed=7)
    with ShardedCoordinator(database, num_shards=2, backend="process",
                            mode="batch") as coordinator:
        coordinator.submit_many(queries)
        coordinator.run_batch()
        assert coordinator.metrics_snapshot()["counters"]["answered"] > 0
    traces = TRACER.traces()
    traces.pop(None, None)
    stitched = 0
    worker_sites = set()
    for spans in traces.values():
        sites = {span.site for span in spans}
        worker_sites |= {site for site in sites
                         if site.startswith("shard")}
        names = _by_name(spans)
        assert "query.submit" in names
        assert names["query.submit"][0].site == "coordinator"
        if any(site.startswith("shard") for site in sites):
            stitched += 1
            worker_names = {span.name for span in spans
                            if span.site.startswith("shard")}
            assert worker_names & {"query.match_attempt",
                                   "query.settle"}
    assert stitched > 0
    # Both workers participated and tagged their own site.
    assert worker_sites == {"shard0", "shard1"}


@pytest.mark.parametrize("backend", ["inprocess", "process"])
def test_a_sharded_query_is_submitted_and_renamed_once(backend):
    """The fleet stamps each query's record at its front door and the
    shard adopts it as is: one ``query.submit`` and one
    ``query.rename_apart`` span per query, both at the coordinator —
    never a second pair from the shard engine."""
    set_tracing(True)
    network = generate_social_network(num_users=120, seed=3,
                                      planted_cliques={4: 4})
    database = build_flight_database(network)
    queries = two_way_pairs(network, 16, specific=True, seed=3)
    with ShardedCoordinator(database, num_shards=2, backend=backend,
                            mode="batch") as coordinator:
        coordinator.submit_many(queries)
        assert coordinator.run_batch() > 0
    traces = TRACER.traces()
    traces.pop(None, None)
    assert len(traces) == len(queries)
    for spans in traces.values():
        names = _by_name(spans)
        for name in ("query.submit", "query.rename_apart"):
            (span,) = names[name]
            assert span.site == "coordinator"


def test_migrated_queries_keep_their_originating_trace_id():
    set_tracing(True)
    network = generate_social_network(num_users=300, seed=5,
                                      planted_cliques={4: 10})
    database = build_flight_database(network)
    rounds = multi_tenant_rounds(network, 6, 40, seed=13)
    coordinator = ShardedCoordinator(database, num_shards=2,
                                     backend="inprocess", mode="batch")
    submit_ids = set()
    for block in rounds:
        coordinator.submit_many(block)
        coordinator.run_batch()
        for span in TRACER.spans():
            if span.name == "query.submit":
                submit_ids.add(span.trace_id)
    assert coordinator.migrations > 0
    names = _by_name(TRACER.spans())
    assert "shard.migration" in names
    migration = names["shard.migration"][0]
    assert migration.trace_id is None
    assert migration.attrs["queries"] > 0
    # Every settlement span — including those on components that
    # migrated between shards — carries a trace id minted at submit,
    # never None and never a fresh id.
    settles = names["query.settle"]
    assert settles
    assert all(span.trace_id in submit_ids for span in settles)


# ---------------------------------------------------------------------------
# Wire format and export


def test_span_payload_round_trip_tolerates_appended_fields():
    span = Span("query.settle", "ab12-1", "shard0", 123, 456,
                {"outcome": "answered"})
    payload = span.to_payload()
    back = Span.from_payload(payload)
    assert back.to_payload() == payload
    # Fields are append-only: a longer payload from a newer writer
    # parses, extra tail ignored.
    extended = payload + ("future-field",)
    future = Span.from_payload(extended)
    assert future.to_payload() == payload


def test_jsonl_export_round_trips_every_span(tmp_path):
    set_tracing(True)
    engine = D3CEngine(build_intro_database(), mode="batch")
    engine.submit_many(_intro_queries())
    engine.run_batch()
    path = tmp_path / "trace.jsonl"
    written = TRACER.export_jsonl(str(path))
    lines = path.read_text().splitlines()
    assert written == len(lines) == len(TRACER)
    for line, span in zip(lines, TRACER.spans()):
        record = json.loads(line)
        assert record["name"] == span.name
        assert record["trace_id"] == span.trace_id
        assert record["site"] == span.site
        assert record["duration_ns"] == span.duration_ns


def test_format_traces_groups_engine_spans_last():
    set_tracing(True)
    engine = D3CEngine(build_intro_database(), mode="batch")
    engine.submit_many(_intro_queries())
    engine.run_batch()
    rendered = format_traces(TRACER.spans())
    lines = rendered.splitlines()
    headers = [line for line in lines if not line.startswith(" ")]
    assert headers[-1] == "(engine spans)"
    assert sum(1 for line in headers if line.startswith("trace ")) == 2
    assert any("query.settle" in line and "outcome=answered" in line
               for line in lines)


def test_ring_buffer_drops_oldest_spans():
    from repro.obs.trace import Tracer
    tracer = Tracer(site="test", capacity=4)
    tracer.enabled = True
    for index in range(10):
        tracer.event("tick", None, index=index)
    spans = tracer.spans()
    assert len(spans) == 4
    assert [span.attrs["index"] for span in spans] == [6, 7, 8, 9]


def test_a_full_ring_counts_what_it_drops():
    from repro.obs.trace import Tracer
    tracer = Tracer(site="test", capacity=4)
    tracer.enabled = True
    for index in range(10):
        tracer.emit(("tick", None, "test", index, 0, None))
    assert len(tracer) == 4
    assert tracer.dropped == 6
    tracer.record_many("fan", 0, ["a", "b"])
    tracer.import_payloads([("shipped", None, "shard0", 0, 0, None)])
    assert tracer.dropped == 9
    tracer.clear()
    assert tracer.dropped == 0


def test_repro_trace_reports_ring_drops(monkeypatch, capsys):
    from collections import deque

    from repro.cli import main
    monkeypatch.setattr(TRACER, "_spans", deque(maxlen=4))
    assert main(["trace"]) == 0
    captured = capsys.readouterr()
    assert TRACER.dropped > 0
    assert (f"-- {TRACER.dropped} spans dropped: the ring keeps the "
            f"newest 4") in captured.err
