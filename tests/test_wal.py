"""The durable substrate: CRC record framing, the append-only log,
and the snapshot-generation store (:mod:`repro.durability.wal`,
:mod:`repro.durability.snapshots`, :func:`repro.dataio.frame_record`).

The properties proven here are what the crash-recovery battery
(:mod:`tests.test_crash_recovery`) leans on: a torn tail loses at most
the final record and nothing before it, a bit flip anywhere inside a
record is detected, snapshot publication is atomic with fallback to
the previous generation, and recovery is insensitive to where the
snapshot/log boundary happens to fall.
"""

from __future__ import annotations

import json
import os
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataio import (MAX_FRAME_BYTES, FrameDecoder, FrameError,
                          frame_body, frame_record, unframe_records)
from repro.durability import DurableEngine, SnapshotStore, WriteAheadLog
from repro.durability.wal import read_log
from repro.engine.staleness import ManualClock
from repro.errors import RecoveryError
from repro.lang import parse_ir
from repro.workloads import build_intro_database

# ---------------------------------------------------------------------------
# Record framing


SAMPLE_RECORDS = [
    {},
    {"empty": [], "null": None},
    {"kind": "wal_cmd", "op": "submit", "seqs": [0, 1, 2]},
    {"unicode": "query-éß中文 \U0001f40d", "n": -7},
    {"mixed": [1, "two", 3.5, True, None, [["nested", 0]]]},
    {"big": "x" * 4096},
]


def test_frame_round_trip_each_record():
    for payload in SAMPLE_RECORDS:
        data = frame_record(payload)
        records, consumed = unframe_records(data)
        assert records == [payload]
        assert consumed == len(data)


def test_frame_round_trip_concatenated_stream():
    data = b"".join(frame_record(payload) for payload in SAMPLE_RECORDS)
    records, consumed = unframe_records(data)
    assert records == SAMPLE_RECORDS
    assert consumed == len(data)


def test_unframe_truncation_at_every_byte_offset():
    """Cutting the stream anywhere loses at most the torn final record:
    every record wholly before the cut survives, and the consumed
    prefix never overruns the cut."""
    frames = [frame_record(payload) for payload in SAMPLE_RECORDS]
    data = b"".join(frames)
    boundaries = []
    offset = 0
    for frame in frames:
        offset += len(frame)
        boundaries.append(offset)
    for cut in range(len(data) + 1):
        records, consumed = unframe_records(data[:cut])
        intact = sum(1 for boundary in boundaries if boundary <= cut)
        assert records == SAMPLE_RECORDS[:intact]
        assert consumed == (boundaries[intact - 1] if intact else 0)


def test_unframe_detects_bit_flip_anywhere():
    """A single flipped bit in either record of a two-record stream is
    never silently accepted: the damaged record (and anything after
    it) drops; records before it survive."""
    first, second = SAMPLE_RECORDS[2], SAMPLE_RECORDS[3]
    data = frame_record(first) + frame_record(second)
    first_len = len(frame_record(first))
    for position in range(0, len(data), 7):
        corrupt = bytearray(data)
        corrupt[position] ^= 0x40
        records, _ = unframe_records(bytes(corrupt))
        if position < first_len:
            # Header damage may fake a huge length (tail looks torn) or
            # body damage fails the CRC — either way the record is gone.
            assert first not in records
        else:
            assert records[:1] == [first]
            assert second not in records[1:] or records == [first, second]
    # Flips that change the payload body always fail the CRC outright.
    body_start = first_len + 8
    for position in range(body_start, len(data)):
        corrupt = bytearray(data)
        corrupt[position] ^= 0x40
        assert unframe_records(bytes(corrupt))[0] == [first]


def test_unframe_garbage_and_empty():
    assert unframe_records(b"") == ([], 0)
    assert unframe_records(b"\x00\x01\x02") == ([], 0)
    records, consumed = unframe_records(b"\xff" * 64)
    assert records == [] and consumed == 0


_JSON_LEAVES = st.none() | st.booleans() | st.integers() \
    | st.text(max_size=8)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES, lambda leaf: st.lists(leaf, max_size=3), max_leaves=8)
_PAYLOADS = st.dictionaries(st.text(min_size=1, max_size=8),
                            _JSON_VALUES, max_size=4)


def _decode_stream(stream: bytes, bounds: list) -> tuple:
    """Feed *stream* to a fresh FrameDecoder chunk by chunk; returns
    ``(frames, bytes consumed, error class or None)``."""
    decoder = FrameDecoder()
    frames: list = []
    fed = 0
    for start, end in zip(bounds, bounds[1:]):
        fed = end
        try:
            frames.extend(decoder.feed(stream[start:end]))
        except FrameError as error:
            frames.extend(error.frames)
            return frames, fed - len(decoder), type(error)
    return frames, fed - len(decoder), None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_log_reader_and_stream_decoder_are_one_codec(data):
    """The WAL reader and the socket decoder run the same scan loop
    and differ only in what a stop means.  On any stream — intact, cut
    anywhere, one bit flipped, a body that is not a JSON object, a
    header declaring an oversized body — they accept exactly the same
    frames and stop at the same byte; where ``unframe_records`` reads a
    clean end-of-log the decoder either waits (incomplete) or raises
    carrying the same prefix.  Chunking the stream changes nothing."""
    stream = b"".join(frame_record(payload) for payload
                      in data.draw(st.lists(_PAYLOADS, max_size=5)))
    damage = data.draw(st.sampled_from(
        ["none", "cut", "flip", "body", "oversize"]))
    if damage == "cut":
        stream = stream[:data.draw(st.integers(0, len(stream)))]
    elif damage == "flip" and stream:
        position = data.draw(st.integers(0, len(stream) - 1))
        flipped = bytearray(stream)
        flipped[position] ^= 1 << data.draw(st.integers(0, 7))
        stream = bytes(flipped)
    elif damage == "body":
        body = data.draw(
            st.binary(max_size=12)
            | _JSON_VALUES.map(lambda value: json.dumps(value).encode()))
        stream += frame_body(body) + frame_record({"after": "damage"})
    elif damage == "oversize":
        declared = MAX_FRAME_BYTES + data.draw(st.integers(1, 1 << 20))
        stream += struct.pack("<II", declared, 0) \
            + data.draw(st.binary(max_size=12))

    records, clean_length = unframe_records(stream)
    whole = _decode_stream(stream, [0, len(stream)])
    assert whole[:2] == (records, clean_length)

    cuts = data.draw(st.lists(st.integers(0, len(stream)), max_size=6))
    chunked = _decode_stream(stream, sorted({0, len(stream), *cuts}))
    assert chunked == whole


# ---------------------------------------------------------------------------
# WriteAheadLog


def test_wal_append_and_read_back(tmp_path):
    path = tmp_path / "seg.log"
    with WriteAheadLog(path, sync_every=None) as log:
        for payload in SAMPLE_RECORDS:
            log.append(payload)
        assert log.records_appended == len(SAMPLE_RECORDS)
    records, clean = read_log(path)
    assert records == SAMPLE_RECORDS
    assert clean is True


def test_wal_missing_file_reads_empty_and_clean(tmp_path):
    assert read_log(tmp_path / "never-written.log") == ([], True)


def test_wal_torn_tail_reads_unclean(tmp_path):
    path = tmp_path / "seg.log"
    with WriteAheadLog(path, sync_every=None) as log:
        for payload in SAMPLE_RECORDS:
            log.append(payload)
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    records, clean = read_log(path)
    assert records == SAMPLE_RECORDS[:-1]
    assert clean is False


def test_wal_fsync_batching(tmp_path, monkeypatch):
    """fsync fires every ``sync_every`` appends, not per append, plus
    once per explicit sync/close — the budget the overhead probe
    depends on."""
    calls = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync",
                        lambda fd: (calls.append(fd), real_fsync(fd))[1])
    log = WriteAheadLog(tmp_path / "seg.log", sync_every=4)
    for index in range(10):
        log.append({"n": index})
    assert len(calls) == 2          # after the 4th and 8th appends
    assert log.syncs == 2
    log.sync()
    assert len(calls) == 3
    log.close()
    assert len(calls) == 4          # close syncs the straggling tail
    log.close()                      # idempotent: no further fsync
    assert len(calls) == 4


def test_wal_sync_disabled_still_syncs_on_close(tmp_path, monkeypatch):
    calls = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync",
                        lambda fd: (calls.append(fd), real_fsync(fd))[1])
    log = WriteAheadLog(tmp_path / "seg.log", sync_every=0)
    for index in range(10):
        log.append({"n": index})
    assert calls == []
    log.close()
    assert len(calls) == 1


def test_wal_append_survives_without_fsync(tmp_path):
    """A record is readable the moment ``append`` returns (single
    ``write`` + flush), even with periodic fsync disabled — the
    kill -9 durability contract."""
    path = tmp_path / "seg.log"
    log = WriteAheadLog(path, sync_every=0)
    log.append({"first": 1})
    records, clean = read_log(path)
    assert records == [{"first": 1}] and clean
    log.close()


# ---------------------------------------------------------------------------
# SnapshotStore


def _state(tag):
    return {"database": f"-- {tag}", "db_version": 0, "next_seq": 0,
            "pending": [], "tombstones": [], "used_ids": [],
            "counters": {"submitted": 0, "answered": 0, "failed": {}},
            "answers": [], "failures": []}


def test_snapshot_store_generations_and_round_trip(tmp_path):
    store = SnapshotStore(tmp_path / "wal")
    assert store.generations() == []
    assert not store.has_state()
    store.write_snapshot(0, 0, _state("gen0"))
    store.write_snapshot(1, 5, _state("gen1"))
    assert store.generations() == [0, 1]
    assert store.has_state()
    payload = store.load_snapshot(1)
    assert payload["generation"] == 1
    assert payload["commands"] == 5
    assert payload["state"]["database"] == "-- gen1"


def test_snapshot_store_load_newest_prefers_latest(tmp_path):
    store = SnapshotStore(tmp_path)
    store.write_snapshot(0, 0, _state("old"))
    store.write_snapshot(1, 9, _state("new"))
    with store.open_log(1, sync_every=None) as log:
        log.append({"wire": 1, "kind": "wal_cmd", "op": "run_batch",
                    "at": 0.0, "events": []})
    generation, payload, records, clean = store.load_newest()
    assert generation == 1
    assert payload["state"]["database"] == "-- new"
    assert len(records) == 1 and clean


def test_snapshot_store_corrupt_newest_falls_back(tmp_path):
    """A crash mid-publication leaves a damaged newest snapshot; boot
    falls back to the previous generation (whose prune was deferred
    exactly for this)."""
    store = SnapshotStore(tmp_path)
    store.write_snapshot(0, 0, _state("safe"))
    with store.open_log(0, sync_every=None) as log:
        log.append({"wire": 1, "kind": "wal_cmd", "op": "expire",
                    "at": 1.0, "events": []})
    store.write_snapshot(1, 1, _state("doomed"))
    damaged = store.snapshot_path(1).read_bytes()
    store.snapshot_path(1).write_bytes(damaged[: len(damaged) // 2])
    generation, payload, records, _ = store.load_newest()
    assert generation == 0
    assert payload["state"]["database"] == "-- safe"
    assert len(records) == 1    # generation 0's log suffix still counts
    with pytest.raises(RecoveryError, match="torn or corrupt"):
        store.load_snapshot(1)


def test_snapshot_store_wrong_kind_or_generation_rejected(tmp_path):
    store = SnapshotStore(tmp_path)
    store.snapshot_path(3).write_bytes(
        frame_record({"wire": 1, "kind": "wal_cmd", "generation": 3}))
    with pytest.raises(RecoveryError, match="expected a wire-1 "
                                            "wal_snapshot"):
        store.load_snapshot(3)
    store.write_snapshot(4, 0, _state("mislabel"))
    os.replace(store.snapshot_path(4), store.snapshot_path(5))
    with pytest.raises(RecoveryError, match="generation"):
        store.load_snapshot(5)


def test_snapshot_store_load_newest_empty_and_all_corrupt(tmp_path):
    store = SnapshotStore(tmp_path / "empty")
    with pytest.raises(RecoveryError, match="nothing to recover"):
        store.load_newest()
    store.write_snapshot(0, 0, _state("only"))
    store.snapshot_path(0).write_bytes(b"\xff" * 32)
    with pytest.raises(RecoveryError,
                       match="every snapshot generation failed"):
        store.load_newest()


def test_snapshot_store_prune_before(tmp_path):
    store = SnapshotStore(tmp_path)
    for generation in range(3):
        store.write_snapshot(generation, generation, _state(generation))
        store.open_log(generation, sync_every=None).close()
    store.prune_before(2)
    assert store.generations() == [2]
    assert not store.log_path(0).exists()
    assert store.log_path(2).exists()


def test_snapshot_store_ignores_orphan_log_segments(tmp_path):
    """A log segment without its snapshot (interrupted prune) is not a
    generation."""
    store = SnapshotStore(tmp_path)
    store.open_log(7, sync_every=None).close()
    assert store.generations() == []
    assert not store.has_state()


def test_snapshot_publication_is_atomic(tmp_path):
    """No temp file survives publication and the published frame is
    wholly valid JSON under a CRC."""
    store = SnapshotStore(tmp_path)
    store.write_snapshot(0, 0, _state("atomic"))
    assert [entry.name for entry in sorted(tmp_path.iterdir())] == \
        ["snapshot-000000.json"]
    data = store.snapshot_path(0).read_bytes()
    records, consumed = unframe_records(data)
    assert consumed == len(data) and len(records) == 1
    json.dumps(records[0])


# ---------------------------------------------------------------------------
# Interleaved snapshot + log orderings


def _intro_queries():
    return [
        parse_ir("{Reservation(Jerry, x)} Reservation(Kramer, x) "
                 "<- Flights(x, Paris)", "kramer"),
        parse_ir("{Reservation(Kramer, y)} Reservation(Jerry, y) "
                 "<- Flights(y, Paris), Airlines(y, United)", "jerry"),
    ]


@pytest.mark.parametrize("snapshot_every", [1, 2, 3, None])
def test_recovery_insensitive_to_snapshot_cadence(tmp_path,
                                                  snapshot_every):
    """Wherever the snapshot/log boundary falls — every command, every
    other command, or never after generation 0 (stale snapshot + long
    tail) — recovery lands on the same state."""
    wal_dir = tmp_path / f"wal-{snapshot_every}"
    service = DurableEngine(wal_dir, build_intro_database(),
                            clock=ManualClock(),
                            snapshot_every=snapshot_every,
                            sync_every=None, mode="batch")
    service.submit_all(_intro_queries())
    service.run_batch()
    service.database.insert("Flights", [(999, "Berlin")])
    expected_answers = dict(service.answers)
    expected_version = service.database.db_version
    del service    # crash: no close, no final snapshot

    recovered = DurableEngine.recover(wal_dir, clock=ManualClock(),
                                      snapshot_every=snapshot_every,
                                      sync_every=None, mode="batch")
    assert recovered.answers == expected_answers
    assert recovered.database.db_version == expected_version
    assert recovered.pending_count == 0
    counters = recovered.metrics_snapshot()["counters"]
    assert (counters["submitted"], counters["answered"]) == (2, 2)
    recovered.close()


def test_recovery_replays_log_suffix_after_stale_snapshot(tmp_path):
    """With automatic snapshots off, everything after generation 0
    lives in one long log suffix — submit frames, the batch, and the
    out-of-band delta all replay."""
    wal_dir = tmp_path / "wal"
    service = DurableEngine(wal_dir, build_intro_database(),
                            clock=ManualClock(), snapshot_every=None,
                            sync_every=None, mode="batch")
    service.submit_all(_intro_queries())
    service.database.insert("Flights", [(777, "Oslo")])
    assert service.generation == 0
    assert service.commands_applied == 2
    del service

    recovered = DurableEngine.recover(wal_dir, clock=ManualClock(),
                                      snapshot_every=None,
                                      sync_every=None, mode="batch")
    # Both submits were journalled but never ran a batch: pending.
    assert sorted(recovered.pending_ids()) == ["jerry", "kramer"]
    assert set(recovered.restored_tickets) == {"jerry", "kramer"}
    assert recovered.commands_applied == 2
    rows = list(recovered.database.table("Flights").rows())
    assert (777, "Oslo") in rows
    # The restored pending set coordinates as if nothing happened.
    recovered.run_batch()
    assert set(recovered.answers) == {"jerry", "kramer"}
    recovered.close()


def test_recovery_after_clean_close_replays_nothing(tmp_path):
    wal_dir = tmp_path / "wal"
    with DurableEngine(wal_dir, build_intro_database(),
                       clock=ManualClock(), snapshot_every=None,
                       sync_every=None, mode="batch") as service:
        service.submit_all(_intro_queries())
        service.run_batch()
        expected = dict(service.answers)
        final_generation = service.generation
    # The close wrote a fresh snapshot; its log segment is empty.
    store = SnapshotStore(wal_dir)
    generation, _, records, clean = store.load_newest()
    assert generation == final_generation + 1
    assert records == [] and clean
    recovered = DurableEngine.recover(wal_dir, clock=ManualClock(),
                                      sync_every=None, mode="batch")
    assert recovered.answers == expected
    recovered.close()
