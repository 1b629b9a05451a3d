"""Protocol round-trip suite for the server's stream frame codec.

Drives every frame type of :mod:`repro.server.protocol` through a
real ``socket.socketpair()`` — property-style chunkings (one byte at a
time, random splits, everything coalesced) prove the incremental
decoder independent of how TCP fragments the stream — plus the
corruption arms: oversized payloads, CRC damage, truncated garbage,
and an unknown protocol version answered by a live server with a
typed ``reject`` frame.  The REP002 wire-completeness invariant
(every ``to_payload`` has its ``from_payload``) is asserted to stay
green now that query payloads ride inside server frames.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.engine import D3CEngine
from repro.server.protocol import (BAD_FRAME, ERROR_CODES, INVALID,
                                   MAX_FRAME_BYTES, OVERLOADED,
                                   PROTOCOL_VERSION, REQUEST_OPS,
                                   FrameDecoder, FrameError,
                                   FrameOversizeError,
                                   ServerOverloadedError,
                                   ServerProtocolError,
                                   ServerTimeoutError, encode_frame,
                                   error_for, error_reply,
                                   event_frame, hello_frame, ok_reply,
                                   reject_frame, request_frame,
                                   welcome_frame)
from repro.server.server import CoordinationServer, ServerConfig

_HEADER = struct.Struct("<II")


def _all_frames() -> list:
    """One instance of every frame kind the protocol speaks."""
    return [
        hello_frame("tenant-a"),
        welcome_frame(64, 256, MAX_FRAME_BYTES),
        reject_frame(BAD_FRAME, "exercise the reject arm"),
        request_frame(1, "submit", {"queries": [{"id": "q0"}]}),
        request_frame(2, "ping", {}),
        ok_reply(3, {"answered": 5}, order=17),
        ok_reply(4, {"pong": True}),
        error_reply(5, OVERLOADED, "shed at the window bound"),
        event_frame("answered", "q0", {"rows": {"R": [[1, 2]]}}),
        event_frame("failed", "q1", "stale"),
    ]


def _send_through_socketpair(chunks) -> list:
    """Write *chunks* through a real socketpair, decode the far end."""
    left, right = socket.socketpair()
    decoder = FrameDecoder()
    frames: list = []
    try:
        for chunk in chunks:
            left.sendall(chunk)
            frames.extend(decoder.feed(right.recv(1 << 20)))
        left.shutdown(socket.SHUT_WR)
        while True:
            data = right.recv(1 << 20)
            if not data:
                break
            frames.extend(decoder.feed(data))
    finally:
        left.close()
        right.close()
    assert len(decoder) == 0, "stream ended mid-frame"
    return frames


def test_every_frame_type_roundtrips_over_a_socketpair():
    frames = _all_frames()
    stream = b"".join(encode_frame(frame) for frame in frames)
    assert _send_through_socketpair([stream]) == frames


def test_one_byte_at_a_time_partial_reads():
    frames = _all_frames()
    stream = b"".join(encode_frame(frame) for frame in frames)
    decoder = FrameDecoder()
    out: list = []
    for index in range(len(stream)):
        out.extend(decoder.feed(stream[index:index + 1]))
    assert out == frames
    assert len(decoder) == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_chunkings_are_equivalent(data):
    frames = _all_frames()
    stream = b"".join(encode_frame(frame) for frame in frames)
    cuts = data.draw(st.lists(
        st.integers(min_value=0, max_value=len(stream)),
        max_size=12))
    bounds = sorted({0, len(stream), *cuts})
    chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
    assert _send_through_socketpair(chunks) == frames


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=8),
        lambda leaf: st.lists(leaf, max_size=3),
        max_leaves=8),
    max_size=5))
def test_arbitrary_json_payloads_roundtrip(payload):
    decoder = FrameDecoder()
    assert decoder.feed(encode_frame(payload)) == [payload]


def test_coalesced_frames_come_out_of_one_feed():
    frames = _all_frames()
    stream = b"".join(encode_frame(frame) for frame in frames)
    decoder = FrameDecoder()
    assert decoder.feed(stream) == frames


def test_encode_rejects_oversized_bodies():
    with pytest.raises(FrameOversizeError):
        encode_frame({"blob": "x" * 64}, max_bytes=16)


def test_decoder_rejects_oversized_declared_length_before_buffering():
    decoder = FrameDecoder(max_bytes=1024)
    header = _HEADER.pack(1 << 30, 0)
    with pytest.raises(FrameOversizeError):
        decoder.feed(header)
    # Poisoned: a length-prefixed stream cannot resynchronize.
    with pytest.raises(FrameError):
        decoder.feed(b"")


def test_decoder_rejects_crc_damage():
    frame = encode_frame({"kind": "ping"})
    damaged = frame[:-1] + bytes([frame[-1] ^ 0xFF])
    decoder = FrameDecoder()
    with pytest.raises(FrameError) as excinfo:
        decoder.feed(damaged)
    assert "CRC" in str(excinfo.value)


def test_decoder_rejects_non_object_and_non_json_bodies():
    body = json.dumps([1, 2, 3]).encode()
    framed = _HEADER.pack(len(body), zlib.crc32(body)) + body
    with pytest.raises(FrameError):
        FrameDecoder().feed(framed)
    garbage = b"\x00\xff\x00\xff"
    framed = _HEADER.pack(len(garbage), zlib.crc32(garbage)) + garbage
    with pytest.raises(FrameError):
        FrameDecoder().feed(framed)


def test_error_codes_map_to_typed_exceptions():
    assert isinstance(error_for(OVERLOADED, "x"), ServerOverloadedError)
    assert isinstance(error_for("TIMEOUT", "x"), ServerTimeoutError)
    assert isinstance(error_for(BAD_FRAME, "x"), ServerProtocolError)
    for code in ERROR_CODES:
        assert error_for(code, "x").code == code
    # Unknown codes still raise something typed rather than KeyError.
    assert error_for("???", "x").code == "???"


# ----------------------------------------------------------------------
# live-server arms: version negotiation and typed rejects
# ----------------------------------------------------------------------


def _tiny_engine() -> D3CEngine:
    from repro.db import Database
    database = Database()
    database.create_table("F", "fno int", "dest text")
    database.insert("F", [(1, "Paris")])
    return D3CEngine(database, mode="batch", safety="off")


async def _raw_exchange(payloads, *, config=None):
    """Boot a real server on an ephemeral TCP port, write *payloads*
    as frames in one burst, and return every frame the server sends
    back before closing."""
    server = CoordinationServer(_tiny_engine(), config)
    await server.start(port=0)
    host, port = server.tcp_address
    reader, writer = await asyncio.open_connection(host, port)
    decoder = FrameDecoder()
    replies: list = []
    try:
        writer.write(b"".join(encode_frame(p) for p in payloads))
        await writer.drain()
        while True:
            try:
                data = await asyncio.wait_for(reader.read(1 << 16),
                                              timeout=2.0)
            except TimeoutError:
                break
            if not data:
                break
            replies.extend(decoder.feed(data))
    finally:
        writer.close()
        await server.drain()
    return replies


def test_unknown_protocol_version_gets_a_typed_reject():
    async def scenario():
        bad_hello = dict(hello_frame("t"), proto=PROTOCOL_VERSION + 1)
        return await _raw_exchange([bad_hello])
    replies = asyncio.run(scenario())
    assert len(replies) == 1
    assert replies[0]["kind"] == "reject"
    assert replies[0]["code"] == BAD_FRAME
    assert "version" in replies[0]["message"]


def test_first_frame_must_be_hello():
    async def scenario():
        return await _raw_exchange([request_frame(1, "ping", {})])
    replies = asyncio.run(scenario())
    assert [r["kind"] for r in replies] == ["reject"]
    assert replies[0]["code"] == BAD_FRAME


def test_unknown_op_is_invalid_but_keeps_the_connection():
    async def scenario():
        return await _raw_exchange([
            hello_frame("t"),
            {"proto": PROTOCOL_VERSION, "kind": "req", "id": 1,
             "op": "no_such_op", "args": {}},
            request_frame(2, "ping", {}),
        ])
    replies = asyncio.run(scenario())
    kinds = [r["kind"] for r in replies]
    assert kinds == ["welcome", "rep", "rep"]
    assert replies[1]["status"] == "err"
    assert replies[1]["code"] == INVALID
    assert "no_such_op" in replies[1]["message"]
    assert replies[2]["status"] == "ok"
    assert replies[2]["result"]["pong"] is True


def test_request_without_valid_id_is_connection_fatal():
    async def scenario():
        return await _raw_exchange([
            hello_frame("t"),
            {"proto": PROTOCOL_VERSION, "kind": "req", "id": "nope",
             "op": "ping", "args": {}},
        ])
    replies = asyncio.run(scenario())
    assert [r["kind"] for r in replies] == ["welcome", "reject"]
    assert replies[1]["code"] == BAD_FRAME


def test_corrupt_stream_gets_reject_then_close():
    async def scenario():
        server = CoordinationServer(_tiny_engine())
        await server.start(port=0)
        host, port = server.tcp_address
        reader, writer = await asyncio.open_connection(host, port)
        decoder = FrameDecoder()
        try:
            writer.write(encode_frame(hello_frame("t")))
            writer.write(b"\xde\xad\xbe\xef\xde\xad\xbe\xef")
            await writer.drain()
            replies: list = []
            while True:
                data = await asyncio.wait_for(reader.read(1 << 16),
                                              timeout=2.0)
                if not data:
                    break
                replies.extend(decoder.feed(data))
            return replies
        finally:
            writer.close()
            await server.drain()
    replies = asyncio.run(scenario())
    kinds = [r["kind"] for r in replies]
    assert kinds[0] == "welcome"
    # The garbage decodes as an absurd declared length -> oversize
    # reject, and the server closes (read loop saw EOF above).
    assert kinds[-1] == "reject"
    assert replies[-1]["code"] == BAD_FRAME


def test_welcome_advertises_negotiated_limits():
    async def scenario():
        config = ServerConfig(window=7, queue_limit=11,
                              max_frame_bytes=4096)
        return await _raw_exchange([hello_frame("t")], config=config)
    replies = asyncio.run(scenario())
    welcome = replies[0]
    assert welcome["kind"] == "welcome"
    assert welcome["window"] == 7
    assert welcome["queue"] == 11
    assert welcome["max_frame"] == 4096
    assert welcome["proto"] == PROTOCOL_VERSION


def test_request_op_vocabulary_is_stable():
    # The oracle replay and the CLI both depend on this vocabulary;
    # growing it is fine, renaming/removing is a wire break.  The one
    # deliberate removal is ``stats``: ``metrics`` carries every
    # counter it rendered, and an old client's ``stats`` gets INVALID.
    assert set(REQUEST_OPS) >= {"submit", "run_batch", "expire",
                                "mutate", "pending", "metrics",
                                "resolved", "ping"}
    assert "stats" not in REQUEST_OPS


def test_rep002_wire_completeness_stays_green():
    """Server frames embed dataio payloads; the payload layer must
    keep every ``to_payload`` paired with its ``from_payload``."""
    import repro
    from pathlib import Path
    from repro.analysis import Analyzer
    root = Path(repro.__file__).resolve().parents[2]
    analyzer = Analyzer(root=root)
    findings = analyzer.analyze_paths(["src/repro/dataio.py",
                                      "src/repro/server"])
    rep002 = [f for f in findings if f.rule_id == "REP002"]
    assert rep002 == []
