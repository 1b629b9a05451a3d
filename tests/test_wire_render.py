"""The submit-frame renderer against its reference, the payload tree.

:func:`repro.dataio.render_query` writes a query's wire JSON from a
template cached per query shape; the contract is that its text is
byte-identical to ``json.dumps(to_payload(q), separators=(",", ":"),
ensure_ascii=False)`` and that it raises what :func:`to_payload`
raises.  A hypothesis oracle pins the bytes over random queries
(unicode, quotes, backslashes and control characters everywhere text
goes; every wire scalar type, ``-0.0`` and ``1e300`` included;
comparisons; multi-atom heads and postconditions), and the remaining
cases pin what the two submit-frame writers — ``ServerClient.submit``
and the durable journal — may no longer do (build payload trees) and
must still do (write the same log records).  The one-call decoder,
:func:`repro.dataio.decode_queries`, is checked against item-by-item
:func:`from_payload` here too.
"""

from __future__ import annotations

import asyncio
import enum
import json
import os
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import dataio
from repro.core.evaluate import Answer
from repro.core.extensions import AggregateConstraint
from repro.core.query import EntangledQuery
from repro.core.terms import Atom, Constant, Variable, atom
from repro.db.expression import OPERATORS, Comparison
from repro.dataio import (MAX_CACHED_SHAPES, decode_queries,
                          frame_record, from_payload, render_query,
                          to_payload)
from repro.durability import DurableEngine
from repro.durability import service as durable_service
from repro.durability.wal import read_log
from repro.engine.staleness import ManualClock
from repro.errors import ParseError, ValidationError
from repro.server import CoordinationServer, ServerClient
from repro.server import server as server_module
from repro.workloads import (build_flight_database,
                             generate_social_network, two_way_pairs)


def _reference(obj) -> str:
    return json.dumps(to_payload(obj), separators=(",", ":"),
                      ensure_ascii=False)


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------

#: Text that stresses JSON string escaping: quotes, backslashes,
#: control characters, non-ASCII, and the renderer's own format
#: characters (``%``).
_TEXT = st.one_of(
    st.text(max_size=6),
    st.text(alphabet='"\\\n\t\x00\x1f\x7f é漢😀%{}ab', max_size=6))
_SCALARS = st.one_of(
    _TEXT, st.integers(), st.booleans(), st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 1, True, 1.0]))
# A few relation and variable names, so shapes repeat across queries
# of one example and warm templates are exercised as well as cold.
_RELATIONS = st.one_of(st.sampled_from(["R", "F", "U"]), _TEXT)
_TERMS = st.one_of(
    st.builds(Variable, st.one_of(st.sampled_from(["x", "c"]), _TEXT)),
    st.builds(Constant, _SCALARS))
_ATOMS = st.builds(lambda relation, args: Atom(relation, tuple(args)),
                   _RELATIONS, st.lists(_TERMS, max_size=4))
_COMPARISONS = st.builds(Comparison, _TERMS,
                         st.sampled_from(sorted(OPERATORS)), _TERMS)
_QUERIES = st.builds(
    EntangledQuery,
    query_id=_SCALARS,
    head=st.lists(_ATOMS, min_size=1, max_size=3),
    postconditions=st.lists(_ATOMS, max_size=3),
    body=st.lists(_ATOMS, max_size=3),
    choose=st.integers(min_value=1, max_value=3),
    owner=_SCALARS,
    body_comparisons=st.lists(_COMPARISONS, max_size=2))


@settings(max_examples=150, deadline=None)
@given(st.lists(_QUERIES, min_size=1, max_size=6))
def test_render_equals_json_of_the_payload_tree(queries):
    texts = [_reference(query) for query in queries]
    # Twice: the first pass may build templates, the second reuses them.
    assert [render_query(query) for query in queries] == texts
    assert [render_query(query) for query in queries] == texts
    # And the text decodes, in one call, back to queries that render
    # to the same bytes.
    decoded = decode_queries([json.loads(text) for text in texts])
    assert [render_query(query) for query in decoded] == texts


def _pair_query(value, query_id="q") -> EntangledQuery:
    x = Variable("x")
    return EntangledQuery(
        query_id=query_id, head=(atom("R", "Jerry", value),),
        postconditions=(Atom("R", (x, Constant(value))),),
        body=(atom("F", "Jerry", x),), owner="Jerry")


def test_equal_values_of_different_types_render_apart():
    """``1``, ``True`` and ``1.0`` (and ``0.0`` / ``-0.0``) are equal
    Python values; each keeps its own JSON text whichever one built
    the template first."""
    for order in ([1, True, 1.0, 0.0, -0.0], [-0.0, 0.0, 1.0, True, 1]):
        texts = [render_query(_pair_query(value)) for value in order]
        assert texts == [_reference(_pair_query(value))
                         for value in order]
        assert len(set(texts)) == len(order)


def test_values_the_template_cannot_vouch_for_take_the_reference():
    class Tag(str):
        pass

    class Level(enum.IntEnum):
        HIGH = 3

    x = Variable("x")
    queries = [
        _pair_query(Level.HIGH),           # int subclass constant
        _pair_query("Paris", Tag("q")),   # str subclass id
        EntangledQuery(query_id="v", head=(Atom("R", (Variable(7),)),),
                       postconditions=(), body=()),  # non-str name
        EntangledQuery(query_id="n", head=(Atom(5, (x,)),),
                       postconditions=(), body=()),  # non-str relation
    ]
    for query in queries + queries:
        assert render_query(query) == _reference(query)
    answer = Answer(query_id="a", rows={"R": [("Jerry", 1)]})
    assert render_query(answer) == _reference(answer)


# ----------------------------------------------------------------------
# error parity
# ----------------------------------------------------------------------


def _raised(function, argument):
    with pytest.raises(Exception) as caught:
        function(argument)
    return type(caught.value), str(caught.value)


def test_errors_are_those_of_to_payload():
    x = Variable("x")
    aggregate = EntangledQuery(
        query_id=object(), head=(atom("Reservation", "A", x),),
        postconditions=(), body=(atom("Flights", x, "Paris"),),
        aggregates=(AggregateConstraint(
            atoms=(atom("Reservation", "A", x),),
            answer_relations=frozenset({"Reservation"}),
            op=">=", threshold=1),))
    bad = [
        aggregate,
        _pair_query((1, 2)),                      # tuple constant
        _pair_query(b"bytes"),                    # bytes constant
        _pair_query("Paris", query_id=object()),  # unserializable id
        EntangledQuery(query_id="o", head=(atom("R", "a"),),
                       postconditions=(), body=(), owner=["Jerry"]),
        EntangledQuery(query_id="c", head=(atom("R", x),),
                       postconditions=(), body=(atom("F", x),),
                       body_comparisons=(
                           Comparison(x, "<", Constant(frozenset())),)),
        "not a query",
    ]
    # Warm every shape the bad queries share with good ones first: an
    # error must not depend on whether a template already exists.
    render_query(_pair_query("Paris"))
    for query in bad:
        expected = _raised(to_payload, query)
        assert expected[0] is ValidationError
        assert _raised(render_query, query) == expected
        assert _raised(render_query, query) == expected


def test_the_shape_cache_is_bounded():
    dataio._shape_templates.clear()
    queries = [EntangledQuery(query_id=index,
                              head=(atom(f"R{index}", index),),
                              postconditions=(), body=())
               for index in range(MAX_CACHED_SHAPES + 10)]
    for query in queries:
        assert render_query(query) == _reference(query)
    assert 0 < len(dataio._shape_templates) <= MAX_CACHED_SHAPES


# ----------------------------------------------------------------------
# the one-call decoder
# ----------------------------------------------------------------------


def test_decode_queries_equals_item_by_item_from_payload():
    mixed = [1, True, 1.0, 0.0, -0.0, "1", None]
    queries = [_pair_query(value, query_id=index)
               for index, value in enumerate(mixed + mixed)]
    payloads = [json.loads(render_query(query)) for query in queries]
    decoded = decode_queries(payloads)
    singles = [from_payload(payload) for payload in payloads]
    assert decoded == singles
    for left, right, query in zip(decoded, singles, queries):
        # Equality cannot tell 1 from True from 1.0: the types and the
        # rendered bytes can.
        assert [type(term.value) for term in left.head[0].args] == \
            [type(term.value) for term in right.head[0].args]
        assert render_query(left) == render_query(query)
    # Within one call, terms are shared: one Variable per name, one
    # Constant per (type, value).
    assert decoded[0].body[0].args[1] is decoded[1].body[0].args[1]
    assert decoded[0].head[0].args[0] is decoded[1].head[0].args[0]
    assert decoded[0].head[0].args[1] is not decoded[1].head[0].args[1]


def test_decode_queries_refuses_what_a_block_cannot_hold():
    payload = to_payload(_pair_query("Paris"))
    with pytest.raises(ValidationError, match="expected query"):
        decode_queries([payload, to_payload(
            Answer(query_id="a", rows={}))])
    with pytest.raises(ParseError, match="wire version"):
        decode_queries([{**payload, "wire": 0}])


# ----------------------------------------------------------------------
# the two submit-frame writers
# ----------------------------------------------------------------------


def _network():
    return generate_social_network(num_users=120, seed=11,
                                   planted_cliques={4: 6})


def _count_to_payload(monkeypatch) -> dict:
    """Wrap every ``to_payload`` the served path can reach; returns
    call counts by argument type."""
    counts = {"query": 0, "answer": 0}
    original = dataio.to_payload

    def counting(obj):
        counts["query" if isinstance(obj, EntangledQuery)
               else "answer"] += 1
        return original(obj)

    for module in (dataio, durable_service, server_module):
        monkeypatch.setattr(module, "to_payload", counting)
    return counts


def test_submit_writers_build_no_query_payload_trees(monkeypatch):
    """``ServerClient.submit`` and the journal of
    ``DurableEngine.submit_many`` (behind a server: the production
    shape) render every query straight to text — once each query
    shape has built its template, ``to_payload`` sees answers only."""
    network = _network()
    queries = two_way_pairs(network, 64, seed=3)
    for query in queries[:1]:
        render_query(query)  # the workload's one shape
    counts = _count_to_payload(monkeypatch)

    async def scenario(root):
        service = DurableEngine(os.path.join(root, "wal"),
                                build_flight_database(network),
                                mode="batch")
        server = CoordinationServer(service)
        path = os.path.join(root, "s.sock")
        await server.start(unix_path=path)
        client = await ServerClient.connect_unix(path)
        try:
            for start in range(0, len(queries), 16):
                await client.submit(queries[start:start + 16])
            answered = await client.run_batch()
            # Read before the drain: the closing snapshot encodes the
            # pending set as payload trees, which is its business.
            served = dict(counts)
        finally:
            await client.close()
            await server.drain()
        return answered, served, client.history

    with tempfile.TemporaryDirectory() as root:
        answered, served, history = asyncio.run(scenario(root))
    assert answered > 0
    # Each answer is encoded by the journal and by the server's event.
    assert served == {"query": 0, "answer": 2 * answered}
    # The history holds the queries as submitted, ready to replay.
    submitted = [query for _, op, args in history if op == "submit"
                 for query in args["queries"]]
    assert submitted == queries


def test_journal_records_are_the_payload_frames(tmp_path):
    """A journalled run writes the log the payload-tree writer wrote:
    every record is ``frame_record`` of its own decoded dict (keys in
    the old order), and each submit record carries exactly
    ``to_payload`` of its queries."""
    network = _network()
    blocks = [[replace(query, query_id=f"{seed}-{query.query_id}")
               for query in two_way_pairs(network, 16, seed=seed)]
              for seed in (1, 2)]
    clock = ManualClock()
    service = DurableEngine(tmp_path / "wal",
                            build_flight_database(network), clock=clock,
                            snapshot_every=None, mode="batch")
    for block in blocks:
        clock.advance(1.5)
        service.submit_many(block)
        service.insert("F", [("extra-a", "extra-b")])
        service.run_batch()
    service.submit(EntangledQuery(
        query_id="late", head=(atom("R", "Jerry", 0.5),),
        postconditions=(atom("R", "Elaine", None),), body=()))
    service.expire_stale()
    segment = next((tmp_path / "wal").glob("wal-*.log"))
    raw = segment.read_bytes()
    records, clean = read_log(segment)
    service.close()
    assert clean and records
    assert raw == b"".join(frame_record(record) for record in records)
    submits = [record for record in records if record["op"] == "submit"]
    assert [list(record) for record in submits] == [
        ["wire", "kind", "op", "at", "queries", "seqs", "events"]] * 3
    assert [record["queries"] for record in submits[:2]] == [
        [to_payload(query) for query in block] for block in blocks]
