"""Round-trip property tests for the shard wire format
(:func:`repro.dataio.to_payload` / :func:`repro.dataio.from_payload`)."""

from __future__ import annotations

import json
import random

import pytest

from repro.core.evaluate import Answer
from repro.core.extensions import AggregateConstraint
from repro.core.query import EntangledQuery
from repro.core.terms import Variable, atom
from repro.dataio import (db_delta_from_payload, db_delta_to_payload,
                          delta_from_payload, delta_to_payload,
                          from_payload, to_payload)
from repro.db.database import TableDelta
from repro.errors import ParseError, ValidationError
from repro.workloads import (chain_queries, clique_queries,
                             generate_social_network, multi_tenant_rounds,
                             two_way_pairs)


@pytest.fixture(scope="module")
def network():
    return generate_social_network(num_users=200, seed=3,
                                   planted_cliques={4: 10})


def _workload_sample(network):
    queries = (two_way_pairs(network, 40, seed=1)
               + two_way_pairs(network, 40, specific=True, seed=2)
               + chain_queries(network, 20, chain_length=5, seed=3)
               + clique_queries(network, 24, 3, seed=4))
    for block in multi_tenant_rounds(network, 3, 30, seed=5):
        queries.extend(block)
    return queries


def test_workload_queries_round_trip_exactly(network):
    """Property over every generator family: from(to(q)) == q, both on
    the raw query and on its renamed-apart working copy."""
    for query in _workload_sample(network):
        assert from_payload(to_payload(query)) == query
        working = query.rename_apart()
        assert from_payload(to_payload(working)) == working


def test_payloads_survive_json(network):
    """Payloads are plain JSON trees — a round trip through the text
    encoding changes nothing (the wire never depends on pickle)."""
    for query in _workload_sample(network)[:60]:
        payload = to_payload(query)
        assert from_payload(json.loads(json.dumps(payload))) == query


def test_randomized_constant_types_round_trip():
    """Constants of every wire scalar type survive, with types intact."""
    rng = random.Random(11)
    pools = [lambda: rng.randint(-10**9, 10**9),
             lambda: rng.random() * 1e6,
             lambda: f"s-{rng.randint(0, 999)}",
             lambda: rng.random() < 0.5]
    for trial in range(50):
        values = [rng.choice(pools)() for _ in range(3)]
        x = Variable("x")
        query = EntangledQuery(
            query_id=f"t{trial}",
            head=(atom("R", values[0], x),),
            postconditions=(atom("R", values[1], x),),
            body=(atom("B", x, values[2]),),
            choose=rng.randint(1, 4),
            owner=rng.choice([None, "tenant-1", 7]))
        rebuilt = from_payload(to_payload(query))
        assert rebuilt == query
        rebuilt_values = [term.value
                          for a in (rebuilt.head + rebuilt.postconditions
                                    + rebuilt.body)
                          for term in a.constants()]
        assert [type(value) for value in rebuilt_values] \
            == [type(value) for value in
                [values[0], values[1], values[2]]]


def test_answers_round_trip_exactly():
    answer = Answer(query_id="q1",
                    rows={"R": [("Kramer", 122), ("Kramer", 123)],
                          "S": [(1.5, True)]},
                    choices=2)
    rebuilt = from_payload(to_payload(answer))
    assert rebuilt == answer
    assert rebuilt.rows["R"][0] == ("Kramer", 122)
    assert isinstance(rebuilt.rows["R"][0], tuple)
    assert from_payload(json.loads(json.dumps(to_payload(answer)))) \
        == answer


def _roundtrip_block(from_version, version, deltas):
    payload = db_delta_to_payload(from_version, version, deltas)
    # Also through JSON text: replication frames are plain trees.
    rebuilt = db_delta_from_payload(json.loads(json.dumps(payload)))
    assert rebuilt == (from_version, version, deltas)
    return payload


def test_db_delta_empty_batch_round_trips():
    payload = _roundtrip_block(7, 7, [])
    assert payload["count"] == 0
    empty = TableDelta("T", (), (), 3)
    assert delta_from_payload(
        json.loads(json.dumps(delta_to_payload(empty)))) == empty


def test_db_delta_unicode_values_round_trip():
    delta = TableDelta(
        "Städte", (("Zürich", "χαίρετε"), ("naïve", "🛫✈🛬")),
        (("Ĉiuj", "рейс"),), 12)
    rebuilt = delta_from_payload(
        json.loads(json.dumps(delta_to_payload(delta))))
    assert rebuilt == delta
    assert rebuilt.inserted[1][1] == "🛫✈🛬"
    _roundtrip_block(11, 12, [delta])


def test_db_delta_interleaved_insert_delete_same_key():
    """A block whose deltas insert and delete the same row value (the
    dynamic_db scenario's insert-then-retract gates) must survive with
    order and multiplicity intact."""
    key = ("u1", "u2")
    deltas = [
        TableDelta("G0", (key, key), (), 4),
        TableDelta("G0", (), (key,), 5),
        TableDelta("G0", (key,), (key, key), 6),
    ]
    _roundtrip_block(3, 6, deltas)


def test_db_delta_mixed_scalar_types_round_trip():
    rng = random.Random(7)
    deltas = []
    for version in range(1, 6):
        rows = tuple(
            (rng.randint(-10**9, 10**9), rng.random() * 1e6,
             f"s-{version}", rng.random() < 0.5, None)
            for _ in range(version))
        deltas.append(TableDelta("M", rows, rows[:1], version))
    payload = _roundtrip_block(0, 5, deltas)
    _, _, rebuilt = db_delta_from_payload(
        json.loads(json.dumps(payload)))
    for before, after in zip(deltas, rebuilt):
        for row_before, row_after in zip(before.inserted,
                                         after.inserted):
            assert [type(value) for value in row_after] \
                == [type(value) for value in row_before]


def test_db_delta_rejects_malformed():
    delta = TableDelta("T", (("a",),), (), 1)
    good = db_delta_to_payload(0, 1, [delta])
    with pytest.raises(ParseError):
        db_delta_from_payload(dict(good, wire=99))
    with pytest.raises(ParseError):
        db_delta_from_payload(dict(good, kind="mystery"))
    with pytest.raises(ParseError):
        db_delta_from_payload(dict(good, count=5))
    with pytest.raises(ValidationError):
        delta_to_payload(TableDelta("T", ((object(),),), (), 1))


def test_wire_rejects_unserializable_and_malformed():
    x = Variable("x")
    object_id_query = EntangledQuery(
        query_id=object(),
        head=(atom("R", "a", x),), postconditions=(),
        body=(atom("B", x),))
    with pytest.raises(ValidationError):
        to_payload(object_id_query)

    # Aggregates travel now; an object() id still does not.
    aggregated = EntangledQuery(
        query_id=object(),
        head=(atom("R", "a", x),), postconditions=(),
        body=(atom("B", x),),
        aggregates=(AggregateConstraint(
            atoms=(atom("R", "a", x),),
            answer_relations=frozenset({"R"}), op="<=", threshold=3),))
    with pytest.raises(ValidationError):
        to_payload(aggregated)

    with pytest.raises(ValidationError):
        to_payload("not a query")

    good = to_payload(EntangledQuery(
        query_id="ok", head=(atom("R", "a", x),),
        postconditions=(), body=(atom("B", x),)))
    with pytest.raises(ParseError):
        from_payload(dict(good, wire=99))
    with pytest.raises(ParseError):
        from_payload(dict(good, kind="mystery"))
