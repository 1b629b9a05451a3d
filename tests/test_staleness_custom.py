"""Expiry-sweep coverage for custom staleness policies.

The engine sweeps deadline-bearing policies in O(expired) off its
expiry heap; a *custom* subclass inherits ``requires_full_scan = True``
and must be swept by testing every pending query.  That fallback path —
and the heap's re-push branch for policies whose deadlines drift —
were untested (the stock policies all take the heap fast path).
"""

from __future__ import annotations

from typing import Optional

from repro.core.query import EntangledQuery
from repro.core.terms import Variable, atom
from repro.engine.engine import D3CEngine
from repro.engine.staleness import ManualClock, StalenessPolicy


def make_pair(query_id_left, query_id_right, left, right, destination):
    """A mutually coordinating specific pair (inlined conftest helper;
    `import conftest` is ambiguous in full-suite runs)."""
    queries = []
    for query_id, user, partner in ((query_id_left, left, right),
                                    (query_id_right, right, left)):
        town = Variable("c")
        queries.append(EntangledQuery(
            query_id=query_id,
            head=(atom("R", user, destination),),
            postconditions=(atom("R", partner, destination),),
            body=(atom("F", user, partner), atom("U", user, town),
                  atom("U", partner, town))))
    return queries


class OwnerBlocklist(StalenessPolicy):
    """Expires queries by owner — no deadlines, no candidate marks, so
    the engine must fall back to the full pending scan."""

    def __init__(self) -> None:
        self.blocked: set = set()
        self.calls = 0

    def is_stale(self, query: EntangledQuery, submitted_at: float,
                 now: float) -> bool:
        self.calls += 1
        return query.owner in self.blocked


class DriftingDeadline(StalenessPolicy):
    """A deadline-bearing policy whose effective timeout *grows* after
    submission: heap entries come due before ``is_stale`` agrees, which
    exercises the pop-but-not-stale re-push branch of
    ``D3CEngine._due_candidates``."""

    requires_full_scan = False

    def __init__(self, initial: float, extended: float):
        self.initial = initial
        self.timeout = extended

    def deadline(self, query: EntangledQuery,
                 submitted_at: float) -> Optional[float]:
        return submitted_at + self.initial

    def is_stale(self, query: EntangledQuery, submitted_at: float,
                 now: float) -> bool:
        return now - submitted_at > self.timeout


def _pending_pairs(engine, count):
    queries = []
    for index in range(count):
        queries += make_pair(f"fs{index}-a", f"fs{index}-b",
                             f"nobody{index}", f"nobody{index}x", "ITH")
    for position, query in enumerate(queries):
        object.__setattr__(query, "owner", f"owner-{position % 2}")
        engine.submit(query)
    return queries


def test_full_scan_policy_expires_marked_owners(small_flight_db):
    policy = OwnerBlocklist()
    assert policy.requires_full_scan  # the inherited default
    clock = ManualClock()
    engine = D3CEngine(small_flight_db, mode="batch", staleness=policy,
                       clock=clock)
    _pending_pairs(engine, 3)
    assert engine.pending_count == 6

    # Nothing blocked yet: the sweep scans all six and expires none.
    policy.calls = 0
    assert engine.expire_stale() == 0
    assert policy.calls == 6

    policy.blocked.add("owner-0")
    assert engine.expire_stale() == 3
    remaining = engine.pending_ids()
    assert len(remaining) == 3
    # Expired queries left the graph: their partners' partitions split.
    assert engine.partition_sizes() == [1, 1, 1]

    tickets_failed = engine.stats.failed
    from repro.core.evaluate import FailureReason
    assert tickets_failed[FailureReason.STALE] == 3

    policy.blocked.add("owner-1")
    assert engine.expire_stale() == 3
    assert engine.pending_count == 0


def test_full_scan_expiry_in_arrival_order(small_flight_db):
    """The fallback scan dooms queries in pending (arrival) order."""
    policy = OwnerBlocklist()
    clock = ManualClock()
    engine = D3CEngine(small_flight_db, mode="batch", staleness=policy,
                       clock=clock)
    _pending_pairs(engine, 2)
    policy.blocked.update({"owner-0", "owner-1"})
    settled: list = []
    for query_id, (_, ticket) in engine._pending.items():
        ticket.add_callback(
            lambda t: settled.append(t.query_id))
    assert engine.expire_stale() == 4
    assert settled == ["fs0-a", "fs0-b", "fs1-a", "fs1-b"]


def test_drifting_deadlines_repush_instead_of_expiring(small_flight_db):
    policy = DriftingDeadline(initial=1.0, extended=3.0)
    clock = ManualClock()
    engine = D3CEngine(small_flight_db, mode="batch", staleness=policy,
                       clock=clock)
    _pending_pairs(engine, 2)
    assert len(engine._expiry_heap) == 4

    # Past the heap deadline but inside the drifted timeout: the sweep
    # pops the due entries, finds them not stale, and re-schedules.
    clock.advance(1.5)
    assert engine.expire_stale() == 0
    assert engine.pending_count == 4
    assert len(engine._expiry_heap) == 4

    clock.advance(2.0)  # now past the drifted timeout
    assert engine.expire_stale() == 4
    assert engine.pending_count == 0
