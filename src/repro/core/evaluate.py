"""End-to-end coordinated query answering (paper Section 4).

:func:`coordinate` is the set-at-a-time entry point: given a workload of
entangled queries and a database, it

1. validates and renames the queries apart;
2. optionally enforces safety (the paper's admission repair);
3. builds the unifiability graph and partitions it;
4. matches each component (Algorithm 1);
5. combines each fully matched component into one conjunctive query;
6. evaluates the combined query on the database (``LIMIT k``, after
   dropping valuations that violate a §6 aggregate) and splits each
   valuation into per-query answers.

Timing of the matching phase versus the database phase is recorded
separately because Figure 7 of the paper reports exactly that split.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Sequence

from ..db.database import Database
from .combine import CombinedQuery, build_combined_query, ground_heads
from .graph import UnifiabilityGraph, build_unifiability_graph
from .matching import ComponentMatch, match_component, match_all
from .query import EntangledQuery, validate_workload
from .safety import enforce_safety
from .terms import Atom
from .ucs import check_ucs_graph


class FailureReason(Enum):
    """Why a query went unanswered in a coordination round."""

    UNMATCHED = "unmatched"              # removed by Algorithm 1 cleanup
    INCONSISTENT = "inconsistent"        # component global MGU failed
    NO_DATA = "no_data"                  # combined query returned no rows
    UNSAFE = "unsafe"                    # dropped by the safety repair
    STALE = "stale"                      # expired in the engine


@dataclass(frozen=True, slots=True)
class Answer:
    """A coordinated answer for one entangled query.

    Attributes:
        query_id: the answered query.
        rows: per ANSWER relation, the tuples this query received; with
            ``CHOOSE 1`` each relation holds one tuple per head atom.
        choices: how many coordinated choices were returned (= CHOOSE k).
    """

    query_id: object
    rows: dict
    choices: int = 1

    @classmethod
    def from_head_groundings(cls, query_id: object,
                             groundings: Sequence[tuple[Atom, ...]]
                             ) -> "Answer":
        """Build an answer from one or more ground head-atom tuples."""
        rows: dict = {}
        for grounded_heads in groundings:
            for atom in grounded_heads:
                rows.setdefault(atom.relation, []).append(
                    tuple([term.value for term in atom.args]))
        return cls(query_id=query_id, rows=rows,
                   choices=len(groundings))


@dataclass(slots=True)
class PhaseTimings:
    """Wall-clock seconds spent per phase of a coordination round."""

    graph_seconds: float = 0.0
    match_seconds: float = 0.0
    db_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.graph_seconds + self.match_seconds + self.db_seconds


@dataclass(slots=True)
class CoordinationResult:
    """Outcome of one coordination round.

    Attributes:
        answers: query id -> :class:`Answer` for every answered query.
        failures: query id -> :class:`FailureReason` for the rest.
        matches: the per-component matching outcomes (diagnostics).
        combined: the combined queries evaluated (diagnostics).
        timings: phase timing breakdown.
    """

    answers: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)
    matches: list = field(default_factory=list)
    combined: list = field(default_factory=list)
    timings: PhaseTimings = field(default_factory=PhaseTimings)

    @property
    def answered_ids(self) -> set:
        return set(self.answers)

    @property
    def unanswered_ids(self) -> set:
        return set(self.failures)


def _evaluate_component(
        queries_by_id: Mapping,
        graph: UnifiabilityGraph,
        match: ComponentMatch,
        database: Database,
        result: CoordinationResult,
        rng: Optional[random.Random],
        ucs_fallback: bool,
        order: Mapping) -> None:
    """Combine, evaluate and record answers for one matched component."""
    for query_id in match.removed:
        result.failures[query_id] = FailureReason.UNMATCHED
    if not match.survivors:
        return
    if match.global_unifier is None:
        for query_id in match.survivors:
            result.failures[query_id] = FailureReason.INCONSISTENT
        return

    combined = build_combined_query(queries_by_id, match)
    result.combined.append(combined)
    choose = combined.choose

    start = time.perf_counter()
    valuations = _pick_valuations(database, combined, choose, rng)
    result.timings.db_seconds += time.perf_counter() - start

    if valuations:
        _record_answers(combined, valuations, result.answers)
        return

    if ucs_fallback:
        report = check_ucs_graph(graph, set(match.survivors))
        handled: set = set()
        for core in report.cores:
            core_match = match_component(graph, core, order=dict(order))
            if not core_match.is_answerable:
                continue
            core_combined = build_combined_query(queries_by_id, core_match)
            start = time.perf_counter()
            core_valuations = _pick_valuations(
                database, core_combined, choose, rng)
            result.timings.db_seconds += time.perf_counter() - start
            if core_valuations:
                result.combined.append(core_combined)
                _record_answers(core_combined, core_valuations,
                                result.answers)
                handled.update(core_combined.survivors)
        for query_id in match.survivors:
            if query_id not in handled:
                result.failures[query_id] = FailureReason.NO_DATA
        return

    for query_id in match.survivors:
        result.failures[query_id] = FailureReason.NO_DATA


def _pick_valuations(database: Database, combined: CombinedQuery,
                     choose: int, rng: Optional[random.Random]) -> list:
    """The one valuation choice point: up to *choose* valuations of
    *combined* (a ``CombinedQuery``, or the ``Attempt`` retained of
    one); with an rng, a uniform sample.

    ``CHOOSE 1`` semantics say the tuple "should be chosen at random";
    deterministic callers (and the benchmarks) pass ``rng=None`` to take
    the first valuations the executor produces, which is the paper's
    ``LIMIT 1`` optimization.  A valuation whose grounding violates
    one of the survivors' §6 aggregates is skipped, so with aggregates
    the stream is filtered before the first k (or the sample) are taken.
    """
    aggregates = combined.aggregates
    if rng is None and not aggregates:
        return list(database.evaluate(combined.query, limit=choose))
    stream = database.evaluate(combined.query)
    if aggregates:
        stream = (valuation for valuation in stream
                  if _aggregates_hold(database, combined, valuation))
    if rng is None:
        return list(itertools.islice(stream, choose))
    # Reservoir sampling of `choose` valuations from the full stream.
    reservoir: list = []
    for count, valuation in enumerate(stream):
        if len(reservoir) < choose:
            reservoir.append(valuation)
        else:
            slot = rng.randint(0, count)
            if slot < choose:
                reservoir[slot] = valuation
    return reservoir


def _aggregates_hold(database: Database, combined,
                     valuation: Mapping) -> bool:
    """True iff the coordinated outcome *valuation* grounds satisfies
    every aggregate of *combined*: each counts over the ANSWER tuples
    of that grounding (all survivors' heads) plus the database."""
    answer_rows = Answer.from_head_groundings(None, list(
        ground_heads(combined.heads, valuation).values())).rows
    return all(constraint.evaluate(database, answer_rows, valuation)
               for constraint in combined.aggregates)


def _record_answers(combined, valuations: list, answers: dict) -> None:
    # *combined*: a CombinedQuery, or the Attempt retained of one.
    per_query: dict = {query_id: [] for query_id in combined.heads}
    for valuation in valuations:
        grounded = ground_heads(combined.heads, valuation)
        for query_id, atoms in grounded.items():
            per_query[query_id].append(atoms)
    for query_id, groundings in per_query.items():
        answers[query_id] = Answer.from_head_groundings(
            query_id, groundings)


def coordinate(queries: Sequence[EntangledQuery],
               database: Database,
               check_safety: bool = True,
               rng: Optional[random.Random] = None,
               ucs_fallback: bool = False,
               use_index: bool = True) -> CoordinationResult:
    """Answer a set of entangled queries together (set-at-a-time mode).

    Args:
        queries: the workload; ids must be unique.
        database: substrate holding the database relations.
        check_safety: run the paper's safety repair first; dropped queries
            fail with :data:`FailureReason.UNSAFE`.
        rng: optional randomness source for CHOOSE's random-tuple
            semantics; None takes the executor's first valuations.
        ucs_fallback: when a whole component cannot coordinate on the
            data, retry its strongly connected cores separately (fixes
            the Figure 3(b) situation; extension, off by default).
        use_index: build the unifiability graph with the atom index
            (disable only for the ablation benchmark).

    Returns a :class:`CoordinationResult` with answers, failures, and
    phase timings.
    """
    validate_workload(queries)
    result = CoordinationResult()

    working = [query.rename_apart() for query in queries]
    if check_safety:
        safe = enforce_safety(working)
        safe_ids = {query.query_id for query in safe}
        for query in working:
            if query.query_id not in safe_ids:
                result.failures[query.query_id] = FailureReason.UNSAFE
        working = safe

    start = time.perf_counter()
    graph = build_unifiability_graph(working, use_index=use_index)
    result.timings.graph_seconds = time.perf_counter() - start

    order = {query_id: position
             for position, query_id in enumerate(graph.query_ids())}
    queries_by_id = {query.query_id: query for query in working}

    start = time.perf_counter()
    matches = match_all(graph)
    result.timings.match_seconds = time.perf_counter() - start
    result.matches = matches

    # Matched components are independent (paper §4.1.2) and come in
    # arrival order, which is the order their outcomes are recorded in.
    for match in matches:
        _evaluate_component(queries_by_id, graph, match, database,
                            result, rng, ucs_fallback, order)
    return result
