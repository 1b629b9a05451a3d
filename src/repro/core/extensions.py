"""Language extensions sketched in the paper's Section 6.

Implemented here, on top of the unmodified core algorithm:

* **Aggregation postconditions** — ``(SELECT COUNT(*) FROM ANSWER A, …
  WHERE …) > n`` constraints (:class:`AggregateConstraint`), checked
  against candidate coordinated outcomes after combined-query
  evaluation (:func:`coordinate_with_aggregates`).
* **Soft preferences / ranking** — a user scoring function over
  coordinated valuations; the evaluator returns the best-ranked
  valuation instead of an arbitrary one
  (:func:`coordinate_with_preferences`).
* **CHOOSE k** multi-answer semantics are handled natively by
  :func:`repro.core.evaluate.coordinate` via each query's ``choose``
  attribute.

The aggregate check is necessarily *post-hoc*: a COUNT over an ANSWER
relation depends on the whole coordinated outcome, so it cannot be
folded into the combined conjunctive query; instead each candidate
valuation's implied answer relation is materialized and the constraint
evaluated against it (plus the database).
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from ..db.database import Database
from ..errors import CoordinationError
from .combine import CombinedQuery, build_combined_query
from .evaluate import (Answer, CoordinationResult, FailureReason,
                       _record_answers)
from .graph import build_unifiability_graph
from .matching import match_all
from .query import EntangledQuery, validate_workload
from .safety import enforce_safety
from .terms import Atom, Constant, Term, Variable

_OPERATORS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


@dataclass(frozen=True, slots=True)
class AggregateConstraint:
    """A COUNT(*) constraint over ANSWER and database relations.

    Attributes:
        atoms: the joined atoms; those whose relation is in
            ``answer_relations`` range over the coordinated answer
            relation contents, the rest over database tables.  Variables
            shared with the owning query are bound by its coordinated
            valuation; the remaining (local) variables are counted over.
        answer_relations: which atom relations are ANSWER relations.
        op: comparison operator.
        threshold: numeric right-hand side.
    """

    atoms: tuple[Atom, ...]
    answer_relations: frozenset
    op: str
    threshold: object

    def rename(self, suffix: str) -> "AggregateConstraint":
        """Rename all variables apart (mirrors Atom.rename)."""
        return AggregateConstraint(
            tuple(atom.rename(suffix) for atom in self.atoms),
            self.answer_relations, self.op, self.threshold)

    def variables(self) -> set[Variable]:
        """All variables mentioned by the constraint's atoms."""
        result: set[Variable] = set()
        for atom in self.atoms:
            result.update(atom.variables())
        return result

    def evaluate(self, database: Database,
                 answer_rows: Mapping[str, Sequence[tuple]],
                 binding: Mapping[Variable, object]) -> bool:
        """Check the constraint for one coordinated outcome.

        Args:
            database: the database for non-ANSWER atoms.
            answer_rows: relation name -> coordinated tuples.
            binding: values for the variables shared with the owning
                query (unbound variables are counted over).
        """
        count = self._count(database, answer_rows, dict(binding),
                            list(self.atoms))
        return _OPERATORS[self.op](count, self.threshold)

    def _count(self, database: Database,
               answer_rows: Mapping[str, Sequence[tuple]],
               binding: dict, atoms: list[Atom]) -> int:
        if not atoms:
            return 1
        atom, rest = atoms[0], atoms[1:]
        if atom.relation in self.answer_relations:
            rows: Sequence[tuple] = tuple(
                dict.fromkeys(answer_rows.get(atom.relation, ())))
        else:
            rows = tuple(database.table(atom.relation).rows())
        total = 0
        for row in rows:
            if len(row) != atom.arity:
                raise CoordinationError(
                    f"aggregate atom {atom} arity mismatch with row {row}")
            extension: dict = {}
            matched = True
            for position, term in enumerate(atom.args):
                value = row[position]
                if isinstance(term, Constant):
                    if term.value != value:
                        matched = False
                        break
                else:
                    bound = binding.get(term, extension.get(term, _UNSET))
                    if bound is _UNSET:
                        extension[term] = value
                    elif bound != value:
                        matched = False
                        break
            if not matched:
                continue
            binding.update(extension)
            total += self._count(database, answer_rows, binding, rest)
            for variable in extension:
                del binding[variable]
        return total

    def __str__(self) -> str:
        inner = " ∧ ".join(str(atom) for atom in self.atoms)
        return f"COUNT{{{inner}}} {self.op} {self.threshold}"


_UNSET = object()


def _combined_queries(
        queries: Sequence[EntangledQuery],
        check_safety: bool,
        result: CoordinationResult) -> tuple[list[CombinedQuery], dict]:
    """Shared front half: validate, repair, partition, match, combine.

    Returns the combined queries plus the renamed-apart queries by id
    (the renamed forms are what the combined valuations' variable names
    refer to, including any aggregate constraints).
    """
    validate_workload(queries)
    working = [query.rename_apart() for query in queries]
    if check_safety:
        safe = enforce_safety(working)
        safe_ids = {query.query_id for query in safe}
        for query in working:
            if query.query_id not in safe_ids:
                result.failures[query.query_id] = FailureReason.UNSAFE
        working = safe
    start = time.perf_counter()
    graph = build_unifiability_graph(working)
    result.timings.graph_seconds = time.perf_counter() - start
    queries_by_id = {query.query_id: query for query in working}

    start = time.perf_counter()
    matches = match_all(graph)
    result.timings.match_seconds = time.perf_counter() - start
    result.matches = matches

    combined_list: list[CombinedQuery] = []
    for match in matches:
        for query_id in match.removed:
            result.failures[query_id] = FailureReason.UNMATCHED
        if not match.survivors:
            continue
        if match.global_unifier is None:
            for query_id in match.survivors:
                result.failures[query_id] = FailureReason.INCONSISTENT
            continue
        combined_list.append(build_combined_query(queries_by_id, match))
    result.combined = combined_list
    return combined_list, queries_by_id


def coordinate_with_aggregates(
        queries: Sequence[EntangledQuery],
        database: Database,
        check_safety: bool = True) -> CoordinationResult:
    """Coordinate, honouring each query's aggregate constraints.

    For every matched component, candidate valuations of the combined
    query are streamed and the first one whose implied answer relation
    satisfies *all* member queries' aggregate constraints is chosen.
    Queries without aggregates behave exactly as under
    :func:`repro.core.evaluate.coordinate`.
    """
    result = CoordinationResult()
    combined_list, queries_by_id = _combined_queries(
        queries, check_safety, result)

    for combined in combined_list:
        start = time.perf_counter()
        chosen = None
        for valuation in database.evaluate(combined.query):
            if _aggregates_hold(database, combined, queries_by_id,
                                valuation):
                chosen = valuation
                break
        result.timings.db_seconds += time.perf_counter() - start
        if chosen is None:
            for query_id in combined.survivors:
                result.failures[query_id] = FailureReason.NO_DATA
        else:
            _record_answers(combined, [chosen], result.answers)
    return result


def _aggregates_hold(database: Database, combined: CombinedQuery,
                     queries_by_id: Mapping, valuation: Mapping) -> bool:
    grounded = combined.ground_heads(valuation)
    answer_rows: dict = {}
    for atoms in grounded.values():
        for atom in atoms:
            values = tuple(term.value for term in atom.args)  # type: ignore[union-attr]
            answer_rows.setdefault(atom.relation, []).append(values)
    # The combined query was simplified: a query variable may have been
    # replaced by its class representative or folded to a constant.  Map
    # every aggregate variable through the global unifier before binding.
    binding = {variable: value for variable, value in valuation.items()}
    substitution = combined.unifier.substitution()
    for query_id in combined.survivors:
        query = queries_by_id[query_id]
        for constraint in query.aggregates:
            local = dict(binding)
            for variable in constraint.variables():
                if variable in local:
                    continue
                representative = substitution.get(variable, variable)
                if isinstance(representative, Constant):
                    local[variable] = representative.value
                elif representative in binding:
                    local[variable] = binding[representative]
            if not constraint.evaluate(database, answer_rows, local):
                return False
    return True


#: A preference function scores one coordinated valuation; higher wins.
PreferenceFunction = Callable[[Mapping], float]


def coordinate_with_preferences(
        queries: Sequence[EntangledQuery],
        database: Database,
        score: PreferenceFunction,
        check_safety: bool = True) -> CoordinationResult:
    """Coordinate, returning the best-scoring valuation per component.

    Implements the paper's "soft preferences / ranking function"
    extension: all coordinated valuations are enumerated and the one
    maximizing *score* is chosen.  Ties break toward the first
    enumerated, keeping results deterministic.
    """
    result = CoordinationResult()
    combined_list, _ = _combined_queries(queries, check_safety, result)

    for combined in combined_list:
        start = time.perf_counter()
        best = None
        best_score = float("-inf")
        for valuation in database.evaluate(combined.query):
            value = score(valuation)
            if value > best_score:
                best, best_score = valuation, value
        result.timings.db_seconds += time.perf_counter() - start
        if best is None:
            for query_id in combined.survivors:
                result.failures[query_id] = FailureReason.NO_DATA
        else:
            _record_answers(combined, [best], result.answers)
    return result
