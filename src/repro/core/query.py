"""The intermediate representation of entangled queries (paper §2.2).

An entangled query has the form ``{C} H <- B``:

* ``C`` (*postconditions*) — conjunction of atoms over ANSWER relations
  that *other* queries' answers must provide;
* ``H`` (*head*) — conjunction of atoms over ANSWER relations that this
  query contributes to the answer relation;
* ``B`` (*body*) — a conjunctive query over ordinary database relations
  that binds the variables used in ``H`` and ``C``.

All variables appearing in ``H`` or ``C`` must also appear in ``B``
(range restriction); :func:`EntangledQuery.validate` enforces this.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Optional, Sequence

from ..errors import ValidationError
from .terms import Atom, Constant, Term, Variable, variables_of


@dataclass(frozen=True, slots=True)
class EntangledQuery:
    """Immutable IR of one entangled query.

    Attributes:
        query_id: workload-unique identifier (assigned by the caller or by
            :func:`assign_ids`); used as the node key in the unifiability
            graph and to route answers back to submitters.
        head: the atoms this query contributes to ANSWER relations.
        postconditions: the atoms this query requires from partners.
        body: conjunctive atoms over database relations.
        choose: how many coordinated answers the submitter wants
            (``CHOOSE k``; the paper fixes ``k = 1``, the ``k > 1``
            extension of Section 6 is supported by the evaluator).
        owner: opaque tag identifying the submitting client (optional).
        aggregates: Section 6 aggregation constraints
            (:class:`repro.core.extensions.AggregateConstraint`);
            ignored by matching, enforced where every shape picks a
            valuation (:func:`repro.core.evaluate._pick_valuations`).
        body_comparisons: comparison predicates
            (:class:`repro.db.expression.Comparison`) over body
            variables — deadline sweeps, tenant ranges, and other
            inequality constraints.  They ride into the combined
            query's comparisons, where the ordered-index pushdown
            serves them; matching and safety ignore them (they only
            filter data, never change unifiability).
    """

    query_id: object
    head: tuple[Atom, ...]
    postconditions: tuple[Atom, ...]
    body: tuple[Atom, ...]
    choose: int = 1
    owner: object = None
    aggregates: tuple = ()
    body_comparisons: tuple = ()

    def __post_init__(self) -> None:
        for name in ("head", "postconditions", "body",
                     "body_comparisons"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        if self.choose < 1:
            raise ValidationError(
                f"query {self.query_id!r}: CHOOSE must be >= 1, "
                f"got {self.choose}")

    # ------------------------------------------------------------------
    # structural accessors
    # ------------------------------------------------------------------

    @property
    def pccount(self) -> int:
        """Number of postcondition atoms (PCCOUNT in the paper)."""
        return len(self.postconditions)

    def answer_relations(self) -> set[str]:
        """Names of ANSWER relations this query mentions."""
        return {atom.relation for atom in
                itertools.chain(self.head, self.postconditions)}

    def body_relations(self) -> set[str]:
        """Names of database relations this query's body mentions."""
        return {atom.relation for atom in self.body}

    def variables(self) -> set[Variable]:
        """All variables appearing anywhere in the query."""
        return variables_of(itertools.chain(
            self.head, self.postconditions, self.body))

    def head_variables(self) -> set[Variable]:
        """Variables appearing in the head or postconditions."""
        return variables_of(itertools.chain(self.head, self.postconditions))

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural well-formedness; raise ValidationError if bad.

        Enforced requirements (paper Section 2.2):

        * at least one head atom — a query must contribute something;
        * range restriction — every variable of the head and the
          postconditions occurs in the body;
        * answer relations and body relations are disjoint (an atom cannot
          be both a coordination constraint and a data constraint).
        """
        if not self.head:
            raise ValidationError(
                f"query {self.query_id!r} has no head atoms")
        body_vars = {term for item in self.body for term in item.args
                     if isinstance(term, Variable)}
        answer = (*self.head, *self.postconditions)
        unbound = {term for item in answer for term in item.args
                   if isinstance(term, Variable) and term not in body_vars}
        if unbound:
            names = ", ".join(sorted(variable.name for variable in unbound))
            raise ValidationError(
                f"query {self.query_id!r} violates range restriction: "
                f"variables {{{names}}} appear in the head or "
                f"postconditions but not in the body")
        overlap = {item.relation for item in answer} & {
            item.relation for item in self.body}
        if overlap:
            names = ", ".join(sorted(overlap))
            raise ValidationError(
                f"query {self.query_id!r} uses relation(s) {{{names}}} "
                f"both as ANSWER and as database relations")
        for comparison in self.body_comparisons:
            loose = comparison.variables() - body_vars
            if loose:
                names = ", ".join(sorted(v.name for v in loose))
                raise ValidationError(
                    f"query {self.query_id!r}: body comparison "
                    f"{comparison} references variables {{{names}}} "
                    f"not bound by any body atom")

    # ------------------------------------------------------------------
    # renaming apart
    # ------------------------------------------------------------------

    def rename_apart(self, tag: str | None = None) -> "EntangledQuery":
        """Return a copy whose variables are suffixed with a unique tag.

        Unifier propagation requires that no variable appear in more than
        one query (paper Section 4.1.3).  The default tag is derived from
        the query id.  One pass renames the atoms, with one shared memo
        interning the renamed variables: a variable occurring throughout
        the head, postconditions, and body is allocated (and its hash
        computed) exactly once — measurable on ingestion-heavy workloads,
        where every submit renames its query apart.  A query whose every
        variable already carries the suffix is returned as is.
        """
        suffix = f"@{tag if tag is not None else self.query_id}"
        memo: dict = {}
        suffixed = True
        renamed: list[tuple] = []
        for atoms in (self.head, self.postconditions, self.body):
            into = []
            for item in atoms:
                args = []
                changed = False
                for term in item.args:
                    if isinstance(term, Variable):
                        changed = True
                        fresh = memo.get(term)
                        if fresh is None:
                            suffixed = suffixed and term.name.endswith(suffix)
                            fresh = memo[term] = Variable(term.name + suffix)
                        term = fresh
                    args.append(term)
                into.append(Atom(item.relation, tuple(args)) if changed
                            else item)
            renamed.append(tuple(into))
        if suffixed:
            return self
        return EntangledQuery(
            self.query_id, *renamed, self.choose, self.owner,
            tuple([constraint.rename(suffix)
                   for constraint in self.aggregates]),
            tuple([item.rename(suffix, memo)
                   for item in self.body_comparisons]))

    # ------------------------------------------------------------------
    # grounding (used by the brute-force baseline and the semantics tests)
    # ------------------------------------------------------------------

    def ground(self, valuation: dict[Variable, Constant]) -> "GroundedQuery":
        """Apply a valuation, producing a grounding (paper Section 2.3).

        The valuation must bind every variable of the head and
        postconditions; the body is discarded, as the paper notes the
        bodies of groundings are no longer needed.
        """
        mapping: dict[Variable, Term] = dict(valuation)
        head = tuple(item.substitute(mapping) for item in self.head)
        postconditions = tuple(item.substitute(mapping)
                               for item in self.postconditions)
        for item in itertools.chain(head, postconditions):
            if not item.is_ground():
                raise ValidationError(
                    f"valuation does not ground query {self.query_id!r}: "
                    f"{item} still contains variables")
        return GroundedQuery(self.query_id, head, postconditions)

    def __str__(self) -> str:
        parts = []
        if self.postconditions:
            parts.append("{" + " ∧ ".join(str(item) for item
                                          in self.postconditions) + "}")
        else:
            parts.append("{}")
        parts.append(" ∧ ".join(str(item) for item in self.head))
        rendered = f"{parts[0]} {parts[1]}"
        if self.body or self.body_comparisons:
            conjuncts = [str(item) for item in self.body]
            conjuncts.extend(str(item) for item in self.body_comparisons)
            rendered += " <- " + " ∧ ".join(conjuncts)
        return rendered


@dataclass(frozen=True, slots=True)
class GroundedQuery:
    """A grounding: a query with variables replaced by constants.

    Groundings are the elements of the set ``G`` in the semantics of
    Section 2.3; a *coordinating set* is a subset of ``G`` with at most
    one grounding per query whose heads jointly cover all postconditions.
    """

    query_id: object
    head: tuple[Atom, ...]
    postconditions: tuple[Atom, ...]

    def __str__(self) -> str:
        post = " ∧ ".join(str(item) for item in self.postconditions)
        head = " ∧ ".join(str(item) for item in self.head)
        return f"{{{post}}} {head}"


def is_coordinating_set(groundings: Sequence[GroundedQuery]) -> bool:
    """Check the coordinating-set property of paper Section 2.3.

    True iff (a) the set contains at most one grounding per query and
    (b) the union of all head atoms contains every postcondition atom.
    """
    seen_queries: set[object] = set()
    for grounding in groundings:
        if grounding.query_id in seen_queries:
            return False
        seen_queries.add(grounding.query_id)
    heads: set[Atom] = set()
    for grounding in groundings:
        heads.update(grounding.head)
    for grounding in groundings:
        for postcondition in grounding.postconditions:
            if postcondition not in heads:
                return False
    return True


def assign_ids(queries: Iterable[EntangledQuery],
               start: int = 0) -> list[EntangledQuery]:
    """Return copies of *queries* with sequential integer ids from *start*.

    Convenient for workload generators that build anonymous query shapes.
    """
    result = []
    for index, query in enumerate(queries, start):
        result.append(replace(query, query_id=index))
    return result


def validate_workload(queries: Sequence[EntangledQuery]) -> None:
    """Validate every query and check ids are unique."""
    seen: set[object] = set()
    for query in queries:
        query.validate()
        if query.query_id in seen:
            raise ValidationError(
                f"duplicate query id {query.query_id!r} in workload")
        seen.add(query.query_id)


def rename_workload_apart(
        queries: Sequence[EntangledQuery]) -> list[EntangledQuery]:
    """Rename every query's variables apart from every other query's."""
    return [query.rename_apart() for query in queries]
