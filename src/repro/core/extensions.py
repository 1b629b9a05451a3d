"""The paper's Section 6 aggregation constraints.

An aggregation postcondition — ``(SELECT COUNT(*) FROM ANSWER A, …
WHERE …) > n`` — is an :class:`AggregateConstraint` carried on its
query (``EntangledQuery.aggregates``).  Matching ignores it: a COUNT
over an ANSWER relation depends on the whole coordinated outcome, so it
cannot be folded into the combined conjunctive query.
:func:`repro.core.combine.build_combined_query` maps each survivor's
constraints through the component's global unifier, as it maps body
atoms, and the one valuation choice point
(:func:`repro.core.evaluate._pick_valuations`, behind ``coordinate()``
and every engine) keeps only valuations whose grounding satisfies every
survivor's constraints.  So every service shape honours them, and the
wire format carries them (:func:`repro.dataio.to_payload`).

``CHOOSE k`` is handled natively through each query's ``choose``
attribute; the staleness extension lives in
:mod:`repro.engine.staleness`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..db.database import Database
from ..errors import CoordinationError
from .terms import Atom, Constant, Term, Variable

#: The comparisons an aggregate's count may be held to.
OPERATORS = {
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

    def substitute(self, mapping: Mapping[Variable, Term]
                   ) -> "AggregateConstraint":
        """Apply a substitution to every atom (mirrors Atom.substitute)."""
        return AggregateConstraint(
            tuple([atom.substitute(mapping) for atom in self.atoms]),
            self.answer_relations, self.op, self.threshold)

    def variables(self) -> set[Variable]:
        """All variables mentioned by the constraint's atoms."""
        result: set[Variable] = set()
        for atom in self.atoms:
            result.update(atom.variables())
        return result

    def database_atoms(self) -> tuple[Atom, ...]:
        """The atoms the constraint's count reads from database
        tables."""
        return tuple(atom for atom in self.atoms
                     if atom.relation not in self.answer_relations)

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
        return OPERATORS[self.op](count, self.threshold)

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
