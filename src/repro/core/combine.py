"""Combined-query construction (paper Section 4.2).

After matching, each surviving component is collapsed into one ordinary
conjunctive query ``∧ Hi  <-  ∧ Bi ∧ φ_U`` where ``φ_U`` is the equality
conjunction equivalent to the component's global most general unifier.
Each answer to the combined query is a valuation that simultaneously
grounds every constituent query's head — i.e. a coordinated answer.

Two forms are produced:

* the *raw* form — original atoms plus explicit equality comparisons —
  which mirrors the paper's construction verbatim; and
* the *simplified* form — the global unifier's substitution applied to
  every atom, making the equalities vacuous (the paper's final example:
  ``T(1) ∧ R(x1) ∧ S(x2) <- D1(x1,x2,x3) ∧ D2(x1) ∧ D3(1,x2)``).

The simplified form is what gets sent to the database; the raw form is
derived on demand (:attr:`CombinedQuery.raw_query`) for display and for
the tests that verify the two are equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from ..db.expression import Comparison, ConjunctiveQuery
from ..errors import CoordinationError
from .matching import ComponentMatch
from .query import EntangledQuery
from .terms import Constant, Term, Variable
from .unify import Unifier


@dataclass(frozen=True, slots=True)
class CombinedQuery:
    """The single query standing for a whole matched component.

    Attributes:
        survivors: query ids, in arrival order, that the query answers.
        heads: per query id, its head atoms after simplification — these
            are grounded by each valuation of ``query``.
        query: the simplified conjunctive query over database relations.
        choose: valuations to fetch (the survivors' largest ``CHOOSE``).
        unifier: the component's global most general unifier.
        members: the survivors' queries, in ``survivors`` order.
        aggregates: the survivors' §6 aggregate constraints under the
            same substitution as ``heads``; a valuation is kept only if
            its grounding satisfies all of them (empty for most
            workloads).
    """

    survivors: tuple
    heads: dict
    query: ConjunctiveQuery
    choose: int
    unifier: Unifier
    members: tuple = field(repr=False)
    aggregates: tuple

    @property
    def raw_query(self) -> ConjunctiveQuery:
        """The unsimplified form: original bodies plus φ_U as explicit
        equality comparisons."""
        phi = tuple(Comparison(left, "=", right)
                    for left, right in self.unifier.equality_pairs())
        return ConjunctiveQuery(
            tuple(atom for query in self.members for atom in query.body),
            tuple(comparison for query in self.members
                  for comparison in query.body_comparisons) + phi)

    def ground_heads(self, valuation: Mapping[Variable, object]) -> dict:
        """See :func:`ground_heads`."""
        return ground_heads(self.heads, valuation)


def ground_heads(heads: Mapping,
                 valuation: Mapping[Variable, object]) -> dict:
    """Ground every survivor's heads under a combined-query valuation.

    *heads* is :attr:`CombinedQuery.heads`.  Returns ``{query_id:
    (Atom, ...)}`` with fully ground atoms.  Raises CoordinationError if
    the valuation leaves a head variable unbound (which would indicate a
    range-restriction bug upstream).
    """
    # (Only head variables become Constants; body variables never do.)
    mapping: dict[Variable, Term] = {}
    result: dict = {}
    for query_id, atoms in heads.items():
        for atom in atoms:
            for term in atom.args:
                if isinstance(term, Variable) and term in valuation:
                    mapping[term] = Constant(valuation[term])
        grounded = tuple([atom.substitute(mapping) for atom in atoms])
        for atom in grounded:
            if not atom.is_ground():
                raise CoordinationError(
                    f"combined-query valuation does not ground head "
                    f"{atom} of query {query_id!r}")
        result[query_id] = grounded
    return result


def build_combined_query(
        queries: Mapping,
        match: ComponentMatch,
        restrict_to: Optional[Sequence] = None) -> CombinedQuery:
    """Build the combined query for a matched component.

    *queries* maps query ids to :class:`EntangledQuery`.  By default the
    combined query covers all of ``match.survivors``; *restrict_to*
    narrows it to a subset (used by the UCS-aware fallback, which retries
    on strongly connected cores).

    Raises CoordinationError when the component has no consistent global
    unifier — the paper rejects the whole component in that case.
    """
    if restrict_to is None:
        members = list(match.survivors)
        unifier = match.global_unifier
    else:
        member_set = set(restrict_to)
        members = [query_id for query_id in match.survivors
                   if query_id in member_set]
        from .unify import mgu_all
        unifier = mgu_all(match.unifiers[query_id] for query_id in members)
    if unifier is None:
        raise CoordinationError(
            "component has no consistent global unifier; "
            "all queries in it are rejected")
    if not members:
        raise CoordinationError("no surviving queries to combine")

    member_queries = tuple([queries[query_id] for query_id in members])

    # Simplified form: substitute class representatives everywhere, which
    # realises φ_U structurally (equated variables collapse; variables
    # equated with constants become those constants).  Body comparisons
    # keep their shape — substituted, they become sargable bounds the
    # executor pushes into ordered-index windows.
    substitution = unifier.substitution()
    simplified = ConjunctiveQuery(
        tuple([atom.substitute(substitution)
               for query in member_queries for atom in query.body]),
        tuple([comparison.substitute(substitution)
               for query in member_queries
               for comparison in query.body_comparisons]))

    heads = {
        query.query_id: tuple([atom.substitute(substitution)
                               for atom in query.head])
        for query in member_queries
    }
    return CombinedQuery(
        tuple(members), heads, simplified,
        max([query.choose for query in member_queries]), unifier,
        member_queries,
        tuple([constraint.substitute(substitution)
               for query in member_queries
               for constraint in query.aggregates]))
