"""The atom index of paper Section 4.1.4.

Building the unifiability graph naively tries to unify every head atom
with every postcondition atom — quadratic in the workload.  The paper's
index maps ``(Relation, Parameter, Value) -> [atoms]`` where every
variable is replaced by a distinguished wildcard ``Δ``.  A lookup for an
atom ``R(v1 … vn)`` then intersects, over its *constant* positions,
``L(R, i, vi) ∪ L(R, i, Δ)``; atoms with no constants fall back to the
full per-relation bucket.

The index stores opaque *entries* (here ``(query_id, atom_position)``
handles) so the same structure indexes head atoms for postcondition
lookups and postcondition atoms for head lookups.  Candidates returned by
:meth:`lookup` are a superset of the truly unifiable atoms (repeated
variables are not captured by the index), so callers re-verify with
:func:`repro.core.unify.unify_atoms`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Hashable, Iterator

from .terms import Atom, Constant, Variable
from .unify import atoms_unifiable, unify_atoms

#: The wildcard standing for "any variable" in index keys.
DELTA = object()

#: Shared empty bucket (never written).
_EMPTY: dict = {}
#: A narrowing position's bucket size.
_SIZE = itemgetter(0)


class AtomIndex:
    """Index from ``(relation, position, value)`` to atom entries.

    Entries are arbitrary hashable handles chosen by the caller; the atom
    itself is stored alongside so lookups can re-verify unifiability.

    One record per ``(relation, arity)`` holds the bucket of all its
    entries and, per argument position, a map from value (or
    :data:`DELTA`) to a bucket: no key tuple is built on add, remove or
    lookup (DESIGN.md §3).  Buckets are insertion-ordered dicts mapping
    each entry to its global insertion sequence, and :meth:`lookup`
    returns candidates in insertion order.  This makes every graph built
    on the index fully deterministic (set buckets iterate in string-hash
    order, which ``PYTHONHASHSEED`` randomizes across processes) and
    keeps the unifiability graph's provider refs in insertion-rank
    order for free — no sort on the arrival hot path.  An emptied
    bucket is deleted, so an emptied index holds none.
    """

    __slots__ = ("_relations", "_atoms", "_repeating", "_with_variables",
                 "_next_seq")

    def __init__(self) -> None:
        # (relation, arity) -> ({entry: seq}, [per position
        # {value-or-DELTA: {entry: seq}}])
        self._relations: dict[tuple[str, int], tuple] = {}
        self._atoms: dict[Hashable, Atom] = {}
        # What alone can fail a candidate's verification: entries whose
        # atom repeats a variable, and how many atoms have a variable.
        self._repeating: set = set()
        self._with_variables = 0
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._atoms)

    def __contains__(self, entry: Hashable) -> bool:
        return entry in self._atoms

    def atom_for(self, entry: Hashable) -> Atom:
        """Return the atom stored under *entry*."""
        return self._atoms[entry]

    def add(self, entry: Hashable, atom: Atom) -> None:
        """Insert *atom* under a fresh handle *entry*; re-adding a live
        entry raises ``KeyError`` (remove it first)."""
        if entry in self._atoms:
            raise KeyError(f"entry {entry!r} already indexed")
        seq = self._next_seq
        self._next_seq = seq + 1
        self._atoms[entry] = atom
        args = atom.args
        key = (atom.relation, len(args))
        record = self._relations.get(key)
        if record is None:
            record = self._relations[key] = ({}, [{} for _ in args])
        record[0][entry] = seq
        variables = 0
        for by_value, term in zip(record[1], args):
            if isinstance(term, Constant):
                value = term.value
            else:
                value = DELTA
                variables += 1
            bucket = by_value.get(value)
            if bucket is None:
                by_value[value] = {entry: seq}
            else:
                bucket[entry] = seq
        if variables:
            self._with_variables += 1
            if variables > 1 and variables != len(
                    {term for term in args if isinstance(term, Variable)}):
                self._repeating.add(entry)

    def remove(self, entry: Hashable) -> None:
        """Remove the atom stored under *entry* (missing entries ignored)."""
        atom = self._atoms.pop(entry, None)
        if atom is None:
            return
        args = atom.args
        key = (atom.relation, len(args))
        everything, positions = self._relations[key]
        del everything[entry]
        if not everything:
            del self._relations[key]
        variables = False
        for by_value, term in zip(positions, args):
            if isinstance(term, Constant):
                value = term.value
            else:
                value = DELTA
                variables = True
            bucket = by_value[value]
            del bucket[entry]
            if not bucket:
                del by_value[value]
        if variables:
            self._with_variables -= 1
            self._repeating.discard(entry)

    def _candidates(self, probe: Atom):
        """The paper's intersection formula, as an insertion-ordered
        iterable of entries — possibly a live bucket: copy it before
        the index changes."""
        args = probe.args
        record = self._relations.get((probe.relation, len(args)))
        if record is None:
            return _EMPTY
        everything, positions = record
        # Per constant position, its exact and wildcard buckets (disjoint:
        # an atom holds a constant or a variable there), unless together
        # they hold every atom of the relation and so narrow nothing.
        narrowing = []
        for by_value, term in zip(positions, args):
            if isinstance(term, Constant):
                exact = by_value.get(term.value, _EMPTY)
                wild = by_value.get(DELTA, _EMPTY)
                size = len(exact) + len(wild)
                if not size:
                    return _EMPTY
                if size < len(everything):
                    narrowing.append((size, exact, wild))
        if not narrowing:
            return everything
        # Seed from the most selective position and narrow by membership
        # tests — never materialize the exact ∪ wildcard union (the
        # wildcard bucket can hold every pending atom of the relation).
        seed = min(narrowing, key=_SIZE)
        _, exact, wild = seed
        if exact and wild:
            # Merged by insertion sequence: global insertion order.
            merged = {**exact, **wild}
            candidates = sorted(merged, key=merged.__getitem__)
        else:
            candidates = exact or wild
        for pair in narrowing:
            if pair is not seed:
                _, exact, wild = pair
                candidates = [entry for entry in candidates
                              if entry in exact or entry in wild]
        return candidates

    def lookup(self, probe: Atom):
        """Candidate entries whose atoms may unify with *probe*.

        Implements the paper's intersection formula.  For each constant
        position ``i`` of the probe the candidate set is narrowed to
        entries whose atom has either the same constant or a variable at
        position ``i``.  If the probe has no constants, all entries of the
        relation (at matching arity) are candidates.

        Returns a set-like, *insertion-ordered* view (a dict keys view
        of a private copy): it supports membership and set comparisons,
        and iterates in the order the atoms were indexed.
        """
        return dict.fromkeys(self._candidates(probe)).keys()

    def lookup_unifiable(self, probe: Atom) -> list[Hashable]:
        """The entries whose atoms *definitely* unify with *probe*, in
        insertion order.

        Unlike :meth:`lookup`, the result needs no re-verification.  The
        index's candidate formula already enforces relation, arity, and
        per-position constant compatibility; the only cases it cannot
        decide are repeated variables (within an atom) and variables
        shared across the two atoms, so :func:`repro.core.unify.
        unify_atoms` is consulted exactly for those — which workloads
        renamed apart essentially never hit.
        """
        candidates = self._candidates(probe)
        occurrences = [term for term in probe.args
                       if isinstance(term, Variable)]
        variables = set(occurrences)
        apart = len(variables) == len(occurrences)
        repeating = self._repeating
        if apart and not repeating and (
                not variables or not self._with_variables):
            # Nothing repeats and nothing can be shared.
            return [*candidates]
        atoms = self._atoms
        return [entry for entry in candidates
                if (apart and entry not in repeating
                    and variables.isdisjoint(atoms[entry].args))
                or unify_atoms(probe, atoms[entry]) is not None]

    def entries(self) -> Iterator[tuple[Hashable, Atom]]:
        """Yield (entry, atom) pairs currently indexed."""
        return iter(self._atoms.items())


class NaiveAtomIndex:
    """Reference implementation without keys: scans every stored atom.

    Used by tests to validate :class:`AtomIndex` candidate sets and by the
    index ablation benchmark to quantify the speedup the real index buys.
    """

    __slots__ = ("_atoms",)

    def __init__(self) -> None:
        self._atoms: dict[Hashable, Atom] = {}

    def __len__(self) -> int:
        return len(self._atoms)

    def atom_for(self, entry: Hashable) -> Atom:
        return self._atoms[entry]

    def add(self, entry: Hashable, atom: Atom) -> None:
        if entry in self._atoms:
            raise KeyError(f"entry {entry!r} already indexed")
        self._atoms[entry] = atom

    def remove(self, entry: Hashable) -> None:
        self._atoms.pop(entry, None)

    def lookup(self, probe: Atom):
        return {entry: None for entry, atom in self._atoms.items()
                if atoms_unifiable(probe, atom)}.keys()

    def lookup_unifiable(self, probe: Atom) -> list[Hashable]:
        """Same as :meth:`lookup`: the scan already fully verifies."""
        return list(self.lookup(probe))

    def entries(self) -> Iterator[tuple[Hashable, Atom]]:
        return iter(self._atoms.items())
