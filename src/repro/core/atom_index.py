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

from typing import Hashable, Iterator

from .terms import Atom, Constant, Variable
from .unify import atoms_unifiable, unify_atoms

#: The wildcard standing for "any variable" in index keys.
DELTA = object()

#: Shared empty ordered-view result (dict keys views are immutable).
_EMPTY_KEYS = {}.keys()


def variable_profile(atom: Atom) -> tuple[frozenset[Variable], bool]:
    """The variables of *atom*, and whether one occurs at two positions.

    Repeated variables are the one thing the index's candidate formula
    cannot capture; atoms without them (the overwhelmingly common case —
    queries are renamed apart) can skip post-lookup re-verification
    entirely when the probe is also repeat-free.
    """
    occurrences = [term for term in atom.args
                   if isinstance(term, Variable)]
    variables = frozenset(occurrences)
    return variables, len(variables) != len(occurrences)


class AtomIndex:
    """Index from ``(relation, position, value)`` to atom entries.

    Entries are arbitrary hashable handles chosen by the caller; the atom
    itself is stored alongside so lookups can re-verify unifiability.

    Buckets are insertion-ordered dicts mapping each entry to its global
    insertion sequence, and :meth:`lookup` returns candidates in
    insertion order.  This makes every graph built on the index fully
    deterministic (set buckets iterate in string-hash order, which
    ``PYTHONHASHSEED`` randomizes across processes) and keeps the
    unifiability graph's provider refs in insertion-rank order for
    free — no sort on the arrival hot path.
    """

    __slots__ = ("_by_key", "_by_relation", "_atoms", "_repeats",
                 "_vars", "_next_seq")

    def __init__(self) -> None:
        # (relation, position, value-or-DELTA) -> {entry: seq}
        self._by_key: dict[tuple, dict[Hashable, int]] = {}
        # (relation, arity) -> {entry: seq} (for all-variable lookups)
        self._by_relation: dict[tuple[str, int], dict[Hashable, int]] = {}
        # entry -> atom
        self._atoms: dict[Hashable, Atom] = {}
        # entry -> atom has a repeated variable (verification fast path)
        self._repeats: dict[Hashable, bool] = {}
        # entry -> the atom's variable set (verification fast path)
        self._vars: dict[Hashable, frozenset[Variable]] = {}
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._atoms)

    def __contains__(self, entry: Hashable) -> bool:
        return entry in self._atoms

    def atom_for(self, entry: Hashable) -> Atom:
        """Return the atom stored under *entry*."""
        return self._atoms[entry]

    @staticmethod
    def _keys_for(atom: Atom) -> list[tuple]:
        relation, args = atom.relation, atom.args
        arity = len(args)
        return [(relation, arity, position,
                 term.value if isinstance(term, Constant) else DELTA)
                for position, term in enumerate(args)]

    def add(self, entry: Hashable, atom: Atom) -> None:
        """Insert *atom* under a fresh handle *entry*; re-adding a live
        entry raises ``KeyError`` (remove it first)."""
        if entry in self._atoms:
            raise KeyError(f"entry {entry!r} already indexed")
        seq = self._next_seq
        self._next_seq += 1
        self._atoms[entry] = atom
        self._vars[entry], self._repeats[entry] = variable_profile(atom)
        self._by_relation.setdefault(
            (atom.relation, atom.arity), {})[entry] = seq
        for key in self._keys_for(atom):
            self._by_key.setdefault(key, {})[entry] = seq

    def remove(self, entry: Hashable) -> None:
        """Remove the atom stored under *entry* (missing entries ignored)."""
        atom = self._atoms.pop(entry, None)
        if atom is None:
            return
        self._repeats.pop(entry, None)
        self._vars.pop(entry, None)
        bucket = self._by_relation.get((atom.relation, atom.arity))
        if bucket is not None:
            bucket.pop(entry, None)
            if not bucket:
                del self._by_relation[(atom.relation, atom.arity)]
        for key in self._keys_for(atom):
            key_bucket = self._by_key.get(key)
            if key_bucket is not None:
                key_bucket.pop(entry, None)
                if not key_bucket:
                    del self._by_key[key]

    def lookup(self, probe: Atom):
        """Candidate entries whose atoms may unify with *probe*.

        Implements the paper's intersection formula.  For each constant
        position ``i`` of the probe the candidate set is narrowed to
        entries whose atom has either the same constant or a variable at
        position ``i``.  If the probe has no constants, all entries of the
        relation (at matching arity) are candidates.

        Returns a set-like, *insertion-ordered* view (a dict keys view):
        it supports membership and set comparisons, and iterates in the
        order the atoms were indexed.
        """
        relation, args = probe.relation, probe.args
        arity = len(args)
        relation_bucket = self._by_relation.get((relation, arity))
        if not relation_bucket:
            return _EMPTY_KEYS
        empty: dict[Hashable, int] = {}
        by_key = self._by_key
        # Gather the (exact, wildcard) bucket pair per constant position.
        pairs: list[tuple[dict, dict]] = []
        for position, term in enumerate(args):
            if not isinstance(term, Constant):
                continue
            exact = by_key.get((relation, arity, position, term.value),
                               empty)
            wild = by_key.get((relation, arity, position, DELTA), empty)
            if not exact and not wild:
                return _EMPTY_KEYS
            pairs.append((exact, wild))
        if not pairs:
            # All-variable probe: every atom of the relation is a candidate.
            return dict.fromkeys(relation_bucket).keys()
        # Seed from the most selective position and narrow by membership
        # tests — never materialize the exact ∪ wildcard union (the
        # wildcard bucket can hold every pending atom of the relation).
        # An atom has exactly one of {constant, variable} per position,
        # so the seed's exact/wild buckets are disjoint; merging them by
        # insertion sequence restores global insertion order.
        pairs.sort(key=lambda pair: len(pair[0]) + len(pair[1]))
        exact, wild = pairs[0]
        if not wild:
            merged = exact
        elif not exact:
            merged = wild
        else:
            merged = dict(sorted((exact | wild).items(),
                                 key=lambda item: item[1]))
        candidates = dict.fromkeys(merged)
        for exact, wild in pairs[1:]:
            candidates = {entry: None for entry in candidates
                          if entry in exact or entry in wild}
            if not candidates:
                return candidates.keys()
        return candidates.keys()

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
        candidates = self.lookup(probe)
        if not candidates:
            return []
        atoms = self._atoms
        repeats = self._repeats
        probe_vars, probe_repeats = variable_profile(probe)
        if not probe_vars:
            # A ground probe has no variable to repeat or share.
            return [entry for entry in candidates
                    if not repeats[entry]
                    or unify_atoms(probe, atoms[entry]) is not None]
        variables = self._vars
        return [entry for entry in candidates
                if (not probe_repeats and not repeats[entry]
                    and probe_vars.isdisjoint(variables[entry]))
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
