"""Unifiers and most-general-unifier computation (paper Section 4.1.3).

A *unifier* is a constraint on valuations: formally, a partition of a
subset of ``Val`` (all constants and variables occurring in the workload)
containing **at most one constant per class**.  The unifier
``{{x, 3}, {y, z}}`` permits exactly the valuations in which ``x = 3`` and
``y = z``.

This module implements unifiers on top of a disjoint-set forest with union
by rank and path compression, giving the paper's expected ``O(k · α(k))``
bound for merging unifiers that jointly mention ``k`` distinct terms.

The public surface:

* :class:`Unifier` — a mutable union-find keyed by :class:`Term`;
* :func:`mgu` — most general unifier of two unifiers (or ``None``);
* :func:`unify_atoms` — most general unifier of two atoms (or ``None``);
* :func:`atoms_unifiable` — the cheap syntactic check used while building
  the unifiability graph.

``None`` consistently means "no unifier exists"; the empty
:class:`Unifier` means "no constraints".
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .terms import Atom, Constant, Term, Variable


class Unifier:
    """A partition of terms with at most one constant per class.

    Internally a union-find forest over :class:`Term` nodes.  Constants are
    ordinary nodes, but each class remembers its constant (if any); a merge
    that would put two distinct constants into one class fails.

    The structure is mutable — :meth:`merge` and :meth:`update` modify it
    in place and report success — because Algorithm 1 repeatedly refines
    node unifiers.  Use :meth:`copy` where value semantics are needed.
    """

    __slots__ = ("_parent", "_rank", "_class_constant", "_canonical")

    def __init__(self) -> None:
        self._parent: dict[Term, Term] = {}
        self._rank: dict[Term, int] = {}
        # representative term -> the Constant known for its class, if any
        self._class_constant: dict[Term, Constant] = {}
        # Cached canonical fingerprint (the frozenset of non-singleton
        # classes); invalidated whenever a merge actually unions two
        # classes.  Algorithm 1 compares unifiers on every propagation
        # step, so keeping this warm removes the dominant re-canonicalize
        # cost from the matching hot loop.
        self._canonical: Optional[frozenset[frozenset[Term]]] = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Term, Term]]) -> Optional["Unifier"]:
        """Build a unifier equating each pair, or None on constant clash.

        >>> x, y = Variable("x"), Variable("y")
        >>> u = Unifier.from_pairs([(x, Constant(3)), (y, x)])
        >>> u.constant_of(y)
        Constant(3)
        """
        unifier = cls()
        for left, right in pairs:
            if not unifier.merge(left, right):
                return None
        return unifier

    @classmethod
    def from_classes(cls, classes: Iterable[Iterable[Term]]) -> Optional["Unifier"]:
        """Build a unifier from explicit equivalence classes.

        Returns None if any class would contain two distinct constants.
        """
        unifier = cls()
        for group in classes:
            members = list(group)
            for other in members[1:]:
                if not unifier.merge(members[0], other):
                    return None
        return unifier

    def copy(self) -> "Unifier":
        """Return an independent copy of this unifier."""
        clone = Unifier()
        clone._parent = dict(self._parent)
        clone._rank = dict(self._rank)
        clone._class_constant = dict(self._class_constant)
        clone._canonical = self._canonical
        return clone

    def __len__(self) -> int:
        """Number of terms mentioned (size of the union-find forest)."""
        return len(self._parent)

    # ------------------------------------------------------------------
    # union-find core
    # ------------------------------------------------------------------

    def _ensure(self, term: Term) -> None:
        if term not in self._parent:
            self._parent[term] = term
            self._rank[term] = 0
            if isinstance(term, Constant):
                self._class_constant[term] = term

    def find(self, term: Term) -> Term:
        """Return the class representative of *term* (itself if unseen)."""
        if term not in self._parent:
            return term
        # Iterative find with full path compression.
        root = term
        while self._parent[root] is not root:
            root = self._parent[root]
        while self._parent[term] is not root:
            self._parent[term], term = root, self._parent[term]
        return root

    def merge(self, left: Term, right: Term) -> bool:
        """Equate two terms; return False (leaving classes merged only up
        to the point of failure) if that would clash two constants.

        Callers that need all-or-nothing semantics should work on a
        :meth:`copy` and discard it on failure — this is exactly what
        :func:`mgu` does.
        """
        parent, rank = self._parent, self._rank
        left_constant = isinstance(left, Constant)
        right_constant = isinstance(right, Constant)
        if not (left_constant and right_constant) \
                and left not in parent and right not in parent:
            # Two unseen terms, not both constants (each position of a
            # repeat-free edge, each class's first fold in update()):
            # write the forest the general path below leaves, sans finds.
            if left_constant:
                self._class_constant[left] = left
            elif right_constant:
                self._class_constant[left] = right
            elif left == right:
                parent[left], rank[left] = left, 0
                return True
            parent[left] = parent[right] = left
            rank[left], rank[right] = 1, 0
            self._canonical = None
            return True
        self._ensure(left)
        self._ensure(right)
        root_left = self.find(left)
        root_right = self.find(right)
        if root_left is root_right:
            return True
        const_left = self._class_constant.get(root_left)
        const_right = self._class_constant.get(root_right)
        if (const_left is not None and const_right is not None
                and const_left != const_right):
            return False
        # Union by rank.
        if self._rank[root_left] < self._rank[root_right]:
            root_left, root_right = root_right, root_left
            const_left, const_right = const_right, const_left
        self._parent[root_right] = root_left
        self._canonical = None
        if self._rank[root_left] == self._rank[root_right]:
            self._rank[root_left] += 1
        if const_left is None and const_right is not None:
            self._class_constant[root_left] = const_right
        self._class_constant.pop(root_right, None)
        return True

    def update(self, other: "Unifier") -> bool:
        """Merge all of *other*'s constraints into self, in place.

        Returns False if the result would be inconsistent; in that case
        self is left partially merged and should be discarded.
        """
        for term in other._parent:
            representative = other.find(term)
            if term is not representative:
                if not self.merge(term, representative):
                    return False
        return True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def same_class(self, left: Term, right: Term) -> bool:
        """Return True if the two terms are currently equated."""
        if left == right:
            return True
        if left not in self._parent or right not in self._parent:
            return False
        return self.find(left) is self.find(right)

    def constant_of(self, term: Term) -> Optional[Constant]:
        """Return the constant equated with *term*, if any."""
        if isinstance(term, Constant):
            return term
        if term not in self._parent:
            return None
        return self._class_constant.get(self.find(term))

    def terms(self) -> Iterator[Term]:
        """Yield every term mentioned by this unifier."""
        return iter(self._parent)

    def classes(self) -> list[frozenset[Term]]:
        """Return the non-singleton equivalence classes.

        Singleton classes carry no constraint, so they are omitted; this
        makes :meth:`classes` a canonical representation suitable for
        equality comparison (see :meth:`canonical`).
        """
        buckets: dict[Term, set[Term]] = {}
        for term in self._parent:
            buckets.setdefault(self.find(term), set()).add(term)
        return [frozenset(members) for members in buckets.values()
                if len(members) > 1]

    def canonical(self) -> frozenset[frozenset[Term]]:
        """A hashable canonical form: the set of non-singleton classes.

        The result is cached until the next class-changing merge, so
        repeated equality checks (the change detection at the heart of
        Algorithm 1) cost one frozenset comparison, not a rebuild of the
        partition from the forest.
        """
        if self._canonical is None:
            self._canonical = frozenset(self.classes())
        return self._canonical

    def is_trivial(self) -> bool:
        """Return True if this unifier imposes no constraints."""
        return not self.classes()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Unifier):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def merged_with(self, other: "Unifier") -> Optional["Unifier"]:
        """Most general unifier of self and *other* as a new unifier.

        Size-aware asymmetric merge: the smaller forest is folded into a
        copy of the larger one, so the work is proportional to the
        smaller operand (plus one dict copy of the larger).  Ties prefer
        *self* as the base, which lets Algorithm 1 detect "no change"
        against a node's current unifier without re-canonicalizing.

        Returns None when the two unifiers are jointly inconsistent.
        """
        base, folded = self, other
        if len(folded._parent) > len(base._parent):
            base, folded = folded, base
        result = base.copy()
        if not result.update(folded):
            return None
        return result

    # ------------------------------------------------------------------
    # substitution
    # ------------------------------------------------------------------

    def substitution(self) -> dict[Variable, Term]:
        """Return a variable -> representative-term mapping.

        Applying this mapping to an atom realises the unifier's
        constraints: equated variables collapse to one name and variables
        equated with a constant become that constant.  A class without
        a constant is represented by its lexicographically smallest
        variable name, which makes substitution deterministic.
        """
        # One pass: classes with a constant map to it as they are met;
        # the variables of the others are grouped by root, so the whole
        # mapping is O(n α(n)), never a scan of the forest per variable.
        find = self.find
        class_constant = self._class_constant
        mapping: dict[Variable, Term] = {}
        unconstrained: dict[Term, list[Variable]] = {}
        for term in self._parent:
            if isinstance(term, Variable):
                root = find(term)
                constant = class_constant.get(root)
                if constant is not None:
                    mapping[term] = constant
                else:
                    unconstrained.setdefault(root, []).append(term)
        for members in unconstrained.values():
            if len(members) > 1:
                canonical = min(members, key=lambda variable: variable.name)
                for variable in members:
                    if variable is not canonical:
                        mapping[variable] = canonical
        return mapping

    def apply(self, item: Atom) -> Atom:
        """Substitute this unifier's representatives into an atom."""
        return item.substitute(self.substitution())

    def equality_pairs(self) -> list[tuple[Term, Term]]:
        """Flatten the partition into (term, term) equalities.

        This is the ``φ_U`` of paper Section 4.2: a conjunction of
        equality statements equivalent to the unifier.  Each class of size
        *n* contributes *n − 1* pairs chaining its members; members are
        ordered deterministically (constants first, then variables by
        name) so output is stable across runs.
        """
        pairs: list[tuple[Term, Term]] = []
        for group in sorted(self.classes(), key=_class_sort_key):
            members = sorted(group, key=_term_sort_key)
            for left, right in zip(members, members[1:]):
                pairs.append((left, right))
        return pairs

    def __str__(self) -> str:
        classes = sorted(self.classes(), key=_class_sort_key)
        rendered = ", ".join(
            "{" + ", ".join(str(term) for term in
                            sorted(group, key=_term_sort_key)) + "}"
            for group in classes
        )
        return "{" + rendered + "}"

    def __repr__(self) -> str:
        return f"<Unifier {self}>"


def _term_sort_key(term: Term) -> tuple[int, str]:
    if isinstance(term, Constant):
        return (0, repr(term.value))
    return (1, term.name)


def _class_sort_key(group: frozenset[Term]) -> tuple:
    return tuple(sorted(_term_sort_key(term) for term in group))


def mgu(left: Optional[Unifier], right: Optional[Unifier]) -> Optional[Unifier]:
    """Most general unifier of two unifiers, or None if none exists.

    The MGU is the least restrictive unifier enforcing both inputs'
    constraints (paper Section 4.1.3).  Either input may be None (meaning
    "inconsistent"), in which case the result is None; this lets callers
    chain mgu computations without checking at each step.
    """
    if left is None or right is None:
        return None
    return left.merged_with(right)


def mgu_all(unifiers: Iterable[Optional[Unifier]]) -> Optional[Unifier]:
    """Fold :func:`mgu` over an iterable of unifiers.

    Returns the empty unifier for an empty iterable, None as soon as any
    pairwise merge fails.
    """
    result: Optional[Unifier] = Unifier()
    for unifier in unifiers:
        result = mgu(result, unifier)
        if result is None:
            return None
    return result


def unify_atoms(left: Atom, right: Atom) -> Optional[Unifier]:
    """Most general unifier of two atoms, or None.

    Two atoms unify when they name the same relation with the same arity
    and their arguments can be pairwise equated without a constant clash.
    Repeated variables are handled correctly: ``R(x, x)`` does not unify
    with ``R(2, 3)`` even though each position unifies in isolation.
    """
    if left.relation != right.relation or left.arity != right.arity:
        return None
    unifier = Unifier()
    for term_left, term_right in zip(left.args, right.args):
        if not unifier.merge(term_left, term_right):
            return None
    return unifier


def atoms_unifiable(left: Atom, right: Atom) -> bool:
    """Syntactic unifiability test (used by safety and graph building).

    Equivalent to ``unify_atoms(left, right) is not None`` but avoids
    building a unifier in the overwhelmingly common case: when no
    variable occurs twice across the two argument lists (queries are
    renamed apart, so cross-atom sharing is rare), the atoms can only
    clash through a positionwise constant/constant mismatch, so a
    linear scan decides.  Any repeated or shared variable falls back to
    full unification.
    """
    if left.relation != right.relation or left.arity != right.arity:
        return False
    repeated = False
    seen: set[Variable] = set()
    for term in (*left.args, *right.args):
        if isinstance(term, Variable):
            if term in seen:
                repeated = True
                break
            seen.add(term)
    if repeated:
        return unify_atoms(left, right) is not None
    for term_left, term_right in zip(left.args, right.args):
        if (isinstance(term_left, Constant)
                and isinstance(term_right, Constant)
                and term_left != term_right):
            return False
    return True
