"""Tests for repro.core.unify — unifiers and MGU computation.

Includes hypothesis property tests for the algebraic laws the matching
algorithm relies on: mgu is commutative, associative (up to equality of
partitions), idempotent, and monotone (only ever adds constraints).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.terms import Atom, Constant, Variable, atom
from repro.core.unify import (Unifier, atoms_unifiable, mgu, mgu_all,
                              unify_atoms)

X, Y, Z, W = (Variable(name) for name in "xyzw")


class TestUnifierBasics:
    def test_empty_unifier_is_trivial(self):
        unifier = Unifier()
        assert unifier.is_trivial()
        assert unifier.classes() == []

    def test_merge_two_variables(self):
        unifier = Unifier()
        assert unifier.merge(X, Y)
        assert unifier.same_class(X, Y)
        assert not unifier.same_class(X, Z)

    def test_merge_variable_with_constant(self):
        unifier = Unifier()
        assert unifier.merge(X, Constant(3))
        assert unifier.constant_of(X) == Constant(3)

    def test_constant_clash_fails(self):
        unifier = Unifier()
        assert unifier.merge(X, Constant(3))
        assert not unifier.merge(X, Constant(4))

    def test_same_constant_merge_succeeds(self):
        unifier = Unifier()
        assert unifier.merge(X, Constant(3))
        assert unifier.merge(X, Constant(3))

    def test_transitive_constant_propagation(self):
        unifier = Unifier()
        unifier.merge(X, Y)
        unifier.merge(Y, Constant(7))
        assert unifier.constant_of(X) == Constant(7)

    def test_from_pairs(self):
        unifier = Unifier.from_pairs([(X, Constant(3)), (Y, X)])
        assert unifier is not None
        assert unifier.constant_of(Y) == Constant(3)

    def test_from_pairs_clash_returns_none(self):
        assert Unifier.from_pairs([(X, Constant(3)),
                                   (X, Constant(4))]) is None

    def test_from_classes(self):
        unifier = Unifier.from_classes([[X, Y], [Z, Constant(1)]])
        assert unifier is not None
        assert unifier.same_class(X, Y)
        assert unifier.constant_of(Z) == Constant(1)

    def test_from_classes_clash(self):
        assert Unifier.from_classes([[Constant(1), Constant(2)]]) is None

    def test_copy_is_independent(self):
        unifier = Unifier.from_pairs([(X, Y)])
        clone = unifier.copy()
        clone.merge(Z, W)
        assert not unifier.same_class(Z, W)
        assert clone.same_class(X, Y)

    def test_find_of_unknown_term_is_itself(self):
        assert Unifier().find(X) == X


class TestUnifierEquality:
    def test_paper_example_representation(self):
        """The paper's example unifier {{x, 3}, {y, z}}."""
        unifier = Unifier.from_classes([[X, Constant(3)], [Y, Z]])
        assert unifier.canonical() == frozenset({
            frozenset({X, Constant(3)}), frozenset({Y, Z})})

    def test_equality_ignores_merge_order(self):
        left = Unifier.from_pairs([(X, Y), (Y, Z)])
        right = Unifier.from_pairs([(Z, Y), (X, Z)])
        assert left == right
        assert hash(left) == hash(right)

    def test_singletons_do_not_matter(self):
        left = Unifier()
        left.merge(X, Y)
        right = Unifier()
        right.merge(X, Y)
        right._ensure(Z)  # touch z without constraining it
        assert left == right

    def test_str_is_deterministic(self):
        unifier = Unifier.from_classes([[Y, Z], [X, Constant(3)]])
        assert str(unifier) == "{{3, x}, {y, z}}"


class TestMgu:
    def test_mgu_of_disjoint_unifiers(self):
        left = Unifier.from_pairs([(X, Y)])
        right = Unifier.from_pairs([(Z, W)])
        merged = mgu(left, right)
        assert merged.same_class(X, Y)
        assert merged.same_class(Z, W)
        assert not merged.same_class(X, Z)

    def test_mgu_joins_overlapping_classes(self):
        left = Unifier.from_pairs([(X, Y)])
        right = Unifier.from_pairs([(Y, Z)])
        merged = mgu(left, right)
        assert merged.same_class(X, Z)

    def test_mgu_conflict_returns_none(self):
        """The paper's example: no mgu of {{x,3}} and {{x,4}}."""
        left = Unifier.from_pairs([(X, Constant(3))])
        right = Unifier.from_pairs([(X, Constant(4))])
        assert mgu(left, right) is None

    def test_mgu_propagates_conflicts_transitively(self):
        left = Unifier.from_classes([[X, Y], [Z, Constant(1)]])
        right = Unifier.from_pairs([(Y, Z), (X, Constant(2))])
        assert mgu(left, right) is None

    def test_mgu_with_none_operand(self):
        assert mgu(None, Unifier()) is None
        assert mgu(Unifier(), None) is None

    def test_mgu_does_not_mutate_inputs(self):
        left = Unifier.from_pairs([(X, Y)])
        right = Unifier.from_pairs([(Y, Z)])
        mgu(left, right)
        assert not left.same_class(X, Z)
        assert not right.same_class(X, Z)

    def test_mgu_all_empty(self):
        assert mgu_all([]).is_trivial()

    def test_mgu_all_chains(self):
        result = mgu_all([Unifier.from_pairs([(X, Y)]),
                          Unifier.from_pairs([(Y, Z)]),
                          Unifier.from_pairs([(Z, Constant(5))])])
        assert result.constant_of(X) == Constant(5)

    def test_mgu_all_detects_conflict(self):
        assert mgu_all([Unifier.from_pairs([(X, Constant(1))]),
                        Unifier.from_pairs([(X, Constant(2))])]) is None


class TestUnifyAtoms:
    def test_paper_examples(self):
        """R(x,y) ~ R(z,z) unifiable; R(2,y) !~ R(3,z)."""
        assert atoms_unifiable(atom("R", X, Y), atom("R", Z, Z))
        assert not atoms_unifiable(atom("R", 2, Y), atom("R", 3, Z))

    def test_different_relations_never_unify(self):
        assert unify_atoms(atom("R", X), atom("S", X)) is None

    def test_different_arities_never_unify(self):
        assert unify_atoms(atom("R", X), atom("R", X, Y)) is None

    def test_repeated_variables_checked_globally(self):
        """R(x, x) does not unify with R(2, 3)."""
        assert unify_atoms(atom("R", X, X), atom("R", 2, 3)) is None
        assert unify_atoms(atom("R", X, X), atom("R", 2, 2)) is not None

    def test_unifier_content(self):
        unifier = unify_atoms(atom("R", "Kramer", X),
                              atom("R", Y, 122))
        assert unifier.constant_of(Y) == Constant("Kramer")
        assert unifier.constant_of(X) == Constant(122)

    def test_ground_atoms(self):
        assert unify_atoms(atom("R", 1, 2), atom("R", 1, 2)) is not None
        assert unify_atoms(atom("R", 1, 2), atom("R", 1, 3)) is None

    def test_zero_arity(self):
        assert unify_atoms(atom("R"), atom("R")) is not None


class TestSubstitution:
    def test_representative_prefers_constant(self):
        unifier = Unifier.from_pairs([(X, Y), (Y, Constant(9))])
        assert unifier.substitution()[X] == Constant(9)

    def test_representative_variable_is_min_name(self):
        unifier = Unifier.from_pairs([(Z, X), (X, Y)])
        assert unifier.substitution() == {Z: X, Y: X}

    def test_substitution_application(self):
        unifier = Unifier.from_pairs([(X, Constant(1)), (Y, Z)])
        target = atom("R", X, Y, Z, W)
        assert unifier.apply(target) == atom("R", 1, Y, Y, W)

    def test_equality_pairs_reconstruct_unifier(self):
        unifier = Unifier.from_classes([[X, Y, Constant(2)], [Z, W]])
        rebuilt = Unifier.from_pairs(unifier.equality_pairs())
        assert rebuilt == unifier

    def test_equality_pairs_deterministic(self):
        unifier = Unifier.from_classes([[X, Y], [Z, Constant(1)]])
        assert unifier.equality_pairs() == unifier.equality_pairs()


# ---------------------------------------------------------------------------
# property-based tests
# ---------------------------------------------------------------------------

_terms = st.one_of(
    st.sampled_from([X, Y, Z, W, Variable("v"), Variable("u")]),
    st.integers(min_value=0, max_value=3).map(Constant),
)
_pairs = st.lists(st.tuples(_terms, _terms), max_size=8)


def _build(pairs):
    return Unifier.from_pairs(pairs)


@given(_pairs, _pairs)
@settings(max_examples=200)
def test_mgu_commutative(pairs_a, pairs_b):
    left, right = _build(pairs_a), _build(pairs_b)
    forward = mgu(left, right)
    backward = mgu(right, left)
    if forward is None or backward is None:
        assert forward is None and backward is None
    else:
        assert forward == backward


@given(_pairs, _pairs, _pairs)
@settings(max_examples=200)
def test_mgu_associative(pairs_a, pairs_b, pairs_c):
    a, b, c = _build(pairs_a), _build(pairs_b), _build(pairs_c)
    left = mgu(mgu(a, b), c)
    right = mgu(a, mgu(b, c))
    if left is None or right is None:
        assert left is None and right is None
    else:
        assert left == right


@given(_pairs)
@settings(max_examples=200)
def test_mgu_idempotent(pairs):
    unifier = _build(pairs)
    if unifier is not None:
        assert mgu(unifier, unifier) == unifier


@given(_pairs, _pairs)
@settings(max_examples=200)
def test_mgu_monotone(pairs_a, pairs_b):
    """The MGU enforces every constraint of each input."""
    left, right = _build(pairs_a), _build(pairs_b)
    merged = mgu(left, right)
    if merged is None:
        return
    for source in (left, right):
        if source is None:
            continue
        for group in source.classes():
            members = list(group)
            for other in members[1:]:
                assert merged.same_class(members[0], other)


@given(st.lists(st.tuples(
    st.sampled_from(["R", "S"]),
    st.lists(_terms, min_size=1, max_size=3)), min_size=2, max_size=2))
@settings(max_examples=200)
def test_atom_unification_symmetric(atom_specs):
    (rel_a, args_a), (rel_b, args_b) = atom_specs
    atom_a, atom_b = Atom(rel_a, tuple(args_a)), Atom(rel_b, tuple(args_b))
    forward = unify_atoms(atom_a, atom_b)
    backward = unify_atoms(atom_b, atom_a)
    if forward is None or backward is None:
        assert forward is None and backward is None
    else:
        assert forward == backward


@given(st.lists(_terms, min_size=1, max_size=4))
@settings(max_examples=200)
def test_atom_unifies_with_itself(args):
    built = Atom("R", tuple(args))
    assert unify_atoms(built, built) is not None


# ---------------------------------------------------------------------------
# substitution() in one pass, and merge()'s unseen-pair path
# ---------------------------------------------------------------------------

def _substitution_by_representative(unifier):
    """The per-term rule substitution() must agree with: each variable
    maps to its class's constant, else to the class's minimum-name
    variable (a scan of the whole forest per variable)."""
    mapping = {}
    for term in unifier.terms():
        if isinstance(term, Variable):
            root = unifier.find(term)
            representative = unifier.constant_of(term) or min(
                (member for member in unifier.terms()
                 if isinstance(member, Variable)
                 and unifier.find(member) is root),
                key=lambda variable: variable.name)
            if representative != term:
                mapping[term] = representative
    return mapping


@given(_pairs)
@settings(max_examples=300)
def test_substitution_equals_the_representative_rule(pairs):
    unifier = _build(pairs)
    if unifier is not None:
        assert unifier.substitution() == \
            _substitution_by_representative(unifier)


class _CountingUnifier(Unifier):
    __slots__ = ("finds",)

    def find(self, term):
        self.finds += 1
        return super().find(term)


def test_substitution_finds_are_linear_on_one_large_class():
    variables = [Variable(f"v{index:04d}") for index in range(2_000)]
    unifier = _CountingUnifier()
    unifier.finds = 0
    for left, right in zip(variables, variables[1:]):
        assert unifier.merge(left, right)
    unifier.finds = 0
    mapping = unifier.substitution()
    # One find per variable (a per-term scan of the class would be
    # 2 000 x 2 000).
    assert unifier.finds <= 2 * len(variables)
    assert mapping == {variable: variables[0] for variable in variables[1:]}


def _general_merge(unifier, left, right):
    """merge() as written before its unseen-pair path: ensure both
    terms, find both roots, union by rank."""
    for term in (left, right):
        if term not in unifier._parent:
            unifier._parent[term] = term
            unifier._rank[term] = 0
            if isinstance(term, Constant):
                unifier._class_constant[term] = term
    root_left, root_right = unifier.find(left), unifier.find(right)
    if root_left is root_right:
        return True
    const_left = unifier._class_constant.get(root_left)
    const_right = unifier._class_constant.get(root_right)
    if (const_left is not None and const_right is not None
            and const_left != const_right):
        return False
    if unifier._rank[root_left] < unifier._rank[root_right]:
        root_left, root_right = root_right, root_left
        const_left, const_right = const_right, const_left
    unifier._parent[root_right] = root_left
    if unifier._rank[root_left] == unifier._rank[root_right]:
        unifier._rank[root_left] += 1
    if const_left is None and const_right is not None:
        unifier._class_constant[root_left] = const_right
    unifier._class_constant.pop(root_right, None)
    return True


@given(_pairs)
@settings(max_examples=300)
def test_merge_leaves_the_forest_the_general_path_leaves(pairs):
    fast, general = Unifier(), Unifier()
    for left, right in pairs:
        verdict = fast.merge(left, right)
        assert verdict == _general_merge(general, left, right)
        if not verdict:
            break
    for field in ("_parent", "_rank", "_class_constant"):
        assert list(getattr(fast, field).items()) \
            == list(getattr(general, field).items())
