"""Tests for repro.core.atom_index — the (Relation, Parameter, Value)
index of paper Section 4.1.4, including the paper's own lookup example
and a property test against the naive scan."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atom_index import AtomIndex, NaiveAtomIndex
from repro.core.terms import Atom, Constant, Variable, atom
from repro.core.unify import atoms_unifiable

X, Y = Variable("x"), Variable("y")


class TestAtomIndexBasics:
    def test_add_and_lookup_exact_constant(self):
        index = AtomIndex()
        index.add("e1", atom("Reserve", "Kramer", X))
        index.add("e2", atom("Reserve", "Jerry", Y))
        candidates = index.lookup(atom("Reserve", "Jerry", 7))
        assert candidates == {"e2"}

    def test_paper_lookup_example(self):
        """Reserve(Kramer, x) and Reserve(Jerry, y) do not collide."""
        index = AtomIndex()
        index.add("kramer", atom("Reserve", "Kramer", X))
        probe = atom("Reserve", "Jerry", Y)
        assert index.lookup(probe) == set()

    def test_variable_positions_match_anything(self):
        index = AtomIndex()
        index.add("generic", atom("R", X, "ITH"))
        assert index.lookup(atom("R", "Jerry", "ITH")) == {"generic"}
        assert index.lookup(atom("R", "Jerry", "JFK")) == set()

    def test_all_variable_probe_returns_relation_bucket(self):
        index = AtomIndex()
        index.add("e1", atom("R", 1))
        index.add("e2", atom("R", 2))
        index.add("e3", atom("S", 1))
        assert index.lookup(atom("R", X)) == {"e1", "e2"}

    def test_arity_mismatch_excluded(self):
        index = AtomIndex()
        index.add("unary", atom("R", 1))
        assert index.lookup(atom("R", 1, 2)) == set()

    def test_remove(self):
        index = AtomIndex()
        index.add("e1", atom("R", 1))
        index.remove("e1")
        assert index.lookup(atom("R", 1)) == set()
        assert len(index) == 0

    def test_remove_missing_is_noop(self):
        index = AtomIndex()
        index.remove("ghost")

    def test_duplicate_entry_rejected(self):
        index = AtomIndex()
        index.add("e1", atom("R", 1))
        with pytest.raises(KeyError):
            index.add("e1", atom("R", 2))

    def test_atom_for(self):
        index = AtomIndex()
        index.add("e1", atom("R", 1))
        assert index.atom_for("e1") == atom("R", 1)

    def test_entries_iteration(self):
        index = AtomIndex()
        index.add("e1", atom("R", 1))
        index.add("e2", atom("S", 2))
        assert dict(index.entries()) == {"e1": atom("R", 1),
                                         "e2": atom("S", 2)}

    def test_contains(self):
        index = AtomIndex()
        index.add("e1", atom("R", 1))
        assert "e1" in index
        assert "e2" not in index


class TestLookupIsSuperset:
    """lookup() may over-approximate but must never miss."""

    def test_repeated_variable_overapproximation(self):
        # R(x, x) is indexed as (Δ, Δ); probe R(2, 3) returns it even
        # though unification fails — callers re-verify.
        index = AtomIndex()
        index.add("rep", atom("R", X, X))
        assert index.lookup(atom("R", 2, 3)) == {"rep"}
        assert not atoms_unifiable(atom("R", X, X), atom("R", 2, 3))

    def test_shared_variable_is_verified(self):
        # R(2, x) against R(x, 1): each position is compatible, but x
        # would have to be both 2 and 1.
        index = AtomIndex()
        index.add("shared", atom("R", 2, X))
        index.add("apart", atom("R", 2, Y))
        assert index.lookup(atom("R", X, 1)) == {"shared", "apart"}
        assert index.lookup_unifiable(atom("R", X, 1)) == ["apart"]

    def test_multi_constant_intersection(self):
        index = AtomIndex()
        index.add("a", atom("R", 1, 2, X))
        index.add("b", atom("R", 1, 9, X))
        index.add("c", atom("R", Y, 2, X))
        assert index.lookup(atom("R", 1, 2, 3)) == {"a", "c"}


_values = st.one_of(st.integers(min_value=0, max_value=3),
                    st.sampled_from(["a", "b"]))
_index_terms = st.one_of(
    st.sampled_from([X, Y, Variable("z")]),
    _values.map(Constant))
_atoms = st.builds(
    lambda relation, args: Atom(relation, tuple(args)),
    st.sampled_from(["R", "S"]),
    st.lists(_index_terms, min_size=1, max_size=3))


@given(st.lists(_atoms, max_size=12), _atoms)
@settings(max_examples=200)
def test_index_candidates_superset_of_naive(stored, probe):
    """Index candidates ⊇ truly unifiable atoms (found by naive scan)."""
    index, naive = AtomIndex(), NaiveAtomIndex()
    for position, item in enumerate(stored):
        index.add(position, item)
        naive.add(position, item)
    assert naive.lookup(probe) <= index.lookup(probe)


@given(st.lists(_atoms, max_size=12), _atoms)
@settings(max_examples=200)
def test_index_candidates_verified_equals_naive(stored, probe):
    """After re-verification, index results equal the naive scan."""
    index = AtomIndex()
    for position, item in enumerate(stored):
        index.add(position, item)
    verified = {entry for entry in index.lookup(probe)
                if atoms_unifiable(probe, index.atom_for(entry))}
    truth = {position for position, item in enumerate(stored)
             if atoms_unifiable(probe, item)}
    assert verified == truth


# Interleavings of add and remove: a step adds the next atom under a
# fresh entry, or removes the live entry at some position.
_steps = st.lists(st.one_of(
    st.tuples(st.just("add"), _atoms),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=11))),
    max_size=30)


@given(_steps, st.lists(_atoms, min_size=1, max_size=4))
@settings(max_examples=200)
def test_lookup_unifiable_tracks_the_naive_scan_under_churn(steps, probes):
    """After every add or remove, lookup_unifiable equals the naive
    index's verified scan, in insertion order; emptied, the index holds
    no bucket at all (a leaked empty bucket is resident memory that
    grows with every distinct constant ever indexed)."""
    index, naive = AtomIndex(), NaiveAtomIndex()
    live: list = []
    for step, (kind, item) in enumerate(steps):
        if kind == "add":
            index.add(step, item)
            naive.add(step, item)
            live.append(step)
        elif live:
            entry = live.pop(item % len(live))
            index.remove(entry)
            naive.remove(entry)
        for probe in probes:
            assert index.lookup_unifiable(probe) \
                == naive.lookup_unifiable(probe)
        for everything, positions in index._relations.values():
            for by_value in positions:
                assert all(by_value.values())
                assert sum(map(len, by_value.values())) == len(everything)
    for entry in live:
        index.remove(entry)
    assert len(index) == 0
    assert index._relations == {}
    assert not index._repeating and index._with_variables == 0
