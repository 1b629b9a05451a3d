"""The shape-compiled program executor against the nested-loop oracle.

One differential property covers the executor's whole surface: random
conjunctive queries — constants, shared and repeated variables,
comparisons (including contradictory intervals), ``distinct``, ``limit``
— must return exactly ``evaluate_naive``'s valuations with ordered-index
pushdown on and off.  A second property pins the point of compiling per
*shape*: two queries equal up to their atoms' constants and the names of
their variables run one program (one build, then hits) and still get
their own answers.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.terms import Constant, Variable, atom
from repro.db import Comparison, ConjunctiveQuery, Database, evaluate_naive
from repro.db.executor import Executor
from repro.db.planner import bind_query
from repro.errors import QueryEvaluationError

_VARIABLES = [Variable(name) for name in "wxyz"]
_VALUES = st.integers(min_value=0, max_value=5)
_TERMS = st.one_of(st.sampled_from(_VARIABLES), _VALUES.map(Constant))
_OPS = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


def _atoms(relation: str, arity: int):
    return st.tuples(*([_TERMS] * arity)).map(
        lambda args: atom(relation, *args))


@st.composite
def _queries(draw) -> ConjunctiveQuery:
    atoms = tuple(draw(st.lists(
        st.one_of(_atoms("R", 2), _atoms("S", 2), _atoms("T", 1)),
        min_size=1, max_size=3)))
    variables = sorted({term for item in atoms for term in item.variables()},
                       key=lambda variable: variable.name)
    comparisons = []
    if variables:
        operand = st.one_of(st.sampled_from(variables),
                            _VALUES.map(Constant))
        comparisons = draw(st.lists(
            st.builds(Comparison, operand, _OPS, operand), max_size=3))
        if draw(st.booleans()):
            # A two-sided interval on one variable; empty (and so
            # collapsed at compile time) whenever low >= high.
            variable = draw(st.sampled_from(variables))
            low, high = draw(_VALUES), draw(_VALUES)
            comparisons += [Comparison(variable, ">", Constant(low)),
                            Comparison(variable, "<", Constant(high))]
    distinct = draw(st.booleans())
    output = None
    if distinct and variables and draw(st.booleans()):
        output = tuple(draw(st.lists(st.sampled_from(variables),
                                     min_size=1, unique=True)))
    return ConjunctiveQuery(atoms, tuple(comparisons), distinct=distinct,
                            output_variables=output)


@st.composite
def _databases(draw) -> Database:
    database = Database()
    database.create_table("R", "a int", "b int")
    database.create_table("S", "a int", "b int")
    database.create_table("T", "a int")
    pairs = st.lists(st.tuples(_VALUES, _VALUES), max_size=8)
    database.insert("R", draw(pairs))
    database.insert("S", draw(pairs))
    database.insert("T", draw(st.lists(st.tuples(_VALUES), max_size=5)))
    return database


def _canonical(valuations) -> Counter:
    """Valuations as a multiset of sorted (name, value) tuples."""
    return Counter(
        tuple(sorted((variable.name, value)
                     for variable, value in valuation.items()))
        for valuation in valuations)


def _projected(valuations, query: ConjunctiveQuery) -> set:
    return {tuple(valuation[variable]
                  for variable in query.output_variables)
            for valuation in valuations}


@settings(max_examples=150, deadline=None)
@given(database=_databases(), query=_queries(),
       limit=st.integers(min_value=0, max_value=4))
def test_programs_match_the_naive_oracle(database, query, limit):
    expected = evaluate_naive(database, query)
    for pushdown in (True, False):
        database.set_range_pushdown(pushdown)
        # Twice: the first run builds the program, the second hits it.
        for _ in range(2):
            got = list(database.evaluate(query))
            if query.output_variables is None:
                assert _canonical(got) == _canonical(expected)
            else:
                # DISTINCT on a projection keeps one representative
                # valuation per projected row; which one is unspecified.
                assert len(got) == len(expected)
                assert _projected(got, query) == _projected(expected,
                                                            query)
                assert not _canonical(got) - _canonical(
                    evaluate_naive(database, ConjunctiveQuery(
                        query.atoms, query.comparisons)))
        limited = list(database.evaluate(query, limit=limit))
        assert len(limited) == min(limit, len(expected))
        if query.output_variables is None:
            assert not _canonical(limited) - _canonical(expected)


def _respelled(query: ConjunctiveQuery, shift: int) -> ConjunctiveQuery:
    """*query* with fresh variable names and every atom constant moved
    by *shift*: the same shape, different parameters."""
    renaming = {variable: Variable(variable.name + "_r")
                for variable in _VARIABLES}

    def respell(term, in_atom: bool):
        if isinstance(term, Constant):
            return Constant((term.value + shift) % 6) if in_atom else term
        return renaming[term]

    return ConjunctiveQuery(
        tuple(atom(item.relation,
                   *(respell(term, True) for term in item.args))
              for item in query.atoms),
        tuple(Comparison(respell(c.left, False), c.op,
                         respell(c.right, False))
              for c in query.comparisons),
        distinct=query.distinct,
        output_variables=None if query.output_variables is None
        else tuple(renaming[v] for v in query.output_variables))


@settings(max_examples=100, deadline=None)
@given(database=_databases(), query=_queries(),
       shift=st.integers(min_value=1, max_value=5))
def test_shape_equal_queries_share_one_program(database, query, shift):
    twin = _respelled(query, shift)
    assert bind_query(twin)[0] == bind_query(query)[0]
    planner = database._executor.planner
    first = list(database.evaluate(query))
    assert (planner.program_builds, planner.program_hits) == (1, 0)
    second = list(database.evaluate(twin))
    assert (planner.program_builds, planner.program_hits) == (1, 1)
    assert database.cache_stats()["compiled_plans"] == 1
    # One program, two parameter lists, two sets of answers.
    for got, asked in ((first, query), (second, twin)):
        expected = evaluate_naive(database, asked)
        assert len(got) == len(expected)
        if asked.output_variables is None:
            assert _canonical(got) == _canonical(expected)
        else:
            assert _projected(got, asked) == _projected(expected, asked)


def test_take_stops_the_search_at_the_limit():
    """``LIMIT n`` computes exactly n results: the underlying search
    is never advanced for a valuation nobody will read."""
    for limit in (0, 1, 3):
        advanced = []

        def search():
            for number in range(10):
                advanced.append(number)
                yield {"n": number}

        assert len(list(Executor._take(search(), limit))) == limit
        assert len(advanced) == limit
    with pytest.raises(QueryEvaluationError):
        Executor._take(iter(()), -1)
