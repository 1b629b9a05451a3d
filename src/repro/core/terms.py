"""Terms and relational atoms — the vocabulary of entangled queries.

The intermediate representation of an entangled query (paper Section 2.2)
is built from *relational atoms* such as ``R('Kramer', x)``: a relation
name applied to a tuple of *terms*, where each term is either a
:class:`Constant` or a :class:`Variable`.

Terms are immutable, hashable value objects, which lets the unification
machinery (:mod:`repro.core.unify`) put them directly into disjoint-set
forests and lets query sets be deduplicated and indexed cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Union


@dataclass(frozen=True, slots=True)
class Variable:
    """A logic variable, identified by name.

    Variable identity is purely the name: two ``Variable("x")`` instances
    are equal.  The matching algorithm requires that no variable appear in
    more than one query; :meth:`repro.core.query.EntangledQuery.rename_apart`
    enforces this by suffixing names with a query-unique tag.

    The hash is precomputed: terms key the union-find forests, the
    executor's valuations, and the atom index, so they are hashed many
    millions of times per coordination round.
    """

    name: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((Variable, self.name)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


@dataclass(frozen=True, slots=True)
class Constant:
    """A constant value drawn from the database domain.

    The payload may be any hashable Python value; in practice the flight
    workloads use strings (user names, airport codes) and integers.
    Like :class:`Variable`, the hash is precomputed.
    """

    value: object
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((Constant, self.value)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"


#: A term is either a variable or a constant.
Term = Union[Variable, Constant]


def is_variable(term: Term) -> bool:
    """Return True if *term* is a :class:`Variable`."""
    return isinstance(term, Variable)


def is_constant(term: Term) -> bool:
    """Return True if *term* is a :class:`Constant`."""
    return isinstance(term, Constant)


@dataclass(frozen=True, slots=True)
class Atom:
    """A relational atom: a relation name applied to a tuple of terms.

    ``Atom("R", (Constant("Kramer"), Variable("x")))`` prints as
    ``R('Kramer', x)``.  Atoms over *answer* relations appear in heads and
    postconditions; atoms over database relations appear in bodies.  The
    class itself is agnostic — which relations are answer relations is a
    property of the query, not the atom.
    """

    relation: str
    args: tuple[Term, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))
        object.__setattr__(self, "_hash",
                           hash((Atom, self.relation, self.args)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def arity(self) -> int:
        """Number of argument positions."""
        return len(self.args)

    def variables(self) -> Iterator[Variable]:
        """Yield the variables of this atom, left to right, with repeats."""
        for term in self.args:
            if isinstance(term, Variable):
                yield term

    def constants(self) -> Iterator[Constant]:
        """Yield the constants of this atom, left to right, with repeats."""
        for term in self.args:
            if isinstance(term, Constant):
                yield term

    def is_ground(self) -> bool:
        """Return True if the atom contains no variables."""
        return all(isinstance(term, Constant) for term in self.args)

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Atom":
        """Return a copy with each variable replaced per *mapping*.

        Variables absent from *mapping* are left in place, so partial
        substitutions are fine.
        """
        new_args = tuple([mapping.get(term, term)
                          if isinstance(term, Variable) else term
                          for term in self.args])
        if new_args == self.args:
            return self
        return Atom(self.relation, new_args)

    def rename(self, suffix: str) -> "Atom":
        """Return a copy with every variable name suffixed by *suffix*
        (a ground atom is returned as-is)."""
        return self.substitute({variable: Variable(variable.name + suffix)
                                for variable in self.variables()})

    def __str__(self) -> str:
        inner = ", ".join(str(term) for term in self.args)
        return f"{self.relation}({inner})"

    def __repr__(self) -> str:
        return f"Atom({self.relation!r}, {self.args!r})"


def atom(relation: str, *args: object) -> Atom:
    """Convenience constructor that coerces plain Python values.

    Strings starting with a lowercase letter *are not* treated as
    variables — coercion is explicit: pass :class:`Variable` instances for
    variables, anything else becomes a :class:`Constant`.

    >>> str(atom("R", "Kramer", Variable("x")))
    "R('Kramer', x)"
    """
    terms: list[Term] = []
    for value in args:
        if isinstance(value, (Variable, Constant)):
            terms.append(value)
        else:
            terms.append(Constant(value))
    return Atom(relation, tuple(terms))


def variables_of(atoms: Iterable[Atom]) -> set[Variable]:
    """Collect the set of variables appearing in *atoms*."""
    result: set[Variable] = set()
    for item in atoms:
        result.update(item.variables())
    return result


def constants_of(atoms: Iterable[Atom]) -> set[Constant]:
    """Collect the set of constants appearing in *atoms*."""
    result: set[Constant] = set()
    for item in atoms:
        result.update(item.constants())
    return result
