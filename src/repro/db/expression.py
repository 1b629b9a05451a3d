"""Conjunctive queries and comparison predicates for the executor.

The database substrate evaluates *conjunctive queries*: a conjunction of
relational atoms over database tables plus optional comparison predicates
between terms.  This is exactly the class of combined queries the
coordination algorithm produces (paper Section 4.2): bodies of the
constituent entangled queries plus the equality conjunction ``φ_U``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..core.terms import Atom, Constant, Term, Variable, variables_of
from ..errors import QueryEvaluationError

OPERATORS: dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Operators an ordered index can serve as a one-sided bound.
RANGE_OPERATORS = frozenset(("<", "<=", ">", ">="))

#: op -> op with sides swapped (``c < x`` is ``x > c``).
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
            "=": "=", "!=": "!="}


@dataclass(frozen=True, slots=True)
class Comparison:
    """A binary comparison between two terms.

    Equality comparisons between variables are what ``φ_U`` compiles to
    when the combined query is *not* pre-simplified; the other operators
    support the language extensions (e.g. date-proximity preferences).
    """

    left: Term
    op: str
    right: Term

    def __post_init__(self) -> None:
        if self.op not in OPERATORS:
            valid = ", ".join(sorted(OPERATORS))
            raise QueryEvaluationError(
                f"unknown comparison operator {self.op!r}; "
                f"expected one of {valid}")

    def variables(self) -> set[Variable]:
        """Variables mentioned on either side."""
        return {term for term in (self.left, self.right)
                if isinstance(term, Variable)}

    def evaluate(self, valuation: dict[Variable, object]) -> bool:
        """Evaluate under *valuation*; all variables must be bound."""
        left = self._value(self.left, valuation)
        right = self._value(self.right, valuation)
        return OPERATORS[self.op](left, right)

    @staticmethod
    def _value(term: Term, valuation: dict[Variable, object]) -> object:
        if isinstance(term, Constant):
            return term.value
        try:
            return valuation[term]
        except KeyError:
            raise QueryEvaluationError(
                f"comparison references unbound variable {term}")

    def substitute(self, mapping) -> "Comparison":
        """Apply a variable substitution to both sides."""
        left = (mapping.get(self.left, self.left)
                if isinstance(self.left, Variable) else self.left)
        right = (mapping.get(self.right, self.right)
                 if isinstance(self.right, Variable) else self.right)
        if left is self.left and right is self.right:
            return self
        return Comparison(left, self.op, right)

    def rename(self, suffix: str, memo=None) -> "Comparison":
        """Suffix every variable name, sharing *memo* with atom renames."""
        if memo is None:
            memo = {}
        terms = []
        changed = False
        for term in (self.left, self.right):
            if isinstance(term, Variable):
                renamed = memo.get(term)
                if renamed is None:
                    renamed = memo[term] = Variable(term.name + suffix)
                terms.append(renamed)
                changed = True
            else:
                terms.append(term)
        if not changed:
            return self
        return Comparison(terms[0], self.op, terms[1])

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True, slots=True)
class ConjunctiveQuery:
    """A conjunction of atoms and comparisons to evaluate over a database.

    Attributes:
        atoms: relational atoms over database tables; join semantics via
            shared variables.
        comparisons: predicates applied as soon as their variables bind.
        distinct: deduplicate output valuations projected on
            ``output_variables`` when set.
        output_variables: the variables of interest; defaults to all
            variables of the atoms.  Valuations always bind *all*
            variables; ``output_variables`` only affects ``distinct``.
    """

    atoms: tuple[Atom, ...]
    comparisons: tuple[Comparison, ...] = ()
    distinct: bool = False
    output_variables: tuple[Variable, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.atoms, tuple):
            object.__setattr__(self, "atoms", tuple(self.atoms))
        if not isinstance(self.comparisons, tuple):
            object.__setattr__(self, "comparisons",
                               tuple(self.comparisons))

    def variables(self) -> set[Variable]:
        """All variables of the atom conjunction."""
        return variables_of(self.atoms)

    def validate(self) -> None:
        """Check that comparisons only mention atom variables."""
        bound = self.variables()
        for comparison in self.comparisons:
            loose = comparison.variables() - bound
            if loose:
                names = ", ".join(sorted(v.name for v in loose))
                raise QueryEvaluationError(
                    f"comparison {comparison} references variables "
                    f"{{{names}}} not bound by any atom")

    def __str__(self) -> str:
        parts = [str(atom) for atom in self.atoms]
        parts.extend(str(comparison) for comparison in self.comparisons)
        return " ∧ ".join(parts) if parts else "TRUE"


# ----------------------------------------------------------------------
# sargability: which comparisons an ordered index can serve
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Interval:
    """A normalized constant interval for one column/variable.

    Bounds are plain values (not Terms); a None end is open.  ``empty``
    marks a contradiction detected at normalization time (``x < 3 AND
    x > 5``), which lets callers prune the whole conjunction without
    touching a single row.
    """

    lower: object = None
    lower_inclusive: bool = True
    upper: object = None
    upper_inclusive: bool = True
    empty: bool = False


@dataclass(frozen=True, slots=True)
class RangePlan:
    """The pushdown decision for one plan step's scheduled comparisons.

    Attributes:
        empty: some column's constant bounds are contradictory — the
            step (and therefore the whole conjunction) has no results.
        range_position: the atom position served by the ordered index's
            range column, or None when nothing is pushable.
        lower/upper: ``(term, inclusive)`` bound specs for the range
            column; the term is a Constant or an earlier-bound Variable.
        residual: comparisons still checked per row after the probe.
    """

    empty: bool = False
    range_position: int | None = None
    lower: tuple | None = None
    upper: tuple | None = None
    residual: tuple[Comparison, ...] = ()


def _merge_constant_bounds(specs: list) -> tuple:
    """Tightest (value, inclusive) of one side's constant bounds.

    *specs* holds ``(value, inclusive, tighter_cmp)`` triples where
    ``tighter_cmp(a, b)`` is True when ``a`` is strictly tighter than
    ``b``.  Raises TypeError on cross-type values (the caller falls
    back to residual filtering).
    """
    value, inclusive, tighter = specs[0]
    for other_value, other_inclusive, _ in specs[1:]:
        if tighter(other_value, value):
            value, inclusive = other_value, other_inclusive
        elif other_value == value:
            inclusive = inclusive and other_inclusive
    return value, inclusive


def _interval_empty(lower: tuple | None, upper: tuple | None) -> bool:
    """True when [lower, upper] constant bounds admit no value."""
    if lower is None or upper is None:
        return False
    (lo, lo_inclusive), (hi, hi_inclusive) = lower, upper
    if lo > hi:
        return True
    return lo == hi and not (lo_inclusive and hi_inclusive)


def constant_intervals(comparisons: Iterable[Comparison]
                       ) -> dict[Variable, Interval]:
    """Per-variable normalized intervals from var-vs-constant bounds.

    Used by the planner's selectivity estimates; comparisons that are
    not of range shape (or mix value types) contribute nothing.
    """
    lowers: dict[Variable, list] = {}
    uppers: dict[Variable, list] = {}
    for comparison in comparisons:
        op, left, right = comparison.op, comparison.left, comparison.right
        if isinstance(left, Constant) and isinstance(right, Variable):
            op, left, right = _FLIPPED[op], right, left
        if (op not in RANGE_OPERATORS
                or not isinstance(left, Variable)
                or not isinstance(right, Constant)):
            continue
        if op in ("<", "<="):
            uppers.setdefault(left, []).append(
                (right.value, op == "<=", operator.lt))
        else:
            lowers.setdefault(left, []).append(
                (right.value, op == ">=", operator.gt))
    result: dict[Variable, Interval] = {}
    for variable in lowers.keys() | uppers.keys():
        try:
            lower = (_merge_constant_bounds(lowers[variable])
                     if variable in lowers else None)
            upper = (_merge_constant_bounds(uppers[variable])
                     if variable in uppers else None)
            empty = _interval_empty(lower, upper)
        except TypeError:
            continue
        result[variable] = Interval(
            lower=None if lower is None else lower[0],
            lower_inclusive=lower is None or lower[1],
            upper=None if upper is None else upper[0],
            upper_inclusive=upper is None or upper[1],
            empty=empty)
    return result


def plan_step_ranges(atom: Atom, comparisons: Sequence[Comparison],
                     bound: set) -> RangePlan:
    """Decide which of a step's comparisons an ordered index can serve.

    *bound* is the set of variables bound by **earlier** steps.  A
    comparison is pushable when one side is a variable first bound at
    this step (it appears at a free position of *atom*) and the other
    side is a constant or an earlier-bound variable.  Constant bounds
    on one column are merged into a normalized interval; contradictory
    intervals mark the plan ``empty``.  One column is chosen as the
    range column (constant-bounded, two-sided columns first); every
    comparison not consumed by the chosen window stays residual.
    """
    if not comparisons:
        return RangePlan()
    free_position: dict[Variable, int] = {}
    for position, term in enumerate(atom.args):
        if (isinstance(term, Variable) and term not in bound
                and term not in free_position):
            free_position[term] = position

    # position -> side -> [(term, inclusive, original comparison)]
    const_bounds: dict[int, dict[str, list]] = {}
    var_bounds: dict[int, dict[str, list]] = {}
    residual: list[Comparison] = []
    for comparison in comparisons:
        op, left, right = comparison.op, comparison.left, comparison.right
        if (isinstance(right, Variable) and right in free_position
                and (isinstance(left, Constant) or left in bound)):
            op, left, right = _FLIPPED[op], right, left
        if (op not in RANGE_OPERATORS
                or not isinstance(left, Variable)
                or left not in free_position
                or not (isinstance(right, Constant) or right in bound)):
            residual.append(comparison)
            continue
        side = "upper" if op in ("<", "<=") else "lower"
        inclusive = op in ("<=", ">=")
        target = (const_bounds if isinstance(right, Constant)
                  else var_bounds)
        target.setdefault(free_position[left], {}).setdefault(
            side, []).append((right, inclusive, comparison))

    # Normalize the constant bounds per column; contradiction anywhere
    # empties the whole step.  Cross-type bounds demote to residual.
    merged: dict[int, dict[str, tuple]] = {}
    for position, sides in list(const_bounds.items()):
        columns: dict[str, tuple] = {}
        try:
            for side, specs in sides.items():
                tighter = (operator.gt if side == "lower" else operator.lt)
                value, inclusive = _merge_constant_bounds(
                    [(term.value, incl, tighter)
                     for term, incl, _ in specs])
                columns[side] = (value, inclusive)
            if _interval_empty(columns.get("lower"), columns.get("upper")):
                return RangePlan(empty=True)
        except TypeError:
            for specs in sides.values():
                residual.extend(original for _, _, original in specs)
            del const_bounds[position]
            continue
        merged[position] = columns

    candidates = set(const_bounds) | set(var_bounds)
    if not candidates:
        return RangePlan(residual=tuple(residual))

    def score(position: int) -> tuple:
        sides = set(merged.get(position, ()))
        sides.update(var_bounds.get(position, ()))
        return (len(sides) < 2, position not in merged, position)

    chosen = min(candidates, key=score)

    lower = upper = None
    for position in candidates:
        const_sides = const_bounds.get(position, {})
        var_sides = var_bounds.get(position, {})
        if position != chosen:
            for specs in const_sides.values():
                residual.extend(original for _, _, original in specs)
            for specs in var_sides.values():
                residual.extend(original for _, _, original in specs)
            continue
        for side in ("lower", "upper"):
            if position in merged and side in merged[position]:
                value, inclusive = merged[position][side]
                spec = (Constant(value), inclusive)
                # The merged window enforces every constant bound on
                # this side; none of them needs a residual check.
                for _, _, _original in var_sides.get(side, ()):
                    residual.append(_original)
            elif side in var_sides:
                term, inclusive, _ = var_sides[side][0]
                spec = (term, inclusive)
                residual.extend(original for _, _, original
                                in var_sides[side][1:])
            else:
                spec = None
            if side == "lower":
                lower = spec
            else:
                upper = spec
    return RangePlan(range_position=chosen, lower=lower, upper=upper,
                     residual=tuple(residual))
