"""Abstract syntax tree for the entangled-SQL dialect.

The dialect (paper Section 2.1, plus the positional ``IN TABLE`` form and
the Section 6 aggregation extension)::

    SELECT expr [, expr]...
    INTO ANSWER name [, ANSWER name]...
    [WHERE condition [AND condition]...]
    CHOOSE k

with conditions::

    (expr [, expr]...) IN ANSWER name          -- postcondition atom
    (expr [, expr]...) IN TABLE name           -- positional body atom
    ident IN (SELECT col FROM ... WHERE ...)   -- flattened subquery
    operand = operand                          -- equality constraint
    operand cmp operand                        -- inequality constraint
    operand BETWEEN low AND high               -- sugar for >= and <=
    (SELECT COUNT(*) FROM ANSWER name [, tbl]...
        WHERE ...) cmp number                  -- aggregate extension

The other statement, :class:`Select`, is a plain ``SELECT [DISTINCT]
cols FROM … [WHERE …] [LIMIT n]``; an ``IN (…)`` subquery is one column.

``BETWEEN`` and chained inequalities (``a < x <= b``) are desugared by
the parser into plain comparison conditions, so the AST only ever
carries binary comparisons.

Expressions are literals or bare identifiers; identifiers denote
variables shared across the whole query.  Subquery column references may
be qualified (``F.dest``) or bare when unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True, slots=True)
class Literal:
    """A constant expression (string or number)."""

    value: object

    def __str__(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)


@dataclass(frozen=True, slots=True)
class Ident:
    """A bare identifier — a query-level variable."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class ColumnRef:
    """A possibly-qualified column reference inside a subquery."""

    qualifier: str | None
    column: str

    def __str__(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.column}"
        return self.column


Expr = Union[Literal, Ident]
Operand = Union[Literal, Ident, ColumnRef]


@dataclass(frozen=True, slots=True)
class FromItem:
    """One table occurrence in a subquery's FROM list.

    ``is_answer`` marks ``FROM ANSWER name`` items (used only inside
    aggregate subqueries).
    """

    table: str
    alias: str | None = None
    is_answer: bool = False

    @property
    def binding_name(self) -> str:
        return self.alias or self.table

    def __str__(self) -> str:
        prefix = "ANSWER " if self.is_answer else ""
        if self.alias:
            return f"{prefix}{self.table} {self.alias}"
        return f"{prefix}{self.table}"


@dataclass(frozen=True, slots=True)
class SubqueryEquality:
    """An equality predicate inside a subquery WHERE clause.

    Either side may be a column reference, a literal, or an outer-query
    identifier (resolved during lowering: a name that is not a column of
    any FROM table is an outer variable).
    """

    left: Operand
    right: Operand

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True, slots=True)
class SubqueryComparison:
    """A non-equality comparison inside a subquery WHERE clause.

    Operands resolve like :class:`SubqueryEquality` operands; lowering
    turns these into body comparisons the executor pushes into
    ordered-index range windows.
    """

    left: Operand
    op: str
    right: Operand

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True, slots=True)
class Select:
    """A plain SELECT (``repro sql``; one column in ``IN (…)``).

    ``columns`` is None for ``*``.
    """

    columns: tuple[ColumnRef, ...] | None
    from_items: tuple[FromItem, ...]
    equalities: tuple[SubqueryEquality, ...]
    comparisons: tuple[SubqueryComparison, ...]
    distinct: bool = False
    limit: int | None = None

    def __str__(self) -> str:
        columns = ("*" if self.columns is None
                   else ", ".join(str(column) for column in self.columns))
        distinct = "DISTINCT " if self.distinct else ""
        text = f"SELECT {distinct}{columns} FROM " + ", ".join(
            str(item) for item in self.from_items)
        conditions = [str(equality) for equality in self.equalities]
        conditions.extend(str(comparison) for comparison
                          in self.comparisons)
        if conditions:
            text += " WHERE " + " AND ".join(conditions)
        if self.limit is not None:
            text += f" LIMIT {self.limit}"
        return text


@dataclass(frozen=True, slots=True)
class AnswerMembership:
    """``(expr, ...) IN ANSWER name`` — a postcondition atom."""

    exprs: tuple[Expr, ...]
    relation: str

    def __str__(self) -> str:
        inner = ", ".join(str(expr) for expr in self.exprs)
        return f"({inner}) IN ANSWER {self.relation}"


@dataclass(frozen=True, slots=True)
class TableMembership:
    """``(expr, ...) IN TABLE name`` — a positional body atom.

    This form is not in the paper (which uses subqueries) but makes the
    dialect closed under formatting: any IR query can be printed and
    re-parsed without schema knowledge.
    """

    exprs: tuple[Expr, ...]
    relation: str

    def __str__(self) -> str:
        inner = ", ".join(str(expr) for expr in self.exprs)
        return f"({inner}) IN TABLE {self.relation}"


@dataclass(frozen=True, slots=True)
class SubqueryMembership:
    """``ident IN (SELECT ...)`` — flattened into body atoms."""

    ident: Ident
    subquery: Select

    def __str__(self) -> str:
        return f"{self.ident} IN ({self.subquery})"


@dataclass(frozen=True, slots=True)
class EqualityCondition:
    """Top-level ``operand = operand`` between variables and literals."""

    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True, slots=True)
class ComparisonCondition:
    """Top-level ``operand cmp operand`` with a non-equality operator.

    Produced directly for ``<``, ``<=``, ``>``, ``>=``, ``!=`` and by
    desugaring ``BETWEEN`` / chained inequalities.  Lowered into the
    query's body comparisons.
    """

    left: Expr
    op: str
    right: Expr

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True, slots=True)
class AggregateSubquery:
    """``SELECT COUNT(*) FROM ANSWER name [, table]... WHERE ...``."""

    from_items: tuple[FromItem, ...]
    equalities: tuple[SubqueryEquality, ...]

    def __str__(self) -> str:
        text = "SELECT COUNT(*) FROM " + ", ".join(
            str(item) for item in self.from_items)
        if self.equalities:
            text += " WHERE " + " AND ".join(str(equality) for equality
                                             in self.equalities)
        return text


@dataclass(frozen=True, slots=True)
class AggregateCondition:
    """``(SELECT COUNT(*) ...) cmp number`` — the Section 6 extension."""

    subquery: AggregateSubquery
    op: str
    threshold: object

    def __str__(self) -> str:
        return f"({self.subquery}) {self.op} {self.threshold}"


Condition = Union[AnswerMembership, TableMembership, SubqueryMembership,
                  EqualityCondition, ComparisonCondition,
                  AggregateCondition]


@dataclass(frozen=True, slots=True)
class EntangledSelect:
    """A full entangled query in surface syntax."""

    select: tuple[Expr, ...]
    answer_tables: tuple[str, ...]
    conditions: tuple[Condition, ...]
    choose: int

    def __str__(self) -> str:
        lines = ["SELECT " + ", ".join(str(expr) for expr in self.select)]
        lines.append("INTO " + ", ".join(f"ANSWER {name}" for name
                                         in self.answer_tables))
        if self.conditions:
            rendered = "\n  AND ".join(str(condition) for condition
                                       in self.conditions)
            lines.append("WHERE " + rendered)
        lines.append(f"CHOOSE {self.choose}")
        return "\n".join(lines)
