"""Formatting IR queries back to text (IR syntax and the SQL dialect).

Both formatters produce text that the corresponding parser accepts, so
``parse(format(query)) == query`` up to query id — the round-trip
property the language tests verify.
"""

from __future__ import annotations

import re

from ..core.query import EntangledQuery
from ..core.terms import Atom, Constant, Term, Variable
from ..errors import ValidationError
from .sql_ast import (AnswerMembership, ComparisonCondition, Condition,
                      EntangledSelect, Expr, Ident, Literal,
                      TableMembership)

_BARE_CONSTANT = re.compile(r"[A-Z][A-Za-z0-9_]*$")
_VARIABLE_NAME = re.compile(r"[a-z_][A-Za-z0-9_]*$")


def _format_term_ir(term: Term) -> str:
    if isinstance(term, Variable):
        if not _VARIABLE_NAME.match(term.name):
            raise ValidationError(
                f"variable name {term.name!r} is not expressible in IR "
                f"syntax (must start lowercase); rename before formatting")
        return term.name
    value = term.value
    if isinstance(value, str):
        if _BARE_CONSTANT.match(value):
            return value
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, bool):
        raise ValidationError("bool constants are not expressible in IR "
                              "syntax")
    if isinstance(value, (int, float)):
        return str(value)
    raise ValidationError(f"constant {value!r} is not expressible in IR "
                          f"syntax")


def _format_atom_ir(atom: Atom) -> str:
    inner = ", ".join(_format_term_ir(term) for term in atom.args)
    return f"{atom.relation}({inner})"


def to_ir_text(query: EntangledQuery) -> str:
    """Render a query in the IR syntax of :mod:`repro.lang.ir_parser`.

    >>> from repro.lang import parse_ir
    >>> q = parse_ir("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)")
    >>> to_ir_text(q)
    '{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)'
    """
    postconditions = ", ".join(_format_atom_ir(atom)
                               for atom in query.postconditions)
    head = ", ".join(_format_atom_ir(atom) for atom in query.head)
    text = f"{{{postconditions}}} {head}"
    if query.body or query.body_comparisons:
        conjuncts = [_format_atom_ir(atom) for atom in query.body]
        conjuncts.extend(
            f"{_format_term_ir(comparison.left)} {comparison.op} "
            f"{_format_term_ir(comparison.right)}"
            for comparison in query.body_comparisons)
        text += " <- " + ", ".join(conjuncts)
    if query.choose != 1:
        text += f" CHOOSE {query.choose}"
    return text


def _sql_expr(term: Term) -> Expr:
    if isinstance(term, Variable):
        if not _VARIABLE_NAME.match(term.name):
            raise ValidationError(
                f"variable name {term.name!r} is not expressible in the "
                f"SQL dialect; rename before formatting")
        return Ident(term.name)
    value = term.value
    if isinstance(value, bool):
        raise ValidationError("bool constants are not expressible in the "
                              "SQL dialect")
    if isinstance(value, (str, int, float)):
        return Literal(value)
    raise ValidationError(f"constant {value!r} is not expressible in the "
                          f"SQL dialect")


def _sql_exprs(atom: Atom) -> tuple[Expr, ...]:
    return tuple(_sql_expr(term) for term in atom.args)


def to_sql_text(query: EntangledQuery) -> str:
    """Render a query in the positional SQL dialect.

    Uses the schema-free forms ``(args) IN TABLE name`` for body atoms
    and ``(args) IN ANSWER name`` for postconditions, so no catalog is
    needed.  Only expressible for queries whose head atoms all share one
    argument tuple (the dialect inserts a single SELECT tuple into every
    ANSWER table); raises :class:`repro.errors.ValidationError`
    otherwise.  Aggregate constraints are not rendered (no positional
    surface form exists for them).
    """
    head_tuples = {atom.args for atom in query.head}
    if len(head_tuples) != 1:
        raise ValidationError(
            f"query {query.query_id!r} has heads with differing argument "
            f"tuples; not expressible in the SQL dialect")
    if query.aggregates:
        raise ValidationError(
            f"query {query.query_id!r} has aggregate constraints, which "
            f"have no positional SQL form")
    select = _sql_exprs(query.head[0])
    conditions: list[Condition] = [
        TableMembership(_sql_exprs(atom), atom.relation)
        for atom in query.body]
    conditions.extend(
        ComparisonCondition(_sql_expr(comparison.left), comparison.op,
                            _sql_expr(comparison.right))
        for comparison in query.body_comparisons)
    conditions.extend(AnswerMembership(_sql_exprs(atom), atom.relation)
                      for atom in query.postconditions)
    return str(EntangledSelect(
        select, tuple(atom.relation for atom in query.head),
        tuple(conditions), query.choose))
