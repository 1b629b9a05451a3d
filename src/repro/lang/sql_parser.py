"""Recursive-descent parser for the entangled-SQL dialect.

Grammar (informal; ``[...]`` optional, ``{...}`` repetition)::

    query      := SELECT expr {, expr}
                  INTO answer {, answer}
                  [WHERE condition {AND condition}]
                  CHOOSE number
    select     := SELECT [DISTINCT] (columnref {, columnref} | '*')
                  FROM fromitem {, fromitem}
                  [WHERE sub_cond {AND sub_cond}]
                  [LIMIT number]
    answer     := ANSWER ident
    condition  := '(' expr {, expr} ')' IN (ANSWER|TABLE) ident
                | '(' aggregate ')' cmp number
                | ident IN '(' select ')'
                | expr cmp expr {cmp expr}
                | expr BETWEEN expr AND expr
    aggregate  := SELECT COUNT '(' '*' ')' FROM fromitem {, fromitem}
                  [WHERE sub_eq {AND sub_eq}]
    fromitem   := [ANSWER] ident [[AS] ident]
    sub_cond   := operand cmp operand {cmp operand}
                | operand BETWEEN operand AND operand
    sub_eq     := operand '=' operand
    columnref  := ident ['.' ident]
    operand    := literal | columnref
    expr       := literal | ident
    cmp        := '>' | '>=' | '<' | '<=' | '=' | '!='

``BETWEEN low AND high`` desugars to ``>= low`` plus ``<= high`` (the
inner AND belongs to BETWEEN, not the conjunction) and a chained
inequality ``a < x <= b`` desugars pairwise, so both produce plain
comparison conditions.  Aggregate subqueries stay equality-only: the
count ranges over coordination outcomes, where inequality pushdown has
no meaning.

Inside ``IN (…)`` a ``select`` has one column, no DISTINCT and no LIMIT.
Those two are contextual words, not keywords: DISTINCT only before a
column or ``*``, LIMIT not where it is a table alias.

See :mod:`repro.lang.sql_ast` for the produced tree and
:mod:`repro.lang.lowering` for conversion to the IR.
"""

from __future__ import annotations

from ..errors import ParseError
from .sql_ast import (AggregateCondition, AggregateSubquery,
                      AnswerMembership, ColumnRef, ComparisonCondition,
                      Condition, EntangledSelect, EqualityCondition,
                      Expr, FromItem, Ident, Literal, Operand, Select,
                      SubqueryComparison, SubqueryEquality,
                      SubqueryMembership, TableMembership)
from .tokenizer import TokenStream, TokenType


def parse_entangled_sql(text: str) -> EntangledSelect:
    """Parse one entangled query in the SQL dialect.

    Raises :class:`repro.errors.ParseError` with position info on any
    syntax problem.
    """
    stream = TokenStream.of(text)
    query = _parse_query(stream)
    stream.expect_end()
    return query


def parse_select(text: str) -> Select:
    """Parse one plain SELECT statement (what ``repro sql`` runs)."""
    stream = TokenStream.of(text)
    statement = _parse_select(stream)
    stream.expect_end()
    return statement


def _parse_query(stream: TokenStream) -> EntangledSelect:
    stream.expect_keyword("SELECT")
    select = [_parse_expr(stream)]
    while stream.accept_punct(","):
        select.append(_parse_expr(stream))

    stream.expect_keyword("INTO")
    answers = [_parse_answer_name(stream)]
    while stream.accept_punct(","):
        answers.append(_parse_answer_name(stream))

    conditions: list[Condition] = []
    if stream.accept_keyword("WHERE"):
        conditions.extend(_parse_condition(stream))
        while stream.accept_keyword("AND"):
            conditions.extend(_parse_condition(stream))

    stream.expect_keyword("CHOOSE")
    token = stream.peek()
    if token.type is not TokenType.NUMBER or not isinstance(token.value, int):
        raise ParseError(f"CHOOSE expects an integer, found {token}",
                         token.line, token.column)
    stream.next()
    return EntangledSelect(tuple(select), tuple(answers),
                           tuple(conditions), token.value)


def _parse_answer_name(stream: TokenStream) -> str:
    stream.expect_keyword("ANSWER")
    return stream.expect_ident().value  # type: ignore[return-value]


def _parse_expr(stream: TokenStream) -> Expr:
    token = stream.peek()
    if token.type in (TokenType.STRING, TokenType.NUMBER):
        stream.next()
        return Literal(token.value)
    if token.type is TokenType.IDENT:
        stream.next()
        return Ident(token.value)  # type: ignore[arg-type]
    raise ParseError(f"expected literal or identifier, found {token}",
                     token.line, token.column)


def _parse_condition(stream: TokenStream) -> list[Condition]:
    token = stream.peek()
    if token.is_punct("("):
        # Tuple membership or aggregate comparison.
        if stream.peek(1).is_keyword("SELECT"):
            return [_parse_aggregate_condition(stream)]
        return [_parse_membership(stream)]
    # ident IN (...), expr cmp expr, or expr BETWEEN low AND high
    left = _parse_expr(stream)
    if stream.accept_keyword("IN"):
        if not isinstance(left, Ident):
            raise ParseError(
                "only an identifier may appear on the left of IN "
                "(literals cannot be coordinated on)",
                token.line, token.column)
        stream.expect_punct("(")
        subquery = _parse_select(stream)
        if (subquery.columns is None or len(subquery.columns) != 1
                or subquery.distinct or subquery.limit is not None):
            raise ParseError(
                "an IN subquery selects exactly one column, without "
                "DISTINCT or LIMIT", token.line, token.column)
        stream.expect_punct(")")
        return [SubqueryMembership(left, subquery)]
    return [EqualityCondition(left, right) if op == "="
            else ComparisonCondition(left, op, right)
            for left, op, right in _parse_comparisons(stream, left,
                                                      _parse_expr)]


def _parse_membership(stream: TokenStream) -> Condition:
    stream.expect_punct("(")
    exprs = [_parse_expr(stream)]
    while stream.accept_punct(","):
        exprs.append(_parse_expr(stream))
    stream.expect_punct(")")
    stream.expect_keyword("IN")
    if stream.accept_keyword("ANSWER"):
        relation = stream.expect_ident().value
        return AnswerMembership(tuple(exprs), relation)  # type: ignore[arg-type]
    stream.expect_keyword("TABLE")
    relation = stream.expect_ident().value
    return TableMembership(tuple(exprs), relation)  # type: ignore[arg-type]


def _parse_column_ref(stream: TokenStream) -> ColumnRef:
    first = stream.expect_ident().value
    if stream.accept_punct("."):
        second = stream.expect_ident().value
        return ColumnRef(first, second)  # type: ignore[arg-type]
    return ColumnRef(None, first)  # type: ignore[arg-type]


def _parse_operand(stream: TokenStream) -> Operand:
    token = stream.peek()
    if token.type in (TokenType.STRING, TokenType.NUMBER):
        stream.next()
        return Literal(token.value)
    return _parse_column_ref(stream)


def _parse_from_items(stream: TokenStream) -> list[FromItem]:
    items = [_parse_from_item(stream)]
    while stream.accept_punct(","):
        items.append(_parse_from_item(stream))
    return items


def _parse_from_item(stream: TokenStream) -> FromItem:
    is_answer = stream.accept_keyword("ANSWER")
    table = stream.expect_ident().value
    alias = None
    stream.accept_keyword("AS")
    if stream.peek().type is TokenType.IDENT and not _at_limit(stream):
        alias = stream.next().value
    return FromItem(table, alias, is_answer)  # type: ignore[arg-type]


def _at_limit(stream: TokenStream) -> bool:
    """A LIMIT clause starts here (not an alias before ``,``/``)``/WHERE)."""
    after = stream.peek(1)
    return stream.peek().is_word("LIMIT") and not (
        after.is_punct(",") or after.is_punct(")")
        or after.is_keyword("WHERE"))


def _parse_comparisons(stream: TokenStream, left: Operand,
                       operand) -> list[tuple[Operand, str, Operand]]:
    """The (left, op, right) triples of one conjunct, BETWEEN and chains
    desugared; *operand* parses one operand of the context."""
    if stream.accept_keyword("BETWEEN"):
        low = operand(stream)
        stream.expect_keyword("AND")
        return [(left, ">=", low), (left, "<=", operand(stream))]
    token = stream.peek()
    if not token.is_comparison():
        raise ParseError(f"expected comparison operator or BETWEEN, "
                         f"found {token}", token.line, token.column)
    triples = []
    while token.is_comparison():
        stream.next()
        right = operand(stream)
        triples.append((left, token.value, right))
        left = right
        token = stream.peek()
    return triples


def _parse_where(stream: TokenStream, equality_only: bool = False
                 ) -> tuple[list[SubqueryEquality], list[SubqueryComparison]]:
    """A SELECT's optional WHERE clause; *equality_only* for aggregates."""
    equalities: list[SubqueryEquality] = []
    comparisons: list[SubqueryComparison] = []
    if stream.accept_keyword("WHERE"):
        while True:
            start = stream.peek()
            for left, op, right in _parse_comparisons(
                    stream, _parse_operand(stream), _parse_operand):
                if op == "=":
                    equalities.append(SubqueryEquality(left, right))
                elif equality_only:
                    raise ParseError(
                        "aggregate subqueries support only equality "
                        "predicates (the count ranges over coordination "
                        "outcomes)", start.line, start.column)
                else:
                    comparisons.append(SubqueryComparison(left, op, right))
            if not stream.accept_keyword("AND"):
                break
    return equalities, comparisons


def _parse_select(stream: TokenStream) -> Select:
    stream.expect_keyword("SELECT")
    after = stream.peek(1)
    distinct = stream.peek().is_word("DISTINCT") and (
        after.type is TokenType.IDENT or after.is_punct("*"))
    if distinct:
        stream.next()
    columns = None
    if not stream.accept_punct("*"):
        columns = [_parse_column_ref(stream)]
        while stream.accept_punct(","):
            columns.append(_parse_column_ref(stream))
    stream.expect_keyword("FROM")
    from_items = _parse_from_items(stream)
    if any(item.is_answer for item in from_items):
        token = stream.peek()
        raise ParseError(
            "ANSWER relations may only appear in aggregate "
            "subqueries (COUNT over coordination outcomes)",
            token.line, token.column)
    equalities, comparisons = _parse_where(stream)
    limit = None
    if _at_limit(stream):
        stream.next()
        number = stream.peek()
        if (number.type is not TokenType.NUMBER
                or not isinstance(number.value, int) or number.value < 0):
            raise ParseError("LIMIT expects a non-negative integer",
                             number.line, number.column)
        limit = stream.next().value
    return Select(None if columns is None else tuple(columns),
                  tuple(from_items), tuple(equalities), tuple(comparisons),
                  distinct, limit)  # type: ignore[arg-type]


def _parse_aggregate_condition(stream: TokenStream) -> AggregateCondition:
    stream.expect_punct("(")
    stream.expect_keyword("SELECT")
    stream.expect_keyword("COUNT")
    stream.expect_punct("(")
    stream.expect_punct("*")
    stream.expect_punct(")")
    stream.expect_keyword("FROM")
    from_items = _parse_from_items(stream)
    equalities, _ = _parse_where(stream, equality_only=True)
    stream.expect_punct(")")
    token = stream.peek()
    if not token.is_comparison():
        raise ParseError(
            f"expected comparison operator after COUNT subquery, "
            f"found {token}", token.line, token.column)
    stream.next()
    threshold = stream.peek()
    if threshold.type is not TokenType.NUMBER:
        raise ParseError(f"expected numeric threshold, found {threshold}",
                         threshold.line, threshold.column)
    stream.next()
    if not any(item.is_answer for item in from_items):
        raise ParseError(
            "aggregate subquery must mention at least one ANSWER relation",
            token.line, token.column)
    return AggregateCondition(
        AggregateSubquery(tuple(from_items), tuple(equalities)),
        token.value, threshold.value)  # type: ignore[arg-type]
