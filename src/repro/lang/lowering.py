"""Lowering: entangled-SQL AST -> intermediate representation.

The IR is positional (``F(x, 'Paris')``), while the SQL dialect names
columns (``SELECT fno FROM Flights WHERE dest = 'Paris'``), so lowering
needs a *schema resolver* mapping table names to ordered column names.
Build one from a :class:`repro.db.Database` with
:func:`schema_resolver`, or pass a plain dict.

Lowering steps:

1. every bare identifier in the outer query becomes a query variable;
2. each subquery ``FROM`` item gets one fresh *slot* variable per
   column; subquery equalities and the ``ident IN (SELECT col …)``
   linkage are folded with a union-find (the same
   :class:`repro.core.unify.Unifier` the matcher uses), choosing
   constants over outer variables over slots as representatives;
3. top-level equality conditions are folded the same way; inequality
   conditions (and the comparisons of plain subqueries) lower to
   :class:`repro.db.expression.Comparison` objects in
   ``EntangledQuery.body_comparisons``, where the executor's
   ordered-index pushdown serves them;
4. aggregate subqueries lower to
   :class:`repro.core.extensions.AggregateConstraint`;
5. the result is validated (range restriction etc.).

A plain SELECT takes steps 2 and 3 alone to a ``ConjunctiveQuery``
(:func:`lower_select`; :func:`run_sql` also evaluates it).
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence, Union

from ..core.extensions import AggregateConstraint
from ..core.query import EntangledQuery
from ..core.terms import Atom, Constant, Term, Variable
from ..core.unify import Unifier
from ..db.expression import Comparison, ConjunctiveQuery
from ..errors import ValidationError
from .sql_ast import (AggregateCondition, AnswerMembership, ColumnRef,
                      ComparisonCondition, EntangledSelect,
                      EqualityCondition, Expr, FromItem, Literal, Select,
                      SubqueryComparison, SubqueryEquality,
                      SubqueryMembership, TableMembership)
from .sql_parser import parse_entangled_sql, parse_select

#: Maps a table name to its ordered column names.
SchemaResolver = Callable[[str], Sequence[str]]


def schema_resolver(database) -> SchemaResolver:
    """Build a schema resolver from a :class:`repro.db.Database`."""
    def resolve(table_name: str) -> Sequence[str]:
        return database.table(table_name).schema.column_names()
    return resolve


def dict_resolver(schemas: Mapping[str, Sequence[str]]) -> SchemaResolver:
    """Build a schema resolver from a plain ``{table: [columns]}`` dict."""
    def resolve(table_name: str) -> Sequence[str]:
        try:
            return schemas[table_name]
        except KeyError:
            raise ValidationError(f"unknown table {table_name!r} "
                                  f"(not in provided schemas)")
    return resolve


class _Lowerer:
    """Stateful lowering of a single query or plain SELECT."""

    def __init__(self, ast: EntangledSelect | Select, query_id: object,
                 resolve: SchemaResolver,
                 answer_resolve: SchemaResolver | None):
        self._ast = ast
        self._query_id = query_id
        self._resolve = resolve
        self._answer_resolve = answer_resolve
        # A plain SELECT has no outer query (see lower_select).
        self._top_level = isinstance(ast, Select)
        self._scope = ("the SELECT" if self._top_level
                       else f"query {query_id!r}")
        self._satisfiable = True
        self._unifier = Unifier()
        self._subquery_counter = 0
        self._body_atoms: list[Atom] = []
        self._body_comparisons: list[Comparison] = []
        self._aggregates: list[AggregateConstraint] = []

    # ------------------------------------------------------------------

    @staticmethod
    def _expr_term(expr: Expr) -> Term:
        if isinstance(expr, Literal):
            return Constant(expr.value)
        return Variable(expr.name)

    def _fresh_slots(self, item: FromItem) -> dict[str, Variable]:
        """One fresh variable per column of a FROM item."""
        if item.is_answer:
            if self._answer_resolve is None:
                raise ValidationError(
                    "aggregate subqueries over ANSWER relations require "
                    "answer_schemas (columns of each ANSWER relation)")
            columns = self._answer_resolve(item.table)
        else:
            columns = self._resolve(item.table)
        tag = self._subquery_counter
        return {column: Variable(f"_{tag}_{item.binding_name}_{column}")
                for column in columns}

    def _operand_term(self, operand, slots_by_binding: dict) -> Term:
        """Resolve a subquery operand to a term.

        Bare column names resolve against the FROM items; a name that is
        no FROM item's column is an *outer* query variable.
        """
        if isinstance(operand, Literal):
            return Constant(operand.value)
        if isinstance(operand, ColumnRef):
            if operand.qualifier is not None:
                slots = slots_by_binding.get(operand.qualifier)
                if slots is None:
                    raise ValidationError(
                        f"unknown table alias {operand.qualifier!r} in "
                        f"{self._scope}")
                if operand.column not in slots:
                    raise ValidationError(
                        f"table {operand.qualifier!r} has no column "
                        f"{operand.column!r}")
                return slots[operand.column]
            owners = [binding for binding, slots in slots_by_binding.items()
                      if operand.column in slots]
            if len(owners) > 1:
                raise ValidationError(
                    f"column {operand.column!r} is ambiguous among "
                    f"{sorted(owners)} in {self._scope}")
            if owners:
                return slots_by_binding[owners[0]][operand.column]
            if self._top_level:
                raise ValidationError(
                    f"unknown column {operand.column!r} in {self._scope}")
            # Not a column of any FROM table: an outer query variable.
            return Variable(operand.column)
        raise ValidationError(f"unsupported operand {operand!r}")

    def _comparison(self, node: SubqueryComparison,
                    slots_by_binding: dict) -> Comparison:
        return Comparison(self._operand_term(node.left, slots_by_binding),
                          node.op,
                          self._operand_term(node.right, slots_by_binding))

    def _lower_from_and_where(
            self, from_items: Sequence[FromItem],
            equalities: Sequence[SubqueryEquality]
    ) -> tuple[dict, list[Atom], Unifier]:
        """Shared by plain SELECTs and both kinds of subquery.

        Returns (slots_by_binding, raw atoms with slot variables, and a
        *local* unifier holding this subquery's equalities).
        """
        self._subquery_counter += 1
        slots_by_binding: dict[str, dict[str, Variable]] = {}
        atoms: list[Atom] = []
        for item in from_items:
            if item.binding_name in slots_by_binding:
                raise ValidationError(
                    f"duplicate table alias {item.binding_name!r} in "
                    f"{self._scope}")
            slots = self._fresh_slots(item)
            slots_by_binding[item.binding_name] = slots
            atoms.append(Atom(item.table, tuple(slots[column] for column
                                                in slots)))
        local = Unifier()
        for equality in equalities:
            left = self._operand_term(equality.left, slots_by_binding)
            right = self._operand_term(equality.right, slots_by_binding)
            if not local.merge(left, right):
                if not self._top_level:
                    raise ValidationError(
                        f"contradictory equality {equality} in query "
                        f"{self._query_id!r}")
                self._satisfiable = False
        return slots_by_binding, atoms, local

    def _lower_subquery_membership(self, node: SubqueryMembership) -> None:
        subquery = node.subquery
        slots_by_binding, atoms, local = self._lower_from_and_where(
            subquery.from_items, subquery.equalities)
        selected = self._operand_term(subquery.columns[0],
                                      slots_by_binding)
        if not local.merge(Variable(node.ident.name), selected):
            raise ValidationError(
                f"contradictory linkage {node} in query "
                f"{self._query_id!r}")
        # Fold the local constraints into the global unifier.
        if not self._unifier.update(local):
            raise ValidationError(
                f"subquery {node} contradicts earlier conditions in "
                f"query {self._query_id!r}")
        self._body_atoms.extend(atoms)
        self._body_comparisons.extend(
            self._comparison(comparison, slots_by_binding)
            for comparison in subquery.comparisons)

    def _lower_aggregate(self, node: AggregateCondition) -> None:
        subquery = node.subquery
        slots_by_binding, atoms, local = self._lower_from_and_where(
            subquery.from_items, subquery.equalities)
        # Aggregate-local equalities are applied to its own atoms only:
        # the count ranges over the local slot variables, while outer
        # query variables must survive so the coordinated valuation can
        # bind them at evaluation time.
        substitution = _preferring_substitution(local)
        lowered = tuple(atom.substitute(substitution) for atom in atoms)
        answer_relations = frozenset(item.table for item
                                     in subquery.from_items
                                     if item.is_answer)
        self._aggregates.append(AggregateConstraint(
            lowered, answer_relations, node.op, node.threshold))

    def lower_select(self) -> tuple[ConjunctiveQuery, tuple[Term, ...],
                                    int | None]:
        statement = self._ast
        slots_by_binding, atoms, local = self._lower_from_and_where(
            statement.from_items, statement.equalities)
        substitution = local.substitution()
        comparisons = [
            self._comparison(comparison, slots_by_binding).substitute(
                substitution)
            for comparison in statement.comparisons]
        if not self._satisfiable:  # an always-false comparison: no rows
            comparisons.append(Comparison(Constant(0), "=", Constant(1)))
        if statement.columns is None:
            selected = [slot for slots in slots_by_binding.values()
                        for slot in slots.values()]
        else:
            selected = [self._operand_term(column, slots_by_binding)
                        for column in statement.columns]
        output = tuple(substitution.get(term, term) for term in selected)
        query = ConjunctiveQuery(
            tuple(atom.substitute(substitution) for atom in atoms),
            tuple(comparisons), distinct=statement.distinct,
            output_variables=tuple(term for term in output
                                   if isinstance(term, Variable)))
        return query, output, statement.limit

    # ------------------------------------------------------------------

    def lower(self, owner: object = None) -> EntangledQuery:
        ast = self._ast
        select_terms = tuple(self._expr_term(expr) for expr in ast.select)
        heads = [Atom(name, select_terms) for name in ast.answer_tables]

        postconditions: list[Atom] = []
        for condition in ast.conditions:
            if isinstance(condition, AnswerMembership):
                postconditions.append(Atom(
                    condition.relation,
                    tuple(self._expr_term(expr)
                          for expr in condition.exprs)))
            elif isinstance(condition, TableMembership):
                self._body_atoms.append(Atom(
                    condition.relation,
                    tuple(self._expr_term(expr)
                          for expr in condition.exprs)))
            elif isinstance(condition, SubqueryMembership):
                self._lower_subquery_membership(condition)
            elif isinstance(condition, EqualityCondition):
                left = self._expr_term(condition.left)
                right = self._expr_term(condition.right)
                if not self._unifier.merge(left, right):
                    raise ValidationError(
                        f"contradictory equality {condition} in query "
                        f"{self._query_id!r}")
            elif isinstance(condition, ComparisonCondition):
                self._body_comparisons.append(Comparison(
                    self._expr_term(condition.left), condition.op,
                    self._expr_term(condition.right)))
            elif isinstance(condition, AggregateCondition):
                self._lower_aggregate(condition)
            else:  # pragma: no cover - parser produces no other nodes
                raise ValidationError(
                    f"unsupported condition {condition!r}")

        substitution = self._substitution()
        query = EntangledQuery(
            query_id=self._query_id,
            head=tuple(atom.substitute(substitution) for atom in heads),
            postconditions=tuple(atom.substitute(substitution)
                                 for atom in postconditions),
            body=tuple(atom.substitute(substitution)
                       for atom in self._body_atoms),
            choose=ast.choose,
            owner=owner,
            aggregates=tuple(
                AggregateConstraint(
                    tuple(atom.substitute(substitution)
                          for atom in constraint.atoms),
                    constraint.answer_relations, constraint.op,
                    constraint.threshold)
                for constraint in self._aggregates),
            body_comparisons=tuple(
                comparison.substitute(substitution)
                for comparison in self._body_comparisons),
        )
        query.validate()
        return query

    def _substitution(self) -> dict[Variable, Term]:
        """Preference-aware substitution for the whole query."""
        return _preferring_substitution(self._unifier)


def _preferring_substitution(unifier: Unifier) -> dict[Variable, Term]:
    """Representatives preferring constants, then outer variables.

    Outer variables (no ``_<n>_`` slot prefix) should survive so the
    lowered query reads like the source; slot variables only remain
    where nothing better exists (unconstrained columns).
    """
    mapping: dict[Variable, Term] = {}
    buckets: dict[Term, list[Variable]] = {}
    for term in unifier.terms():
        if isinstance(term, Variable):
            buckets.setdefault(unifier.find(term), []).append(term)
    for root, members in buckets.items():
        constant = unifier.constant_of(root)
        if constant is not None:
            representative: Term = constant
        else:
            outer = [variable for variable in members
                     if not variable.name.startswith("_")]
            pool = outer or members
            representative = min(pool, key=lambda v: v.name)
        for variable in members:
            if variable != representative:
                mapping[variable] = representative
    return mapping


def lower(ast: EntangledSelect, query_id: object,
          schemas: Union[SchemaResolver, Mapping[str, Sequence[str]]],
          answer_schemas: Union[SchemaResolver,
                                Mapping[str, Sequence[str]], None] = None,
          owner: object = None) -> EntangledQuery:
    """Lower a parsed entangled-SQL query to the IR.

    Args:
        ast: output of :func:`repro.lang.sql_parser.parse_entangled_sql`.
        query_id: id to assign to the produced query.
        schemas: schema resolver (callable or dict) for database tables.
        answer_schemas: resolver for ANSWER relations — only needed when
            the query uses aggregate subqueries over ANSWER relations.
        owner: optional submitting-client tag.
    """
    resolve = (schemas if callable(schemas) else dict_resolver(schemas))
    if answer_schemas is None:
        answer_resolve = None
    else:
        answer_resolve = (answer_schemas if callable(answer_schemas)
                          else dict_resolver(answer_schemas))
    return _Lowerer(ast, query_id, resolve, answer_resolve).lower(
        owner=owner)


def parse_and_lower(text: str, query_id: object,
                    schemas: Union[SchemaResolver,
                                   Mapping[str, Sequence[str]]],
                    answer_schemas: Union[SchemaResolver,
                                          Mapping[str, Sequence[str]],
                                          None] = None,
                    owner: object = None) -> EntangledQuery:
    """Parse entangled SQL text and lower it to an IR query."""
    return lower(parse_entangled_sql(text), query_id, schemas,
                 answer_schemas, owner=owner)


def lower_select(statement: Select,
                 schemas: Union[SchemaResolver, Mapping[str, Sequence[str]]]
                 ) -> tuple[ConjunctiveQuery, tuple[Term, ...], int | None]:
    """Lower a plain SELECT to a conjunctive query over the database.

    Returns it, the output term of each column and the LIMIT.  With no
    outer query, a bare name no FROM item owns is an unknown column, and
    contradictory equalities yield no rows (not a ValidationError).
    """
    resolve = (schemas if callable(schemas) else dict_resolver(schemas))
    return _Lowerer(statement, None, resolve, None).lower_select()


def run_sql(database, text: str) -> list[tuple]:
    """Run a plain SELECT against *database*; returns the projected rows.

    >>> from repro.workloads import build_intro_database
    >>> run_sql(build_intro_database(),
    ...         "SELECT fno FROM Flights WHERE dest = 'Rome'")
    [(136,)]
    """
    query, output, limit = lower_select(parse_select(text),
                                        schema_resolver(database))
    return [tuple(valuation[term] if isinstance(term, Variable)
                  else term.value for term in output)
            for valuation in database.evaluate(query, limit=limit)]
