"""Surface languages for entangled queries.

Two concrete syntaxes, both lowering to the same IR
(:class:`repro.core.query.EntangledQuery`):

* the paper's **entangled-SQL dialect** — ``SELECT … INTO ANSWER …
  WHERE … CHOOSE k`` (:func:`parse_entangled_sql` + :func:`lower`, or
  :func:`parse_and_lower` in one step);
* the **IR text syntax** used in the paper's figures —
  ``{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)`` (:func:`parse_ir`).

The SQL grammar's other statement is the **plain SELECT** behind
``repro sql`` (:func:`parse_select` + :func:`lower_select` to a
conjunctive query, or :func:`run_sql`); ``IN (…)`` subqueries are one.

The formatters render IR queries back to either syntax.
"""

from .tokenizer import Token, TokenStream, TokenType, tokenize
from .sql_ast import (AggregateCondition, AggregateSubquery,
                      AnswerMembership, ColumnRef, EntangledSelect,
                      EqualityCondition, FromItem, Ident, Literal,
                      Select, SubqueryEquality, SubqueryMembership,
                      TableMembership)
from .sql_parser import parse_entangled_sql, parse_select
from .lowering import (dict_resolver, lower, lower_select,
                       parse_and_lower, run_sql, schema_resolver)
from .ir_parser import parse_ir, parse_ir_workload
from .formatter import to_ir_text, to_sql_text

__all__ = [
    "Token", "TokenStream", "TokenType", "tokenize",
    "AggregateCondition", "AggregateSubquery", "AnswerMembership",
    "ColumnRef", "EntangledSelect", "EqualityCondition", "FromItem",
    "Ident", "Literal", "Select", "SubqueryEquality",
    "SubqueryMembership", "TableMembership",
    "parse_entangled_sql", "parse_select",
    "dict_resolver", "lower", "lower_select", "parse_and_lower",
    "run_sql", "schema_resolver",
    "parse_ir", "parse_ir_workload",
    "to_ir_text", "to_sql_text",
]
