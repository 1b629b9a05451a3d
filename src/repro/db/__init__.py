"""In-memory relational database substrate.

Stands in for the MySQL instance of the paper's experimental setup: the
coordination algorithm sends it the combined conjunctive queries and it
returns coordinated valuations.  The substrate offers typed tables,
lazily built hash indexes, a greedy join planner, and a streaming
backtracking executor (so ``LIMIT 1`` is cheap).
"""

from .types import ColumnType, column_type_of
from .schema import Catalog, Column, TableSchema, schema
from .index import HashIndex
from .table import Table
from .expression import Comparison, ConjunctiveQuery
from .planner import Plan, Planner, PlanStep
from .executor import Executor, evaluate_naive
from .database import Database, TableDelta

__all__ = [
    "ColumnType", "column_type_of",
    "Catalog", "Column", "TableSchema", "schema",
    "HashIndex", "Table",
    "Comparison", "ConjunctiveQuery",
    "Plan", "Planner", "PlanStep",
    "Executor", "evaluate_naive",
    "Database", "TableDelta",
]
