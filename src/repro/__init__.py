"""repro — entangled queries: declarative data-driven coordination.

A full reproduction of *"Entangled Queries: Enabling Declarative
Data-Driven Coordination"* (Gupta, Kot, Roy, Bender, Gehrke, Koch —
SIGMOD 2011): the query language and intermediate representation, the
safety/UCS tractability conditions, the matching and combined-query
evaluation algorithm, the D3C engine middleware, an in-memory relational
substrate, and the paper's experimental workloads and benchmarks.

Quick start::

    from repro import Database, D3CEngine, parse_ir

    db = Database()
    db.create_table("F", "fno int", "dest text")
    db.insert("F", [(122, "Paris"), (123, "Paris")])

    engine = D3CEngine(db)
    kramer = engine.submit(
        parse_ir("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)", "kramer"))
    jerry = engine.submit(
        parse_ir("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)", "jerry"))
    print(kramer.result().rows)   # {'R': [('Kramer', 122)]}
    print(jerry.result().rows)    # {'R': [('Jerry', 122)]}

Package map:

* :mod:`repro.core` — IR, unification, safety/UCS, matching, combining,
  coordination, brute-force baseline, Section 6 extensions;
* :mod:`repro.lang` — the entangled-SQL dialect and IR text syntax;
* :mod:`repro.db` — the in-memory relational substrate;
* :mod:`repro.engine` — the D3C middleware (futures, staleness, modes);
* :mod:`repro.workloads` — the paper's experimental scenario;
* :mod:`repro.bench` — harnesses regenerating Figures 6-9.
"""

from .errors import (CoordinationError, ParseError, QueryEvaluationError,
                     ReproError, SafetyViolation, SchemaError,
                     StaleQueryError, ValidationError)
from .core import (Answer, Atom, Constant, CoordinationResult,
                   EntangledQuery, FailureReason, GroundedQuery, Unifier,
                   Variable, atom, check_safety, check_ucs_graph,
                   coordinate, enforce_safety, find_coordinating_set,
                   is_safe, is_ucs, mgu, unify_atoms)
from .db import Database
from .engine import (CoordinationTicket, D3CEngine, ManualClock,
                     ManualStaleness, NeverStale, TimeoutStaleness)
from .lang import (parse_and_lower, parse_entangled_sql, parse_ir,
                   parse_ir_workload, to_ir_text, to_sql_text)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "CoordinationError", "ParseError", "QueryEvaluationError",
    "ReproError", "SafetyViolation", "SchemaError", "StaleQueryError",
    "ValidationError",
    # core
    "Answer", "Atom", "Constant", "CoordinationResult", "EntangledQuery",
    "FailureReason", "GroundedQuery", "Unifier", "Variable", "atom",
    "check_safety", "check_ucs_graph", "coordinate", "enforce_safety",
    "find_coordinating_set", "is_safe", "is_ucs", "mgu", "unify_atoms",
    # db
    "Database",
    # engine
    "CoordinationTicket", "D3CEngine", "ManualClock", "ManualStaleness",
    "NeverStale", "TimeoutStaleness",
    # lang
    "parse_and_lower", "parse_entangled_sql", "parse_ir",
    "parse_ir_workload", "to_ir_text", "to_sql_text",
]
