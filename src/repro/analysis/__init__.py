"""Invariant linter: AST-based static analysis of the engine's rules.

The guarantees this reproduction makes — byte-identical answers across
shard counts, loss-free metrics merges, recovery to the exact
pre-crash state — all rest on cross-cutting code invariants that no
single test exercises completely.  This package checks them at parse
time, on every commit:

========  ============================================================
REP001    no iteration over bare set/frozenset in answer-producing
          modules (core/, engine/, shard/, db/executor.py) unless
          wrapped in sorted(...)
REP002    every ``*_to_payload`` in dataio.py has a matching
          ``*_from_payload``; versioned envelopes check their stamp
REP003    no direct writes to Table rows/indexes outside db/table.py;
          mutations go through the delta-committing Database facade
REP004    ``except Exception`` must re-raise, use the error, log, or
          carry ``# lint: allow-swallow(reason)``
REP005    TRACER emissions sit behind an ``enabled`` check
REP006    no live clock reads in engine//durability/ outside the
          injected-clock plumbing (recovery replays a pinned clock)
REP007    no lambdas/closures/local defs in objects handed to
          shard/process.py worker frames
========  ============================================================

``REP000`` is the analyzer's own voice: malformed pragmas and
unparseable files.

Run it as ``repro lint [PATHS] [--json]``: any finding fails the run;
per-line suppressions are ``# lint: allow(REPNNN, ...)`` and
``# lint: allow-swallow(reason)``.  See DESIGN.md §12 for the rule
catalog.
"""

from .context import META_RULE, ModuleContext, parse_pragmas
from .engine import Analyzer, default_rules, rule_catalog
from .findings import Finding, sort_findings

__all__ = [
    "Analyzer",
    "Finding",
    "META_RULE",
    "ModuleContext",
    "default_rules",
    "parse_pragmas",
    "rule_catalog",
    "sort_findings",
]
