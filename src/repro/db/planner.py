"""Greedy join ordering for conjunctive queries, with a plan cache.

The executor evaluates atoms one at a time, extending a partial valuation
by probing hash indexes on the positions already bound.  Evaluation cost
is dominated by the order in which atoms are visited; this planner uses
the classic greedy heuristic:

1. start from the atom with the best (lowest) estimated scan cost given
   only its constants;
2. repeatedly append the atom whose estimated probe cost — rows matching
   its constants plus already-bound join variables — is smallest: the
   minimum fan-out next.  Sharing a variable with the bound set only
   breaks cost ties; an atom joined on a bound variable is usually the
   cheapest anyway, and where it is not (``U(x, c)`` with only the town
   ``c`` bound scans the town) the cheaper atom goes first.

Estimates come from actual index bucket sizes, so they are exact for
single-probe selectivity and only heuristic across joins, which is enough
to keep the paper's combined queries (chains of Friends/User joins)
near-linear.

Coordination rounds plan thousands of *structurally identical* combined
queries that differ only in their atoms' constants and in the names of
renamed-apart variables (every two-way pair produces the same join shape
with different user names).  :func:`bind_query` splits a query into its
*shape* — relations, constant/variable pattern, join structure via
first-occurrence variable numbering, comparisons — and the values that
fill it; the planner caches one entry per shape: the chosen atom order
and comparison schedule plus, attached by the executor, the program
compiled from them.  A cache hit skips both the O(atoms²) greedy cost
search and compilation.  Entries pin the tables they were planned
against and are validated by identity and mutation version, so data
changes and drop-and-recreate fall back to fresh planning.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable

from ..core.terms import Atom, Constant, Variable
from ..errors import QueryEvaluationError
from .expression import (Comparison, ConjunctiveQuery, Interval,
                         constant_intervals)

#: Assumed fraction of rows surviving a range interval when the exact
#: window cannot be measured (cross-type bounds, empty tables).
DEFAULT_RANGE_SELECTIVITY = 0.3

#: Cache entries are dropped wholesale past this size (simple and
#: sufficient: coordination workloads produce a handful of shapes).
MAX_CACHED_PLANS = 1024

#: Compiled programs are retained until their steps total this many,
#: then dropped wholesale (their plan orders stay).  A massively
#: unifying workload produces an ever larger shape per closure; by
#: entry count those would pin tens of MiB of step objects.
MAX_RETAINED_STEPS = 4_096

#: Shape token of an atom constant (its value is a run-time parameter).
CONSTANT_MARK = "c"


def bind_query(query: ConjunctiveQuery) -> tuple[tuple, list, dict]:
    """Split *query* into ``(shape, params, slots)`` in one pass.

    Two queries share a shape iff they are identical up to renaming
    variables and changing the constant values *in atoms*: same
    relation sequence, same constant/variable pattern per position,
    same variable-sharing (join) structure, same comparisons.  Any atom
    order — and any compiled program — valid for one is valid for the
    other.  *params* lists the atoms' constant values in order of
    appearance; *slots* maps each variable to its first-occurrence
    number (and, being insertion-ordered, lists the variables by slot).

    Constants in comparisons stay in the shape by value: range
    planning, contradiction detection and the planner's interval
    selectivity are decided per shape, at compile time.
    """
    slots: dict[Variable, int] = {}
    params: list = []
    atom_tokens = []
    for atom in query.atoms:
        tokens = []
        for term in atom.args:
            if isinstance(term, Constant):
                params.append(term.value)
                tokens.append(CONSTANT_MARK)
            else:
                tokens.append(slots.setdefault(term, len(slots)))
        atom_tokens.append((atom.relation, tuple(tokens)))

    comparison_tokens = ()
    if query.comparisons:
        def token(term):
            if isinstance(term, Constant):
                return (CONSTANT_MARK, term.value)
            return slots.setdefault(term, len(slots))

        comparison_tokens = tuple(
            (comparison.op, token(comparison.left),
             token(comparison.right))
            for comparison in query.comparisons)
    return (tuple(atom_tokens), comparison_tokens), params, slots


def query_signature(query: ConjunctiveQuery) -> tuple:
    """The plan-cache key of *query*: its :func:`bind_query` shape."""
    return bind_query(query)[0]


@dataclass(frozen=True, slots=True)
class PlanStep:
    """One atom in execution order plus its comparison schedule.

    Attributes:
        atom: the atom to probe at this step.
        comparisons: comparisons that become fully bound at this step and
            are checked immediately after the atom binds its variables.
    """

    atom: Atom
    comparisons: tuple[Comparison, ...]


@dataclass(frozen=True, slots=True)
class Plan:
    """An ordered execution plan for a conjunctive query."""

    steps: tuple[PlanStep, ...]
    pre_comparisons: tuple[Comparison, ...]

    def __str__(self) -> str:
        lines = []
        for number, step in enumerate(self.steps, 1):
            line = f"{number}. probe {step.atom}"
            if step.comparisons:
                checks = " AND ".join(str(c) for c in step.comparisons)
                line += f"  [check {checks}]"
            lines.append(line)
        return "\n".join(lines) if lines else "(empty plan)"


@dataclass(slots=True, eq=False)
class _CachedOrder:
    """The cache entry for one query shape.

    Attributes:
        atom_order: indices into ``query.atoms`` in execution order.
        step_comparisons: per step, indices into ``query.comparisons``
            scheduled at that step.
        pre_comparisons: indices of constant-only comparisons.
        reads: ``(name, table, version)`` per distinct table read —
            the table object and its mutation version at plan time.  A
            version mismatch invalidates the entry (stats may have
            shifted enough to change the greedy choice); an identity
            mismatch means the table was dropped and recreated, whose
            version counter restarts.
        program: the executor's compiled program for this shape, or
            None while none is retained.  It holds handles into the
            ``reads`` tables and no rows, so it lives and dies with
            this entry.
    """

    atom_order: tuple[int, ...]
    step_comparisons: tuple[tuple[int, ...], ...]
    pre_comparisons: tuple[int, ...]
    reads: tuple[tuple, ...]
    program: object = None


class Planner:
    """Plans conjunctive queries against a database's statistics.

    The *database* object must expose ``table(name)`` and
    ``table_or_none(name)`` returning an object with
    ``count_probe(bindings)``, ``version`` and ``__len__`` — i.e.
    :class:`repro.db.table.Table`.
    """

    def __init__(self, database, cache_plans: bool = True):
        self._database = database
        self._cache_plans = cache_plans
        self._cache: dict[tuple, _CachedOrder] = {}
        # table name -> shapes of cached entries reading it (so a
        # mutation evicts exactly the entries it invalidates).
        self._by_table: dict[str, set[tuple]] = {}
        # Steps of the programs currently retained by cache entries.
        self._retained_steps = 0
        # Guards the cache and its counters: several caller threads
        # may evaluate against one database concurrently.
        self._cache_lock = threading.Lock()
        # Diagnostics (read by benchmarks and tests).
        self.cache_hits = 0
        self.cache_misses = 0
        self.program_hits = 0
        self.program_builds = 0
        # Fold constant-interval selectivity into the greedy cost so
        # sargable atoms are ordered to exploit the ordered indexes.
        # Toggled off together with executor pushdown for baselines.
        self.range_selectivity = True

    def plan(self, query: ConjunctiveQuery) -> Plan:
        """Produce an execution order for *query*."""
        order, _ = self.lookup(bind_query(query)[0], query)
        return self._replay(query, order)

    def lookup(self, shape: tuple,
               query: ConjunctiveQuery) -> tuple[_CachedOrder, object]:
        """The planning decision for *shape* and its retained program.

        This is the executor's entry point.  On a hit nothing is
        planned, validated or resolved beyond the entry's table check —
        shape-equal queries are structurally interchangeable, so the
        seeding query's validation covers them.  On a miss *query* is
        planned; unknown relations and arity mismatches fail fast
        here, before any probing.  The program is None when the entry
        is new or retains none (see :meth:`retain_program`).
        """
        if self._cache_plans:
            with self._cache_lock:
                cached = self._cache.get(shape)
                if cached is not None:
                    table_or_none = self._database.table_or_none
                    for name, table, version in cached.reads:
                        if (table_or_none(name) is not table
                                or table.version != version):
                            self._evict(shape)
                            break
                    else:
                        self.cache_hits += 1
                        program = cached.program
                        if program is not None:
                            self.program_hits += 1
                        return cached, program
                self.cache_misses += 1

        reads: dict[str, tuple] = {}
        for atom in query.atoms:
            table = self._database.table(atom.relation)
            if table.schema.arity != atom.arity:
                raise QueryEvaluationError(
                    f"atom {atom} has arity {atom.arity} but table "
                    f"{atom.relation!r} has arity {table.schema.arity}")
            reads[atom.relation] = (atom.relation, table, table.version)
        query.validate()
        # Greedy planning is the expensive part; run it unlocked (two
        # racing threads at worst both plan and the later insert wins).
        order = self._plan_greedy(query, tuple(reads.values()))
        if self._cache_plans:
            with self._cache_lock:
                if shape in self._cache:
                    self._evict(shape)
                elif len(self._cache) >= MAX_CACHED_PLANS:
                    self._clear()
                self._cache[shape] = order
                for relation in reads:
                    self._by_table.setdefault(relation, set()).add(shape)
        return order, None

    def retain_program(self, shape: tuple, order: _CachedOrder,
                       program: object) -> None:
        """Record a program build; keep *program* with *order* if the
        step budget allows.

        The budget counts plan steps, not entries: when the new
        program does not fit beside the retained ones they are all
        dropped (their orders stay cached), and a program larger than
        the whole budget is simply not kept — the caller runs it once.
        """
        steps = len(order.atom_order)
        with self._cache_lock:
            self.program_builds += 1
            if (steps > MAX_RETAINED_STEPS
                    or self._cache.get(shape) is not order):
                return
            if self._retained_steps + steps > MAX_RETAINED_STEPS:
                for other in self._cache.values():
                    other.program = None
                self._retained_steps = 0
            if order.program is None:
                self._retained_steps += steps
            order.program = program

    def clear_cache(self) -> None:
        """Drop all cached plan orders (and their programs)."""
        with self._cache_lock:
            self._clear()

    def invalidate_tables(self, names: Iterable[str]) -> None:
        """Evict cached entries whose query reads any of *names*.

        Called by the database on every committed mutation; entries
        over untouched tables stay (the cache-hit counters prove it),
        and an evicted entry leaves every table's bucket so stable
        tables cannot accumulate dead references.  The per-hit
        table check remains as the correctness backstop for mutations
        that bypass the database facade.
        """
        with self._cache_lock:
            for name in names:
                for shape in tuple(self._by_table.get(name, ())):
                    self._evict(shape)

    def cached_plan_count(self) -> int:
        """Number of cached plan orders (diagnostics)."""
        with self._cache_lock:
            return len(self._cache)

    def retained_program_count(self) -> int:
        """Number of cached entries holding a program (diagnostics)."""
        with self._cache_lock:
            return sum(order.program is not None
                       for order in self._cache.values())

    def _clear(self) -> None:
        self._cache.clear()
        self._by_table.clear()
        self._retained_steps = 0

    def _evict(self, shape: tuple) -> None:
        """Remove one entry, its program's steps and its bucket slots."""
        order = self._cache.pop(shape)
        if order.program is not None:
            self._retained_steps -= len(order.atom_order)
        for name, _, _ in order.reads:
            bucket = self._by_table[name]
            bucket.discard(shape)
            if not bucket:
                del self._by_table[name]

    @staticmethod
    def _replay(query: ConjunctiveQuery, cached: _CachedOrder) -> Plan:
        """Rebuild a plan for *query* from a cached order in O(atoms)."""
        steps = tuple(
            PlanStep(query.atoms[atom_index],
                     tuple(query.comparisons[comparison_index]
                           for comparison_index in scheduled))
            for atom_index, scheduled
            in zip(cached.atom_order, cached.step_comparisons))
        pre = tuple(query.comparisons[index]
                    for index in cached.pre_comparisons)
        return Plan(steps, pre)

    def _plan_greedy(self, query: ConjunctiveQuery,
                     reads: tuple) -> _CachedOrder:
        """Run the greedy search over *query*'s atoms.

        Cost estimates are memoized per remaining atom and invalidated
        only when one of the atom's own variables becomes bound — the
        estimate depends on nothing else — which turns the search from
        O(atoms² · probes) into O(atoms · degree) probes.  Combined
        queries over large components have hundreds of atoms, so this
        is what keeps re-planning them tractable.
        """
        atoms = query.atoms
        remaining = list(range(len(atoms)))
        atom_vars = [frozenset(atom.variables()) for atom in atoms]
        has_constants = [any(isinstance(term, Constant)
                             for term in atom.args) for atom in atoms]
        costs: list[float | None] = [None] * len(atoms)
        intervals = (constant_intervals(query.comparisons)
                     if self.range_selectivity and query.comparisons
                     else {})

        pending = [index for index, comparison
                   in enumerate(query.comparisons)
                   if comparison.variables()]
        pre_indices = tuple(index for index, comparison
                            in enumerate(query.comparisons)
                            if not comparison.variables())
        bound: set[Variable] = set()

        atom_order: list[int] = []
        step_comparisons: list[tuple[int, ...]] = []
        while remaining:
            best_index = None
            best_key: tuple | None = None
            for atom_index in remaining:
                cost = costs[atom_index]
                if cost is None:
                    cost = self._estimated_cost(atoms[atom_index], bound,
                                                intervals)
                    costs[atom_index] = cost
                connected = not bound or not bound.isdisjoint(
                    atom_vars[atom_index])
                # Prefer low cost, then connected atoms, then
                # constant-bearing atoms, then stable position order
                # (remaining preserves original order) for determinism.
                key = (cost, not connected, not has_constants[atom_index])
                if best_key is None or key < best_key:
                    best_key = key
                    best_index = atom_index
            remaining.remove(best_index)
            newly_bound = atom_vars[best_index] - bound
            bound |= newly_bound
            if newly_bound:
                for atom_index in remaining:
                    if not newly_bound.isdisjoint(atom_vars[atom_index]):
                        costs[atom_index] = None
            ready = tuple(index for index in pending
                          if query.comparisons[index].variables() <= bound)
            pending = [index for index in pending
                       if not query.comparisons[index].variables() <= bound]
            atom_order.append(best_index)
            step_comparisons.append(ready)
        if pending:  # pragma: no cover - validate() precludes
            raise QueryEvaluationError(
                "comparisons left unscheduled; query not range-restricted")
        return _CachedOrder(tuple(atom_order), tuple(step_comparisons),
                            pre_indices, reads)

    # ------------------------------------------------------------------

    def _estimated_cost(self, atom: Atom, bound: set[Variable],
                        intervals: dict[Variable, Interval] = {}) -> float:
        """Estimated number of rows a probe of *atom* would return.

        When a free variable of the atom carries a normalized constant
        interval, the estimate is scaled by the fraction of the column
        inside the interval (measured exactly with a single-column
        ordered-index window), so range-selective atoms are ordered
        ahead of their unselective join partners.
        """
        table = self._database.table(atom.relation)
        bindings: dict[int, object] = {}
        sample_complete = True
        for position, term in enumerate(atom.args):
            if isinstance(term, Constant):
                bindings[position] = term.value
            elif term in bound:
                # The value is run-time dependent; approximate with the
                # average bucket size of the index on all bound positions.
                sample_complete = False
        if sample_complete and bindings:
            estimate = float(table.count_probe(bindings))
        else:
            positions = set(bindings)
            positions.update(position
                             for position, term in enumerate(atom.args)
                             if isinstance(term, Variable) and term in bound)
            if not positions:
                estimate = float(len(table))
            else:
                index = table.index_on(tuple(sorted(positions)))
                estimate = max(index.estimate_bucket_size(len(table)),
                               0.001)
        if intervals and estimate > 0:
            estimate *= self._range_selectivity_factor(
                table, atom, bound, intervals)
        return estimate

    @staticmethod
    def _range_selectivity_factor(table, atom: Atom, bound: set[Variable],
                                  intervals: dict[Variable, Interval]
                                  ) -> float:
        """Fraction of rows surviving the intervals on free variables."""
        factor = 1.0
        total = len(table)
        seen: set[Variable] = set()
        for position, term in enumerate(atom.args):
            if (not isinstance(term, Variable) or term in bound
                    or term in seen):
                continue
            interval = intervals.get(term)
            if interval is None:
                continue
            seen.add(term)
            if interval.empty:
                return 0.0005
            if total == 0:
                continue
            index = table.ordered_index_on((), position)
            lower = (None if interval.lower is None
                     else (interval.lower, interval.lower_inclusive))
            upper = (None if interval.upper is None
                     else (interval.upper, interval.upper_inclusive))
            try:
                inside = index.count_range((), lower, upper)
            except TypeError:
                factor *= DEFAULT_RANGE_SELECTIVITY
                continue
            factor *= max(inside / total, 0.0005)
        return factor
