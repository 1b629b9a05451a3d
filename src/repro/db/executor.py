"""Backtracking evaluation of conjunctive queries over hash indexes.

Follows the plan from :mod:`repro.db.planner`: at each step, probe the
step's table on the positions bound by constants and already-bound join
variables, bind the row's values for the newly bound variables
(verifying repeated occurrences agree), check the comparisons that just
became fully bound, and recurse.  Results stream out as generator items
so ``LIMIT 1`` — the common case for combined queries — touches as
little data as possible.

Plans are *compiled per query shape*, not per query.  Which positions
are bound at a given step is static (constants plus variables bound by
earlier steps), and so is everything that follows from it: the table
handle, the hash- or ordered-index handle on the bound positions, where
each key component comes from, which registers a row fills.  The
thousands of combined queries a coordination round evaluates differ
only in their atoms' constants and in variable names, so
:func:`repro.db.planner.bind_query` splits each into a shape and the
values that fill it, the :class:`Program` compiled for the shape is
kept with the planner's cache entry, and running it takes one flat
*slot list* per call: the query's variables by first-occurrence number,
then the atoms' constants, then the program's own comparison literals.
A program holds handles and no rows — every probe reads the live
tables — so nothing computed against an older database state can
survive a mutation.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from ..core.terms import Atom, Constant
from ..errors import QueryEvaluationError
from .expression import (ConjunctiveQuery, OPERATORS, RangePlan,
                         plan_step_ranges)
from .planner import CONSTANT_MARK, Planner, bind_query

#: A valuation binds variables to plain Python values (not Constants).
Valuation = dict

#: Sentinel marking an exhausted row iterator in the search stack.
_EXHAUSTED = object()


class ProgramStep:
    """One plan step with its lookup machinery pre-resolved.

    Exactly one fetch strategy is set per step:

    * ``scan`` — no bound positions: full-table scan via ``table.rows``;
    * ``probe``/``row_map`` — a hash-index probe whose key is read from
      the slot list (``single`` for a one-column key, the ``key``
      getter otherwise);
    * ``range_probe`` — an ordered-index probe: equality prefix plus a
      bisected window on the range column (sargable comparisons are
      consumed by the window; only ``comparisons`` stay per-row).

    ``binds`` pairs each newly bound position with its variable's
    slot; ``same`` lists the later occurrences of a variable first
    bound by this very atom (``F(x, x)``), which must agree with it.
    ``comparisons`` are ``(operator, left slot, right slot)`` triples.
    """

    __slots__ = ("binds", "same", "comparisons", "scan", "probe",
                 "row_map", "single", "key", "range_probe")

    def __init__(self, binds, same, comparisons, scan=None, probe=None,
                 row_map=None, key_slots=(), range_probe=None):
        self.binds = binds
        self.same = same
        self.comparisons = comparisons
        self.scan = scan
        self.probe = probe
        self.row_map = row_map
        # Fast path: a one-column key needs no getter call.
        self.single = key_slots[0] if len(key_slots) == 1 else None
        self.key = itemgetter(*key_slots) if len(key_slots) > 1 else None
        self.range_probe = range_probe


class Program:
    """The compiled form of one query shape (immutable once built).

    ``contradiction`` marks a shape whose comparisons were proven
    unsatisfiable at compile time; it has no steps and no results.
    """

    __slots__ = ("steps", "pre", "variable_count", "literals",
                 "contradiction")

    def __init__(self, steps, pre, variable_count, literals,
                 contradiction=False):
        self.steps = steps
        self.pre = pre
        self.variable_count = variable_count
        self.literals = literals
        self.contradiction = contradiction


def _build_program(shape: tuple, query: ConjunctiveQuery, slots: dict,
                   order, pushdown: bool) -> Program:
    """Compile *order* for *shape*, which *query* was bound to.

    The atoms are read from the shape alone — a constant contributes
    its slot, never its value; *query* supplies the comparisons (whose
    constants are part of the shape).
    """
    atom_shapes = shape[0]
    variable_count = len(slots)
    # Slot layout: variables, atom constants in order of appearance
    # (bind_query's params), then this program's comparison literals.
    param_base = []
    next_slot = variable_count
    for _, tokens in atom_shapes:
        param_base.append(next_slot)
        next_slot += tokens.count(CONSTANT_MARK)
    literals: list = []

    def slot_of(term) -> int:
        if isinstance(term, Constant):
            literals.append(term.value)
            return next_slot + len(literals) - 1
        return slots[term]

    def compiled(comparisons) -> tuple:
        return tuple((OPERATORS[comparison.op], slot_of(comparison.left),
                      slot_of(comparison.right))
                     for comparison in comparisons)

    tables = {name: table for name, table, _ in order.reads}
    # (relation, key positions) -> (bucket getter, row map): large
    # shapes probe the same few indexes hundreds of times.
    handles: dict[tuple, tuple] = {}
    bound: set[int] = set()
    steps = []
    for atom_index, scheduled in zip(order.atom_order,
                                     order.step_comparisons):
        relation, tokens = atom_shapes[atom_index]
        residual = ()
        range_plan = None
        if scheduled:
            comparisons = tuple(query.comparisons[index]
                                for index in scheduled)
            if pushdown:
                # Classification needs the *pre-step* bound set: a
                # variable bound by this very atom cannot feed its own
                # probe window.
                range_plan = plan_step_ranges(
                    query.atoms[atom_index], comparisons,
                    {variable for variable, slot in slots.items()
                     if slot in bound})
                if range_plan.empty:
                    # A contradictory interval empties the whole
                    # conjunction: no step of it needs to run.
                    return Program((), (), variable_count, (),
                                   contradiction=True)
                comparisons = range_plan.residual
            residual = compiled(comparisons)

        positions: list[int] = []
        key_slots: list[int] = []
        binds: list[tuple[int, int]] = []
        same: list[tuple[int, int]] = []
        fresh: list[int] = []
        param = param_base[atom_index]
        for position, token in enumerate(tokens):
            if token == CONSTANT_MARK:
                positions.append(position)
                key_slots.append(param)
                param += 1
            elif token in bound:
                positions.append(position)
                key_slots.append(token)
            elif token in fresh:
                # Repeated free variable in one atom, e.g. F(x, x).
                same.append((position, token))
            else:
                fresh.append(token)
                binds.append((position, token))
        bound.update(fresh)

        # index_on canonicalizes to sorted positions; the key slots
        # were collected in that order.  (Positional construction, no
        # per-step kwargs dict: the build is the whole cost of shapes
        # that are never reused.)
        binds, same = tuple(binds), tuple(same)
        if range_plan is not None and range_plan.range_position is not None:
            steps.append(ProgramStep(
                binds, same, residual,
                range_probe=_range_probe(tables[relation], tuple(positions),
                                         key_slots, range_plan, slots)))
        elif not positions:
            steps.append(ProgramStep(binds, same, residual,
                                     scan=tables[relation].rows))
        else:
            handle = (relation, *positions)
            found = handles.get(handle)
            if found is None:
                table = tables[relation]
                found = handles[handle] = (
                    table.index_on(positions).bucket_getter(),
                    table.row_map)
            steps.append(ProgramStep(binds, same, residual,
                                     probe=found[0], row_map=found[1],
                                     key_slots=key_slots))
    pre = compiled(query.comparisons[index]
                   for index in order.pre_comparisons)
    return Program(tuple(steps), pre, variable_count, tuple(literals))


def _range_probe(table, prefix_positions, key_slots, range_plan, slots):
    """An ordered-index probe over the slot list.

    The equality prefix is read from *key_slots*; each bound of the
    range column is either fixed by the shape (a comparison constant)
    or read from the slot of an earlier-bound variable.
    """
    index = table.ordered_index_on(prefix_positions,
                                   range_plan.range_position)

    def bound_spec(spec):
        """Split a RangePlan bound into (fixed pair, slot pair)."""
        if spec is None:
            return None, None
        term, inclusive = spec
        if isinstance(term, Constant):
            return (term.value, inclusive), None
        return None, (slots[term], inclusive)

    lower_fixed, lower_read = bound_spec(range_plan.lower)
    upper_fixed, upper_read = bound_spec(range_plan.upper)
    range_window = index.range_window
    row_ids_window = index.row_ids_window
    prefix_size = index.prefix_size
    total_entries = index.__len__
    row_map = table.row_map
    note = table.note_range_probe

    def probe(slot_list):
        prefix_key = tuple([slot_list[slot] for slot in key_slots])
        lower = lower_fixed
        if lower_read is not None:
            lower = (slot_list[lower_read[0]], lower_read[1])
        upper = upper_fixed
        if upper_read is not None:
            upper = (slot_list[upper_read[0]], upper_read[1])
        start, end = range_window(prefix_key, lower, upper)
        returned = end - start
        candidates = (prefix_size(prefix_key) if prefix_key
                      else total_entries())
        note(returned, candidates - returned)
        if not returned:
            return iter(())
        return iter([row_map[row_id]
                     for row_id in row_ids_window(start, end)])

    return probe


class Executor:
    """Evaluates conjunctive queries against a database instance."""

    def __init__(self, database):
        self._planner = Planner(database)
        # Ordered-index pushdown: programs serve sargable comparisons
        # from bisected windows.  Disabled only for the
        # scan-and-filter reference leg of the range-index tests.
        self.range_pushdown = True
        # Evaluations of shapes proven contradictory at compile time.
        self.empty_prunes = 0

    @property
    def planner(self) -> Planner:
        """The planner (and shape cache) this executor runs on."""
        return self._planner

    def evaluate(self, query: ConjunctiveQuery,
                 limit: int | None = None) -> Iterator[Valuation]:
        """Yield valuations (variable -> value) satisfying *query*.

        Respects ``query.distinct`` (projected on ``output_variables``)
        and stops after *limit* results if given.  An atom-free query
        yields one empty valuation iff all constant comparisons hold.
        """
        program, params, slots = self._compiled(query)
        results = self._search(program, params, slots)
        if query.distinct:
            results = self._deduplicate(results, query)
        if limit is not None:
            results = self._take(results, limit)
        return results

    def project(self, query: ConjunctiveQuery, variables: Sequence,
                limit: int) -> Iterator:
        """Per valuation of *query* (at most *limit*, ``distinct`` not
        applied), the values of *variables* — a tuple, or one bare value
        — read straight from the search's slots: no dict per row."""
        program, params, slots = self._compiled(query)
        if not all(variable in slots for variable in variables):
            raise QueryEvaluationError(
                f"{variables} are not all bound by {query}")
        return self._take(self._search(
            program, params, slots,
            itemgetter(*[slots[variable] for variable in variables])),
            limit)

    def _compiled(self, query: ConjunctiveQuery) -> tuple:
        """*query*'s shape program (built once) and its slot values."""
        shape, params, slots = bind_query(query)
        order, program = self._planner.lookup(shape, query)
        if program is None:
            program = _build_program(shape, query, slots, order,
                                     self.range_pushdown)
            self._planner.retain_program(shape, order, program)
        if program.contradiction:
            self.empty_prunes += 1
        return program, params, slots

    def set_range_pushdown(self, enabled: bool) -> None:
        """Toggle ordered-index pushdown (the tests' reference leg).

        Programs and cached plan orders embed the decision, so the
        cache is dropped; the planner's selectivity term is toggled in
        lockstep to keep the baseline leg's plans identical to the
        pre-ordered-index planner.
        """
        self.range_pushdown = enabled
        self._planner.range_selectivity = enabled
        self._planner.clear_cache()

    def first(self, query: ConjunctiveQuery) -> Optional[Valuation]:
        """Return one satisfying valuation or None (``LIMIT 1``)."""
        for valuation in self.evaluate(query, limit=1):
            return valuation
        return None

    def count(self, query: ConjunctiveQuery) -> int:
        """Number of satisfying valuations."""
        return sum(1 for _ in self.evaluate(query))

    def explain(self, query: ConjunctiveQuery) -> str:
        """Human-readable plan (join order and comparison schedule)."""
        return str(self._planner.plan(query))

    # ------------------------------------------------------------------

    @staticmethod
    def _rows_for(step: ProgramStep, slots: list):
        """Row iterator for *step* under the current slot values."""
        if step.scan is not None:
            return step.scan()
        if step.range_probe is not None:
            return step.range_probe(slots)
        # One key slot reads a one-column index, keyed by bare values.
        if step.single is not None:
            row_ids = step.probe(slots[step.single])
        else:
            row_ids = step.probe(step.key(slots))
        if not row_ids:
            return iter(())
        row_map = step.row_map
        return iter([row_map[row_id] for row_id in row_ids])

    def _search(self, program: Program, params: list, variables,
                project=None) -> Iterator:
        """Iterative backtracking search over the program's steps.

        One explicit stack of row iterators instead of a generator per
        recursion depth: results no longer bubble through a chain of
        ``yield from`` frames, which roughly halves the per-row overhead
        of deep join plans (the coordination hot path evaluates millions
        of rows per benchmark round).  All run state is local to the
        call — programs are shared across threads.  A slot is only read
        by steps deeper than the one that binds it, so backtracking
        needs no undo: the next row simply overwrites it.  Results are
        valuations over *variables*, or ``project(slots)`` if given.
        """
        if program.contradiction:
            return
        slots: list = [None] * program.variable_count
        slots.extend(params)
        slots.extend(program.literals)
        for compare, left, right in program.pre:
            if not compare(slots[left], slots[right]):
                return
        steps = program.steps
        last = len(steps) - 1
        if last < 0:
            yield {} if project is None else project(slots)
            return
        iterators: list = [None] * (last + 1)
        sentinel = _EXHAUSTED
        rows_for = self._rows_for
        depth = 0
        iterators[0] = rows_for(steps[0], slots)
        while True:
            row = next(iterators[depth], sentinel)
            if row is sentinel:
                depth -= 1
                if depth < 0:
                    return
                continue
            step = steps[depth]
            for position, slot in step.binds:
                slots[slot] = row[position]
            if step.same and any(row[position] != slots[slot]
                                 for position, slot in step.same):
                continue
            if step.comparisons and not all(
                    compare(slots[left], slots[right])
                    for compare, left, right in step.comparisons):
                continue
            if depth == last:
                yield (dict(zip(variables, slots)) if project is None
                       else project(slots))
                continue
            depth += 1
            iterators[depth] = rows_for(steps[depth], slots)

    @staticmethod
    def _deduplicate(results: Iterator[Valuation],
                     query: ConjunctiveQuery) -> Iterator[Valuation]:
        projection = query.output_variables
        seen: set[tuple] = set()
        for valuation in results:
            if projection is None:
                key = tuple(sorted((variable.name, valuation[variable])
                                   for variable in valuation))
            else:
                key = tuple(valuation[variable] for variable in projection)
            if key not in seen:
                seen.add(key)
                yield valuation

    @staticmethod
    def _take(results: Iterator[Valuation],
              limit: int) -> Iterator[Valuation]:
        if limit < 0:
            raise QueryEvaluationError(f"limit must be >= 0, got {limit}")
        return islice(results, limit)


def evaluate_naive(database, query: ConjunctiveQuery) -> list[Valuation]:
    """Reference nested-loop evaluation (no planner, no indexes).

    Exponentially slower but obviously correct; tests compare the
    executor's output against this oracle on small instances.
    """
    query.validate()

    def recurse(atoms: list[Atom], valuation: Valuation) -> Iterator[Valuation]:
        if not atoms:
            if all(comparison.evaluate(valuation)
                   for comparison in query.comparisons):
                yield dict(valuation)
            return
        atom = atoms[0]
        table = database.table(atom.relation)
        for row in table.rows():
            trial = dict(valuation)
            matched = True
            for position, term in enumerate(atom.args):
                value = row[position]
                if isinstance(term, Constant):
                    if term.value != value:
                        matched = False
                        break
                elif term in trial:
                    if trial[term] != value:
                        matched = False
                        break
                else:
                    trial[term] = value
            if matched:
                yield from recurse(atoms[1:], trial)

    results = list(recurse(list(query.atoms), {}))
    if query.distinct:
        deduped: list[Valuation] = []
        seen: set[tuple] = set()
        projection = query.output_variables
        for valuation in results:
            if projection is None:
                key = tuple(sorted((variable.name, valuation[variable])
                                   for variable in valuation))
            else:
                key = tuple(valuation[variable] for variable in projection)
            if key not in seen:
                seen.add(key)
                deduped.append(valuation)
        return deduped
    return results
