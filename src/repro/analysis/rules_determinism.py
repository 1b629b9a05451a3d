"""Determinism rules: iteration order (REP001) and clocks (REP006).

The reproduction's headline guarantee — byte-identical answers at
1/2/4 shards, replicas that replay to the exact primary state — dies
the moment an answer-producing path iterates a hash-ordered set or a
replayed subsystem reads a live clock.  These two rules make that a
parse-time property instead of a probabilistic test outcome.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from .context import ModuleContext
from .findings import Finding
from .rules import Rule

# ----------------------------------------------------------------------
# REP001: no iteration over bare sets in answer-producing modules
# ----------------------------------------------------------------------

#: Builtins whose result does not depend on argument order; a set
#: flowing straight into one of these is harmless.
_ORDER_INSENSITIVE = frozenset(
    {"sorted", "min", "max", "sum", "any", "all", "len", "set",
     "frozenset"})

#: Consumers that materialize iteration order (flagged when fed a set).
_ORDER_MATERIALIZERS = frozenset({"list", "tuple", "enumerate"})

#: Set methods returning another set.
_SET_PRODUCERS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference",
     "copy"})

#: Binary operators closed over sets.
_SET_OPERATORS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _local_set_bindings(scope: ast.AST,
                        module: ModuleContext) -> Set[str]:
    """Names bound (only) to set-valued expressions in *scope*.

    A monotone fixpoint over the scope's plain single-name
    assignments: a name qualifies when every expression ever assigned
    to it is syntactically set-valued (given the names already known).
    Rebinding a set name to ``sorted(...)`` therefore removes it —
    exactly the fix the rule asks for.
    """
    cache = module.scope_cache(scope)
    bindings = cache.get("set_bindings")
    if bindings is not None:
        return bindings
    assigned: dict[str, list] = {}
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                assigned.setdefault(target.id, []).append(node.value)
        elif (isinstance(node, ast.AnnAssign) and node.value is not None
                and isinstance(node.target, ast.Name)):
            assigned.setdefault(node.target.id, []).append(node.value)
    bindings = set()
    while True:
        grown = {
            name for name, values in assigned.items()
            if name not in bindings
            and all(_is_set_expr(value, bindings) for value in values)}
        if not grown:
            break
        bindings |= grown
    cache["set_bindings"] = bindings
    return bindings


def _is_set_expr(node: ast.AST, bindings: Set[str]) -> bool:
    """Is *node* syntactically set-valued?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        function = node.func
        if (isinstance(function, ast.Name)
                and function.id in ("set", "frozenset")):
            return True
        if (isinstance(function, ast.Attribute)
                and function.attr in _SET_PRODUCERS):
            return _is_set_expr(function.value, bindings)
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op,
                                                  _SET_OPERATORS):
        return (_is_set_expr(node.left, bindings)
                or _is_set_expr(node.right, bindings))
    if isinstance(node, ast.Name):
        return node.id in bindings
    return False


class DeterminismRule(Rule):
    """REP001 — no bare-set iteration where answers are produced.

    ``PYTHONHASHSEED`` varies per process; iterating a set (or
    anything built from one) in ``core/``, ``engine/``, ``shard/`` or
    the executor makes answer bytes, routing, and migration groups
    process-dependent.  Wrap the iterable in ``sorted(...)`` — or feed
    it to an order-insensitive consumer.
    """

    rule_id = "REP001"
    description = ("no iteration over bare set/frozenset in "
                   "answer-producing modules unless sorted(...)")
    interests = (ast.For, ast.ListComp, ast.GeneratorExp, ast.DictComp,
                 ast.Call)
    scope = ("src/repro/core/", "src/repro/engine/",
             "src/repro/shard/", "src/repro/db/executor.py")

    _HINT = ("wrap the iterable in sorted(...); answer-producing "
             "paths must not observe hash order")

    def visit(self, node: ast.AST,
              module: ModuleContext) -> List[Finding]:
        if isinstance(node, ast.For):
            return self._check_iter(node.iter, node, module)
        if isinstance(node, (ast.ListComp, ast.DictComp,
                             ast.GeneratorExp)):
            if isinstance(node, ast.GeneratorExp) \
                    and self._consumed_order_insensitively(node,
                                                           module):
                return []
            findings: List[Finding] = []
            for comprehension in node.generators:
                findings.extend(self._check_iter(comprehension.iter,
                                                 node, module))
            return findings
        if isinstance(node, ast.Call):
            function = node.func
            if (isinstance(function, ast.Name)
                    and function.id in _ORDER_MATERIALIZERS
                    and node.args
                    and not self._consumed_order_insensitively(
                        node, module)):
                return self._check_iter(node.args[0], node, module,
                                        via=function.id)
        return []

    def _check_iter(self, iterable: ast.AST, site: ast.AST,
                    module: ModuleContext,
                    via: Optional[str] = None) -> List[Finding]:
        if (isinstance(iterable, ast.Call)
                and isinstance(iterable.func, ast.Name)
                and iterable.func.id in _ORDER_INSENSITIVE):
            return []
        scope = module.enclosing_scope(site)
        bindings = _local_set_bindings(scope, module)
        if not _is_set_expr(iterable, bindings):
            return []
        what = (f"{via}() materializes" if via
                else "iteration observes")
        return [self.finding(
            module, site,
            f"{what} the hash order of an unordered set",
            hint=self._HINT)]

    def _consumed_order_insensitively(self, node: ast.AST,
                                      module: ModuleContext) -> bool:
        parent = module.parent(node)
        return (isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in _ORDER_INSENSITIVE
                and node in parent.args)


# ----------------------------------------------------------------------
# REP006: clock discipline in replayable subsystems
# ----------------------------------------------------------------------

#: ``time`` module functions that read a clock the recovery replay
#: cannot pin.  perf counters are handled separately (duration
#: measurement is fine; stamping state is not).
_WALL_CLOCKS = frozenset({"time", "monotonic"})
_PERF_COUNTERS = frozenset({"perf_counter", "perf_counter_ns"})
_DATETIME_READS = frozenset({"now", "utcnow", "today"})

#: Tracer emission methods: a perf-counter read feeding a span is
#: observational, never replayed state.
_TRACE_EMISSIONS = frozenset(
    {"record", "record_many", "event", "emit", "span"})


class ClockDisciplineRule(Rule):
    """REP006 — replayable subsystems use the injected clock.

    Crash recovery replays journalled commands under a pinned clock;
    shard workers judge staleness against coordinator time.  A
    ``time.time()`` (or any live wall-clock read) in ``engine/`` or
    ``durability/`` produces state a replay cannot reproduce.  Perf
    counters are allowed only as duration measurements (subtracted, or
    bound to a ``start``/``end`` local) or inside tracer emissions —
    never stamped into state.
    """

    rule_id = "REP006"
    description = ("no live clock reads in engine/ or durability/ "
                   "outside the injected-clock plumbing")
    interests = (ast.Call,)
    scope = ("src/repro/engine/", "src/repro/durability/")
    exclude = ("src/repro/engine/staleness.py",)

    _HINT = ("take time from the injected Clock "
             "(repro.engine.staleness) so recovery replays and shard "
             "workers stay deterministic")

    def begin_module(self, module: ModuleContext
                     ) -> Iterable[Finding]:
        # Names bound by `from time import ...` so bare calls resolve.
        wall: Set[str] = set()
        perf: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    local = alias.asname or alias.name
                    if alias.name in _WALL_CLOCKS:
                        wall.add(local)
                    elif alias.name in _PERF_COUNTERS:
                        perf.add(local)
        cache = module.scope_cache(module.tree)
        cache["rep006_wall"] = wall
        cache["rep006_perf"] = perf
        return ()

    def visit(self, node: ast.AST,
              module: ModuleContext) -> List[Finding]:
        assert isinstance(node, ast.Call)
        kind = self._clock_kind(node.func, module)
        if kind is None:
            return []
        if kind == "wall":
            return [self.finding(
                module, node,
                "live wall-clock read in a replayable subsystem",
                hint=self._HINT)]
        if self._is_duration_measurement(node, module):
            return []
        return [self.finding(
            module, node,
            "perf-counter value stamped into state (not a duration "
            "measurement)",
            hint=self._HINT)]

    def _clock_kind(self, function: ast.AST,
                    module: ModuleContext) -> Optional[str]:
        cache = module.scope_cache(module.tree)
        if isinstance(function, ast.Attribute):
            value = function.value
            if isinstance(value, ast.Name) and value.id == "time":
                if function.attr in _WALL_CLOCKS:
                    return "wall"
                if function.attr in _PERF_COUNTERS:
                    return "perf"
            if function.attr in _DATETIME_READS:
                root = value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if (isinstance(root, ast.Name)
                        and root.id in ("datetime", "date")):
                    return "wall"
            return None
        if isinstance(function, ast.Name):
            if function.id in cache.get("rep006_wall", ()):
                return "wall"
            if function.id in cache.get("rep006_perf", ()):
                return "perf"
        return None

    def _is_duration_measurement(self, node: ast.Call,
                                 module: ModuleContext) -> bool:
        """Climb to the enclosing statement looking for a duration
        shape: an operand of a subtraction, an argument of a tracer
        emission, or the value bound to a start/end-named local."""
        for ancestor in module.ancestors(node):
            if (isinstance(ancestor, ast.BinOp)
                    and isinstance(ancestor.op, ast.Sub)):
                return True
            if (isinstance(ancestor, ast.Call)
                    and isinstance(ancestor.func, ast.Attribute)
                    and ancestor.func.attr in _TRACE_EMISSIONS):
                return True
            if isinstance(ancestor, (ast.Assign, ast.AnnAssign)):
                targets = (ancestor.targets
                           if isinstance(ancestor, ast.Assign)
                           else [ancestor.target])
                return all(self._is_instant_name(target)
                           for target in targets)
            if isinstance(ancestor, ast.stmt):
                return False
        return False

    @staticmethod
    def _is_instant_name(target: ast.AST) -> bool:
        return (isinstance(target, ast.Name)
                and any(token in target.id
                        for token in ("start", "end", "begin")))
