"""Runtime-safety rules: swallowed exceptions (REP004), trace guards
(REP005), and worker-frame safety (REP007).
"""

from __future__ import annotations

import ast
from typing import List

from .context import ModuleContext
from .findings import Finding
from .rules import Rule

# ----------------------------------------------------------------------
# REP004: swallowed exceptions
# ----------------------------------------------------------------------

#: Method names that count as "the handler reported the error":
#: loggers, the obs layer's counters, warnings.
_REPORTING_ATTRS = frozenset(
    {"log", "debug", "info", "warning", "warn", "error", "exception",
     "critical", "inc", "observe", "gauge"})
_REPORTING_NAMES = frozenset({"print"})

_BROAD_TYPES = frozenset({"Exception", "BaseException"})


def _catches_broadly(handler: ast.ExceptHandler) -> bool:
    kind = handler.type
    if kind is None:
        return True
    candidates = kind.elts if isinstance(kind, ast.Tuple) else [kind]
    for candidate in candidates:
        if isinstance(candidate, ast.Name) \
                and candidate.id in _BROAD_TYPES:
            return True
        if isinstance(candidate, ast.Attribute) \
                and candidate.attr in _BROAD_TYPES:
            return True
    return False


class SwallowedExceptionRule(Rule):
    """REP004 — broad handlers must not eat the error silently.

    ``except Exception: pass`` hides replication divergence, lost
    migrated components, and torn journal writes equally well.  A
    broad handler must re-raise, carry the exception somewhere (bind
    it and use it), report through the obs layer, or be annotated
    ``# lint: allow-swallow(reason)`` on the ``except`` line.
    """

    rule_id = "REP004"
    description = ("except Exception must re-raise, use the error, "
                   "log, or carry an allow-swallow pragma")
    interests = (ast.ExceptHandler,)
    scope = ("src/", "tests/")

    _HINT = ("re-raise, log via the obs layer, or annotate "
             "# lint: allow-swallow(reason)")

    def visit(self, node: ast.AST,
              module: ModuleContext) -> List[Finding]:
        assert isinstance(node, ast.ExceptHandler)
        if not _catches_broadly(node):
            return []
        if self._handles(node):
            return []
        caught = ("bare except" if node.type is None
                  else "except Exception handler")
        return [self.finding(
            module, node,
            f"{caught} swallows the error",
            hint=self._HINT)]

    def _handles(self, handler: ast.ExceptHandler) -> bool:
        bound = handler.name
        for node in ast.walk(ast.Module(body=handler.body,
                                        type_ignores=[])):
            if isinstance(node, ast.Raise):
                return True
            if (bound and isinstance(node, ast.Name)
                    and node.id == bound
                    and isinstance(node.ctx, ast.Load)):
                return True
            if isinstance(node, ast.Call):
                function = node.func
                if isinstance(function, ast.Attribute) \
                        and function.attr in _REPORTING_ATTRS:
                    return True
                if isinstance(function, ast.Name) \
                        and function.id in _REPORTING_NAMES:
                    return True
        return False


# ----------------------------------------------------------------------
# REP005: tracer emissions behind the enabled flag
# ----------------------------------------------------------------------

_EMISSIONS = frozenset({"record", "record_many", "event", "emit",
                        "span"})


def _is_tracer(expression: ast.AST) -> bool:
    if isinstance(expression, ast.Name):
        return expression.id in ("TRACER", "tracer")
    if isinstance(expression, ast.Attribute):
        return expression.attr in ("TRACER", "tracer", "_tracer")
    return False


def _mentions_enabled(test: ast.AST) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute) and node.attr == "enabled":
            return True
        if isinstance(node, ast.Name) and node.id == "enabled":
            return True
    return False


class TraceGuardRule(Rule):
    """REP005 — span emission sits behind an ``enabled`` check.

    The trace layer's contract is zero cost when off: one attribute
    load and a branch.  An unguarded ``tracer.record(...)`` (or the
    payload construction in its argument list) pays allocation and a
    clock read on every hot-path execution whether anyone is tracing
    or not.
    """

    rule_id = "REP005"
    description = ("TRACER emissions (record/event/emit/span) must be "
                   "guarded by an enabled check")
    interests = (ast.Call,)
    scope = ("src/",)
    exclude = ("src/repro/obs/trace.py",)

    _HINT = ("wrap the emission in `if tracer.enabled:` — tracing "
             "must be zero-cost when off")

    def visit(self, node: ast.AST,
              module: ModuleContext) -> List[Finding]:
        assert isinstance(node, ast.Call)
        function = node.func
        if not (isinstance(function, ast.Attribute)
                and function.attr in _EMISSIONS
                and _is_tracer(function.value)):
            return []
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, (ast.If, ast.IfExp)) \
                    and _mentions_enabled(ancestor.test):
                return []
            if isinstance(ancestor, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                break
        return [self.finding(
            module, node,
            f"tracer.{function.attr}(...) outside an enabled guard",
            hint=self._HINT)]


# ----------------------------------------------------------------------
# REP007: worker-frame safety
# ----------------------------------------------------------------------


def _lambdas_in(node: ast.AST) -> List[ast.Lambda]:
    return [child for child in ast.walk(node)
            if isinstance(child, ast.Lambda)]


class WorkerSafetyRule(Rule):
    """REP007 — no lambdas/closures in objects handed to workers.

    Spawned worker processes pickle what crosses the pipe; lambdas
    and locally-defined functions do not survive the trip (or worse,
    survive by accident under fork and then diverge under spawn).
    ``Process(target=...)`` takes a module-level callable;
    ``connection.send(...)`` frames carry plain data only.
    """

    rule_id = "REP007"
    description = ("no lambdas/closures/local defs in Process targets "
                   "or worker frames")
    interests = (ast.Call,)
    scope = ("src/",)

    _HINT = ("spawned workers pickle their frames; ship module-level "
             "callables and plain payload data only")

    def visit(self, node: ast.AST,
              module: ModuleContext) -> List[Finding]:
        assert isinstance(node, ast.Call)
        function = node.func
        name = (function.attr if isinstance(function, ast.Attribute)
                else function.id if isinstance(function, ast.Name)
                else None)
        if name == "Process":
            return self._check_process(node, module)
        if name == "send" and isinstance(function, ast.Attribute) \
                and self._is_connection(function.value):
            findings = []
            for argument in list(node.args) + \
                    [keyword.value for keyword in node.keywords]:
                for found in _lambdas_in(argument):
                    findings.append(self.finding(
                        module, found,
                        "lambda inside a worker frame payload",
                        hint=self._HINT))
            return findings
        return []

    @staticmethod
    def _is_connection(expression: ast.AST) -> bool:
        if isinstance(expression, ast.Name):
            return "connection" in expression.id or \
                expression.id in ("conn", "pipe", "child")
        if isinstance(expression, ast.Attribute):
            return "connection" in expression.attr or \
                expression.attr in ("conn", "pipe", "child")
        return False

    def _check_process(self, node: ast.Call,
                       module: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        values = list(node.args) + [keyword.value
                                    for keyword in node.keywords]
        for value in values:
            for found in _lambdas_in(value):
                findings.append(self.finding(
                    module, found,
                    "lambda handed to a worker Process",
                    hint=self._HINT))
        target = next((keyword.value for keyword in node.keywords
                       if keyword.arg == "target"), None)
        if isinstance(target, ast.Name):
            scope = module.enclosing_scope(node)
            if isinstance(scope, (ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                local_defs = {
                    child.name for child in ast.walk(scope)
                    if isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                    and child is not scope}
                if target.id in local_defs:
                    findings.append(self.finding(
                        module, target,
                        f"local function {target.id!r} handed to a "
                        f"worker Process",
                        hint=self._HINT))
        return findings
