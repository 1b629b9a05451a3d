"""Rule base class, the registry, and the structural rules.

Every rule is a small stateless-ish object with a stable ``rule_id``
(``REPNNN``), a path scope (prefix patterns over the repo-relative
posix path — a determinism rule has no business in the bench harness),
and three hooks the engine drives during its single walk of each
module:

* :meth:`Rule.begin_module` — module-level analysis (REP002 pairs
  functions up here);
* :meth:`Rule.visit` — called for every node whose type is listed in
  :attr:`Rule.interests`;
* :meth:`Rule.end_module` — cross-node conclusions.

This module holds the base class plus the two structural rules:

* **REP002** — every ``*_to_payload`` in ``dataio.py`` has a matching
  ``*_from_payload`` and version-stamped envelopes are checked on read;
* **REP003** — table rows and index structures are mutated only
  through the delta-committing facade.

The behavioural rules live in :mod:`repro.analysis.rules_determinism`
(REP001, REP006) and :mod:`repro.analysis.rules_runtime` (REP004,
REP005, REP007).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Tuple

from .context import ModuleContext
from .findings import Finding


class Rule:
    """Base class: identity, scope, and the engine hooks."""

    rule_id: str = "REP999"
    severity: str = "error"
    description: str = ""
    #: ast node classes :meth:`visit` wants to see.
    interests: Tuple[type, ...] = ()
    #: Repo-relative posix path prefixes this rule applies to.
    scope: Tuple[str, ...] = ("src/",)
    #: Path prefixes carved out of the scope.
    exclude: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        if not any(path.startswith(prefix) for prefix in self.scope):
            return False
        return not any(path.startswith(prefix)
                       for prefix in self.exclude)

    def begin_module(self, module: ModuleContext
                     ) -> Iterable[Finding]:
        return ()

    def visit(self, node: ast.AST,
              module: ModuleContext) -> Iterable[Finding]:
        return ()

    def end_module(self, module: ModuleContext) -> Iterable[Finding]:
        return ()

    def finding(self, module: ModuleContext, node: ast.AST,
                message: str, hint: str = "") -> Finding:
        return Finding(rule=self.rule_id, path=module.path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       severity=self.severity, message=message,
                       hint=hint)


# ----------------------------------------------------------------------
# REP002: wire completeness
# ----------------------------------------------------------------------


def _mentions_wire(function: ast.AST) -> bool:
    """True if the function's body references the ``"wire"`` payload
    key (writing it into an envelope or checking it on decode)."""
    for node in ast.walk(function):
        if isinstance(node, ast.Constant) and node.value == "wire":
            return True
    return False


class WireCompletenessRule(Rule):
    """REP002 — payload codecs come in versioned pairs.

    The shard wire format's contract is the exact round trip
    ``from_payload(to_payload(x)) == x`` with loud failure on mixed
    revisions.  A serializer without a deserializer (or an envelope
    writer whose reader never checks the ``wire`` stamp) breaks that
    contract the day someone ships the payload.
    """

    rule_id = "REP002"
    description = ("every *_to_payload has a matching *_from_payload "
                   "and versioned envelopes check their stamp")
    scope = ("src/repro/dataio.py",)

    _TO = "to_payload"
    _FROM = "from_payload"

    def begin_module(self, module: ModuleContext) -> List[Finding]:
        functions = {
            statement.name: statement
            for statement in module.tree.body
            if isinstance(statement, (ast.FunctionDef,
                                      ast.AsyncFunctionDef))}
        findings: List[Finding] = []
        for name, function in sorted(functions.items()):
            counterpart_name = self._counterpart(name)
            if counterpart_name is None:
                continue
            counterpart = functions.get(counterpart_name)
            if counterpart is None:
                findings.append(self.finding(
                    module, function,
                    f"{name} has no matching {counterpart_name}",
                    hint="wire codecs must round-trip; add the "
                         "inverse function"))
                continue
            # Version discipline is checked from the serializer side
            # only, so each pair is reported at most once.
            if (name.endswith(self._TO)
                    and _mentions_wire(function)
                    and not _mentions_wire(counterpart)):
                findings.append(self.finding(
                    module, counterpart,
                    f"{counterpart_name} decodes a versioned envelope "
                    f"but never checks the 'wire' stamp",
                    hint="mixed-revision fleets must fail loudly; "
                         "compare payload['wire'] to WIRE_VERSION"))
        return findings

    def _counterpart(self, name: str) -> str | None:
        if name == self._TO or name.endswith("_" + self._TO):
            return name[:-len(self._TO)] + self._FROM
        if name == self._FROM or name.endswith("_" + self._FROM):
            return name[:-len(self._FROM)] + self._TO
        return None


# ----------------------------------------------------------------------
# REP003: mutation versioning
# ----------------------------------------------------------------------

#: Table-internal structures only db/table.py may touch.
_PRIVATE_STRUCTURES = frozenset(
    {"_rows", "_indexes", "_ordered", "_next_row_id", "_version"})

#: Methods that exist only on Table and bypass delta commits.
_TABLE_ONLY_MUTATORS = frozenset(
    {"insert_stored", "insert_stored_many", "insert_many",
     "delete_matching"})

#: Mutators shared with the Database facade: flagged only when the
#: receiver is syntactically a table.
_SHARED_MUTATORS = frozenset({"insert", "delete_rows", "delete_where"})

#: Container methods that mutate their receiver.
_CONTAINER_MUTATORS = frozenset(
    {"pop", "popitem", "clear", "update", "setdefault", "append",
     "add", "remove", "discard", "extend", "insert"})


def _is_table_receiver(node: ast.AST) -> bool:
    """Heuristic: does this expression denote a Table object?"""
    if isinstance(node, ast.Name):
        return node.id in ("table", "tbl")
    if isinstance(node, ast.Attribute):
        return node.attr in ("table", "tbl")
    if isinstance(node, ast.Call):
        function = node.func
        return (isinstance(function, ast.Attribute)
                and function.attr in ("table", "table_or_none"))
    return False


class MutationVersioningRule(Rule):
    """REP003 — every table mutation commits a TableDelta.

    Engines mark dirty components, shard replicas replay, and the WAL
    journals off committed deltas; a row that enters or leaves a table
    without one silently diverges every one of those subsystems.  Only
    ``db/table.py`` may touch row/index storage, and only the Database
    facade's delta-committing DML may drive Table's mutators.
    """

    rule_id = "REP003"
    description = ("table rows/indexes are mutated only through "
                   "delta-committing methods")
    interests = (ast.Assign, ast.AugAssign, ast.Delete, ast.Call)
    scope = ("src/",)
    exclude = ("src/repro/db/table.py", "src/repro/db/database.py")

    def visit(self, node: ast.AST,
              module: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = (node.targets
                       if isinstance(node, (ast.Assign, ast.Delete))
                       else [node.target])
            for target in targets:
                attribute = self._private_attribute(target)
                if attribute is not None:
                    findings.append(self.finding(
                        module, node,
                        f"direct write to table-internal "
                        f"'{attribute}' outside db/table.py",
                        hint="mutate through Database.insert/"
                             "delete_* so a TableDelta is committed"))
        elif isinstance(node, ast.Call):
            findings.extend(self._check_call(node, module))
        return findings

    def _private_attribute(self, target: ast.AST) -> str | None:
        """The private structure name a store target reaches, if any
        (``x._rows = ...``, ``x._rows[k] = ...``, ``del x._rows[k]``,
        ``x._version += 1``)."""
        node = target
        if isinstance(node, ast.Subscript):
            node = node.value
        if (isinstance(node, ast.Attribute)
                and node.attr in _PRIVATE_STRUCTURES):
            return node.attr
        return None

    def _check_call(self, node: ast.Call,
                    module: ModuleContext) -> List[Finding]:
        function = node.func
        if not isinstance(function, ast.Attribute):
            return []
        # x._rows.pop(...) / x._indexes.clear() — a mutating container
        # method reached through a private structure.
        if (function.attr in _CONTAINER_MUTATORS
                and isinstance(function.value, ast.Attribute)
                and function.value.attr in _PRIVATE_STRUCTURES):
            return [self.finding(
                module, node,
                f"mutating call through table-internal "
                f"'{function.value.attr}' outside db/table.py",
                hint="mutate through Database.insert/delete_* so a "
                     "TableDelta is committed")]
        if function.attr in _TABLE_ONLY_MUTATORS:
            return [self.finding(
                module, node,
                f"Table.{function.attr}() bypasses the delta-"
                f"committing facade",
                hint="call the Database DML methods; they commit one "
                     "TableDelta per batch")]
        if (function.attr in _SHARED_MUTATORS
                and _is_table_receiver(function.value)):
            return [self.finding(
                module, node,
                f"table.{function.attr}() mutates without committing "
                f"a TableDelta",
                hint="call the Database DML methods; they commit one "
                     "TableDelta per batch")]
        return []
