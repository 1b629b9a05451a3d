"""Structured findings: what a rule reports and how it renders.

A :class:`Finding` is one rule violation at one source location.  It is
deliberately plain data — JSON-safe, hashable, totally ordered — so the
CLI can render the same object as a terminal line, a JSON record, or a
GitHub workflow annotation.
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: Severity vocabulary, worst first (sort order for reports).
SEVERITIES = ("error", "warning")


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location.

    *path* is repo-relative and posix-style so findings are
    machine-independent; *line*/*col* are
    1-based / 0-based as in :mod:`ast`.
    """

    rule: str
    path: str
    line: int
    message: str
    col: int = 0
    severity: str = "error"
    hint: str = ""

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule, self.message)

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: " \
               f"{self.rule} {self.message}"
        if self.hint:
            text += f" [hint: {self.hint}]"
        return text

    def render_github(self) -> str:
        """GitHub workflow-command form: annotates file:line in the
        step output when CI runs the linter."""
        level = "error" if self.severity == "error" else "warning"
        message = self.message.replace("%", "%25").replace(
            "\n", "%0A")
        return (f"::{level} file={self.path},line={self.line},"
                f"title={self.rule}::{message}")

    def to_json(self) -> dict:
        record = {"rule": self.rule, "path": self.path,
                  "line": self.line, "col": self.col,
                  "severity": self.severity, "message": self.message}
        if self.hint:
            record["hint"] = self.hint
        return record


def sort_findings(findings) -> list:
    """Deterministic report order: by location, then rule."""
    return sorted(findings, key=Finding.sort_key)
