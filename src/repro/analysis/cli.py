"""The ``repro lint`` command implementation.

Kept out of :mod:`repro.cli` so the argparse surface stays thin there;
this module owns path resolution, output rendering (terminal lines,
``--json``, GitHub step annotations), and the exit code contract:

* ``0`` — no findings;
* ``1`` — any finding;
* ``2`` — usage errors (missing paths).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import List, Optional, Sequence, TextIO

from .engine import Analyzer, rule_catalog
from .findings import Finding

#: Default lint targets, relative to the repo root (missing ones are
#: skipped so the command works in partial checkouts).
DEFAULT_TARGETS = ("src", "tests")


def run_lint(paths: Sequence[str], *,
             as_json: bool = False,
             list_rules: bool = False,
             root: Optional[str] = None,
             stdout: Optional[TextIO] = None,
             stderr: Optional[TextIO] = None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    analyzer = Analyzer(root=Path(root) if root else None)

    if list_rules:
        for rule_id, rule in sorted(rule_catalog().items()):
            print(f"{rule_id}  {rule.description}", file=out)
        return 0

    targets = list(paths)
    if not targets:
        targets = [name for name in DEFAULT_TARGETS
                   if (analyzer.root / name).is_dir()]
        if not targets:
            print(f"lint: no default targets "
                  f"({', '.join(DEFAULT_TARGETS)}) under "
                  f"{analyzer.root}", file=err)
            return 2
    try:
        findings = analyzer.analyze_paths(targets)
    except FileNotFoundError as error:
        print(f"lint: {error}", file=err)
        return 2

    if as_json:
        print(json.dumps(_json_report(findings), indent=2,
                         sort_keys=True), file=out)
    else:
        _render_text(findings, out)
    return 1 if findings else 0


def _json_report(findings: List[Finding]) -> dict:
    return {"version": 1,
            "findings": [finding.to_json() for finding in findings],
            "count": len(findings)}


def _render_text(findings: List[Finding], out: TextIO) -> None:
    annotate = bool(os.environ.get("GITHUB_ACTIONS"))
    for finding in findings:
        print(finding.render(), file=out)
        if annotate:
            print(finding.render_github(), file=out)
    print(f"lint: {len(findings)} finding"
          f"{'' if len(findings) == 1 else 's'}", file=out)
