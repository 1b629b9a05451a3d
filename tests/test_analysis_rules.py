"""Fixture suite for the invariant linter (:mod:`repro.analysis`).

Every rule gets at least one violating snippet (the rule fires) and
one clean snippet (it does not), analyzed in memory under virtual
paths — the path decides which rules' scopes apply.  A self-check
asserts the real tree has no finding, and the CLI tests show the same
entry point returning exit 1 on an injected violation.
"""

from __future__ import annotations

import io
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import Analyzer
from repro.analysis.cli import run_lint
from repro.analysis.context import parse_pragmas
from repro.analysis.engine import rule_catalog

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Virtual paths inside each rule's scope.
ENGINE_PATH = "src/repro/engine/fixture.py"
SHARD_PATH = "src/repro/shard/fixture.py"
DURABILITY_PATH = "src/repro/durability/fixture.py"
DATAIO_PATH = "src/repro/dataio.py"


def analyze(source: str, path: str):
    return Analyzer(root=REPO_ROOT).analyze_source(
        textwrap.dedent(source), path)


def rules_of(findings):
    return [finding.rule for finding in findings]


class TestRuleCatalog:
    def test_all_seven_rules_present(self):
        assert sorted(rule_catalog()) == [
            "REP001", "REP002", "REP003", "REP004", "REP005",
            "REP006", "REP007"]

    def test_descriptions_nonempty(self):
        for rule in rule_catalog().values():
            assert rule.description


class TestDeterminismRule:
    def test_for_over_bare_set_fires(self):
        findings = analyze(
            """
            def f(values):
                pending = set(values)
                for item in pending:
                    print(item)
            """, ENGINE_PATH)
        assert rules_of(findings) == ["REP001"]
        assert findings[0].line == 4

    def test_sorted_wrapping_is_clean(self):
        findings = analyze(
            """
            def f(values):
                pending = set(values)
                for item in sorted(pending):
                    print(item)
            """, ENGINE_PATH)
        assert findings == []

    def test_set_literal_comprehension_fires(self):
        findings = analyze(
            """
            def f(rows):
                return [row for row in {r.key for r in rows}]
            """, ENGINE_PATH)
        assert rules_of(findings) == ["REP001"]

    def test_list_materializes_set_fires(self):
        findings = analyze(
            """
            def f(values):
                seen = {v for v in values}
                return list(seen)
            """, ENGINE_PATH)
        assert rules_of(findings) == ["REP001"]

    def test_order_insensitive_consumers_clean(self):
        findings = analyze(
            """
            def f(values):
                seen = set(values)
                total = sum(x for x in seen)
                low = min(seen)
                return total, low, len(seen)
            """, ENGINE_PATH)
        assert findings == []

    def test_set_union_tracked_through_operator(self):
        findings = analyze(
            """
            def f(a, b):
                left = set(a)
                both = left | set(b)
                for item in both:
                    print(item)
            """, ENGINE_PATH)
        assert rules_of(findings) == ["REP001"]

    def test_rebinding_to_sorted_clears_the_name(self):
        findings = analyze(
            """
            def f(values):
                pending = set(values)
                pending = sorted(pending)
                for item in pending:
                    print(item)
            """, ENGINE_PATH)
        assert findings == []

    def test_out_of_scope_module_not_checked(self):
        findings = analyze(
            """
            def f(values):
                pending = set(values)
                for item in pending:
                    print(item)
            """, "src/repro/obs/fixture.py")
        assert findings == []


class TestWireCompletenessRule:
    def test_missing_from_payload_fires(self):
        findings = analyze(
            """
            def record_to_payload(record):
                return {"wire": 1}
            """, DATAIO_PATH)
        assert rules_of(findings) == ["REP002"]
        assert "record_from_payload" in findings[0].message

    def test_matched_pair_with_wire_checks_is_clean(self):
        findings = analyze(
            """
            def record_to_payload(record):
                return {"wire": 1, "value": record}

            def record_from_payload(payload):
                if payload.get("wire") != 1:
                    raise ValueError("bad wire version")
                return payload["value"]
            """, DATAIO_PATH)
        assert findings == []

    def test_decoder_ignoring_wire_version_fires(self):
        findings = analyze(
            """
            def record_to_payload(record):
                return {"wire": 1, "value": record}

            def record_from_payload(payload):
                return payload["value"]
            """, DATAIO_PATH)
        assert rules_of(findings) == ["REP002"]
        assert "wire" in findings[0].message

    def test_rule_only_applies_to_dataio(self):
        findings = analyze(
            """
            def record_to_payload(record):
                return {"wire": 1}
            """, ENGINE_PATH)
        assert "REP002" not in rules_of(findings)


class TestMutationVersioningRule:
    def test_private_structure_write_fires(self):
        findings = analyze(
            """
            def sneak(table, row):
                table._rows.append(row)
            """, ENGINE_PATH)
        assert rules_of(findings) == ["REP003"]

    def test_table_mutator_call_fires(self):
        findings = analyze(
            """
            def sneak(db, rows):
                db.table("users").insert_many(rows)
            """, ENGINE_PATH)
        assert rules_of(findings) == ["REP003"]

    def test_database_facade_is_clean(self):
        findings = analyze(
            """
            def legit(database, rows):
                database.insert("users", rows)
            """, ENGINE_PATH)
        assert findings == []

    def test_table_module_itself_is_exempt(self):
        findings = analyze(
            """
            def grow(self, row):
                self._rows.append(row)
            """, "src/repro/db/table.py")
        assert findings == []


class TestSwallowedExceptionRule:
    def test_silent_pass_fires(self):
        findings = analyze(
            """
            def f():
                try:
                    work()
                except Exception:
                    pass
            """, ENGINE_PATH)
        assert rules_of(findings) == ["REP004"]

    def test_bare_except_fires(self):
        findings = analyze(
            """
            def f():
                try:
                    work()
                except:
                    pass
            """, "src/repro/obs/fixture.py")
        assert rules_of(findings) == ["REP004"]

    def test_reraise_is_clean(self):
        findings = analyze(
            """
            def f():
                try:
                    work()
                except Exception:
                    raise
            """, ENGINE_PATH)
        assert findings == []

    def test_using_the_bound_error_is_clean(self):
        findings = analyze(
            """
            def f(errors):
                try:
                    work()
                except Exception as error:
                    errors.append(error)
            """, ENGINE_PATH)
        assert findings == []

    def test_obs_layer_counter_is_clean(self):
        findings = analyze(
            """
            def f(metrics):
                try:
                    work()
                except Exception:
                    metrics.inc("failures")
            """, ENGINE_PATH)
        assert findings == []

    def test_allow_swallow_pragma_suppresses(self):
        findings = analyze(
            """
            def f():
                try:
                    work()
                except Exception:  # lint: allow-swallow(close is best-effort)
                    pass
            """, ENGINE_PATH)
        assert findings == []

    def test_narrow_handler_not_flagged(self):
        findings = analyze(
            """
            def f():
                try:
                    work()
                except KeyError:
                    pass
            """, ENGINE_PATH)
        assert findings == []


class TestTraceGuardRule:
    def test_unguarded_emission_fires(self):
        findings = analyze(
            """
            def f(trace_id):
                TRACER.event("query.submit", trace_id)
            """, ENGINE_PATH)
        assert rules_of(findings) == ["REP005"]

    def test_enabled_guard_is_clean(self):
        findings = analyze(
            """
            def f(trace_id):
                if TRACER.enabled:
                    TRACER.event("query.submit", trace_id)
            """, ENGINE_PATH)
        assert findings == []

    def test_guard_in_boolean_test_is_clean(self):
        findings = analyze(
            """
            def f(tracer, traced, start):
                if traced and tracer.enabled:
                    tracer.record_many("span", start, traced)
            """, ENGINE_PATH)
        assert findings == []

    def test_guard_outside_function_does_not_leak_in(self):
        findings = analyze(
            """
            def f(tracer, flag):
                if flag:
                    def g():
                        tracer.emit("span")
            """, ENGINE_PATH)
        assert rules_of(findings) == ["REP005"]

    def test_trace_module_itself_is_exempt(self):
        findings = analyze(
            """
            def flush(self):
                self._tracer.emit("span")
            """, "src/repro/obs/trace.py")
        assert findings == []


class TestClockDisciplineRule:
    def test_wall_clock_fires(self):
        findings = analyze(
            """
            import time

            def stamp():
                return time.time()
            """, ENGINE_PATH)
        assert rules_of(findings) == ["REP006"]

    def test_from_import_alias_fires(self):
        findings = analyze(
            """
            from time import monotonic as now

            def stamp():
                return now()
            """, DURABILITY_PATH)
        assert rules_of(findings) == ["REP006"]

    def test_perf_counter_stamped_into_state_fires(self):
        findings = analyze(
            """
            import time

            def stamp(record):
                record.settled_at = time.perf_counter()
                return record
            """, ENGINE_PATH)
        assert rules_of(findings) == ["REP006"]

    def test_perf_counter_duration_is_clean(self):
        findings = analyze(
            """
            import time

            def measure():
                start = time.perf_counter()
                work()
                return time.perf_counter() - start
            """, ENGINE_PATH)
        assert findings == []

    def test_perf_counter_in_trace_emission_is_clean(self):
        findings = analyze(
            """
            import time

            def f(tracer, trace_id):
                if tracer.enabled:
                    tracer.event("t", trace_id, at=time.perf_counter())
            """, ENGINE_PATH)
        assert findings == []

    def test_injected_clock_plumbing_is_exempt(self):
        findings = analyze(
            """
            import time

            def now():
                return time.monotonic()
            """, "src/repro/engine/staleness.py")
        assert findings == []

    def test_out_of_scope_module_not_checked(self):
        findings = analyze(
            """
            import time

            def stamp():
                return time.time()
            """, "src/repro/bench/fixture.py")
        assert findings == []


class TestWorkerSafetyRule:
    def test_lambda_process_target_fires(self):
        findings = analyze(
            """
            def spawn(context):
                return context.Process(target=lambda: None)
            """, SHARD_PATH)
        assert rules_of(findings) == ["REP007"]

    def test_local_function_target_fires(self):
        findings = analyze(
            """
            def spawn(context, config):
                def worker():
                    return config
                return context.Process(target=worker)
            """, SHARD_PATH)
        assert rules_of(findings) == ["REP007"]

    def test_module_level_target_is_clean(self):
        findings = analyze(
            """
            def _worker_main(connection):
                return connection

            def spawn(context, child):
                return context.Process(target=_worker_main,
                                       args=(child,))
            """, SHARD_PATH)
        assert findings == []

    def test_lambda_in_pipe_frame_fires(self):
        findings = analyze(
            """
            def call(connection, req_id):
                connection.send((req_id, "op", lambda: 1))
            """, SHARD_PATH)
        assert rules_of(findings) == ["REP007"]

    def test_plain_payload_frame_is_clean(self):
        findings = analyze(
            """
            def call(connection, req_id, args):
                connection.send((req_id, "op", args))
            """, SHARD_PATH)
        assert findings == []


class TestPragmas:
    def test_allow_suppresses_named_rule_on_its_line(self):
        findings = analyze(
            """
            def f(values):
                pending = set(values)
                for item in pending:  # lint: allow(REP001)
                    print(item)
            """, ENGINE_PATH)
        assert findings == []

    def test_allow_does_not_suppress_other_rules(self):
        findings = analyze(
            """
            def f(values):
                pending = set(values)
                for item in pending:  # lint: allow(REP006)
                    print(item)
            """, ENGINE_PATH)
        assert rules_of(findings) == ["REP001"]

    def test_malformed_pragma_is_itself_a_finding(self):
        findings = analyze(
            """
            x = 1  # lint: allow me please
            """, ENGINE_PATH)
        assert rules_of(findings) == ["REP000"]

    def test_empty_allow_swallow_reason_is_a_finding(self):
        findings = analyze(
            """
            def f():
                try:
                    work()
                except Exception:  # lint: allow-swallow()
                    pass
            """, ENGINE_PATH)
        assert "REP000" in rules_of(findings)
        assert "REP004" in rules_of(findings)  # not suppressed

    def test_invalid_rule_id_is_a_finding(self):
        findings = analyze(
            """
            x = 1  # lint: allow(BUG42)
            """, ENGINE_PATH)
        assert rules_of(findings) == ["REP000"]

    def test_pragma_text_in_docstring_is_inert(self):
        findings = analyze(
            '''
            def f():
                """Suppress with ``# lint: allow(nonsense)``."""
                return 1
            ''', ENGINE_PATH)
        assert findings == []

    def test_reason_recorded_for_allow_swallow(self):
        pragmas = parse_pragmas(
            "try:\n    pass\n"
            "except Exception:  # lint: allow-swallow(best effort)\n"
            "    pass\n", "x.py")
        assert pragmas.reasons[3] == "best effort"
        assert pragmas.suppresses("REP004", 3)


class TestLintCli:
    VIOLATION = textwrap.dedent(
        """
        def f(values):
            pending = set(values)
            for item in pending:
                print(item)
        """)
    CLEAN = textwrap.dedent(
        """
        def f(values):
            for item in sorted(set(values)):
                print(item)
        """)

    def _tree(self, tmp_path, source):
        module = tmp_path / "src" / "repro" / "engine"
        module.mkdir(parents=True, exist_ok=True)
        (module / "fixture.py").write_text(source)
        return tmp_path

    def _lint(self, root, *paths, **kwargs):
        out, err = io.StringIO(), io.StringIO()
        code = run_lint(list(paths), root=str(root), stdout=out,
                        stderr=err, **kwargs)
        return code, out.getvalue(), err.getvalue()

    def test_injected_violation_fails_the_run(self, tmp_path):
        root = self._tree(tmp_path, self.VIOLATION)
        code, out, _ = self._lint(root, "src")
        assert code == 1
        assert "REP001" in out

    def test_clean_tree_passes(self, tmp_path):
        root = self._tree(tmp_path, self.CLEAN)
        code, out, _ = self._lint(root, "src")
        assert code == 0
        assert "0 findings" in out

    def test_json_report_shape(self, tmp_path):
        root = self._tree(tmp_path, self.VIOLATION)
        code, out, _ = self._lint(root, "src", as_json=True)
        assert code == 1
        report = json.loads(out)
        assert report["count"] == 1
        assert report["findings"][0]["rule"] == "REP001"

    def test_missing_target_is_a_usage_error(self, tmp_path):
        code, _, err = self._lint(tmp_path, "no/such/dir")
        assert code == 2
        assert "no/such/dir" in err

    def test_rules_listing(self, tmp_path):
        code, out, _ = self._lint(tmp_path, list_rules=True)
        assert code == 0
        assert "REP001" in out and "REP007" in out

    def test_github_annotations_when_requested(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("GITHUB_ACTIONS", "1")
        root = self._tree(tmp_path, self.VIOLATION)
        code, out, _ = self._lint(root, "src")
        assert code == 1
        assert "::error file=" in out


class TestRealTreeSelfCheck:
    def test_src_and_tests_clean_modulo_committed_baseline(self):
        """The tree has no finding at all (there is no baseline to
        grandfather one)."""
        out, err = io.StringIO(), io.StringIO()
        code = run_lint([], as_json=True, root=str(REPO_ROOT),
                        stdout=out, stderr=err)
        assert code == 0, (
            "the tree has lint findings:\n"
            + out.getvalue() + err.getvalue())
        assert json.loads(out.getvalue())["count"] == 0
