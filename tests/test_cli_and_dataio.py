"""Tests for the data-file loader and the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.dataio import dump_database, load_database
from repro.errors import ParseError

INTRO_DATA = """
-- the paper's Figure 1(a)
table Flights fno:int dest:text
row Flights 122 'Paris'
row Flights 123 'Paris'
row Flights 134 'Paris'
row Flights 136 'Rome'
table Airlines fno:int airline:text
row Airlines 122 'United'
row Airlines 123 'United'
row Airlines 134 'Lufthansa'
row Airlines 136 'Alitalia'
"""

INTRO_WORKLOAD = """
{Reservation(Jerry, x)} Reservation(Kramer, x) <- Flights(x, Paris)
{Reservation(Kramer, y)} Reservation(Jerry, y) <- Flights(y, Paris), Airlines(y, United)
"""


class TestDataIo:
    def test_load_from_text(self):
        db = load_database(INTRO_DATA)
        assert db.table_names() == ["Airlines", "Flights"]
        assert len(db.table("Flights")) == 4

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "intro.data"
        path.write_text(INTRO_DATA)
        db = load_database(path)
        assert len(db.table("Airlines")) == 4

    def test_typed_columns_enforced(self):
        with pytest.raises(ParseError, match="bad row"):
            load_database("table T a:int\nrow T 'not-an-int'\n")

    def test_untyped_columns_allowed(self):
        db = load_database("table T a b\nrow T 1 'x'\n")
        assert list(db.table("T").rows()) == [(1, "x")]

    def test_bare_identifiers_become_strings(self):
        db = load_database("table T a:text\nrow T Paris\n")
        assert list(db.table("T").rows()) == [("Paris",)]

    def test_unknown_directive_rejected(self):
        with pytest.raises(ParseError, match="expected 'table'"):
            load_database("create T a\n")

    def test_bad_table_line(self):
        with pytest.raises(ParseError, match="table line"):
            load_database("table OnlyName\n")

    def test_dump_roundtrip(self):
        db = load_database(INTRO_DATA)
        clone = load_database(dump_database(db))
        assert clone.table_names() == db.table_names()
        for name in db.table_names():
            assert (sorted(clone.table(name).rows())
                    == sorted(db.table(name).rows()))

    def test_dump_escapes_quotes(self):
        db = load_database("table T a:text\nrow T 'O''Hare'\n")
        clone = load_database(dump_database(db))
        assert list(clone.table("T").rows()) == [("O'Hare",)]


class TestCli:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        output = capsys.readouterr().out
        assert "Coordinated answers" in output
        assert "kramer" in output and "jerry" in output

    def test_coordinate_command(self, tmp_path, capsys):
        data = tmp_path / "intro.data"
        data.write_text(INTRO_DATA)
        workload = tmp_path / "intro.eq"
        workload.write_text(INTRO_WORKLOAD)
        assert main(["coordinate", str(data), str(workload)]) == 0
        output = capsys.readouterr().out
        assert output.count("answered") == 2
        assert "-- graph" in output

    def test_coordinate_all_failed_exit_code(self, tmp_path, capsys):
        data = tmp_path / "intro.data"
        data.write_text(INTRO_DATA)
        workload = tmp_path / "lonely.eq"
        workload.write_text(
            "{Reservation(Jerry, x)} Reservation(Kramer, x) "
            "<- Flights(x, Paris)\n")
        assert main(["coordinate", str(data), str(workload)]) == 2
        assert "unmatched" in capsys.readouterr().out

    def test_coordinate_empty_workload(self, tmp_path, capsys):
        data = tmp_path / "intro.data"
        data.write_text(INTRO_DATA)
        workload = tmp_path / "empty.eq"
        workload.write_text("-- nothing here\n")
        assert main(["coordinate", str(data), str(workload)]) == 1

    def test_coordinate_with_ucs_fallback(self, tmp_path, capsys):
        data = tmp_path / "intro.data"
        data.write_text(INTRO_DATA)
        workload = tmp_path / "fig3b.eq"
        workload.write_text(INTRO_WORKLOAD.replace(
            "Airlines(y, United)", "Airlines(y, United)") + (
            "{Reservation(Jerry, z)} Reservation(Frank, z) "
            "<- Flights(z, Paris), Airlines(z, Swiss)\n"))
        assert main(["coordinate", str(data), str(workload),
                     "--ucs-fallback"]) == 0
        output = capsys.readouterr().out
        assert output.count("answered") == 2
        assert "no_data" in output

    @pytest.mark.parametrize("flags", [[], ["--shards", "2"],
                                       ["--wal-dir", "WAL"]])
    @pytest.mark.parametrize("bad", ["parse", "table", "data",
                                     "workload"])
    def test_coordinate_reports_bad_input_in_one_line(self, tmp_path,
                                                      capsys, bad,
                                                      flags):
        data = tmp_path / "intro.data"
        data.write_text(INTRO_DATA)
        workload = tmp_path / "bad.eq"
        workload.write_text({
            "parse": "this is not a query (\n",
            "table": "{} R(Ghost, z) <- NoSuchTable(z)\n",
        }.get(bad, INTRO_WORKLOAD))
        paths = [tmp_path / "missing.data" if bad == "data" else data,
                 tmp_path / "missing.eq" if bad == "workload"
                 else workload]
        flags = [str(tmp_path / "wal") if flag == "WAL" else flag
                 for flag in flags]
        assert main(["coordinate", *map(str, paths), *flags]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if not line.startswith("note: ")]
        assert len(errors) == 1
        assert errors[0].startswith("coordinate: ")

    def test_sql_command(self, tmp_path, capsys):
        data = tmp_path / "intro.data"
        data.write_text(INTRO_DATA)
        assert main(["sql", str(data),
                     "SELECT fno FROM Flights WHERE dest = 'Rome'"]) == 0
        assert capsys.readouterr().out.strip() == "136"

    @pytest.mark.parametrize("query, message", [
        ("SELECT fno FROM", "sql: expected identifier"),
        ("SELECT bogus FROM Flights", "sql: unknown column 'bogus'"),
    ])
    def test_sql_command_reports_bad_input(self, tmp_path, query,
                                           message):
        import os
        import pathlib
        import subprocess
        import sys
        data = tmp_path / "intro.data"
        data.write_text(INTRO_DATA)
        source = pathlib.Path(__file__).resolve().parent.parent / "src"
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "sql", str(data), query],
            env=dict(os.environ, PYTHONPATH=str(source)),
            capture_output=True, text=True, timeout=60)
        assert completed.returncode == 1
        assert completed.stdout == ""
        (line,) = completed.stderr.splitlines()
        assert line.startswith(message)
        assert "Traceback" not in completed.stderr

    def test_shipped_example_data_files(self, capsys):
        import pathlib
        data_dir = (pathlib.Path(__file__).resolve().parent.parent
                    / "examples" / "data")
        assert main(["coordinate", str(data_dir / "intro.data"),
                     str(data_dir / "intro.eq")]) == 0
        output = capsys.readouterr().out
        assert output.count("answered") == 2
        assert "Kramer" in output and "Jerry" in output

    def test_trace_mode_incremental_shows_the_prefilter(self, tmp_path,
                                                        capsys):
        data = tmp_path / "friends.data"
        data.write_text("table Friends a:text b:text\n"
                        "row Friends 'Jerry' 'Kramer'\n"
                        "row Friends 'Jerry' 'Newman'\n")
        workload = tmp_path / "friends.eq"
        # Two pending heads unify with Jerry's open postcondition; the
        # data pairs him with Kramer only.
        workload.write_text(
            "{Res(Jerry, Paris)} Res(Kramer, Paris) "
            "<- Friends(Jerry, Kramer)\n"
            "{Res(Jerry, Paris)} Res(Elaine, Paris) "
            "<- Friends(Jerry, x)\n"
            "{Res(p, Paris)} Res(Jerry, Paris) <- Friends(Jerry, p)\n")
        assert main(["trace", str(data), str(workload),
                     "--mode", "incremental"]) == 0
        output = capsys.readouterr().out
        (span,) = [line for line in output.splitlines()
                   if "query.prefilter" in line]
        assert span.endswith(
            "candidates=2 complete=True enumerated=2 kept=1")
        assert output.count("outcome=answered") == 2
        # The default is today's one block, one round: no arrival path.
        assert main(["trace", str(data), str(workload)]) == 0
        output = capsys.readouterr().out
        assert "query.prefilter" not in output
        assert "engine.run_batch" in output

    def test_bench_runs_a_paper_figure_and_writes_metrics(
            self, tmp_path, monkeypatch, capsys):
        import json
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.01")
        path = tmp_path / "bench.json"
        assert main(["bench", "6", "--metrics-json", str(path)]) == 0
        assert "Fig 6: three-way coordination" in capsys.readouterr().out
        counters = json.loads(path.read_text())["counters"]
        assert counters["submitted"] > 0
        assert counters["coordination_rounds"] > 0

    def test_bench_runs_the_paper_figures_only(self, capsys):
        # Beyond-paper scenarios are measured by the ledger
        # (benchmarks/ledger/), not by this command.
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "churn"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'churn'" in capsys.readouterr().err
