"""CLI shell tests (driven through the Shell API, no subprocess)."""

import io

import pytest

from repro.cli import Shell


@pytest.fixture()
def shell():
    out = io.StringIO()
    sh = Shell(out=out)
    sh.out = out
    sh._out_buffer = out
    return sh


def output_of(shell) -> str:
    return shell.out.getvalue()


def feed(shell, text):
    shell.run_script(text)
    return output_of(shell)


SETUP = """
CREATE TABLE t (id INT PRIMARY KEY, v INT);
"""


class TestStatements:
    def test_create_table(self, shell):
        text = feed(shell, SETUP)
        assert "ok" in text
        assert shell.db.catalog.has_table("t")

    def test_multiline_statement(self, shell):
        shell.run_line("CREATE TABLE t (")
        assert shell.needs_more
        shell.run_line("  id INT PRIMARY KEY);")
        assert not shell.needs_more
        assert shell.db.catalog.has_table("t")

    def test_select_prints_rows(self, shell):
        feed(shell, SETUP)
        shell.db.insert("t", [{"id": 1, "v": 10}, {"id": 2, "v": None}])
        text = feed(shell, "SELECT id, v FROM t;")
        assert "(2 rows)" in text
        assert "NULL" in text

    def test_error_is_reported_not_raised(self, shell):
        text = feed(shell, "SELECT x FROM missing;")
        assert "error:" in text

    def test_unsupported_statement(self, shell):
        text = feed(shell, "DROP TABLE t;")
        assert "error" in text

    def test_missing_trailing_semicolon_still_runs(self, shell):
        feed(shell, SETUP)
        text = feed(shell, "SELECT id FROM t")
        assert "(0 rows)" in text


class TestMetaCommands:
    def test_schema_listing(self, shell):
        feed(shell, SETUP)
        text = feed(shell, ".schema")
        assert "t (0 rows)" in text

    def test_schema_describe(self, shell):
        feed(shell, SETUP)
        text = feed(shell, ".schema t")
        assert "id INT NOT NULL" in text
        assert "PRIMARY KEY (id)" in text

    def test_explain_toggle(self, shell):
        feed(shell, SETUP)
        feed(shell, ".explain on")
        text = feed(shell, "SELECT id FROM t;")
        assert "-- transformed:" in text
        assert "TABLE SCAN" in text

    def test_decisions_toggle(self, shell):
        feed(shell, SETUP)
        shell.db.insert("t", [{"id": i, "v": i} for i in range(20)])
        feed(shell, ".analyze")
        feed(shell, ".decisions on")
        text = feed(
            shell,
            "SELECT a.id FROM t a WHERE a.v > "
            "(SELECT AVG(b.v) FROM t b WHERE b.id = a.id);",
        )
        assert "rows)" in text

    def test_timing_toggle(self, shell):
        feed(shell, SETUP)
        feed(shell, ".timing on")
        text = feed(shell, "SELECT id FROM t;")
        assert "work units" in text

    def test_mode_switch(self, shell):
        feed(shell, ".mode heuristic")
        assert not shell.db.config.cbqt.enabled
        feed(shell, ".mode cbqt")
        assert shell.db.config.cbqt.enabled

    def test_strategy_switch(self, shell):
        feed(shell, ".strategy linear")
        assert shell.db.config.cbqt.search_strategy == "linear"
        feed(shell, ".strategy auto")
        assert shell.db.config.cbqt.search_strategy is None

    def test_disable_enable(self, shell):
        feed(shell, ".disable jppd")
        assert "jppd" in shell.db.config.cbqt.disabled_transformations
        feed(shell, ".enable jppd")
        assert "jppd" not in shell.db.config.cbqt.disabled_transformations

    def test_analyze(self, shell):
        feed(shell, SETUP)
        shell.db.insert("t", [{"id": 1, "v": 2}])
        text = feed(shell, ".analyze t")
        assert "statistics collected" in text
        assert shell.db.statistics.get("t").row_count == 1

    def test_unknown_command(self, shell):
        text = feed(shell, ".nonsense")
        assert "unknown command" in text

    def test_help(self, shell):
        text = feed(shell, ".help")
        assert ".schema" in text

    def test_quit_sets_done(self, shell):
        feed(shell, ".quit")
        assert shell.done

    def test_load_script(self, shell, tmp_path):
        script = tmp_path / "setup.sql"
        script.write_text(SETUP + "SELECT id FROM t;")
        text = feed(shell, f".load {script}")
        assert "ok" in text
        assert "(0 rows)" in text

    def test_load_missing_file(self, shell):
        text = feed(shell, ".load /no/such/file.sql")
        assert "error" in text


class TestPlanCache:
    def test_cache_stats_meta(self, shell):
        feed(shell, SETUP)
        shell.db.insert("t", [{"id": 1, "v": 10}])
        feed(shell, "SELECT id FROM t;\nSELECT id FROM t;")
        text = feed(shell, ".cache stats")
        assert "plan cache statistics" in text
        assert shell.service.metrics.hits == 1
        assert shell.service.metrics.misses == 1

    def test_cache_clear_and_toggle(self, shell):
        feed(shell, SETUP)
        feed(shell, "SELECT id FROM t;")
        text = feed(shell, ".cache clear")
        assert "plan cache cleared (1 entries)" in text
        feed(shell, ".cache off")
        feed(shell, "SELECT id FROM t;\nSELECT id FROM t;")
        assert shell.service.metrics.hits == 0
        text = feed(shell, ".cache bogus")
        assert "usage" in text

    def test_explain_shows_cache_disposition(self, shell):
        feed(shell, SETUP + ".explain on\n")
        text = feed(shell, "SELECT id FROM t;\nSELECT id FROM t;")
        assert "-- cache: miss" in text
        assert "-- cache: hit" in text


class TestSubcommands:
    def test_cache_stats_subcommand(self, tmp_path, capsys, monkeypatch):
        import sys

        from repro.cli import main

        script = tmp_path / "setup.sql"
        script.write_text(SETUP + "SELECT id FROM t;\nSELECT id FROM t;")
        monkeypatch.setattr(sys.stdin, "isatty", lambda: True, raising=False)
        assert main(["cache-stats", str(script)]) == 0
        out = capsys.readouterr().out
        assert "plan cache statistics" in out
        assert "hits" in out

    def test_explain_subcommand(self, tmp_path, capsys, monkeypatch):
        import sys

        from repro.cli import main

        script = tmp_path / "setup.sql"
        script.write_text(SETUP)
        monkeypatch.setattr(sys.stdin, "isatty", lambda: True, raising=False)
        assert main(["explain", "SELECT id FROM t", str(script)]) == 0
        out = capsys.readouterr().out
        assert "-- cache: miss" in out
        assert "plan cache statistics" in out

    def test_explain_subcommand_usage_and_errors(self, capsys, monkeypatch):
        import sys

        from repro.cli import main

        monkeypatch.setattr(sys.stdin, "isatty", lambda: True, raising=False)
        assert main(["explain"]) == 2
        assert main(["explain", "SELECT x FROM missing"]) == 1

    @pytest.mark.parametrize("argv", [
        ["shell"],
        ["cache-stats", "no-such-script.sql"],
        ["explain", "SELECT 1 FROM dual", "no-such-script.sql"],
        ["metrics", "--json", "no-such-script.sql"],
    ])
    def test_missing_script_is_an_error_not_a_traceback(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert out.startswith("error: ")
        assert argv[-1] in out


class TestDurabilityVerbs:
    """``repro checkpoint`` / ``repro recover`` over a real data dir."""

    def test_checkpoint_then_recover_report(self, tmp_path, capsys,
                                            monkeypatch):
        import os
        import sys

        from repro.cli import main

        monkeypatch.setattr(sys.stdin, "isatty", lambda: True, raising=False)
        data_dir = str(tmp_path / "data")
        script = tmp_path / "setup.sql"
        script.write_text(SETUP)
        assert main(
            ["checkpoint", "--data-dir", data_dir, str(script)]
        ) == 0
        out = capsys.readouterr().out
        assert "checkpoint written at lsn 1" in out
        assert os.path.exists(os.path.join(data_dir, "checkpoint.json"))

        assert main(["recover", "--data-dir", data_dir]) == 0
        out = capsys.readouterr().out
        assert "checkpoint_lsn: 1" in out

        assert main(["recover", "--data-dir", data_dir, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "verification ok" in out

    def test_recover_verify_fails_on_corruption(self, tmp_path, capsys,
                                                monkeypatch):
        import os
        import sys

        from repro.cli import main

        monkeypatch.setattr(sys.stdin, "isatty", lambda: True, raising=False)
        data_dir = str(tmp_path / "data")
        script = tmp_path / "setup.sql"
        script.write_text(SETUP)
        assert main(["checkpoint", "--data-dir", data_dir, str(script)]) == 0
        capsys.readouterr()
        # corrupt the checkpoint: verification must fail loudly
        with open(os.path.join(data_dir, "checkpoint.json"), "w") as handle:
            handle.write("{broken")
        assert main(["recover", "--data-dir", data_dir, "--verify"]) == 1
        out = capsys.readouterr().out
        assert "verification FAILED" in out

    def test_usage_errors(self, capsys, monkeypatch):
        import sys

        from repro.cli import main

        monkeypatch.setattr(sys.stdin, "isatty", lambda: True, raising=False)
        assert main(["checkpoint"]) == 2
        assert main(["recover"]) == 2
        assert main(["recover", "--data-dir"]) == 2
        assert main(["recover", "--bogus"]) == 2
