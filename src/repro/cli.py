"""Interactive SQL shell for the repro engine.

Run with ``python -m repro`` (optionally passing a SQL script to execute
first).  Statements end with ``;``.  Besides SQL (CREATE TABLE / CREATE
INDEX / SELECT), the shell understands meta commands:

.help                 show this help
.schema [table]       list tables / describe one table
.analyze [table]      collect optimizer statistics
.explain on|off       print plan + transformed SQL with each query
.decisions on|off     print CBQT decisions with each query
.mode cbqt|heuristic  switch optimizer mode (§4.1's experiment switch)
.strategy NAME|auto   force a state-space search strategy (§3.2)
.disable NAME         disable a transformation (e.g. jppd, unnest_view)
.enable NAME          re-enable a transformation
.timing on|off        print optimization/execution timings
.cache [stats|clear|on|off]  plan-cache statistics / control
.checks on|off        paranoid mode: verify tree/plan invariants at
                      every transformation step (debug_checks)
.quarantine [stats|reset [NAME]]  show or reset the transformation
                      quarantine (repeatedly failing transformations
                      are auto-disabled until reset)
.metrics [json]       unified metrics snapshot (optimizer, executor,
                      plan cache, quarantine, dynamic sampling)
.trace on|off|show|clear  10053-style optimizer trace: arm, print the
                      buffered events, or clear the buffer
.timeout SECONDS|off  statement timeout for subsequent queries
.load FILE            run statements from a SQL script
.staticcheck [--verbose|--family NAMES]  run the project static
                      analyzer (lock discipline, lock order,
                      cancellation/fault coverage, error taxonomy,
                      metrics/trace hygiene) against the baseline
.quit                 exit

``EXPLAIN SELECT ...;`` and ``EXPLAIN ANALYZE SELECT ...;`` work as SQL
verbs: the former prints the plan without running it, the latter runs
the query with operator profiling and prints estimated vs. actual rows,
per-operator Q-error, invocations, and self-time.

Queries run through the shared plan cache (:class:`repro.QueryService`);
``.explain on`` output shows each statement's cache disposition.  The
module also provides subcommands: ``python -m repro cache-stats
[script ...]`` runs the scripts and prints the plan-cache counters,
``python -m repro explain "SQL" [script ...]`` explains one query
(including cache counters) after running the scripts, ``python -m
repro explain-analyze "SQL" [script ...]`` runs it with operator
profiling and prints estimated-vs-actual output, ``python -m repro
trace "SQL" [script ...]`` prints the optimizer trace of one
optimization, ``python -m repro metrics [--json] [script ...]`` runs
the scripts and prints the unified metrics snapshot, ``python -m
repro check "SQL" [script ...]`` runs the optimizer sanitizer over the
query, printing every invariant violation attributed to the
transformation + CBQT state that produced it (exit status 1 if any
errors are found), ``python -m repro quarantine [stats|reset
[NAME]] [script ...]`` inspects or resets the transformation
quarantine after running the scripts, ``python -m repro serve
[script ...] [--host H] [--port P] [--workers N] [--data-dir DIR]``
runs the scripts and then serves the database over the HTTP/JSON
protocol (:mod:`repro.server`) until interrupted (with ``--data-dir``
the database is durable — write-ahead logged, recovered on start, and
checkpointed on graceful SIGTERM/SIGINT shutdown), ``python -m repro
checkpoint --data-dir DIR [script ...]`` recovers a data directory,
runs the scripts, and writes a checkpoint, ``python -m repro recover
--data-dir DIR [--verify]`` recovers a data directory and prints the
recovery report (``--verify`` replays it read-only into two replicas
and exits 1 on divergence or corruption), ``python -m repro
staticcheck [--json] [--verbose]`` runs the project-aware static
analyzer (:mod:`repro.staticcheck`) and exits 1 on any finding not in
the committed baseline, and ``python -m repro plan-digest [--update]``
optimizes the paper-query corpus and compares each chosen plan's
structural digest against the committed golden file (the plan-stability
CI gate; ``--update`` rewrites it).
"""

from __future__ import annotations

import sys
from dataclasses import replace
from typing import Optional, TextIO

from . import Database, OptimizerConfig, QueryService
from .cbqt.framework import CbqtConfig
from .errors import ReproError
from .obs import Tracer, annotation_lines

PROMPT = "repro> "
CONTINUATION = "   ...> "


class Shell:
    """One interactive session.  Separated from I/O for testability:
    ``run_line`` consumes input, output goes through ``echo``."""

    def __init__(self, out: Optional[TextIO] = None):
        self.db = Database()
        self.service = QueryService(self.db)
        self.out = out or sys.stdout
        self.show_explain = False
        self.show_decisions = False
        self.show_timing = False
        self.timeout: Optional[float] = None
        self._buffer: list[str] = []
        self.done = False

    # -- plumbing ----------------------------------------------------------

    def echo(self, text: str = "") -> None:
        print(text, file=self.out)

    @property
    def needs_more(self) -> bool:
        return bool(self._buffer)

    # -- input handling ------------------------------------------------------

    def run_line(self, line: str) -> None:
        """Feed one input line; executes when a statement completes."""
        stripped = line.strip()
        if not self._buffer and stripped.startswith("."):
            self._run_meta(stripped)
            return
        if not stripped and not self._buffer:
            return
        self._buffer.append(line)
        if stripped.endswith(";"):
            statement = "\n".join(self._buffer).strip().rstrip(";")
            self._buffer.clear()
            if statement:
                self._run_statement(statement)

    def run_script(self, text: str) -> None:
        for line in text.splitlines():
            self.run_line(line)
        if self._buffer:  # permit a missing trailing semicolon
            statement = "\n".join(self._buffer).strip().rstrip(";")
            self._buffer.clear()
            if statement and not statement.startswith("."):
                self._run_statement(statement)

    # -- statements ------------------------------------------------------------

    def _run_statement(self, statement: str) -> None:
        try:
            head = statement.lstrip().split(None, 1)[0].upper()
            if head == "CREATE":
                self.db.execute_ddl(statement)
                self.echo("ok")
            elif head == "EXPLAIN":
                self._run_explain(statement)
            elif head == "SELECT" or statement.lstrip().startswith("("):
                self._execute_statement(statement)
            elif head == "INSERT":
                self.echo("error: use .load with generated data or the "
                          "Python API to insert rows")
            else:
                self.echo(f"error: unsupported statement {head!r}")
        except ReproError as exc:
            self.echo(f"error: {exc}")

    def _run_explain(self, statement: str) -> None:
        """The EXPLAIN / EXPLAIN ANALYZE SQL verbs."""
        rest = statement.lstrip()[len("EXPLAIN"):].lstrip()
        if rest.upper().startswith("ANALYZE"):
            sql = rest[len("ANALYZE"):].lstrip()
            result = self.service.execute(
                sql, timeout=self.timeout, analyze=True
            )
            self.echo(result.explain_analyze())
        else:
            self.echo(self.service.explain(rest))

    def _execute_statement(self, sql: str) -> None:
        result = self.service.execute(sql, timeout=self.timeout)
        if self.show_explain:
            for line in annotation_lines(result.report, result.cache_status):
                self.echo(line)
            self.echo(result.plan.describe())
        if self.show_decisions:
            for decision in result.report.decisions:
                self.echo(
                    f"-- {decision.transformation}: strategy="
                    f"{decision.strategy} states={decision.states_evaluated} "
                    f"applied={decision.applied_labels or '-'}"
                )
        self._print_rows(result.columns, result.rows)
        if self.show_timing:
            self.echo(
                f"-- optimize {result.optimize_seconds * 1000:.1f} ms, "
                f"execute {result.execute_seconds * 1000:.1f} ms, "
                f"{result.work_units:,.0f} work units, "
                f"{result.report.total_states} states"
            )

    def _print_rows(self, columns: list[str], rows: list[tuple],
                    limit: int = 50) -> None:
        widths = [
            max(len(str(c)), *(len(_fmt(r[i])) for r in rows[:limit]))
            if rows else len(str(c))
            for i, c in enumerate(columns)
        ]
        header = " | ".join(str(c).ljust(w) for c, w in zip(columns, widths))
        self.echo(header)
        self.echo("-+-".join("-" * w for w in widths))
        for row in rows[:limit]:
            self.echo(" | ".join(
                _fmt(v).ljust(w) for v, w in zip(row, widths)
            ))
        suffix = f" (showing {limit})" if len(rows) > limit else ""
        self.echo(f"({len(rows)} rows{suffix})")

    # -- meta commands ------------------------------------------------------------

    def _run_meta(self, command: str) -> None:
        parts = command.split()
        name, args = parts[0], parts[1:]
        handler = getattr(self, f"_meta_{name[1:]}", None)
        if handler is None:
            self.echo(f"unknown command {name}; try .help")
            return
        try:
            handler(args)
        except ReproError as exc:
            self.echo(f"error: {exc}")

    def _meta_help(self, _args) -> None:
        self.echo(__doc__.split("meta commands:", 1)[-1].strip())

    def _meta_quit(self, _args) -> None:
        self.done = True

    def _meta_schema(self, args) -> None:
        if args:
            table = self.db.catalog.table(args[0])
            for column in table.columns.values():
                flags = " NOT NULL" if column.not_null else ""
                self.echo(f"  {column.name} {column.data_type.name}{flags}")
            if table.primary_key:
                self.echo(f"  PRIMARY KEY ({', '.join(table.primary_key)})")
            for index in table.indexes:
                unique = "UNIQUE " if index.unique else ""
                self.echo(
                    f"  {unique}INDEX {index.name} ({', '.join(index.columns)})"
                )
            return
        for name in sorted(self.db.catalog.tables):
            rows = (
                self.db.storage.get(name).row_count
                if self.db.storage.has(name) else 0
            )
            self.echo(f"  {name} ({rows} rows)")

    def _meta_analyze(self, args) -> None:
        self.db.analyze(args[0] if args else None)
        self.echo("statistics collected")

    def _meta_explain(self, args) -> None:
        self.show_explain = _on_off(args)
        self.echo(f"explain {'on' if self.show_explain else 'off'}")

    def _meta_decisions(self, args) -> None:
        self.show_decisions = _on_off(args)
        self.echo(f"decisions {'on' if self.show_decisions else 'off'}")

    def _meta_timing(self, args) -> None:
        self.show_timing = _on_off(args)
        self.echo(f"timing {'on' if self.show_timing else 'off'}")

    def _meta_cache(self, args) -> None:
        action = args[0].lower() if args else "stats"
        if action == "stats":
            self.echo(self.service.format_cache_stats())
        elif action == "clear":
            removed = self.service.invalidate()
            self.echo(f"plan cache cleared ({removed} entries)")
        elif action in ("on", "off"):
            self.service.caching = action == "on"
            self.echo(f"plan cache {action}")
        else:
            self.echo("usage: .cache [stats|clear|on|off]")

    def _meta_mode(self, args) -> None:
        mode = args[0].lower() if args else ""
        if mode == "heuristic":
            disabled = self.db.config.cbqt.disabled_transformations
            self.db.config = OptimizerConfig(
                cbqt=CbqtConfig(
                    enabled=False, disabled_transformations=disabled
                )
            )
        elif mode == "cbqt":
            disabled = self.db.config.cbqt.disabled_transformations
            self.db.config = OptimizerConfig(
                cbqt=CbqtConfig(disabled_transformations=disabled)
            )
        else:
            self.echo("usage: .mode cbqt|heuristic")
            return
        self.echo(f"optimizer mode: {mode}")

    def _meta_strategy(self, args) -> None:
        strategy = args[0].lower() if args else "auto"
        if strategy == "auto":
            self.db.config = self.db.config.with_strategy(None)
        elif strategy in ("exhaustive", "linear", "iterative", "two_pass"):
            self.db.config = self.db.config.with_strategy(strategy)
        else:
            self.echo(
                "usage: .strategy exhaustive|linear|iterative|two_pass|auto"
            )
            return
        self.echo(f"search strategy: {strategy}")

    def _meta_disable(self, args) -> None:
        if not args:
            self.echo("usage: .disable TRANSFORMATION")
            return
        self.db.config = self.db.config.without(args[0])
        disabled = sorted(self.db.config.cbqt.disabled_transformations)
        self.echo(f"disabled: {', '.join(disabled)}")

    def _meta_enable(self, args) -> None:
        if not args:
            self.echo("usage: .enable TRANSFORMATION")
            return
        remaining = self.db.config.cbqt.disabled_transformations - {args[0]}
        self.db.config = replace(
            self.db.config,
            cbqt=replace(
                self.db.config.cbqt,
                disabled_transformations=frozenset(remaining),
            ),
        )
        self.echo(f"disabled: {', '.join(sorted(remaining)) or '(none)'}")

    def _meta_checks(self, args) -> None:
        enabled = _on_off(args)
        self.db.config = replace(
            self.db.config,
            cbqt=replace(self.db.config.cbqt, debug_checks=enabled),
        )
        self.service.invalidate()  # cached plans were not audited
        self.echo(f"debug checks {'on' if enabled else 'off'}")

    def _meta_staticcheck(self, args) -> None:
        from .staticcheck import main as staticcheck_main
        staticcheck_main(args, echo=self.echo)

    def _meta_quarantine(self, args) -> None:
        action = args[0].lower() if args else "stats"
        if action == "stats":
            self.echo(self.db.quarantine.format_table())
        elif action == "reset":
            name = args[1] if len(args) > 1 else None
            self.db.quarantine.reset(name)
            target = name or "all transformations"
            self.echo(f"quarantine reset: {target}")
        else:
            self.echo("usage: .quarantine [stats|reset [NAME]]")

    def _meta_metrics(self, args) -> None:
        if self.db.metrics is None:
            self.echo("metrics detached")
            return
        if args and args[0].lower() == "json":
            self.echo(self.db.metrics.to_json(indent=2))
        else:
            self.echo(self.db.metrics.format_table())

    def _meta_trace(self, args) -> None:
        action = args[0].lower() if args else "show"
        if action == "on":
            if self.db.tracer is None:
                self.db.tracer = Tracer()
            self.echo("trace on")
        elif action == "off":
            self.db.tracer = None
            self.echo("trace off")
        elif action == "show":
            if self.db.tracer is None:
                self.echo("trace off (arm with .trace on)")
            else:
                self.echo(self.db.tracer.format_table())
        elif action == "clear":
            if self.db.tracer is not None:
                self.db.tracer.clear()
            self.echo("trace cleared")
        else:
            self.echo("usage: .trace on|off|show|clear")

    def _meta_timeout(self, args) -> None:
        if not args:
            current = self.timeout
            self.echo(
                f"timeout {current:.3f}s" if current is not None
                else "timeout off"
            )
            return
        if args[0].lower() in ("off", "none", "0"):
            self.timeout = None
            self.echo("timeout off")
            return
        try:
            seconds = float(args[0])
        except ValueError:
            self.echo("usage: .timeout SECONDS|off")
            return
        if seconds <= 0:
            self.echo("usage: .timeout SECONDS|off")
            return
        self.timeout = seconds
        self.echo(f"timeout {seconds:.3f}s")

    def _meta_load(self, args) -> None:
        if not args:
            self.echo("usage: .load FILE")
            return
        try:
            with open(args[0]) as handle:
                self.run_script(handle.read())
        except OSError as exc:
            self.echo(f"error: {exc}")


def _fmt(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _on_off(args) -> bool:
    return bool(args) and args[0].lower() in ("on", "1", "true", "yes")


def _cmd_cache_stats(args: list[str], shell: Shell) -> int:
    """``repro cache-stats [script ...]`` — run the scripts, then print
    the plan-cache counters."""
    for path in args:
        with open(path) as handle:
            shell.run_script(handle.read())
    shell.echo(shell.service.format_cache_stats())
    return 0


def _cmd_explain(args: list[str], shell: Shell) -> int:
    """``repro explain "SQL" [script ...]`` — run the scripts (schema /
    data setup), then explain the query with cache counters."""
    if not args:
        shell.echo('usage: explain "SQL" [script ...]')
        return 2
    sql, scripts = args[0], args[1:]
    for path in scripts:
        with open(path) as handle:
            shell.run_script(handle.read())
    try:
        shell.echo(shell.service.explain(sql))
    except ReproError as exc:
        shell.echo(f"error: {exc}")
        return 1
    return 0


def _cmd_check(args: list[str], shell: Shell) -> int:
    """``repro check "SQL" [script ...]`` — run the scripts (schema /
    data setup), then audit the query through the sanitizer and print
    the diagnostic report.  Exit 1 when errors were found."""
    if not args:
        shell.echo('usage: check "SQL" [script ...]')
        return 2
    sql, scripts = args[0], args[1:]
    for path in scripts:
        with open(path) as handle:
            shell.run_script(handle.read())
    try:
        report = shell.db.check(sql)
    except ReproError as exc:
        shell.echo(f"error: {exc}")
        return 1
    shell.echo(report.format())
    return 0 if report.ok else 1


def _cmd_quarantine(args: list[str], shell: Shell) -> int:
    """``repro quarantine [stats|reset [NAME]] [script ...]`` — run the
    scripts, then inspect or reset the transformation quarantine."""
    action = args[0].lower() if args else "stats"
    if action not in ("stats", "reset"):
        shell.echo("usage: quarantine [stats|reset [NAME]] [script ...]")
        return 2
    rest = args[1:]
    name = None
    if action == "reset" and rest and not rest[0].endswith(".sql"):
        name, rest = rest[0], rest[1:]
    for path in rest:
        with open(path) as handle:
            shell.run_script(handle.read())
    if action == "reset":
        shell.db.quarantine.reset(name)
        shell.echo(f"quarantine reset: {name or 'all transformations'}")
        return 0
    shell.echo(shell.db.quarantine.format_table())
    return 0


def _cmd_explain_analyze(args: list[str], shell: Shell) -> int:
    """``repro explain-analyze "SQL" [script ...]`` — run the scripts
    (schema / data setup), then execute the query with operator
    profiling and print estimated vs. actual rows with Q-error."""
    if not args:
        shell.echo('usage: explain-analyze "SQL" [script ...]')
        return 2
    sql, scripts = args[0], args[1:]
    for path in scripts:
        with open(path) as handle:
            shell.run_script(handle.read())
    try:
        result = shell.service.execute(sql, analyze=True)
    except ReproError as exc:
        shell.echo(f"error: {exc}")
        return 1
    shell.echo(result.explain_analyze())
    return 0


def _cmd_trace(args: list[str], shell: Shell) -> int:
    """``repro trace "SQL" [script ...]`` — run the scripts, then
    optimize the query with the 10053-style trace armed and print every
    search event."""
    if not args:
        shell.echo('usage: trace "SQL" [script ...]')
        return 2
    sql, scripts = args[0], args[1:]
    for path in scripts:
        with open(path) as handle:
            shell.run_script(handle.read())
    try:
        with shell.db.tracing() as tracer:
            shell.db.optimize(sql)
    except ReproError as exc:
        shell.echo(f"error: {exc}")
        return 1
    shell.echo(tracer.format_table())
    return 0


def _cmd_metrics(args: list[str], shell: Shell) -> int:
    """``repro metrics [--json] [script ...]`` — run the scripts, then
    print the unified metrics snapshot."""
    as_json = False
    if args and args[0] == "--json":
        as_json = True
        args = args[1:]
    for path in args:
        with open(path) as handle:
            shell.run_script(handle.read())
    metrics = shell.db.metrics
    if metrics is None:
        shell.echo("metrics detached")
        return 1
    shell.echo(metrics.to_json(indent=2) if as_json else metrics.format_table())
    return 0


def _open_durable(shell: Shell, data_dir: str, fsync: str) -> int:
    """Swap the shell's in-memory database for a durable one rooted at
    *data_dir* (recovering whatever the directory already holds)."""
    from .durability import DurabilityConfig

    try:
        shell.db = Database(
            data_dir=data_dir, durability=DurabilityConfig(fsync=fsync)
        )
    except ReproError as exc:
        shell.echo(f"error: {exc}")
        return 1
    shell.service = QueryService(shell.db)
    report = shell.db.recovery
    if report is not None and (
        report.checkpoint_tables or report.wal_records_total
    ):
        shell.echo(
            f"recovered {data_dir}: checkpoint lsn {report.checkpoint_lsn} "
            f"({report.checkpoint_tables} tables, "
            f"{report.checkpoint_rows} rows), "
            f"{report.wal_records_applied} WAL records replayed"
            + (f", {report.torn_bytes_dropped} torn bytes dropped"
               if report.torn_bytes_dropped else "")
        )
    return 0


def _cmd_serve(args: list[str], shell: Shell) -> int:
    """``repro serve [script ...] [--host H] [--port P] [--workers N]
    [--timeout S] [--idle-timeout S] [--data-dir DIR] [--fsync P]
    [--grace S] [--verbose]`` — run the scripts (schema / data setup),
    then serve the database over HTTP/JSON until interrupted.  All
    sessions share the shell's plan cache.  With ``--data-dir`` the
    database is durable: it recovers the directory on start, write-ahead
    logs every commit, and SIGTERM/SIGINT drain in-flight statements
    (``--grace`` seconds), checkpoint, and close the WAL before exit."""
    from .server import ReproServer, ServerConfig
    from .server.http import RequestHandler, make_http_server, run_server

    config = ServerConfig()
    scripts: list[str] = []
    data_dir: Optional[str] = None
    fsync = "batch"
    flags = {
        "--host": ("host", str),
        "--port": ("port", int),
        "--workers": ("workers", int),
        "--timeout": ("statement_timeout", float),
        "--idle-timeout": ("idle_timeout", float),
        "--grace": ("shutdown_grace", float),
    }
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "--verbose":
            RequestHandler.verbose = True
            i += 1
        elif arg in ("--data-dir", "--fsync"):
            if i + 1 >= len(args):
                shell.echo(f"usage: serve ... {arg} VALUE")
                return 2
            if arg == "--data-dir":
                data_dir = args[i + 1]
            else:
                fsync = args[i + 1]
            i += 2
        elif arg in flags:
            if i + 1 >= len(args):
                shell.echo(f"usage: serve ... {arg} VALUE")
                return 2
            field, cast = flags[arg]
            try:
                setattr(config, field, cast(args[i + 1]))
            except ValueError:
                shell.echo(f"error: {arg} expects a {cast.__name__}")
                return 2
            i += 2
        elif arg.startswith("--"):
            shell.echo(f"error: unknown flag {arg}")
            return 2
        else:
            scripts.append(arg)
            i += 1
    if data_dir is not None:
        status = _open_durable(shell, data_dir, fsync)
        if status:
            return status
    for path in scripts:
        with open(path) as handle:
            shell.run_script(handle.read())
    app = ReproServer(service=shell.service, config=config)
    server = make_http_server(app)
    host, port = server.server_address[:2]
    durable = f", durable at {data_dir} (fsync={fsync})" if data_dir else ""
    shell.echo(f"serving on http://{host}:{port} "
               f"({config.workers} workers{durable}); Ctrl-C to stop")
    outcome = run_server(server)
    if outcome.get("cancelled"):
        shell.echo(f"shutdown: cancelled {outcome['cancelled']} statements")
    if outcome.get("checkpointed"):
        shell.echo("shutdown: checkpoint written, WAL closed")
    return 0


def _parse_data_dir(args: list[str], shell: Shell, usage: str,
                    ) -> tuple[Optional[str], str, list[str], bool, int]:
    """Shared ``--data-dir DIR [--fsync P] [--verify] [script ...]``
    parsing for the durability verbs."""
    data_dir: Optional[str] = None
    fsync = "batch"
    verify = False
    scripts: list[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg in ("--data-dir", "--fsync"):
            if i + 1 >= len(args):
                shell.echo(usage)
                return None, fsync, scripts, verify, 2
            if arg == "--data-dir":
                data_dir = args[i + 1]
            else:
                fsync = args[i + 1]
            i += 2
        elif arg == "--verify":
            verify = True
            i += 1
        elif arg.startswith("--"):
            shell.echo(f"error: unknown flag {arg}")
            return None, fsync, scripts, verify, 2
        else:
            scripts.append(arg)
            i += 1
    if data_dir is None:
        shell.echo(usage)
        return None, fsync, scripts, verify, 2
    return data_dir, fsync, scripts, verify, 0


def _cmd_checkpoint(args: list[str], shell: Shell) -> int:
    """``repro checkpoint --data-dir DIR [--fsync P] [script ...]`` —
    recover the directory, run the scripts (if any), write a checkpoint
    of the full state, truncate the WAL, and close."""
    usage = "usage: checkpoint --data-dir DIR [--fsync P] [script ...]"
    data_dir, fsync, scripts, _, status = _parse_data_dir(args, shell, usage)
    if status or data_dir is None:
        return status
    status = _open_durable(shell, data_dir, fsync)
    if status:
        return status
    for path in scripts:
        with open(path) as handle:
            shell.run_script(handle.read())
    try:
        lsn = shell.db.checkpoint()
    finally:
        shell.db.close()
    shell.echo(f"checkpoint written at lsn {lsn} ({data_dir})")
    return 0


def _cmd_recover(args: list[str], shell: Shell) -> int:
    """``repro recover --data-dir DIR [--verify]`` — recover the
    directory and print the recovery report.  Without ``--verify`` a
    torn WAL tail is repaired on disk (what a normal open does); with
    ``--verify`` the files are left untouched and recovery is replayed
    twice into independent replicas, requiring identical state digests
    and index invariants — exit 1 when recovery fails or diverges."""
    import os

    from .durability import (
        CHECKPOINT_FILENAME,
        WAL_FILENAME,
        verify_recovery,
    )
    from .errors import DurabilityError

    usage = "usage: recover --data-dir DIR [--verify]"
    data_dir, fsync, _, verify, status = _parse_data_dir(args, shell, usage)
    if status or data_dir is None:
        return status
    if verify:
        try:
            report = verify_recovery(
                data_dir,
                os.path.join(data_dir, WAL_FILENAME),
                os.path.join(data_dir, CHECKPOINT_FILENAME),
            )
        except DurabilityError as exc:
            shell.echo(f"verification FAILED: {exc}")
            return 1
        shell.echo(f"verification ok: {data_dir}")
    else:
        status = _open_durable(shell, data_dir, fsync)
        if status:
            return status
        report = shell.db.recovery
        shell.db.close()
    if report is not None:
        for key, value in sorted(report.to_dict().items()):
            shell.echo(f"  {key}: {value}")
    return 0


def _cmd_staticcheck(args: list[str], shell: Shell) -> int:
    """``repro staticcheck [--json] [--verbose] [--family NAMES]`` —
    run the project-aware static analyzer over ``src/repro`` and exit 1
    on any finding not covered by the committed baseline."""
    from .staticcheck import main as staticcheck_main
    return staticcheck_main(args, echo=shell.echo)


def _load_corpus(path: str) -> dict:
    """Load the paper-query corpus (the ``ALL_RUNNABLE`` dict) from a
    module file — kept in tests/ as the single source of truth."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("plan_digest_corpus", path)
    if spec is None or spec.loader is None:
        raise OSError(f"cannot load corpus module {path!r}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.ALL_RUNNABLE)


def _cmd_plan_digest(args: list[str], shell: Shell) -> int:
    """``repro plan-digest [--update] [--corpus FILE] [--golden FILE]``
    — optimize the paper-query corpus against the seeded HR database and
    compare each chosen plan's structural digest (join order, access
    paths, predicate placement — no costs) with the committed golden
    file.  Any difference exits 1: the plan-stability CI gate.  With
    ``--update`` the golden file is rewritten instead."""
    import json

    from .workload import hr_database
    from .workload.plan_digest import corpus_digests

    corpus_path = "tests/paper_queries.py"
    golden_path = "tests/golden/plan_digests.json"
    update = False
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "--update":
            update = True
            i += 1
        elif arg in ("--corpus", "--golden"):
            if i + 1 >= len(args):
                shell.echo(f"usage: plan-digest ... {arg} FILE")
                return 2
            if arg == "--corpus":
                corpus_path = args[i + 1]
            else:
                golden_path = args[i + 1]
            i += 2
        else:
            shell.echo(f"error: unknown argument {arg}")
            return 2
    try:
        queries = _load_corpus(corpus_path)
    except OSError as exc:
        shell.echo(f"error: {exc}")
        return 1
    db = hr_database(scale=1, seed=42)
    digests = corpus_digests(db, queries)
    shell.echo(f"digested {len(digests)} plans")
    if update:
        with open(golden_path, "w") as handle:
            json.dump(digests, handle, indent=2, sort_keys=True)
            handle.write("\n")
        shell.echo(f"golden file updated: {golden_path}")
        return 0
    try:
        with open(golden_path) as handle:
            golden = json.load(handle)
    except OSError as exc:
        shell.echo(f"error: cannot read golden file: {exc}")
        shell.echo("run 'python -m repro plan-digest --update' to create it")
        return 1
    changed = sorted(
        name for name in set(golden) | set(digests)
        if golden.get(name) != digests.get(name)
    )
    if not changed:
        shell.echo(f"plan stability ok: {len(digests)} plans match {golden_path}")
        return 0
    for name in changed:
        shell.echo(f"PLAN CHANGED: {name}")
        before = (golden.get(name) or "<absent>").splitlines()
        after = (digests.get(name) or "<absent>").splitlines()
        import difflib

        for line in difflib.unified_diff(
            before, after, fromfile="golden", tofile="current", lineterm=""
        ):
            shell.echo(f"  {line}")
    shell.echo(
        f"plan stability FAILED: {len(changed)} of {len(digests)} plans "
        f"differ from {golden_path}"
    )
    return 1


SUBCOMMANDS = {
    "cache-stats": _cmd_cache_stats,
    "check": _cmd_check,
    "checkpoint": _cmd_checkpoint,
    "explain": _cmd_explain,
    "explain-analyze": _cmd_explain_analyze,
    "metrics": _cmd_metrics,
    "plan-digest": _cmd_plan_digest,
    "quarantine": _cmd_quarantine,
    "recover": _cmd_recover,
    "serve": _cmd_serve,
    "staticcheck": _cmd_staticcheck,
    "trace": _cmd_trace,
}


def main(argv: Optional[list[str]] = None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    shell = Shell()
    try:
        if argv and argv[0] in SUBCOMMANDS:
            return SUBCOMMANDS[argv[0]](argv[1:], shell)
        for path in argv:
            with open(path) as handle:
                shell.run_script(handle.read())
    except OSError as exc:  # a script that cannot be read
        shell.echo(f"error: {exc}")
        return 1
    if not sys.stdin.isatty():
        shell.run_script(sys.stdin.read())
        return 0
    shell.echo("repro shell — cost-based query transformation engine")
    shell.echo("type .help for commands, SQL statements end with ';'")
    while not shell.done:
        try:
            prompt = CONTINUATION if shell.needs_more else PROMPT
            line = input(prompt)
        except EOFError:
            break
        except KeyboardInterrupt:
            shell.echo("")
            continue
        shell.run_line(line)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
