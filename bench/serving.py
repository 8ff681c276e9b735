"""The two served workloads: closed-loop HTTP clients against
``python -m repro serve``.

Load-generator rules: one generator process, :data:`CLIENTS` threads and
connections (= ``nproc`` on the reference box), persistent
``http.client`` connections with ``TCP_NODELAY`` on the client socket,
and the server in a *subprocess* so the generator never shares the
interpreter lock with it.  The traced run is the exception: it hosts
``ReproServer`` in-process, because the span wrappers live in this
process.

A *round* is one server start + load + warm-up (``setup_s``) followed by
a timed region of fixed duration; ``run.py`` pools the rounds.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from typing import NamedTuple, Optional

import workgen
from inprocess import ROOT, Round
from spans import Tracer

CLIENTS = 2
WORKERS = 2
FSYNC = "batch"
#: warm-up requests per client before the timed region (two full cycles
#: of the read set, so every prepared plan is cached)
WARMUP_OPS = 12
LOAD_BATCH = 2000
#: scratch space for ``--data-dir``; inside the checkout, git-ignored
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")


class _Reply(NamedTuple):
    kind: str
    seconds: float
    failure: Optional[str]
    user_bytes: int = 0    # JSON size of an acknowledged insert batch


class Client:
    """One persistent HTTP/1.1 connection."""

    def __init__(self, port: int) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self._conn.connect()
        self._conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def call(self, method: str, path: str, body: Optional[dict] = None):
        data = json.dumps(body).encode() if body is not None else None
        self._conn.request(method, path, body=data,
                           headers={"Content-Type": "application/json"})
        response = self._conn.getresponse()
        return response.status, json.loads(response.read())

    def must(self, method: str, path: str, body: Optional[dict] = None) -> dict:
        status, payload = self.call(method, path, body)
        if status != 200:
            raise RuntimeError(f"{method} {path} -> {status}: {payload}")
        return payload

    def close(self) -> None:
        self._conn.close()


class _Subprocess:
    """``python -m repro serve`` as a child process."""

    def __init__(self, data_dir: Optional[str]) -> None:
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--workers", str(WORKERS)]
        if data_dir is not None:
            command += ["--data-dir", data_dir, "--fsync", FSYNC]
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env["PYTHONUNBUFFERED"] = "1"  # the port line must not sit in a buffer
        self._proc = subprocess.Popen(
            command, env=env, text=True,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        )
        line = self._proc.stdout.readline()
        if "serving on http://" not in line:
            self._proc.kill()
            self._proc.wait()
            raise RuntimeError(f"server did not start: {line!r}")
        address = line.split("http://", 1)[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])
        self.app = None

    def stop(self) -> Optional[str]:
        """SIGTERM, wait, and report a bad exit status."""
        self._proc.send_signal(signal.SIGTERM)
        try:
            self._proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.communicate()
            return "server ignored SIGTERM for 30 s"
        if self._proc.returncode != 0:
            return f"server exited with status {self._proc.returncode}"
        return None


class _InProcess:
    """The same server on a thread of this process (traced runs)."""

    def __init__(self, data_dir: Optional[str]) -> None:
        from repro import Database, QueryService
        from repro.durability import DurabilityConfig
        from repro.server import ReproServer, ServerConfig
        from repro.server.http import make_http_server

        if data_dir is None:
            db = Database()
        else:
            db = Database(data_dir=data_dir,
                          durability=DurabilityConfig(fsync=FSYNC))
        self.app = ReproServer(service=QueryService(db),
                               config=ServerConfig(workers=WORKERS))
        self._server = make_http_server(self.app, "127.0.0.1", 0)
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(target=self._server.serve_forever)
        self._thread.start()

    def stop(self) -> Optional[str]:
        self._server.shutdown()
        self._thread.join()
        self._server.server_close()
        self.app.shutdown()
        return None


class _Served:
    fixed_list = False
    write_mix = False

    def __init__(self, seed: int, scale: float, tracer: Optional[Tracer]):
        self.seed = seed
        self.tracer = tracer
        #: whose peak RSS is the program's: the server child, or - when
        #: the traced run hosts the server - this process
        self.peak_rss_of = "children" if tracer is None else "self"

    # -- one round ---------------------------------------------------------

    def run_round(self, budget: float) -> Round:
        data_dir = None
        if self.write_mix:
            os.makedirs(TMP_ROOT, exist_ok=True)
            data_dir = tempfile.mkdtemp(prefix="serve-", dir=TMP_ROOT)
        started = time.perf_counter()
        server = (_Subprocess if self.tracer is None else _InProcess)(data_dir)
        clients: list = []
        failures: list = []
        try:
            self._load(server.port)
            clients = [self._connect(server.port) for _ in range(CLIENTS)]
            self._drive(clients, deadline=None, warm=True)
            setup_s = time.perf_counter() - started
            before = self._counts(server)
            started = time.perf_counter()
            results = self._drive(
                clients, deadline=started + budget, warm=False
            )
            timed_s = time.perf_counter() - started
            counters = {k: v - before.get(k, 0)
                        for k, v in self._counts(server).items()}
            failures += self._durability_check(clients[0][0])
        finally:
            for client, _sid, _ids in clients:
                client.close()
            problem = server.stop()
            if data_dir is not None:
                shutil.rmtree(data_dir, ignore_errors=True)
                if not os.listdir(TMP_ROOT):
                    os.rmdir(TMP_ROOT)
        if problem:
            failures.append(problem)
        failures += [r.failure for r in results if r.failure]
        counters["durability.user_bytes"] = sum(r.user_bytes for r in results)
        latencies = [(r.kind, r.seconds) for r in results]
        return Round(setup_s, timed_s, latencies, failures, counters)

    def _load(self, port: int) -> None:
        admin = Client(port)
        sid = admin.must("POST", "/sessions", {})["session_id"]
        for ddl in workgen.SERVE_DDL:
            admin.must("POST", f"/sessions/{sid}/ddl", {"sql": ddl})
        rows = workgen.item_rows()
        for at in range(0, len(rows), LOAD_BATCH):
            admin.must("POST", f"/sessions/{sid}/insert",
                       {"table": "items", "rows": rows[at:at + LOAD_BATCH]})
        admin.must("POST", f"/sessions/{sid}/insert",
                   {"table": "groups", "rows": workgen.group_rows()})
        admin.must("POST", f"/sessions/{sid}/analyze", {})
        admin.must("DELETE", f"/sessions/{sid}")
        admin.close()

    def _connect(self, port: int) -> tuple:
        client = Client(port)
        sid = client.must("POST", "/sessions", {})["session_id"]
        ids = [
            client.must("POST", f"/sessions/{sid}/statements",
                        {"sql": sql})["statement_id"]
            for sql, _names, _model in workgen.READS
        ]
        return client, sid, ids

    # -- the closed loop ---------------------------------------------------

    def _drive(self, clients: list, deadline: Optional[float],
               warm: bool) -> list:
        """Run every client's loop on its own thread; returns one
        :class:`_Reply` per request."""
        results: list = []
        tracer = None if warm else self.tracer
        threads = [
            threading.Thread(
                target=self._loop,
                args=(number, conn, deadline, warm, tracer, results),
            )
            for number, conn in enumerate(clients)
        ]
        if tracer is not None:
            tracer.enabled = True
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if tracer is not None:
            tracer.enabled = False
        return results

    def _loop(self, number: int, *args) -> None:
        try:
            self._requests(number, *args)
        except Exception as exc:  # a dead client must show as a failure
            traceback.print_exc()
            args[-1].append(_Reply("read", 0.0, f"client {number}: {exc!r}"))

    def _requests(self, number: int, conn: tuple, deadline: Optional[float],
                  warm: bool, tracer: Optional[Tracer], results: list) -> None:
        client, sid, ids = conn
        # the warm-up stream is another client number's, so the timed
        # stream starts at its first request and insert ids never clash
        ops = workgen.serve_ops(
            self.seed, number + (CLIENTS if warm else 0), self.write_mix
        )
        for index, op in enumerate(ops):
            if warm and index >= WARMUP_OPS:
                return
            if deadline is not None and time.perf_counter() >= deadline:
                return
            if op.kind == "insert":
                path = f"/sessions/{sid}/insert"
                body = {"table": "items", "rows": op.rows}
            elif op.kind == "read":
                path = f"/sessions/{sid}/execute"
                body = {"statement_id": ids[op.read], "binds": op.binds}
            else:
                path = f"/sessions/{sid}/execute"
                body = {"sql": op.sql}
            started = time.perf_counter()
            try:
                if tracer is None:
                    status, payload = client.call("POST", path, body)
                else:
                    # statement ids are unique across clients
                    with tracer.span("server.http",
                                     statement=index * CLIENTS + number) as me:
                        tracer.links[sid] = me
                        status, payload = client.call("POST", path, body)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                results.append(_Reply(op.kind, time.perf_counter() - started,
                                      f"client {number} #{index} {exc!r}"))
                return  # the connection is gone; a failed client stops
            seconds = time.perf_counter() - started
            failure = _verdict(number, index, op, status, payload)
            stored = op.kind == "insert" and failure is None
            results.append(_Reply(
                op.kind, seconds, failure,
                len(json.dumps(op.rows)) if stored else 0,
            ))

    # -- counters ----------------------------------------------------------

    def _counts(self, server) -> dict:
        """Cumulative layer counts from the program's public snapshots
        (traced runs only: the app object is in this process)."""
        if self.tracer is None:
            return {}
        app = server.app
        cache, stats = app.cache(), app.stats()
        counters = app.metrics()["counters"]
        memo = app.database.plan_memo.snapshot()
        counts = dict(self.tracer.counts)
        counts.update({
            "service.plan_cache_hits": cache["hits"],
            "service.plan_cache_lookups": cache["hits"] + cache["misses"],
            "service.invalidations": cache["invalidations"],
            "optimizer.memo_hits": memo["hits"] + memo["join_hits"],
            "optimizer.memo_lookups": memo["hits"] + memo["join_hits"]
            + memo["misses"] + memo["join_misses"],
            "engine.vector_fallbacks":
                counters.get("executor.vector_fallbacks", 0),
            "server.rejected": stats["rejected_global"]
            + stats["rejected_session"],
            "server.queue_timeouts": stats["queue_timeouts"],
        })
        manager = app.database.durability
        if manager is not None:
            wal = manager.stats()
            counts["durability.fsyncs"] = wal["wal_fsyncs"]
            counts["durability.wal_bytes"] = wal["wal_bytes_appended"]
            counts["durability.checkpoints"] = counters.get(
                "durability.checkpoints", 0)
        return counts

    def _durability_check(self, client: Client) -> list:
        """The WAL must be active exactly where the workload says."""
        durability = client.must("GET", "/metrics").get("durability")
        if self.write_mix:
            if not durability or durability["fsync"] != FSYNC \
                    or durability["wal_records"] == 0:
                return [f"WAL inactive on {self.name}: {durability}"]
        elif durability is not None:
            return [f"WAL active on {self.name}: {durability}"]
        return []

    def finish(self) -> tuple[int, list]:
        return 0, []


def _verdict(number: int, index: int, op: workgen.Op, status: int,
             payload: dict) -> Optional[str]:
    """None when the reply is the one the table model predicts."""
    where = f"client {number} #{index} {op.kind}"
    if status != 200:
        return f"{where}: HTTP {status} {payload.get('error')}"
    if op.kind == "insert":
        if payload.get("inserted") != len(op.rows):
            return f"{where}: inserted {payload.get('inserted')}"
    elif payload.get("rows") != op.expected:
        return f"{where}: got {payload.get('rows')}, model {op.expected}"
    return None


class ServeCached(_Served):
    """Six prepared reads, all plan-cache hits after warm-up."""

    name = "serve_cached"


class ServeWriteMix(_Served):
    """70% prepared reads / 10% hard parses / 20% insert batches,
    write-ahead logged with the batch fsync policy."""

    name = "serve_write_mix"
    write_mix = True
