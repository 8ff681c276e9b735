"""Crash-fault chaos: kill -9 a real process mid-commit, recover, and
check the acknowledged history against a differential oracle.

The child process runs a deterministic committed-batch workload with
``fsync="always"`` and prints one ``ACK <batch>`` line (flushed) after
each commit returns.  The parent kills it with SIGKILL at a
seed-randomized moment, reopens the data directory, and asserts the
durability contract:

* **no acked loss** — every batch acknowledged before the kill is fully
  present after recovery;
* **no partial batch** — a batch is present completely or not at all
  (the kill may land between WAL append and the ACK write, so *one*
  unacked batch may legitimately survive — but never a fraction);
* **recovery never errors** — a torn final record is truncated, and
  ``verify_recovery`` (the ``recover --verify`` path) passes.

Seeds are driven by ``REPRO_CHAOS_SEED`` so the CI matrix explores
different kill timings; the default sweeps three seeds.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time

import pytest

from repro import Database, DurabilityConfig
from repro.durability import (
    CHECKPOINT_FILENAME,
    WAL_FILENAME,
    verify_recovery,
)

#: rows per committed batch; the oracle checks divisibility against it
BATCH_ROWS = 5
#: batches the child attempts per run (it is normally killed first)
MAX_BATCHES = 400

#: the workload the child runs — kept in one place so the parent-side
#: oracle and the child cannot drift apart
CHILD_SOURCE = """
import sys
from repro import Database, DurabilityConfig

data_dir, start_batch = sys.argv[1], int(sys.argv[2])
db = Database(data_dir=data_dir, durability=DurabilityConfig(fsync="always"))
if not db.catalog.has_table("chaos"):
    db.execute_ddl(
        "CREATE TABLE chaos (id INT PRIMARY KEY, batch INT, v INT)"
    )
    print("ACK ddl", flush=True)
for batch in range(start_batch, start_batch + {max_batches}):
    rows = [
        {{"id": batch * {batch_rows} + i, "batch": batch, "v": i}}
        for i in range({batch_rows})
    ]
    db.insert("chaos", rows)
    print(f"ACK {{batch}}", flush=True)
""".format(max_batches=MAX_BATCHES, batch_rows=BATCH_ROWS)


def _spawn_child(data_dir: str, start_batch: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [
            os.path.join(os.path.dirname(__file__), "..", "src"),
            env.get("PYTHONPATH"),
        ] if p
    )
    return subprocess.Popen(
        [sys.executable, "-u", "-c", CHILD_SOURCE, data_dir, str(start_batch)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _read_until_killed(
    child: subprocess.Popen, kill_after: int, pause: float
) -> list[str]:
    """Read *child*'s stdout lines; once *kill_after* have arrived, sleep
    *pause* seconds, SIGKILL the child, reap it, and read everything it
    printed before it died.

    The rest is read from ``child.stdout`` itself, not from the raw pipe
    (as ``communicate`` would): the text wrapper may already hold lines
    it read ahead while yielding the last one."""
    lines: list[str] = []
    for line in child.stdout:
        lines.append(line)
        if len(lines) >= kill_after:
            time.sleep(pause)
            child.kill()
            break
    child.wait(timeout=30)
    lines.extend(child.stdout.read().splitlines())
    return lines


def _run_until_killed(
    data_dir: str, start_batch: int, rng: random.Random
) -> list[int]:
    """Run the child, SIGKILL it after a random number of ACKs, and
    return the batches acknowledged before death."""
    child = _spawn_child(data_dir, start_batch)
    kill_after = rng.randint(2, 25)
    # land the kill at an uncontrolled point inside a later commit: a
    # short random sleep races the child, which keeps committing into
    # the pipe buffer meanwhile; ACKs printed before the kill count
    pause = rng.random() * 0.01
    try:
        lines = _read_until_killed(child, kill_after, pause)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)
        child.stdout.close()
        child.stderr.close()
    assert child.returncode == -signal.SIGKILL, (
        f"child exited {child.returncode}, expected SIGKILL"
    )
    acked: list[int] = []
    for line in lines:
        line = line.strip()
        if line.startswith("ACK ") and line != "ACK ddl":
            acked.append(int(line.split()[1]))
    return acked


def test_read_until_killed_keeps_read_ahead_lines():
    """A child that prints 500 ACKs in one write and then sleeps: the
    first line pulls all of them into the text wrapper's buffer, and
    every one must still be counted after the kill."""
    source = (
        "import sys, time\n"
        "sys.stdout.write(''.join(f'ACK {i}\\n' for i in range(500)))\n"
        "sys.stdout.flush()\n"
        "time.sleep(60)\n"
    )
    child = subprocess.Popen(
        [sys.executable, "-c", source],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        lines = _read_until_killed(child, kill_after=1, pause=0.0)
    finally:
        child.kill()
        child.wait(timeout=30)
        child.stdout.close()
        child.stderr.close()
    assert [line.strip() for line in lines] == [f"ACK {i}" for i in range(500)]


def _check_recovered(data_dir: str, acked: list[int], kills: int) -> int:
    """Assert the durability contract over the recovered state; returns
    the highest batch present (the restart point for the next round).

    *kills* bounds the permissible unacked survivors: each SIGKILL can
    land between the WAL append and the ACK write, stranding at most
    one durable-but-unacknowledged batch per crash."""
    db = Database(
        data_dir=data_dir, durability=DurabilityConfig(fsync="always")
    )
    try:
        assert db.catalog.has_table("chaos"), "DDL lost"
        per_batch: dict[int, int] = {}
        for row in db.storage.get("chaos").rows:
            per_batch[row["batch"]] = per_batch.get(row["batch"], 0) + 1
        present = sorted(per_batch)
        # no partial batch — all-or-nothing at the WAL record boundary
        partial = {b: n for b, n in per_batch.items() if n != BATCH_ROWS}
        assert not partial, f"partial batches after recovery: {partial}"
        # no acked loss — everything acknowledged pre-kill survived
        lost = [b for b in acked if b not in per_batch]
        assert not lost, f"acked batches lost: {lost}"
        # at most one in-flight unacked batch may surface per crash
        extra = [b for b in present if b not in acked]
        assert len(extra) <= kills, f"impossible extra batches: {extra}"
        return (present[-1] + 1) if present else 0
    finally:
        db.close()


def _chaos_seed_matrix() -> list[int]:
    env = os.environ.get("REPRO_CHAOS_SEED")
    if env:
        return [int(env)]
    return [101, 211, 307]


@pytest.mark.parametrize("seed", _chaos_seed_matrix())
def test_kill9_mid_commit_recovers_every_acked_batch(tmp_path, seed):
    """Three kill/recover/restart rounds per seed, with a checkpoint
    between rounds two and three so both the WAL-only and the
    checkpoint+tail recovery paths face a real SIGKILL."""
    data_dir = str(tmp_path / "chaos")
    rng = random.Random(seed)
    acked_all: list[int] = []
    start_batch = 0
    for round_no in range(3):
        acked = _run_until_killed(data_dir, start_batch, rng)
        acked_all.extend(acked)
        start_batch = _check_recovered(data_dir, acked_all, round_no + 1)
        if round_no == 1:
            db = Database(
                data_dir=data_dir,
                durability=DurabilityConfig(fsync="always"),
            )
            db.checkpoint()
            db.close()
    report = verify_recovery(
        data_dir,
        os.path.join(data_dir, WAL_FILENAME),
        os.path.join(data_dir, CHECKPOINT_FILENAME),
    )
    assert report.last_lsn >= len(acked_all)
