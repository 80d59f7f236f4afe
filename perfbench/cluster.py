"""The two n=4 real-cluster workloads: one OS process per replica over UDS.

* :func:`run_open_loop` drives the benchmark's own worker
  (``steady_worker.py``): a seeded Poisson schedule, or every transaction
  due at t=0 (``burst``), sent to replica ``k mod n`` at its due instant.
* :func:`run_saturate` runs the shipped launcher,
  :func:`repro.cluster.launcher.run_cluster`, which admits the whole
  workload at once.

Socket files live under ``perfbench/.run`` as paths relative to the
checkout root (the working directory of every process), so nothing is
written outside the checkout and the 108-byte UNIX socket path limit does
not depend on where the checkout sits.
"""

from __future__ import annotations

import json
import os
import queue as queue_mod
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional

from host import load_1m
from schedule import accounts_for, poisson_schedule

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_DIR = os.path.join("perfbench", ".run")
WORKER = os.path.join("perfbench", "steady_worker.py")

N = 4
BATCH_SIZE = 50
#: Offered rate of the open-loop workload (about 40% of the saturated rate).
STEADY_RATE = 80.0
#: Seconds between the start broadcast and the shared start instant.
START_MARGIN_S = 0.5
#: How long after the last due instant the replicas may still commit.
DRAIN_S = 15.0
#: Spawn-to-connected budget (connecting normally takes 2-3 s).
CONNECT_TIMEOUT_S = 30.0
#: How long a stopped replica may take to report and exit.
EXIT_TIMEOUT_S = 15.0
#: Per-launch budget of the shipped launcher (a launch normally takes 10 s);
#: it keeps a stalled run's three launches within the benchmark's deadline.
LAUNCH_TIMEOUT_S = 40.0
STDERR_TAIL = 20


def make_run_dir() -> str:
    """A fresh directory for one cluster's socket files, relative to ROOT."""
    parent = os.path.join(ROOT, RUN_DIR)
    os.makedirs(parent, exist_ok=True)
    return os.path.relpath(tempfile.mkdtemp(dir=parent), ROOT)


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class _Worker:
    """One spawned replica: its process, parsed stdout and a stderr tail."""

    def __init__(self, rid: int, argv: List[str], events: "queue_mod.Queue") -> None:
        self.rid = rid
        self.report: Optional[Dict[str, Any]] = None
        self.stderr_tail: List[str] = []
        self.process = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._threads = [
            threading.Thread(target=self._read_stdout, args=(events,), daemon=True),
            threading.Thread(target=self._read_stderr, daemon=True),
        ]
        for thread in self._threads:
            thread.start()

    def _read_stdout(self, events: "queue_mod.Queue") -> None:
        for line in self.process.stdout:
            try:
                payload = json.loads(line)
            except ValueError:
                self._tail(line)
                continue
            if payload.get("event") == "report":
                self.report = payload
            events.put((self.rid, payload))
        events.put((self.rid, {"event": "eof"}))

    def _read_stderr(self) -> None:
        for line in self.process.stderr:
            self._tail(line)

    def _tail(self, line: str) -> None:
        self.stderr_tail.append(line.rstrip())
        del self.stderr_tail[:-STDERR_TAIL]

    def send(self, command: str) -> None:
        try:
            self.process.stdin.write(command + "\n")
            self.process.stdin.flush()
        except (BrokenPipeError, ValueError, OSError):
            pass

    def close_stdin(self) -> None:
        try:
            self.process.stdin.close()
        except (BrokenPipeError, OSError):
            pass

    def finish(self, timeout: float) -> None:
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        for thread in self._threads:
            thread.join(timeout=2.0)


def _wait_events(
    workers: List[_Worker], events: "queue_mod.Queue", kind: str, deadline: float
) -> bool:
    """Wait until every worker emitted ``kind``; False on deadline or exit."""
    pending = {worker.rid for worker in workers}
    while pending:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return False
        try:
            rid, payload = events.get(timeout=min(remaining, 0.5))
        except queue_mod.Empty:
            continue
        if payload.get("event") == "eof":
            return False
        if payload.get("event") == kind:
            pending.discard(rid)
    return True


def _spawn(
    seed: int, schedule_args: List[str], sockets: str
) -> "tuple[List[_Worker], queue_mod.Queue]":
    events: "queue_mod.Queue" = queue_mod.Queue()
    workers = [
        _Worker(
            rid,
            [sys.executable, WORKER, "--replica-id", str(rid), "--socket-dir", sockets,
             "--seed", str(seed), *schedule_args],
            events,
        )
        for rid in range(N)
    ]
    return workers, events


def setup_probe(seed: int, seconds: float) -> Dict[str, Any]:
    """Spawn the open-loop cluster, time spawn-to-connected, tear it down."""
    sockets = make_run_dir()
    started = time.monotonic()
    workers, events = _spawn(seed, ["--seconds", str(seconds)], sockets)
    try:
        connected = _wait_events(workers, events, "connected", started + CONNECT_TIMEOUT_S)
        elapsed = time.monotonic() - started
    finally:
        for worker in workers:
            worker.close_stdin()
        for worker in workers:
            worker.finish(timeout=EXIT_TIMEOUT_S)
        shutil.rmtree(os.path.join(ROOT, sockets), ignore_errors=True)
    return {
        "setup_s": elapsed,
        "connected": connected,
        "stderr_tail": {w.rid: w.stderr_tail for w in workers},
    }


def run_open_loop(
    seed: int, seconds: float, burst: int = 0, trace_dir: str = ""
) -> Dict[str, Any]:
    """One open-loop cluster run; returns the raw per-replica reports.

    The schedule is the seeded Poisson stream over ``seconds``, or ``burst``
    transactions all due at the start.  Every replica stays up until all of
    them committed every transaction or the drain window closed; a
    transaction still uncommitted then counts as failed.  A run is never
    retried.
    """
    due = schedule_for(seed, seconds, burst)
    args = ["--burst", str(burst)] if burst else ["--seconds", str(seconds)]
    if trace_dir:
        args += ["--trace-dir", trace_dir]
    sockets = make_run_dir()
    load = load_1m()
    cpu_before = children_cpu_s()
    started = time.monotonic()
    workers, events = _spawn(seed, args, sockets)
    connected = False
    try:
        connected = _wait_events(
            workers, events, "connected", started + CONNECT_TIMEOUT_S
        )
        setup_s = time.monotonic() - started
        if connected:
            start_at = time.time() + START_MARGIN_S
            for worker in workers:
                worker.send(f"start {start_at:.6f}")
            last_due = max(due, default=0.0)
            deadline = time.monotonic() + START_MARGIN_S + last_due + DRAIN_S
            _wait_events(workers, events, "done", deadline)
        for worker in workers:
            worker.send("stop")
            worker.close_stdin()
        for worker in workers:
            worker.finish(timeout=EXIT_TIMEOUT_S)
    finally:
        for worker in workers:
            if worker.process.poll() is None:
                worker.process.kill()
                worker.process.wait()
        shutil.rmtree(os.path.join(ROOT, sockets), ignore_errors=True)
    return {
        "transactions": len(due),
        "connected": connected,
        "setup_s": setup_s,
        "load_1m_before": load,
        # User plus system CPU of every replica, spawn to exit.
        "cpu_s": children_cpu_s() - cpu_before,
        "reports": {w.rid: w.report for w in workers if w.report is not None},
        "exit_codes": {w.rid: w.process.returncode for w in workers},
        "stderr_tail": {w.rid: w.stderr_tail for w in workers},
    }


def schedule_for(seed: int, seconds: float, burst: int = 0) -> List[float]:
    """Due times of the open-loop run (shared by the driver and workers)."""
    return [0.0] * burst if burst else poisson_schedule(seed, STEADY_RATE, seconds)


def run_saturate(seed: int, transactions: int) -> Dict[str, Any]:
    """One launch of the shipped launcher over UDS, whole workload at once."""
    from repro.cluster.fixture import ClusterSpec
    from repro.cluster.launcher import run_cluster

    sockets = make_run_dir()
    spec = ClusterSpec(
        n=N,
        transport="uds",
        transactions=transactions,
        batch_size=BATCH_SIZE,
        accounts=accounts_for(transactions),
        seed=seed,
        socket_dir=sockets,
        timeout=LAUNCH_TIMEOUT_S,
    )
    load = load_1m()
    cpu_before = children_cpu_s()
    cwd = os.getcwd()
    os.chdir(ROOT)
    started = time.monotonic()
    try:
        result = run_cluster(spec)
    finally:
        wall = time.monotonic() - started
        os.chdir(cwd)
        shutil.rmtree(os.path.join(ROOT, sockets), ignore_errors=True)
    return {
        "result": result,
        "wall_s": wall,
        "cpu_s": children_cpu_s() - cpu_before,
        "load_1m_before": load,
    }
