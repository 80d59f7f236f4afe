"""One replica of the benchmark's open-loop cluster, as its own OS process.

The shipped worker (``repro.cluster.worker``) admits its whole workload
share at once.  This worker instead submits each transaction of its share at
the instant the seeded schedule makes it due, measured from one start time
the driver shares with every replica.  It stays on the shipped code path: it
calls only what the shipped worker calls (``build_node``,
``AsyncioTransport``, ``submit_transactions``, ``submit_instances`` and the
``on_commit`` hook).

Protocol with the driver (one JSON object per stdout line):

* ``ready`` once the listener is bound, ``connected`` once every peer dial
  completed, ``done`` once the local chain holds every transaction of the
  run, and exactly one ``report`` at the end.
* The driver writes ``start <unix time>`` on stdin to fix the shared start,
  and ``stop`` once every replica is done or the drain window closed.

**Why the instance budget is given up front.**  ASMR ignores INIT/ECHO for
an instance past the replica's own budget (``ASMRReplica._route_lazy_sbc``)
and nothing resends them.  A replica whose budget grows as its own
transactions arrive therefore silently drops its peers' instances; with
per-replica budgets at 20 tx/s only 5 of 410 transactions committed in
20 s.  So every replica receives the whole budget before its transport can
deliver a peer's frame, and instances then run back to back, proposing
whatever the mempool holds (possibly nothing).  A later change to how
instances are started is measured against this behaviour.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
import time
from typing import Any, Dict, List, Optional

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(0, _HERE)

from repro.cluster.fixture import ClusterSpec, build_node, endpoints_for  # noqa: E402
from repro.network.asyncio_transport import AsyncioTransport  # noqa: E402

from cluster import BATCH_SIZE, N, schedule_for  # noqa: E402
from layers import LayerTrace  # noqa: E402
from schedule import accounts_for, replica_slice  # noqa: E402

#: Instances every replica may run: far more than any run decides, so the
#: budget never runs out (see the module docstring).
INSTANCE_BUDGET = 100_000
#: Wall-clock budget from the shared start; the driver stops runs far sooner.
TIMEOUT_S = 150.0


def _emit(payload: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="steady_worker")
    parser.add_argument("--replica-id", type=int, required=True)
    parser.add_argument("--socket-dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--burst", type=int, default=0, help="all due at t=0")
    parser.add_argument("--trace-dir", default="")
    return parser.parse_args(argv)


def _stdin_commands(loop: asyncio.AbstractEventLoop, queue: asyncio.Queue) -> None:
    """Forward stdin lines to the event loop (EOF reads as ``stop``)."""
    for line in sys.stdin:
        loop.call_soon_threadsafe(queue.put_nowait, line.strip())
    loop.call_soon_threadsafe(queue.put_nowait, "stop")


async def _run(args: argparse.Namespace) -> int:
    loop = asyncio.get_running_loop()
    due = schedule_for(args.seed, args.seconds, args.burst)
    trace: Optional[LayerTrace] = None
    if args.trace_dir:
        trace = LayerTrace().install()

    spec = ClusterSpec(
        n=N,
        transport="uds",
        transactions=len(due),
        batch_size=BATCH_SIZE,
        accounts=accounts_for(len(due)),
        seed=args.seed,
        socket_dir=args.socket_dir,
        timeout=TIMEOUT_S,
    )
    rid = args.replica_id
    node = build_node(spec, rid)
    replica = node.replica
    my_due = replica_slice(due, rid, N)
    if len(my_due) != len(node.share):
        raise RuntimeError("the schedule and the fixture split the workload differently")

    # The whole instance budget, before the transport exists (see the module
    # docstring): with no transport bound this only raises the target.
    replica.submit_instances(INSTANCE_BUDGET)
    transport = AsyncioTransport(rid, endpoints_for(spec))
    transport.add_process(replica)
    await transport.start()
    _emit({"event": "ready", "replica_id": rid})
    await transport.connect(timeout=spec.timeout)
    _emit({"event": "connected", "replica_id": rid})

    commands: asyncio.Queue = asyncio.Queue()
    threading.Thread(
        target=_stdin_commands, args=(loop, commands), daemon=True
    ).start()
    command = await commands.get()
    if not command.startswith("start "):
        # A set-up probe: the driver only timed spawn-to-connected.
        await transport.close()
        return 0
    offset = time.time() - loop.time()
    t0 = float(command.split()[1]) - offset

    due_at: Dict[str, float] = {}
    latencies: List[List[float]] = []  # [due offset, due-to-commit seconds]
    lateness: List[float] = []
    done_s: Optional[float] = None
    original_on_commit = replica.on_commit

    def _on_commit(instance: int, decision) -> None:
        nonlocal done_s
        original_on_commit(instance, decision)
        block = replica.blockchain.blocks_by_instance.get(instance)
        if block is not None:
            now = loop.time()
            for transaction in block.transactions:
                due_time = due_at.pop(transaction.tx_id, None)
                if due_time is not None:
                    latencies.append([due_time - t0, now - due_time])
        if (
            done_s is None
            and replica.blockchain.transactions_committed >= node.total_transactions
        ):
            done_s = loop.time() - t0
            _emit({"event": "done", "replica_id": rid, "t": done_s})

    replica.on_commit = _on_commit

    def _submit(transaction, due_time: float) -> None:
        lateness.append(loop.time() - due_time)
        due_at[transaction.tx_id] = due_time
        replica.submit_transactions([transaction])

    def _begin() -> None:
        if trace is not None:
            trace.active = True
        # What is due at the start is admitted before the first proposal, as
        # the shipped worker admits its share before starting consensus.
        for transaction, offset_s in zip(node.share, my_due):
            if offset_s <= 0:
                _submit(transaction, t0)
            else:
                loop.call_at(t0 + offset_s, _submit, transaction, t0 + offset_s)
        transport.start_processes()

    loop.call_at(t0, _begin)

    deadline = t0 + TIMEOUT_S
    while True:
        remaining = deadline - loop.time()
        if remaining <= 0:
            break
        try:
            command = await asyncio.wait_for(commands.get(), timeout=remaining)
        except asyncio.TimeoutError:
            break
        if command == "stop":
            break
    finished_at = loop.time()
    if trace is not None:
        trace.active = False

    blockchain = replica.blockchain
    instances = []
    for index, record in sorted(replica.instances.items()):
        if record.decision is None or record.decided_at is None:
            continue
        block = blockchain.blocks_by_instance.get(index)
        instances.append(
            [
                index,
                record.decided_at - record.started_at,
                record.decided_at - t0,
                len(block.transactions) if block is not None else 0,
            ]
        )
    report: Dict[str, Any] = {
        "event": "report",
        "replica_id": rid,
        "share": len(node.share),
        # Submitted but not committed here, plus never submitted at all.
        "share_uncommitted": len(due_at) + len(node.share) - len(lateness),
        "committed": blockchain.transactions_committed,
        "total_transactions": node.total_transactions,
        "duration_s": finished_at - t0,
        "done_s": done_s,
        "latencies": latencies,
        "lateness_s": lateness,
        "conserved_ok": blockchain.conserved_total() == node.conserved_baseline,
        "commit_rejected": blockchain.stats.commit_rejected,
        "block_hashes": {
            str(index): block.block_hash
            for index, block in blockchain.blocks_by_instance.items()
        },
        "instances": instances,
        "transport": {
            "messages_sent": transport.messages_sent,
            "messages_dropped": transport.messages_dropped,
            "bytes_sent": transport.bytes_sent,
        },
    }
    if trace is not None:
        trace.uninstall()
        report["trace"] = trace.summary()
        _write_trace(args.trace_dir, rid, trace)
    _emit(report)
    await transport.close()
    return 0


def _write_trace(trace_dir: str, rid: int, trace: LayerTrace) -> None:
    """Spans as JSON lines and captured frames as length-prefixed bytes."""
    os.makedirs(trace_dir, exist_ok=True)
    with open(os.path.join(trace_dir, f"spans-{rid}.jsonl"), "w") as out:
        for row in trace.span_rows():
            out.write(json.dumps(row) + "\n")
    with open(os.path.join(trace_dir, f"frames-{rid}.bin"), "wb") as out:
        for frame in trace.frames:
            out.write(len(frame).to_bytes(4, "big") + frame)


def main(argv: Optional[List[str]] = None) -> int:
    return asyncio.run(_run(_parse_args(argv)))


if __name__ == "__main__":
    sys.exit(main())
