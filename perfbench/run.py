"""The ZLB benchmark: one command, workloads layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cluster-steady --seed 1 --seconds 30 --trace 0

Workloads (``--workload``); ``--seed`` makes every input:

* ``cluster-steady``: an n=4 real cluster, one OS process per replica over
  UNIX-domain sockets, batch 50, fed open loop: a seeded Poisson schedule of
  80 tx/s over ``--seconds``, transaction ``k`` sent to replica ``k mod 4``
  when due.  Its ``tx_per_s`` counts only transactions committed within
  1 s of being due, over the time until the slowest replica holds them all;
  it stays near the offered rate unless the tail passes 1 s.
* ``cluster-saturate``: the shipped launcher (``run_cluster``), n=4, UDS,
  batch 50, the whole workload admitted at once (closed loop); three
  launches of 100 transactions per second of ``--seconds``.
* ``sim-attack``: two Figure 4 cells (rbbcast and binary) at n=20 with 11
  deceitful replicas on the simulator.  It has no commit latency, so it is
  not one of the ``BENCHMARK.json`` workloads and prints its own metrics
  (``run_s``, ``setup_s``); the traced run of each cluster workload also
  runs it for the ``sim.*`` metrics.

With ``--trace 0`` the run prints the end-to-end metrics.  With ``--trace
1`` it makes an untraced and a traced run of half the length each (the
saturate one through the open-loop worker with every transaction due at
t=0), runs the layer cells and the attack cells, and prints the per-layer
metrics.  Every metric is printed by name with its unit; the last stdout
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
A correctness gate that fails makes the run exit 1 without that line.  The
full record (host fingerprint, load average before each run, CPU steal,
min/median/max of every metric, gates, workers' stderr tails, latency
samples) is written under ``perfbench/results/``.

Self-tests: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import cells
import cluster
import simattack
from host import cpu_times, fingerprint, load_1m, percentile, spread, steal_frac
from layers import LayerTrace, merge_summaries

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS_DIR = os.path.join(HERE, "results")

#: Latency samples per slice of the open-loop schedule: 4 slices at 30 s of
#: 80 tx/s, each with 30 samples beyond its p95.
SEGMENT_SAMPLES = 600
#: The open-loop latency limit (p99 at most 1 s): steady ``tx_per_s`` counts
#: only transactions committed within it.
COMMIT_LIMIT_S = 1.0
#: Set-up measurements per run (median reported).
SETUP_SAMPLES = 3
#: Launches of the shipped launcher per saturate run, and transactions per
#: launch for each second of ``--seconds``.
SATURATE_LAUNCHES = 3
SATURATE_TX_PER_SECOND = 100
#: Transactions of the traced saturate run (all due at t=0).
TRACED_BURST = 1500

#: (name, unit) of the end-to-end metrics; every cluster workload reports all.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("commit_p50_s", "s"),
    ("commit_p95_s", "s"),
    ("tx_per_s", "tx/s"),
    ("setup_s", "s"),
)

#: The sim-attack workload's own end-to-end metrics.
SIM_END_TO_END: Tuple[Tuple[str, str], ...] = (("run_s", "s"), ("setup_s", "s"))

FRAME_KINDS = ("INIT", "ECHO", "READY", "BVAL", "AUX", "DECIDE", "CONFIRM")
NET_LAYERS = ("rbc", "binary", "asmr")

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    # cluster costs that are not bounded end to end
    ("cpu_ms_per_tx", "ms"),
    ("wire_bytes_per_tx", "B"),
    ("failed_frac", "ratio"),
    ("commit_p99_s", "s"),
    ("commit_samples", "count"),
    # network.codec
    ("codec.encode_us_per_frame", "us"),
    ("codec.decode_us_per_frame", "us"),
    *((f"codec.frame_bytes.{kind}", "B") for kind in FRAME_KINDS),
    ("codec.busy_ms_per_tx", "ms"),
    ("codec.decodes_per_tx", "count"),
    # crypto.hashing
    ("hashing.us_per_tx_hash", "us"),
    ("hashing.us_per_batch50", "us"),
    ("hashing.calls_per_tx", "count"),
    ("hashing.busy_ms_per_tx", "ms"),
    # crypto.signatures
    ("sig.sign_us.simulated", "us"),
    ("sig.verify_us.simulated", "us"),
    ("sig.sign_us.ecdsa", "us"),
    ("sig.verify_us.ecdsa", "us"),
    ("sig.verifies_per_tx", "count"),
    ("sig.busy_ms_per_tx", "ms"),
    # ledger.mempool
    ("mempool.admit_us_per_tx", "us"),
    ("mempool.wait_p50_s", "s"),
    # ledger
    ("ledger.append_us_per_tx", "us"),
    ("ledger.merge_us_per_tx", "us"),
    ("ledger.commit_busy_ms_per_tx", "ms"),
    # rbc.bracha, consensus.binary, consensus.sbc
    *(
        (f"{layer}.{what}.{size}", unit)
        for layer in ("rbc", "binary", "sbc")
        for what, unit in (("host_ms", "ms"), ("msgs", "count"))
        for size in ("n4", "n16")
    ),
    *((f"{layer}.busy_ms_per_tx", "ms") for layer in ("rbc", "binary", "sbc")),
    # smr.asmr
    ("asmr.instances_per_s", "1/s"),
    ("asmr.tx_per_instance", "count"),
    ("asmr.useful_instance_frac", "ratio"),
    ("asmr.decide_p50_s", "s"),
    # network.asyncio_transport
    *((f"net.bytes_per_tx.{layer}", "B") for layer in NET_LAYERS),
    *((f"net.msgs_per_tx.{layer}", "count") for layer in NET_LAYERS),
    ("net.dropped", "count"),
    # network.simulator
    ("kernel.events_per_s", "1/s"),
    ("sim.run_s", "s"),
    ("sim.messages_delivered", "count"),
    ("sim.disagreements", "count"),
    ("sim.detect_s", "s"),
    ("sim.exclusion_s", "s"),
    ("sim.wire_calls", "count"),
    # the benchmark itself
    ("gen.late_p99_s", "s"),
    ("gen.late_max_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class GateFailure(Exception):
    """A correctness gate failed: the run produces no number."""


class Run:
    """Metrics, spreads and the record of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        self.values: Dict[str, float] = {}
        self.spreads: Dict[str, Dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0
        self.record: Dict[str, Any] = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "host": fingerprint(),
            "runs": [],
            "gates": [],
        }

    def put(self, name: str, values: List[float]) -> None:
        """Report the median of ``values``; keep min/median/max."""
        values = [float(value) for value in values]
        self.values[name] = statistics.median(values)
        self.spreads[name] = spread(values)

    def gate(self, failures: List[str]) -> None:
        self.record["gates"].extend(failures)
        if failures:
            raise GateFailure("; ".join(failures))


# -- cluster gates and metrics ---------------------------------------------------


def _open_loop_gates(run: Dict[str, Any], n: int) -> List[str]:
    failures = []
    if not run["connected"]:
        failures.append("a replica never connected")
    reports = run["reports"]
    missing = sorted(set(range(n)) - set(reports))
    if missing or any(code != 0 for code in run["exit_codes"].values()):
        failures.append(f"worker crash: exit codes {run['exit_codes']}, no report from {missing}")
    hashes: Dict[str, str] = {}
    for rid, report in sorted(reports.items()):
        if not report["conserved_ok"]:
            failures.append(f"replica {rid}: conserved total differs from genesis")
        if report["commit_rejected"] != 0:
            failures.append(f"replica {rid}: {report['commit_rejected']} commits rejected")
        for instance, block_hash in report["block_hashes"].items():
            if hashes.setdefault(instance, block_hash) != block_hash:
                failures.append(f"replica {rid}: block of instance {instance} differs")
    return failures


def _run_record(run: Dict[str, Any]) -> Dict[str, Any]:
    """What the record keeps of an open-loop run besides its samples."""
    keep = ("share", "share_uncommitted", "committed", "duration_s", "done_s",
            "conserved_ok", "commit_rejected", "transport")
    return {
        **{key: run[key] for key in ("transactions", "setup_s", "cpu_s", "load_1m_before",
                                     "exit_codes", "stderr_tail")},
        "replicas": {
            str(rid): {key: report[key] for key in keep}
            for rid, report in run["reports"].items()
        },
    }


def _open_loop_run(out: Run, seed: int, seconds: int, **kwargs: Any) -> Dict[str, Any]:
    """One gated open-loop run with its failure accounting and costs.

    Every transaction still uncommitted at the replica it was sent to when
    the drain window closed counts as failed.
    """
    run = cluster.run_open_loop(seed, seconds, **kwargs)
    out.record["runs"].append({"traced": bool(kwargs.get("trace_dir")), **_run_record(run)})
    out.gate(_open_loop_gates(run, cluster.N))
    reports = list(run["reports"].values())
    total = run["transactions"]
    committed = total - sum(report["share_uncommitted"] for report in reports)
    out.attempted += total
    out.failed += total - committed
    out.values["failed_frac"] = out.failed / out.attempted
    per_tx = max(committed, 1)
    lateness = [late for report in reports for late in report["lateness_s"]]
    samples = sorted(tuple(pair) for report in reports for pair in report["latencies"])
    if not samples:
        raise GateFailure("no transaction committed: no latency to report")
    # Consecutive slices of the schedule, each with enough samples for a p95;
    # the run reports the median slice, so one burst of host noise in a
    # slice does not decide the figure.  All-at-once runs are one slice.
    burst = bool(kwargs.get("burst"))
    count = 1 if burst else max(1, len(samples) // SEGMENT_SAMPLES)
    size = len(samples) / count
    segments = [
        [lat for _, lat in samples[round(i * size) : round((i + 1) * size)]]
        for i in range(count)
    ]
    # A replica's run ends when its chain holds every transaction.
    durations = [report["done_s"] or report["duration_s"] for report in reports]
    if burst:
        rates = [committed / d for d in durations]
        tx_per_s = committed / max(durations)
    else:
        # Open loop, the committed rate is pinned near the offered rate while
        # the cluster keeps up.  Counting only commits within the latency
        # limit makes a run whose tail passes the limit, or whose drain
        # stretches, read lower.  Per replica for the spread: its share
        # scaled by n.
        def good(latencies: List[List[float]]) -> int:
            return sum(1 for _, latency in latencies if latency <= COMMIT_LIMIT_S)

        rates = [good(r["latencies"]) * cluster.N / d for r, d in zip(reports, durations)]
        tx_per_s = good(samples) / max(durations)
    run["metrics"] = {
        "commit_samples": float(len(samples)),
        "tx_per_s": tx_per_s,
        "cpu_ms_per_tx": run["cpu_s"] * 1e3 / per_tx,
        "wire_bytes_per_tx": sum(r["transport"]["bytes_sent"] for r in reports)
        / cluster.N
        / per_tx,
        "gen.late_p99_s": percentile(lateness, 99),
        "gen.late_max_s": max(lateness),
    }
    run["spreads"] = {"tx_per_s": spread(rates)}
    for q, name in ((50, "commit_p50_s"), (95, "commit_p95_s")):
        per_segment = [percentile(segment, q) for segment in segments]
        run["metrics"][name] = statistics.median(per_segment)
        run["spreads"][name] = spread(per_segment)
    # Pooled p99: too few samples beyond it per slice, and too tail-heavy on
    # a shared host to bound; reported unbounded with its sample count.
    run["metrics"]["commit_p99_s"] = percentile([lat for _, lat in samples], 99)
    run["committed"] = committed
    out.record.setdefault("samples", []).append(samples)
    return run


def _steady(out: Run, seed: int, seconds: int) -> None:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        probe = cluster.setup_probe(seed, seconds)
        if not probe["connected"]:
            out.record["runs"].append(probe)
            out.gate([f"set-up probe: a replica never connected: {probe['stderr_tail']}"])
        setups.append(probe["setup_s"])
    run = _open_loop_run(out, seed, seconds)
    out.put("setup_s", setups + [run["setup_s"]])
    out.values.update(run["metrics"])
    out.spreads.update(run["spreads"])


def _saturate(out: Run, seed: int, seconds: int) -> None:
    transactions = SATURATE_TX_PER_SECOND * seconds
    samples: Dict[str, List[float]] = {}
    latency_samples = 0
    for _ in range(SATURATE_LAUNCHES):
        launch = cluster.run_saturate(seed, transactions)
        result = launch["result"]
        reports = result.reports
        out.record["runs"].append(
            {key: launch[key] for key in ("load_1m_before", "wall_s", "cpu_s")}
            | {"result": result.to_json()}
        )
        failures = []
        if result.crashes or len(reports) != cluster.N:
            failures.append(f"worker crash: {result.crashes}, reports from {sorted(reports)}")
        if not result.zero_loss:
            failures.append("conserved total or commit_rejected check failed")
        # The shipped report carries chain summaries, not block hashes: the
        # chains must agree on height, transactions, UTXOs and deposit.
        chains = {
            json.dumps({k: r["chain"][k] for k in ("height", "transactions", "utxos", "deposit")})
            for r in reports.values()
        }
        if len(chains) > 1:
            failures.append(f"replica chains differ: {sorted(chains)}")
        pooled = [lat for r in reports.values() for lat in r.get("commit_latencies_s", ())]
        if not pooled:
            failures.append("the launch committed nothing")
        out.gate(failures)
        out.attempted += transactions
        out.failed += transactions - result.committed
        latency_samples += len(pooled)
        committed = max(result.committed, 1)
        longest = max(r["duration_s"] for r in reports.values())
        for name, value in (
            ("tx_per_s", result.committed / longest),
            ("setup_s", launch["wall_s"] - longest),
            ("cpu_ms_per_tx", launch["cpu_s"] * 1e3 / committed),
            (
                "wire_bytes_per_tx",
                sum(r["transport"]["bytes_sent"] for r in reports.values()) / cluster.N / committed,
            ),
            ("commit_p50_s", percentile(pooled, 50)),
            ("commit_p95_s", percentile(pooled, 95)),
            ("commit_p99_s", percentile(pooled, 99)),
        ):
            samples.setdefault(name, []).append(value)
    for name, values in samples.items():
        out.put(name, values)
    out.values["commit_samples"] = float(latency_samples)
    out.values["failed_frac"] = out.failed / out.attempted


# -- traced runs -----------------------------------------------------------------


def _layer_metrics(out: Run, summary: Dict[str, Any], per_tx: int, replicas: int) -> None:
    """Per-layer counts and busy times of a traced run, per committed tx.

    Counts and busy times are summed over replicas; bytes and messages sent
    are divided by the replica count, like ``wire_bytes_per_tx``.
    """
    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]
    per_tx = max(per_tx, 1)

    def busy_ms(*layers: str) -> float:
        return sum(self_s.get(layer, 0.0) for layer in layers) * 1e3 / per_tx

    for kind in FRAME_KINDS:
        frames = counts.get(f"frames.{kind}", 0)
        out.values[f"codec.frame_bytes.{kind}"] = (
            counts.get(f"frame_bytes.{kind}", 0) / frames if frames else 0.0
        )
    out.values["codec.busy_ms_per_tx"] = busy_ms("codec.encode", "codec.decode")
    out.values["codec.decodes_per_tx"] = calls.get("codec.decode", 0) / per_tx
    out.values["hashing.calls_per_tx"] = calls.get("hashing", 0) / per_tx
    out.values["hashing.busy_ms_per_tx"] = busy_ms("hashing")
    out.values["sig.verifies_per_tx"] = calls.get("sig.verify", 0) / per_tx
    out.values["sig.busy_ms_per_tx"] = busy_ms("sig.sign", "sig.verify")
    out.values["ledger.commit_busy_ms_per_tx"] = busy_ms("ledger.commit")
    for layer in ("rbc", "binary", "sbc"):
        out.values[f"{layer}.busy_ms_per_tx"] = busy_ms(layer)
    waits = summary["mempool_waits"]
    out.values["mempool.wait_p50_s"] = statistics.median(waits) if waits else 0.0
    for layer in NET_LAYERS:
        for what, key in (("bytes", "net.bytes_per_tx"), ("msgs", "net.msgs_per_tx")):
            out.values[f"{key}.{layer}"] = counts.get(f"net.{what}.{layer}", 0) / replicas / per_tx
    out.record.setdefault("trace_summaries", []).append(
        {key: value for key, value in summary.items() if key != "mempool_waits"}
    )


def _asmr_metrics(out: Run, reports: List[Dict[str, Any]]) -> None:
    """Instances decided (rows: index, decide s, decided-at s, txs)."""
    decided = [row for report in reports for row in report["instances"]]
    if not decided:
        return
    # Per replica: instances decided per second from the start to its last
    # decision; the cluster figure is the median over replicas.
    out.put(
        "asmr.instances_per_s",
        [len(r["instances"]) / max(row[2] for row in r["instances"]) for r in reports if r["instances"]],
    )
    out.values["asmr.tx_per_instance"] = sum(row[3] for row in decided) / len(decided)
    out.values["asmr.useful_instance_frac"] = sum(1 for row in decided if row[3] > 0) / len(decided)
    out.values["asmr.decide_p50_s"] = statistics.median(row[1] for row in decided)


def _read_frames(trace_dir: str) -> List[bytes]:
    frames: List[bytes] = []
    directory = os.path.join(ROOT, trace_dir)
    for name in sorted(os.listdir(directory)):
        if not name.startswith("frames-"):
            continue
        with open(os.path.join(directory, name), "rb") as source:
            data = source.read()
        pos = 0
        while pos < len(data):
            length = int.from_bytes(data[pos : pos + 4], "big")
            frames.append(data[pos + 4 : pos + 4 + length])
            pos += 4 + length
    return frames


def _traced_cluster(out: Run, workload: str, seed: int, seconds: int) -> None:
    """An untraced then a traced run of the cluster workload, each half as long.

    Saturate runs through the same worker with every transaction due at t=0.
    The overhead is taken on p50 commit latency (steady) or on the time to
    commit everything (saturate).
    """
    trace_dir = os.path.join("perfbench", "results", f"trace-{workload}-seed{seed}")
    burst = TRACED_BURST if workload == "cluster-saturate" else 0
    # The two runs share the measuring time.
    half = max(1, seconds // 2)
    plain = _open_loop_run(out, seed, half, burst=burst)
    traced = _open_loop_run(out, seed, half, burst=burst, trace_dir=trace_dir)
    for name in ("cpu_ms_per_tx", "wire_bytes_per_tx", "commit_p99_s", "commit_samples",
                 "gen.late_p99_s", "gen.late_max_s"):
        out.values[name] = plain["metrics"][name]
    key = "tx_per_s" if burst else "commit_p50_s"
    ratio = plain["metrics"][key] / traced["metrics"][key]
    out.values["trace.overhead_frac"] = (ratio if burst else 1.0 / ratio) - 1.0

    reports = list(traced["reports"].values())
    summary = merge_summaries([report["trace"] for report in reports])
    _layer_metrics(out, summary, traced["committed"], len(reports))
    _asmr_metrics(out, reports)
    out.values["net.dropped"] = float(sum(r["transport"]["messages_dropped"] for r in reports))
    absent = out.record.setdefault("absent", [])
    absent.extend(summary["absent"])
    # A codec whose entry points moved captures no frame, or has no function
    # for the cell to call: the codec cell then reads zero like any absent
    # layer.
    frames = _read_frames(trace_dir)
    if not frames:
        absent.append("codec cell: the traced run captured no frame")
        return
    try:
        codec = cells.codec_cells(frames)
    except ImportError as gone:
        absent.append(f"codec cell: {gone}")
        return
    for name, (value, cell_spread) in codec.items():
        out.values[name] = value
        out.spreads[name] = cell_spread


def _sim_cells(out: Run, seed: int, layer_trace: Optional[Any] = None) -> List[Dict[str, Any]]:
    """Both attack cells, gated; ``layer_trace`` is active only inside runs."""
    cells_out = []
    for kind in simattack.KINDS:
        if layer_trace is not None:
            layer_trace.active = True
        try:
            cell = simattack.run_cell(kind, seed)
        finally:
            if layer_trace is not None:
                layer_trace.active = False
        out.record["runs"].append(cell)
        out.gate(simattack.gate_failures(cell))
        cells_out.append(cell)
    return cells_out


def _sim_setups(seed: int) -> List[float]:
    samples = []
    for kind in simattack.KINDS:
        started = time.perf_counter()
        simattack.create_system(kind, seed)
        samples.append(time.perf_counter() - started)
    return samples


def _traced_sim(out: Run, seed: int) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """The attack cells with every layer wrapper on: the ``sim.*`` metrics."""
    layer_trace = LayerTrace().install()
    try:
        cells_out = _sim_cells(out, seed, layer_trace)
    finally:
        layer_trace.uninstall()
    summary = layer_trace.summary()
    out.record.setdefault("absent", []).extend(summary["absent"])
    out.values["sim.run_s"] = sum(cell["run_s"] for cell in cells_out)
    for name in ("messages_delivered", "disagreements"):
        out.values[f"sim.{name}"] = float(sum(cell[name] for cell in cells_out))
    for name in ("detect_s", "exclusion_s"):
        out.values[f"sim.{name}"] = statistics.mean(cell[name] for cell in cells_out)
    # The simulator ships objects by reference: no codec or socket call.
    calls = summary["calls"]
    out.values["sim.wire_calls"] = float(
        sum(calls.get(layer, 0) for layer in ("codec.encode", "codec.decode", "net.send"))
    )
    out.record["sim_trace_summary"] = {k: v for k, v in summary.items() if k != "mempool_waits"}
    return cells_out, summary


# -- driver ----------------------------------------------------------------------


def _shared_cells(out: Run, seed: int) -> None:
    absent = out.record.setdefault("absent", [])
    for name, (value, cell_spread) in cells.shared_cells(seed, absent).items():
        out.values[name] = value
        out.spreads[name] = cell_spread


def _measure(workload: str, seed: int, seconds: int, trace: bool, out: Run) -> None:
    if workload == "sim-attack":
        plain = _sim_cells(out, seed)
        out.attempted += len(plain)
        out.values["run_s"] = sum(cell["run_s"] for cell in plain)
        out.put("setup_s", [cell["setup_s"] for cell in plain] + _sim_setups(seed))
        if trace:
            traced, summary = _traced_sim(out, seed)
            out.attempted += len(traced)
            out.values["trace.overhead_frac"] = out.values["sim.run_s"] / out.values["run_s"] - 1.0
            committed = sum(cell["committed_transactions"] for cell in traced)
            _layer_metrics(out, summary, committed, 1)
            _shared_cells(out, seed)
    elif not trace:
        (_steady if workload == "cluster-steady" else _saturate)(out, seed, seconds)
    else:
        _traced_cluster(out, workload, seed, seconds)
        _shared_cells(out, seed)
        _traced_sim(out, seed)
    if trace:
        # Layers a workload does not exercise read zero (no wire, no
        # generator and no ASMR instance records on the simulator).
        missing = [name for name, _ in PER_LAYER if name not in out.values]
        out.record["zero_layers"] = missing
        for name in missing:
            out.values[name] = 0.0


def _selected(workload: str, trace: bool) -> Tuple[Tuple[str, str], ...]:
    if trace:
        return PER_LAYER
    return SIM_END_TO_END if workload == "sim-attack" else END_TO_END


WORKLOADS = ("cluster-steady", "cluster-saturate", "sim-attack")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # On SIGTERM unwind normally, so every spawned replica is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    trace = bool(args.trace)
    out = Run(args.workload, args.seed, args.seconds, trace)
    out.record["load_1m_before"] = load_1m()
    cpu_before = cpu_times()
    started = time.monotonic()
    try:
        _measure(args.workload, args.seed, args.seconds, trace, out)
    except GateFailure as failure:
        out.record["failed_gate"] = str(failure)
        _write_record(out, args)
        print(f"perfbench: correctness gate failed: {failure}", file=sys.stderr)
        return 1
    out.record["wall_s"] = time.monotonic() - started
    # Share of the host's CPU time the hypervisor gave to other guests.
    out.record["cpu_steal_frac"] = steal_frac(cpu_before, cpu_times())

    selected = _selected(args.workload, trace)
    metrics = {}
    for name, unit in selected:
        value = out.values[name]
        metrics[name] = {"value": value, "unit": unit}
        spread = out.spreads.get(name)
        detail = (
            f"  (min {spread['min']:.6g} median {spread['median']:.6g} "
            f"max {spread['max']:.6g}, n={spread['n']})"
            if spread
            else ""
        )
        print(f"{name:34s} {value:14.6g} {unit}{detail}")
    out.record["metrics"] = {
        name: {"value": out.values[name], "unit": unit, "spread": out.spreads.get(name)}
        for name, unit in selected
    }
    _write_record(out, args)
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": max(out.attempted, 1),
                "failed": out.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _write_record(out: Run, args: argparse.Namespace) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(
        RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    out.record["failed"] = out.failed
    out.record["attempted"] = out.attempted
    with open(path, "w") as sink:
        json.dump(out.record, sink, indent=1, default=str)


if __name__ == "__main__":
    sys.exit(main())
