"""Self-tests of the benchmark itself.

Run from the root of a checkout::

    python3 perfbench/selftest.py

The file is deliberately not named ``test_*.py``: the smoke runs spawn real
clusters and take about two minutes, so the repository's own test suite does
not collect them.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import simattack  # noqa: E402
from layers import LayerTrace, TARGETS  # noqa: E402
from schedule import poisson_schedule, replica_slice  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench(
    workload: str, seconds: int, trace: int = 0, root: str = ROOT
) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


class ScheduleTest(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        self.assertEqual(poisson_schedule(7, 80.0, 10.0), poisson_schedule(7, 80.0, 10.0))
        self.assertNotEqual(poisson_schedule(7, 80.0, 10.0), poisson_schedule(8, 80.0, 10.0))

    def test_schedule_shape(self):
        due = poisson_schedule(1, 80.0, 10.0)
        self.assertEqual(len(due), 800)
        self.assertEqual(due, sorted(due))
        self.assertTrue(all(0.0 <= t < 10.0 for t in due))

    def test_slices_partition_the_schedule(self):
        due = poisson_schedule(2, 80.0, 5.0)
        slices = [replica_slice(due, rid, 4) for rid in range(4)]
        self.assertEqual(sorted(t for s in slices for t in s), due)
        self.assertEqual(slices[1][0], due[1])


class MetricNamesTest(unittest.TestCase):
    def test_names_and_units(self):
        for table in (run.END_TO_END, run.SIM_END_TO_END, run.PER_LAYER):
            names = [name for name, _ in table]
            self.assertEqual(len(names), len(set(names)))
            for name, unit in table:
                self.assertRegex(name, NAME)
                self.assertRegex(unit, UNIT)

    def test_benchmark_json_matches_the_tables(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
            spec = json.load(source)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER)
        )
        self.assertTrue(set(w["name"] for w in spec["workloads"]) <= set(run.WORKLOADS))


class LayerTraceTest(unittest.TestCase):
    def test_wraps_and_restores(self):
        from repro.crypto import hashing

        original = hashing.hash_payload
        trace = LayerTrace().install()
        try:
            trace.active = True
            hashing.hash_payload({"a": [1, 2]})
            trace.active = False
            hashing.hash_payload({"a": [1, 2]})
        finally:
            trace.uninstall()
        self.assertIs(hashing.hash_payload, original)
        # canonical_bytes and sha256_hex inside hash_payload fold into one call.
        self.assertEqual(trace.calls["hashing"], 1)
        self.assertEqual(trace.spans[0][1], "hashing")

    def test_missing_function_is_an_absent_layer(self):
        import layers

        saved = layers.TARGETS
        layers.TARGETS = TARGETS + (("gone", "repro.crypto.hashing", None, "no_such_fn"),)
        try:
            trace = LayerTrace().install()
            trace.uninstall()
        finally:
            layers.TARGETS = saved
        self.assertIn("repro.crypto.hashing.no_such_fn", trace.absent)


class SmokeTest(unittest.TestCase):
    """A tiny run of each workload passes its correctness gates."""

    def _check(self, proc: subprocess.CompletedProcess, names) -> None:
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {name for name, _ in names})
        for metric in result["metrics"].values():
            self.assertGreater(metric["value"], 0)

    def test_cluster_steady(self):
        self._check(_bench("cluster-steady", 2), run.END_TO_END)

    def test_cluster_saturate(self):
        self._check(_bench("cluster-saturate", 1), run.END_TO_END)

    def test_sim_attack(self):
        self._check(_bench("sim-attack", 1), run.SIM_END_TO_END)

    def test_sim_attack_cells_pass_their_gates(self):
        for kind in simattack.KINDS:
            cell = simattack.run_cell(kind, seed=1, n=9)
            self.assertEqual(simattack.gate_failures(cell), [], cell)


class TracedSmokeTest(unittest.TestCase):
    """``--trace 1`` prints every per-layer metric, with or without a layer."""

    def _metrics(self, proc: subprocess.CompletedProcess) -> dict:
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), {name for name, _ in run.PER_LAYER})
        return {name: metric["value"] for name, metric in result["metrics"].items()}

    def test_traced_cluster_run(self):
        metrics = self._metrics(_bench("cluster-steady", 2, trace=1))
        for name in ("codec.encode_us_per_frame", "hashing.busy_ms_per_tx",
                     "net.bytes_per_tx.rbc", "sim.messages_delivered"):
            self.assertGreater(metrics[name], 0, name)

    def test_absent_layer_reads_zero(self):
        """A checkout whose codec entry point is gone still prints its metrics.

        The copy of the benchmark wraps a name the transport does not have,
        as after a rename of ``frame_message``: no frame is captured, so the
        codec layer and cell read zero and the run still exits 0.
        """
        results = os.path.join(HERE, "results")
        os.makedirs(results, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=results) as root:
            os.symlink(os.path.join(ROOT, "src"), os.path.join(root, "src"))
            shutil.copytree(
                HERE, os.path.join(root, "perfbench"),
                ignore=shutil.ignore_patterns("results", ".run", "__pycache__"),
            )
            layers_path = os.path.join(root, "perfbench", "layers.py")
            with open(layers_path) as source:
                text = source.read()
            renamed = text.replace('None, "frame_message")', 'None, "no_frame_message")')
            self.assertNotEqual(renamed, text)
            with open(layers_path, "w") as sink:
                sink.write(renamed)
            metrics = self._metrics(_bench("cluster-steady", 2, trace=1, root=root))
            with open(os.path.join(
                root, "perfbench", "results", "cluster-steady-seed3-trace1.json"
            )) as source:
                record = json.load(source)
        self.assertEqual(metrics["codec.encode_us_per_frame"], 0.0)
        self.assertEqual(metrics["codec.frame_bytes.INIT"], 0.0)
        self.assertGreater(metrics["hashing.busy_ms_per_tx"], 0)
        self.assertIn("repro.network.asyncio_transport.no_frame_message", record["absent"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
