"""The colluding-majority simulator workload: two Figure 4 cells.

n=20 replicas of which d=11 are deceitful (a 55% coalition), AWS-like base
delay and 1000 ms across the partition, the paper's 12 transfers per
replica, two instances.  One cell runs the reliable-broadcast attack and one
the binary-consensus attack; both are built with ``ZLBSystem.create`` and
run with ``run_instances(2)``, as
:func:`repro.experiments.fig4_disagreements.run_attack_cell` does.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List

N = 20
KINDS = ("rbbcast", "binary")
CROSS_PARTITION_DELAY = "1000ms"
BASE_DELAY = "aws"
INSTANCES = 2
MAX_TIME = 300.0
BATCH_SIZE = 10


def create_system(kind: str, seed: int, n: int = N):
    from repro.common.config import FaultConfig
    from repro.zlb.system import AttackSpec, ZLBSystem

    return ZLBSystem.create(
        FaultConfig.paper_attack(n),
        seed=seed,
        delay=BASE_DELAY,
        attack=AttackSpec(kind=kind, cross_partition_delay=CROSS_PARTITION_DELAY),
        workload_transactions=12 * n,
        batch_size=BATCH_SIZE,
        max_time=MAX_TIME,
    )


def run_cell(kind: str, seed: int, n: int = N) -> Dict[str, Any]:
    """Build and run one cell; returns timings, outcome and gate inputs."""
    started = time.perf_counter()
    system = create_system(kind, seed, n)
    setup_s = time.perf_counter() - started
    started = time.perf_counter()
    result = system.run_instances(INSTANCES, until=MAX_TIME)
    run_s = time.perf_counter() - started
    return {
        "kind": kind,
        "n": n,
        "setup_s": setup_s,
        "run_s": run_s,
        "events": system.simulator.events_processed,
        "messages_delivered": result.messages_delivered,
        "disagreements": result.disagreements,
        "recovered": result.recovered,
        "deposit_shortfall": result.deposit_shortfall,
        "excluded": len(result.excluded),
        "detect_s": result.detect_time,
        "exclusion_s": result.exclusion_time,
        "committed_transactions": result.committed_transactions,
    }


def gate_failures(cell: Dict[str, Any]) -> List[str]:
    """The paper's guarantees for one attack cell; empty when all hold."""
    failures = []
    if cell["disagreements"] < 1:
        failures.append(f"{cell['kind']}: the attack caused no disagreement")
    if not cell["recovered"]:
        failures.append(f"{cell['kind']}: the system did not recover")
    if cell["deposit_shortfall"] != 0:
        failures.append(f"{cell['kind']}: deposit shortfall {cell['deposit_shortfall']}")
    if cell["excluded"] < math.ceil(cell["n"] / 3):
        failures.append(
            f"{cell['kind']}: excluded {cell['excluded']} < ceil(n/3) = {math.ceil(cell['n'] / 3)}"
        )
    return failures
