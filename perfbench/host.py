"""Host fingerprint and the small statistics every record carries."""

from __future__ import annotations

import os
import platform
import statistics
from typing import Any, Dict, Iterable, List


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def spread(values: List[float]) -> Dict[str, Any]:
    """Min, median and max over the repetitions of one measurement."""
    return {
        "min": min(values),
        "median": statistics.median(values),
        "max": max(values),
        "n": len(values),
    }


def load_1m() -> float:
    return os.getloadavg()[0]


def cpu_times() -> List[int]:
    """The host-wide CPU time counters of ``/proc/stat`` (empty elsewhere)."""
    try:
        with open("/proc/stat") as stat:
            return [int(field) for field in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return []


def steal_frac(before: List[int], after: List[int]) -> float:
    """Share of CPU time stolen by the hypervisor between two snapshots."""
    if len(before) < 8 or len(after) < 8:
        return 0.0
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(sum(delta), 1)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> Dict[str, Any]:
    """What a reader needs to compare two records: cores, CPU, Python."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 0
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }
