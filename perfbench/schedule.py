"""Seeded arrival schedules for the open-loop cluster workload.

Independent payers form an open loop: transaction ``k`` is *due* at a time
drawn from one Poisson process, whatever the cluster is doing, and is sent
to replica ``k mod n``.  Every worker and the driver rebuild the same
schedule from the seed, so no schedule is shipped between processes.
"""

from __future__ import annotations

import inspect
import random
from typing import List

#: Offset mixed into the workload seed so the arrival stream is independent
#: of the transaction stream that :class:`~repro.ledger.workload.TransferWorkload`
#: draws from the same seed.
_SCHEDULE_SALT = 0x5EED_A11


def poisson_schedule(seed: int, rate: float, seconds: float) -> List[float]:
    """Due times (seconds after the shared start) of a Poisson stream.

    A Poisson process at ``rate`` conditioned on its expected count: exactly
    ``round(rate * seconds)`` arrivals, whose times are sorted uniform draws
    on ``[0, seconds)``.  Fixing the count keeps the offered load the same
    for every seed, so seeds differ only in when the arrivals bunch up.
    """
    rng = random.Random(seed ^ _SCHEDULE_SALT)
    return sorted(rng.uniform(0.0, seconds) for _ in range(round(rate * seconds)))


def replica_slice(due: List[float], replica_id: int, n: int) -> List[float]:
    """Due times of the transactions sent to ``replica_id`` (``k mod n``)."""
    return due[replica_id::n]


def accounts_for(transactions: int) -> int:
    """Funded accounts so the workload cannot run out of spendable UTXOs.

    :class:`~repro.ledger.workload.TransferWorkload` funds each account with
    its default ``utxos_per_account`` coins and spends each coin once; two
    spare accounts keep the random payer choice from ever finding the pool
    empty.
    """
    from repro.ledger.workload import TransferWorkload

    per_account = inspect.signature(TransferWorkload).parameters["utxos_per_account"].default
    return max(16, -(-transactions // per_account) + 2)
