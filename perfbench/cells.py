"""Layer cells: each times one layer's public functions in a loop.

Inputs come from the workloads' own generators (``TransferWorkload``,
``conflicting_blocks_workload``) or, for the codec, from frames captured on
the cluster workload, so sizes match real traffic.  Every cell repeats its
measurement and returns the median with min/median/max over repetitions.

Transactions memoise their id and canonical bytes, so each repetition works
on fresh copies decoded from the wire format, as a replica receiving them
would.
"""

from __future__ import annotations

import functools
import gc
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

from host import spread

REPS = 5


def _measure(run: Callable[[], float], reps: int = REPS) -> Tuple[float, Dict[str, Any]]:
    """Median of ``reps`` calls of ``run`` (each returns one figure)."""
    values = []
    for _ in range(reps):
        gc.collect()
        gc.disable()
        try:
            values.append(run())
        finally:
            gc.enable()
    return statistics.median(values), spread(values)


def _fresh(transactions: List[Any]) -> List[Any]:
    from repro.network.codec import decode_value, encode_value

    return [decode_value(encode_value(tx)) for tx in transactions]


def _workload(count: int, seed: int):
    from repro.ledger.workload import TransferWorkload

    workload = TransferWorkload(num_accounts=16, seed=seed)
    return workload, workload.batch(count)


# -- network.codec ----------------------------------------------------------------


def codec_cells(frames: List[bytes]) -> Dict[str, Tuple[float, Dict]]:
    """Encode and decode µs per frame over a captured frame mix."""
    from repro.network.codec import FRAME_HEADER_SIZE, decode_message, frame_message

    payloads = [frame[FRAME_HEADER_SIZE:] for frame in frames]

    def decode() -> float:
        start = time.perf_counter()
        for payload in payloads:
            decode_message(payload)
        return (time.perf_counter() - start) * 1e6 / len(payloads)

    def encode() -> float:
        messages = [decode_message(payload) for payload in payloads]
        start = time.perf_counter()
        for message in messages:
            frame_message(message)
        return (time.perf_counter() - start) * 1e6 / len(messages)

    return {
        "codec.encode_us_per_frame": _measure(encode),
        "codec.decode_us_per_frame": _measure(decode),
    }


# -- crypto.hashing ---------------------------------------------------------------


def hashing_cells(seed: int) -> Dict[str, Tuple[float, Dict]]:
    from repro.crypto.hashing import hash_payload

    _, transactions = _workload(500, seed)

    def one_tx() -> float:
        copies = _fresh(transactions)
        start = time.perf_counter()
        for transaction in copies:
            hash_payload(transaction)
        return (time.perf_counter() - start) * 1e6 / len(copies)

    def batch50() -> float:
        copies = _fresh(transactions)
        batches = [copies[i : i + 50] for i in range(0, len(copies), 50)]
        start = time.perf_counter()
        for batch in batches:
            hash_payload(batch)
        return (time.perf_counter() - start) * 1e6 / len(batches)

    return {
        "hashing.us_per_tx_hash": _measure(one_tx),
        "hashing.us_per_batch50": _measure(batch50),
    }


# -- crypto.signatures ------------------------------------------------------------


def signature_cells() -> Dict[str, Tuple[float, Dict]]:
    from repro.crypto.signatures import (
        EcdsaScheme,
        EcdsaSigner,
        SimulatedScheme,
        SimulatedSigner,
    )

    # A vote as the protocols sign it: context, kind and a value digest.
    payloads = [
        {"context": f"sbc/0/{i}/rbc/{i % 4}", "kind": "READY", "digest": f"{i:064x}"}
        for i in range(400)
    ]
    cells: Dict[str, Tuple[float, Dict]] = {}
    for name, signer, scheme, count in (
        ("simulated", SimulatedSigner(1), SimulatedScheme(), 400),
        ("ecdsa", EcdsaSigner(1), EcdsaScheme(), 4),
    ):
        sample = payloads[:count]
        public = signer.public_material()
        signed = [signer.sign(payload) for payload in sample]

        def sign(signer=signer, sample=sample) -> float:
            start = time.perf_counter()
            for payload in sample:
                signer.sign(payload)
            return (time.perf_counter() - start) * 1e6 / len(sample)

        def verify(scheme=scheme, sample=sample, signed=signed, public=public) -> float:
            start = time.perf_counter()
            for payload, signature in zip(sample, signed):
                if not scheme.verify(payload, signature, public):
                    raise AssertionError(f"{name} signature did not verify")
            return (time.perf_counter() - start) * 1e6 / len(sample)

        cells[f"sig.sign_us.{name}"] = _measure(sign, reps=3)
        cells[f"sig.verify_us.{name}"] = _measure(verify, reps=3)
    return cells


# -- ledger.mempool and ledger ----------------------------------------------------


def mempool_cell(seed: int) -> Dict[str, Tuple[float, Dict]]:
    from repro.ledger.mempool import Mempool

    _, transactions = _workload(500, seed)

    def admit() -> float:
        copies = _fresh(transactions)
        pool = Mempool()
        start = time.perf_counter()
        for transaction in copies:
            pool.add(transaction)
        elapsed = time.perf_counter() - start
        if len(pool) != len(copies):
            raise AssertionError("mempool dropped fresh transactions")
        return elapsed * 1e6 / len(copies)

    return {"mempool.admit_us_per_tx": _measure(admit)}


def ledger_cells(seed: int) -> Dict[str, Tuple[float, Dict]]:
    from repro.ledger.block import Block
    from repro.ledger.merge import BlockchainRecord
    from repro.ledger.workload import conflicting_blocks_workload

    workload, transactions = _workload(500, seed)
    supply = None

    def append() -> float:
        nonlocal supply
        copies = _fresh(transactions)
        record = BlockchainRecord(
            genesis_allocations=workload.genesis_allocations, initial_deposit=10_000
        )
        supply = record.utxos.total_supply()
        start = time.perf_counter()
        committed = 0
        for index in range(0, len(copies), 50):
            block = record.append_block(copies[index : index + 50], assume_verified=True)
            committed += len(block.transactions)
        elapsed = time.perf_counter() - start
        if committed != len(copies) or record.utxos.total_supply() != supply:
            raise AssertionError("append cell lost transactions or coins")
        return elapsed * 1e6 / committed

    count = 500
    branch_a, branch_b, allocations = conflicting_blocks_workload(count, seed=seed)

    def merge() -> float:
        record = BlockchainRecord(
            genesis_allocations=allocations, initial_deposit=200 * count
        )
        record.append_block(branch_a)
        conflicting = Block(
            index=1, parent_hash="other-branch", transactions=tuple(_fresh(branch_b))
        )
        start = time.perf_counter()
        outcome = record.merge_block(conflicting)
        elapsed = time.perf_counter() - start
        if outcome.merged_transactions != count or outcome.refunded_inputs != count:
            raise AssertionError("merge cell did not refund every conflicting input")
        return elapsed * 1e6 / count

    return {
        "ledger.append_us_per_tx": _measure(append),
        "ledger.merge_us_per_tx": _measure(merge, reps=3),
    }


# -- rbc.bracha, consensus.binary, consensus.sbc ----------------------------------


def _committee(n: int, seed: int):
    from repro.common.config import SimulationConfig
    from repro.crypto.keys import KeyRegistry
    from repro.network.simulator import NetworkSimulator
    from repro.smr.replica import BaseReplica

    keys = KeyRegistry.provision(range(n))
    simulator = NetworkSimulator(config=SimulationConfig(seed=seed))
    replicas = []
    for replica_id in range(n):
        replica = BaseReplica(
            replica_id=replica_id,
            committee=list(range(n)),
            signer=keys.signer_for(replica_id),
            registry=keys.registry,
        )
        simulator.add_process(replica)
        replicas.append(replica)
    return simulator, replicas


def _single_context(replica, component, topic) -> None:
    replica.router.register(
        topic, lambda _topic, sender, kind, body: component.handle(sender, kind, body)
    )


def _rbc_instance(n: int, seed: int, batches: List[List[Any]]):
    from repro.network.topic import as_topic
    from repro.rbc.bracha import ReliableBroadcast

    simulator, replicas = _committee(n, seed)
    topic = as_topic("rbc:0:0")
    delivered: Dict[int, Any] = {}
    components = []
    for replica in replicas:
        component = ReliableBroadcast(
            host=replica,
            context=topic,
            proposer=0,
            on_deliver=lambda p, v, c, rid=replica.replica_id: delivered.setdefault(rid, v),
        )
        _single_context(replica, component, topic)
        components.append(component)
    return simulator, lambda: components[0].broadcast(batches[0]), lambda: len(delivered) == n


def _binary_instance(n: int, seed: int, batches: List[List[Any]]):
    from repro.consensus.binary import BinaryConsensus
    from repro.network.topic import as_topic

    simulator, replicas = _committee(n, seed)
    topic = as_topic("bin:0:0")
    decided: Dict[int, Any] = {}
    components = []
    for replica in replicas:
        component = BinaryConsensus(
            host=replica,
            context=topic,
            on_decide=lambda ctx, v, c, rid=replica.replica_id: decided.setdefault(rid, v),
        )
        _single_context(replica, component, topic)
        components.append(component)

    def start() -> None:
        for component in components:
            component.propose(1)

    return simulator, start, lambda: len(decided) == n and set(decided.values()) == {1}


def _sbc_instance(n: int, seed: int, batches: List[List[Any]]):
    from repro.consensus.sbc import SetByzantineConsensus

    simulator, replicas = _committee(n, seed)
    decided: Dict[int, Any] = {}
    components = []
    for replica in replicas:
        component = SetByzantineConsensus(
            host=replica,
            instance=0,
            on_decide=lambda d, rid=replica.replica_id: decided.setdefault(rid, d),
        )
        replica.router.register(component.topic, component.handle)
        components.append(component)

    def start() -> None:
        for component, batch in zip(components, batches):
            component.propose(batch)

    def agreed() -> bool:
        return len(decided) == n and len({d.digest for d in decided.values()}) == 1

    return simulator, start, agreed


def protocol_cells(seed: int) -> Dict[str, Tuple[float, Dict]]:
    """One RBC, one binary and one SBC instance at n=4 and n=16 (host ms)."""
    _, transactions = _workload(16 * 50, seed)
    cells: Dict[str, Tuple[float, Dict]] = {}
    for n in (4, 16):
        batches = [transactions[i * 50 : (i + 1) * 50] for i in range(n)]
        for layer, build in (
            ("rbc", _rbc_instance),
            ("binary", _binary_instance),
            ("sbc", _sbc_instance),
        ):
            messages: List[int] = []

            def run(layer=layer, build=build) -> float:
                simulator, start, ok = build(n, seed, [_fresh(b) for b in batches])
                began = time.perf_counter()
                start()
                simulator.run()
                elapsed = time.perf_counter() - began
                if not ok():
                    raise AssertionError(f"{layer} instance at n={n} did not complete")
                messages.append(simulator.messages_delivered)
                return elapsed * 1e3

            cells[f"{layer}.host_ms.n{n}"] = _measure(run, reps=3)
            cells[f"{layer}.msgs.n{n}"] = (float(messages[-1]), spread(messages))
    return cells


# -- network.simulator ------------------------------------------------------------


def kernel_cell(seed: int) -> Dict[str, Tuple[float, Dict]]:
    """Benign fig3-style run: simulator events processed per host second."""
    from repro.common.config import FaultConfig
    from repro.zlb.system import ZLBSystem

    def run() -> float:
        system = ZLBSystem.create(
            FaultConfig(n=10),
            seed=seed,
            delay="aws",
            workload_transactions=200,
            batch_size=20,
        )
        start = time.perf_counter()
        system.run_instances(2)
        elapsed = time.perf_counter() - start
        return system.simulator.events_processed / elapsed

    return {"kernel.events_per_s": _measure(run, reps=3)}


def shared_cells(seed: int, absent: List[str]) -> Dict[str, Tuple[float, Dict]]:
    """Every cell whose input does not depend on the workload run.

    A cell whose public functions can no longer be imported is skipped and
    named in ``absent``: its metrics then read zero.
    """
    cells: Dict[str, Tuple[float, Dict]] = {}
    for group in (
        functools.partial(hashing_cells, seed),
        signature_cells,
        functools.partial(mempool_cell, seed),
        functools.partial(ledger_cells, seed),
        functools.partial(protocol_cells, seed),
        functools.partial(kernel_cell, seed),
    ):
        try:
            cells.update(group())
        except ImportError as gone:
            absent.append(f"{getattr(group, 'func', group).__name__}: {gone}")
    return cells
