"""Layer tracing from outside: wrap each layer's public functions.

:class:`LayerTrace` replaces the public entry points of the repository's
layers with thin wrappers that record a span (name, start, end, parent) and
per-layer counters, then call through.  Nothing under ``src/`` changes, and
the wrappers do nothing but call through while the trace is inactive.

A span's *self time* is its duration minus the time its traced children
cover.  Nested calls inside one layer (``hash_payload`` calling
``canonical_bytes``) are folded into the outermost call, so a layer's call
count is the number of times the rest of the program entered it.

A wrapped function that no longer exists is recorded in :attr:`absent` and
skipped: its layer then reads zero instead of crashing the run.
"""

from __future__ import annotations

import collections
import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans kept in memory for the written trace; counters cover every call.
MAX_SPANS = 50_000

#: One frame in ``CAPTURE_EVERY`` encoded frames is kept for the codec cell.
CAPTURE_EVERY = 7
MAX_CAPTURED_FRAMES = 2_000

#: (layer, module, owner attribute or None for a module function, function).
TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("codec.encode", "repro.network.asyncio_transport", None, "frame_message"),
    ("codec.decode", "repro.network.asyncio_transport", None, "decode_message"),
    ("hashing", "repro.crypto.hashing", None, "hash_payload"),
    ("hashing", "repro.crypto.hashing", None, "canonical_bytes"),
    ("hashing", "repro.crypto.hashing", None, "sha256_hex"),
    ("sig.sign", "repro.crypto.signatures", "SimulatedSigner", "sign"),
    ("sig.sign", "repro.crypto.signatures", "EcdsaSigner", "sign"),
    ("sig.verify", "repro.crypto.signatures", "SimulatedScheme", "verify_digest"),
    ("sig.verify", "repro.crypto.signatures", "EcdsaScheme", "verify_digest"),
    ("mempool.admit", "repro.zlb.blockchain_manager", "BlockchainManager", "submit_transaction"),
    ("mempool.propose", "repro.zlb.blockchain_manager", "BlockchainManager", "next_proposal"),
    ("ledger.commit", "repro.zlb.blockchain_manager", "BlockchainManager", "commit_decision"),
    ("ledger.merge", "repro.zlb.blockchain_manager", "BlockchainManager", "merge_remote_decision"),
    ("rbc", "repro.rbc.bracha", "ReliableBroadcast", "handle"),
    ("binary", "repro.consensus.binary", "BinaryConsensus", "handle"),
    ("sbc", "repro.consensus.sbc", "SetByzantineConsensus", "handle"),
    ("net.send", "repro.network.asyncio_transport", "AsyncioTransport", "submit"),
    ("net.send", "repro.network.asyncio_transport", "AsyncioTransport", "submit_broadcast"),
)

#: Wire groups (``repro.telemetry.core.protocol_group``) folded into the
#: three protocol layers the benchmark reports bytes for.
NET_GROUPS = {"sbc:rbc": "rbc", "sbc:bin": "binary", "asmr:confirm": "asmr"}


def _net_layer(message: Any) -> str:
    try:
        from repro.telemetry.core import protocol_group

        group = protocol_group(message.topic)
    except (ImportError, AttributeError):  # a renamed helper must not crash the run
        return "other"
    return NET_GROUPS.get(group, "other")


class LayerTrace:
    """In-memory spans and counters for the wrapped layers of one process."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.calls: Dict[str, int] = collections.Counter()
        self.self_s: Dict[str, float] = collections.defaultdict(float)
        self.counts: Dict[str, float] = collections.Counter()
        self.mempool_waits: List[float] = []
        self.frames: List[bytes] = []
        self.absent: List[str] = []
        self._admitted: Dict[str, float] = {}
        self._stack: List[List[Any]] = []  # [span id, layer, child seconds]
        self._next_id = 0
        self._encoded = 0
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- install ---------------------------------------------------------------

    def install(self) -> "LayerTrace":
        """Wrap every target; missing ones are listed in :attr:`absent`."""
        for layer, module_name, owner_name, attr in TARGETS:
            label = f"{module_name}.{owner_name + '.' if owner_name else ''}{attr}"
            try:
                module = importlib.import_module(module_name)
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(label)
                continue
            wrapper = self._wrap(layer, original, self._after_hook(layer, attr))
            self._patch(owner, attr, original, wrapper)
            if owner_name is None:
                # ``from module import name`` copies the function into other
                # modules: rebind those copies too.
                for other in list(sys.modules.values()):
                    name = getattr(other, "__name__", "") or ""
                    if (
                        other is not module
                        and name.startswith("repro.")
                        and getattr(other, attr, None) is original
                    ):
                        self._patch(other, attr, original, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.active = False

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- per-layer hooks -------------------------------------------------------

    def _after_hook(self, layer: str, attr: str) -> Optional[Callable]:
        if layer == "codec.encode":
            return self._on_encode
        if layer == "mempool.admit":
            return self._on_admit
        if layer == "mempool.propose":
            return self._on_propose
        if layer == "net.send":
            return self._on_broadcast if attr == "submit_broadcast" else self._on_submit
        return None

    def _on_encode(self, args: tuple, result: Any) -> None:
        kind = getattr(args[0], "kind", "?")
        self.counts[f"frames.{kind}"] += 1
        self.counts[f"frame_bytes.{kind}"] += len(result)
        self._encoded += 1
        if self._encoded % CAPTURE_EVERY == 0 and len(self.frames) < MAX_CAPTURED_FRAMES:
            self.frames.append(bytes(result))

    def _on_admit(self, args: tuple, result: Any) -> None:
        if result:
            self._admitted.setdefault(args[1].tx_id, time.perf_counter())

    def _on_propose(self, args: tuple, result: Any) -> None:
        now = time.perf_counter()
        for transaction in result or ():
            admitted = self._admitted.pop(transaction.tx_id, None)
            if admitted is not None:
                self.mempool_waits.append(now - admitted)

    def _count_net(self, message: Any, copies: int) -> None:
        layer = _net_layer(message)
        self.counts[f"net.msgs.{layer}"] += copies
        self.counts[f"net.bytes.{layer}"] += message.size_bytes() * copies

    def _on_submit(self, args: tuple, result: Any) -> None:
        self._count_net(args[1], 1)

    def _on_broadcast(self, args: tuple, result: Any) -> None:
        self._count_net(args[1], len(args[2]))

    # -- the wrapper -----------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable, after: Optional[Callable]) -> Callable:
        trace = self
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not trace.active or (stack and stack[-1][1] == layer):
                return fn(*args, **kwargs)
            span_id = trace._next_id
            trace._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, layer, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                trace.calls[layer] += 1
                trace.self_s[layer] += duration - frame[2]
                if len(trace.spans) < MAX_SPANS:
                    trace.spans.append((span_id, layer, start, end, parent))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- results ---------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """JSON-ready counters (the spans are written separately)."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "mempool_waits": list(self.mempool_waits),
            "absent": list(self.absent),
            "spans_recorded": self._next_id,
        }

    def span_rows(self) -> List[Dict[str, Any]]:
        return [
            {"id": span_id, "name": name, "start": start, "end": end, "parent": parent}
            for span_id, name, start, end, parent in self.spans
        ]


def merge_summaries(summaries: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum the counters of several processes' :meth:`LayerTrace.summary`."""
    merged: Dict[str, Any] = {
        "calls": collections.Counter(),
        "self_s": collections.Counter(),
        "counts": collections.Counter(),
        "mempool_waits": [],
        "absent": set(),
    }
    for summary in summaries:
        for key in ("calls", "self_s", "counts"):
            merged[key].update(summary.get(key, {}))
        merged["mempool_waits"].extend(summary.get("mempool_waits", ()))
        merged["absent"].update(summary.get("absent", ()))
    merged["absent"] = sorted(merged["absent"])
    return merged
