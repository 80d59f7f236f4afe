"""The wire codec: canonical, decodable encoding of message envelopes.

The discrete-event simulator ships Python objects *by reference*; a real
socket cannot.  This module gives every :class:`~repro.network.message.Message`
a canonical byte encoding that round-trips: primitives, containers (with dict
key types and tuple/list distinctions preserved — protocol bodies key
bitmasks and proposals by ``int`` slot) and the protocol objects that ride
inside bodies — signed payloads, signed votes, certificates, proofs of fraud,
transactions and blocks.  Decoded copies are *equal* to the originals and
still pass signature verification, because signed content is rebuilt from the
exact wire payloads the accountability layer already defines
(``to_payload`` / ``from_payload``).

Format: a self-describing tag-length-value encoding.  Each value starts with
a one-byte tag; variable-length values carry an ASCII decimal length followed
by ``;``::

    N                 None          T / F          booleans
    I<decimal>;       int           R<8 bytes>     float (IEEE-754 big-endian)
    S<len>;<utf8>     str           B<len>;<raw>   bytes
    L<count>;<v>*     list          P<count>;<v>*  tuple
    D<count>;(<k><v>)*  dict (insertion order, any encodable key)
    O<name-len>;<name><payload-len>;<payload>
                      registered object: ASCII wire name, then its encoded
                      payload, both length-prefixed

An object record declares its own byte span, so a decoder finds the end of a
record without walking it; a payload whose decoded span disagrees with its
declared length is corrupt.  Decoding is total over hostile input: any
malformed buffer — truncated, wrongly shaped for its kind, or nested deeper
than :data:`MAX_DEPTH` — raises :class:`CodecError` and nothing else.

Deterministic by construction: the same value always encodes to the same
bytes within a process (dicts keep insertion order — protocol bodies are
built deterministically), so content digests of encoded frames are stable.

Decode once: a :class:`DecodeCache` (one per asyncio transport) maps the exact
bytes of each top-level object record to the object it decoded to, so a
transaction that arrives in ten frames (INIT, ECHOs, READYs, CONFIRMs) is
decoded once and every frame carries the *same* object — its memoised id,
canonical bytes and validity survive, as they do under the simulator's
by-reference delivery.  The key is the whole record, so a peer cannot make
a record decode to anything but what its own bytes say.  Encode once: an
object that came out of a cache re-encodes as the record it was decoded from.

Framing for stream transports: :func:`frame_message` prefixes the encoded
envelope with a 4-byte big-endian length; :data:`FRAME_HEADER_SIZE` is what a
reader must consume first.  The bare envelope is encoded once per message and
memoised on it, so :meth:`Message.size_bytes` (exactly ``len(frame_message
(message))`` of the *bare* envelope) and the frames a broadcast writes share
one encode.  Byte counters in telemetry mean the same thing under the
simulator and the asyncio backend, with tracing enabled or not.

Trace propagation: a message whose ``trace_ctx`` is set encodes as a 6-tuple
whose last element is the ``(trace_id, span_id)`` pair, so causality survives
the socket and a delivery on the far side opens its child span under the
sender's context.  A message without a context encodes as the original
5-tuple — byte-identical to the pre-trace wire format — and decoders accept
both shapes, so old frames (and peers that never stamp contexts) interoperate
unchanged.
"""

from __future__ import annotations

import collections
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.network.message import Message
from repro.network.topic import Topic

#: Bytes of the length prefix a stream reader consumes before each frame.
FRAME_HEADER_SIZE = 4

#: Upper bound on a single frame (sanity check against corrupt prefixes).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Deepest container/object nesting a decoder accepts.  Protocol bodies nest
#: about ten levels; the bound keeps a hostile frame far from the
#: interpreter's recursion limit.
MAX_DEPTH = 64

#: Bounds of one :class:`DecodeCache`: records kept, and their total bytes.
DECODE_CACHE_ENTRIES = 4096
DECODE_CACHE_BYTES = 8 * 1024 * 1024


class CodecError(ValueError):
    """Raised when a value cannot be encoded or a buffer cannot be decoded."""


# -- object registry ---------------------------------------------------------

#: type -> (record head ``O<name-len>;<name>``, to-encodable converter).
_TO_WIRE: Dict[Type[Any], Tuple[bytes, Callable[[Any], Any]]] = {}
#: ASCII wire name -> from-encodable constructor.
_FROM_WIRE: Dict[bytes, Callable[[Any], Any]] = {}


def register_object(
    name: str,
    cls: Type[Any],
    encode: Callable[[Any], Any],
    decode: Callable[[Any], Any],
) -> None:
    """Register a wire-encodable object type.

    ``encode`` maps an instance to an encodable value (typically a payload
    dict); ``decode`` inverts it.  Registration is idempotent per name.
    """
    raw = name.encode("ascii")
    _TO_WIRE[cls] = (b"O%d;%s" % (len(raw), raw), encode)
    _FROM_WIRE[raw] = decode


def registered_kinds() -> List[str]:
    """Wire names of every registered object type (for tests/introspection)."""
    return sorted(name.decode("ascii") for name in _FROM_WIRE)


# -- decode cache and encode memo --------------------------------------------

#: Identity-keyed memo: object -> the record it was decoded from, for every
#: object held by a :class:`DecodeCache`.  Entries pin the object, which keeps
#: its ``id()`` unique while the entry lives.  A cache drops its entries when
#: it evicts or clears; clear-on-cap bounds caches nobody cleared.
_RECORDS: Dict[int, Tuple[Any, bytes]] = {}
_RECORDS_MAX = 4 * DECODE_CACHE_ENTRIES


def _forget(value: Any) -> None:
    hit = _RECORDS.get(id(value))
    if hit is not None and hit[0] is value:
        del _RECORDS[id(value)]


class DecodeCache:
    """Bounded, content-addressed cache of decoded object records.

    Keys are the exact bytes of a top-level ``O`` record, so a hit returns
    the very object an identical record decoded to before, and records that
    differ in any byte never share an object.  Oldest records are evicted
    first once either bound — :data:`DECODE_CACHE_ENTRIES` records or
    :data:`DECODE_CACHE_BYTES` bytes of records — would be exceeded.
    """

    __slots__ = ("size", "_objects")

    def __init__(self) -> None:
        #: Total bytes of the cached records.
        self.size = 0
        self._objects: "collections.OrderedDict[bytes, Any]" = collections.OrderedDict()

    def __len__(self) -> int:
        return len(self._objects)

    def clear(self) -> None:
        for value in self._objects.values():
            _forget(value)
        self._objects.clear()
        self.size = 0

    def get(self, record: bytes) -> Any:
        return self._objects.get(record, _MISSING)

    def put(self, record: bytes, value: Any) -> None:
        size = len(record)
        if size > DECODE_CACHE_BYTES:
            return
        objects = self._objects
        while objects and (
            len(objects) >= DECODE_CACHE_ENTRIES
            or self.size + size > DECODE_CACHE_BYTES
        ):
            evicted, old = objects.popitem(last=False)
            self.size -= len(evicted)
            _forget(old)
        objects[record] = value
        self.size += size
        if len(_RECORDS) >= _RECORDS_MAX:
            _RECORDS.clear()
        _RECORDS[id(value)] = (value, record)


_MISSING = object()


# -- encoding ----------------------------------------------------------------


def _encode_object(
    value: Any, head: bytes, encode: Callable[[Any], Any], out: List[bytes]
) -> None:
    hit = _RECORDS.get(id(value))
    if hit is not None and hit[0] is value:
        out.append(hit[1])
        return
    inner: List[bytes] = []
    _encode_into(encode(value), inner)
    payload = b"".join(inner)
    out.append(head)
    out.append(b"%d;" % len(payload))
    out.append(payload)


def _encode_into(value: Any, out: List[bytes]) -> None:
    if value is None:
        out.append(b"N")
        return
    kind = type(value)
    if kind is str:
        raw = value.encode("utf-8")
        out.append(b"S%d;" % len(raw))
        out.append(raw)
        return
    if kind is int:
        out.append(b"I%d;" % value)
        return
    if kind is dict:
        out.append(b"D%d;" % len(value))
        for key, item in value.items():
            _encode_into(key, out)
            _encode_into(item, out)
        return
    if kind is list:
        out.append(b"L%d;" % len(value))
        for item in value:
            _encode_into(item, out)
        return
    if kind is bool:
        out.append(b"T" if value else b"F")
        return
    if kind is bytes:
        out.append(b"B%d;" % len(value))
        out.append(value)
        return
    if kind is tuple:
        out.append(b"P%d;" % len(value))
        for item in value:
            _encode_into(item, out)
        return
    if kind is float:
        out.append(b"R" + struct.pack(">d", value))
        return
    registered = _TO_WIRE.get(kind)
    if registered is not None:
        _encode_object(value, registered[0], registered[1], out)
        return
    # Subclasses of registered types (rare) fall back to an isinstance scan.
    for base, (head, encode) in _TO_WIRE.items():
        if isinstance(value, base):
            _encode_object(value, head, encode, out)
            return
    raise CodecError(f"cannot encode value of type {kind.__name__}: {value!r}")


def encode_value(value: Any) -> bytes:
    """Encode any supported value to its canonical wire bytes."""
    out: List[bytes] = []
    _encode_into(value, out)
    return b"".join(out)


# -- decoding ----------------------------------------------------------------

_TAG_N, _TAG_T, _TAG_F, _TAG_I, _TAG_R, _TAG_S = b"NTFIRS"
_TAG_B, _TAG_L, _TAG_P, _TAG_D, _TAG_O = b"BLPDO"


def _read_length(data: bytes, pos: int) -> Tuple[int, int]:
    end = data.index(b";", pos)
    length = int(data[pos:end])
    if length < 0:
        raise CodecError(f"negative length at offset {pos}")
    return length, end + 1


def _decode_at(
    data: bytes, pos: int, depth: int, cache: Optional[DecodeCache]
) -> Tuple[Any, int]:
    tag = data[pos]
    pos += 1
    # A string or bytes value that overruns the buffer is caught by the
    # enclosing record's span check or decode_value's final length check.
    if tag == _TAG_S:
        length, pos = _read_length(data, pos)
        end = pos + length
        return data[pos:end].decode("utf-8"), end
    if tag == _TAG_I:
        end = data.index(b";", pos)
        return int(data[pos:end]), end + 1
    if tag == _TAG_N:
        return None, pos
    if depth >= MAX_DEPTH and tag in b"LPDO":
        raise CodecError(f"wire value nested deeper than {MAX_DEPTH}")
    if tag == _TAG_D:
        count, pos = _read_length(data, pos)
        mapping: Dict[Any, Any] = {}
        depth += 1
        for _ in range(count):
            key, pos = _decode_at(data, pos, depth, cache)
            mapping[key], pos = _decode_at(data, pos, depth, cache)
        return mapping, pos
    if tag == _TAG_L or tag == _TAG_P:
        count, pos = _read_length(data, pos)
        items = []
        depth += 1
        for _ in range(count):
            item, pos = _decode_at(data, pos, depth, cache)
            items.append(item)
        return (items if tag == _TAG_L else tuple(items)), pos
    if tag == _TAG_O:
        start = pos - 1
        length, pos = _read_length(data, pos)
        name = data[pos : pos + length]
        decode = _FROM_WIRE.get(name)
        if decode is None:
            raise CodecError(f"unknown wire object kind {name!r}")
        length, pos = _read_length(data, pos + length)
        end = pos + length
        if end > len(data):
            raise CodecError(f"{name!r} record overruns its buffer")
        if cache is not None:
            record = data[start:end]
            value = cache.get(record)
            if value is not _MISSING:
                return value, end
        # Records nested in a record are decoded with it, not cached apart.
        payload, stop = _decode_at(data, pos, depth + 1, None)
        if stop != end:
            raise CodecError(
                f"{name!r} record declares {length} payload bytes, holds {stop - pos}"
            )
        value = decode(payload)
        if cache is not None:
            cache.put(record, value)
        return value, end
    if tag == _TAG_B:
        length, pos = _read_length(data, pos)
        end = pos + length
        return data[pos:end], end
    if tag == _TAG_T:
        return True, pos
    if tag == _TAG_F:
        return False, pos
    if tag == _TAG_R:
        return struct.unpack_from(">d", data, pos)[0], pos + 8
    raise CodecError(f"unknown wire tag {tag!r} at offset {pos - 1}")


def decode_value(data: bytes, cache: Optional[DecodeCache] = None) -> Any:
    """Decode bytes produced by :func:`encode_value`.

    With a ``cache``, top-level object records found in the cache decode to
    the cached object, and new ones are added to it.  Any malformed input
    raises :class:`CodecError`.
    """
    try:
        value, pos = _decode_at(data, 0, 0, cache)
    except CodecError:
        raise
    except Exception as exc:  # noqa: BLE001 - hostile input boundary
        # Registered constructors fail on wrong-shaped payloads in many ways
        # (KeyError, TypeError, AttributeError, ...); callers handle only
        # CodecError, and any other exception would end a peer's reader.
        raise CodecError(f"corrupt wire value: {exc!r}") from exc
    if pos != len(data):
        raise CodecError(f"wire value spans {pos} bytes of a {len(data)}-byte buffer")
    return value


# -- message envelopes -------------------------------------------------------


def _bare_envelope(message: Message) -> bytes:
    """The untraced 5-tuple envelope, encoded once and memoised on the message."""
    wire = message._wire
    if wire is None:
        wire = encode_value(
            (
                message.sender,
                message.recipient,
                message.topic.canonical,
                message.kind,
                message.body,
            )
        )
        message._wire = wire
    return wire


def encode_message(message: Message, include_trace: bool = True) -> bytes:
    """Encode a full envelope (sender, recipient, topic, kind, body[, trace]).

    A set ``trace_ctx`` rides as a sixth ``(trace_id, span_id)`` element when
    ``include_trace`` is true; without a context the envelope is the original
    5-tuple, byte for byte.  The 5-tuple is memoised on the message (bodies
    are immutable once sent); the traced form re-heads it as a 6-tuple.
    """
    wire = _bare_envelope(message)
    ctx = message.trace_ctx if include_trace else None
    if ctx is None:
        return wire
    return b"P6;" + wire[3:] + encode_value((ctx.trace_id, ctx.span_id))


def decode_message(data: bytes, cache: Optional[DecodeCache] = None) -> Message:
    """Rebuild a :class:`Message` from :func:`encode_message` bytes.

    The decoded envelope gets a fresh local ``uid`` (uids are process-local
    tie-breakers, not wire identity).  Both envelope shapes decode: the bare
    5-tuple and the traced 6-tuple, whose ``(trace_id, span_id)`` tail is
    restored as the message's ``trace_ctx``.  ``cache`` is passed to
    :func:`decode_value`.  An envelope of the wrong shape raises
    :class:`CodecError`.
    """
    fields = decode_value(data, cache)
    if type(fields) is not tuple or len(fields) not in (5, 6):
        raise CodecError("wire envelope is not a 5- or 6-tuple")
    sender, recipient, topic_text, kind, body = fields[:5]
    if (
        type(sender) is not int
        or (recipient is not None and type(recipient) is not int)
        or type(topic_text) is not str
        or type(kind) is not str
        or type(body) is not dict
    ):
        raise CodecError("wire envelope fields have the wrong types")
    try:
        topic = Topic.parse(topic_text)
    except ValueError as exc:
        raise CodecError(f"bad wire topic {topic_text!r}") from exc
    message = Message(
        sender=sender, recipient=recipient, protocol=topic, kind=kind, body=body
    )
    if len(fields) == 6 and fields[5] is not None:
        wire_ctx = fields[5]
        if type(wire_ctx) is not tuple or len(wire_ctx) != 2:
            raise CodecError("wire trace context is not a (trace, span) pair")
        from repro.tracing.core import TraceContext

        message.trace_ctx = TraceContext(wire_ctx[0], wire_ctx[1])
    return message


def frame_message(message: Message) -> bytes:
    """Length-prefixed frame of the envelope (what stream transports write)."""
    payload = encode_message(message)
    if len(payload) > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES")
    return struct.pack(">I", len(payload)) + payload


def message_frame_size(message: Message) -> int:
    """Frame length of the bare envelope (header plus encoded 5-tuple).

    Deliberately excludes the optional trace-context tail: ``size_bytes`` is
    memoised and feeds telemetry byte counters, which must report the same
    number whether or not tracing happens to have stamped the message —
    fixed-seed byte-identity with tracing on/off depends on it.  The traced
    frame a socket actually writes is a handful of bytes longer.
    """
    return FRAME_HEADER_SIZE + len(_bare_envelope(message))


# -- standard registrations --------------------------------------------------
#
# Signed content is rebuilt from the accountability layer's own wire payloads
# so decoded copies verify against the same PKI; ledger objects rebuild their
# construction-time fields (memo caches re-derive lazily per process).


def _register_standard_objects() -> None:
    from repro.consensus.certificates import (
        Certificate,
        SignedVote,
        certificate_from_payload,
        vote_from_payload,
    )
    from repro.consensus.proofs import ProofOfFraud
    from repro.crypto.signatures import SignedPayload
    from repro.ledger.block import Block
    from repro.ledger.transaction import Transaction, TxInput, TxOutput

    register_object(
        "signed-payload",
        SignedPayload,
        lambda signed: signed.to_payload(),
        lambda payload: SignedPayload(
            signer=payload["signer"],
            payload_hash=payload["payload_hash"],
            signature=payload["signature"],
            scheme=payload["scheme"],
        ),
    )
    register_object(
        "signed-vote",
        SignedVote,
        lambda vote: vote.to_payload(),
        vote_from_payload,
    )
    register_object(
        "certificate",
        Certificate,
        lambda certificate: certificate.to_payload(),
        certificate_from_payload,
    )
    register_object(
        "proof-of-fraud",
        ProofOfFraud,
        lambda pof: pof.to_payload(),
        ProofOfFraud.from_payload,
    )
    register_object(
        "tx-input",
        TxInput,
        lambda tx_input: tx_input.to_payload(),
        lambda payload: TxInput(
            utxo_id=payload["utxo_id"],
            account=payload["account"],
            amount=payload["amount"],
        ),
    )
    register_object(
        "tx-output",
        TxOutput,
        lambda tx_output: tx_output.to_payload(),
        lambda payload: TxOutput(
            account=payload["account"], amount=payload["amount"]
        ),
    )
    register_object(
        "transaction",
        Transaction,
        lambda tx: {
            "inputs": list(tx.inputs),
            "outputs": list(tx.outputs),
            "nonce": tx.nonce,
            "signatures": dict(tx.signatures),
            "public_materials": dict(tx.public_materials),
            "signer_names": dict(tx.signer_names),
        },
        lambda payload: Transaction(
            inputs=tuple(payload["inputs"]),
            outputs=tuple(payload["outputs"]),
            nonce=payload["nonce"],
            signatures=dict(payload["signatures"]),
            public_materials=dict(payload["public_materials"]),
            signer_names=dict(payload["signer_names"]),
        ),
    )
    register_object(
        "block",
        Block,
        lambda block: {
            "index": block.index,
            "parent_hash": block.parent_hash,
            "transactions": list(block.transactions),
            "proposers": list(block.proposers),
            "timestamp": block.timestamp,
        },
        lambda payload: Block(
            index=payload["index"],
            parent_hash=payload["parent_hash"],
            transactions=tuple(payload["transactions"]),
            proposers=tuple(payload["proposers"]),
            timestamp=payload["timestamp"],
        ),
    )


_register_standard_objects()
