"""Round-trip property tests for the wire codec.

Every value a protocol body can carry — primitives, containers with exotic
but legal shapes (int dict keys, tuples inside dicts), and every registered
protocol object — must encode to bytes and decode back to an **equal** value,
and decoded signed content must still verify against the same PKI.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.consensus.certificates import (
    Certificate,
    SignedVote,
    VoteKind,
    make_vote,
    verify_vote,
)
from repro.consensus.host import SimpleHost
from repro.consensus.proofs import ProofOfFraud
from repro.crypto.hashing import hash_payload
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import SignedPayload
from repro.ledger.block import Block, make_genesis_block
from repro.ledger.transaction import TxInput, TxOutput
from repro.ledger.workload import TransferWorkload
from repro.network import codec
from repro.network.codec import (
    FRAME_HEADER_SIZE,
    CodecError,
    DecodeCache,
    decode_message,
    decode_value,
    encode_message,
    encode_value,
    frame_message,
    message_frame_size,
    registered_kinds,
)
from repro.network.message import Message
from repro.network.topic import Topic
from repro.tracing.core import TraceContext


def roundtrip(value):
    return decode_value(encode_value(value))


class _RecordingTransport:
    """Minimal transport double for building a SimpleHost."""

    now = 0.0
    telemetry = None
    tracing = None

    def broadcast(self, *args, **kwargs):
        pass

    def send_to(self, *args, **kwargs):
        pass

    def set_timer(self, delay, callback):
        return 0


def _provisioned_hosts(committee):
    keys = KeyRegistry.provision(committee)
    return keys, {
        replica: SimpleHost(
            replica_id=replica,
            committee=committee,
            signer=keys.signer_for(replica),
            registry=keys.registry,
            transport=_RecordingTransport(),
        )
        for replica in committee
    }


class TestPrimitivesAndContainers:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**80,
            -(2**80),
            0.0,
            -1.5,
            3.141592653589793,
            "",
            "hello",
            "uniçøde ☃",
            b"",
            b"\x00\xff" * 10,
            [],
            [1, 2, 3],
            (),
            (1, "two", 3.0),
            {},
            {"a": 1},
        ],
    )
    def test_scalar_roundtrip(self, value):
        decoded = roundtrip(value)
        assert decoded == value
        assert type(decoded) is type(value)

    def test_int_dict_keys_survive(self):
        # Protocol bodies key proposals and bitmasks by int slot; JSON-style
        # stringification would corrupt them.
        value = {0: "a", 1: [1, 2], -3: {"nested": (1, 2)}}
        decoded = roundtrip(value)
        assert decoded == value
        assert all(type(key) is int for key in decoded)

    def test_tuple_list_distinction_preserved(self):
        value = {"t": (1, 2), "l": [1, 2]}
        decoded = roundtrip(value)
        assert type(decoded["t"]) is tuple
        assert type(decoded["l"]) is list

    def test_bool_not_decoded_as_int(self):
        decoded = roundtrip({"flag": True, "count": 1})
        assert decoded["flag"] is True
        assert type(decoded["count"]) is int

    def test_truncated_buffer_raises(self):
        data = encode_value({"key": "value"})
        with pytest.raises(CodecError):
            decode_value(data[:-3])

    def test_trailing_bytes_raise(self):
        with pytest.raises(CodecError):
            decode_value(encode_value(7) + b"junk")

    def test_unencodable_object_raises(self):
        with pytest.raises(CodecError):
            encode_value(object())


class TestRegisteredObjects:
    def test_all_expected_kinds_registered(self):
        assert registered_kinds() == [
            "block",
            "certificate",
            "proof-of-fraud",
            "signed-payload",
            "signed-vote",
            "transaction",
            "tx-input",
            "tx-output",
        ]

    def test_signed_payload_roundtrip(self):
        keys, hosts = _provisioned_hosts([0, 1])
        signed = hosts[0].sign({"x": 1})
        decoded = roundtrip(signed)
        assert decoded == signed
        assert isinstance(decoded, SignedPayload)
        assert hosts[1].verify({"x": 1}, decoded)

    def test_signed_vote_roundtrip_and_verification(self):
        keys, hosts = _provisioned_hosts([0, 1, 2])
        vote = make_vote(hosts[0], "ctx", 3, VoteKind.AUX, "digest-abc")
        decoded = roundtrip(vote)
        assert decoded == vote
        assert isinstance(decoded, SignedVote)
        assert verify_vote(decoded, hosts[1])

    def test_certificate_roundtrip_and_vote_verification(self):
        keys, hosts = _provisioned_hosts([0, 1, 2])
        votes = tuple(
            make_vote(hosts[r], "ctx", 0, VoteKind.DECIDE, "digest-xyz")
            for r in (0, 1, 2)
        )
        certificate = Certificate(
            context="ctx", round=0, kind=VoteKind.DECIDE,
            value_digest="digest-xyz", votes=votes,
        )
        decoded = roundtrip(certificate)
        assert decoded == certificate
        assert isinstance(decoded, Certificate)
        assert all(verify_vote(vote, hosts[0]) for vote in decoded.votes)

    def test_proof_of_fraud_roundtrip(self):
        keys, hosts = _provisioned_hosts([0, 1, 2])
        first = make_vote(hosts[2], "ctx", 1, VoteKind.AUX, hash_payload(0))
        second = make_vote(hosts[2], "ctx", 1, VoteKind.AUX, hash_payload(1))
        pof = ProofOfFraud(culprit=2, first=first, second=second)
        decoded = roundtrip(pof)
        assert decoded == pof
        assert isinstance(decoded, ProofOfFraud)
        assert decoded.is_well_formed()
        assert verify_vote(decoded.first, hosts[0])
        assert verify_vote(decoded.second, hosts[0])

    def test_transaction_roundtrip_still_valid(self):
        workload = TransferWorkload(num_accounts=4, seed=7)
        transaction = workload.batch(1)[0]
        decoded = roundtrip(transaction)
        assert decoded == transaction
        assert decoded.tx_id == transaction.tx_id
        assert decoded.is_valid()

    def test_tx_input_output_roundtrip(self):
        tx_input = TxInput(utxo_id="u-1", account="alice", amount=7)
        tx_output = TxOutput(account="bob", amount=7)
        assert roundtrip(tx_input) == tx_input
        assert roundtrip(tx_output) == tx_output

    def test_block_roundtrip(self):
        genesis, _ = make_genesis_block([("alice", 100), ("bob", 50)])
        workload = TransferWorkload(num_accounts=4, seed=3)
        block = Block(
            index=1,
            parent_hash=genesis.block_hash,
            transactions=tuple(workload.batch(3)),
            proposers=(0, 2),
            timestamp=1.25,
        )
        decoded = roundtrip(block)
        assert decoded == block
        assert decoded.block_hash == block.block_hash


class TestMessageEnvelopes:
    def test_envelope_roundtrip_preserves_interned_topic(self):
        workload = TransferWorkload(num_accounts=4, seed=1)
        message = Message(
            sender=3,
            recipient=None,
            protocol=Topic.of("sbc", 0, 5, "rbc", 2),
            kind="INIT",
            body={"proposal": workload.batch(2), "instance": 5},
        )
        decoded = decode_message(encode_message(message))
        assert decoded.sender == 3
        assert decoded.recipient is None
        assert decoded.topic is message.topic  # interning survives the wire
        assert decoded.kind == "INIT"
        assert decoded.body == message.body

    def test_frame_is_header_plus_payload(self):
        message = Message(sender=0, recipient=1, protocol="t", kind="K", body={})
        frame = frame_message(message)
        payload = encode_message(message)
        assert frame[FRAME_HEADER_SIZE:] == payload
        assert int.from_bytes(frame[:FRAME_HEADER_SIZE], "big") == len(payload)

    def test_size_bytes_is_exact_frame_length(self):
        # The Message.size_bytes satellite: telemetry byte counters report
        # what the asyncio transport actually writes.
        workload = TransferWorkload(num_accounts=4, seed=2)
        message = Message(
            sender=1,
            recipient=None,
            protocol=Topic.of("sbc", 0, 0, "rbc", 1),
            kind="INIT",
            body={"proposal": workload.batch(2)},
        )
        assert message.size_bytes() == len(frame_message(message))
        assert message.size_bytes() == message_frame_size(message)

    def test_size_bytes_falls_back_for_unencodable_bodies(self):
        class Alien:
            pass

        message = Message(
            sender=0, recipient=1, protocol="t", kind="K", body={"x": Alien()}
        )
        assert message.size_bytes() > 0  # estimate fallback, no raise

    def test_trace_context_rides_the_wire(self):
        # Tentpole: a payment's causal chain must survive process hops, so
        # the envelope optionally carries (trace id, span id).
        message = Message(
            sender=0, recipient=2, protocol="t", kind="K", body={"x": 1}
        )
        message.trace_ctx = TraceContext(41, 17)
        decoded = decode_message(encode_message(message))
        assert decoded.trace_ctx is not None
        assert decoded.trace_ctx.trace_id == 41
        assert decoded.trace_ctx.span_id == 17
        assert decoded.body == message.body

    def test_untraced_frames_stay_byte_identical(self):
        # Backward compat pin: a message without trace context encodes to the
        # exact bytes the pre-trace codec produced (the 5-tuple envelope), so
        # old recorded frames and mixed-version runs interoperate.
        message = Message(
            sender=1, recipient=None, protocol="t", kind="K", body={"n": 7}
        )
        golden = bytes.fromhex("50353b49313b4e53313b7453313b4b44313b53313b6e49373b")
        assert encode_message(message) == golden
        decoded = decode_message(golden)
        assert decoded.trace_ctx is None
        assert decoded.body == {"n": 7}

    def test_include_trace_false_strips_the_tail(self):
        traced = Message(
            sender=1, recipient=None, protocol="t", kind="K", body={"n": 7}
        )
        traced.trace_ctx = TraceContext(5, 9)
        bare = Message(
            sender=1, recipient=None, protocol="t", kind="K", body={"n": 7}
        )
        assert encode_message(traced, include_trace=False) == encode_message(bare)
        assert len(encode_message(traced)) > len(encode_message(bare))

    def test_size_bytes_ignores_trace_context(self):
        # Byte-identity pin: size_bytes feeds the simulator's telemetry byte
        # counters and is memoised, so stamping a context after the fact must
        # not change it — fixed-seed byte counters agree with tracing on/off.
        message = Message(
            sender=1, recipient=None, protocol="t", kind="K", body={"n": 7}
        )
        before = message.size_bytes()
        message.trace_ctx = TraceContext(5, 9)
        assert message.size_bytes() == before
        assert message_frame_size(message) == before

    def test_protocol_shaped_body_roundtrip(self):
        # The CONFIRM/POFS body shapes: int-keyed proposal maps, digests,
        # nested lists — everything the SBC layer actually puts on the wire.
        workload = TransferWorkload(num_accounts=4, seed=5)
        message = Message(
            sender=0,
            recipient=2,
            protocol=Topic.of("sbc", 0, 1, "confirm"),
            kind="CONFIRM",
            body={
                "instance": 1,
                "proposals": {0: [tx.tx_id for tx in workload.batch(2)]},
                "digest": hash_payload({"any": "thing"}),
            },
        )
        decoded = decode_message(encode_message(message))
        assert decoded.body == message.body


# -- object records, the decode cache and hostile frames ---------------------


def _one_of_each_kind():
    """A sample instance of every registered wire kind, keyed by wire name."""
    keys, hosts = _provisioned_hosts([0, 1, 2])
    votes = tuple(
        make_vote(hosts[r], "ctx", 0, VoteKind.DECIDE, "digest-xyz") for r in (0, 1, 2)
    )
    workload = TransferWorkload(num_accounts=4, seed=11)
    transactions = tuple(workload.batch(2))
    genesis, _ = make_genesis_block([("alice", 100)])
    return {
        "signed-payload": hosts[0].sign({"x": 1}),
        "signed-vote": votes[0],
        "certificate": Certificate(
            context="ctx", round=0, kind=VoteKind.DECIDE,
            value_digest="digest-xyz", votes=votes,
        ),
        "proof-of-fraud": ProofOfFraud(
            culprit=2,
            first=make_vote(hosts[2], "ctx", 1, VoteKind.AUX, hash_payload(0)),
            second=make_vote(hosts[2], "ctx", 1, VoteKind.AUX, hash_payload(1)),
        ),
        "tx-input": TxInput(utxo_id="u-1", account="alice", amount=7),
        "tx-output": TxOutput(account="bob", amount=7),
        "transaction": transactions[0],
        "block": Block(
            index=1, parent_hash=genesis.block_hash, transactions=transactions,
            proposers=(0,), timestamp=0.5,
        ),
    }


def _protocol_frames():
    """Encoded envelopes shaped like INIT, ECHO and CONFIRM traffic."""
    samples = _one_of_each_kind()
    proposal = list(TransferWorkload(num_accounts=4, seed=12).batch(3))
    bodies = [
        ("INIT", {"value": proposal, "digest": hash_payload(proposal)}),
        ("ECHO", {"digest": "d" * 64, "vote": samples["signed-vote"].to_payload()}),
        ("CONFIRM", {"instance": 3, "certificates": {0: samples["certificate"]},
                     "pofs": [samples["proof-of-fraud"]], "block": samples["block"]}),
    ]
    return [
        encode_message(
            Message(sender=1, recipient=None, protocol=Topic.of("sbc", 0, 3, "rbc", 1),
                    kind=kind, body=body)
        )
        for kind, body in bodies
    ]


class TestObjectRecords:
    def test_record_declares_name_and_payload_lengths(self):
        record = encode_value(TxOutput(account="bob", amount=7))
        payload = encode_value({"account": "bob", "amount": 7})
        assert record == b"O9;tx-output%d;" % len(payload) + payload

    def test_every_registered_kind_reencodes_to_its_record(self):
        samples = _one_of_each_kind()
        assert sorted(samples) == registered_kinds()
        for kind, value in samples.items():
            record = encode_value(value)
            assert encode_value(decode_value(record)) == record, kind
            # The same holds for the cached object, which re-encodes from
            # the memoised record instead of walking its payload again.
            cached = decode_value(record, DecodeCache())
            assert encode_value(cached) == record, kind
            assert cached == value, kind

    def test_declared_length_mismatch_raises(self):
        payload = encode_value({"account": "bob", "amount": 7})
        short = b"O9;tx-output%d;" % (len(payload) - 1) + payload
        long = b"O9;tx-output%d;" % (len(payload) + 1) + payload + b"N"
        for data in (short, long, b"L1;" + short, b"P1;" + long):
            with pytest.raises(CodecError):
                decode_value(data)

    @pytest.mark.parametrize(
        "data",
        [
            b"O11;transaction3;D0;",  # a transaction body of the wrong shape
            b"O9;tx-output3;L0;",  # a payload that is not a dict
            b"L1;" * 5000 + b"N",  # nesting far past any protocol body
            b"D1;L0;N",  # an unhashable dict key
            b"S-1;",  # a negative length
            b"S2;\xff\xfe",  # bad UTF-8
            b"O3;foo1;N",  # an unknown kind
            b"I99999999999999999999" + b"9" * 5000 + b";",  # an absurd integer
        ],
    )
    def test_hostile_values_raise_codec_error(self, data):
        with pytest.raises(CodecError):
            decode_value(data)

    def test_hostile_envelopes_raise_codec_error(self):
        for fields in [
            ([], None, "t", "K", {}),  # unhashable sender
            (0, None, 7, "K", {}),  # topic is not a string
            (0, None, "t", "K", []),  # body is not a dict
            (0, None, "t:\u00b2", "K", {}),  # a digit int() refuses
            (0, None, "t", "K", {}, (1,)),  # a malformed trace context
        ]:
            with pytest.raises(CodecError):
                decode_message(encode_value(fields))


class TestDecodeCache:
    def test_repeated_record_decodes_to_the_identical_object(self):
        cache = DecodeCache()
        transactions = TransferWorkload(num_accounts=4, seed=4).batch(3)
        frame = encode_value({"value": transactions})
        first = decode_value(frame, cache)["value"]
        second = decode_value(frame, cache)["value"]
        assert first is not second  # containers are fresh per frame
        assert all(a is b for a, b in zip(first, second))
        assert len(cache) == 3
        # Without a cache every decode builds new objects.
        assert decode_value(frame)["value"][0] is not first[0]

    def test_memos_survive_on_the_shared_object(self):
        cache = DecodeCache()
        record = encode_value(TransferWorkload(num_accounts=4, seed=6).batch(1)[0])
        first = decode_value(record, cache)
        tx_id = first.tx_id
        assert first.is_valid_cached()
        again = decode_value(record, cache)
        assert again is first and again._tx_id == tx_id
        assert again._valid_cache is not None

    def test_records_differing_by_one_byte_never_share_an_object(self):
        cache = DecodeCache()
        record = encode_value(TransferWorkload(num_accounts=4, seed=8).batch(1)[0])
        original = decode_value(record, cache)
        shared = 0
        for index in range(len(record)):
            mutated = bytearray(record)
            mutated[index] = (mutated[index] + 1) % 256
            try:
                value = decode_value(bytes(mutated), cache)
            except CodecError:
                continue
            shared += value is original
        assert shared == 0
        assert decode_value(record, cache) is original

    def test_cache_stays_within_its_bounds(self, monkeypatch):
        monkeypatch.setattr(codec, "DECODE_CACHE_ENTRIES", 8)
        monkeypatch.setattr(codec, "DECODE_CACHE_BYTES", 4096)
        records_before = len(codec._RECORDS)
        cache = DecodeCache()
        for index in range(200):
            account = "a" * (index % 7) * 100
            record = encode_value(TxOutput(account=account, amount=index + 1))
            decode_value(record, cache)
            assert len(cache) <= 8
            assert cache.size <= 4096
            assert cache.size == sum(len(key) for key in cache._objects)
        # Evicted objects leave the encode memo with their cache entry.
        assert len(codec._RECORDS) - records_before <= 8
        cache.clear()
        assert len(cache) == 0 and cache.size == 0
        assert len(codec._RECORDS) == records_before

    def test_record_larger_than_the_cache_is_not_cached(self, monkeypatch):
        monkeypatch.setattr(codec, "DECODE_CACHE_BYTES", 64)
        cache = DecodeCache()
        record = encode_value(TxOutput(account="x" * 100, amount=1))
        assert decode_value(record, cache) is not decode_value(record, cache)
        assert len(cache) == 0

    def test_nested_records_are_decoded_with_their_parent(self):
        cache = DecodeCache()
        transaction = TransferWorkload(num_accounts=4, seed=9).batch(1)[0]
        decode_value(encode_value(transaction), cache)
        assert len(cache) == 1  # the inputs/outputs inside are not cached apart


class TestHostileFrames:
    @settings(max_examples=300, deadline=None)
    @given(
        frame_index=st.integers(min_value=0, max_value=2),
        edits=st.lists(
            st.tuples(
                st.sampled_from(["flip", "insert", "delete", "truncate"]),
                st.integers(min_value=0, max_value=1 << 20),
                st.integers(min_value=0, max_value=255),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_mutated_frames_raise_only_codec_error(self, frame_index, edits):
        data = bytearray(_FRAMES[frame_index])
        for op, where, byte in edits:
            where %= len(data) + 1
            if op == "flip" and where < len(data):
                data[where] = byte
            elif op == "insert":
                data.insert(where, byte)
            elif op == "delete" and where < len(data):
                del data[where]
            elif op == "truncate":
                del data[where:]
        try:
            message = decode_message(bytes(data), _FUZZ_CACHE)
        except CodecError:
            return
        assert isinstance(message, Message)


_FRAMES = _protocol_frames()
_FUZZ_CACHE = DecodeCache()
