"""Property tests for the repro.wire framing and codec layer.

Every registered frame kind must round-trip through ``encode`` /
``decode_one`` under hypothesis-generated field values, and every
malformed buffer (truncation, corruption, trailing garbage) must raise
:class:`WireFormatError` rather than crash or silently mis-decode.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# Importing these modules populates the wire-kind registry.
from repro.orb.cdr import encode_value
from repro.orb.transport import (
    AckSegment,
    DataSegment,
    FinSegment,
    SynAckSegment,
    SynSegment,
)
from repro.state.transfer import StateChunk, StateImage
from repro.totem.messages import (
    CommitToken,
    DataMessage,
    EagerData,
    JoinMessage,
    MemberInfo,
    OrderStub,
    RecoveryDone,
    RecoveryRequest,
    RingBeacon,
    RingId,
    Token,
)
from repro.totem import messages as totem_messages
from repro.wire.codec import (
    decode_one,
    decode_payload,
    encode,
    encode_body,
    kind_of,
    registered_kinds,
)
from repro.wire.framing import (
    HEADER_BYTES,
    KIND_BATCH,
    MAX_RING,
    WireFormatError,
    encode_batch,
    encode_frame,
    peek_ring,
)

# ----------------------------------------------------------------------
# Field strategies
# ----------------------------------------------------------------------

ulong = st.integers(min_value=0, max_value=2**32 - 1)
node_id = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-",
                  min_size=1, max_size=12)

# A subset of the CDR value universe rich enough to exercise nesting.
scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**62, max_value=2**62),
    st.text(max_size=20),
    st.binary(max_size=40),
)
value = st.recursive(
    scalar,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)

ring_id = st.builds(
    RingId,
    seq=ulong,
    members=st.lists(node_id, min_size=1, max_size=5, unique=True),
)
ring_key = ring_id.map(lambda ring: ring.key())

member_info = st.builds(
    MemberInfo,
    member=node_id,
    old_ring_key=ring_key,
    aru=ulong,
    high_seq=ulong,
    have=st.lists(ulong, max_size=6, unique=True).map(tuple),
)


def _strategies():
    """One instance strategy per registered wire kind."""
    return {
        DataMessage: st.builds(
            DataMessage,
            ring=ring_id,
            seq=ulong,
            sender=node_id,
            payload=value,
            size=st.integers(min_value=0, max_value=256),
            guarantee=st.sampled_from(["agreed", "safe"]),
            retransmit=st.booleans(),
            span=st.one_of(st.none(), st.text(max_size=24)),
        ),
        Token: st.builds(
            Token,
            ring=ring_id,
            token_id=ulong,
            seq=ulong,
            rtr=st.sets(ulong, max_size=6),
            rotation_min=ulong,
            safe_seq=ulong,
        ),
        EagerData: st.builds(
            EagerData,
            ring=ring_id,
            sender=node_id,
            eager_id=ulong,
            payload=value,
            size=st.integers(min_value=0, max_value=256),
            guarantee=st.sampled_from(["agreed", "safe"]),
            span=st.one_of(st.none(), st.text(max_size=24)),
        ),
        OrderStub: st.builds(
            OrderStub,
            ring=ring_id,
            entries=st.lists(
                st.tuples(ulong, node_id, ulong), max_size=6
            ),
        ),
        RingBeacon: st.builds(RingBeacon, ring=ring_id, sender=node_id),
        JoinMessage: st.builds(
            JoinMessage,
            sender=node_id,
            proc_set=st.frozensets(node_id, max_size=5),
            fail_set=st.frozensets(node_id, max_size=5),
            max_ring_seq=ulong,
        ),
        CommitToken: st.builds(
            CommitToken,
            ring=ring_id,
            infos=st.lists(member_info, max_size=4).map(
                lambda infos: {info.member: info for info in infos}
            ),
            complete=st.booleans(),
            hop=ulong,
        ),
        RecoveryRequest: st.builds(
            RecoveryRequest,
            ring_key=ring_key,
            seqs=st.lists(ulong, max_size=6, unique=True),
            sender=node_id,
        ),
        RecoveryDone: st.builds(
            RecoveryDone, new_ring_key=ring_key, sender=node_id,
        ),
        SynSegment: st.builds(SynSegment, conn_id=node_id, port=ulong),
        SynAckSegment: st.builds(
            SynAckSegment, conn_id=node_id, peer_conn_id=node_id,
        ),
        DataSegment: st.builds(
            DataSegment,
            dest_conn_id=node_id,
            src_conn_id=node_id,
            seq=ulong,
            payload=st.binary(max_size=100),
        ),
        AckSegment: st.builds(AckSegment, dest_conn_id=node_id, seq=ulong),
        FinSegment: st.builds(
            FinSegment, dest_conn_id=st.one_of(st.none(), node_id),
        ),
        StateChunk: st.builds(
            StateChunk,
            index=ulong,
            total=ulong,
            data=st.binary(max_size=100),
        ),
        StateImage: st.builds(
            StateImage,
            kind=st.sampled_from(["pre", "post"]),
            key=st.text(max_size=12),
            value=value,
            position=ulong,
        ),
    }


STRATEGIES = _strategies()


def _norm(field):
    if isinstance(field, (bytes, bytearray, memoryview)):
        return bytes(field)
    return field


def assert_equal_fields(decoded, original):
    assert type(decoded) is type(original)
    for slot in type(original).__slots__:
        assert _norm(getattr(decoded, slot)) == _norm(getattr(original, slot)), slot


any_message = st.one_of(list(STRATEGIES.values()))


# ----------------------------------------------------------------------
# Coverage: the strategy table must track the registry
# ----------------------------------------------------------------------

def test_every_registered_kind_has_a_strategy():
    registered = {cls for _, cls in registered_kinds().values()}
    assert registered == set(STRATEGIES), (
        "wire kinds without a round-trip strategy: %s"
        % sorted(cls.__name__ for cls in registered ^ set(STRATEGIES))
    )


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "cls", sorted(STRATEGIES, key=lambda c: c.__name__),
    ids=lambda c: c.__name__,
)
def test_kind_roundtrip(cls):
    strategy = STRATEGIES[cls]

    @given(strategy)
    @settings(max_examples=60, deadline=None)
    def check(message):
        assert_equal_fields(decode_one(encode(message)), message)

    check()


@given(st.lists(any_message, min_size=2, max_size=5))
@settings(max_examples=40, deadline=None)
def test_batch_roundtrip(messages):
    data = encode_batch([encode(m) for m in messages])
    decoded = decode_payload(data)
    assert len(decoded) == len(messages)
    for out, original in zip(decoded, messages):
        assert_equal_fields(out, original)


@given(st.lists(any_message, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_concatenated_frames_roundtrip(messages):
    data = b"".join(encode(m) for m in messages)
    decoded = decode_payload(data)
    assert len(decoded) == len(messages)
    for out, original in zip(decoded, messages):
        assert_equal_fields(out, original)


# ----------------------------------------------------------------------
# Malformed input: always WireFormatError, never a crash
# ----------------------------------------------------------------------

@given(any_message, st.data())
@settings(max_examples=80, deadline=None)
def test_truncated_frame_raises(message, data):
    encoded = encode(message)
    cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    with pytest.raises(WireFormatError):
        decode_payload(encoded[:cut])


@given(any_message, st.data())
@settings(max_examples=120, deadline=None)
def test_corrupted_frame_never_crashes(message, data):
    encoded = bytearray(encode(message))
    position = data.draw(
        st.integers(min_value=0, max_value=len(encoded) - 1))
    flip = data.draw(st.integers(min_value=1, max_value=255))
    encoded[position] ^= flip
    try:
        decode_payload(bytes(encoded))
    except WireFormatError:
        pass  # the expected rejection path


@given(st.binary(max_size=200))
@settings(max_examples=200, deadline=None)
def test_arbitrary_bytes_never_crash(data):
    try:
        decode_payload(data)
    except WireFormatError:
        pass


def test_trailing_garbage_rejected():
    frame = encode(SynSegment("c1", 7))
    with pytest.raises(WireFormatError):
        decode_payload(frame + b"\x00")


def test_nested_batch_rejected():
    inner = encode_batch([encode(AckSegment("c1", 3))])
    with pytest.raises(WireFormatError):
        decode_payload(encode_frame(KIND_BATCH, inner))


def test_unknown_kind_rejected():
    with pytest.raises(WireFormatError):
        decode_payload(encode_frame(0x7F, b""))


def test_bad_magic_and_version_rejected():
    frame = bytearray(encode(AckSegment("c1", 3)))
    bad_magic = bytes(frame)
    with pytest.raises(WireFormatError):
        decode_payload(b"XX" + bad_magic[2:])
    with pytest.raises(WireFormatError):
        decode_payload(bad_magic[:2] + b"\x63" + bad_magic[3:])


def test_empty_payload_rejected():
    with pytest.raises(WireFormatError):
        decode_payload(b"")


def test_header_size_constant():
    frame = encode(AckSegment("c", 0))
    assert frame[:2] == b"RW"
    assert len(frame) >= HEADER_BYTES


# ----------------------------------------------------------------------
# Ring id (version 2 header field)
# ----------------------------------------------------------------------

@given(any_message, st.integers(min_value=0, max_value=MAX_RING))
@settings(max_examples=60, deadline=None)
def test_ring_id_rides_the_header(message, ring):
    frame = encode(message, ring=ring)
    assert peek_ring(frame) == ring
    assert_equal_fields(decode_one(frame), message)


def test_default_ring_is_zero():
    assert peek_ring(encode(AckSegment("c1", 3))) == 0


def test_batch_carries_ring_id():
    frames = [encode(AckSegment("c1", n), ring=9) for n in range(3)]
    data = encode_batch(frames, ring=9)
    assert peek_ring(data) == 9
    assert len(decode_payload(data)) == 3


def test_ring_out_of_range_rejected():
    with pytest.raises(WireFormatError):
        encode_frame(KIND_BATCH, b"", ring=MAX_RING + 1)
    with pytest.raises(WireFormatError):
        encode_frame(KIND_BATCH, b"", ring=-1)


def test_peek_ring_rejects_malformed_header():
    frame = encode(AckSegment("c1", 3), ring=4)
    with pytest.raises(WireFormatError):
        peek_ring(frame[: HEADER_BYTES - 1])
    with pytest.raises(WireFormatError):
        peek_ring(b"XX" + frame[2:])


# ----------------------------------------------------------------------
# Ring section and token codec: frozen byte layout, interning
# ----------------------------------------------------------------------
#
# The ring section is encoded once per RingId and the token is packed
# with struct, but the bytes are the original CDR layout.  The reference
# encoders below spell that layout out field by field and must never
# change: a difference here changes every simulated frame size.

_U32 = struct.Struct(">I")
_GUARANTEE_OCTET = {"agreed": 0, "safe": 1}


def _ref_string(text):
    raw = text.encode("utf-8")
    return _U32.pack(len(raw)) + raw


def ref_ring_section(ring):
    return (_U32.pack(ring.seq) + _U32.pack(len(ring.members))
            + b"".join(_ref_string(member) for member in ring.members))


def ref_token_body(token):
    rtr = sorted(token.rtr)
    fields = [token.token_id, token.seq, len(rtr), *rtr,
              token.rotation_min, token.safe_seq]
    return ref_ring_section(token.ring) + b"".join(
        _U32.pack(field) for field in fields)


def ref_data_body(msg):
    head = (ref_ring_section(msg.ring) + _U32.pack(msg.seq)
            + _ref_string(msg.sender)
            + bytes([_GUARANTEE_OCTET[msg.guarantee], int(msg.retransmit),
                     int(msg.span is not None)])
            + (_ref_string(msg.span) if msg.span is not None else b"")
            + _U32.pack(msg.size))
    payload = encode_value(msg.payload)
    return head + payload + b"\x00" * max(0, msg.size - len(payload))


# Member names well outside ASCII (no lone surrogates: not encodable).
wide_name = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    min_size=1, max_size=10)
wide_ring = st.builds(
    RingId,
    seq=ulong,
    members=st.lists(wide_name, min_size=1, max_size=8, unique=True),
)
wide_token = st.builds(
    Token,
    ring=wide_ring,
    token_id=ulong,
    seq=ulong,
    rtr=st.sets(ulong, max_size=10),
    rotation_min=ulong,
    safe_seq=ulong,
)
wide_data = st.builds(
    DataMessage,
    ring=wide_ring,
    seq=ulong,
    sender=wide_name,
    payload=value,
    size=st.integers(min_value=0, max_value=96),
    guarantee=st.sampled_from(["agreed", "safe"]),
    retransmit=st.booleans(),
    span=st.one_of(st.none(), wide_name),
)


def test_token_and_data_bytes_are_frozen():
    token = Token(RingId(8, ["n2", "n1"]), token_id=5, seq=3, rtr={4, 2},
                  rotation_min=1, safe_seq=1)
    assert encode_body(token).hex() == (
        "0000000800000002000000026e31000000026e32"
        "0000000500000003000000020000000200000004"
        "0000000100000001")
    data = DataMessage(RingId(12, ["\u00e9", "n1"]), 7, "n1", ("inc", 1), 24,
                       "safe", retransmit=True, span="s1")
    assert encode_body(data).hex() == (
        "0000000c00000002000000026e3100000002c3a9"
        "00000007000000026e3101010100000002733100"
        "00001808000000020500000003696e6303000000"
        "00000000010000")


@given(st.one_of(wide_token, wide_data))
@settings(max_examples=150, deadline=None)
def test_ring_messages_match_reference_layout_and_round_trip(message):
    body = encode_body(message)
    reference = (ref_token_body if isinstance(message, Token)
                 else ref_data_body)
    assert body == reference(message)
    frame = encode(message, ring=3)
    decoded = decode_one(frame)
    assert_equal_fields(decoded, message)
    # Re-encoding the decoded message (interned ring included) gives the
    # same bytes: a forwarded token is byte-identical to the one received.
    assert encode(decoded, ring=3) == frame


@given(st.one_of(wide_token, wide_data))
@settings(max_examples=40, deadline=None)
def test_every_truncation_and_extra_byte_is_rejected(message):
    body = encode_body(message)
    kind = kind_of(message)
    for cut in range(len(body)):
        with pytest.raises(WireFormatError):
            decode_payload(encode_frame(kind, body[:cut]))
    for extra in (b"\x00", b"\xff"):
        with pytest.raises(WireFormatError):
            decode_payload(encode_frame(kind, body + extra))
    frame = encode(message)
    for cut in range(len(frame)):
        with pytest.raises(WireFormatError):
            decode_payload(frame[:cut])
    with pytest.raises(WireFormatError):
        decode_payload(frame + b"\x00")


def test_member_name_running_past_the_body_is_rejected():
    token = Token(RingId(4, ["a", "b"]))
    body = bytearray(encode_body(token))
    # Inflate the last member name's length so it swallows the token
    # fields and runs off the end of the body.
    body[16:20] = _U32.pack(200)
    with pytest.raises(WireFormatError):
        decode_payload(encode_frame(kind_of(token), bytes(body)))


def test_invalid_utf8_member_name_is_rejected():
    token = Token(RingId(4, ["ab"]))
    body = bytearray(encode_body(token))
    body[12:14] = b"\xff\xfe"
    with pytest.raises(WireFormatError):
        decode_payload(encode_frame(kind_of(token), bytes(body)))


def _decode_reference_token(ring):
    token = Token(ring)
    return decode_one(encode_frame(kind_of(token), ref_token_body(token)))


@given(wide_ring, st.data())
@settings(max_examples=100, deadline=None)
def test_interned_rings_never_alias(ring, data):
    # Same seq and member count: both sections share the table's head.
    size = len(ring.members)
    same_seq = RingId(ring.seq, data.draw(
        st.lists(wide_name, min_size=size, max_size=size, unique=True)
        .filter(lambda members: tuple(sorted(members)) != ring.members)))
    same_members = RingId(
        data.draw(ulong.filter(lambda seq: seq != ring.seq)), ring.members)
    rings = [ring, same_seq, same_members]
    # Reference bytes and an empty table: the first decode of each ring
    # takes the parsing path, the second the interned one.
    totem_messages._INTERNED.clear()
    decoded = [_decode_reference_token(r).ring for r in rings]
    again = [_decode_reference_token(r).ring for r in rings]
    for original, first, second in zip(rings, decoded, again):
        assert first == original and first.key() == original.key()
        assert second is first  # the same bytes intern to one object
    assert decoded[0] != decoded[1] and decoded[0] is not decoded[1]
    assert decoded[0] != decoded[2] and decoded[0] is not decoded[2]
    assert decoded[1] != decoded[2]


def test_intern_table_stays_bounded_and_correct():
    limit = totem_messages._INTERNED_MAX
    rings = [RingId(seq, ["x", "y"]) for seq in range(limit + 50)]
    for ring in rings:
        assert _decode_reference_token(ring).ring == ring
    assert len(totem_messages._INTERNED) <= limit
    assert _decode_reference_token(rings[0]).ring.key() == rings[0].key()
    # Many rings sharing one head (same seq, same member count).
    crowd = [RingId(7, ["m%d" % index, "z"]) for index in range(40)]
    for _ in range(2):
        for ring in crowd:
            assert _decode_reference_token(ring).ring.key() == ring.key()
    head = ref_ring_section(crowd[0])[:8]
    assert len(totem_messages._INTERNED[head]) <= (
        totem_messages._CANDIDATES_MAX)
