"""The receive-side intern memo and property tests for the decoders.

A :class:`~repro.net.codec.ReceiveMemo` lets a party decode a repeated
nested value once and then hand out the object decoded then.  The
invariant under test everywhere: decoding with a memo, warm or cold,
returns what a memo-less decode returns, or raises the same
:class:`~repro.net.codec.CodecError`.
"""

import asyncio
import dataclasses
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.adkg import ADKG
from repro.core.certificates import KeyTuple
from repro.crypto.keys import TrustedSetup
from repro.net import codec
from repro.net.envelope import Envelope
from repro.net.payload import Payload
from repro.net.tcp_runtime import TCPRuntime


@pytest.fixture(scope="module")
def tcp_frames():
    """Every frame body (and its receiving party) of a real n=4 TCP A-DKG,
    plus the memos the runtime passed to the decoder."""
    frames: list[tuple[int, bytes]] = []
    memos: dict[int, set[int]] = {}
    original = codec.decode_batch

    def recording(data, memo=None):
        envelopes = original(data, memo)
        frames.append((envelopes[0].recipient, bytes(data)))
        memos.setdefault(envelopes[0].recipient, set()).add(id(memo))
        return envelopes

    setup = TrustedSetup.generate(4, seed=3)
    runtime = TCPRuntime(setup, seed=3)
    codec.decode_batch = recording
    try:
        results = asyncio.run(runtime.run(lambda party: ADKG(), timeout=60))
    finally:
        codec.decode_batch = original
    assert len(set(results.values())) == 1
    assert runtime.rejected_frames == 0
    return {"frames": frames, "memos": memos, "runtime": runtime}


def _warm_memo(frames) -> codec.ReceiveMemo:
    memo = codec.ReceiveMemo()
    for _party, frame in frames:
        codec.decode_batch(frame, memo)
    return memo


def _outcome(decoder, data):
    """Canonical bytes of each decoded envelope, or the error message."""
    try:
        return [codec.encode(envelope) for envelope in decoder(data)]
    except codec.CodecError as exc:
        return ("CodecError", str(exc))


def _nested_ids(envelopes) -> set[int]:
    """Identities of every nested registered struct in the payloads."""
    return {id(value) for e in envelopes for value in _nested(e.payload)}


def _nested(value):
    """Every registered struct inside ``value``, tuples walked through."""
    if type(value) is tuple:
        for item in value:
            yield from _nested(item)
    elif type(value) in codec._by_type:
        yield value
        for name in codec._by_type[type(value)][1]:
            yield from _nested(getattr(value, name))


def _key_tuple(value) -> KeyTuple:
    """A frozen value struct holding anything (its ``value`` is ``Any``)."""
    return KeyTuple(view=1, value=value, proof=None)


# -- property tests for the decoders ---------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**300), max_value=2**300),
    st.binary(max_size=40),
    st.text(max_size=20),
    st.floats(allow_nan=False),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5).map(tuple),
        st.lists(children, max_size=5),
        st.frozensets(scalars, max_size=4),
        st.dictionaries(scalars, children, max_size=4),
    ),
    max_leaves=25,
)


@given(values)
def test_decode_round_trips_with_and_without_a_memo(value):
    encoded = codec.encode(value)
    assert codec.decode(encoded) == value
    memo = codec.ReceiveMemo()
    for _ in range(2):  # cold, then warm
        decoded = codec.decode(encoded, memo)
        assert decoded == value
        assert codec.encode(decoded) == encoded


@given(st.lists(values, min_size=1, max_size=4), st.integers(0, 2**20))
def test_decode_batch_round_trips(payload_values, session):
    from tests.net.helpers import Blob

    envelopes = [
        Envelope(
            path=("layer", index),
            sender=index,
            recipient=0,
            payload=Blob((value,)),
            depth=index,
            session=session,
        )
        for index, value in enumerate(payload_values)
    ]
    frame = codec.encode_batch(envelopes)
    assert codec.decode_batch(frame) == envelopes
    memo = codec.ReceiveMemo()
    assert codec.decode_batch(frame, memo) == envelopes
    assert codec.decode_batch(frame, memo) == envelopes


@given(st.binary(max_size=200))
def test_arbitrary_bytes_raise_only_codec_errors(data):
    memo = codec.ReceiveMemo()
    for decoder in (
        codec.decode,
        codec.decode_envelope,
        codec.decode_batch,
        lambda blob: codec.decode(blob, memo),
        lambda blob: codec.decode_batch(blob, memo),
    ):
        try:
            decoder(data)
        except codec.CodecError:
            pass


@settings(
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_real_frames_decode_alike_with_a_warm_memo(tcp_frames, data):
    frames = tcp_frames["frames"]
    if "warm" not in tcp_frames:  # one memo, kept warm across examples
        tcp_frames["warm"] = _warm_memo(frames)
    memo = tcp_frames["warm"]
    _party, frame = data.draw(st.sampled_from(frames))
    mutated = bytearray(frame)
    for _ in range(data.draw(st.integers(1, 4))):
        position = data.draw(st.integers(0, len(mutated) - 1))
        mutated[position] = data.draw(st.integers(0, 255))
    mutated = bytes(mutated)
    expected = _outcome(codec.decode_batch, mutated)
    assert _outcome(lambda blob: codec.decode_batch(blob, memo), mutated) == expected
    # Splicing the frame's own bytes repeats real nested values in new
    # positions, which is where a memo hit could go wrong.
    cut = data.draw(st.integers(0, len(frame)))
    spliced = frame[:cut] + frame[data.draw(st.integers(0, len(frame))) :]
    expected = _outcome(codec.decode_batch, spliced)
    assert _outcome(lambda blob: codec.decode_batch(blob, memo), spliced) == expected


# -- the memo itself -------------------------------------------------------------------


def test_real_frames_hit_and_share_objects_within_one_memo(tcp_frames):
    frames = tcp_frames["frames"]
    memo = _warm_memo(frames)
    assert len(memo) > 0
    for _party, frame in frames[:50]:
        assert codec.decode_batch(frame, memo) == codec.decode_batch(frame)
    # A frame decoded twice through one memo shares its stored values.
    _party, frame = max(frames, key=lambda item: len(item[1]))
    first = codec.decode_batch(frame, memo)
    second = codec.decode_batch(frame, memo)
    assert _nested_ids(first) & _nested_ids(second)


def test_tcp_runtime_keeps_one_memo_per_party(tcp_frames):
    memos = tcp_frames["memos"]
    assert sorted(memos) == [0, 1, 2, 3]
    assert all(len(ids) == 1 for ids in memos.values())
    assert len(set().union(*memos.values())) == 4
    assert tcp_frames["runtime"]._receive_memos == {}  # dropped at close


def test_nesting_bound_stays_exact_with_a_warm_memo():
    deep = b"x" * 60
    for _ in range(61):
        deep = (deep,)
    value = (_key_tuple(deep),)  # innermost bytes at depth 63 of 64
    memo = codec.ReceiveMemo()
    assert codec.decode(codec.encode(value), memo) == value
    assert codec.decode(codec.encode(value), memo)[0] is value_of(memo)  # hits
    wrapped = value
    for _ in range(10):
        wrapped = (wrapped,)
    encoded = codec.encode(wrapped)
    with pytest.raises(codec.CodecError, match="value nesting too deep"):
        codec.decode(encoded)
    with pytest.raises(codec.CodecError, match="value nesting too deep"):
        codec.decode(encoded, memo)


def value_of(memo: codec.ReceiveMemo):
    """The single value ``memo`` holds."""
    ((_encoding, value, _depth),) = memo._entries.values()
    return value


def test_a_shared_prefix_hits_only_on_the_whole_encoding():
    """Entries are indexed by their first bytes; the rest must match too,
    also when the buffer ends before a stored encoding would."""
    head = b"p" * 60  # longer than the indexed prefix
    stored = _key_tuple((head, b"s" * 30))
    memo = codec.ReceiveMemo()
    codec.decode(codec.encode((stored,)), memo)
    assert len(memo) == 1
    for other in (
        _key_tuple((head, b"t" * 30)),
        _key_tuple((head, b"s" * 29)),
        _key_tuple((head, b"s" * 31)),
        _key_tuple((head, "s" * 30)),
    ):
        for value in ((other,), (other, 1), (1, other)):
            decoded = codec.decode(codec.encode(value), memo)
            assert decoded == value
            assert stored not in decoded
    # The latest value stored under a prefix replaces the one before.
    assert len(memo) == 1
    again = codec.decode(codec.encode((stored,)), memo)[0]
    assert again == stored and value_of(memo) is again
    assert memo.size == len(codec.encode(stored))


def test_byte_budget_is_enforced(monkeypatch):
    budget = 300
    monkeypatch.setattr(codec, "_RECEIVE_MEMO_BUDGET", budget)
    memo = codec.ReceiveMemo()
    for index in range(100):
        value = (_key_tuple((index, b"y" * 50)),)
        assert codec.decode(codec.encode(value), memo) == value
        assert 0 < memo.size <= budget
        assert memo.size == sum(len(entry[0]) for entry in memo._entries.values())
    assert len(memo) < 100  # cleared on overflow
    # A value larger than the whole budget is never stored.
    memo.clear()
    big = (_key_tuple(b"z" * (budget + 1)),)
    assert codec.decode(codec.encode(big), memo) == big
    assert len(memo) == 0 and memo.size == 0


def _crafted_memo() -> codec.ReceiveMemo:
    """A memo holding one large entry that shares its indexed prefix with
    ``_key_tuple((_HEAD, ...))``, and many entries of distinct lengths."""
    memo = codec.ReceiveMemo()
    codec.decode(codec.encode((_key_tuple((_HEAD, b"L" * 400_000)),)), memo)
    for length in range(300):
        codec.decode(codec.encode((_key_tuple((b"d" * (60 + length),)),)), memo)
    assert len(memo) >= 301
    return memo


_HEAD = b"h" * 60


def _decode_seconds(data: bytes, memo_factory) -> float:
    best = float("inf")
    for _ in range(3):
        memo = memo_factory()
        began = time.perf_counter()
        codec.decode(data, memo)
        best = min(best, time.perf_counter() - began)
    return best


@pytest.mark.parametrize(
    "value",
    [
        # Never stored (they hold a list), so the large entry stays.
        [_key_tuple((_HEAD, [index])) for index in range(8_000)],
        [(None,)] * 100_000 + [(b"d" * 60,)] * 3_000,
    ],
    ids=["prefix-sharing-structs", "small-tuples"],
)
def test_a_crafted_warm_memo_keeps_decoding_linear(value):
    """Stored entries, however large or many, cost a lookup O(1) plus a
    comparison no longer than the bytes the value spans."""
    data = codec.encode(value)
    assert len(data) > 400_000  # the large entry would fit at every position
    assert codec.decode(data, _crafted_memo()) == value
    fresh = _decode_seconds(data, lambda: None)
    assert _decode_seconds(data, _crafted_memo) < 3 * fresh + 0.05


def test_two_memos_never_return_the_same_nested_object(tcp_frames):
    frames = tcp_frames["frames"]
    first, second = _warm_memo(frames), _warm_memo(frames)
    for _party, frame in frames:
        one = codec.decode_batch(frame, first)
        two = codec.decode_batch(frame, second)
        assert not _nested_ids(one) & _nested_ids(two)


def test_only_immutable_nested_values_are_stored(tcp_frames):
    memo = _warm_memo(tcp_frames["frames"])
    for prefix, (encoding, value, depth) in memo._entries.items():
        assert depth >= 1
        assert type(value) in codec._snapshot_types
        assert not isinstance(value, (Payload, Envelope))
        assert codec.encode(value) == encoding
        assert encoding[: codec._RECEIVE_MIN] == prefix


@dataclasses.dataclass
class _Unfrozen:
    items: tuple


codec.register(_Unfrozen, 9200)


@pytest.mark.parametrize(
    "inner",
    [
        _key_tuple((b"w" * 60, [1, 2])),
        _key_tuple({b"k": b"v" * 60}),
        _key_tuple((b"w" * 60, _Unfrozen((1, 2)))),
        _key_tuple((b"w" * 60, {3, 4})),
    ],
    ids=["list", "dict", "unfrozen-struct", "set"],
)
def test_values_holding_mutable_values_are_never_shared(inner):
    """A handler may mutate a list, dict or non-frozen struct it got."""
    encoded = codec.encode((inner,))
    memo = codec.ReceiveMemo()
    first = codec.decode(encoded, memo)
    second = codec.decode(encoded, memo)
    assert first == second == (inner,)
    assert first[0] is not second[0]
    assert len(memo) == 0


def test_payloads_and_envelopes_are_never_stored(tcp_frames):
    memo = codec.ReceiveMemo()
    for _party, frame in tcp_frames["frames"]:
        one = codec.decode_batch(frame, memo)
        two = codec.decode_batch(frame, memo)
        for a, b in zip(one, two):
            assert a is not b
            assert a.payload is not b.payload
