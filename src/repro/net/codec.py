"""Registry-based byte codec for every value that crosses a transport.

The sans-io protocols exchange frozen dataclasses (payloads, certificates,
PVSS contributions, group elements, ...).  The simulator can pass them by
reference, but the TCP runtime — and the erasure-coded broadcast, which
genuinely fragments a byte string — need a real wire format.  This module
provides one without pickle: a deterministic tag-length-value encoding
with an explicit *type registry*.

Format
------
Every value is a one-byte tag followed by tag-specific content:

====  ==========================================================
0x00  ``None``
0x01  ``True``
0x02  ``False``
0x03  int — zigzag varint (arbitrary precision)
0x04  bytes — varint length + raw bytes
0x05  str — varint length + UTF-8 bytes
0x06  tuple — varint count + items
0x07  list — varint count + items
0x08  frozenset — varint count + items, sorted by encoded bytes
0x09  set — like frozenset
0x0A  dict — varint count + key/value pairs, sorted by encoded key
0x0B  float — 8 bytes IEEE-754 big-endian
0x10  registered struct — varint type id + varint field count + fields
====  ==========================================================

Structs are registered with :func:`register` under a stable numeric id
(the ids below are part of the wire format; never reuse one).  The field
count doubles as the struct's format version: the envelope accepts the
five-field pre-session encoding (decoding it as session 0) so mixed-era
peers interoperate; all other structs require an exact count.  A
registered dataclass is encoded as its fields in declaration order, so
``decode(encode(x)) == x`` for every registered type whose fields are
themselves encodable.  Sets and dicts are serialized in sorted-encoding
order, making ``encode`` deterministic: equal values produce equal bytes.

``decode`` is strict: unknown tags, unknown type ids, truncated buffers,
trailing bytes, invalid UTF-8 and field-count mismatches all raise
:class:`CodecError`.  This is the hardening ``broadcast/wire.py`` claims:
a Byzantine dealer's malformed bytes surface as a clean error (mapped to
"dealer faulty" upstream), never as attacker-controlled object
construction the way ``pickle.loads`` would allow.

Batch frames
------------
The batched message plane coalesces several envelopes into one wire
frame.  A batch frame body is versioned and self-describing::

    0xB5 (magic)  0x01 (version)
    uvarint k     k x (uvarint length + payload encoding)
    uvarint m     m x (uvarint payload-index +
                       tuple(path, sender, recipient, depth, session))

The payload table deduplicates *within* the frame: a multicast payload
carried by several envelopes of one frame is serialized once and
referenced by index.  ``0xB5`` can never open a single-envelope frame
(those always start with the struct tag ``0x10``), so
:func:`decode_batch` transparently accepts legacy single-envelope frames
and returns them as one-element batches — mixed-era peers interoperate.
:func:`encode_batch` of a single envelope likewise emits the legacy
single-envelope encoding.  Decoding is as strict as everywhere else:
bad magic/version, truncated tables, out-of-range payload indices,
blob-length mismatches, non-``Payload`` table entries, malformed headers
and trailing bytes all raise :class:`CodecError`.

See DESIGN.md sections 3 and 8 for how the codec slots into the
transport architecture and the batched message plane.
"""

from __future__ import annotations

import dataclasses
import struct as _struct
from collections import Counter
from typing import Any, Optional

from repro.crypto.verify_cache import IdentityMemo

__all__ = [
    "CodecError",
    "register",
    "registered_types",
    "encode",
    "decode",
    "encode_envelope",
    "decode_envelope",
    "encode_batch",
    "decode_batch",
    "ReceiveMemo",
    "encoded_size",
    "encoded_envelope_size",
    "encoded_batch_size",
    "encode_heartbeat",
    "is_heartbeat",
    "encode_stats",
]

#: First body byte of a multi-envelope batch frame.  Deliberately outside
#: the codec tag space: a legacy single-envelope frame always starts with
#: ``_TAG_STRUCT`` (0x10), so the two formats are distinguishable from
#: their first byte.
BATCH_MAGIC = 0xB5
#: Batch frame format version (second body byte).
BATCH_VERSION = 0x01

#: First body byte of a connection-liveness heartbeat frame (the TCP
#: runtime's idle keepalive).  Like :data:`BATCH_MAGIC` it sits outside
#: the codec tag space *and* differs from the batch magic, so the three
#: frame formats — heartbeat, batch, legacy single envelope — are
#: distinguishable from their first byte.
HEARTBEAT_MAGIC = 0xE7
#: Heartbeat frame format version (second body byte).
HEARTBEAT_VERSION = 0x01

#: Encode-once fan-out accounting: ``payload.calls`` counts every payload
#: struct encoding request, ``payload.hits`` the ones served from the
#: identity memo (a broadcast encodes its payload once, then reuses the
#: buffer for all n recipients), ``payload.misses`` the real encodings.
encode_stats: Counter = Counter()

# Payload bytes keyed by object identity (weakref-guarded).  Sound
# because payloads are frozen value dataclasses: a distinct (e.g.
# Byzantine-transformed) payload is a distinct object and never aliases a
# memoized buffer.  Process-wide is safe for the same reason — bytes are
# a pure function of the value.
_payload_memo = IdentityMemo()
_memoized_types: set[type] = set()

# Registered frozen dataclasses that are neither payloads nor the
# envelope: the value types a caller-supplied snapshot memo serves by
# identity (see ``encode``).
_snapshot_types: set[type] = set()

# Envelope instance-path encodings, keyed by the path value itself (paths
# are small hashable tuples and repeat for every message of an instance).
# Value-keyed is sound: the encoding is a pure function of the value.
_envelope_type: Optional[type] = None
_path_memo: dict[tuple, bytes] = {}
_PATH_MEMO_LIMIT = 8192


class CodecError(ValueError):
    """Raised when bytes cannot be decoded (or a value cannot be encoded)."""


_TAG_NONE = 0x00
_TAG_TRUE = 0x01
_TAG_FALSE = 0x02
_TAG_INT = 0x03
_TAG_BYTES = 0x04
_TAG_STR = 0x05
_TAG_TUPLE = 0x06
_TAG_LIST = 0x07
_TAG_FROZENSET = 0x08
_TAG_SET = 0x09
_TAG_DICT = 0x0A
_TAG_FLOAT = 0x0B
_TAG_STRUCT = 0x10

# Registered struct ids, stable across versions (wire compatibility):
#   1-19    substrate (Envelope)
#   20-39   crypto value types
#   64-99   protocol payloads
#   >= 9000 reserved for tests / external extensions
_ENVELOPE_ID = 1

_by_type: dict[type, tuple[int, tuple[str, ...]]] = {}
_by_id: dict[int, tuple[type, tuple[str, ...], tuple[Any, ...]]] = {}
_by_name: dict[str, type] = {}
_builtin_registered = False
_registering = False

_SIMPLE_ANNOTATIONS: dict[str, type] = {
    "int": int,
    "bytes": bytes,
    "str": str,
    "bool": bool,
    "float": float,
    "tuple": tuple,
    "Path": tuple,  # the Envelope path alias
    "list": list,
    "set": set,
    "frozenset": frozenset,
    "dict": dict,
}


def _annotation_checker(annotation: Any) -> Any:
    """Best-effort type check derived from a dataclass field annotation.

    Returns a type to isinstance-check, a class-name string resolved
    against the registry at decode time, or ``None`` for annotations we
    cannot (or should not) enforce — ``Any``, ``Optional``, unions.
    Honest encoders always satisfy their own annotations, so this rejects
    only attacker-crafted frames whose field values have the wrong shape.
    """
    if not isinstance(annotation, str):
        annotation = getattr(annotation, "__name__", "")
    if "|" in annotation:
        return None  # PEP-604 unions admit several types: unchecked
    base = annotation.strip().split("[", 1)[0].strip().split(".")[-1]
    if base in _SIMPLE_ANNOTATIONS:
        return _SIMPLE_ANNOTATIONS[base]
    if not base or base in ("Any", "Optional", "Union", "object", "None"):
        return None
    return base  # resolved against _by_name lazily


def register(cls: type, type_id: int, fields: Optional[tuple[str, ...]] = None) -> type:
    """Register a dataclass under a stable wire id.

    ``fields`` defaults to the dataclass fields in declaration order; the
    decoder reconstructs instances via ``cls(*field_values)`` and checks
    each value against the field's annotation where that annotation names
    a concrete type.  Ids below 9000 are reserved for the repo itself.
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"can only register dataclasses, got {cls!r}")
    declared = {f.name: f.type for f in dataclasses.fields(cls)}
    if fields is None:
        fields = tuple(declared)
    existing = _by_id.get(type_id)
    if existing is not None and existing[0] is not cls:
        raise ValueError(
            f"codec id {type_id} already taken by {existing[0].__name__}"
        )
    checkers = tuple(_annotation_checker(declared.get(name)) for name in fields)
    _by_type[cls] = (type_id, fields)
    _by_id[type_id] = (cls, fields, checkers)
    _by_name[cls.__name__] = cls
    from repro.net.payload import Payload  # deferred: payload.py is below codec

    if issubclass(cls, Payload):
        # Protocol payloads are the multicast fan-out unit: the same
        # frozen object is addressed to all n recipients, so its struct
        # encoding is memoized by identity (see encode_stats above).
        _memoized_types.add(cls)
    elif cls.__dataclass_params__.frozen and type_id != _ENVELOPE_ID:
        _snapshot_types.add(cls)
    return cls


def registered_types() -> dict[type, int]:
    """Every registered type and its wire id (triggers full registration)."""
    _ensure_registered()
    return {cls: type_id for cls, (type_id, _fields) in _by_type.items()}


# -- varints ---------------------------------------------------------------------------


def _write_uvarint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


#: Integers (after zigzag) are bounded to this many bits on the wire —
#: far above the 256-bit STANDARD group parameters, and enforced
#: symmetrically: `encode` refuses above it, `decode` rejects above it.
_MAX_INT_BITS = 4096


def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > _MAX_INT_BITS:  # bounds attacker-supplied "infinite" varints
            raise CodecError("varint too long")


# Arbitrary-precision zigzag: non-negative n -> 2n, negative n -> -2n - 1.
def _zigzag_encode(value: int) -> int:
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def _zigzag_decode(value: int) -> int:
    return value >> 1 if not value & 1 else -((value + 1) >> 1)


# -- encoding --------------------------------------------------------------------------


def _encode_into(
    out: bytearray, value: Any, memo: Optional[IdentityMemo] = None
) -> None:
    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif type(value) is int:
        zigzagged = _zigzag_encode(value)
        if zigzagged.bit_length() > _MAX_INT_BITS:
            # Same bound the decoder enforces: fail loudly at the sender
            # instead of encoding bytes the receiver will reject.
            raise CodecError(f"integer exceeds the codec bound ({_MAX_INT_BITS} bits)")
        out.append(_TAG_INT)
        _write_uvarint(out, zigzagged)
    elif type(value) is bytes:
        out.append(_TAG_BYTES)
        _write_uvarint(out, len(value))
        out.extend(value)
    elif type(value) is str:
        raw = value.encode("utf-8")
        out.append(_TAG_STR)
        _write_uvarint(out, len(raw))
        out.extend(raw)
    elif type(value) is tuple:
        out.append(_TAG_TUPLE)
        _write_uvarint(out, len(value))
        for item in value:
            _encode_into(out, item, memo)
    elif type(value) is list:
        out.append(_TAG_LIST)
        _write_uvarint(out, len(value))
        for item in value:
            _encode_into(out, item, memo)
    elif type(value) in (frozenset, set):
        out.append(_TAG_FROZENSET if type(value) is frozenset else _TAG_SET)
        parts = sorted(encode(item, memo) for item in value)
        _write_uvarint(out, len(parts))
        for part in parts:
            out.extend(part)
    elif type(value) is dict:
        out.append(_TAG_DICT)
        pairs = sorted((encode(k, memo), encode(v, memo)) for k, v in value.items())
        _write_uvarint(out, len(pairs))
        for key_bytes, value_bytes in pairs:
            out.extend(key_bytes)
            out.extend(value_bytes)
    elif type(value) is float:
        out.append(_TAG_FLOAT)
        out.extend(_struct.pack(">d", value))
    else:
        entry = _by_type.get(type(value))
        if entry is None:
            raise CodecError(
                f"no codec registration for type {type(value).__name__!r}"
            )
        type_id, fields = entry
        if type(value) in _memoized_types:
            out.extend(_payload_struct_bytes(value))
            return
        if memo is not None and type(value) in _snapshot_types:
            cached = memo.get(value)
            if cached is None:
                cached = _struct_bytes(value, type_id, fields, memo)
                memo.put(value, cached)
            out.extend(cached)
            return
        out.append(_TAG_STRUCT)
        _write_uvarint(out, type_id)
        _write_uvarint(out, len(fields))
        if type(value) is _envelope_type:
            for name in fields:
                field_value = getattr(value, name)
                if name == "path" and type(field_value) is tuple:
                    cached = _path_struct_bytes(field_value)
                    if cached is not None:
                        out.extend(cached)
                        continue
                    # Unhashable path (forged envelope): encode it
                    # directly; decode_envelope rejects it anyway.
                _encode_into(out, field_value)
            return
        for name in fields:
            _encode_into(out, getattr(value, name), memo)


def _payload_struct_bytes(value: Any, count: bool = True) -> bytes:
    """The identity-memoized struct encoding of a fan-out payload.

    The caller must have checked ``type(value) in _memoized_types``.
    ``count=False`` fetches without touching :data:`encode_stats` —
    wire-layer *reuse* of already-produced bytes (batch assembly, size
    accounting of built frames) must not distort the encode-once
    counters the perf harness asserts on.
    """
    if count:
        encode_stats["payload.calls"] += 1
    cached = _payload_memo.get(value)
    if cached is not None:
        if count:
            encode_stats["payload.hits"] += 1
        return cached
    if count:
        encode_stats["payload.misses"] += 1
    type_id, fields = _by_type[type(value)]
    buffer = _struct_bytes(value, type_id, fields)
    _payload_memo.put(value, buffer)
    return buffer


def _struct_bytes(
    value: Any,
    type_id: int,
    fields: tuple[str, ...],
    memo: Optional[IdentityMemo] = None,
) -> bytes:
    """One registered struct's standalone encoding (a memo entry)."""
    chunk = bytearray()
    chunk.append(_TAG_STRUCT)
    _write_uvarint(chunk, type_id)
    _write_uvarint(chunk, len(fields))
    for name in fields:
        _encode_into(chunk, getattr(value, name), memo)
    return bytes(chunk)


def _path_struct_bytes(path: tuple) -> Optional[bytes]:
    """The value-memoized encoding of an envelope path; ``None`` if the
    path is unhashable (forged) and therefore not memoizable."""
    try:
        cached = _path_memo.get(path)
    except TypeError:
        return None
    if cached is None:
        chunk = bytearray()
        _encode_into(chunk, path)
        cached = bytes(chunk)
        if len(_path_memo) >= _PATH_MEMO_LIMIT:
            _path_memo.clear()
        _path_memo[path] = cached
    return cached


def encode(value: Any, memo: Optional[IdentityMemo] = None) -> bytes:
    """Deterministically encode ``value`` to bytes.

    ``memo`` is an optional snapshot memo: every registered frozen
    dataclass (payloads and the envelope excepted — payloads have their
    own process-wide memo) found in it is emitted from its cached bytes,
    and every one that is not is encoded once and stored.  The bytes are
    identical to an unmemoized encode *provided those struct values are
    never mutated* — the same immutability the payload memo relies on.
    Containers (tuples, lists, sets, dicts) are never memoized and are
    walked afresh on every call.  The caller owns the memo and its
    lifetime; :meth:`~repro.net.party.Party.freeze` keeps one per party.

    Raises :class:`CodecError` for unregistered/unsupported types.
    """
    _ensure_registered()
    out = bytearray()
    _encode_into(out, value, memo)
    return bytes(out)


# -- decoding --------------------------------------------------------------------------


#: Smallest encoding a :class:`ReceiveMemo` stores, and the length of
#: the prefix it indexes entries by.  Below it a lookup saves little and
#: the entries only add memory: with 0 B or 16 B ``adkg-tcp-n10`` ran no
#: faster and peaked 1.0–1.3 MB higher (three 30 s runs each on a 2-core
#: host).  The stored encodings of an ``adkg-tcp-n10`` run differ within
#: their first 48 bytes, so one entry per prefix loses no hits there.
_RECEIVE_MIN = 48
#: Byte budget of one :class:`ReceiveMemo` (the encoded bytes of its
#: entries); a store that would exceed it clears the memo first, as the
#: path memo is cleared.  An ``adkg-tcp-n10`` party stores ~46 KB.
_RECEIVE_MEMO_BUDGET = 1 << 20


class ReceiveMemo:
    """One party's receive-side intern memo: encoded bytes -> decoded value.

    The decode-side twin of the snapshot memo.  ``decode_batch(frame,
    memo)`` decodes a repeated nested value once and afterwards returns
    the same object whenever the same bytes arrive again, so the identity
    memos further down (``value_digest``, ``content_digest``, the
    ``VerifyCache`` identity layer) hit for it as well.

    Entries are registered frozen value structs (never payloads, the
    envelope, tuples, lists, sets or dicts) decoded at depth >= 1, whose
    encoding is at least ``_RECEIVE_MIN`` bytes and whose subtree holds
    no mutable value, so a shared object is never one a handler could
    mutate.  An entry keeps the depth it was decoded at and hits only at
    that depth or shallower, which keeps the nesting bound exact.
    Encodings are self-delimiting, so bytes at the current position that
    start with a stored encoding are exactly what a fresh decode would
    consume.

    Entries are indexed by their first ``_RECEIVE_MIN`` bytes, one entry
    per prefix (the latest stored wins), so a lookup costs one short
    slice and one dict probe however many entries are stored, plus a
    comparison that stops at the first differing byte.  Bytes that match
    a stored encoding so far decode exactly as it did, so that comparison
    never runs past what a fresh decode of the value would read anyway:
    decoding stays linear in the frame with a memo, warm or crafted.

    Bytes are the key, not identity, so a memo belongs to one party:
    sharing it would share decoded objects between parties that share
    nothing but bytes.  ``_RECEIVE_MEMO_BUDGET`` bounds the stored
    encoded bytes.
    """

    __slots__ = ("size", "_mutable", "_entries")

    def __init__(self) -> None:
        #: Encoded bytes currently stored.
        self.size = 0
        # Mutable values decoded so far (lists, sets, dicts, non-frozen
        # structs).  A value is stored only if this did not move while
        # its subtree was decoded.
        self._mutable = 0
        # prefix -> (encoding, value, depth decoded at)
        self._entries: dict[bytes, tuple[bytes, Any, int]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.size = 0

    def _lookup(self, data: bytes, start: int, depth: int) -> Optional[tuple[Any, int]]:
        """The stored value encoded at ``data[start:]`` and its end, if any."""
        entry = self._entries.get(data[start : start + _RECEIVE_MIN])
        if entry is not None:
            encoding, value, stored_depth = entry
            if depth <= stored_depth and data.startswith(encoding, start):
                return value, start + len(encoding)
        return None

    def _store(self, data: bytes, start: int, end: int, value: Any, depth: int) -> None:
        length = end - start
        if length > _RECEIVE_MEMO_BUDGET:
            return
        old = self._entries.pop(data[start : start + _RECEIVE_MIN], None)
        if old is not None:
            self.size -= len(old[0])
        if self.size + length > _RECEIVE_MEMO_BUDGET:
            self.clear()
        self._entries[data[start : start + _RECEIVE_MIN]] = (data[start:end], value, depth)
        self.size += length


def _decode_from(
    data: bytes, pos: int, depth: int = 0, memo: Optional[ReceiveMemo] = None
) -> tuple[Any, int]:
    if depth > 64:
        raise CodecError("value nesting too deep")
    if pos >= len(data):
        raise CodecError("truncated value")
    start = pos
    tag = data[pos]
    pos += 1
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_INT:
        raw, pos = _read_uvarint(data, pos)
        if raw.bit_length() > _MAX_INT_BITS:
            # Exactly the bound encode enforces: without this, a crafted
            # frame could inject an int honest parties cannot re-encode.
            raise CodecError(f"integer exceeds the codec bound ({_MAX_INT_BITS} bits)")
        return _zigzag_decode(raw), pos
    if tag == _TAG_BYTES:
        length, pos = _read_uvarint(data, pos)
        if pos + length > len(data):
            raise CodecError("truncated bytes")
        return data[pos : pos + length], pos + length
    if tag == _TAG_STR:
        length, pos = _read_uvarint(data, pos)
        if pos + length > len(data):
            raise CodecError("truncated string")
        try:
            return data[pos : pos + length].decode("utf-8"), pos + length
        except UnicodeDecodeError as exc:
            raise CodecError("invalid UTF-8 in string") from exc
    if tag in (_TAG_TUPLE, _TAG_LIST, _TAG_FROZENSET, _TAG_SET):
        count, pos = _read_uvarint(data, pos)
        if count > len(data):  # cheap bound: every item costs >= 1 byte
            raise CodecError("container length exceeds buffer")
        items = []
        for _ in range(count):
            item, pos = _decode_from(data, pos, depth + 1, memo)
            items.append(item)
        if tag == _TAG_TUPLE:
            return tuple(items), pos
        if memo is not None and tag != _TAG_FROZENSET:
            memo._mutable += 1
        if tag == _TAG_LIST:
            return items, pos
        try:
            collected = frozenset(items) if tag == _TAG_FROZENSET else set(items)
        except TypeError as exc:
            raise CodecError("unhashable set member") from exc
        if len(collected) != count:
            raise CodecError("duplicate set member")
        return collected, pos
    if tag == _TAG_DICT:
        count, pos = _read_uvarint(data, pos)
        if count > len(data):
            raise CodecError("container length exceeds buffer")
        result: dict = {}
        for _ in range(count):
            key, pos = _decode_from(data, pos, depth + 1, memo)
            value, pos = _decode_from(data, pos, depth + 1, memo)
            try:
                result[key] = value
            except TypeError as exc:
                raise CodecError("unhashable dict key") from exc
        if len(result) != count:
            raise CodecError("duplicate dict key")
        if memo is not None:
            memo._mutable += 1
        return result, pos
    if tag == _TAG_FLOAT:
        if pos + 8 > len(data):
            raise CodecError("truncated float")
        return _struct.unpack(">d", data[pos : pos + 8])[0], pos + 8
    if tag == _TAG_STRUCT:
        type_id, pos = _read_uvarint(data, pos)
        entry = _by_id.get(type_id)
        if entry is None:
            raise CodecError(f"unknown codec type id {type_id}")
        cls, fields, checkers = entry
        count, pos = _read_uvarint(data, pos)
        if count != len(fields):
            # Wire-format versioning for the envelope: the pre-session
            # format carried five fields (no ``session``); such frames
            # decode with the trailing session defaulted to 0, so old
            # single-session traffic keeps routing.  Every other struct
            # stays strict.
            if not (cls is _envelope_type and count == len(fields) - 1):
                raise CodecError(
                    f"field count mismatch for {cls.__name__}: "
                    f"expected {len(fields)}, got {count}"
                )
            fields = fields[:count]
            checkers = checkers[:count]
        interned = memo is not None and depth and cls in _snapshot_types
        if interned:
            hit = memo._lookup(data, start, depth)
            if hit is not None:
                return hit
            mutable = memo._mutable
        values = []
        for name, checker in zip(fields, checkers):
            value, pos = _decode_from(data, pos, depth + 1, memo)
            _check_field(cls, name, checker, value)
            values.append(value)
        try:
            value = cls(*values)
        except CodecError:
            raise
        except Exception as exc:
            raise CodecError(f"cannot construct {cls.__name__}: {exc}") from exc
        if interned:
            if pos - start >= _RECEIVE_MIN and memo._mutable == mutable:
                memo._store(data, start, pos, value, depth)
        elif memo is not None and not cls.__dataclass_params__.frozen:
            memo._mutable += 1
        return value, pos
    raise CodecError(f"unknown tag byte {tag:#04x}")


def _check_field(cls: type, name: str, checker: Any, value: Any) -> None:
    """Reject attacker-crafted field values whose type contradicts the
    field's concrete annotation (crash-vector hardening; ``Any`` fields
    stay unchecked — protocol handlers isinstance-check those)."""
    if checker is None:
        return
    if isinstance(checker, str):
        resolved = _by_name.get(checker)
        if resolved is None:
            return  # annotation names a type the registry doesn't know
        checker = resolved
    if not isinstance(value, checker):
        raise CodecError(
            f"field {cls.__name__}.{name} expects {checker.__name__}, "
            f"got {type(value).__name__}"
        )


def decode(data: bytes, memo: Optional[ReceiveMemo] = None) -> Any:
    """Decode one value; the buffer must contain exactly one encoding.

    ``memo`` is an optional :class:`ReceiveMemo` (see :func:`decode_batch`).
    Raises :class:`CodecError` on any malformation, including trailing
    bytes after a well-formed prefix.
    """
    _ensure_registered()
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise CodecError(f"expected bytes, got {type(data).__name__}")
    value, pos = _decode_from(bytes(data), 0, 0, memo)
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after value")
    return value


# -- envelopes -------------------------------------------------------------------------


def encode_envelope(envelope: Any) -> bytes:
    """Encode a routed :class:`~repro.net.envelope.Envelope` to wire bytes."""
    from repro.net.envelope import Envelope

    if not isinstance(envelope, Envelope):
        raise CodecError(f"expected Envelope, got {type(envelope).__name__}")
    return encode(envelope)


def _validate_envelope(value: Any) -> Any:
    """Shared post-decode envelope validation (single and batch frames).

    The value must be an envelope with an int sender/recipient/depth/
    session, a hashable tuple path, and a
    :class:`~repro.net.payload.Payload` payload — anything else raises
    :class:`CodecError`.
    """
    from repro.net.envelope import Envelope
    from repro.net.payload import Payload

    if not isinstance(value, Envelope):
        raise CodecError("decoded value is not an Envelope")
    if not isinstance(value.path, tuple):
        raise CodecError("envelope path must be a tuple")
    try:
        hash(value.path)
    except TypeError as exc:
        # An unhashable path element (e.g. a list) would blow up the
        # recipient's instance-table lookup — fail closed here instead.
        raise CodecError("envelope path is not hashable") from exc
    if not isinstance(value.payload, Payload):
        raise CodecError("envelope payload is not a registered Payload")
    for field_name in ("sender", "recipient", "depth", "session"):
        if not isinstance(getattr(value, field_name), int):
            raise CodecError(f"envelope {field_name} must be an int")
    if value.session < 0:
        raise CodecError("envelope session must be non-negative")
    return value


def decode_envelope(data: bytes) -> Any:
    """Decode wire bytes into an :class:`~repro.net.envelope.Envelope`.

    The decoded value must be an envelope with an int sender/recipient/
    depth, a tuple path, and a :class:`~repro.net.payload.Payload`
    payload — anything else raises :class:`CodecError`.
    """
    return _validate_envelope(decode(data))


def encoded_size(value: Any) -> int:
    """Bytes ``value`` occupies on the wire (without transport framing)."""
    return len(encode(value))


# -- batch frames ----------------------------------------------------------------------


def _uvarint_size(value: int) -> int:
    """Bytes :func:`_write_uvarint` emits for ``value`` (>= 0)."""
    if value < 128:  # the overwhelmingly common case on the size path
        return 1
    return (value.bit_length() + 6) // 7


def _int_field_size(value: int) -> int:
    """Encoded size of an exact-``int`` value (tag byte + zigzag varint)."""
    zigzagged = value << 1 if value >= 0 else ((-value) << 1) - 1
    # Small-int fast paths: indices, depths and sessions live here.
    if zigzagged < 128:
        return 2
    if zigzagged < 16384:
        return 3
    if zigzagged.bit_length() > _MAX_INT_BITS:
        raise CodecError(f"integer exceeds the codec bound ({_MAX_INT_BITS} bits)")
    return 1 + (zigzagged.bit_length() + 6) // 7


def encoded_envelope_size(envelope: Any) -> int:
    """``len(encode_envelope(envelope))`` without materializing the bytes.

    The batched plane meters every send with its *unbatched* frame size
    (protocol byte accounting is batching-invariant); this composes that
    size from the payload/path memo entries instead of re-encoding the
    whole envelope per recipient.  Falls back to a full encode for any
    envelope shape outside the honest fast path, so the result is exactly
    ``len(encode(envelope))`` in every case (or :class:`CodecError` where
    that would raise).
    """
    _ensure_registered()
    if type(envelope) is not _envelope_type:
        return len(encode(envelope))
    path = envelope.path
    payload = envelope.payload
    if (
        type(path) is not tuple
        or type(payload) not in _memoized_types
        or type(envelope.sender) is not int
        or type(envelope.recipient) is not int
        or type(envelope.depth) is not int
        or type(envelope.session) is not int
    ):
        return len(encode(envelope))
    path_bytes = _path_struct_bytes(path)
    if path_bytes is None:
        return len(encode(envelope))
    # Counting mirrors the unbatched metering encode: one payload.calls
    # (and hit/miss) per metered send.
    payload_bytes = _payload_struct_bytes(payload)
    type_id, fields = _by_type[_envelope_type]
    return (
        1
        + _uvarint_size(type_id)
        + _uvarint_size(len(fields))
        + len(path_bytes)
        + _int_field_size(envelope.sender)
        + _int_field_size(envelope.recipient)
        + len(payload_bytes)
        + _int_field_size(envelope.depth)
        + _int_field_size(envelope.session)
    )


def _batch_payload_bytes(payload: Any) -> bytes:
    """One payload's encoding for batch assembly (never counts stats)."""
    _ensure_registered()
    if type(payload) in _memoized_types:
        return _payload_struct_bytes(payload, count=False)
    return encode(payload)


def _batch_header_into(out: bytearray, envelope: Any) -> None:
    """Append one envelope's routing header (everything but the payload)."""
    out.append(_TAG_TUPLE)
    _write_uvarint(out, 5)
    path = envelope.path
    cached = _path_struct_bytes(path) if type(path) is tuple else None
    if cached is not None:
        out.extend(cached)
    else:
        _encode_into(out, path)
    _encode_into(out, envelope.sender)
    _encode_into(out, envelope.recipient)
    _encode_into(out, envelope.depth)
    _encode_into(out, envelope.session)


def encode_batch(envelopes: Any) -> bytes:
    """Encode several envelopes into one coalesced wire frame body.

    Payloads are deduplicated within the frame (a multicast payload
    shared by k envelopes of the frame is serialized once); a batch of
    one envelope is emitted in the legacy single-envelope format, so
    every output of this function is decodable by :func:`decode_batch`
    and single-envelope outputs also by :func:`decode_envelope`.
    """
    _ensure_registered()
    envelopes = list(envelopes)
    if not envelopes:
        raise CodecError("cannot encode an empty batch")
    if len(envelopes) == 1:
        return encode_envelope(envelopes[0])
    for envelope in envelopes:
        if type(envelope) is not _envelope_type:
            raise CodecError(
                f"expected Envelope, got {type(envelope).__name__}"
            )
    blobs: list[bytes] = []
    index_by_bytes: dict[bytes, int] = {}
    records: list[tuple[int, Any]] = []
    for envelope in envelopes:
        blob = _batch_payload_bytes(envelope.payload)
        index = index_by_bytes.get(blob)
        if index is None:
            index = len(blobs)
            index_by_bytes[blob] = index
            blobs.append(blob)
        records.append((index, envelope))
    out = bytearray((BATCH_MAGIC, BATCH_VERSION))
    _write_uvarint(out, len(blobs))
    for blob in blobs:
        _write_uvarint(out, len(blob))
        out.extend(blob)
    _write_uvarint(out, len(records))
    for index, envelope in records:
        _write_uvarint(out, index)
        _batch_header_into(out, envelope)
    return bytes(out)


def encoded_batch_size(
    envelopes: Any, body_sizes: Optional[list[int]] = None
) -> int:
    """``len(encode_batch(envelopes))`` without materializing the bytes.

    Lets in-process transports (the simulator) account the wire bytes a
    coalesced frame *would* occupy — and therefore the bytes batching
    saves — from the same memo entries the metering uses, at O(1) cost
    per envelope.  ``body_sizes`` optionally supplies each envelope's
    already-known single-frame body size (``encoded_envelope_size``); an
    envelope's batch header is then derived algebraically — every
    envelope encoding is ``3 + path + ints + payload`` bytes and its
    batch header is ``2 + path + ints``, so ``header = body - payload - 1``
    — instead of re-sizing the fields.
    """
    _ensure_registered()
    envelopes = list(envelopes)
    if not envelopes:
        raise CodecError("cannot encode an empty batch")
    if len(envelopes) == 1:
        if body_sizes is not None:
            return body_sizes[0]
        return encoded_envelope_size(envelopes[0])
    blob_total = 0
    blob_count = 0
    index_by_bytes: dict[bytes, int] = {}
    total = 0
    for position, envelope in enumerate(envelopes):
        if type(envelope) is not _envelope_type:
            raise CodecError(f"expected Envelope, got {type(envelope).__name__}")
        blob = _batch_payload_bytes(envelope.payload)
        index = index_by_bytes.get(blob)
        if index is None:
            index = blob_count
            index_by_bytes[blob] = index
            blob_count += 1
            size = len(blob)
            blob_total += _uvarint_size(size) + size
        if body_sizes is not None:
            header = body_sizes[position] - len(blob) - 1
        else:
            path = envelope.path
            path_bytes = (
                _path_struct_bytes(path) if type(path) is tuple else None
            )
            if (
                path_bytes is not None
                and type(envelope.sender) is int
                and type(envelope.recipient) is int
                and type(envelope.depth) is int
                and type(envelope.session) is int
            ):
                header = (
                    2  # tuple tag + count (5 < 128)
                    + len(path_bytes)
                    + _int_field_size(envelope.sender)
                    + _int_field_size(envelope.recipient)
                    + _int_field_size(envelope.depth)
                    + _int_field_size(envelope.session)
                )
            else:
                chunk = bytearray()
                _batch_header_into(chunk, envelope)
                header = len(chunk)
        total += _uvarint_size(index) + header
    return (
        total
        + 2  # magic + version
        + _uvarint_size(blob_count)
        + blob_total
        + _uvarint_size(len(envelopes))
    )


def decode_batch(data: bytes, memo: Optional[ReceiveMemo] = None) -> list:
    """Decode one wire frame body into its list of envelopes.

    Accepts both formats: a body opening with :data:`BATCH_MAGIC` is
    parsed as a multi-envelope batch frame; anything else is decoded as
    one legacy single-envelope frame.  Every envelope passes the same
    validation :func:`decode_envelope` applies; any malformation raises
    :class:`CodecError`.

    ``memo`` is the receiving party's optional :class:`ReceiveMemo`.
    With one, a nested frozen value struct whose bytes the party has
    decoded before comes back as the object decoded then, instead of a
    fresh equal copy; payloads, envelopes and batch headers are always
    built afresh.
    The result equals a memo-less decode, and so does every error.  The
    TCP runtime keeps one memo per local party; ``memo=None`` decodes
    everything afresh.
    """
    _ensure_registered()
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise CodecError(f"expected bytes, got {type(data).__name__}")
    data = bytes(data)
    if not data:
        raise CodecError("empty frame")
    if data[0] != BATCH_MAGIC:
        return [_validate_envelope(decode(data, memo))]
    if len(data) < 2:
        raise CodecError("truncated batch frame")
    if data[1] != BATCH_VERSION:
        raise CodecError(f"unsupported batch frame version {data[1]}")
    from repro.net.payload import Payload

    pos = 2
    blob_count, pos = _read_uvarint(data, pos)
    if blob_count == 0 or blob_count > len(data):
        raise CodecError("batch payload table count out of range")
    payloads = []
    for _ in range(blob_count):
        length, pos = _read_uvarint(data, pos)
        if pos + length > len(data):
            raise CodecError("truncated batch payload blob")
        value, end = _decode_from(data, pos, 0, memo)
        if end != pos + length:
            raise CodecError("batch payload blob length mismatch")
        if not isinstance(value, Payload):
            raise CodecError("batch payload is not a registered Payload")
        payloads.append(value)
        pos = end
    envelope_count, pos = _read_uvarint(data, pos)
    if envelope_count == 0 or envelope_count > len(data):
        raise CodecError("batch envelope count out of range")
    envelopes = []
    for _ in range(envelope_count):
        index, pos = _read_uvarint(data, pos)
        if index >= blob_count:
            raise CodecError("batch payload index out of range")
        header, pos = _decode_from(data, pos)
        if not isinstance(header, tuple) or len(header) != 5:
            raise CodecError("malformed batch envelope header")
        path, sender, recipient, depth, session = header
        envelope = _envelope_type(
            path=path,
            sender=sender,
            recipient=recipient,
            payload=payloads[index],
            depth=depth,
            session=session,
        )
        envelopes.append(_validate_envelope(envelope))
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after batch")
    return envelopes


def encode_heartbeat() -> bytes:
    """The two-byte body of a connection-liveness heartbeat frame.

    Heartbeats are *transport chatter*, not protocol traffic: they carry
    no envelope, are never metered as protocol words/bytes/frames, and a
    receiver identifies them with :func:`is_heartbeat` before attempting
    :func:`decode_batch` (whose strict parser would reject them).
    """
    return bytes((HEARTBEAT_MAGIC, HEARTBEAT_VERSION))


def is_heartbeat(body: bytes) -> bool:
    """True iff a frame body is a well-formed heartbeat."""
    return (
        len(body) == 2
        and body[0] == HEARTBEAT_MAGIC
        and body[1] == HEARTBEAT_VERSION
    )


# -- built-in registrations ------------------------------------------------------------


def _ensure_registered() -> None:
    """Register the repo's payloads and crypto value types (idempotent).

    Registration is lazy so that this module can be imported from anywhere
    in the net layer without creating import cycles with the protocol
    modules it serializes.
    """
    global _builtin_registered, _registering
    if _builtin_registered or _registering:
        return
    # The success flag is only set after every registration ran: if an
    # import fails mid-way, the next call retries and re-raises the real
    # error instead of silently operating on a half-filled registry.
    # The in-progress flag guards against re-entrance while the protocol
    # modules are importing.
    _registering = True
    try:
        _register_builtins()
        _builtin_registered = True
    finally:
        _registering = False


def _register_builtins() -> None:
    from repro.net.envelope import Envelope
    from repro.crypto.pairing import GroupElement
    from repro.crypto import nizk, schnorr
    from repro.crypto.kzg import KZGOpening
    from repro.crypto.merkle import MerkleProof
    from repro.crypto.pvss import ContributorTag, PVSSContribution, PVSSTranscript
    from repro.crypto.reshare import (
        HandoffSpec,
        ReshareBundle,
        ReshareDealing,
        ReshareTranscript,
    )
    from repro.crypto.scalar_pvss import DecryptedShare, ScalarDealing
    from repro.crypto.shamir import ShamirShare
    from repro.crypto.threshold_enc import Ciphertext, DecryptionShare
    from repro.crypto.threshold_sig import SignatureShare, ThresholdSignature
    from repro.crypto.threshold_vrf import EvalShare
    from repro.core.certificates import KeyTuple, SignedVote
    from repro.core.adkg import ADKGShare
    from repro.core.reshare import ReshareDealingMsg
    from repro.core.nwh import (
        BlameMsg,
        CommitMsg,
        EchoMsg,
        EquivocateMsg,
        KeyVoteMsg,
        LockVoteMsg,
        Suggest,
    )
    from repro.core.proposal_election import PEDkgShare, PEEvalShare
    from repro.broadcast.bracha import BrachaEcho, BrachaReady, BrachaVal
    from repro.broadcast.ct_rbc import CTEcho, CTReady, CTVal
    from repro.baselines.aba import Aux, BVal, CoinShareMsg, Decided

    # Substrate.
    register(Envelope, _ENVELOPE_ID)
    global _envelope_type
    _envelope_type = Envelope
    # Crypto value types.
    register(GroupElement, 20)
    register(schnorr.Signature, 21)
    register(nizk.DlogProof, 22)
    register(nizk.DleqProof, 23)
    register(MerkleProof, 24)
    register(KZGOpening, 25)
    register(ContributorTag, 26)
    register(PVSSContribution, 27)
    register(PVSSTranscript, 28)
    register(EvalShare, 29)
    register(SignedVote, 30)
    register(KeyTuple, 31)
    register(SignatureShare, 32)
    register(ThresholdSignature, 33)
    register(Ciphertext, 34)
    register(DecryptionShare, 35)
    register(ScalarDealing, 36)
    register(DecryptedShare, 37)
    register(ShamirShare, 38)
    register(HandoffSpec, 39)
    register(ReshareDealing, 40)
    register(ReshareBundle, 41)
    register(ReshareTranscript, 42)
    # Protocol payloads.
    register(BrachaVal, 64)
    register(BrachaEcho, 65)
    register(BrachaReady, 66)
    register(CTVal, 67)
    register(CTEcho, 68)
    register(CTReady, 69)
    register(PEDkgShare, 70)
    register(PEEvalShare, 71)
    register(Suggest, 72)
    register(EchoMsg, 73)
    register(KeyVoteMsg, 74)
    register(LockVoteMsg, 75)
    register(CommitMsg, 76)
    register(BlameMsg, 77)
    register(EquivocateMsg, 78)
    register(ADKGShare, 79)
    register(BVal, 80)
    register(Aux, 81)
    register(CoinShareMsg, 82)
    register(Decided, 83)
    register(ReshareDealingMsg, 84)
