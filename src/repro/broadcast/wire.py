"""Value (de)serialization for dispersal-style broadcasts.

The erasure-coded broadcast genuinely fragments a byte string; protocol
values (PVSS transcripts, key tuples, ...) are encoded with the registry
byte codec (:mod:`repro.net.codec`) to produce it.  Word accounting is
*not* derived from the byte length — the logical word size of the
original value travels with the fragments so the metered complexity
matches the paper's model (see ``CTVal.word_size``).

``deserialize`` is hardened for Byzantine-dealer inputs by construction:
the codec never executes attacker-chosen constructors the way
``pickle.loads`` would — unknown type ids, truncated buffers and
structurally invalid values all fail closed, surfacing as ``None`` here
and mapped to "dealer faulty" by the broadcast.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.net import codec

def serialize(value: Any) -> bytes:
    """Encode a protocol value to deterministic codec bytes."""
    return codec.encode(value)


def deserialize(data: bytes, memo: Optional[dict[bytes, Any]] = None) -> Optional[Any]:
    """Decode bytes back into a value; ``None`` if the bytes are malformed.

    ``memo`` is a content-addressed decode memo (bytes → value, pure and
    deterministic) owned by the caller: every party of a run decodes the
    same broadcast codeword, so the broadcast passes its directory's
    :attr:`~repro.crypto.verify_cache.VerifyCache.decoded` and each
    distinct byte string is decoded once per run.  Decoded values are
    frozen dataclasses shared by reference, exactly as the in-process
    simulator already shares the sender's objects.  Scoping the memo to
    the run is what frees them once the run's directory is dropped.
    """
    data = bytes(data)
    codec.encode_stats["wire.decode.calls"] += 1
    if memo is not None and data in memo:
        codec.encode_stats["wire.decode.hits"] += 1
        return memo[data]
    try:
        value = codec.decode(data)
    except codec.CodecError:
        value = None
    if memo is not None:
        memo[data] = value
    return value
