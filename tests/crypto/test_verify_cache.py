"""The content-addressed verification cache: amortization and safety.

The load-bearing property is Byzantine-mutation safety: memoization is
keyed by the hash of the value's canonical codec bytes, so a transcript
with even one mutated byte can never inherit the unmutated original's
``True`` verdict — it misses the cache and fails verification on its own
(lack of) merits.
"""

import gc
import random
import weakref

import pytest

from repro.crypto import pvss, threshold_vrf as tvrf
from repro.crypto.keys import TrustedSetup
from repro.crypto.verify_cache import IdentityMemo, VerifyCache, content_digest
from repro.net import codec


@pytest.fixture()
def setup():
    return TrustedSetup.generate(4, seed=11)


def _transcript(setup):
    rng = random.Random(42)
    contributions = [
        pvss.deal(setup.directory, setup.secret(i), rng) for i in range(4)
    ]
    return pvss.aggregate(setup.directory, contributions)


# -- the cache itself -------------------------------------------------------------------


def test_memoize_counts_hits_and_misses():
    cache = VerifyCache()
    calls = []

    def compute():
        calls.append(1)
        return True

    assert cache.memoize("demo", (b"key",), compute) is True
    assert cache.memoize("demo", (b"key",), compute) is True
    assert len(calls) == 1
    assert cache.stats["demo.calls"] == 2
    assert cache.stats["demo.misses"] == 1
    assert cache.stats["demo.hits"] == 1


def test_memoize_uncacheable_values_always_recompute():
    cache = VerifyCache()
    calls = []

    class Opaque:  # not codec-registered, not an atom
        pass

    def compute():
        calls.append(1)
        return False

    value = Opaque()
    assert cache.memoize("demo", (value,), compute) is False
    assert cache.memoize("demo", (value,), compute) is False
    assert len(calls) == 2
    assert cache.stats["demo.uncacheable"] == 2
    assert cache.stats["demo.hits"] == 0


def test_domains_are_separated():
    cache = VerifyCache()
    assert cache.memoize("a", (1,), lambda: True) is True
    assert cache.memoize("b", (1,), lambda: False) is False
    assert cache.stats["a.misses"] == 1
    assert cache.stats["b.misses"] == 1


def test_identity_memo_never_aliases_a_different_object(setup):
    memo = IdentityMemo()
    transcript = _transcript(setup)
    memo.put(transcript, "original")
    assert memo.get(transcript) == "original"
    # A content-equal but distinct object (fresh decode) gets no entry.
    clone = codec.decode(codec.encode(transcript))
    assert clone == transcript
    assert memo.get(clone) is None


def test_dropped_identity_memo_frees_its_values_without_a_collection():
    """A dropped memo whose keys are alive must not keep its cached values.

    The weakref callbacks hold the memo only weakly; closing over its
    entry dict formed a cycle that only a cyclic collection could free.
    """

    class Key:
        pass

    class Cached:
        pass

    keys = [Key() for _ in range(3)]
    memo = IdentityMemo()
    cached = []
    for key in keys:
        value = Cached()
        memo.put(key, value)
        cached.append(weakref.ref(value))
    del value
    assert memo.get(keys[0]) is cached[0]()
    enabled = gc.isenabled()
    gc.disable()
    try:
        del memo
        assert [ref() for ref in cached] == [None, None, None]
    finally:
        if enabled:
            gc.enable()
    # A live memo still evicts the entry of a key that dies.
    memo = IdentityMemo()
    memo.put(keys[0], Cached())
    assert len(memo) == 1
    del key, keys
    assert len(memo) == 0


def test_content_digest_is_content_addressed(setup):
    transcript = _transcript(setup)
    clone = codec.decode(codec.encode(transcript))
    assert content_digest(transcript) == content_digest(clone)
    mutated = pvss.PVSSTranscript(
        commitments=transcript.commitments,
        cipher_shares=tuple(reversed(transcript.cipher_shares)),
        tags=transcript.tags,
    )
    assert content_digest(mutated) != content_digest(transcript)


# -- Byzantine-mutation safety ----------------------------------------------------------


def _flip_one_byte(data: bytes):
    """Yield decodable values obtained by flipping a single byte."""
    for position in range(len(data) - 1, -1, -1):
        mutated = bytearray(data)
        mutated[position] ^= 0x01
        try:
            yield codec.decode(bytes(mutated))
        except codec.CodecError:
            continue


def test_mutated_transcript_never_inherits_cached_verdict(setup):
    directory = setup.directory
    transcript = _transcript(setup)
    assert tvrf.DKGVerify(directory, transcript)  # populates the cache
    assert tvrf.DKGVerify(directory, transcript)  # served from it
    stats = directory.verify_cache.stats
    assert stats["pvss-transcript.hits"] >= 1
    baseline_misses = stats["pvss-transcript.misses"]

    encoded = codec.encode(transcript)
    mutants = 0
    for mutant in _flip_one_byte(encoded):
        if not isinstance(mutant, pvss.PVSSTranscript) or mutant == transcript:
            continue
        mutants += 1
        assert not tvrf.DKGVerify(directory, mutant), "mutated transcript accepted"
        if mutants >= 5:
            break
    assert mutants > 0, "mutation sweep produced no decodable transcript"
    # Every mutant was a fresh cache miss — no stale hit crossed over.
    assert stats["pvss-transcript.misses"] == baseline_misses + mutants


def test_mutated_contribution_rejected_under_memoization(setup):
    directory = setup.directory
    rng = random.Random(7)
    contribution = pvss.deal(directory, setup.secret(0), rng)
    assert pvss.verify_contribution(directory, contribution)
    tampered = pvss.PVSSContribution(
        dealer=contribution.dealer,
        commitments=contribution.commitments,
        cipher_shares=(
            contribution.cipher_shares[0],
        ) + contribution.cipher_shares[:-1],
        tag=contribution.tag,
    )
    assert not pvss.verify_contribution(directory, tampered)
    # And the original still verifies (the tampered copy polluted nothing).
    assert pvss.verify_contribution(directory, contribution)


def test_verdicts_do_not_leak_across_directories():
    a = TrustedSetup.generate(4, seed=1)
    b = TrustedSetup.generate(4, seed=2)
    transcript = _transcript(a)
    assert tvrf.DKGVerify(a.directory, transcript)
    # b has different keys: the same transcript must fail there, even
    # though a's cache holds a True verdict for these bytes.
    assert not tvrf.DKGVerify(b.directory, transcript)
