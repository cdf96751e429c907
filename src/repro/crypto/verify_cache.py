"""Content-addressed memoization of cryptographic verification.

The protocols above the crypto layer re-verify the same values over and
over: a PVSS transcript arrives once per RBC echo path, a signed vote is
checked inside every certificate that carries it, and (in-process) every
party repeats the identical pairing checks its peers already ran.  All of
these verifications are pure functions of the public directory and the
value bytes, so the repo amortizes them behind a :class:`VerifyCache`.

Safety under Byzantine inputs comes from the cache key, not from trust in
the sender: a result is stored under the SHA-256 of the value's canonical
:mod:`repro.net.codec` encoding (plus a domain tag and any context parts).
A transcript with even one mutated byte encodes to different bytes, hashes
to a different key, and misses the cache — there is no way to inherit a
``True`` verdict from the unmutated original.  Values the codec cannot
encode are never cached (the check simply runs), so the cache can only
deduplicate work, never change a verdict.

Scoping: each :class:`~repro.crypto.keys.PublicDirectory` owns one cache
(created in its ``__post_init__`` default), so results never leak between
runs or between differently-keyed systems, and per-run counters are
meaningful.  Within one simulated run all in-process parties share the
directory and therefore the cache; the ``*.misses`` counter is exactly
"distinct values verified", which is the structural quantity the perf
harness asserts on (see ``benchmarks/bench_hotpath.py``).

Identity memoization (:class:`IdentityMemo`) is a second, cheaper layer:
it maps a *specific object* to a derived value (its canonical digest, its
encoded bytes).  It assumes the object is immutable — true for the frozen
dataclasses that cross the wire — and is keyed by ``id`` with a weakref
guard, so a different (e.g. attacker-rebuilt) object never inherits the
original's entry.
"""

from __future__ import annotations

import functools
import hashlib
import threading
import weakref
from collections import Counter
from typing import Any, Callable, Iterable, Optional, TypeVar

T = TypeVar("T")

_ATOMS = (int, str, bytes, bool, type(None))


class IdentityMemo:
    """An ``id``-keyed memo with weakref invalidation.

    ``get`` returns a previously stored value only if the stored weakref
    still points at the *same object* — a recycled ``id`` after garbage
    collection can never alias a stale entry.  Objects that do not
    support weak references are simply not memoized.
    """

    __slots__ = ("_entries", "__weakref__")

    def __init__(self) -> None:
        self._entries: dict[int, tuple[weakref.ref, Any]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, obj: Any) -> Optional[Any]:
        entry = self._entries.get(id(obj))
        if entry is not None and entry[0]() is obj:
            return entry[1]
        return None

    def put(self, obj: Any, value: Any) -> None:
        oid = id(obj)
        try:
            ref = weakref.ref(obj, functools.partial(_evict, weakref.ref(self), oid))
        except TypeError:
            return  # ints, tuples, ... — not weakref-able, not worth memoizing
        self._entries[oid] = (ref, value)


def _evict(memo_ref: weakref.ref, oid: int, _ref: weakref.ref) -> None:
    """Weakref callback: drop a dead key's entry if its memo still lives.

    The callback holds the memo only weakly.  Closing over the entry dict
    instead would make a cycle (dict -> entry -> weakref -> callback ->
    dict) that kept every cached value of a dropped memo alive until the
    next cyclic garbage collection.
    """
    memo = memo_ref()
    if memo is not None:
        memo._entries.pop(oid, None)


#: Process-wide digest memo: object identity -> canonical content digest.
#: Safe to share across runs because a digest depends only on the value.
_digest_memo = IdentityMemo()


def content_digest(value: Any) -> Optional[bytes]:
    """SHA-256 of ``value``'s canonical codec bytes (identity-memoized).

    Returns ``None`` when the codec cannot encode the value; callers must
    then treat the value as uncacheable.
    """
    cached = _digest_memo.get(value)
    if cached is not None:
        return cached
    from repro.net import codec  # local import: codec registers lazily

    try:
        encoded = codec.encode(value)
    except codec.CodecError:
        return None
    digest = hashlib.sha256(encoded).digest()
    _digest_memo.put(value, digest)
    return digest


def _part_key(part: Any) -> Optional[Any]:
    """A hashable cache-key component for one context part."""
    if isinstance(part, _ATOMS):
        return (type(part).__name__, part)
    return content_digest(part)


#: Canonical-bytes memo for the pool plane only.  Unlike ``_digest_memo``
#: it keeps the full encodings alive (for the objects' lifetime), which
#: is what lets one encode serve both the cache key and the worker task.
_encoding_memo = IdentityMemo()


def content_encoding(value: Any) -> Optional[bytes]:
    """Canonical codec bytes of ``value`` (identity-memoized).

    ``None`` when the codec cannot encode the value.  Only the pool
    dispatch paths use this — the inline plane keeps digests only.
    """
    if isinstance(value, _ATOMS):
        from repro.net import codec

        try:
            return codec.encode(value)
        except codec.CodecError:
            return None
    cached = _encoding_memo.get(value)
    if cached is not None:
        return cached
    from repro.net import codec

    try:
        encoded = codec.encode(value)
    except codec.CodecError:
        return None
    _encoding_memo.put(value, encoded)
    return encoded


def _part_key_and_blob(part: Any) -> Optional[tuple[Any, bytes]]:
    """One encode serving both: the part's cache-key component and its
    worker-task bytes.  Warms ``_digest_memo`` so the consuming
    ``memoize`` keys the same object without re-encoding."""
    if isinstance(part, _ATOMS):
        blob = content_encoding(part)
        if blob is None:
            return None
        return (type(part).__name__, part), blob
    blob = content_encoding(part)
    if blob is None:
        return None
    digest = _digest_memo.get(part)
    if digest is None:
        digest = hashlib.sha256(blob).digest()
        _digest_memo.put(part, digest)
    return digest, blob


#: Placeholder reserved in ``_speculative`` between key reservation and
#: future submission (both on the delivering thread, so never observed
#: by ``memoize``; treated as "no speculation" if it ever is).
_PENDING = ("pending",)


class VerifyCache:
    """Per-directory store of verification verdicts, with counters.

    ``stats`` counts, per domain: ``<domain>.calls`` (every memoize
    request), ``<domain>.hits`` / ``<domain>.misses`` (cacheable requests
    served from / added to the store) and ``<domain>.uncacheable``
    (values the codec could not encode — always recomputed).

    With a :class:`~repro.crypto.pool.PoolVerifier` attached
    (:meth:`attach_pool`), two more paths exist.  *Speculation*
    (:meth:`speculate`): the transport pre-submits a frame's verifiable
    payloads; resolved verdicts wait in a side table and are consumed on
    the first real miss — ``<domain>.misses`` is counted *before* the
    speculative verdict is consulted, so the miss counters (the
    structural "distinct values verified" quantity the benchmarks assert
    on) stay byte-identical to the inline plane.  *Demand dispatch*: a
    miss in a domain registered with ``demand=True`` blocks on one pool
    round-trip instead of computing inline.  Extra counters:
    ``<domain>.speculative`` (tasks submitted), ``.speculative_done``
    (verdicts that resolved unconsumed), ``.speculative_hits`` (misses
    served by speculation) and ``.offloaded`` (demand dispatches).

    All stats and table mutations happen under one lock: speculation
    completion callbacks run on executor threads concurrent with the
    delivering thread.  The lock is never held across ``compute()`` or
    content hashing, so re-entrant verification (a certificate check
    verifying its votes) cannot deadlock.
    """

    __slots__ = (
        "_results",
        "decoded",
        "stats",
        "_identity",
        "_lock",
        "_pool",
        "_pool_contexts",
        "_speculative",
    )

    def __init__(self) -> None:
        self._results: dict[tuple, Any] = {}
        #: Run-scoped broadcast decode memo (codeword bytes -> value),
        #: filled by :func:`repro.broadcast.wire.deserialize`.
        self.decoded: dict[bytes, Any] = {}
        self.stats: Counter = Counter()
        self._identity: dict[str, IdentityMemo] = {}
        self._lock = threading.Lock()
        self._pool: Any = None
        self._pool_contexts: dict[str, tuple] = {}
        self._speculative: dict[tuple, tuple] = {}

    def __len__(self) -> int:
        return len(self._results)

    # -- pool attachment ---------------------------------------------------------------

    def attach_pool(self, pool: Any, contexts: Optional[dict[str, tuple]] = None) -> None:
        """Route future misses/speculations through ``pool``.

        ``contexts`` maps a domain to extra parts appended to every task
        shipped for it — context a worker cannot derive from the
        directory (e.g. a KZG setup's ``g^τ``).  The extra parts are
        *not* in the cache key (they are fixed per cache), only in the
        worker task.
        """
        with self._lock:
            self._pool = pool
            self._pool_contexts = dict(contexts or {})

    def detach_pool(self) -> None:
        """Stop dispatching; in-flight speculations are forgotten.

        Their futures still complete in the pool (results discarded by
        the completion callback finding no owned entry), so nothing is
        abandoned mid-compute.
        """
        with self._lock:
            self._pool = None
            self._pool_contexts = {}
            self._speculative = {}

    @property
    def pool(self) -> Any:
        return self._pool

    # -- memoization -------------------------------------------------------------------

    def identity_memoize(
        self,
        domain: str,
        obj: Any,
        context: tuple,
        parts: tuple,
        compute: Callable[[], T],
    ) -> T:
        """:meth:`memoize` with an object-identity fast layer in front.

        When the *same immutable object* is checked repeatedly under the
        same ``context`` (an in-process multicast fans one frozen payload
        out to n-1 recipients), the verdict is returned from an
        ``id``-keyed memo without hashing anything.  Any context mismatch
        — e.g. a replayed object under a different claimed sender — falls
        through to the content-addressed layer, which re-keys on the
        canonical bytes of ``parts``; a different object with equal bytes
        still hits there.  Counted as a hit: the request was served from
        cache.
        """
        memo = self._identity.get(domain)
        if memo is None:
            memo = self._identity[domain] = IdentityMemo()
        entry = memo.get(obj)
        if entry is not None and entry[0] == context:
            with self._lock:
                self.stats[f"{domain}.calls"] += 1
                self.stats[f"{domain}.hits"] += 1
            return entry[1]
        result = self.memoize(domain, parts, compute)
        memo.put(obj, (context, result))
        return result

    def memoize(self, domain: str, parts: tuple, compute: Callable[[], T]) -> T:
        """Return ``compute()``, served from the cache when possible.

        ``parts`` is the full verification context: the value under test
        plus everything the verdict depends on (thresholds, messages,
        signer indices, ...).  Each part is keyed by its canonical content
        digest, so two contexts share a verdict iff they are byte-equal.
        """
        key_parts = []
        uncacheable = False
        for part in parts:
            part_key = _part_key(part)
            if part_key is None:
                uncacheable = True
                break
            key_parts.append(part_key)
        if uncacheable:
            with self._lock:
                self.stats[f"{domain}.calls"] += 1
                self.stats[f"{domain}.uncacheable"] += 1
            return compute()
        key = (domain, *key_parts)
        with self._lock:
            self.stats[f"{domain}.calls"] += 1
            if key in self._results:
                self.stats[f"{domain}.hits"] += 1
                return self._results[key]
            # A genuine miss is counted *before* any speculative verdict
            # is consumed: miss counters stay identical to the inline
            # plane no matter how speculation raced.
            self.stats[f"{domain}.misses"] += 1
            entry = self._speculative.pop(key, None)
            pool = self._pool
        result: Any = None
        decided = False
        if entry is not None and entry is not _PENDING:
            verdict = self._consume_speculation(domain, entry, pool)
            if verdict is not None:
                result, decided = verdict, True
        if not decided and pool is not None and pool.demands(domain):
            extra = self._pool_contexts.get(domain, ())
            verdict = pool.verify(domain, (*parts, *extra))
            if verdict is not None:
                with self._lock:
                    self.stats[f"{domain}.offloaded"] += 1
                result, decided = verdict, True
        if not decided:
            result = compute()
        with self._lock:
            self._results[key] = result
        return result

    def _consume_speculation(
        self, domain: str, entry: tuple, pool: Any
    ) -> Optional[bool]:
        """Resolve a popped speculative entry, awaiting its future if the
        protocol's request beat the worker (losers are never dropped)."""
        verdict: Optional[bool] = None
        if entry[0] == "done":
            verdict = entry[1]
        elif entry[0] == "future" and pool is not None:
            verdict = pool.result_at(entry[2], entry[3])
        if verdict is not None:
            with self._lock:
                self.stats[f"{domain}.speculative_hits"] += 1
        return verdict

    # -- speculation -------------------------------------------------------------------

    def speculate(self, items: Iterable[tuple[str, tuple]]) -> int:
        """Pre-submit ``(domain, parts)`` verification tasks to the pool.

        Called by the transports with every verifiable payload of a
        just-delivered coalesced frame, *before* the protocol state
        machine activates.  Already-cached and already-speculated keys
        are skipped; heavy (demand-registered) tasks are submitted one
        per future and light tasks chunked one batch per worker (see the
        dispatch comment below).  Returns the number of tasks actually
        submitted.

        Safety: speculation computes the same pure verdicts the inline
        plane would, keyed content-addressed — a Byzantine payload can
        waste worker time but its ``False`` lands under its own bytes'
        key and can never shadow a valid value's verdict.  The call
        consumes no protocol RNG and never reorders delivery.
        """
        pool = self._pool
        if pool is None or pool.broken:
            return 0
        staged = []
        for domain, parts in items:
            if not pool.can_verify(domain):
                continue
            key_parts = []
            blobs = []
            ok = True
            for part in parts:
                keyed = _part_key_and_blob(part)
                if keyed is None:
                    ok = False
                    break
                key_parts.append(keyed[0])
                blobs.append(keyed[1])
            if not ok:
                continue
            # Context parts ship with the task but are not in the key
            # (they are fixed per cache — see attach_pool).
            for part in self._pool_contexts.get(domain, ()):
                blob = content_encoding(part)
                if blob is None:
                    ok = False
                    break
                blobs.append(blob)
            if ok:
                staged.append(((domain, *key_parts), domain, tuple(blobs)))
        if not staged:
            return 0
        encoded = []
        with self._lock:
            for key, domain, blobs in staged:
                if key in self._results or key in self._speculative:
                    continue
                self._speculative[key] = _PENDING
                encoded.append((key, domain, blobs))
        if not encoded:
            return 0
        submitted = 0
        # Heavy (demand-registered) tasks travel one per future: the
        # first consuming ``memoize`` then awaits a single verification,
        # not a worker's whole chunk, while the remaining tasks spread
        # over the other workers.  Light tasks stay chunked so one worker
        # call settles them through the RLC multi-pairing aggregate.
        heavy = [item for item in encoded if pool.demands(item[1])]
        light = [item for item in encoded if not pool.demands(item[1])]
        batches: list[list] = [[item] for item in heavy]
        if light:
            chunk_size = max(1, -(-len(light) // max(1, pool.workers)))
            batches.extend(
                light[start : start + chunk_size]
                for start in range(0, len(light), chunk_size)
            )
        for chunk in batches:
            future = pool.submit([(domain, blob) for _key, domain, blob in chunk])
            with self._lock:
                if future is None:
                    for key, _domain, _blob in chunk:
                        if self._speculative.get(key) is _PENDING:
                            del self._speculative[key]
                    continue
                for index, (key, domain, _blob) in enumerate(chunk):
                    self._speculative[key] = ("future", domain, future, index)
                    self.stats[f"{domain}.speculative"] += 1
            submitted += len(chunk)
            future.add_done_callback(
                lambda f, chunk=chunk: self._on_speculation_done(f, chunk)
            )
        return submitted

    def _on_speculation_done(self, future: Any, chunk: list) -> None:
        """Completion callback (executor thread): park resolved verdicts.

        Only entries still owned by this future are touched — a key the
        protocol already consumed (by awaiting the future directly) or
        re-speculated is left alone.  Undecided slots are dropped so the
        eventual miss computes inline.
        """
        try:
            results = future.result()
        except Exception:
            results = None
        with self._lock:
            for index, (key, domain, _blob) in enumerate(chunk):
                entry = self._speculative.get(key)
                if entry is None or entry[0] != "future" or entry[2] is not future:
                    continue
                verdict = None
                if results is not None and index < len(results):
                    verdict = results[index]
                if verdict is None:
                    del self._speculative[key]
                else:
                    self._speculative[key] = ("done", bool(verdict))
                    self.stats[f"{domain}.speculative_done"] += 1

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy of the counters (for metrics/benchmarks).

        Taken under the cache lock: completion callbacks mutate the
        counters from executor threads.
        """
        with self._lock:
            return dict(self.stats)
