"""The snapshot memo never changes a checkpoint's bytes.

``Party.freeze`` encodes through a per-party identity memo of frozen
struct values.  These tests hold it to the plain encoding: every blob a
crash-recovery run checkpoints equals the same state encoded with no
memo, a mutated state container shows up in the next blob, and the memo
dies with its party.
"""

import gc
import weakref

import pytest

from repro.broadcast.bracha import BrachaVal
from repro.core.adkg import ADKG
from repro.crypto.keys import TrustedSetup
from repro.crypto.verify_cache import IdentityMemo
from repro.net import codec
from repro.net.delays import FixedDelay
from repro.net.envelope import Envelope
from repro.net.party import Party
from repro.net.runtime import Simulation
from repro.service import run_churn
from repro.storage import run_crash_recovery


@pytest.fixture
def checked_freezes(monkeypatch):
    """Compare every ``Party.freeze`` blob with an unmemoized encode."""
    real = Party.freeze
    blobs = []

    def checked(party):
        blob = real(party)
        assert blob == codec.encode(party.snapshot_value())
        blobs.append(blob)
        return blob

    monkeypatch.setattr(Party, "freeze", checked)
    return blobs


def test_crash_recovery_checkpoints_match_plain_encoding(checked_freezes):
    report = run_crash_recovery(
        transport="sim", n=4, seed=3, crash_indices=[1],
        crash_after=30, recovery_delay=4.0, cadence=4,
    )
    assert len(checked_freezes) >= 5
    assert report["agreement"] and report["valid"]
    assert report["honest_outputs"] == 4  # the recovered party included


def test_mid_handoff_checkpoints_match_plain_encoding(checked_freezes, tmp_path):
    report = run_churn(
        8,
        epochs=3,
        churn="join:7@1;leave:0@2",
        seed=1,
        crash={2: {"indices": (3,), "after": 20, "delay": 3.0}},
        storage_dir=str(tmp_path),
    )
    assert len(checked_freezes) >= 5
    membership = report.membership
    assert membership.key_invariant and report.all_verified
    assert membership.replay[2][3]["wal_records"] > 0
    assert 3 in membership.results[2].outputs  # the recovered party's key


def _party_mid_run(seed=2):
    setup = TrustedSetup.generate(4, seed=seed)
    sim = Simulation(setup, seed=seed, delay_model=FixedDelay(1.0))
    sim.start(lambda p: ADKG())
    sim.run(stop=lambda s: s.steps >= 300)
    return sim.parties[0]


def _holds_struct(value):
    if type(value) in codec._snapshot_types:
        return True
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list, frozenset, set)):
        return any(_holds_struct(item) for item in value)
    return False


def _struct_dict_field(party):
    """A non-empty ``STATE_FIELDS`` dict whose values hold struct values."""
    for state in party.sessions:
        for instance in state.instances.values():
            for name in instance.STATE_FIELDS:
                field = getattr(instance, name)
                if isinstance(field, dict) and _holds_struct(field):
                    return field
    raise AssertionError("no struct-valued state dict mid-run")


def test_mutated_state_container_is_never_served_stale():
    party = _party_mid_run()
    first = party.freeze()
    memo_size = len(party._snapshot_memo)
    assert memo_size > 0
    assert party.freeze() == first  # unchanged state: every struct a hit
    assert len(party._snapshot_memo) == memo_size
    field = _struct_dict_field(party)
    key, value = next(iter(field.items()))
    del field[key]
    removed = party.freeze()
    assert removed != first
    assert removed == codec.encode(party.snapshot_value())
    field[key] = value
    assert party.freeze() == first
    # The same cached struct under a second key: the dict is re-walked.
    field[("copy", key)] = value
    added = party.freeze()
    assert added not in (first, removed)
    assert added == codec.encode(party.snapshot_value())


def test_memo_dies_with_its_party():
    party = _party_mid_run(seed=4)
    party.freeze()
    memo = weakref.ref(party._snapshot_memo)
    del party
    gc.collect()
    assert memo() is None


def test_payloads_and_envelopes_stay_out_of_the_memo():
    """Payloads keep their own memo and counters, even inside a snapshot."""
    memo = IdentityMemo()
    payload = BrachaVal((1, 2, 3))
    envelope = Envelope(
        path=("rbc",), sender=0, recipient=1, payload=payload, depth=1
    )
    calls = codec.encode_stats["payload.calls"]
    assert codec.encode(envelope, memo) == codec.encode(envelope)
    assert codec.encode_stats["payload.calls"] == calls + 2
    assert len(memo) == 0
