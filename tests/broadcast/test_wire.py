"""Value (de)serialization for dispersal broadcasts."""

import gc

from repro.broadcast.wire import deserialize, serialize
from repro.core.certificates import KeyTuple


def test_roundtrip_plain_values():
    for value in (1, "x", (1, 2, "y"), {"a": (1, 2)}, [1, [2, 3]], None, b"raw"):
        assert deserialize(serialize(value)) == value


def test_roundtrip_protocol_values():
    import random

    from repro.crypto import pvss
    from repro.crypto.keys import TrustedSetup

    setup = TrustedSetup.generate(4, seed=1)
    contribution = pvss.deal(setup.directory, setup.secret(0), random.Random(2))
    assert deserialize(serialize(contribution)) == contribution
    key_tuple = KeyTuple(0, ("v", 1), None)
    assert deserialize(serialize(key_tuple)) == key_tuple


def test_malformed_bytes_give_none():
    assert deserialize(b"") is None
    assert deserialize(b"\x00\x01garbage") is None
    assert deserialize(serialize((1, 2))[:-2]) is None


def _decoded_values(monkeypatch, kinds):
    """Record a weakref to every ``kinds`` value the broadcasts decode."""
    import dataclasses
    import weakref

    from repro.broadcast import wire

    refs = []
    real = wire.deserialize

    def walk(value):
        if isinstance(value, kinds):
            refs.append((type(value), weakref.ref(value)))
        if isinstance(value, (tuple, list)):
            for item in value:
                walk(item)
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            for field in dataclasses.fields(value):
                walk(getattr(value, field.name))

    def recording(*args):
        value = real(*args)
        walk(value)
        return value

    monkeypatch.setattr(wire, "deserialize", recording)
    return refs


def _live(cls):
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


def test_decoded_values_die_with_their_churn_run(monkeypatch, tmp_path):
    """The decode memo is run-scoped: nothing a finished churn run decoded
    (reshare dealings, PVSS transcripts, their group elements) survives it,
    so back-to-back runs hold a flat number of live group elements."""
    from repro.crypto.pairing import GroupElement
    from repro.crypto.pvss import PVSSTranscript
    from repro.crypto.reshare import ReshareDealing
    from repro.service import run_churn

    refs = _decoded_values(monkeypatch, (ReshareDealing, PVSSTranscript))
    live = []
    for seed in (1, 2, 3):
        report = run_churn(
            7,
            epochs=2,
            churn="join:6@1",
            seed=seed,
            base_f=1,
            crash={1: {"indices": (1,), "after": 10, "delay": 2.0}},
            storage_dir=str(tmp_path / str(seed)),
        )
        assert report.all_verified
        del report
        live.append(_live(GroupElement))
    assert {kind for kind, _ref in refs} == {ReshareDealing, PVSSTranscript}
    alive = [kind.__name__ for kind, ref in refs if ref() is not None]
    assert not alive, f"decoded values outlived their run: {alive}"
    assert live[0] == live[1] == live[2], live


def test_decoded_values_die_with_their_adkg_run(monkeypatch):
    from repro import run_adkg
    from repro.crypto.pvss import PVSSTranscript

    refs = _decoded_values(monkeypatch, (PVSSTranscript,))
    result = run_adkg(n=4, seed=5)
    assert result.agreed
    del result
    gc.collect()
    assert refs and all(ref() is None for _kind, ref in refs)
