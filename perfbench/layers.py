"""The traced run: per-layer self time, span counts and layer counters.

Plain and traced operations alternate on the same seeds, so the
host-corrected traced wall over the host-corrected plain wall gives the
tracing overhead, and on a
deterministic runtime the pair must repeat the same structural counts
(tracing may slow the program but must not change what it does).
Every per-layer value is per traced operation.
"""

from __future__ import annotations

import sys

from harness import Bench, corrected, median
from spans import LAYERS, ROOT, WAIT, Tracer


def _capture_transport(tracer, args, kwargs, transport, seconds) -> None:
    # Transports of one operation run one after another (churn epochs),
    # so a transport's totals are final when the next one is created.
    if tracer.transports:
        tracer.summaries.append(tracer.transports[-1].metrics.summary())
    tracer.transports.append(transport)


def _save_snapshot(tracer, args, kwargs, result, seconds) -> None:
    blob = args[2] if len(args) > 2 else kwargs["blob"]
    tracer.count("storage.checkpoints")
    tracer.count("storage.snapshot_bytes", len(blob))


def _recover_party(tracer, args, kwargs, result, seconds) -> None:
    tracer.count("storage.recover_s", seconds)
    if result is not None:
        _, stats = result
        tracer.count("storage.wal_records", stats["wal_records"])
        tracer.samples["replay_per_s"].append(stats["replay_per_second"])


def _epoch(tracer, args, kwargs, result, seconds) -> None:
    tracer.samples["epoch_s"].append(seconds)


PROBES = {
    "repro.net.transport:make_transport": _capture_transport,
    "repro.storage.store:SnapshotStore.save_snapshot": _save_snapshot,
    "repro.storage.recovery:recover_party": _recover_party,
    "repro.service.epochs:EpochDriver.run": _epoch,
}


class LayerTracer(Tracer):
    """A tracer with the probes above and the transports they capture."""

    def __init__(self) -> None:
        super().__init__(PROBES)
        self.transports: list = []
        self.summaries: list[dict] = []


#: Counters reported per traced operation, with their units.
PER_OPERATION = (
    ("crypto.verify_cache.misses", "count"),
    ("crypto.pairing.pair_calls", "count"),
    ("net.transport.frames", "count"),
    ("net.transport.deliveries", "count"),
    ("net.transport.wire_bytes", "B"),
    ("net.metrics.messages", "count"),
    ("net.metrics.words", "words"),
    ("storage.checkpoints", "count"),
    ("storage.snapshot_bytes", "B"),
    ("storage.wal_records", "count"),
    ("storage.recover_s", "s"),
)


def _close_operation(tracer: LayerTracer, handoffs: list[float]) -> None:
    """Fold one traced operation's transports and epochs into the tallies."""
    if tracer.transports:
        tracer.summaries.append(tracer.transports[-1].metrics.summary())
    tracer.transports = []
    for summary in tracer.summaries:
        counters = summary.get("counters", {})
        verify = counters.get("verify", {})
        for kind in ("calls", "hits", "misses"):
            total = sum(v for k, v in verify.items() if k.endswith("." + kind))
            tracer.count(f"crypto.verify_cache.{kind}", total)
        encode = counters.get("encode", {})
        tracer.count("payload.calls", encode.get("payload.calls", 0))
        tracer.count("payload.hits", encode.get("payload.hits", 0))
        pair_calls = counters.get("pairing", {}).get("pair_calls", 0)
        tracer.count("crypto.pairing.pair_calls", pair_calls)
        frames = summary.get("frames_total", 0)
        tracer.count("net.transport.frames", frames)
        occupancy = summary.get("batch_occupancy_mean", 0)
        tracer.count("envelopes.batched", occupancy * frames)
        tracer.count("net.transport.deliveries", summary.get("deliveries", 0))
        tracer.count("net.transport.wire_bytes", summary.get("wire_bytes_total", 0))
        tracer.count("net.metrics.messages", summary.get("messages_total", 0))
        tracer.count("net.metrics.words", summary.get("words_total", 0))
    tracer.summaries = []
    # The first epoch of a churn scenario is the fresh ADKG, not a handoff.
    handoffs.extend(tracer.samples.pop("epoch_s", [])[1:])


def traced_run(bench: Bench) -> dict:
    warm, _ = bench.warm_up()
    tracer = LayerTracer()
    plain: dict[str, list[float]] = {"walls": [], "refs": []}
    traced: dict[str, list[float]] = {"walls": [], "refs": []}
    handoffs: list[float] = []

    def step(index: int) -> None:
        plain_outcome, plain_wall, plain_ref = bench.attempt(index)
        plain_outcome = bench.record(plain_outcome, warm if index == 0 else None)
        traced_outcome, traced_wall, traced_ref = bench.attempt(index, tracer)
        traced_outcome = bench.record(traced_outcome, plain_outcome)
        _close_operation(tracer, handoffs)
        if plain_outcome is not None and traced_outcome is not None:
            for tally, wall, ref in (
                (plain, plain_wall, plain_ref),
                (traced, traced_wall, traced_ref),
            ):
                tally["walls"].append(wall)
                tally["refs"].append(ref)

    bench.loop(step)
    metrics = layer_metrics(tracer, plain, traced, handoffs)
    accounted = metrics["trace.accounted"][0]
    if abs(accounted - 1) > 1e-6:
        # The self times plus the root bucket must tile the traced wall.
        print(f"# traced self times cover {accounted!r} of the wall", file=sys.stderr)
        bench.correct = False
    return bench.result(metrics)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: LayerTracer, plain: dict, traced: dict, handoffs) -> dict:
    ops = max(1, tracer.operations)
    wall = tracer.wall_s or 1.0
    counters = tracer.counters
    metrics: dict = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (tracer.spans[layer] / ops, "count")
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer] / ops, "s")
        metrics[f"{layer}.share"] = (tracer.self_s[layer] / wall, "ratio")
    metrics["unattributed.self_s"] = (tracer.self_s[ROOT] / ops, "s")
    metrics["unattributed.share"] = (tracer.self_s[ROOT] / wall, "ratio")
    metrics["net.tcp_runtime.wait_s"] = (tracer.self_s[WAIT] / ops, "s")
    for name, unit in PER_OPERATION:
        metrics[name] = (counters[name] / ops, unit)
    hit_ratio = _ratio(
        counters["crypto.verify_cache.hits"], counters["crypto.verify_cache.calls"]
    )
    overhead = _ratio(
        corrected(traced["walls"], traced["refs"]),
        corrected(plain["walls"], plain["refs"]),
    )
    metrics.update(
        {
            "crypto.verify_cache.hit_ratio": (hit_ratio, "ratio"),
            "net.codec.payload_hit_ratio": (
                _ratio(counters["payload.hits"], counters["payload.calls"]),
                "ratio",
            ),
            "net.transport.occupancy": (
                _ratio(counters["envelopes.batched"], counters["net.transport.frames"]),
                "envelopes/frame",
            ),
            "storage.replay_records_per_s": (
                median(tracer.samples["replay_per_s"]),
                "1/s",
            ),
            "service.handoff_s": (median(handoffs), "s"),
            "host.reference_s": (median(plain["refs"] + traced["refs"]), "s"),
            "trace.wall_s": (median(traced["walls"]), "s"),
            "trace.overhead": (overhead - 1 if plain["walls"] else 0.0, "ratio"),
            "trace.accounted": (sum(tracer.self_s.values()) / wall, "ratio"),
        }
    )
    return metrics
