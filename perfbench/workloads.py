"""The benchmark's workloads, driven only through the public entry points.

Each workload turns a per-operation seed into a prepared operation (the
untimed part: a fresh ``TrustedSetup`` or a fresh storage directory), runs
it, and checks its output.  A check that fails raises ``CheckFailed``;
the caller counts it as a failed operation.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from harness import median
from repro import run_adkg
from repro.crypto.keys import TrustedSetup
from repro.crypto.threshold_vrf import DKGVerify
from repro.net.delays import FixedDelay
from repro.service.membership import run_churn

#: Per-operation limit handed to the program; a run that hits it raises
#: and is counted as a failed operation.
OP_TIMEOUT_S = 40.0


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass
class Outcome:
    """What one checked operation produced, besides its wall clock."""

    rounds: float
    #: Structural counts that must repeat exactly for a repeated seed on
    #: a deterministic runtime (the determinism guard compares these).
    signature: tuple
    messages: int = 0
    words: int = 0
    wire_bytes: int = 0


@dataclass
class Prepared:
    """An operation ready to time, and the check to run on its result."""

    run: Callable[[], Any]
    check: Callable[[Any], Outcome]
    cleanup: Callable[[], None] = lambda: None


def _misses(summary: dict) -> tuple:
    return tuple(
        sorted(
            (f"{group}.{name}", value)
            for group, counters in summary.get("counters", {}).items()
            for name, value in counters.items()
            if name.endswith(".misses")
        )
    )


@dataclass(frozen=True)
class AdkgWorkload:
    """One honest A-DKG at ``n`` parties over ``transport``."""

    name: str
    n: int
    transport: str

    @property
    def deterministic(self) -> bool:
        return self.transport == "sim"

    def prepare(self, seed: int, workdir: Path) -> Prepared:
        setup = TrustedSetup.generate(self.n, seed=seed)
        kwargs: dict[str, Any] = {"timeout": OP_TIMEOUT_S}
        if self.transport == "sim":
            kwargs["delay_model"] = FixedDelay(1.0)

        def run() -> Any:
            return run_adkg(
                n=self.n, seed=seed, setup=setup, transport=self.transport, **kwargs
            )

        return Prepared(run=run, check=lambda result: self.check(result, seed))

    def check(self, result: Any, seed: int) -> Outcome:
        if not result.agreed or len(result.outputs) != self.n:
            raise CheckFailed(
                f"{len(result.outputs)}/{self.n} honest outputs, agreed={result.agreed}"
            )
        # A fresh directory: the run's own VerifyCache would answer from
        # memo instead of re-checking the transcript.
        directory = TrustedSetup.generate(self.n, seed=seed).directory
        if not DKGVerify(directory, result.transcript):
            raise CheckFailed("the agreed transcript fails DKGVerify")
        summary = result.metrics_summary
        return Outcome(
            rounds=result.rounds,
            signature=(
                result.words_total,
                result.messages_total,
                result.rounds,
                summary.get("deliveries"),
                _misses(summary),
            ),
            messages=result.messages_total,
            words=result.words_total,
            wire_bytes=summary.get("wire_bytes_total", 0),
        )

    def report(self, walls: list[float], outcomes: list[Outcome]) -> list[tuple]:
        """``(name, value, unit)`` lines under this workload's own names."""
        count = len(walls)
        msg_us = [wall / o.messages * 1e6 for wall, o in zip(walls, outcomes)]
        lines = [
            ("adkg_s", median(walls), f"s  (median of {count})"),
            ("msg_us", median(msg_us), f"us (median of {count})"),
            ("messages", median([o.messages for o in outcomes]), "messages"),
        ]
        if self.transport == "sim":
            lines.append(("words", median([o.words for o in outcomes]), "words"))
        else:
            lines.append(("wire_bytes", median([o.wire_bytes for o in outcomes]), "B"))
        return lines


@dataclass(frozen=True)
class ChurnWorkload:
    """``run_churn`` with a join, a leave, a threshold change and a crash."""

    name: str
    universe: int
    epochs: int
    churn: str
    crash: dict
    #: run_churn runs on the deterministic simulator.
    deterministic = True

    @property
    def n(self) -> int:
        """Parties in the universe: the size of the cold set-up."""
        return self.universe

    def prepare(self, seed: int, workdir: Path) -> Prepared:
        storage = tempfile.mkdtemp(prefix="churn-", dir=workdir)

        def run() -> Any:
            return run_churn(
                self.universe,
                epochs=self.epochs,
                churn=self.churn,
                seed=seed,
                crash=self.crash,
                storage_dir=storage,
                timeout=OP_TIMEOUT_S,
            )

        return Prepared(
            run=run,
            check=self.check,
            cleanup=lambda: shutil.rmtree(storage, ignore_errors=True),
        )

    def check(self, report: Any) -> Outcome:
        membership = report.membership
        if len(membership.results) != self.epochs:
            raise CheckFailed(f"{len(membership.results)}/{self.epochs} epochs ran")
        # all_verified covers agreement, key invariance and the beacon chain.
        if not report.all_verified:
            raise CheckFailed("churn run is not all_verified")
        replay = {
            (epoch, party): stats["wal_records"]
            for epoch, parties in membership.replay.items()
            for party, stats in parties.items()
        }
        if set(epoch for epoch, _ in replay) != set(self.crash) or not all(
            replay.values()
        ):
            raise CheckFailed(f"crashed parties did not replay a WAL: {replay}")
        rounds = tuple(r.completed_at - r.started_at for r in membership.results)
        return Outcome(
            rounds=sum(rounds),
            signature=(
                rounds,
                tuple(len(r.committee) for r in membership.results),
                tuple(sorted(replay.items())),
                membership.key_encoded,
                tuple(output.value for output in report.outputs),
            ),
        )

    def report(self, walls: list[float], outcomes: list[Outcome]) -> list[tuple]:
        return [("churn_s", median(walls), f"s  (median of {len(walls)})")]


WORKLOADS = {
    workload.name: workload
    for workload in (
        AdkgWorkload("adkg-sim-n16", n=16, transport="sim"),
        AdkgWorkload("adkg-tcp-n10", n=10, transport="tcp"),
        ChurnWorkload(
            "churn-crash-sim",
            universe=8,
            epochs=5,
            churn="join:7@1;leave:0@2;threshold:1@3",
            crash={2: {"indices": (3,), "after": 20, "delay": 3.0}},
        ),
    )
}
