"""The closed loop, host-speed correction, set-up probes, the result line."""

from __future__ import annotations

import gc
import hashlib
import os
import random
import re
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path


#: Host-corrected times are in seconds of a host on which ``reference()``
#: takes this long.  On the development host (2 vCPUs, Python 3.11.7) it
#: took 0.10-0.21 s, depending on the load on the shared machine.
REFERENCE_S = 0.15

#: Cold set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5

#: ``peak_rss_mb`` covers this many operations, the warm-up included.
#: The peak rises by about 0.6 MB per churn operation, so a peak over
#: every operation would depend on how many fit in the run.
RSS_OPERATIONS = 5


def reference() -> float:
    """Time a fixed pure-Python loop: how fast the host runs right now.

    The shared host's speed drifts by up to 2x over minutes, far more
    than any bound worth setting.  Each timed interval follows one run of
    this loop, and the median of ``interval / reference()`` is far
    steadier than the median interval.  Like the program, the loop
    allocates and reads a few megabytes of small objects and does some
    big-integer arithmetic.  It calls nothing in the program, so no
    change to the program moves it.
    """
    gc.collect()
    started = time.perf_counter()
    rng = random.Random(7)
    table = {i: (i, str(i)) for i in range(100_000)}
    total = 0
    for _ in range(150_000):
        total += table[rng.randrange(100_000)][0]
    for i in range(4_000):
        total += pow(i + 3, 65537, 2**127 - 1) & 1
    del table
    return time.perf_counter() - started


def corrected(intervals, refs) -> float:
    """Median host-corrected interval, in seconds (see ``REFERENCE_S``)."""
    return median([t / ref for t, ref in zip(intervals, refs)]) * REFERENCE_S


def cold_setup_s(checkout: Path, n: int, seed: int) -> float:
    """Host-corrected median of ``SETUP_PROBES`` cold set-ups.

    Each set-up runs in a fresh interpreter (``setup_probe.py``), right
    after one run of the reference loop.
    """
    probe = Path(__file__).with_name("setup_probe.py")
    command = [sys.executable, str(probe), str(checkout / "src"), str(n), str(seed)]
    times, refs = [], []
    for _ in range(SETUP_PROBES):
        refs.append(reference())
        done = subprocess.run(
            command, capture_output=True, text=True, check=True, timeout=60
        )
        times.append(float(done.stdout.split()[-1]))
    return corrected(times, refs)


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark (Linux) before an operation.

    The reference loop's allocations then do not count toward the peak.
    """
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """Peak resident set size since the last ``reset_peak_rss()``, in MB."""
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024


def op_seed(workload: str, seed: int, index: int) -> int:
    """Operation ``index``'s seed; the warm-up shares operation 0's."""
    digest = hashlib.sha256(f"{workload}|{seed}|{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def median(values, default: float = 0.0) -> float:
    return statistics.median(values) if values else default


def host_record(checkout: Path, workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "commit": commit_id(checkout),
        "loadavg": os.getloadavg(),
    }


def commit_id(checkout: Path) -> str:
    """The checkout's git commit, or a digest of ``src/`` where there is none."""
    head = checkout / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_file = checkout / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(str(path.relative_to(checkout)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


class Bench:
    """One workload's measurement loop and its tallies."""

    def __init__(self, workload, seed: int, seconds: float, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.correct = True
        #: Peak resident set size of each operation, in MB.
        self.rss_mb: list[float] = []

    def attempt(self, index: int, tracer=None):
        """Prepare, run and check one operation; return ``(outcome, wall, ref)``.

        ``ref`` is the reference loop's time just before the operation.
        ``outcome`` is ``None`` when the operation raised or its check
        failed; the traceback goes to standard error.
        """
        seed = op_seed(self.workload.name, self.seed, index)
        self.workdir.mkdir(exist_ok=True)
        prepared = self.workload.prepare(seed, self.workdir)
        wall = 0.0
        ref = reference()
        try:
            gc.collect()
            reset_peak_rss()
            if tracer is None:
                started = time.perf_counter()
                result = prepared.run()
                wall = time.perf_counter() - started
            else:
                tracer.install()
                try:
                    result, wall = tracer.run(prepared.run)
                finally:
                    tracer.uninstall()
            self.rss_mb.append(peak_rss_mb())
            return prepared.check(result), wall, ref
        except Exception:  # counted as a failed operation; measuring goes on
            print(f"# operation {index} (seed {seed}) failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None, wall, ref
        finally:
            prepared.cleanup()

    def record(self, outcome, expected=None):
        """Count one operation; return ``outcome``, or ``None`` if it failed.

        On a deterministic runtime an operation that repeats
        ``expected``'s seed must repeat its structural counts exactly;
        if they diverge the operation fails instead of being averaged.
        """
        self.attempted += 1
        if (
            outcome is not None
            and expected is not None
            and self.workload.deterministic
            and outcome.signature != expected.signature
        ):
            print(
                "# determinism guard: structural counts diverged for one seed\n"
                f"#   {expected.signature!r}\n#   {outcome.signature!r}",
                file=sys.stderr,
            )
            outcome = None
        if outcome is None:
            self.failed += 1
            self.correct = False
        return outcome

    def warm_up(self):
        """The untimed first operation (operation 0's seed).

        Returns its outcome and its time without the reference loop.
        """
        started = time.perf_counter()
        outcome, _, ref = self.attempt(0)
        elapsed = time.perf_counter() - started - ref
        if outcome is None:
            self.correct = False
        return outcome, elapsed

    def loop(self, step) -> None:
        """Call ``step(index)`` until the next call would end past the budget."""
        started = time.perf_counter()
        durations = []
        index = 0
        while True:
            began = time.perf_counter()
            step(index)
            durations.append(time.perf_counter() - began)
            index += 1
            if time.perf_counter() - started + median(durations) > self.seconds:
                return

    def result(self, metrics: dict) -> dict:
        """The last line: ``metrics`` maps a name to ``(value, unit)``."""
        return {
            "correct": self.correct and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }


def plain_run(bench: Bench, checkout: Path) -> dict:
    """Time cold set-ups, warm up, then time plain operations."""
    setup = cold_setup_s(
        checkout, bench.workload.n, op_seed(bench.workload.name, bench.seed, 0)
    )
    warm, warmup_s = bench.warm_up()
    walls: list[float] = []
    refs: list[float] = []
    outcomes: list = []

    def step(index: int) -> None:
        outcome, wall, ref = bench.attempt(index)
        # Operation 0 repeats the warm-up's seed: the determinism guard.
        outcome = bench.record(outcome, warm if index == 0 else None)
        if outcome is not None:
            walls.append(wall)
            refs.append(ref)
            outcomes.append(outcome)

    bench.loop(step)
    op_s = corrected(walls, refs)
    rounds = median([o.rounds for o in outcomes])
    fail_ratio = bench.failed / bench.attempted
    peak_rss = max(bench.rss_mb[:RSS_OPERATIONS], default=0.0)
    lines = bench.workload.report(walls, outcomes) + [
        ("op_s", op_s, "s  (host-corrected)"),
        ("reference_s", median(refs), "s  (reference loop, median)"),
        ("rounds", rounds, "rounds"),
        ("fail_ratio", fail_ratio, f"({bench.failed}/{bench.attempted})"),
        ("setup_s", setup, f"s  (host-corrected, {SETUP_PROBES} cold set-ups)"),
        ("warmup_s", warmup_s, "s  (first operation, with its set-up and check)"),
        ("peak_rss_mb", peak_rss, f"MB (first {RSS_OPERATIONS} operations)"),
        ("all_rss_mb", max(bench.rss_mb, default=0.0), f"MB (all {len(bench.rss_mb)})"),
    ]
    # The human-readable report, under the metric names README.md uses.
    for name, value, unit in lines:
        print(f"# {bench.workload.name:16s} {name:12s} {value:14.4f} {unit}")
    return bench.result(
        {
            "setup_s": (setup, "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "op_s": (op_s, "s"),
            "rounds": (rounds, "rounds"),
            "ok_ratio": (1 - fail_ratio, "ratio"),
        }
    )

