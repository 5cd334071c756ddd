"""Timing loop, layer clocks and statistics shared by every workload.

A workload hands out whole *rounds* of items from one closed loop;
the harness times each item, checks its output outside the timed
region, and stops at the first round boundary after the run's time
is up, so every run attempts whole rounds of the same operations.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


class CheckFailed(AssertionError):
    """An item's output disagrees with the independent computation."""


def expect(ok, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``ok`` (works under ``-O``)."""
    if not ok:
        raise CheckFailed(message)


class LayerClock:
    """Wall time spent inside named layer calls during one item.

    ``with clock("octree.partition"): partition(...)`` adds the call's
    wall time to that layer.  The benchmark's own timers: the program
    is not changed to produce them.
    """

    def __init__(self):
        self.ms: dict[str, float] = defaultdict(float)
        self.marks: dict[str, float] = {}
        self._t_item = time.perf_counter()

    @contextmanager
    def __call__(self, layer: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.ms[layer] += (time.perf_counter() - t0) * 1e3

    def mark(self, name: str) -> None:
        """Record the time since the item started (e.g. first image)."""
        self.marks.setdefault(name, (time.perf_counter() - self._t_item) * 1e3)


@dataclass
class ItemRecord:
    """What one timed item produced, beyond its output."""

    kind: str
    latency_ms: float
    cpu_ms: float
    layers: dict
    marks: dict
    nbytes: int
    counts: dict = field(default_factory=dict)


@dataclass
class PhaseResult:
    items: list = field(default_factory=list)
    failed: int = 0
    busy_s: float = 0.0     # seconds inside item calls
    correct: bool = True
    errors: list = field(default_factory=list)


def run_phase(workload, seconds: float) -> PhaseResult:
    """Run whole rounds of ``workload`` for at least ``seconds``.

    Each item is timed alone; its output is checked after the clock
    stops.  An item that raises counts as failed; an item whose check
    fails makes the phase incorrect.
    """
    phase = PhaseResult()
    t_start = time.perf_counter()
    while True:
        for item in workload.round_items():
            clock = LayerClock()
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                out = workload.run(item, clock)
            except Exception as exc:  # a failed operation counts in `failed`
                phase.busy_s += time.perf_counter() - t0
                phase.failed += 1
                phase.errors.append(f"{item!r}: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - t0
            cpu = time.process_time() - c0
            phase.busy_s += elapsed
            try:
                nbytes, counts = workload.check(item, out)
            except Exception as exc:  # an unconfirmed output is not correct
                phase.correct = False
                phase.errors.append(f"{item!r}: check failed: {type(exc).__name__}: {exc}")
                nbytes, counts = 0, {}
            phase.items.append(ItemRecord(
                kind=workload.kind(item),
                latency_ms=elapsed * 1e3,
                cpu_ms=cpu * 1e3,
                layers=dict(clock.ms),
                marks=dict(clock.marks),
                nbytes=int(nbytes),
                counts=counts,
            ))
        if time.perf_counter() - t_start >= seconds:
            return phase


# ----------------------------------------------------------------------
# statistics
def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values, pct: float) -> float:
    """Nearest-rank ``pct`` percentile of ``values``."""
    values = sorted(values)
    return float(values[max(math.ceil(pct / 100.0 * len(values)) - 1, 0)]) if values else 0.0


def throughput(phase: PhaseResult) -> float:
    """Items completed per second of time inside item calls (the
    output checks run with the clock stopped)."""
    return len(phase.items) / phase.busy_s if phase.busy_s > 0 else 0.0


def read_peak_rss_mb() -> float:
    """The process's peak resident set (VmHWM), in MB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
