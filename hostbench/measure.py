"""Timing arithmetic shared by the benchmark: host probe, percentiles, spreads.

Nothing here imports ``repro``.  The probe kernel in particular must run no
program code: it measures how fast the *host* is right now, so that an op
timed while the machine is slow can be scaled back to a reference speed.
"""

from __future__ import annotations

import heapq
import math
import os
import random
import statistics
import time
from typing import Dict, List, Mapping, Sequence, Tuple

#: Nominal probe time, in ms, of the reference host.  A host-adjusted time is
#: ``raw_ms * PROBE_REFERENCE_MS / probe_ms``: "the time this op would have
#: taken on a host where the probe takes PROBE_REFERENCE_MS".  The constant
#: only fixes the unit; it must never change, or old and new records stop
#: being comparable.
PROBE_REFERENCE_MS = 2.45

#: Samples a tail percentile must leave beyond itself.
TAIL_BEYOND = 10

#: Minimum distance, in percentile points, between a reported percentile and
#: the boundary between two op classes.
CLASS_MARGIN_POINTS = 10.0


def probe_kernel() -> float:
    """Run the fixed host-speed kernel once; return its wall time in ms.

    The kernel mixes the kinds of work the program does — interpreted
    arithmetic, dict and heap traffic, object allocation and a little
    string formatting — at a fixed size, so its time tracks how fast this
    host currently runs interpreted Python.  It is deterministic (fixed
    seed) and touches no program code.
    """
    start = time.perf_counter()
    acc = 0.0
    table: Dict[int, float] = {}
    for i in range(7000):
        acc += (i * 0.5) ** 0.5
        table[i & 255] = acc
        if i % 7 == 0:
            acc -= table.get(i & 127, 0.0) * 1e-9
    rng = random.Random(12345)
    heap: List[Tuple[float, int]] = []
    records = []
    for i in range(1400):
        x = rng.random()
        heapq.heappush(heap, (x, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        records.append({"i": i, "x": x, "s": str(i)})
    acc += math.fsum(record["x"] for record in records)
    if acc != acc:  # pragma: no cover - keeps the loop from being elided
        raise RuntimeError("probe kernel produced NaN")
    return (time.perf_counter() - start) * 1000.0


#: Probes taken back to back for one reading; their median is the reading,
#: so a scheduler burst during one short probe does not skew it.
PROBES_PER_READING = 3


def probe_reading() -> float:
    """One host-speed reading of every CPU this thread may run on.

    Each CPU of the host switches speed on its own, so a probe describes
    only the CPU it ran on.  The reading is the mean, over the allowed
    CPUs, of the median of ``PROBES_PER_READING`` probes pinned to that
    CPU; a process pinned to one CPU reads that CPU alone.
    """
    allowed = os.sched_getaffinity(0)
    if len(allowed) == 1:
        return statistics.median(probe_kernel()
                                 for _ in range(PROBES_PER_READING))
    readings = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            readings.append(statistics.median(
                probe_kernel() for _ in range(PROBES_PER_READING)))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(readings)


def pin_to_one_cpu() -> int:
    """Pin this process (and the children it starts) to its last allowed
    CPU, so that a reading taken between ops reads the CPU the ops run on.
    Returns the CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def adjust(raw: float, probe_ms: float) -> float:
    """Scale a raw time to the reference host speed."""
    if probe_ms <= 0:
        raise ValueError("probe time must be positive")
    return raw * PROBE_REFERENCE_MS / probe_ms


def bracket_probe_ms(before_ms: float, after_ms: float) -> float:
    """The host speed over a block timed between two probes: their mean."""
    return 0.5 * (before_ms + after_ms)


def tail_rank(n: int) -> int:
    """0-based rank, in ascending order, of the tail sample.

    The tail is the highest percentile with at least ``TAIL_BEYOND``
    samples beyond it: the sample with exactly ``TAIL_BEYOND`` larger
    samples.  A run too short to have one falls back to its largest sample
    (the record's sample count and ``tail_pct`` of 100 show it).
    """
    if n < 1:
        raise ValueError("no samples")
    return n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1


def tail_percentile(n: int) -> float:
    """The percentile the tail rank stands for (``100 * rank / (n - 1)``)."""
    return 100.0 * tail_rank(n) / (n - 1) if n > 1 else 100.0


def latency_summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, tail (with its percentile) and sample count of op times."""
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = tail_rank(n)
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[rank],
        "tail_pct": tail_percentile(n),
        "samples": n,
    }


def class_bands(class_of: Sequence[str],
                latency: Sequence[float]) -> List[Dict[str, float]]:
    """Percentile bands the op classes occupy, cheapest class first.

    Classes are ordered by their median latency; each one occupies the
    share of the percentile axis equal to its share of the ops.
    """
    if len(class_of) != len(latency):
        raise ValueError("one class label per latency")
    by_class: Dict[str, List[float]] = {}
    for label, value in zip(class_of, latency):
        by_class.setdefault(label, []).append(value)
    total = len(latency)
    bands = []
    start = 0.0
    for label, values in sorted(by_class.items(),
                                key=lambda item: statistics.median(item[1])):
        share = 100.0 * len(values) / total
        bands.append({"class": label, "start": start, "end": start + share,
                      "median": statistics.median(values),
                      "samples": len(values)})
        start += share
    return bands


def class_margin(bands: Sequence[Mapping[str, float]], pct: float) -> float:
    """Distance, in points, from a percentile to the nearest interior class
    boundary (``inf`` when there is a single class)."""
    boundaries = [band["end"] for band in bands[:-1]]
    if not boundaries:
        return math.inf
    return min(abs(pct - boundary) for boundary in boundaries)


def check_class_margins(bands: Sequence[Mapping[str, float]],
                        percentiles: Mapping[str, float]) -> Dict[str, object]:
    """Whether every reported percentile keeps ``CLASS_MARGIN_POINTS``
    from every class boundary; returns the margins and the verdict."""
    margins = {name: class_margin(bands, pct)
               for name, pct in percentiles.items()}
    return {"margins": margins,
            "ok": all(margin >= CLASS_MARGIN_POINTS
                      for margin in margins.values())}


def relative_iqr(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median.

    Uses ``statistics.quantiles(values, n=4)`` (the exclusive method), as
    the acceptance rule for run-to-run spread does.
    """
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


class OpLog:
    """Every timed op of a run: raw time, bracketing probe, class, verdict."""

    def __init__(self):
        self.raw_ms: List[float] = []
        self.probe_ms: List[float] = []
        self.cls: List[str] = []
        self.errors: List[str] = []
        self.failed = 0
        self.window_raw_s = 0.0
        self.window_adj_s = 0.0
        self.probes: List[float] = []

    def add_block(self, raw_ms: List[float], classes: List[str],
                  failures: int, window_s: float, before_ms: float,
                  after_ms: float) -> None:
        probe = bracket_probe_ms(before_ms, after_ms)
        self.raw_ms.extend(raw_ms)
        self.probe_ms.extend([probe] * len(raw_ms))
        self.cls.extend(classes)
        self.failed += failures
        self.window_raw_s += window_s
        self.window_adj_s += adjust(window_s, probe)
        self.probes.append(after_ms)

    def note(self, errors: List[str]) -> None:
        """Keep the first few errors of failed ops for the run record."""
        if len(self.errors) < 10:
            self.errors.extend(errors[:2])

    @property
    def adjusted_ms(self) -> List[float]:
        return [adjust(raw, probe)
                for raw, probe in zip(self.raw_ms, self.probe_ms)]

    def summary(self) -> Dict[str, Any]:
        n = len(self.raw_ms)
        raw = latency_summary(self.raw_ms)
        adjusted = latency_summary(self.adjusted_ms)
        bands = class_bands(self.cls, self.adjusted_ms)
        completed = n - self.failed
        return {
            "attempted": n,
            "failed": self.failed,
            "errors": self.errors,
            "samples": n,
            "tail_pct": adjusted["tail_pct"],
            "raw": {"op_p50_ms": raw["p50"], "op_tail_ms": raw["tail"],
                    "ops_per_s": completed / self.window_raw_s},
            "adjusted": {"op_p50_ms": adjusted["p50"],
                         "op_tail_ms": adjusted["tail"],
                         "ops_per_s": completed / self.window_adj_s},
            "probe_ms": {"median": statistics.median(self.probes),
                         "min": min(self.probes), "max": max(self.probes),
                         "count": len(self.probes),
                         "readings": [round(p, 4) for p in self.probes]},
            "class_bands": bands,
            "class_margins": check_class_margins(
                bands, {"op_p50_ms": 50.0, "op_tail_ms": adjusted["tail_pct"]}),
            "raw_ms": [round(v, 4) for v in self.raw_ms],
            "adjusted_ms": [round(v, 4) for v in self.adjusted_ms],
        }


__all__ = [
    "CLASS_MARGIN_POINTS",
    "PROBES_PER_READING",
    "OpLog",
    "PROBE_REFERENCE_MS",
    "TAIL_BEYOND",
    "adjust",
    "bracket_probe_ms",
    "check_class_margins",
    "class_bands",
    "class_margin",
    "latency_summary",
    "probe_kernel",
    "pin_to_one_cpu",
    "probe_reading",
    "relative_iqr",
    "tail_percentile",
    "tail_rank",
]
