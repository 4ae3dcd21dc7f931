"""Measurement helpers shared by the benchmark workloads.

Everything here is pure Python with no dependency on ``repro``, so the
helpers are unit-tested on their own (``test_perfbench.py``):

* :func:`percentile_summary` — the reporting rule for latencies: the median
  plus the highest percentile that has at least :data:`MIN_BEYOND` samples
  beyond it, always together with the sample count;
* :class:`Tracer` — in-memory spans (name, start, end, parent) recorded
  around calls into each layer, with :func:`self_times` and
  :func:`unattributed` closing the accounting;
* :func:`due_time_latencies` / :func:`durable_latencies` — open-loop
  accounting that times every request from when it was *due*, not from when
  the generator got around to sending it;
* :func:`counter_drift` — exact comparison of the noise-free work counters;
* :class:`Pinning` / :class:`Bracket` / :func:`steadiest` — run each timed
  segment on the quietest CPU, express it in reference seconds, and keep
  the segments during which that CPU's speed held steady.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: A percentile is only reported when at least this many samples lie beyond it.
MIN_BEYOND = 10

#: Candidate percentiles, highest first; the first one the sample supports wins.
PERCENTILE_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


# --------------------------------------------------------------------- #
# Percentiles
# --------------------------------------------------------------------- #
def nearest_rank(sorted_values: Sequence[float], percent: float) -> float:
    """The nearest-rank ``percent`` percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(percent / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def samples_beyond(count: int, percent: float) -> int:
    """How many of ``count`` samples lie strictly above the nearest rank."""
    return count - max(1, math.ceil(percent / 100.0 * count))


@dataclass(frozen=True)
class Summary:
    """Median and supported tail of one latency sample."""

    count: int
    p50: float
    tail: float
    tail_percent: float
    #: False when even the median has fewer than MIN_BEYOND samples beyond it;
    #: ``tail`` then repeats the median.
    resolved: bool

    @property
    def tail_label(self) -> str:
        return f"p{self.tail_percent:g}"


def percentile_summary(values: Iterable[float]) -> Summary:
    """Median plus the highest ladder percentile with MIN_BEYOND samples beyond."""
    ordered = sorted(values)
    count = len(ordered)
    if not count:
        raise ValueError("no samples")
    p50 = nearest_rank(ordered, 50.0)
    for percent in PERCENTILE_LADDER:
        if samples_beyond(count, percent) >= MIN_BEYOND:
            return Summary(count, p50, nearest_rank(ordered, percent), percent, True)
    return Summary(count, p50, p50, 50.0, False)


def median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# --------------------------------------------------------------------- #
# Host contention
# --------------------------------------------------------------------- #
#: Iterations of the reference loop: about 6 ms on a quiet core of a shared
#: 2-vCPU virtual machine with Python 3.11.
PROBE_ITERATIONS = 40_000

#: The probe time that defines one reference second.  Timings are reported
#: in reference seconds: measured seconds times ``PROBE_REFERENCE`` over the
#: probe time on the same CPU around the measurement.
PROBE_REFERENCE = 0.006


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The machine is shared: for seconds at a time the same loop runs up to
    twice as fast or as slow on one CPU or the other, which no amount of
    repetition averages away.  See :class:`Pinning` and :class:`Bracket`.
    """
    start = time.perf_counter()
    table: Dict[int, int] = {}
    members = set()
    for i in range(PROBE_ITERATIONS):
        table[i & 1023] = i
        members.add(i % 777)
        if i in members:
            members.discard(i)
    return time.perf_counter() - start


class Pinning:
    """Runs each timed segment on the CPU that is quietest right now.

    On a shared machine each CPU slows down on its own, for seconds at a
    time, so before a segment the benchmark probes every CPU it may use and
    moves itself to the fastest.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cpu = self.cpus[0]

    def settle(self) -> float:
        """Move this process to the fastest CPU; return its probe there."""
        timings = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            timings.append((host_probe(), cpu))
        best, self.cpu = min(timings)
        os.sched_setaffinity(0, {self.cpu})
        return best


@dataclass(frozen=True)
class Bracket:
    """Probes taken on a segment's CPU right before and right after it."""

    before: float
    after: float

    @property
    def scale(self) -> float:
        """Factor that turns the segment's seconds into reference seconds."""
        return PROBE_REFERENCE * 2.0 / (self.before + self.after)

    @property
    def drift(self) -> float:
        """How far the CPU's speed moved during the segment."""
        return abs(self.after - self.before) / min(self.before, self.after)


def steadiest(segments: Sequence, brackets: Sequence[Bracket], keep: int) -> List:
    """``(segment, bracket)`` for the ``keep`` segments whose CPU speed moved
    least while they ran, in run order: only for those does one scale fit."""
    if len(brackets) != len(segments):
        raise ValueError("need one bracket per segment")
    chosen = sorted(range(len(segments)), key=lambda i: (brackets[i].drift, i))[:keep]
    return [(segments[i], brackets[i]) for i in sorted(chosen)]


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #
@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    ident: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; nothing is written until the run ends.

    ``span(name)`` is a context manager whose parent is the innermost open
    span, so nesting in the benchmark code is the causal tree.  Client-side
    service requests are traced as :class:`Request` records instead (due,
    sent and reply times per request).
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._open: List[int] = []

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)


class _SpanContext:
    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: Tracer, name: str) -> None:
        parent = tracer._open[-1] if tracer._open else None
        self._tracer = tracer
        self._span = Span(name, 0.0, 0.0, parent, len(tracer.spans))
        tracer.spans.append(self._span)

    def __enter__(self) -> Span:
        self._tracer._open.append(self._span.ident)
        self._span.start = self._tracer.clock()
        return self._span

    def __exit__(self, *exc_info) -> None:
        self._span.end = self._tracer.clock()
        self._tracer._open.pop()


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def _children(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children = _children(spans)
    result: Dict[int, float] = {}
    for span in spans:
        clipped = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.ident, ())
        ]
        result[span.ident] = span.duration - union_length(clipped)
    return result


def unattributed(spans: Sequence[Span], root: int) -> float:
    """Time of span ``root`` that no child span covers (its self time)."""
    return self_times(spans)[root]


# --------------------------------------------------------------------- #
# Open-loop accounting
# --------------------------------------------------------------------- #
@dataclass
class Request:
    """One client request: when it was due, sent and answered."""

    kind: str
    due: float
    sent: float = 0.0
    replied: float = 0.0
    ok: bool = True
    #: Ingest: absolute 1-based index of the request's last operation.
    last_op: int = 0
    #: Ingest: the ``durable`` counter carried by the reply.
    durable: int = 0


def due_time_latencies(requests: Iterable[Request]) -> Tuple[List[float], List[float]]:
    """``(latency, lateness)`` per answered request, in seconds.

    Latency runs from the due time to the reply, so a stall also charges the
    requests queued behind it; lateness is how far the generator fell behind
    its own schedule (sent − due).
    """
    latency: List[float] = []
    lateness: List[float] = []
    for request in requests:
        latency.append(request.replied - request.due)
        lateness.append(max(0.0, request.sent - request.due))
    return latency, lateness


def durable_latencies(ingests: Sequence[Request]) -> List[float]:
    """Per ingest request: due time -> first reply whose ``durable`` covers it.

    Replies arrive in send order on one connection and ``durable`` never
    decreases, so one forward sweep suffices.  Requests no reply ever covered
    are left out (the caller reports the sample count).
    """
    answered = sorted(
        (r for r in ingests if r.ok), key=lambda r: r.replied
    )
    result: List[float] = []
    cursor = 0
    for request in sorted(ingests, key=lambda r: r.last_op):
        while cursor < len(answered) and answered[cursor].durable < request.last_op:
            cursor += 1
        if cursor == len(answered):
            break
        covering = answered[cursor]
        result.append(max(covering.replied, request.replied) - request.due)
    return result


# --------------------------------------------------------------------- #
# Exact counters
# --------------------------------------------------------------------- #
def counter_drift(
    expected: Mapping[str, float], observed: Mapping[str, float]
) -> List[Tuple[str, Optional[float], Optional[float]]]:
    """Every counter whose value differs, appears or disappears."""
    drift = []
    for name in sorted(set(expected) | set(observed)):
        before = expected.get(name)
        after = observed.get(name)
        if before != after:
            drift.append((name, before, after))
    return drift


# --------------------------------------------------------------------- #
# Process facts
# --------------------------------------------------------------------- #
def _status_mb(pid: int, field: str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} for pid {pid}")


def reset_peak_rss_mb() -> float:
    """Restart this process's resident high-water mark (VmHWM) from its
    current resident size, and return that size in MiB."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")
    return _status_mb(os.getpid(), "VmRSS:")


def proc_peak_rss_mb(pid: int) -> float:
    """Resident high-water mark (VmHWM) of a live process, in MiB."""
    return _status_mb(pid, "VmHWM:")


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU time of a live process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


@dataclass
class Result:
    """What a workload hands back to ``run.py`` (units come from the catalog)."""

    metrics: Dict[str, float] = field(default_factory=dict)
    #: Human-readable qualifier per metric (sample count, percentile, ...).
    notes: Dict[str, str] = field(default_factory=dict)
    #: Exact work counters, checked for drift across repeats and runs.
    counters: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, note: str = "") -> None:
        self.metrics[name] = float(value)
        if note:
            self.notes[name] = note

    def count(self, name: str, value: float) -> None:
        """An exact work counter: reported as a metric and checked for drift."""
        self.counters[name] = value
        self.put(name, value, "exact")

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def latency(
        self, prefix: str, seconds: Iterable[float], what: str = "", p50: bool = True
    ) -> Summary:
        """Report ``<prefix>_p50_ms`` and ``<prefix>_tail_ms`` from a sample."""
        summary = percentile_summary(s * 1000.0 for s in seconds)
        what = f"{what}, " if what else ""
        if p50:
            self.put(f"{prefix}_p50_ms", summary.p50, f"{what}n={summary.count}")
        note = f"{what}{summary.tail_label}, n={summary.count}"
        if not summary.resolved:
            note += f", fewer than {MIN_BEYOND} samples beyond p50"
        self.put(f"{prefix}_tail_ms", summary.tail, note)
        return summary
