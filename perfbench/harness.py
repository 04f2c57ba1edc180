"""Shared machinery of the benchmark: statistics, error accounting,
span recording, host calibration and memory.

Everything here is measurement code around the program, not part of it:
the workloads call into ``repro``'s public functions and use these
helpers to time the calls, count failures and keep spans.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a
    ``q`` share of the samples at or below it (``q`` in ``(0, 1]``)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile share must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the nearest-rank
    ``q`` percentile — the support a reported tail percentile has."""
    return count - max(1, math.ceil(q * count))


def whole_passes(seconds: float, one_pass) -> list:
    """Run ``one_pass(number)`` while another pass, at the median pass
    time so far, still fits in ``seconds``; at least one pass runs.
    Whole passes keep each run's composition fixed, so the window's cut
    never decides which statements or queries were measured."""
    passes, walls = [], []
    started = time.perf_counter()
    while not passes or (
        time.perf_counter() - started + statistics.median(walls) <= seconds
    ):
        tick = time.perf_counter()
        passes.append(one_pass(len(passes)))
        walls.append(time.perf_counter() - tick)
    return passes


def geometric_mean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ----------------------------------------------------------------------
# correctness accounting
# ----------------------------------------------------------------------
@dataclass
class Tally:
    """Attempted and failed operations of one run.

    Each operation is recorded once with whatever problems its checks
    found; it fails when there is at least one.  A problem is any of: an
    exception, a cost or count off its pin, a row mismatch, or a served
    plan that differs from the uncached one.  ``error_rate`` is failed
    over attempted.
    """

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, *problems) -> bool:
        """Count one operation; ``None`` entries are checks that passed.
        Returns whether the operation succeeded."""
        self.attempted += 1
        found = [p for p in problems if p is not None]
        if found:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append("; ".join(found))
        return not found

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def cost_problem(what: str, got: float, pinned: float) -> str | None:
    """A cost drift beyond float noise, or ``None``."""
    if math.isclose(got, pinned, rel_tol=1e-9):
        return None
    return f"{what}: cost {got!r} != pinned {pinned!r}"


def mismatch_problem(what: str, got, expected) -> str | None:
    """An exact check (pinned counts, canonical rows, plan
    fingerprints) that failed, or ``None``."""
    if got == expected:
        return None
    return f"{what}: got {_short(got)}, expected {_short(expected)}"


def error_problem(what: str, exc: BaseException) -> str:
    return f"{what}: {type(exc).__name__}: {exc}"


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def work_counts(result) -> dict:
    """Memo and DP work of one exact optimization, as its result reports
    it."""
    return {
        "logical": result.memo.logical_expression_count(),
        "physical": result.memo.physical_expression_count(),
        "states": result.dp_stats["states"],
        "pruned": result.dp_stats["pruned"],
    }


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class SpanRecorder:
    """In-memory spans: name, start, end, parent and request id.

    Spans are kept in a list and written once, when the run ends
    (:meth:`dump`).  ``enabled=False`` makes :meth:`span` a plain
    stopwatch, so the same workload code serves the untraced run.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []

    def add(self, name, start, end, parent=None, request=None) -> int:
        """Record one finished span; returns its id."""
        if not self.enabled:
            return -1
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "request": request,
            }
        )
        return len(self.spans) - 1

    def span(self, name, parent=None, request=None) -> "_Open":
        return _Open(self, name, parent, request)

    def add_tree(self, root, start, parent, request) -> None:
        """Import a program span tree (:class:`repro.obs.trace.Span`,
        durations only) under ``parent``.  The program records no start
        times, so each child is laid out where its previous sibling
        ended, the first at its parent's start."""
        span_id = self.add(
            root.name, start, start + root.elapsed_s, parent, request
        )
        cursor = start
        for child in root.children:
            self.add_tree(child, cursor, span_id, request)
            cursor += child.elapsed_s

    def dump(self, path) -> None:
        summary = {
            name: {"total_s": total, "self_s": own}
            for name, (total, own) in sorted(self_time_by_name(self.spans).items())
        }
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "by_name": summary}, handle)
            handle.write("\n")


class _Open:
    """Context manager for one live span.  Its id is reserved on entry,
    so children opened inside it can name it as their parent; ``elapsed``
    is set on exit."""

    __slots__ = ("recorder", "name", "parent", "request", "start", "elapsed", "id")

    def __init__(self, recorder, name, parent, request):
        self.recorder = recorder
        self.name = name
        self.parent = parent
        self.request = request
        self.elapsed = 0.0
        self.id = None

    def __enter__(self) -> "_Open":
        self.start = time.perf_counter()
        self.id = self.recorder.add(
            self.name, self.start, self.start, self.parent, self.request
        )
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.elapsed = end - self.start
        if self.recorder.enabled:
            self.recorder.spans[self.id]["end"] = end


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval that its children cover (children clipped to the parent)."""
    children: dict[int, list] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        inside = [
            (max(start, c["start"]), min(end, c["end"]))
            for c in children.get(span["id"], ())
            if c["end"] > start and c["start"] < end
        ]
        result[span["id"]] = (end - start) - covered(inside)
    return result


def self_time_by_name(spans) -> dict[str, tuple[float, float]]:
    """``{name: (total seconds, self seconds)}`` summed over spans."""
    own = self_times(spans)
    out: dict[str, tuple[float, float]] = {}
    for span in spans:
        total, mine = out.get(span["name"], (0.0, 0.0))
        out[span["name"]] = (
            total + span["end"] - span["start"],
            mine + own[span["id"]],
        )
    return out


# ----------------------------------------------------------------------
# host context
# ----------------------------------------------------------------------
def host_calibration_ms(repeats: int = 5) -> float:
    """Median wall time of a fixed pure-Python plus numpy micro-loop.

    Printed beside the metrics so that figures from different hosts or
    days can be put side by side; it is context, not a metric a change
    is judged on.
    """
    import numpy as np

    matrix = np.arange(200 * 200, dtype=np.float64).reshape(200, 200) / 4e4
    keys = np.arange(100_000, dtype=np.int64)[::-1].copy()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        table = {}
        for i in range(50_000):
            table[i & 1023] = table.get(i & 1023, 0) + i
        product = matrix
        for _ in range(10):
            product = product @ matrix
        np.sort(keys)
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
