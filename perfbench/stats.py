"""The benchmark's own statistics, kept free of I/O so they can be tested.

* :func:`tail` — the tail-latency rule: the highest nearest-rank
  percentile that still leaves at least ``beyond`` samples above it.
* :func:`self_times` — a span's self time is its duration minus the
  union of its children's intervals (clipped to the span), so children
  that overlap each other, e.g. spans of two request threads, are
  never subtracted twice.
* :class:`Tally` — ``failed_ratio`` accounting: every attempted op counts
  once, and an op fails at most once however many checks it fails.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Iterable, NamedTuple, Sequence

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


class Tail(NamedTuple):
    value: float
    percentile: float
    samples: int


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Tail:
    """The highest nearest-rank percentile leaving ``beyond`` samples above.

    With ``n`` samples the nearest-rank ``p``-th percentile is the
    ``ceil(p·n/100)``-th smallest value, so the highest rank leaving
    ``beyond`` samples above it is ``n − beyond``, the percentile
    ``100·(n − beyond)/n``.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    rank = n - beyond
    return Tail(sorted(values)[rank - 1], 100.0 * rank / n, n)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


class Span(NamedTuple):
    """One timed call: ``parent`` is a span id or ``None``; ``op`` the
    benchmark op it belongs to (``None`` outside ops)."""

    id: int
    parent: int | None
    op: str | None
    name: str
    start: float
    end: float


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals if end > lo and start < hi
    )
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Self time of every span: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


class Tally:
    """Ops attempted and ops failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.reasons: dict[str, str] = {}

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, op: str, reason: str) -> None:
        """Mark an attempted op failed; a second failure of it is ignored."""
        self.reasons.setdefault(op, reason)

    @property
    def failed(self) -> int:
        return len(self.reasons)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
