"""What one workload run hands back to ``run.py``."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from perfbench.speed import SpeedProbe
from perfbench.stats import Span, Tally, median

#: A timed interval ``(start, end)`` on the ``time.monotonic`` clock.
Interval = tuple[float, float]


@dataclass
class Measurement:
    """One run of one workload.

    ``setup_s`` are set-up durations and ``latencies`` op durations, and
    ``busy_s`` is the time the load ran, the denominator of ``ops_per_s``;
    all three in seconds at the reference host's speed (see
    :mod:`perfbench.speed`).  ``raw`` keeps the unnormalised set-up and op
    durations, ``speed_factor`` the median normalisation factor of the ops
    and ``speed`` a summary of the probes, for the report.  The traced fields are
    empty for untraced runs: ``spans`` restricted to benchmark ops, the
    layer ``counts`` and extra per-layer metrics read from the program's
    own counters (``layers``).
    """

    setup_s: list[float]
    latencies: list[float]
    busy_s: float
    tally: Tally
    peak_rss_mb: float
    raw: dict[str, list[float]] = field(default_factory=dict)
    speed_factor: float = 1.0
    speed: str = ""
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)


def measured(
    speed: SpeedProbe,
    setups: list[Interval],
    ops: list[Interval],
    busy: list[Interval],
    tally: Tally,
    peak: float,
) -> Measurement:
    """A :class:`Measurement` from raw set-up, op and load intervals, each
    normalised by the speed probes around it."""

    def scaled(intervals: list[Interval]) -> list[float]:
        return [(end - start) * speed.factor(start, end) for start, end in intervals]

    return Measurement(
        setup_s=scaled(setups),
        latencies=scaled(ops),
        busy_s=sum(scaled(busy)),
        tally=tally,
        peak_rss_mb=peak,
        raw={
            "setup_s": [end - start for start, end in setups],
            "latencies": [end - start for start, end in ops],
        },
        speed_factor=median(speed.factor(start, end) for start, end in ops) if ops else 1.0,
        speed=speed.readings(),
    )


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")
