"""Host-speed normalisation of every time the benchmark reports.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within seconds: a fixed pure-Python loop reads 0.14–0.24 s over ten
seconds on the 2-core reference VM, with CPU time tracking wall time, so
the drift is the host's, not scheduling inside the VM.  Runs of the same
code on such a host spread by more than any useful bound.  So every time
metric is reported *at the reference host's speed*:

* a helper process (:class:`SpeedProbe`) times a fixed reference task
  (:func:`reference`) on request.  It runs only while the load is idle — the
  in-process loops probe between ops, service-mix between rounds of
  requests — and in its own interpreter, so neither the program's heap,
  its garbage collector nor anything it installs in the interpreter
  changes what the probe reads;
* a raw duration is multiplied by ``REFERENCE_S / probe``, where
  ``probe`` is the median of the probes within :data:`WINDOW_S` of it,
  the last one before it and the first one after it always included
  (:meth:`SpeedProbe.factor`).  The median over a few seconds follows the
  drift between runs but not a single probe that hit a momentary stall;
  the mean of just the two neighbouring probes let such a probe cut an
  op's time by a third.

A program change moves the normalised figures exactly as it moves the
raw ones, because the reference task does not call the program.  What
the normalisation cannot remove is drift faster than the window, and
slowdowns that hit the program and the probe unequally; medians over
many ops absorb the first.  Every run also prints the raw figures and
the probe readings.

Run as a script, this module is the helper: it reads one line per probe
on stdin and answers with the reference task's duration in seconds.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time

import numpy as np

#: Units of :func:`reference` per probe.  A probe reads ``UNITS`` times
#: its median unit (~11 ms each), so a momentary stall of the host, which
#: would barely touch a long op, does not move the reading.
UNITS = 3
#: Seconds one probe reads on the reference host (2-core Xeon VM, Python
#: 3.11, numpy 2.4) during benchmark runs, where it follows ops that have
#: evicted its data from the caches.  Normalised times read as if every
#: probe of the run had read this.
REFERENCE_S = 0.033
#: The in-process loops probe once at least this many seconds of ops
#: have run since the last probe; service-mix rounds last about as long.
PROBE_EVERY_S = 0.25
#: Seconds on either side of a timed interval whose probes set its factor.
WINDOW_S = 2.0
#: Elements of the reference task's arrays (8 MiB each, beyond the caches).
_ARRAY_LEN = 1 << 20


def reference_data() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reference task's fixed arrays: two of random words and a
    random permutation to gather one of them by."""
    rng = np.random.default_rng(0)
    words = rng.integers(0, 1 << 63, size=(2, _ARRAY_LEN), dtype=np.uint64)
    return words[0], words[1], rng.permutation(_ARRAY_LEN)


def reference(data: tuple[np.ndarray, np.ndarray, np.ndarray], part: int) -> int:
    """One unit of fixed work of the two kinds the analyzer does:
    interpreter work on tuple keys, dicts and frozensets, and numpy passes
    over arrays larger than the caches, which feel the memory contention
    a pure-Python task misses.  ``part`` (0..UNITS-1) picks the slice of
    the arrays the unit gathers.  Probes of both kinds together read about
    half as noisy as pure-Python ones, and tracked the time of Auction(64)
    and Auction(96) cold verdicts better."""
    table: dict[tuple, int] = {}
    acc = 0
    for i in range(2000):
        key = (i % 97, i % 89, "k%d" % (i % 13))
        table[key] = table.get(key, 0) + 1
        acc ^= hash(frozenset((i, i >> 2, i >> 4)))
    left, right, order = data
    size = len(order) // UNITS
    rows = slice(part * size, (part + 1) * size)
    for _ in range(2):
        acc ^= int((left[order[rows]] & right[rows]).sum())
    return acc + len(table)


def _serve() -> int:
    data = reference_data()
    for _ in sys.stdin:
        units = []
        for part in range(UNITS):
            started = time.perf_counter()
            reference(data, part)
            units.append(time.perf_counter() - started)
        print(repr(UNITS * statistics.median(units)), flush=True)
    return 0


class SpeedProbe:
    """The helper process and the probes it has read: ``(time, seconds)``
    pairs, ``time`` on the ``time.monotonic`` clock at the probe's end."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._requests, self._answers = self._proc.stdin, self._proc.stdout

    def sample(self) -> float:
        """Run one probe now (the caller's load must be idle)."""
        self._requests.write("\n")
        self._requests.flush()
        line = self._answers.readline()
        if not line:
            raise RuntimeError(f"speed probe exited with {self._proc.wait()}")
        seconds = float(line)
        self.probes.append((time.monotonic(), seconds))
        return seconds

    def sample_if_due(self) -> None:
        """Probe if :data:`PROBE_EVERY_S` has passed since the last probe."""
        if not self.probes or time.monotonic() - self.probes[-1][0] >= PROBE_EVERY_S:
            self.sample()

    def close(self) -> None:
        """Stop the helper (end of its input) and wait for it."""
        try:
            self._requests.close()
        except OSError:  # the helper already exited
            pass
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._answers.close()

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median probe around ``[start, end]``."""
        return window_factor(self.probes, start, end)

    def readings(self) -> str:
        """The probes of the run, for the printed report."""
        values = [seconds for _, seconds in self.probes]
        return (
            f"{len(values)} speed probes: median {1000.0 * statistics.median(values):.2f} ms, "
            f"min {1000.0 * min(values):.2f}, max {1000.0 * max(values):.2f} "
            f"(reference {1000.0 * REFERENCE_S:.2f} ms)"
        )


def window_factor(probes: list[tuple[float, float]], start: float, end: float) -> float:
    """``REFERENCE_S`` over the median of the probes taken within
    :data:`WINDOW_S` of ``[start, end]``, with the last probe before
    ``start`` and the first after ``end`` always among them.  ``probes``
    are ``(time, seconds)`` pairs sorted by time."""
    if not probes:
        raise ValueError("no speed probe was taken")
    times = [at for at, _ in probes]
    first = min(bisect.bisect_left(times, start - WINDOW_S), bisect.bisect_right(times, start) - 1)
    last = max(bisect.bisect_right(times, end + WINDOW_S), bisect.bisect_left(times, end) + 1)
    chosen = [seconds for _, seconds in probes[max(0, first):last]]
    return REFERENCE_S / statistics.median(chosen)


if __name__ == "__main__":
    sys.exit(_serve())
