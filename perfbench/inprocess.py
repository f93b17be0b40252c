"""The two in-process workloads: cold-scale and edit-churn (one client each)."""

from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import time
from typing import Any, Callable

from repro.analysis import Analyzer
from repro.experiments.expected import auction_n_counterflow, auction_n_edges
from repro.summary.settings import ATTR_DEP_FK

from perfbench.inputs import COLD_SIZES, churn_plan, cold_scale_ops
from perfbench.measure import Measurement, measured, peak_rss_mb
from perfbench.speed import SpeedProbe
from perfbench.stats import Tally
from perfbench.tracing import OP, Recorder, install, op_totals

#: Nominal seconds per cold-scale size cycle on the reference host
#: (2 cores); a run measures ``round(seconds / COLD_CYCLE_SECONDS)`` cycles.
COLD_CYCLE_SECONDS = 2.0
#: Edit-churn base workload: Auction(24), 48 programs, 5,184 blocks.
CHURN_BASE = "auction(24)"
#: Each edit-churn walk edits its own fork of the one warm analyzer and
#: takes this many seeded steps.  Long walks are not stationary —
#: demotions pile up counterflow edges and the step cost rises ~6x over
#: 400 steps — and single walks differ by up to 4x in median step cost,
#: so a run averages many short walks.
CHURN_WALK_STEPS = 15
#: Nominal seconds per walk on the reference host; a run measures
#: ``round(seconds / CHURN_WALK_SECONDS)`` walks.
CHURN_WALK_SECONDS = 0.4
#: Every K-th step (counted across walks) is checked against a cold
#: analyzer: the last step of every third walk.
CHURN_CHECK_EVERY = 3 * CHURN_WALK_STEPS


def _count(seconds: float, nominal: float) -> int:
    return max(1, round(seconds / nominal))


def _untraced(name: str, fn: Callable, *args: Any) -> Any:
    return fn(*args)


class _Ops:
    """Op bookkeeping shared by the in-process loops: the current op id
    (what spans are attributed to), op intervals, the optional recorder
    and the speed probe, which runs between ops while the load is idle."""

    def __init__(self, trace: bool, speed: SpeedProbe):
        self.current: str | None = None
        self.intervals: list[tuple[float, float]] = []
        self.speed = speed
        self.rec = Recorder(lambda: self.current) if trace else None
        self.call = self.rec.call if self.rec else _untraced

    def traced(self) -> tuple[list, dict[str, float]]:
        """Spans and counter totals of the ops (not of set-up or checks)."""
        spans = [span for span in self.rec.spans if span.op is not None]
        return spans, op_totals(self.rec.counts, {span.op for span in spans})

    def run(self, op_id: str, fn: Callable, *args: Any) -> Any:
        self.speed.sample_if_due()
        self.current = op_id
        started = time.monotonic()
        try:
            return self.call(OP, fn, *args)
        finally:
            self.intervals.append((started, time.monotonic()))
            self.current = None


def cold_scale(
    root: str, seed: int, seconds: float, trace: bool, setups: int, speed: SpeedProbe
) -> Measurement:
    """Fresh-session cold verdicts on Auction(n), n over :data:`COLD_SIZES`.

    Set-up is what a cold caller pays before its first verdict: a fresh
    interpreter importing the library, plus generating the workload texts.
    The run measures whole size cycles, so every run sees each size
    equally often and p50/tail always land on the same sizes.
    """
    cycles = max(4, _count(seconds, COLD_CYCLE_SECONDS))  # >= 11 ops for a tail
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    setup_spans = []
    for _ in range(setups):
        speed.sample()
        started = time.monotonic()
        subprocess.run(
            [sys.executable, "-c", "import repro"], env=env, cwd=root, check=True, timeout=120
        )
        stream = cold_scale_ops(seed)
        texts = [next(stream) for _ in range(cycles * len(COLD_SIZES))]
        setup_spans.append((started, time.monotonic()))
    speed.sample()

    ops = _Ops(trace, speed)
    uninstall = install(ops.rec) if trace else None
    tally = Tally()

    memo_entries = 0

    def verdict(text: str) -> dict[str, Any]:
        nonlocal memo_entries
        session = Analyzer(text)
        payload = session.analyze(ATTR_DEP_FK).to_dict()
        data = ops.call("serialize.json", json.dumps, payload)
        if ops.rec:
            ops.rec.add("serialize.bytes", len(data))
            info = session.cache_info()
            memo_entries += info["summary_graphs"] + info["reports"]
        return payload  # the session is freed inside the op, as for a caller

    try:
        for index, (n, text) in enumerate(texts):
            op_id = f"op-{index}"
            tally.attempt()
            try:
                payload = ops.run(op_id, verdict, text)
            except Exception as error:  # counted; the run stops at the first
                tally.fail(op_id, f"Auction({n}): {type(error).__name__}: {error}")
                break
            graph = payload["graph"]
            expected = (auction_n_edges(n), auction_n_counterflow(n), True)
            got = (graph["edges"], graph["counterflow"], payload["robust"])
            if got != expected:
                tally.fail(op_id, f"Auction({n}): (edges, counterflow, robust) {got} != {expected}")
    finally:
        if uninstall:
            uninstall()
    speed.sample()
    result = measured(speed, setup_spans, ops.intervals, ops.intervals, tally, peak_rss_mb())
    result.notes = {"cycles": cycles}
    if ops.rec:
        result.spans, result.counts = ops.traced()
        result.layers["analysis.memo_entries"] = memo_entries / max(1, tally.attempted)
    return result


def _apply(session: Analyzer, operations) -> None:
    for operation in operations:
        if operation.action == "add":
            session.add_program(operation.program)
        elif operation.action == "remove":
            session.remove_program(operation.name)
        else:
            session.replace_program(operation.program, name=operation.name)


def edit_churn(
    root: str, seed: int, seconds: float, trace: bool, setups: int, speed: SpeedProbe
) -> Measurement:
    """Seeded incremental edits to forks of one warm Auction(24) analyzer.

    Set-up builds and warms the analyzer and walks the mutation engine
    over ``Workload`` objects (no analysis).  Each walk edits a fresh fork
    of the warm analyzer, made before its first step and dropped after
    its last, outside the timed ops, so the heap holds one walk's fork
    at a time: with every fork held, full garbage collections grew with
    the benchmark's own heap (60–330 ms over a run) and were every op
    beyond the tail percentile.  Each op
    applies one step's edits through ``add_program``/``remove_program``/
    ``replace_program`` and calls ``analyze()``.  Every
    :data:`CHURN_CHECK_EVERY`-th report is compared, outside the timed
    region, with a cold analyzer's.
    """
    walks = _count(seconds, CHURN_WALK_SECONDS)
    rng = random.Random(f"{seed}:edit-churn")
    walk_seeds = [rng.randrange(1 << 31) for _ in range(walks)]
    setup_spans = []
    warm = plans = None
    for _ in range(setups):
        # Drop the previous set-up first, so that peak_rss_mb never holds
        # two copies of it and does not depend on the number of set-ups.
        warm = plans = None
        gc.collect()
        speed.sample()
        started = time.monotonic()
        warm = Analyzer(CHURN_BASE)
        warm.analyze(ATTR_DEP_FK)
        plans = [churn_plan(warm.workload, s, CHURN_WALK_STEPS) for s in walk_seeds]
        setup_spans.append((started, time.monotonic()))
    speed.sample()

    ops = _Ops(trace, speed)
    uninstall = install(ops.rec) if trace else None
    tally = Tally()
    checkpoints = []
    memo_entries = 0

    def step(session, operations):
        _apply(session, operations)
        return session.analyze(ATTR_DEP_FK)

    try:
        for walk, plan in enumerate(plans):
            session = warm.fork()
            for index, (operations, expected) in enumerate(plan):
                op_id = f"op-{walk}-{index}"
                tally.attempt()
                try:
                    report = ops.run(op_id, step, session, operations)
                except Exception as error:  # counted; later steps assume this one applied
                    tally.fail(op_id, f"{type(error).__name__}: {error}")
                    break
                if session.workload.program_names != expected:
                    tally.fail(op_id, "programs differ from the plan")
                if tally.attempted % CHURN_CHECK_EVERY == 0:
                    checkpoints.append((op_id, report.to_dict(), session.workload))
            info = session.cache_info()
            memo_entries += info["summary_graphs"] + info["reports"]
            session = None
    finally:
        if uninstall:
            uninstall()
    speed.sample()
    peak = peak_rss_mb()
    for op_id, payload, workload in checkpoints:
        if Analyzer(workload).analyze(ATTR_DEP_FK).to_dict() != payload:
            tally.fail(op_id, "incremental report differs from a cold analyzer's")
    result = measured(speed, setup_spans, ops.intervals, ops.intervals, tally, peak)
    result.notes = {"walks": walks, "steps_per_walk": CHURN_WALK_STEPS, "checked_steps": len(checkpoints)}
    if ops.rec:
        result.spans, result.counts = ops.traced()
        result.layers["analysis.memo_entries"] = memo_entries / walks
    return result
