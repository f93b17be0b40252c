"""Benchmark-owned tracing: spans around calls into each layer's public
functions, installed by patching, kept in memory and written out at the end.

Nothing under ``src/`` changes.  :func:`install` replaces each layer's
entry points with timing wrappers and returns a function that restores
them.  Each span records its name, start, end, parent (the innermost open
span of the same thread) and op id; the op id comes from a
caller-supplied function — the benchmark loop's current op in-process,
the ``X-Repro-Trace-Id`` header inside the server.

:func:`layer_metrics` turns spans plus counters into the per-layer
metrics: self time per op for every span name, counts per op, ratios.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Sequence

from perfbench.stats import Span, self_times

#: Span name → per-layer metric name (self time per op, in ms).
TIMED_METRICS = {
    "workloads.resolve": "workloads.resolve_ms",
    "btp.unfold": "btp.unfold_ms",
    "summary.pairwise.register": "summary.pairwise.register_ms",
    "summary.pairwise.ensure": "summary.pairwise.ensure_ms",
    "summary.pairwise.assemble": "summary.pairwise.assemble_ms",
    "summary.planes.pack": "summary.planes.pack_ms",
    "summary.planes.sweep": "summary.planes.sweep_ms",
    "detection.type2": "detection.type2_ms",
    "detection.type1": "detection.type1_ms",
    "detection.blockindex": "detection.blockindex_ms",
    "detection.subsets": "detection.subsets_ms",
    "analysis.evict": "analysis.evict_ms",
    "repair.advise": "repair.advise_ms",
    "repair.fork": "repair.fork_ms",
    "serialize.to_dict": "serialize.to_dict_ms",
    "serialize.json": "serialize.json_ms",
    "service.handle": "service.handle_ms",
    "service.session": "service.session_ms",
    "http": "http.overhead_ms",
}

#: Counter name → per-layer metric name (count per op).
COUNTED_METRICS = {
    "btp.ltps": "btp.ltps",
    "summary.pairwise.blocks_computed": "summary.pairwise.blocks_computed",
    "summary.pairwise.block_hits": "summary.pairwise.block_hits",
    "summary.pairwise.edges": "summary.pairwise.edges",
    "summary.planes.sweeps": "summary.planes.sweeps",
    "summary.planes.rows_packed": "summary.planes.rows_packed",
    "repair.candidates": "repair.candidates",
    "serialize.bytes": "serialize.bytes",
}

#: The root span of one benchmark op (never a layer).
OP = "op"
#: Server span ids are shifted past the client's so joined ids stay unique.
SERVER_ID_OFFSET = 1 << 40


class Recorder:
    """Thread-safe in-memory span and counter sink."""

    def __init__(self, op_source: Callable[[], str | None]):
        self.op_source = op_source
        self.spans: list[Span] = []
        #: Counter name → op id → amount.
        self.counts: dict[str, dict[str | None, float]] = defaultdict(lambda: defaultdict(float))
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, /, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            stack.pop()
            self.spans.append(Span(span_id, parent, self.op_source(), name, start, end))

    def add(self, name: str, amount: float) -> None:
        op = self.op_source()
        with self._lock:
            self.counts[name][op] += amount

    def dump(self, path: str) -> None:
        dump(path, self.spans, self.counts)


def dump(path: str, spans: Sequence[Span], counts: dict) -> None:
    """Write spans and counters as JSON (read back by :func:`load_dump`)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"spans": [list(span) for span in spans], "counts": counts}, handle)


def load_dump(path: str) -> tuple[list[Span], dict[str, dict[str, float]]]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return [Span(*row) for row in data["spans"]], data["counts"]


def op_totals(counts: dict[str, dict], ops: set[str]) -> dict[str, float]:
    """Counter totals over the given ops only (set-up and probe requests
    are left out)."""
    return {
        name: sum(amount for op, amount in per_op.items() if op in ops)
        for name, per_op in counts.items()
    }


# -- installation -------------------------------------------------------------
def _timed(rec: Recorder, name: str, fn: Callable, after=None, before=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(args, kwargs) if before is not None else None
        result = rec.call(name, fn, *args, **kwargs)
        if after is not None:
            after(args, kwargs, result, state)
        return result

    return wrapper


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every layer entry point; returns the function that unwraps."""
    import repro.analysis.session as session_mod
    import repro.repair.advisor as advisor_mod
    import repro.service.http as http_mod
    from repro.analysis.session import AnalysisMatrix, Analyzer
    from repro.churn.monitor import ChurnTrace
    from repro.detection import blockindex
    from repro.detection.api import RobustnessReport
    from repro.detection.subsets import SubsetsReport
    from repro.repair.advisor import RepairAdvisor, RepairReport
    from repro.service.core import AnalysisService
    from repro.summary import planes
    from repro.summary.graph import SummaryGraph
    from repro.summary.pairwise import EdgeBlockStore
    from repro.workloads.base import Workload

    undo: list[Callable[[], None]] = []

    def patch(owner: Any, attr: str, make: Callable[[Callable], Any]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        undo.append(lambda: setattr(owner, attr, original))

    def plain(owner, attr, name, after=None, before=None):
        patch(owner, attr, lambda fn: _timed(rec, name, fn, after, before))

    # Layer: workloads / btp.
    patch(
        Workload,
        "resolve",
        lambda desc: classmethod(_timed(rec, "workloads.resolve", desc.__func__)),
    )
    plain(
        session_mod,
        "unfold_program",
        "btp.unfold",
        after=lambda a, k, result, s: rec.add("btp.ltps", len(result)),
    )

    # Layer: summary.pairwise.
    def cache_counts(args, kwargs):
        info = args[0].cache_info()
        return info["computed"], info["hits"]

    def graph_done(args, kwargs, graph, before):
        info = args[0].cache_info()
        rec.add("summary.pairwise.blocks_computed", info["computed"] - before[0])
        rec.add("summary.pairwise.block_hits", info["hits"] - before[1])
        rec.add("summary.pairwise.edges", len(graph.edges))

    plain(EdgeBlockStore, "register", "summary.pairwise.register")
    plain(EdgeBlockStore, "ensure_blocks", "summary.pairwise.ensure")
    plain(EdgeBlockStore, "graph", "summary.pairwise.assemble", graph_done, cache_counts)

    # Layer: summary.planes.
    plain(
        planes.PlaneArena,
        "add",
        "summary.planes.pack",
        before=lambda a, k: a[0].rows_packed,
        after=lambda a, k, r, rows: rec.add(
            "summary.planes.rows_packed", a[0].rows_packed - rows
        ),
    )
    plain(
        planes,
        "sweep_blocks",
        "summary.planes.sweep",
        after=lambda a, k, r, s: rec.add("summary.planes.sweeps", 1),
    )

    # Layer: detection.
    plain(session_mod, "find_type2_violation", "detection.type2")
    plain(session_mod, "find_type1_violation", "detection.type1")
    # The repair advisor looks its finder up in this table at construction.
    finders = blockindex.BLOCK_WITNESS_FINDERS
    for method, original in list(finders.items()):
        finders[method] = _timed(rec, "detection.blockindex", original)
        undo.append(functools.partial(finders.__setitem__, method, original))
    plain(Analyzer, "robust_subsets", "detection.subsets")

    # Layer: analysis (incremental edits evict the changed program's caches).
    for attr in ("add_program", "remove_program", "replace_program"):
        plain(Analyzer, attr, "analysis.evict")

    # Layer: repair.
    plain(RepairAdvisor, "run", "repair.advise")
    plain(Analyzer, "fork", "repair.fork")
    plain(
        advisor_mod,
        "candidate_edits",
        "repair.advise",
        after=lambda a, k, result, s: rec.add("repair.candidates", len(result)),
    )

    # Layer: serialization.
    for cls in (RobustnessReport, AnalysisMatrix, SubsetsReport, RepairReport, ChurnTrace, SummaryGraph):
        plain(cls, "to_dict", "serialize.to_dict")
    # Module-private, but the one place the HTTP frontend makes response bytes.
    plain(
        http_mod,
        "_json_bytes",
        "serialize.json",
        after=lambda a, k, result, s: rec.add("serialize.bytes", len(result)),
    )

    # Layer: service.
    plain(AnalysisService, "handle", "service.handle")
    plain(AnalysisService, "session", "service.session")

    def uninstall() -> None:
        while undo:
            undo.pop()()

    return uninstall


# -- metrics ------------------------------------------------------------------
def layer_metrics(
    spans: Sequence[Span], counts: dict[str, float], ops: int
) -> tuple[dict[str, float], dict[str, int]]:
    """Per-op self time of every traced layer, per-op counts and
    ``unattributed_ms`` — plus how many spans each layer recorded.

    ``spans`` must already be restricted to benchmark ops; an op's root is
    the span named :data:`OP`.
    """
    selfs = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    seen: dict[str, int] = defaultdict(int)
    for span in spans:
        totals[span.name] += selfs[span.id]
        seen[span.name] += 1
    metrics = {
        metric: 1000.0 * totals.get(name, 0.0) / ops for name, metric in TIMED_METRICS.items()
    }
    metrics["unattributed_ms"] = 1000.0 * totals.get(OP, 0.0) / ops
    for name, metric in COUNTED_METRICS.items():
        metrics[metric] = counts.get(name, 0.0) / ops
    computed = counts.get("summary.pairwise.blocks_computed", 0.0)
    hits = counts.get("summary.pairwise.block_hits", 0.0)
    metrics["summary.pairwise.hit_ratio"] = (
        hits / (hits + computed) if hits + computed else 0.0
    )
    return metrics, dict(seen)


def join_server_spans(client_spans: list[Span], server_spans: list[Span]) -> list[Span]:
    """Join server spans to the client op they served: ids are shifted
    past the client's, and a server root span's parent becomes the
    client's ``http`` span of the same op.  Server spans of requests that
    are not benchmark ops (warm-up, probes) are dropped."""
    http_of = {span.op: span.id for span in client_spans if span.name == "http"}
    joined = list(client_spans)
    for span in server_spans:
        if span.op not in http_of:
            continue
        parent = http_of[span.op] if span.parent is None else span.parent + SERVER_ID_OFFSET
        joined.append(span._replace(id=span.id + SERVER_ID_OFFSET, parent=parent))
    return joined
