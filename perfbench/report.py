"""Turn measurements into the named metrics and the printed report."""

from __future__ import annotations

from perfbench.measure import Measurement
from perfbench.stats import median, tail
from perfbench.tracing import COUNTED_METRICS, TIMED_METRICS, layer_metrics

#: End-to-end metric → unit (failed_ratio is printed, not listed in
#: BENCHMARK.json: it is 0 on a correct run, so no share of its median
#: can bound it; the result line carries ``failed``/``attempted``).
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metric → unit, in BENCHMARK.json order.
PER_LAYER = {
    **{metric: "ms" for metric in TIMED_METRICS.values()},
    **{metric: "count/op" for metric in COUNTED_METRICS.values()},
    "serialize.bytes": "bytes/op",
    "summary.pairwise.hit_ratio": "ratio",
    "analysis.memo_entries": "count",
    "store.shared_hits": "count/op",
    "store.misses": "count/op",
    "store.hit_ratio": "ratio",
    "store.bytes": "bytes",
    "store.evictions": "count/op",
    "service.pool_hit_ratio": "ratio",
    "unattributed_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

_SERVICE_ONLY = {
    "store.shared_hits", "store.misses", "store.hit_ratio", "store.bytes",
    "store.evictions", "service.pool_hit_ratio", "service.handle_ms",
    "service.session_ms", "http.overhead_ms",
}

#: Counter → the span whose calls produce it (absent with that span).
_COUNTER_SPAN = {
    "btp.ltps": "btp.unfold",
    "summary.pairwise.blocks_computed": "summary.pairwise.assemble",
    "summary.pairwise.block_hits": "summary.pairwise.assemble",
    "summary.pairwise.edges": "summary.pairwise.assemble",
    "summary.pairwise.hit_ratio": "summary.pairwise.assemble",
    "summary.planes.sweeps": "summary.planes.sweep",
    "summary.planes.rows_packed": "summary.planes.pack",
    "repair.candidates": "repair.advise",
    "serialize.bytes": "serialize.json",
}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Measurement) -> tuple[dict, list[str]]:
    """The end-to-end metrics of an untraced run, plus printed detail."""
    ms = [1000.0 * value for value in run.latencies]
    tail_ms = tail(ms)
    values = {
        "setup_s": median(run.setup_s),
        "p50_ms": median(ms),
        "tail_ms": tail_ms.value,
        "ops_per_s": len(ms) / run.busy_s,
        "peak_rss_mb": run.peak_rss_mb,
    }
    raw_ms = [1000.0 * value for value in run.raw["latencies"]]
    lines = [
        "times are at the reference host's speed (perfbench/speed.py); "
        f"median speed factor {run.speed_factor:.4f}, {run.speed}",
        f"tail_ms is p{tail_ms.percentile:.2f} of {tail_ms.samples} ops "
        f"(the highest percentile leaving >= 10 beyond it)",
        f"setup_s is the median of {len(run.setup_s)} set-ups: "
        + ", ".join(f"{value:.4f}" for value in run.setup_s),
        f"raw (unnormalised): setup_s {median(run.raw['setup_s']):.4f} s, "
        f"p50_ms {median(raw_ms):.3f} ms, tail_ms {tail(raw_ms).value:.3f} ms",
    ]
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}, lines


def per_layer(workload: str, untraced: Measurement, traced: Measurement) -> tuple[dict, list[str]]:
    """The per-layer metrics of a traced run, plus printed detail (which
    layers are absent from this workload, and why)."""
    ops = len(traced.latencies)
    values, seen = layer_metrics(traced.spans, traced.counts, ops)
    # Layer times, like the end-to-end ones, at the reference host's speed.
    for metric in [*TIMED_METRICS.values(), "unattributed_ms"]:
        values[metric] *= traced.speed_factor
    values.update(traced.layers)
    untraced_p50 = median(untraced.latencies)
    values["trace.overhead_ratio"] = median(traced.latencies) / untraced_p50
    absent = {}
    for metric in PER_LAYER:
        if metric in _SERVICE_ONLY and workload != "service-mix":
            absent[metric] = "no service, block store or HTTP in this in-process workload"
            continue
        span = next((name for name, m in TIMED_METRICS.items() if m == metric), None)
        span = span or _COUNTER_SPAN.get(metric)
        if span is not None and not seen.get(span):
            absent[metric] = f"its ops make no {span} call"
    lines = [
        f"traced {ops} ops; untraced p50 {1000.0 * untraced_p50:.3f} ms, "
        f"traced p50 {1000.0 * median(traced.latencies):.3f} ms "
        f"(reference-host speed; traced-half speed factor {traced.speed_factor:.4f})",
        *(f"absent {metric}: {why}" for metric, why in absent.items()),
    ]
    metrics = {name: _metric(float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER.items()}
    return metrics, lines


def render(workload: str, runs: list[Measurement], extra: list[str]) -> list[str]:
    """Human-readable lines printed before the JSON result."""
    lines = [f"workload {workload}"]
    for run in runs:
        tally = run.tally
        lines.append(
            f"failed_ratio = {tally.failed_ratio:.6f} ratio "
            f"({tally.failed} of {tally.attempted} ops failed)"
        )
        lines += [f"  failed {op}: {why}" for op, why in list(tally.reasons.items())[:20]]
        if run.notes:
            lines.append("notes " + ", ".join(f"{k}={v}" for k, v in run.notes.items()))
    return lines + extra
