"""The service-mix workload: ``repro serve`` in a subprocess, two
closed-loop client threads over HTTP.

The server's stderr (the access log, written before each response body)
goes to a file: an undrained pipe stalls the server once its buffer
fills.  Load starts only after ``/v1/healthz`` answers; the server is
stopped with SIGTERM and must exit 0.  ``peak_rss_mb`` is the server's
``VmHWM``.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.experiments.expected import FIGURE6, TABLE2
from repro.service import AnalysisService
from repro.workloads.base import Workload

from perfbench.inputs import ALL_SETTINGS, WARM, service_ops
from perfbench.measure import Measurement, measured, peak_rss_mb
from perfbench.speed import PROBE_EVERY_S, SpeedProbe
from perfbench.stats import Span, Tally, median
from perfbench.tracing import OP, join_server_spans, load_dump, op_totals

#: Closed-loop client threads (one per core of the 2-core reference host).
CLIENTS = 2
#: Nominal mix throughput on the reference host.  A run sends a fixed
#: number of requests, not a fixed time's worth: each distinct subset
#: grows the pooled session's memo, so a time-bound run would give a
#: faster server more memory (and longer GC pauses).
REQUESTS_PER_SECOND = 110
#: Requests per client in one round.  The clients run a round together,
#: then idle while the speed probe runs; a round takes about
#: ``PROBE_EVERY_S`` on the reference host.
ROUND_REQUESTS = max(1, round(PROBE_EVERY_S * REQUESTS_PER_SECOND / CLIENTS))
#: Before each probe the server must use no CPU for this long (two clock
#: ticks at 100 Hz), waiting at most ``IDLE_LIMIT_S``.
IDLE_SETTLE_S = 0.02
IDLE_LIMIT_S = 1.0
TRACE_HEADER = "X-Repro-Trace-Id"
_LISTENING = re.compile(r"listening on http://([^:]+):(\d+)")
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class Server:
    """One server subprocess with its output files under ``outdir``."""

    def __init__(self, root: str, outdir: str, tag: str, spans_path: str | None):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]))
        if spans_path is None:
            command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            launcher = os.path.join(root, "perfbench", "server.py")
            command = [sys.executable, launcher, spans_path, "serve", "--port", "0"]
        self.stdout_path = os.path.join(outdir, f"{tag}.stdout")
        self.stderr_path = os.path.join(outdir, f"{tag}.stderr")
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(command, cwd=root, env=env, stdout=out, stderr=err)
        try:
            self.host, self.port = self._wait_listening()
            self._wait_healthy()
        except BaseException:
            self.kill()
            raise

    def _wait_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode} before listening")
            with open(self.stdout_path, encoding="utf-8", errors="replace") as handle:
                match = _LISTENING.search(handle.read())
            if match:
                return match.group(1), int(match.group(2))
            time.sleep(0.002)
        raise RuntimeError("server did not report its port in time")

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                status, _ = self.request("GET", "/v1/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("server never answered /v1/healthz")

    def request(self, method: str, path: str, body: bytes | None = None, op: str | None = None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            headers = {"Content-Type": "application/json"}
            if op is not None:
                headers[TRACE_HEADER] = op
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stats(self) -> dict[str, Any]:
        status, data = self.request("GET", "/v1/stats")
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        return json.loads(data)

    def stop(self) -> None:
        """SIGTERM, then require a clean exit."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not exit after SIGTERM") from None
        if code != 0:
            raise RuntimeError(f"server exited with {code} after SIGTERM (see {self.stderr_path})")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _cpu_ticks(pid: int) -> int:
    """User plus system CPU time of a process, in clock ticks."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])


def _wait_idle(pid: int) -> None:
    """Wait until the server has used no CPU for :data:`IDLE_SETTLE_S`
    (at most :data:`IDLE_LIMIT_S`), so that work it does after answering
    — a garbage collection, say — never runs beside a speed probe and
    makes the probe depend on the program."""
    deadline = time.monotonic() + IDLE_LIMIT_S
    ticks = _cpu_ticks(pid)
    while time.monotonic() < deadline:
        time.sleep(IDLE_SETTLE_S)
        now = _cpu_ticks(pid)
        if now == ticks:
            return
        ticks = now


def _warm(server: Server) -> None:
    """Warm the sessions the mix uses (full-set verdicts, and all four
    settings where the mix asks for them)."""
    for workload in WARM:
        bodies = [{"workload": workload}]
        if workload in ALL_SETTINGS:
            bodies.append({"workload": workload, "all_settings": True})
        for body in bodies:
            status, data = server.request("POST", "/v1/analyze", json.dumps(body).encode())
            if status != 200:
                raise RuntimeError(f"warm-up analyze {body} answered {status}: {data[:200]!r}")


def _abbreviated(workloads: dict[str, Workload], name: str, sets) -> frozenset:
    workload = next(w for w in workloads.values() if w.name == name)
    return frozenset(frozenset(workload.abbreviate(p) for p in group) for group in sets)


def _check(kind: str, payload: dict[str, Any], workloads: dict[str, Workload]) -> str | None:
    """Known-answer check of one response; returns the failure or None."""
    if kind == "subsets":
        name, label = payload["workload"], payload["settings"]
        got = _abbreviated(workloads, name, payload["maximal_robust_subsets"])
        if got != FIGURE6[name][label]:
            return f"subsets {name}: {sorted(map(sorted, got))} differs from Figure 6"
    elif kind == "graph":
        stats, expected = payload["stats"], TABLE2["TPC-C"]
        if (stats["edges"], stats["counterflow"]) != (expected["edges"], expected["counterflow"]):
            return f"graph TPC-C: {stats['edges']} edges / {stats['counterflow']} counterflow"
    elif kind == "watch":
        summary = payload["summary"]
        if summary["oracle_checks"] != 1 or summary["oracle_mismatches"] != 0:
            return f"watch: oracle {summary['oracle_mismatches']}/{summary['oracle_checks']} mismatched"
    elif "robust" not in payload and "reports" not in payload and "already_robust" not in payload:
        return f"{kind}: unexpected payload keys {sorted(payload)}"
    return None


def service_mix(
    root: str, seed: int, seconds: float, trace: bool, setups: int, speed: SpeedProbe
) -> Measurement:
    """Send the seeded mix — :data:`REQUESTS_PER_SECOND` requests per
    measured second, split over the clients in rounds of
    :data:`ROUND_REQUESTS` each — and check every answer."""
    per_client = max(1, round(seconds * REQUESTS_PER_SECOND / CLIENTS))
    outdir = os.path.join(root, ".perfbench", "service-mix")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    spans_path = os.path.join(outdir, "spans.json") if trace else None
    workloads = {name: Workload.resolve(name) for name in WARM}
    programs = {name: workload.program_names for name, workload in workloads.items()}

    setup_spans: list[tuple[float, float]] = []
    server = None
    for attempt in range(setups):
        if server is not None:
            _wait_idle(server.proc.pid)
        speed.sample()
        started = time.monotonic()
        candidate = Server(root, outdir, f"server-{attempt}", spans_path)
        try:
            _warm(candidate)
            setup_spans.append((started, time.monotonic()))
            if server is not None:
                server.stop()
        except BaseException:
            candidate.kill()
            if server is not None:
                server.kill()
            raise
        server = candidate

    tally = Tally()
    lock = threading.Lock()
    intervals: list[tuple[float, float]] = []
    rounds: list[tuple[float, float]] = []
    kinds: list[str] = []
    client_spans: list[Span] = []
    sampled: list[tuple[str, str, dict[str, Any], bytes]] = []
    ids = itertools.count(1)
    try:
        before = server.stats()
        streams = [service_ops(seed, index, programs) for index in range(CLIENTS)]

        def client(index: int, first: int, count: int) -> None:
            stream = streams[index]
            for number in range(first, first + count):
                kind, route, body, sample = next(stream)
                op = f"c{index}-{number}"
                with lock:
                    tally.attempt()
                op_start = time.monotonic()
                failure = None
                try:
                    data_out = json.dumps(body).encode()
                    http_start = time.monotonic()
                    status, data = server.request("POST", f"/v1/{route}", data_out, op)
                    http_end = time.monotonic()
                    if status != 200:
                        failure = f"{route} answered {status}: {data[:200]!r}"
                    else:
                        failure = _check(kind, json.loads(data), workloads)
                except Exception as error:  # a failed op is counted, not fatal
                    failure = f"{route}: {type(error).__name__}: {error}"
                op_end = time.monotonic()
                with lock:
                    intervals.append((op_start, op_end))
                    kinds.append(kind)
                    if failure is not None:
                        tally.fail(op, failure)
                        continue
                    if sample:
                        sampled.append((op, route, body, data))
                    if trace:
                        root_id = next(ids)
                        client_spans.append(Span(root_id, None, op, OP, op_start, op_end))
                        client_spans.append(Span(next(ids), root_id, op, "http", http_start, http_end))

        with ThreadPoolExecutor(CLIENTS) as pool:
            for first in range(0, per_client, ROUND_REQUESTS):
                count = min(ROUND_REQUESTS, per_client - first)
                _wait_idle(server.proc.pid)
                speed.sample()
                started = time.monotonic()
                futures = [pool.submit(client, index, first, count) for index in range(CLIENTS)]
                for future in futures:
                    future.result()
                rounds.append((started, time.monotonic()))
        _wait_idle(server.proc.pid)
        speed.sample()
        after = server.stats()
        peak = peak_rss_mb(server.proc.pid)
        server.stop()
    except BaseException:
        server.kill()
        raise

    # Byte-identity: a seeded sample of payloads against in-process dispatch.
    reference = AnalysisService()
    for op, route, body, data in sampled:
        try:
            expected = (json.dumps(reference.handle(route, body), indent=2) + "\n").encode()
        except Exception as error:  # counted against the op
            tally.fail(op, f"{route} {body}: in-process handle() raised {error!r}")
            continue
        if expected != data:
            tally.fail(op, f"{route} {body}: payload differs from in-process handle()")

    result = measured(speed, setup_spans, intervals, rounds, tally, peak)
    result.notes = {
        "byte_identity_samples": len(sampled),
        "clients": CLIENTS,
        "rounds": len(rounds),
        "per_kind": _per_kind(kinds, result.latencies),
    }
    if trace:
        server_spans, counts = load_dump(spans_path)
        result.spans = join_server_spans(client_spans, server_spans)
        result.counts = op_totals(counts, {span.op for span in client_spans})
        result.layers.update(_counter_layers(before, after, tally.attempted))
    return result


def _per_kind(kinds: list[str], latencies: list[float]) -> str:
    """``kind:count/p50 ms/max ms/share`` of every request kind of the mix,
    where share is the kind's part of all request time (the rule that sets
    the mix weights, see :data:`perfbench.inputs.MIX`)."""
    by_kind: dict[str, list[float]] = {}
    for kind, latency in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(1000.0 * latency)
    total = 1000.0 * sum(latencies) or 1.0
    return " ".join(
        f"{kind}:{len(values)}/{median(values):.2f}/{max(values):.1f}/{sum(values) / total:.0%}"
        for kind, values in sorted(by_kind.items())
    )


def _counter_layers(before: dict, after: dict, ops: int) -> dict[str, float]:
    """Per-layer metrics read from ``/v1/stats`` deltas over the load."""
    store_before, store_after = before["store"], after["store"]

    def delta(key: str) -> float:
        return float(store_after[key] - store_before[key])

    hits, misses = delta("shared_hits"), delta("misses")
    pool_hits = after["pool_hits"] - before["pool_hits"]
    pool_misses = after["pool_misses"] - before["pool_misses"]
    return {
        "store.shared_hits": hits / ops,
        "store.misses": misses / ops,
        "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "store.bytes": float(store_after["bytes"]),
        "store.evictions": delta("evictions") / ops,
        "service.pool_hit_ratio": (
            pool_hits / (pool_hits + pool_misses) if pool_hits + pool_misses else 0.0
        ),
        "analysis.memo_entries": float(
            sum(s["cache_info"]["summary_graphs"] + s["cache_info"]["reports"] for s in after["sessions"])
        ),
    }
