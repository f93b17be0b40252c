"""The end-to-end benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-scale --seed 1 --seconds 30 --trace 0

Each run does a fixed amount of work sized to take about ``--seconds``
on the reference host (see NOTES.md for why).  ``--trace 0`` measures
the end-to-end metrics with tracing off.
``--trace 1`` runs the workload twice for half the time each, untraced
then traced with the same seed, and reports the per-layer metrics of the
traced half plus ``trace.overhead_ratio`` (traced over untraced p50).
Every output is checked against a known answer; any failure makes the
command exit 1.  The last line of standard output is the JSON result.
See NOTES.md for the workloads, the metrics and the recorded baselines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Set-ups per untraced run; ``setup_s`` is their median.  A service-mix
#: or cold-scale set-up is mostly a fresh interpreter start (~0.8 s) and
#: spreads most, so it is repeated more; an edit-churn set-up costs ~3 s.
SETUPS = {"cold-scale": 5, "edit-churn": 3, "service-mix": 5}


def _layout_error() -> str | None:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing"
    return None


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["cold-scale", "edit-churn", "service-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    error = _layout_error()
    if error:
        print(f"perfbench: error: {error}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench.report import end_to_end, per_layer, render
    from perfbench.tracing import dump
    from perfbench.inprocess import cold_scale, edit_churn
    from perfbench.service_mix import service_mix
    from perfbench.speed import SpeedProbe

    workload = {"cold-scale": cold_scale, "edit-churn": edit_churn, "service-mix": service_mix}[
        args.workload
    ]

    def runner(seconds: float, trace: bool, setups: int):
        with SpeedProbe() as speed:
            return workload(ROOT, args.seed, seconds, trace, setups, speed)

    if args.trace:
        half = args.seconds / 2
        untraced = runner(half, False, 1)
        traced = runner(half, True, 1)
        runs = [untraced, traced]
        metrics, lines = per_layer(args.workload, untraced, traced)
        spans_path = os.path.join(ROOT, ".perfbench", f"{args.workload}-spans.json")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        dump(spans_path, traced.spans, traced.counts)
        lines.append(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    else:
        run = runner(args.seconds, False, SETUPS[args.workload])
        runs = [run]
        metrics, lines = end_to_end(run)
    attempted = sum(run.tally.attempted for run in runs)
    failed = sum(run.tally.failed for run in runs)
    for line in render(args.workload, runs, lines):
        print(line)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
