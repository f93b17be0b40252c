"""Traced ``repro serve``: install the benchmark's layer wrappers in this
process, run the CLI with the given arguments, write the spans on exit.

Usage: ``python perfbench/server.py SPANS.json serve --port 0``
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro import cli  # noqa: E402
from repro.obs.trace import current_trace_id  # noqa: E402

from perfbench.tracing import Recorder, install  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder(current_trace_id)
    install(recorder)
    code = cli.main(argv)
    recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
