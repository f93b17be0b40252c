"""The removed fan-out options stay accepted, and ignored, for one release.

``jobs``, ``backend`` and ``cell_jobs`` no longer select anything: blocks
are built by one serial plane sweep and grid cells run one after another.
Every outermost entry point still takes them, warns exactly once, and
answers byte for byte what it answers without them.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import Analyzer
from repro.cli import main as cli_main
from repro.service import AnalysisService, GridSpec


def _cli(argv):
    def run(capsys, removed):
        assert cli_main(argv + (removed or [])) == 0
        captured = capsys.readouterr()
        # One stderr line when a removed flag was given, none otherwise.
        assert captured.err.count("\n") == (1 if removed else 0)
        return captured.out

    return run


def _analyzer(capsys, removed):
    return Analyzer("smallbank", **(removed or {})).analyze_matrix().to_json()


def _service(capsys, removed):
    service = AnalysisService(**(removed or {}))
    return json.dumps(
        service.handle("analyze", {"workload": "auction", "all_settings": True})
    )


def _untimed(payload):
    for cell in payload["cells"]:
        del cell["seconds"], cell["mean_seconds"]
    return json.dumps(payload)


_GRID = {"workloads": ("smallbank", "auction"), "task": "subsets"}


def _grid_spec(capsys, removed):
    spec = GridSpec(**_GRID, **(removed or {}))
    return _untimed(AnalysisService().grid(spec).to_dict())


def _grid_body(capsys, removed):
    body = {**_GRID, "workloads": list(_GRID["workloads"]), **(removed or {})}
    return _untimed(AnalysisService().handle("grid", body))


ENTRY_POINTS = {
    "cli-jobs-backend": (
        _cli(["analyze", "smallbank", "--all-settings", "--json"]),
        ["--jobs", "4", "--backend", "process"],
    ),
    "cli-cell-jobs": (_cli(["experiments", "table2"]), ["--cell-jobs", "4"]),
    "analyzer-jobs": (_analyzer, {"jobs": 4}),
    "analyzer-backend": (_analyzer, {"backend": "process"}),
    "service": (_service, {"jobs": 4, "backend": "thread"}),
    "gridspec": (_grid_spec, {"cell_jobs": 4}),
    "grid-body": (_grid_body, {"cell_jobs": 4}),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_removed_option_warns_and_changes_nothing(capsys, entry):
    run, removed = entry
    plain = run(capsys, None)
    with pytest.warns(DeprecationWarning, match="will be removed") as caught:
        deprecated = run(capsys, removed)
    # One warning: nothing passes the option on to an inner layer.
    assert len(caught) == 1
    assert deprecated == plain
