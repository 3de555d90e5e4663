"""``scripts/bench_concurrency.py`` still times a delayed ``bench``.

The script adds its per-call delay by replacing ``cli.ScriptedProvider``. If
``bench`` stopped building its providers through that name, the script would
time an undelayed run and report no calls; this test fails instead.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

from sum2act import cli

from .conftest import REPO, SCENARIOS_ROOT
from .test_counts import PINNED

# report.json of a three-method bench over the shipped corpus.
REPORT_SHA256 = "f7d0e8c0625c7f600c31e5c4ee24291c4e7c608c0d3d823fd9a4a39c639d75cf"


def test_delayed_bench_at_two_levels(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "bench_concurrency", REPO / "scripts" / "bench_concurrency.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    # The script patches cli and sys.path for its process; undo both here.
    monkeypatch.setattr(cli, "ScriptedProvider", cli.ScriptedProvider)
    monkeypatch.setattr(sys, "path", list(sys.path))
    code = script.main([
        "--src", str(REPO / "src"), "--scenario-dir", str(SCENARIOS_ROOT),
        "--concurrency", "1,2", "--delay-ms", "0.5",
    ])
    assert code == 0
    levels = json.loads(capsys.readouterr().out)["levels"]
    assert sorted(levels) == ["1", "2"]
    # A three-method bench makes the corpus's pinned calls (528).
    calls = sum(pins[0] for (workload, _), pins in PINNED.items() if workload == "corpus")
    for level in levels.values():
        assert level["provider_calls"] == calls
        assert level["report_sha256"] == REPORT_SHA256
        assert level["wall_s"] >= level["ideal_wall_s"]
