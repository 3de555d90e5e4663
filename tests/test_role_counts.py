"""``scripts/role_counts.py`` counts what the corpus pins count.

Its calls and prompt chars, summed over the roles, its uncached prompt chars
and its trace digest must equal ``tests/test_corpus_counts.py``'s pins for
every method, so the per-role tables and trace digests it writes for a change
rest on the same counts and traces; its passes per subset must add up to its
passes.
"""

from __future__ import annotations

import importlib.util
import json
import logging
import sys

from .conftest import SCENARIOS_ROOT
from .test_corpus_counts import PINNED, PINNED_UNCACHED

REPO = SCENARIOS_ROOT.parent


def test_corpus_totals_equal_the_corpus_pins(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("role_counts", REPO / "scripts" / "role_counts.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    # The script extends sys.path, sys.modules and the package logger's
    # handlers for its process; undo all three here.
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(logging.getLogger("sum2act"), "handlers", [])
    for name in ("perfbench_workloads", "perfbench_tracing"):
        monkeypatch.setitem(sys.modules, name, None)
    assert script.main(["--src", str(REPO / "src"), "--workload", "corpus"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(out["methods"]) == sorted(PINNED)
    for method, counts in out["methods"].items():
        assert counts["episodes"] == 30
        assert counts["raised"] == {}
        assert (counts["calls"]["total"], counts["prompt_chars"]["total"]) == PINNED[method][:2]
        assert counts["uncached_chars"] == PINNED_UNCACHED[method]
        assert counts["trace_sha256"] == PINNED[method][2]
        assert sorted(counts["passes_by_subset"]) == ["adversarial", "core", "long-horizon", "search"]
        assert sum(counts["passes_by_subset"].values()) == counts["passes"]
    assert out["methods"]["sum2act"]["calls"]["merge"] == 0
    assert out["uncached_prompt_chars_per_episode"] == sum(PINNED_UNCACHED.values()) / 90
