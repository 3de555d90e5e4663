"""The benchmark in ``perfbench/`` times the engine by replacing module-level
names in the package. A rename of one of those names must fail here rather
than in a benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_shimmed_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while the file loads.
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.SHIMS
    missing = [
        f"sum2act.{module}.{attribute}"
        for module, attribute, _ in tracing.SHIMS
        if not callable(getattr(importlib.import_module(f"sum2act.{module}"), attribute, None))
    ]
    assert missing == []
