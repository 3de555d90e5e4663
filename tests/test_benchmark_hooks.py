"""The benchmark in ``perfbench/`` times the engine by replacing module-level
names in the package. A rename of one of those names, or a refactor that
stops calling one where the benchmark wraps it, must fail here rather than
in a benchmark run (where it would zero a per-layer metric or make the
traced run report that provider calls fell outside their spans)."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from sum2act import (
    EngineConfig,
    ScenarioSession,
    ScriptedProvider,
    default_config,
    load_policy,
    load_scenario,
    run_episode,
)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
METHODS = ("sum2act", "react", "dfsdt")
SCENARIO = ("core", "weather_miami")


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while the file loads.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _shipped_episode(scenarios_root, method, provider=None, executor=None):
    directory, name = SCENARIO
    scenario = load_scenario(scenarios_root / directory / f"{name}.scenario.json")
    policy = load_policy(scenarios_root / directory / f"{name}.policy.json")
    provider = provider(ScriptedProvider(policy)) if provider else ScriptedProvider(policy)
    invoke = ScenarioSession(scenario).invoke
    return run_episode(
        method, provider, scenario.instruction, list(scenario.tools),
        default_config(method), executor(invoke) if executor else invoke,
    )


def test_every_shimmed_name_resolves(tracing):
    assert tracing.SHIMS
    missing = [
        f"sum2act.{module}.{attribute}"
        for module, attribute, _ in tracing.SHIMS
        if not callable(getattr(importlib.import_module(f"sum2act.{module}"), attribute, None))
    ]
    assert missing == []


def test_every_shim_fires(tracing, scenarios_root, monkeypatch):
    calls = Counter()

    def counting(key, function):
        def counted(*args, **kwargs):
            calls[key] += 1
            return function(*args, **kwargs)
        return counted

    for module_name, attribute, _ in tracing.SHIMS:
        module = importlib.import_module(f"sum2act.{module_name}")
        key = f"{module_name}.{attribute}"
        monkeypatch.setattr(module, attribute, counting(key, getattr(module, attribute)))
    for method in METHODS:
        _shipped_episode(scenarios_root, method)
    silent = [
        f"{module}.{attribute}" for module, attribute, _ in tracing.SHIMS
        if not calls[f"{module}.{attribute}"]
    ]
    assert silent == []


@pytest.mark.parametrize("method", METHODS)
def test_traced_episode_reconciles_with_its_trace(tracing, scenarios_root, method):
    tracer = tracing.Tracer()
    modules = {name: importlib.import_module(f"sum2act.{name}")
               for name in ("engine", "router", "state_manager")}
    restore = tracing.install(tracer, modules)
    try:
        tracer.start_episode()
        root = tracer.open("engine.run_episode")
        episode = _shipped_episode(
            scenarios_root, method,
            provider=lambda inner: tracing.ModelledProvider(inner, tracer, None),
            executor=lambda invoke: tracing.modelled_executor(invoke, tracer, None),
        )
        tracer.close(root)
        summary = tracing.summarize(tracer.finish_episode())
    finally:
        restore()
    assert tracing.reconcile(summary, episode, EngineConfig.parse_retries) == []
    assert summary["builds"] >= summary["proposals"] > 0
