"""Pins the deterministic cost of the benchmark's generated workloads:
provider calls, prompt chars, the serialized traces and the episodes that
raise, per method, for ``long_state`` and ``flaky_live`` at seed 5.

The inputs come from ``perfbench/workloads.py``, loaded from its file
without writing to ``perfbench/``. A change that moves a count or a trace
byte of the workloads the benchmark times fails here, before any benchmark
run.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from sum2act import (
    RecordingProvider,
    ScenarioSession,
    ScriptedProvider,
    default_config,
    load_policy,
    load_scenario,
    run_episode,
    serialize_episode,
)
from sum2act.errors import Sum2ActError

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
SEED = 5

# (workload, method): (provider calls that returned, their prompt chars,
# sha256 of the traces of the episodes that ended, each followed by "\n",
# {scenario id: exception type} of the episodes that raised). dfsdt raises
# RequestTooLarge on the two heavy chains, since it keeps whole payloads in
# its branch memory (a known defect); the call that raises is not counted.
PINNED = {
    ("long_state", "sum2act"): (
        521, 2_957_543, "3bdacbd4fb5f5f1aa1cc7c08a3111679e70b9b48f9314d9b65a1a02e04b5a02b", {},
    ),
    ("long_state", "react"): (
        317, 1_488_105, "0a3bfac29dff30ab4508e10d478d4baf63ab6fde37c2f802426f052a21d1d6cf", {},
    ),
    ("long_state", "dfsdt"): (
        236, 9_897_482, "f6772f6c225f866c0407e977d992c0f96b7c4c9eb087f429d0a8afc85c6c2d56",
        {"chain10": "RequestTooLarge", "chain11": "RequestTooLarge"},
    ),
    ("flaky_live", "sum2act"): (
        339, 985_616, "fc0ad5599fd8c1a1489b129d1a590cbe5f210c0ebed1ccd61e948cecedb3454d", {},
    ),
    ("flaky_live", "react"): (
        186, 392_012, "26f06371045a69d757acbdc29861174836b7fa019a4929bc5304df434a9e556e", {},
    ),
    ("flaky_live", "dfsdt"): (
        186, 382_559, "16502b57dde7491a58456f3529a22b9fb20caa3e0fdcf48baea5bf44f594429a", {},
    ),
}


@pytest.fixture(scope="module")
def generated(tmp_path_factory) -> dict:
    """Each generated workload's tasks at SEED, written under a temporary directory."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        # Its dataclasses look their module up by name while the file loads.
        patch.setitem(sys.modules, spec.name, module)
        patch.setattr(sys, "dont_write_bytecode", True)
        spec.loader.exec_module(module)
    root = tmp_path_factory.mktemp("generated")
    return {
        workload: module.generate(workload, SEED, root / workload)
        for workload in ("long_state", "flaky_live")
    }


def _run_workload(tasks, method: str) -> tuple[int, int, str, dict]:
    calls = chars = 0
    digest = hashlib.sha256()
    raised = {}
    for task in tasks:
        scenario = load_scenario(task.scenario_path)
        provider = RecordingProvider(ScriptedProvider(load_policy(task.policy_path)))
        try:
            episode = run_episode(
                method, provider, scenario.instruction, list(scenario.tools),
                default_config(method), ScenarioSession(scenario).invoke,
            )
        except Sum2ActError as exc:
            raised[scenario.id] = type(exc).__name__
        else:
            digest.update(serialize_episode(episode).encode("utf-8") + b"\n")
        prompts = provider.prompts()
        calls += len(prompts)
        chars += sum(map(len, prompts))
    return calls, chars, digest.hexdigest(), raised


@pytest.mark.parametrize("workload, method", sorted(PINNED))
def test_generated_workload_counts_are_pinned(generated, workload, method):
    assert _run_workload(generated[workload], method) == PINNED[workload, method]
