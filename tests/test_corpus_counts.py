"""Pins the deterministic cost of the shipped corpus: provider calls, prompt
chars and the serialized traces of every scenario/policy pair, per method.

An unintended extra provider call, a changed prompt or a changed trace byte
fails here, before any benchmark run.
"""

from __future__ import annotations

import hashlib

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

# method: (provider calls, prompt chars, sha256 of the traces joined by "\n")
PINNED = {
    "sum2act": (217, 297_836, "f6fdabfabbd9f10b3f687a077da7296049ee0bd9ae33c06be8dcdd4863b6e9c0"),
    "react": (235, 333_661, "cd12fd6de0770bf5f643ac9f53531c12e54661dc5c02eed068b48e3be039e465"),
    "dfsdt": (293, 2_730_072, "ef50149495ae1bd0131a3d93ed3ba7db8958cadd5614551d08c1449989a9d356"),
}


@pytest.mark.parametrize("method", sorted(PINNED))
def test_corpus_counts_are_pinned(method, scenarios_root):
    paths = sorted(scenarios_root.glob("**/*.scenario.json"))
    assert len(paths) == 30
    calls = chars = 0
    digest = hashlib.sha256()
    for path in paths:
        scenario = load_scenario(path)
        policy = load_policy(path.with_name(path.name.replace(".scenario.json", ".policy.json")))
        provider = RecordingProvider(ScriptedProvider(policy))
        episode = run_episode(
            method, provider, scenario.instruction, list(scenario.tools),
            default_config(method), ScenarioSession(scenario).invoke,
        )
        calls += len(provider.calls)
        chars += sum(len(prompt) for prompt, _ in provider.calls)
        digest.update(serialize_episode(episode).encode("utf-8") + b"\n")
    assert (calls, chars, digest.hexdigest()) == PINNED[method]
