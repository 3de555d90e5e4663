"""Pins the deterministic cost of the shipped corpus: provider calls, prompt
chars, the bytes of every prompt, uncached prompt chars and the serialized
traces of every scenario/policy pair, per method.

An unintended extra provider call, a changed prompt (even one of the same
length), a prompt layout that a prefix cache can reuse less of, or a changed
trace byte fails here, before any benchmark run.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

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

# method: (provider calls, prompt chars, sha256 of the traces joined by "\n",
# sha256 over the sha256 of every prompt sent, in order)
PINNED = {
    "sum2act": (
        188, 240_011, "d1edb0f35223cd0d01c41ba48c8e42e58e2cf57cceabc1121bfda06579ba919a",
        "886729fa26ad1cb46500dfc593f7a242a30c6bbcf70f182c74f9f2192e08db52",
    ),
    "react": (
        235, 286_565, "cd12fd6de0770bf5f643ac9f53531c12e54661dc5c02eed068b48e3be039e465",
        "c818c40cc75bf637479b61a686312e82ad45bca96bfe4b71523188dd923ce06e",
    ),
    "dfsdt": (
        293, 444_756, "ef50149495ae1bd0131a3d93ed3ba7db8958cadd5614551d08c1449989a9d356",
        "9330408bafd3d3799f7978a3996f78d8124117a3a0a80d59c68c5ea0be77e0d8",
    ),
}


# method: chars of every prompt past the longest prefix it shares with an
# earlier prompt of the same episode, summed over the corpus. A prefix cache
# (RadixAttention and the like) has to process only these chars.
PINNED_UNCACHED = {
    "sum2act": 118_436,
    "react": 81_003,
    "dfsdt": 96_075,
}


def _common_prefix(a: str, b: str) -> int:
    low, high = 0, min(len(a), len(b))
    while low < high:
        mid = (low + high + 1) // 2
        if a[:mid] == b[:mid]:
            low = mid
        else:
            high = mid - 1
    return low


def _uncached_chars(prompts: list[str]) -> int:
    return sum(
        len(prompt) - max((_common_prefix(prompt, earlier) for earlier in prompts[:i]), default=0)
        for i, prompt in enumerate(prompts)
    )


@lru_cache(maxsize=None)
def _run_corpus(method: str, scenarios_root) -> tuple[int, int, str, str, int]:
    """(provider calls, prompt chars, trace sha256, prompt sha256, uncached
    prompt chars)."""
    paths = sorted(scenarios_root.glob("**/*.scenario.json"))
    assert len(paths) == 30
    calls = chars = uncached = 0
    digest = hashlib.sha256()
    prompt_digest = hashlib.sha256()
    for path in paths:
        scenario = load_scenario(path)
        policy = load_policy(path.with_name(path.name.replace(".scenario.json", ".policy.json")))
        provider = RecordingProvider(ScriptedProvider(policy))
        episode = run_episode(
            method, provider, scenario.instruction, list(scenario.tools),
            default_config(method), ScenarioSession(scenario).invoke,
        )
        prompts = provider.prompts()
        calls += len(prompts)
        chars += sum(map(len, prompts))
        uncached += _uncached_chars(prompts)
        digest.update(serialize_episode(episode).encode("utf-8") + b"\n")
        for prompt in prompts:
            prompt_digest.update(hashlib.sha256(prompt.encode("utf-8")).digest())
    return calls, chars, digest.hexdigest(), prompt_digest.hexdigest(), uncached


@pytest.mark.parametrize("method", sorted(PINNED))
def test_corpus_counts_are_pinned(method, scenarios_root):
    assert _run_corpus(method, scenarios_root)[:4] == PINNED[method]


@pytest.mark.parametrize("method", sorted(PINNED_UNCACHED))
def test_corpus_uncached_prompt_chars_are_pinned(method, scenarios_root):
    assert _run_corpus(method, scenarios_root)[4] == PINNED_UNCACHED[method]
