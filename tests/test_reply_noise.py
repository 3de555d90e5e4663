"""The README contract under a noisy model, over the whole shipped corpus.

``NoisyProvider`` replaces a share ``p`` of the scripted replies with one
line of prose that no parser accepts. A hash of the prompt and of how many
times that prompt has been sent decides which, so a run repeats exactly and
a re-sent prompt (a re-ask) draws again. At every level each method must end
every episode with a valid terminal within its budget, raise nothing, and
write a trace that reads back byte for byte.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from functools import lru_cache

import pytest

from sum2act import (
    ScenarioSession,
    ScriptedProvider,
    default_config,
    deserialize_episode,
    load_policy,
    load_scenario,
    run_episode,
    serialize_episode,
)
from sum2act.core import TERMINAL_STATUSES
from sum2act.engine import METHOD_LABELS

from .conftest import SCENARIOS_ROOT

PROSE = "I am not sure what to do next."


class NoisyProvider:
    """Answers like ``inner``, except that a prompt whose hash of
    ``f"{n}:{prompt}"`` (n: its send count, from 1) falls under ``p`` gets
    ``PROSE``."""

    def __init__(self, inner, p: float):
        self._inner = inner
        self._threshold = p * 2**64
        self._sent: Counter[str] = Counter()
        self.replaced = 0

    def complete(self, request) -> str:
        self._sent[request.prompt] += 1
        key = f"{self._sent[request.prompt]}:{request.prompt}".encode("utf-8")
        if int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big") < self._threshold:
            self.replaced += 1
            return PROSE
        return self._inner.complete(request)


# (p, method): terminal counts over the 30 shipped scenarios.
PINNED_TERMINALS = {
    (0.3, "sum2act"): {"Finished": 27, "AbortedParseFailure": 3},
    (0.3, "react"): {"Finished": 24, "AbortedParseFailure": 5, "BudgetExhausted": 1},
    (0.3, "dfsdt"): {"Finished": 22, "AbortedParseFailure": 1, "BudgetExhausted": 7},
    **{(1.0, method): {"AbortedParseFailure": 30} for method in METHOD_LABELS},
}


@lru_cache(maxsize=None)
def _run(method: str, p: float) -> tuple[dict, int]:
    """(terminal counts, replaced replies) of ``method`` over the corpus at
    noise level ``p``, checking each episode's contract on the way."""
    paths = sorted(SCENARIOS_ROOT.glob("**/*.scenario.json"))
    assert len(paths) == 30
    config = default_config(method)
    terminals: Counter[str] = Counter()
    replaced = 0
    for path in paths:
        scenario = load_scenario(path)
        policy = load_policy(path.with_name(path.name.replace(".scenario.json", ".policy.json")))
        provider = NoisyProvider(ScriptedProvider(policy), p)
        episode = run_episode(
            method, provider, scenario.instruction, list(scenario.tools),
            config, ScenarioSession(scenario).invoke,
        )
        assert episode.terminal.status in TERMINAL_STATUSES
        assert len(episode.steps) <= config.step_budget
        record = serialize_episode(episode)
        assert deserialize_episode(record) == episode
        assert serialize_episode(deserialize_episode(record)) == record
        terminals[episode.terminal.status] += 1
        replaced += provider.replaced
    return dict(terminals), replaced


@pytest.mark.parametrize("p", [0.1, 0.3, 1.0])
@pytest.mark.parametrize("method", sorted(METHOD_LABELS))
def test_noisy_replies_keep_the_contract(method, p):
    terminals, replaced = _run(method, p)
    assert sum(terminals.values()) == 30
    assert replaced > 0


@pytest.mark.parametrize("p, method", sorted(PINNED_TERMINALS))
def test_noisy_terminals_are_pinned(p, method):
    assert _run(method, p)[0] == PINNED_TERMINALS[(p, method)]
