"""Tests of the benchmark's input generators and prefix accounting.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from sum2act import default_config, load_policy, load_scenario, run_episode  # noqa: E402
from sum2act.errors import RequestTooLarge  # noqa: E402
from sum2act.provider import ScriptedProvider  # noqa: E402
from sum2act.sandbox import ScenarioSession  # noqa: E402

GENERATED = ("long_state", "flaky_live")


def _files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", GENERATED)
def test_same_seed_gives_byte_identical_files(tmp_path, workload):
    workloads.generate(workload, 7, tmp_path / "a")
    workloads.generate(workload, 7, tmp_path / "b")
    first, second = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert first
    assert first == second


@pytest.mark.parametrize("workload", GENERATED)
def test_different_seed_gives_different_files(tmp_path, workload):
    workloads.generate(workload, 7, tmp_path / "a")
    workloads.generate(workload, 8, tmp_path / "b")
    first, second = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert first.keys() == second.keys()
    assert all(first[name] != second[name] for name in first)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", GENERATED)
def test_every_policy_drives_each_method_to_a_terminal_state(tmp_path, workload, seed):
    """Generated policies have no default reply, so a prompt they do not
    cover raises ScriptError here. Only dfsdt on a long chain may raise
    RequestTooLarge: its branch memory keeps every payload."""
    for task in workloads.generate(workload, seed, tmp_path):
        scenario = load_scenario(task.scenario_path)
        policy = load_policy(task.policy_path)
        for method in workloads.METHODS:
            config = default_config(method)
            try:
                episode = run_episode(method, ScriptedProvider(policy), scenario.instruction,
                                      list(scenario.tools), config,
                                      ScenarioSession(scenario).invoke)
            except RequestTooLarge:
                assert (workload, method) == ("long_state", "dfsdt")
                continue
            assert episode.terminal is not None
            assert len(episode.steps) <= config.step_budget


def test_uncached_chars_match_a_brute_force_count():
    rng = random.Random(0)
    base = "".join(rng.choice("ab") for _ in range(3000))
    prompts = [base[: rng.randint(0, 3000)] + "".join(rng.choice("abc") for _ in range(rng.randint(0, 50)))
               for _ in range(40)]
    index = tracing.PrefixIndex()
    for number, prompt in enumerate(prompts):
        shared = 0
        for earlier in prompts[:number]:
            common = 0
            while common < min(len(prompt), len(earlier)) and prompt[common] == earlier[common]:
                common += 1
            shared = max(shared, common)
        assert index.uncached(prompt) == len(prompt) - shared
