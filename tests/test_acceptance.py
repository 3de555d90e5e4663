"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Everything here runs without a live model; the final test is an env-gated
live smoke check that skips itself when provider variables are absent.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

import pytest

from sum2act.core import Instruction, Observation, State, serialize_episode
from sum2act.engine import EngineConfig, default_config, run_episode
from sum2act.evaluation import PairJudgment, rate_row, win_rate
from sum2act.parsing import load_templates
from sum2act.provider import RecordingProvider, ScriptedPolicy, ScriptedProvider, load_policy
from sum2act.retriever import rank
from sum2act.sandbox import ScenarioSession, check_pass, load_scenario
from sum2act.state_manager import enforce_cap, render_state, update

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _run_scenario(path: Path, method: str, config: EngineConfig | None = None):
    scenario = load_scenario(path)
    policy = load_policy(str(path).replace(".scenario.json", ".policy.json"))
    provider = ScriptedProvider(policy)
    if config is None:
        config = EngineConfig()
    episode = run_episode(
        method, provider, scenario.instruction, list(scenario.tools), config,
        ScenarioSession(scenario).invoke,
    )
    return scenario, episode


# ---------------------------------------------------------------------------
# Criterion 1: table arithmetic golden tests (tolerance: exact)
# ---------------------------------------------------------------------------

GOLDEN_ROWS = {
    "pass react-cot": ([36.0, 52.0, 40.0, 42.5, 39.0, 37.0], 41.1),
    "pass dfsdt": ([57.0, 63.0, 63.0, 78.0, 69.0, 72.0], 67.0),
    "pass summarizing": ([71.0, 71.0, 65.0, 78.0, 61.0, 74.0], 70.0),
    "win dfsdt vs react-cot": ([63.5, 54.5, 65.0, 70.0, 69.0, 72.5], 65.8),
    "win summarizing vs react-cot": ([71.5, 59.5, 66.5, 73.5, 61.5, 74.5], 67.8),
    "win summarizing vs dfsdt": ([60.0, 58.5, 56.0, 55.0, 48.0, 50.0], 54.6),
    "pass with decomposition": ([62.0, 75.0, 73.0, 73.0, 67.0, 74.0], 70.7),
    "win with decomposition": ([64.0, 61.0, 74.5, 70.5, 68.5, 74.0], 68.8),
}


def test_table_arithmetic_golden():
    started = time.perf_counter()
    failures = []
    for name, (rates, expected) in GOLDEN_ROWS.items():
        average = rate_row(name, rates)[-1]
        if average != f"{expected:.1f}":
            failures.append(f"{name}: got {average}, want {expected:.1f}")
    elapsed = time.perf_counter() - started
    _report(
        "table arithmetic: every Average cell reproduced from its row, exact",
        not failures and elapsed < 1.0,
        f"{len(GOLDEN_ROWS)} rows in {elapsed:.3f}s" + ("; " + "; ".join(failures) if failures else ""),
    )


# ---------------------------------------------------------------------------
# Criterion 2: deterministic scenario suite
# ---------------------------------------------------------------------------


def test_deterministic_scenario_suite():
    started = time.perf_counter()
    core_paths = sorted((SCENARIOS / "core").glob("*.scenario.json"))
    assert len(core_paths) >= 20, f"only {len(core_paths)} core scenarios shipped"

    failures = []
    for path in core_paths:
        scenario, episode = _run_scenario(path, "sum2act")
        if not check_pass(scenario, episode):
            failures.append(f"{scenario.id}: {episode.terminal.status}")
        if len(episode.steps) > 30:
            failures.append(f"{scenario.id}: used {len(episode.steps)} steps")

    _, exhausted = _run_scenario(
        SCENARIOS / "adversarial" / "never_finish.scenario.json", "sum2act"
    )
    never_ok = exhausted.terminal.status == "BudgetExhausted" and len(exhausted.steps) == 30
    elapsed = time.perf_counter() - started
    _report(
        "scenario suite: 100% pass on all solvable scenarios within 30 steps; "
        "never-finishing policy stops at exactly step 30",
        not failures and never_ok and elapsed < 10.0,
        f"{len(core_paths)} scenarios in {elapsed:.2f}s"
        + ("; " + "; ".join(failures) if failures else ""),
    )


# ---------------------------------------------------------------------------
# Criterion 3: differential long-horizon suite
# ---------------------------------------------------------------------------


def test_differential_long_horizon_suite():
    started = time.perf_counter()
    paths = sorted((SCENARIOS / "differential").glob("*.scenario.json"))
    assert len(paths) >= 5, f"only {len(paths)} differential scenarios shipped"

    summarizing_passes = 0
    transcript_passes = 0
    for path in paths:
        scenario, episode = _run_scenario(path, "sum2act")
        summarizing_passes += check_pass(scenario, episode)
        scenario, episode = _run_scenario(path, "react")
        transcript_passes += check_pass(scenario, episode)
    elapsed = time.perf_counter() - started
    _report(
        "long-horizon suite: summarized state retains step-1 information past "
        "the transcript window (sum2act passes all, react passes none)",
        summarizing_passes == len(paths) and transcript_passes == 0 and elapsed < 10.0,
        f"sum2act {summarizing_passes}/{len(paths)}, react {transcript_passes}/{len(paths)} "
        f"in {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 4: depth-first information-loss check
# ---------------------------------------------------------------------------


def test_dfsdt_information_loss():
    path = SCENARIOS / "search" / "mirror_registry.scenario.json"
    scenario = load_scenario(path)
    policy = load_policy(str(path).replace(".scenario.json", ".policy.json"))

    dfs_provider = RecordingProvider(ScriptedProvider(policy))
    dfs_episode = run_episode(
        "dfsdt", dfs_provider, scenario.instruction, list(scenario.tools),
        default_config("dfsdt"), ScenarioSession(scenario).invoke,
    )
    sibling_prompt = dfs_provider.prompts()[1]
    sibling_excludes_observation = (
        "REG-DOWN-D7" not in sibling_prompt and "maintenance" not in sibling_prompt
    )

    sum_provider = RecordingProvider(ScriptedProvider(policy))
    sum_episode = run_episode(
        "sum2act", sum_provider, scenario.instruction, list(scenario.tools),
        EngineConfig(), ScenarioSession(scenario).invoke,
    )
    router_prompts = [p for p in sum_provider.prompts() if "action router" in p]
    corresponding_prompt = router_prompts[1]
    failure_visible = (
        "query_registry" in corresponding_prompt
        and "registry endpoint is down" in corresponding_prompt
    )

    _report(
        "depth-first info loss: sibling prompt excludes the failed branch's "
        "observation; the summarizing prompt at the same step includes the failure entry",
        sibling_excludes_observation and failure_visible
        and dfs_episode.terminal.status == "Finished"
        and sum_episode.terminal.status == "Finished",
    )


# ---------------------------------------------------------------------------
# Criterion 5: invariant suites (no live model)
# ---------------------------------------------------------------------------

UNSCRIPTED = ScriptedProvider(ScriptedPolicy())


def _random_observation(rng: random.Random, step: int) -> Observation:
    tool = f"tool_{rng.randrange(6)}"
    args = {"k": f"v{rng.randrange(8)}"}
    if rng.random() < 0.5:
        return Observation(
            status="Success",
            payload="payload " + "x" * rng.randrange(0, 6000),
            tool_name=tool, args_echo=args,
        )
    return Observation(
        status=rng.choice(["ToolError", "Timeout", "MalformedResponse"]),
        payload="", tool_name=tool, args_echo=args,
        error=f"HTTP 503: backend unavailable (case {rng.randrange(100)})",
    )


def test_state_boundedness_and_monotonicity_over_randomized_episodes():
    started = time.perf_counter()
    rng = random.Random(20260808)
    cap = 4096
    instruction = Instruction(id="rand", text="randomized episode")
    template = load_templates()["state"]
    violations = []
    for episode_index in range(1000):
        state = State.empty()
        previous_failures = 0
        for step in range(1, rng.randint(1, 18) + 1):
            observation = _random_observation(rng, step)
            state = update(UNSCRIPTED, template, instruction, state, observation, step_index=step)
            state = enforce_cap(state, cap)
            if len(render_state(state)) > cap:
                violations.append(f"episode {episode_index} step {step}: over cap")
            if len(state.failure_history) < previous_failures:
                violations.append(f"episode {episode_index} step {step}: failures shrank")
            previous_failures = len(state.failure_history)
        if violations:
            break
    elapsed = time.perf_counter() - started
    _report(
        "invariants: state stays within the cap after every step and failure "
        "history never shrinks (1000 randomized episodes)",
        not violations,
        f"{elapsed:.2f}s" + ("; " + violations[0] if violations else ""),
    )


def test_win_rate_symmetry_over_randomized_multisets():
    rng = random.Random(1234)
    bad = 0
    for _ in range(500):
        wins = rng.randrange(0, 200)
        ties = rng.randrange(0, 200)
        losses = rng.randrange(0, 200)
        if wins + ties + losses == 0:
            continue
        judgments = [
            PairJudgment(instruction_id=f"q{i}", method_a="m1", method_b="m2", outcome=outcome)
            for i, outcome in enumerate(
                ["AWins"] * wins + ["Tie"] * ties + ["BWins"] * losses
            )
        ]
        if win_rate(judgments, "m1") + win_rate(judgments, "m2") != 100.0:
            bad += 1
    _report(
        "invariants: win_rate(M1 vs M2) + win_rate(M2 vs M1) == 100.0 exactly "
        "over randomized judgment multisets",
        bad == 0,
        f"{bad} violations of 500 multisets",
    )


def test_episode_replay_determinism():
    path = SCENARIOS / "core" / "weather_miami.scenario.json"
    records = []
    for _ in range(2):
        _, episode = _run_scenario(path, "sum2act")
        records.append(serialize_episode(episode).encode("utf-8"))
    _report(
        "invariants: identical runs serialize byte-identically",
        records[0] == records[1],
        f"{len(records[0])} bytes",
    )


def test_retriever_top1_on_three_tool_case():
    from sum2act.core import ToolSpec

    catalog = [
        ToolSpec(name="weather_forecast", description="Hourly and daily weather forecast by city."),
        ToolSpec(name="flight_search", description="Search flights between airports."),
        ToolSpec(name="currency_convert", description="Convert amounts between currencies."),
    ]
    ranked = rank("What is the weather in Florida?", catalog, k=1)
    _report(
        "invariants: retriever ranks the weather tool first on the 3-tool case",
        ranked[0].tool.name == "weather_forecast",
        f"top-1 = {ranked[0].tool.name}, score {ranked[0].score:.3f}",
    )


# ---------------------------------------------------------------------------
# Criterion 6: live smoke test (env-gated)
# ---------------------------------------------------------------------------

_LIVE_VARS = ("PROVIDER_BASE_URL", "PROVIDER_API_KEY", "PROVIDER_MODEL", "SUM2ACT_SMOKE_TOOL_URL")


@pytest.mark.skipif(
    any(not os.environ.get(name) for name in _LIVE_VARS),
    reason="live smoke test needs PROVIDER_* env vars and SUM2ACT_SMOKE_TOOL_URL",
)
def test_live_smoke(tmp_path):
    from sum2act.cli import main

    tools_path = tmp_path / "catalog.json"
    tools_path.write_text(json.dumps([
        {"name": "fetch_page", "description": "Fetch the page at the configured URL.",
         "params": []},
    ]))
    endpoints_path = tmp_path / "endpoints.json"
    endpoints_path.write_text(json.dumps({
        "fetch_page": {"url": os.environ["SUM2ACT_SMOKE_TOOL_URL"], "method": "GET"},
    }))
    code = main([
        "run", "--provider", "live",
        "--instruction", "Fetch the configured page once, then finish with a one-line "
                         "summary of what it returned.",
        "--tools", str(tools_path),
        "--endpoint-spec", str(endpoints_path),
        "--out", str(tmp_path / "out"),
    ])
    _report("live smoke: one real instruction against one live HTTP tool exits 0", code == 0)
