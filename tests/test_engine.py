from __future__ import annotations

import json
from pathlib import Path

import pytest

from sum2act import engine, state_manager
from sum2act.core import Action, Instruction, Observation, ParamSpec, ResultEntry, State, ToolSpec, serialize_episode
from sum2act.engine import (
    DFSDT_MAX_CHILDREN,
    REACT_WINDOW_CHARS,
    EngineConfig,
    Window,
    _evict_oldest,
    _transcript_entry,
    default_config,
    run_episode,
)
from sum2act.errors import ConfigurationError
from sum2act.parsing import REASK_RETRIES
from sum2act.provider import (
    PolicyEntry,
    RecordingProvider,
    ScriptedPolicy,
    ScriptedProvider,
    load_policy,
)
from sum2act.router import render_tools_block
from sum2act.sandbox import (
    Behavior,
    PassCondition,
    Scenario,
    ScenarioSession,
    check_pass,
    load_scenario,
)


def _entry(match: str, response: dict, is_regex: bool = True) -> PolicyEntry:
    return PolicyEntry(match=match, response=json.dumps(response), is_regex=is_regex)


def _call(action: str, args: dict) -> dict:
    return {"thought": "go", "action": action, "args": args}


def _finish(answer: str) -> dict:
    return {"thought": "done", "action": "Finish", "args": {"Answer": answer}}


INSTRUCTION = Instruction(id="t1", text="get the figure from the records")

FAILOVER_TOOLS = (
    ToolSpec(name="primary_lookup", description="primary records store",
             params=(ParamSpec(name="dataset", required=True),)),
    ToolSpec(name="backup_lookup", description="replica records store",
             params=(ParamSpec(name="dataset", required=True),)),
)

FAILOVER_SCENARIO = Scenario(
    id="t1",
    instruction=INSTRUCTION,
    tools=FAILOVER_TOOLS,
    behaviors={
        "primary_lookup": (
            Behavior(kind="error", code=503, message="primary offline (SVCA-T1)", repeat="forever"),
        ),
        "backup_lookup": (
            Behavior(kind="success", payload="Replica answered: 73 units (SVCB-T1).", repeat="forever"),
        ),
    },
    pass_condition=PassCondition(contains_all=("73 units",)),
)

FAILOVER_POLICY = ScriptedPolicy(
    entries=(
        _entry(r"(?s)state manager.*SVCA-T1", {"verdict": "Failure", "reason": "primary store unreachable"}),
        _entry(r"(?s)state manager.*SVCB-T1", {"verdict": "Success", "summary": "replica answered: 73 units"}),
        _entry(r"(?s)73 units", _finish("The figure is 73 units.")),
        _entry(r"(?s)primary store unreachable|SVCA-T1", _call("backup_lookup", {"dataset": "inventory"})),
    ),
    default=json.dumps(_call("primary_lookup", {"dataset": "inventory"})),
)

NEVER_FINISH_POLICY = ScriptedPolicy(
    entries=(
        PolicyEntry(match="state manager", response=json.dumps({"verdict": "Success", "summary": "still pending"})),
    ),
    default=json.dumps(_call("backup_lookup", {"dataset": "inventory"})),
)


class SequenceProvider:
    """Answers each call with the next of the given replies."""

    def __init__(self, replies):
        self._replies = iter(replies)

    def complete(self, request) -> str:
        return next(self._replies)


def _transcript(prompt: str) -> list[str]:
    """The entries of a react or dfsdt prompt's transcript."""
    section = prompt.split("Transcript\n", 1)[1].split("\n\n## Previously Attempted", 1)[0].rstrip("\n")
    return [] if section == "(empty)" else section.split("\n\n")


def _split_attempted(prompt: str) -> tuple[str, str | None]:
    """A prompt without its "Previously Attempted" block, and the block's
    text (dfsdt); a react prompt has no such block (None)."""
    rest, found, attempted = prompt.partition("## Previously Attempted From This Point\n")
    return rest, (attempted.rstrip("\n") if found else None)


# (thought, args, payload) steps of one Success-status tool
STEP_A = ("poll", {"job": "1"}, "pending")
STEP_B = ("poll", {"job": "2"}, "queued")


def _entry_of(step) -> str:
    thought, args, payload = step
    return _transcript_entry(
        Action(kind="ToolCall", tool_name="poll", args=args, thought=thought),
        Observation(status="Success", payload=payload, tool_name="poll", args_echo=args),
    )


def _step_prompts(method: str, steps) -> list[str]:
    """Every prompt of an episode that takes ``steps`` and then finishes."""
    replies = [json.dumps({"thought": thought, "action": "poll", "args": args}) for thought, args, _ in steps]
    provider = RecordingProvider(SequenceProvider(replies + [json.dumps(_finish("done"))]))
    payloads = iter(payload for _, _, payload in steps)
    episode = run_episode(
        method, provider, INSTRUCTION, [ToolSpec(name="poll", description="poll a job")],
        EngineConfig(step_budget=len(steps) + 1),
        lambda name, args: Observation(status="Success", payload=next(payloads), tool_name=name, args_echo=args),
    )
    assert episode.terminal.status == "Finished"
    return provider.prompts()


class _TranscriptRepeats:
    """A transcript takes no entry equal to its last one, and every other."""

    method: str
    # The "Previously Attempted" block of the prompts before and after a
    # step that repeats the one before it.
    repeat_attempted: tuple[str | None, str | None]

    @pytest.mark.parametrize("changed", [
        ("check again", {"job": "1"}, "pending"),
        ("poll", {"job": "1", "verbose": True}, "pending"),
        ("poll", {"job": "1"}, "done: 42"),
    ], ids=["thought", "args", "observation"])
    def test_step_that_differs_appends(self, changed):
        prompts = _step_prompts(self.method, [STEP_A, changed])
        assert _transcript(prompts[2]) == [_entry_of(STEP_A), _entry_of(changed)]

    def test_only_a_consecutive_repeat_is_left_out(self):
        prompts = _step_prompts(self.method, [STEP_A, STEP_B, STEP_A, STEP_A])
        assert _transcript(prompts[3]) == [_entry_of(STEP_A), _entry_of(STEP_B), _entry_of(STEP_A)]
        (before, attempted_before), (after, attempted_after) = map(_split_attempted, prompts[3:5])
        assert after == before
        assert (attempted_before, attempted_after) == self.repeat_attempted


class TestSum2Act:
    def test_happy_path_two_steps(self):
        policy = ScriptedPolicy(
            entries=(
                _entry(r"(?s)state manager.*SVCB-T1", {"verdict": "Success", "summary": "got 73 units"}),
                _entry(r"(?s)73 units", _finish("73 units")),
            ),
            default=json.dumps(_call("backup_lookup", {"dataset": "inventory"})),
        )
        episode = run_episode(
            "sum2act", ScriptedProvider(policy), INSTRUCTION, list(FAILOVER_TOOLS),
            EngineConfig(), ScenarioSession(FAILOVER_SCENARIO).invoke,
        )
        assert episode.terminal.status == "Finished"
        assert len(episode.steps) == 2
        assert episode.steps[0].action.kind == "ToolCall"
        assert episode.steps[1].action.kind == "Finish"

    def test_failure_recovery_exact_trace(self):
        episode = run_episode(
            "sum2act", ScriptedProvider(FAILOVER_POLICY), INSTRUCTION, list(FAILOVER_TOOLS),
            EngineConfig(), ScenarioSession(FAILOVER_SCENARIO).invoke,
        )
        assert episode.terminal.status == "Finished"
        assert episode.terminal.answer == "The figure is 73 units."
        assert [s.action.tool_name or "Finish" for s in episode.steps] == [
            "primary_lookup", "backup_lookup", "Finish",
        ]
        assert len(episode.steps) == 3
        final_state = episode.steps[-1].state
        assert len(final_state.failure_history) == 1
        assert final_state.failure_history[0].tool == "primary_lookup"

    def test_never_finishing_policy_exhausts_exactly_at_budget(self):
        episode = run_episode(
            "sum2act", ScriptedProvider(NEVER_FINISH_POLICY), INSTRUCTION, list(FAILOVER_TOOLS),
            EngineConfig(step_budget=30), ScenarioSession(FAILOVER_SCENARIO).invoke,
        )
        assert episode.terminal.status == "BudgetExhausted"
        assert len(episode.steps) == 30

    def test_repeated_failure_sends_one_state_prompt_and_router_prompt_every_step(self):
        # The router keeps proposing the same failing call. The state manager
        # judges it once; from step 2 on the call is already in the failure
        # history, so no verdict is asked for and every step repeats one
        # router prompt.
        policy = ScriptedPolicy(
            entries=(
                _entry(r"(?s)state manager.*SVCA-T1", {"verdict": "Failure", "reason": "primary store unreachable"}),
            ),
            default=json.dumps(_call("primary_lookup", {"dataset": "inventory"})),
        )
        provider = RecordingProvider(ScriptedProvider(policy))
        episode = run_episode(
            "sum2act", provider, INSTRUCTION, list(FAILOVER_TOOLS),
            EngineConfig(step_budget=5), ScenarioSession(FAILOVER_SCENARIO).invoke,
        )
        assert episode.terminal.status == "BudgetExhausted"
        state_prompts = [p for p in provider.prompts() if "state manager" in p]
        router_prompts = [p for p in provider.prompts() if "action router" in p]
        assert len(state_prompts) + len(router_prompts) == len(provider.prompts())
        assert len(state_prompts) == 1
        assert len(router_prompts) == len(episode.steps) == 5
        assert len(set(router_prompts)) == 2

    def test_identical_reask_is_not_sent_again(self, caplog):
        # Both re-asks carry the same parse error, so the second is the first
        # again and gets its stored reply.
        policy = ScriptedPolicy(
            entries=(PolicyEntry(match="state manager", response="no verdict here"),),
            default=json.dumps(_call("primary_lookup", {"dataset": "inventory"})),
        )
        provider = RecordingProvider(ScriptedProvider(policy))
        episode = run_episode(
            "sum2act", provider, INSTRUCTION, list(FAILOVER_TOOLS),
            EngineConfig(step_budget=1), ScenarioSession(FAILOVER_SCENARIO).invoke,
        )
        state_prompts = [p for p in provider.prompts() if "state manager" in p]
        assert len(state_prompts) == 2
        assert "could not be used" in state_prompts[1]
        step = episode.steps[0]
        assert [f.reason for f in step.state.failure_history] == [step.observation.error]
        assert [r.getMessage().split(":")[0] for r in caplog.records] == [
            "state verdict unparseable, using mechanical fallback"
        ]

    def test_reused_success_verdict_is_recorded_under_the_new_step(self):
        policy = ScriptedPolicy(
            entries=(
                _entry(r"(?s)state manager.*SVCB-T1", {"verdict": "Success", "summary": "replica answered: 73 units"}),
            ),
        )
        provider = RecordingProvider(ScriptedProvider(policy))
        memory = engine.Summary(
            provider, INSTRUCTION, render_tools_block(FAILOVER_TOOLS),
            ScenarioSession(FAILOVER_SCENARIO).invoke,
        )
        action = Action(kind="ToolCall", tool_name="backup_lookup", args={"dataset": "inventory"})
        first = memory.record(action, 1)
        # Back to the empty state, so step 2 repeats step 1's state prompt.
        memory.state = State()
        second = memory.record(action, 2)
        assert len(provider.prompts()) == 1
        assert [(e.text, e.step) for e in first.state.current_results] == [
            ("replica answered: 73 units", 1)
        ]
        assert [(e.text, e.step) for e in second.state.current_results] == [
            ("replica answered: 73 units", 2)
        ]

    def test_repeated_result_is_judged_once_per_episode(self, monkeypatch):
        # backup_lookup returns one payload at every step: its verdict is
        # asked for once per episode, the repeats fold into the step-1 entry,
        # and the episodes equal those judged without the stored verdicts.
        def run_twice():
            provider = RecordingProvider(ScriptedProvider(NEVER_FINISH_POLICY))
            episodes = [
                run_episode(
                    "sum2act", provider, INSTRUCTION, list(FAILOVER_TOOLS),
                    EngineConfig(step_budget=3), ScenarioSession(FAILOVER_SCENARIO).invoke,
                )
                for _ in range(2)
            ]
            return episodes, [p for p in provider.prompts() if "state manager" in p]

        episodes, state_prompts = run_twice()
        assert len(state_prompts) == 2
        assert episodes[0].steps[-1].state.current_results == (ResultEntry("still pending", 1),)
        monkeypatch.setattr(engine, "update", lambda *args: state_manager.update(*args[:5], {}))
        unmapped, unmapped_prompts = run_twice()
        # Without the map step 2 is judged against the step-1 entry; the
        # fold leaves the state as it was, so step 3 repeats that prompt.
        assert len(unmapped_prompts) == 4
        assert unmapped == episodes

    def test_unparseable_proposals_abort(self):
        policy = ScriptedPolicy(
            entries=(
                PolicyEntry(match="state manager", response=json.dumps({"verdict": "Success", "summary": "s"})),
            ),
            default="no json here",
        )
        episode = run_episode(
            "sum2act", ScriptedProvider(policy), INSTRUCTION, list(FAILOVER_TOOLS),
            EngineConfig(), ScenarioSession(FAILOVER_SCENARIO).invoke,
        )
        assert episode.terminal.status == "AbortedParseFailure"
        assert episode.steps == ()

    def test_failure_entries_visible_in_every_later_prompt(self):
        provider = RecordingProvider(ScriptedProvider(FAILOVER_POLICY))
        episode = run_episode(
            "sum2act", provider, INSTRUCTION, list(FAILOVER_TOOLS),
            EngineConfig(), ScenarioSession(FAILOVER_SCENARIO).invoke,
        )
        assert episode.terminal.status == "Finished"
        router_prompts = [p for p in provider.prompts() if "action router" in p]
        assert len(router_prompts) == 3
        # Failure recorded at step 1 must appear in the step-2 and step-3
        # router prompts, tool name and reason alike.
        for prompt in router_prompts[1:]:
            assert "primary_lookup" in prompt
            assert "primary store unreachable" in prompt


class TestReact(_TranscriptRepeats):
    method = "react"
    repeat_attempted = (None, None)

    def test_repeated_identical_step_leaves_the_next_prompt_unchanged(self):
        prompts = _step_prompts("react", [STEP_A, STEP_A, STEP_A])
        assert prompts[1] == prompts[2] == prompts[3]
        assert _transcript(prompts[3]) == [_entry_of(STEP_A)]

    def test_happy_path_matches_sum2act_outcome(self):
        episode = run_episode(
            "react", ScriptedProvider(FAILOVER_POLICY), INSTRUCTION, list(FAILOVER_TOOLS),
            EngineConfig(), ScenarioSession(FAILOVER_SCENARIO).invoke,
        )
        assert episode.terminal.status == "Finished"
        assert check_pass(FAILOVER_SCENARIO, episode)

    def test_transcript_eviction_drops_oldest_whole(self):
        # Five tool calls produce entries just under a third of the window
        # each: the step-6 prompt keeps the newest three and drops the rest.
        filler = "f" * (REACT_WINDOW_CHARS // 3 - 200)
        tools = (ToolSpec(name="probe", description="probe target"),)
        behaviors = {
            "probe": tuple(
                Behavior(kind="success", payload=f"probe result MARK-{i} " + filler, repeat="once")
                for i in range(1, 6)
            )
            + (Behavior(kind="success", payload="probe result MARK-LAST", repeat="forever"),)
        }
        scenario = Scenario(
            id="probe", instruction=Instruction(id="probe", text="probe it"),
            tools=tools, behaviors=behaviors,
            pass_condition=PassCondition(contains_all=("never",)),
        )
        policy = ScriptedPolicy(default=json.dumps(_call("probe", {})))
        provider = RecordingProvider(ScriptedProvider(policy))
        run_episode(
            "react", provider, scenario.instruction, list(tools),
            EngineConfig(step_budget=6), ScenarioSession(scenario).invoke,
        )
        step6_prompt = provider.prompts()[5]
        assert "MARK-1" not in step6_prompt
        assert "MARK-2" not in step6_prompt
        assert all(f"MARK-{i} " + filler in step6_prompt for i in (3, 4, 5))

    def test_eviction_keeps_every_entry_that_fits(self):
        # Entries join with blank lines: four 100-char entries take 406 chars.
        transcript = [f"{i}" * 100 for i in range(5)]
        _evict_oldest(transcript, 406)
        assert transcript == [f"{i}" * 100 for i in range(1, 5)]
        _evict_oldest(transcript, 405)
        assert len(transcript) == 3

    def test_evicted_entry_is_added_again_when_repeated(self):
        # An entry longer than the window is evicted before the next
        # proposal, so the repeat finds the transcript empty and is kept.
        step = ("poll", {"job": "1"}, "p" * REACT_WINDOW_CHARS)
        entry = _entry_of(step)
        provider = RecordingProvider(SequenceProvider([json.dumps(_call("poll", {"job": "1"}))]))
        memory = Window(
            provider, INSTRUCTION, "poll: poll a job",
            lambda name, args: Observation(status="Success", payload=step[2], tool_name=name, args_echo=args),
        )
        action = Action(kind="ToolCall", tool_name="poll", args=step[1], thought=step[0])
        memory.record(action, 1)
        assert memory.transcript == [entry]
        assert memory.propose() == Action(kind="ToolCall", tool_name="poll", args={"job": "1"}, thought="go")
        assert _transcript(provider.prompts()[0]) == []
        memory.record(action, 2)
        assert memory.transcript == [entry]

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: an entry longer than REACT_WINDOW_CHARS is evicted whole, "
        "so the next transcript reads (empty)"
    ))
    def test_react_keeps_its_newest_observation(self):
        # However long the newest observation, the next proposal must see
        # some of it.
        step = ("poll", {"job": "1"}, "job 1 done: " + "p" * REACT_WINDOW_CHARS)
        prompts = _step_prompts("react", [step])
        assert "Observation[Success]: job 1 done" in prompts[1]

    def test_differential_long_horizon_scenario(self, scenarios_root):
        path = scenarios_root / "differential" / "vault_1.scenario.json"
        scenario = load_scenario(path)
        policy = load_policy(scenarios_root / "differential" / "vault_1.policy.json")
        sum2act_episode = run_episode(
            "sum2act", ScriptedProvider(policy), scenario.instruction, list(scenario.tools),
            EngineConfig(), ScenarioSession(scenario).invoke,
        )
        react_episode = run_episode(
            "react", ScriptedProvider(policy), scenario.instruction, list(scenario.tools),
            EngineConfig(), ScenarioSession(scenario).invoke,
        )
        assert check_pass(scenario, sum2act_episode)
        assert not check_pass(scenario, react_episode)


class TestDfsdt(_TranscriptRepeats):
    method = "dfsdt"
    repeat_attempted = ("(none)", "poll")

    def test_repeated_identical_step_is_listed_as_attempted(self):
        # A repeat opens no search node: the branch keeps its transcript and
        # the repeat counts as one more attempt from the node.
        prompts = _step_prompts("dfsdt", [STEP_A, STEP_A, STEP_A])
        split = [_split_attempted(prompt) for prompt in prompts[1:]]
        assert split == [(split[0][0], attempted) for attempted in ("(none)", "poll", "poll, poll")]
        assert _transcript(prompts[3]) == [_entry_of(STEP_A)]

    def test_never_finish_exhausts_the_tree_in_twelve_steps(self, scenarios_root):
        # The poll returns one Success text forever. Each of the root's
        # three children is tried three times with no node opened, so the
        # tree is spent long before the 200-step budget.
        scenario = load_scenario(scenarios_root / "adversarial" / "never_finish.scenario.json")
        policy = load_policy(scenarios_root / "adversarial" / "never_finish.policy.json")
        provider = RecordingProvider(ScriptedProvider(policy))
        episode = run_episode(
            "dfsdt", provider, scenario.instruction, list(scenario.tools),
            default_config("dfsdt"), ScenarioSession(scenario).invoke,
        )
        assert episode.terminal.status == "BudgetExhausted"
        assert len(episode.steps) == len(provider.prompts()) == DFSDT_MAX_CHILDREN * (DFSDT_MAX_CHILDREN + 1) == 12
        # The root with 0-2 attempts, and its child with 0-2 attempts.
        assert len(set(provider.prompts())) == 2 * DFSDT_MAX_CHILDREN

    def test_backtracks_and_finishes(self, scenarios_root):
        scenario = load_scenario(scenarios_root / "search" / "mirror_registry.scenario.json")
        policy = load_policy(scenarios_root / "search" / "mirror_registry.policy.json")
        episode = run_episode(
            "dfsdt", ScriptedProvider(policy), scenario.instruction, list(scenario.tools),
            default_config("dfsdt"), ScenarioSession(scenario).invoke,
        )
        assert episode.terminal.status == "Finished"
        # Both branches recorded: the failed registry attempt and the mirror probe.
        assert [s.action.tool_name or "Finish" for s in episode.steps] == [
            "query_registry", "probe_mirror", "Finish",
        ]
        assert check_pass(scenario, episode)

    def test_sibling_prompt_excludes_failed_observation(self, scenarios_root):
        scenario = load_scenario(scenarios_root / "search" / "mirror_registry.scenario.json")
        policy = load_policy(scenarios_root / "search" / "mirror_registry.policy.json")
        provider = RecordingProvider(ScriptedProvider(policy))
        run_episode(
            "dfsdt", provider, scenario.instruction, list(scenario.tools),
            default_config("dfsdt"), ScenarioSession(scenario).invoke,
        )
        sibling_prompt = provider.prompts()[1]
        assert "REG-DOWN-D7" not in sibling_prompt
        assert "maintenance" not in sibling_prompt
        assert "query_registry" in sibling_prompt.split("Previously Attempted From This Point")[1]

    def test_tree_ends_after_three_failed_children(self):
        tools = (ToolSpec(name="flaky", description="always fails"),)
        scenario = Scenario(
            id="flaky", instruction=Instruction(id="flaky", text="try it"),
            tools=tools,
            behaviors={"flaky": (Behavior(kind="error", code=500, message="down", repeat="forever"),)},
            pass_condition=PassCondition(contains_all=("never",)),
        )
        policy = ScriptedPolicy(default=json.dumps(_call("flaky", {})))
        episode = run_episode(
            "dfsdt", ScriptedProvider(policy), scenario.instruction, list(tools),
            default_config("dfsdt"), ScenarioSession(scenario).invoke,
        )
        assert episode.terminal.status == "BudgetExhausted"
        assert len(episode.steps) == DFSDT_MAX_CHILDREN == 3

    def test_restart_backtracks(self):
        tools = (ToolSpec(name="probe", description="probe"),)
        scenario = Scenario(
            id="restart", instruction=Instruction(id="restart", text="explore"),
            tools=tools,
            behaviors={"probe": (Behavior(kind="success", payload="dead end data", repeat="forever"),)},
            pass_condition=PassCondition(contains_all=("done",)),
        )
        policy = ScriptedPolicy(
            entries=(
                _entry(r"(?s)Previously Attempted From This Point.*probe", _finish("done another way")),
                _entry(r"(?s)dead end data", {"thought": "hopeless", "action": "Restart", "args": {}}),
            ),
            default=json.dumps(_call("probe", {})),
        )
        episode = run_episode(
            "dfsdt", ScriptedProvider(policy), scenario.instruction, list(tools),
            default_config("dfsdt"), ScenarioSession(scenario).invoke,
        )
        assert [s.action.tool_name or "Finish" for s in episode.steps] == [
            "probe", "Restart", "Finish",
        ]
        assert episode.terminal.status == "Finished"

    def test_restart_at_root_exhausts(self):
        tools = (ToolSpec(name="probe", description="probe"),)
        policy = ScriptedPolicy(default=json.dumps({"thought": "give up", "action": "Restart", "args": {}}))
        episode = run_episode(
            "dfsdt", ScriptedProvider(policy), Instruction(id="r", text="explore"), list(tools),
            default_config("dfsdt"), lambda name, args: (_ for _ in ()).throw(AssertionError("no tools")),
        )
        assert episode.terminal.status == "BudgetExhausted"
        assert len(episode.steps) == 1


class TestEngineShared:
    def test_replay_determinism(self, scenarios_root):
        scenario = load_scenario(scenarios_root / "core" / "weather_miami.scenario.json")
        policy = load_policy(scenarios_root / "core" / "weather_miami.policy.json")
        records = []
        for _ in range(2):
            episode = run_episode(
                "sum2act", ScriptedProvider(policy), scenario.instruction, list(scenario.tools),
                EngineConfig(), ScenarioSession(scenario).invoke,
            )
            records.append(serialize_episode(episode))
        assert records[0] == records[1]

    def test_all_engines_respect_budget_with_never_finishing_policy(self):
        session_factory = lambda: ScenarioSession(FAILOVER_SCENARIO).invoke
        for method, budget in (("sum2act", 7), ("react", 7), ("dfsdt", 7)):
            config = EngineConfig(step_budget=budget)
            episode = run_episode(
                method, ScriptedProvider(NEVER_FINISH_POLICY), INSTRUCTION,
                list(FAILOVER_TOOLS), config, session_factory(),
            )
            assert episode.terminal.status == "BudgetExhausted"
            assert len(episode.steps) == budget

    @pytest.mark.parametrize("method", ["sum2act", "react", "dfsdt"])
    def test_over_deep_reply_aborts_as_parse_failure(self, method):
        deep = '{"a":' * 3000 + "1" + "}" * 3000
        policy = ScriptedPolicy(
            default='{"thought": "t", "action": "Finish", "args": {"Answer": ' + deep + "}}"
        )
        episode = run_episode(
            method, ScriptedProvider(policy), INSTRUCTION, list(FAILOVER_TOOLS),
            default_config(method), ScenarioSession(FAILOVER_SCENARIO).invoke,
        )
        assert episode.terminal.status == "AbortedParseFailure"
        assert episode.steps == ()

    # The ids keep the names these cases had when the test also varied a flag.
    @pytest.mark.parametrize(
        "method", ["sum2act", "react", "dfsdt"], ids=lambda method: f"{method}-False"
    )
    def test_tools_block_is_rendered_once_per_episode(self, method, monkeypatch):
        rendered = []

        def counting(tools):
            rendered.append(tools)
            return render_tools_block(tools)

        monkeypatch.setattr(engine, "render_tools_block", counting)
        provider = RecordingProvider(ScriptedProvider(FAILOVER_POLICY))
        episode = run_episode(
            method, provider, INSTRUCTION, list(FAILOVER_TOOLS), default_config(method),
            ScenarioSession(FAILOVER_SCENARIO).invoke,
        )
        assert len(episode.steps) >= 3
        assert rendered == [list(FAILOVER_TOOLS)]
        sections = [
            prompt.split("## Tools\n", 1)[1].split("\n\n## ", 1)[0]
            for prompt in provider.prompts() if "## Tools\n" in prompt
        ]
        assert len(sections) >= len(episode.steps)
        assert set(sections) == {render_tools_block(FAILOVER_TOOLS)}

    @pytest.mark.parametrize(
        "method, used", [("sum2act", ("router", "state")), ("react", ("react",)), ("dfsdt", ("dfsdt",))]
    )
    def test_prompts_open_with_the_built_in_templates(self, method, used):
        # Each template's first line differs, so it names the template a prompt fills.
        built_in = Path(engine.__file__).parent / "templates"
        first_lines = {
            name: (built_in / f"{name}.txt").read_text(encoding="utf-8").split("\n", 1)[0]
            for name in ("router", "state", "react", "dfsdt")
        }
        provider = RecordingProvider(ScriptedProvider(FAILOVER_POLICY))
        run_episode(
            method, provider, INSTRUCTION, list(FAILOVER_TOOLS), default_config(method),
            ScenarioSession(FAILOVER_SCENARIO).invoke,
        )
        heads = {prompt.split("\n", 1)[0] for prompt in provider.prompts()}
        assert heads == {first_lines[name] for name in used}

    def test_dispatcher_rejects_unknown_method(self):
        with pytest.raises(ConfigurationError):
            run_episode(
                "bfs", ScriptedProvider(NEVER_FINISH_POLICY), INSTRUCTION,
                list(FAILOVER_TOOLS), EngineConfig(), lambda n, a: None,
            )

    def test_default_configs(self):
        assert default_config("sum2act").step_budget == 30
        assert default_config("react").step_budget == 30
        assert default_config("dfsdt").step_budget == 200

    def test_default_config_rejects_unknown_method(self):
        with pytest.raises(ConfigurationError, match="bfs"):
            default_config("bfs")

    def test_parse_retries_is_fixed(self):
        assert EngineConfig().parse_retries == REASK_RETRIES
        with pytest.raises(TypeError):
            EngineConfig(parse_retries=5)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(step_budget=0)
