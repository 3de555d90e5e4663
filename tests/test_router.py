from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sum2act.core import FailureEntry, Instruction, ResultEntry, State, ToolSpec
from sum2act.errors import ConfigurationError, MalformedOutput
from sum2act.parsing import REASK_RETRIES, TEMPLATE_PLACEHOLDERS, load_templates
from sum2act.provider import PolicyEntry, RecordingProvider, ScriptedPolicy, ScriptedProvider
from sum2act.router import (
    ROUTER_RULES,
    build_router_prompt,
    parse_action,
    propose,
    propose_from_prompt,
    render_tools_block,
)
from sum2act.state_manager import render_state

INSTRUCTION = Instruction(id="i1", text="find the weather in Miami")
TOOLS = (ToolSpec(name="get_weather", description="weather by city"),)
TOOLS_BLOCK = render_tools_block(TOOLS)
TEMPLATES = load_templates()
ROUTER = TEMPLATES["router"]


def _section(prompt: str, heading: str) -> str:
    """The body of the prompt section under ``## heading``."""
    return prompt.split(f"## {heading}\n", 1)[1].split("\n\n## ", 1)[0].rstrip("\n")


class TestBuildRouterPrompt:
    def test_empty_state_rendering(self):
        prompt = build_router_prompt(ROUTER, INSTRUCTION, State.empty(), TOOLS_BLOCK)
        assert _section(prompt, "State") == "Current results: (none). Failure history: (none)."

    def test_all_failures_rendered(self):
        state = State(
            current_results=(),
            failure_history=(
                FailureEntry("get_weather", "d1", "first reason", 1),
                FailureEntry("get_weather", "d2", "second reason", 2),
            ),
        )
        state_section = _section(build_router_prompt(ROUTER, INSTRUCTION, state, TOOLS_BLOCK), "State")
        assert "get_weather(d1): first reason" in state_section
        assert "get_weather(d2): second reason" in state_section
        assert state_section == render_state(state)

    def test_deterministic(self):
        state = State(current_results=(ResultEntry("sunny", 1),), failure_history=())
        assert build_router_prompt(ROUTER, INSTRUCTION, state, TOOLS_BLOCK) == build_router_prompt(
            ROUTER, INSTRUCTION, state, TOOLS_BLOCK
        )

    def test_requires_tools(self):
        with pytest.raises(ConfigurationError):
            build_router_prompt(ROUTER, INSTRUCTION, State.empty(), render_tools_block(()))

    def test_blocks_all_present(self):
        prompt = build_router_prompt(ROUTER, INSTRUCTION, State.empty(), TOOLS_BLOCK)
        assert _section(prompt, "User Instruction") == INSTRUCTION.text
        assert _section(prompt, "State") == render_state(State.empty())
        assert _section(prompt, "Tools") == render_tools_block(TOOLS)
        assert _section(prompt, "Rules") == ROUTER_RULES


PER_EPISODE_PLACEHOLDERS = ("{instruction}", "{tools}", "{rules}", "## Rules")
PER_STEP_PLACEHOLDERS = ("{state}", "{observation}", "{transcript}", "{attempted}")


class TestPromptLayout:
    """Per-step blocks come last, so consecutive prompts of an episode share
    their whole static prefix with each other."""

    @pytest.mark.parametrize("name", TEMPLATE_PLACEHOLDERS)
    def test_per_step_blocks_follow_per_episode_blocks(self, name):
        template = TEMPLATES[name]
        static = [template.index(p) for p in PER_EPISODE_PLACEHOLDERS if p in template]
        per_step = [template.index(p) for p in PER_STEP_PLACEHOLDERS if p in template]
        assert static
        assert not per_step or max(static) < min(per_step)

    def test_router_prompts_share_everything_before_the_state(self):
        first = build_router_prompt(ROUTER, INSTRUCTION, State.empty(), TOOLS_BLOCK)
        later = build_router_prompt(
            ROUTER, INSTRUCTION,
            State((ResultEntry("sunny", 2),), (FailureEntry("get_weather", "d1", "bad city", 1),)),
            TOOLS_BLOCK,
        )
        static = first[: first.index("## State\n") + len("## State\n")]
        assert render_tools_block(TOOLS) in static and ROUTER_RULES in static
        assert later.startswith(static)

    def test_new_result_extends_the_rendered_state(self):
        failures = (FailureEntry("get_weather", "d1", "bad city", 1),)
        before = State((ResultEntry("sunny", 2),), failures)
        after = State(before.current_results + (ResultEntry("humid", 3),), failures)
        assert render_state(after).startswith(render_state(before))


class TestParseAction:
    def test_tool_call(self):
        action = parse_action('{"thought":"t","action":"get_weather","args":{"city":"Miami"}}')
        assert action.kind == "ToolCall"
        assert action.tool_name == "get_weather"
        assert action.args == {"city": "Miami"}
        assert action.thought == "t"

    def test_finish_with_answer(self):
        action = parse_action('{"action":"Finish","args":{"Answer":"42"}}')
        assert action.kind == "Finish"
        assert action.answer == "42"

    def test_finish_missing_answer(self):
        with pytest.raises(MalformedOutput):
            parse_action('Sure! Here is my plan... {"action":"Finish","args":{}}')

    def test_finish_empty_answer(self):
        with pytest.raises(MalformedOutput):
            parse_action('{"action":"Finish","args":{"Answer":""}}')

    def test_args_must_be_map(self):
        with pytest.raises(MalformedOutput):
            parse_action('{"action":"x","args":[1,2]}')

    def test_no_object(self):
        with pytest.raises(MalformedOutput):
            parse_action("I could not decide on an action.")

    def test_over_deep_answer_is_malformed(self):
        deep = '{"a":' * 3000 + "1" + "}" * 3000
        with pytest.raises(MalformedOutput):
            parse_action('{"thought": "t", "action": "Finish", "args": {"Answer": ' + deep + "}}")

    def test_skips_decoy_objects_without_action_key(self):
        text = 'context {"x": 1} then {"action":"get_weather","args":{}}'
        assert parse_action(text).tool_name == "get_weather"

    def test_missing_args_defaults_empty(self):
        assert parse_action('{"action":"get_weather"}').args == {}

    def test_nested_arg_values_coerced_to_text(self):
        action = parse_action('{"action":"t","args":{"q":{"deep":1}}}')
        assert isinstance(action.args["q"], str)

    @settings(max_examples=60, deadline=None)
    @given(
        prefix=st.text(st.characters(exclude_characters="{}", exclude_categories=("Cs",)), max_size=40),
        suffix=st.text(st.characters(exclude_characters="{}", exclude_categories=("Cs",)), max_size=40),
        city=st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=10),
    )
    def test_robust_to_surrounding_prose(self, prefix, suffix, city):
        payload = json.dumps({"thought": "t", "action": "get_weather", "args": {"city": city}})
        action = parse_action(prefix + payload + suffix)
        assert action.tool_name == "get_weather"
        assert action.args == {"city": city}


VALID_CALL = '{"thought":"t","action":"get_weather","args":{"city":"Miami"}}'


class TestPropose:
    def test_happy_path(self):
        provider = ScriptedProvider(ScriptedPolicy(default=VALID_CALL))
        action = propose(provider, ROUTER, INSTRUCTION, State.empty(), TOOLS_BLOCK)
        assert action.tool_name == "get_weather"
        assert action.retry_count == 0

    def test_corrective_retry_recovers(self):
        # The corrective suffix flips the match on the second attempt.
        policy = ScriptedPolicy(
            entries=(PolicyEntry(match="could not be parsed", response=VALID_CALL),),
            default="sorry, no idea",
        )
        provider = RecordingProvider(ScriptedProvider(policy))
        action = propose(provider, ROUTER, INSTRUCTION, State.empty(), TOOLS_BLOCK)
        assert action.tool_name == "get_weather"
        assert action.retry_count == 1
        assert len(provider.calls) == 2

    def test_garbage_on_all_attempts(self):
        provider = RecordingProvider(ScriptedProvider(ScriptedPolicy(default="garbage")))
        with pytest.raises(MalformedOutput):
            propose(provider, ROUTER, INSTRUCTION, State.empty(), TOOLS_BLOCK)
        assert len(provider.calls) == REASK_RETRIES + 1

    def test_propose_from_prompt_shared_path(self):
        provider = ScriptedProvider(ScriptedPolicy(default=VALID_CALL))
        action = propose_from_prompt(provider, "any prompt text")
        assert action.kind == "ToolCall"
