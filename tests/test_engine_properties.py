"""Whole-engine property test: every method, driven through ``run_episode``
by random tool behaviour and random model replies, ends in a valid terminal
state within its budget, with a trace that round-trips byte-identically, and
raises nothing."""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sum2act.core import Instruction, ToolSpec, deserialize_episode, serialize_episode
from sum2act.engine import RESTART_ACTION, EngineConfig, run_episode
from sum2act.errors import RequestTooLarge
from sum2act.provider import ScriptedPolicy, ScriptedProvider
from sum2act.router import ROUTER_RULES
from sum2act.sandbox import Behavior, PassCondition, Scenario, ScenarioSession

from .episode_strategies import arg_maps, safe_text

TOOL_NAMES = ("alpha", "beta", "gamma")
VERBOSE_CHARS = 200_000


class QueueProvider:
    """Answers router calls from one list of drawn replies and every other
    call (state verdict, merge) from another, each cycling,
    under the request size limit every provider enforces."""

    def __init__(self, router_replies: list[str], other_replies: list[str]):
        self.queues = {True: router_replies, False: other_replies}
        self.calls = {True: 0, False: 0}

    def complete(self, request) -> str:
        router = ROUTER_RULES in request.prompt
        queue = self.queues[router]
        reply = queue[self.calls[router] % len(queue)]
        self.calls[router] += 1
        return ScriptedProvider(ScriptedPolicy(default=reply)).complete(request)


behaviors = st.one_of(
    st.builds(Behavior, kind=st.just("success"), payload=safe_text),
    st.builds(Behavior, kind=st.just("error"), code=st.sampled_from([None, 404, 500, 503]),
              message=safe_text),
    st.builds(Behavior, kind=st.just("timeout"), message=safe_text),
    st.builds(Behavior, kind=st.just("verbose"), payload=st.just("needle"),
              filler_chars=st.integers(6, VERBOSE_CHARS)),
)

garbage = st.one_of(
    safe_text,
    st.text(alphabet='{}[]":, \\ab', max_size=60),
    st.integers(1, 1200).map(lambda depth: '{"a":' * depth + "1" + "}" * depth),
)
tool_calls = st.builds(
    lambda thought, action, args: json.dumps({"thought": thought, "action": action, "args": args}),
    safe_text, st.sampled_from(TOOL_NAMES + (RESTART_ACTION, "unknown_tool")), arg_maps,
)
finishes = st.builds(
    lambda answer: json.dumps({"thought": "done", "action": "Finish", "args": {"Answer": answer}}),
    safe_text,
)
# Usable replies come first and tool calls twice, so that episodes run for
# several steps.
router_replies = st.one_of(tool_calls, finishes, tool_calls, garbage)
other_replies = st.one_of(
    st.builds(lambda text: json.dumps({"verdict": "Success", "summary": text}), safe_text),
    st.builds(lambda text: json.dumps({"verdict": "Failure", "reason": text}), safe_text),
    st.builds(lambda text: json.dumps({"target": text or "t", "subtasks": [text]}), safe_text),
    garbage,
)


@st.composite
def episode_inputs(draw):
    names = TOOL_NAMES[: draw(st.integers(1, len(TOOL_NAMES)))]
    tools = tuple(ToolSpec(name=name, description=f"tool {name}") for name in names)
    scenario = Scenario(
        id="prop",
        instruction=Instruction(id="prop", text="find the needle"),
        tools=tools,
        behaviors={
            name: tuple(draw(st.lists(behaviors, min_size=1, max_size=4)))
            + (Behavior(kind=draw(st.sampled_from(["success", "error", "timeout"])),
                        payload="last", repeat="forever"),)
            for name in names
        },
        pass_condition=PassCondition(contains_all=("needle",)),
    )
    config = EngineConfig(
        step_budget=draw(st.integers(1, 12)),
        dfsdt_max_children=draw(st.integers(1, 3)),
    )
    provider = QueueProvider(
        draw(st.lists(router_replies, min_size=1, max_size=30)),
        draw(st.lists(other_replies, min_size=1, max_size=30)),
    )
    return scenario, config, provider


def _run(method, scenario, config, provider):
    return run_episode(
        method, provider, scenario.instruction, list(scenario.tools),
        config, ScenarioSession(scenario).invoke,
    )


@pytest.mark.parametrize("method", ["sum2act", "react", "dfsdt"])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inputs=episode_inputs())
def test_episode_ends_validly_and_round_trips(method, inputs):
    scenario, config, provider = inputs
    try:
        episode = _run(method, scenario, config, provider)
    except RequestTooLarge:
        if method == "dfsdt":
            return  # the known defect, pinned by test_verbose_payload_in_branch_memory
        raise
    assert episode.terminal.status in ("Finished", "BudgetExhausted", "AbortedParseFailure")
    assert len(episode.steps) <= config.step_budget
    ends_with_finish = bool(episode.steps) and episode.steps[-1].action.kind == "Finish"
    assert (episode.terminal.status == "Finished") == ends_with_finish
    record = serialize_episode(episode)
    assert serialize_episode(deserialize_episode(record)) == record


@pytest.mark.parametrize("method", [
    "sum2act",
    "react",
    pytest.param("dfsdt", marks=pytest.mark.xfail(
        raises=RequestTooLarge, strict=True,
        reason="dfsdt keeps whole observations in its branch memory, unclipped, "
               "so a verbose payload can push its prompt over the request limit",
    )),
])
def test_verbose_payload_in_branch_memory(method):
    scenario = Scenario(
        id="prop",
        instruction=Instruction(id="prop", text="find the needle"),
        tools=(ToolSpec(name="alpha", description="tool alpha"),),
        behaviors={"alpha": (
            Behavior(kind="verbose", payload="needle", filler_chars=VERBOSE_CHARS),
            Behavior(kind="success", payload="last", repeat="forever"),
        )},
        pass_condition=PassCondition(contains_all=("needle",)),
    )
    provider = QueueProvider(
        [json.dumps({"thought": "look", "action": "alpha", "args": {}})],
        [json.dumps({"verdict": "Success", "summary": "found it"})],
    )
    episode = _run(method, scenario, EngineConfig(step_budget=2, dfsdt_max_children=1), provider)
    assert episode.terminal.status == "BudgetExhausted"
