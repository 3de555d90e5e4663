"""Whole-engine property tests: every method, driven through ``run_episode``
by random tool behaviour and random model replies, ends in a valid terminal
state within its budget, with a trace that round-trips byte-identically, and
raises nothing; sum2act's state-manager shortcuts keep the first of each
result and failure a loop without them would keep, and its failure history
only grows, each reason clipped, however far the cap folds; react's transcript
drops only a step that repeats the one before it; and dfsdt opens no search
node for such a step, so a poll that never changes ends its search."""

from __future__ import annotations

import json
import re
import zlib
from itertools import cycle, groupby
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sum2act import engine
from sum2act.core import (
    Instruction, Observation, ToolSpec, args_digest, deserialize_episode, serialize_episode,
)
from sum2act.engine import DFSDT_MAX_CHILDREN, RESTART_ACTION, EngineConfig, run_episode
from sum2act.errors import RequestTooLarge
from sum2act.provider import ScriptedPolicy, ScriptedProvider
from sum2act.router import ROUTER_RULES
from sum2act.sandbox import Behavior, PassCondition, Scenario, ScenarioSession
from sum2act.state_manager import FAILURE_REASON_CAP_CHARS, render_observation

from .episode_strategies import arg_maps, safe_text
from .test_engine import _transcript

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
    config = EngineConfig(step_budget=draw(st.integers(1, 12)))
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
    episode = _run(method, scenario, EngineConfig(step_budget=2), provider)
    assert episode.terminal.status == "BudgetExhausted"


# (args, payload) observations of one polling tool: one args returning two
# payloads, one payload returned for two args, two payloads given one
# summary, and a payload judged a failure.
POLLS = (
    ({"job": "1"}, "pending"),
    ({"job": "1"}, "done: 42"),
    ({"job": "2"}, "pending"),
    ({"job": "2"}, "queued"),
    ({"job": "2"}, "error page"),
    ({}, "needle"),
)
SUMMARIES = {
    "pending": "job not done",
    "queued": "job not done",
    "done: 42": "job done: 42",
    "needle": "found the needle",
}
# (status, args, error) failed polls: each error repeats word for word, a
# second differs under the same args, each is raised under other args, and
# one reports the job done, which the verdict judges a Success.
FAILED_POLLS = tuple(
    (status, args, error)
    for status in ("ToolError", "Timeout", "MalformedResponse")
    for args in ({"job": "1"}, {"job": "2"})
    for error in ("HTTP 503: store down", "HTTP 504: gateway timeout", "upload failed after done: 42")
)

polls = st.one_of(
    st.sampled_from(POLLS).map(lambda poll: Observation(
        status="Success", payload=poll[1], tool_name="poll", args_echo=poll[0],
    )),
    st.sampled_from(FAILED_POLLS).map(lambda poll: Observation(
        status=poll[0], payload="", tool_name="poll", args_echo=poll[1], error=poll[2],
    )),
)


def _verdict(seen: str) -> tuple[str, str]:
    """The verdict on an observation as ``render_observation`` shows it, and
    on nothing else."""
    payload = seen.rsplit("payload: ", 1)[1]
    if payload in SUMMARIES:
        return "Success", SUMMARIES[payload]
    if "done: 42" in seen:  # an error that reports the job done
        return "Success", SUMMARIES["done: 42"]
    shown = seen.split("\n", 2)[2]  # the error and payload lines
    return "Failure", f"the poll showed {shown!r}"


class PollProvider:
    """Proposes a poll with each of the given args in order and judges each
    observation with ``_verdict``, counting every call."""

    def __init__(self, args_list):
        self.args_list = args_list
        self.router_calls = self.calls = 0

    def complete(self, request) -> str:
        self.calls += 1
        if ROUTER_RULES in request.prompt:
            args = self.args_list[self.router_calls]
            self.router_calls += 1
            return json.dumps({"thought": "poll", "action": "poll", "args": args})
        verdict, text = _verdict(request.prompt.rsplit("## Newest Observation\n", 1)[1].rstrip("\n"))
        return json.dumps({"verdict": verdict, "summary" if verdict == "Success" else "reason": text})


def _reference(observations):
    """sum2act's state manager with no shortcut and no fold: a router call
    and a verdict call at every step, every Success verdict appended as
    (text, step) and every Failure verdict as (tool, args digest, reason,
    step). Returns the results, the failures and the provider calls."""
    results, failures = [], []
    for step, observation in enumerate(observations, 1):
        outcome, text = _verdict(render_observation(observation))
        if outcome == "Success":
            results.append((text, step))
        else:
            failures.append((observation.tool_name, args_digest(observation.args_echo), text, step))
    return results, failures, 2 * len(observations)


@settings(max_examples=200, deadline=None)
@given(observations=st.lists(polls, min_size=1, max_size=12))
def test_sum2act_keeps_the_first_of_each_reference_result(observations):
    # The drawn states stay far under the cap, so no merge changes a text,
    # and every reason is under the clip.
    replies = iter(observations)
    provider = PollProvider([observation.args_echo for observation in observations])
    episode = run_episode(
        "sum2act", provider, Instruction(id="poll", text="report the job"),
        [ToolSpec(name="poll", description="poll a job")], EngineConfig(step_budget=len(observations)),
        lambda tool, args: next(replies),
    )
    results, failures, calls = _reference(observations)
    first_results, first_failures = {}, {}
    for text, step in results:
        first_results.setdefault(text, step)
    for tool, digest, reason, step in failures:
        first_failures.setdefault((tool, digest), (tool, digest, reason, step))
    assert len(episode.steps) == len(observations)
    state = episode.steps[-1].state
    assert [(e.text, e.step) for e in state.current_results] == list(first_results.items())
    assert [(f.tool, f.digest, f.reason, f.step) for f in state.failure_history] == list(first_failures.values())
    assert provider.calls <= calls


class SizedVerdictProvider:
    """Proposes a poll at every step, judges call ``i`` by ``sizes[i]``:
    a Success summary ``"i: sss..."`` or a Failure reason ``"fff..."`` of
    that many chars (an empty one is refused and falls back), and merges
    any notes into one short note."""

    def __init__(self, sizes):
        self.sizes = sizes

    def complete(self, request) -> str:
        prompt = request.prompt
        if ROUTER_RULES in prompt:
            return json.dumps({"thought": "poll", "action": "poll", "args": {}})
        if prompt.startswith("Merge these two progress notes"):
            return "merged note"
        seen = prompt.rsplit("## Newest Observation\n", 1)[1]
        kind, index = re.search(r"(result|call) (\d+)", seen).groups()
        size = self.sizes[int(index)]
        if kind == "result":
            return json.dumps({"verdict": "Success", "summary": f"{index}: " + "s" * size})
        return json.dumps({"verdict": "Failure", "reason": "f" * size})


def _sized_observation(index: int, failed: bool) -> Observation:
    args = {"n": str(index)}  # a new args digest at every call
    if failed:
        return Observation(
            status="ToolError", payload="", tool_name="poll", args_echo=args, error=f"HTTP 500: call {index}",
        )
    return Observation(status="Success", payload=f"result {index}", tool_name="poll", args_echo=args)


@settings(max_examples=100, deadline=None)
@given(calls=st.lists(
    st.one_of(
        st.tuples(st.just(False), st.integers(300, 1200)),
        st.tuples(st.just(True), st.integers(0, 1000)),
    ),
    min_size=6, max_size=24,
))
def test_failure_history_only_grows_and_each_reason_is_clipped(calls):
    # The results push the state over the cap, so the cap folds while
    # reasons of up to 1,000 chars stand in the failure history.
    observations = iter(_sized_observation(i, failed) for i, (failed, _) in enumerate(calls))
    episode = run_episode(
        "sum2act", SizedVerdictProvider([size for _, size in calls]),
        Instruction(id="poll", text="report the job"),
        [ToolSpec(name="poll", description="poll a job")], EngineConfig(step_budget=len(calls)),
        lambda tool, args: next(observations),
    )
    assert len(episode.steps) == len(calls)
    previous = ()
    for step in episode.steps:
        history = step.state.failure_history
        assert history[: len(previous)] == previous
        assert all(len(entry.reason) <= FAILURE_REASON_CAP_CHARS for entry in history)
        previous = history


class LastEntryProvider:
    """Replies with one of ``replies``, picked by the transcript's last entry
    alone, and keeps every prompt."""

    def __init__(self, replies: list[str]):
        self.replies = replies
        self.prompts: list[str] = []

    def complete(self, request) -> str:
        self.prompts.append(request.prompt)
        last = _transcript(request.prompt)[-1:]
        return self.replies[zlib.crc32("".join(last).encode()) % len(self.replies)]


# Few distinct steps, so a step often repeats the one before it.
step_replies = st.builds(
    lambda thought, args, action: json.dumps({"thought": thought, "action": action, "args": args}),
    st.sampled_from(["poll", "wait"]),
    st.sampled_from([{}, {"job": "1"}]),
    st.sampled_from(["poll", "poll", RESTART_ACTION]),
)
# Each draws the observation of a call with the given args.
successes = st.sampled_from(["pending", "queued", "done: 42"]).map(
    lambda payload: lambda args: Observation(status="Success", payload=payload, tool_name="poll", args_echo=args)
)
failures = st.just(lambda args: Observation(
    status="ToolError", payload="", tool_name="poll", args_echo=args, error="HTTP 503: store down",
))


def _poll(method, replies, observations, budget):
    """Run an episode of ``poll`` calls, each observed by the next of the
    drawn observations, in turn; no reply finishes, so it runs until its
    budget is spent or the dfsdt tree is exhausted. Returns the episode and
    its prompts."""
    drawn = cycle(observations)
    provider = LastEntryProvider(replies)
    episode = run_episode(
        method, provider, Instruction(id="poll", text="report the job"),
        [ToolSpec(name="poll", description="poll a job")], EngineConfig(step_budget=budget),
        lambda tool, args: next(drawn)(args),
    )
    return episode, provider.prompts


drawn_polls = dict(
    replies=st.lists(step_replies, min_size=1, max_size=3),
    observations=st.lists(st.one_of(successes, successes, failures), min_size=1, max_size=6),
    budget=st.integers(1, 12),
)


# dfsdt, which opens no node for such a step, has its own two tests below.
@pytest.mark.parametrize("method", ["react"])
@settings(max_examples=200, deadline=None)
@given(**drawn_polls)
def test_transcript_drops_only_consecutive_repeats(method, replies, observations, budget):
    # The entries stay far under react's window, so none is evicted.
    episode, prompts = _poll(method, replies, observations, budget)
    with mock.patch.object(engine, "_repeats_last", lambda transcript, entry: False):
        reference, reference_prompts = _poll(method, replies, observations, budget)
    assert episode == reference
    assert len(prompts) == len(reference_prompts)
    for prompt, reference_prompt in zip(prompts, reference_prompts):
        assert _transcript(prompt) == [entry for entry, _ in groupby(_transcript(reference_prompt))]
    # react's reference transcript is every step taken so far.
    for index, prompt in enumerate(reference_prompts):
        taken = [engine._transcript_entry(step.action, step.observation) for step in episode.steps[:index]]
        assert _transcript(prompt) == taken


@settings(max_examples=200, deadline=None)
@given(**drawn_polls)
def test_no_search_node_repeats_its_parent(replies, observations, budget):
    nodes, search_node = [], engine.SearchNode

    def opened(*args, **kwargs):
        nodes.append(search_node(*args, **kwargs))
        return nodes[-1]

    with mock.patch.object(engine, "SearchNode", opened):
        _poll("dfsdt", replies, observations, budget)
    # The root, then one child per Success that did not repeat its
    # branch's last entry.
    assert nodes[0].parent is None
    for node in nodes[1:]:
        assert node.memory != node.parent.memory
        assert node.memory[:-1] == node.parent.memory


@settings(max_examples=100, deadline=None)
@given(
    reply=step_replies.filter(lambda reply: json.loads(reply)["action"] == "poll"),
    success=successes,
    budget=st.integers(DFSDT_MAX_CHILDREN * (DFSDT_MAX_CHILDREN + 1), engine.DFSDT_STEP_BUDGET),
)
def test_one_success_payload_forever_exhausts_the_tree_in_twelve_steps(reply, success, budget):
    # The root's three children each hold the one entry, and each takes
    # three repeats, none of which opens a node.
    episode, prompts = _poll("dfsdt", [reply], [success], budget)
    assert episode.terminal.status == "BudgetExhausted"
    assert len(episode.steps) == len(prompts) == 12
    assert all(step.observation == episode.steps[0].observation for step in episode.steps)
