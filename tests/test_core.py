from __future__ import annotations

import json
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings

from sum2act.core import (
    Action,
    Episode,
    FailureEntry,
    Instruction,
    Observation,
    ParamSpec,
    ResultEntry,
    State,
    Step,
    Terminal,
    ToolSpec,
    args_digest,
    canonical_args,
    deserialize_episode,
    normalize_arg_value,
    read_trace,
    serialize_episode,
)
from sum2act.engine import METHOD_LABELS, EngineConfig, run_episode
from sum2act.errors import ConfigurationError
from sum2act.provider import RecordingProvider, ScriptedPolicy, ScriptedProvider
from sum2act.sandbox import Behavior

from .episode_strategies import episodes

INSTRUCTION = Instruction(id="i1", text="do the thing")
TOOLS = (
    ToolSpec(name="alpha", description="first tool"),
    ToolSpec(name="beta", description="second tool"),
    ToolSpec(name="gamma", description="third tool"),
)


class TestConstruction:
    def test_zero_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(step_budget=0)

    def test_empty_tool_list_rejected(self):
        # Every method raises before its first provider call.
        finish = {"thought": "t", "action": "Finish", "args": {"Answer": "a"}}
        for method in METHOD_LABELS:
            provider = RecordingProvider(ScriptedProvider(ScriptedPolicy(default=json.dumps(finish))))
            with pytest.raises(ConfigurationError, match="'tools' must list at least one tool"):
                run_episode(method, provider, INSTRUCTION, [], EngineConfig(), lambda name, args: None)
            assert provider.calls == []

    def test_repeated_tool_name_rejected(self):
        # The router would list both tools; every method raises before its
        # first provider call, as the scenario and catalog loaders do.
        finish = {"thought": "t", "action": "Finish", "args": {"Answer": "a"}}
        tools = [ToolSpec(name="a", description="x"), ToolSpec(name="a", description="y")]
        for method in METHOD_LABELS:
            provider = RecordingProvider(ScriptedProvider(ScriptedPolicy(default=json.dumps(finish))))
            with pytest.raises(ConfigurationError, match="tool 'a' is listed more than once"):
                run_episode(method, provider, INSTRUCTION, tools, EngineConfig(), lambda name, args: None)
            assert provider.calls == []

    def test_bad_tool_name_rejected(self):
        with pytest.raises(ConfigurationError):
            ToolSpec(name="has space", description="nope")

    def test_finish_requires_answer(self):
        with pytest.raises(ConfigurationError):
            Action(kind="Finish", args={})

    def test_tool_call_requires_name(self):
        with pytest.raises(ConfigurationError):
            Action(kind="ToolCall", tool_name="", args={})

    def test_tool_call_has_no_answer(self):
        with pytest.raises(ConfigurationError, match="only Finish actions carry an answer"):
            Action(kind="ToolCall", tool_name="t").answer

    def test_failed_observation_requires_descriptor(self):
        with pytest.raises(ConfigurationError):
            Observation(status="ToolError", payload="", tool_name="alpha")

    def test_instruction_requires_text(self):
        with pytest.raises(ConfigurationError):
            Instruction(id="x", text="")

    def test_episode_over_budget_rejected(self):
        finish = Step(Action(kind="Finish", args={"Answer": "hi"}), None, State())
        with pytest.raises(ConfigurationError, match="over budget"):
            Episode(INSTRUCTION, TOOLS, (finish, finish), Terminal("Finished", "hi"), "sum2act", 1)

    @pytest.mark.parametrize("kinds, terminal", [
        ((), Terminal("Finished", "hi")),
        (("ToolCall",), Terminal("Finished", "hi")),
        (("Finish",), Terminal("BudgetExhausted")),
    ], ids=["finished_no_steps", "finished_after_tool_call", "finish_then_budget_exhausted"])
    def test_finished_must_coincide_with_final_finish(self, kinds, terminal):
        actions = {
            "ToolCall": Action(kind="ToolCall", tool_name="alpha"),
            "Finish": Action(kind="Finish", args={"Answer": "hi"}),
        }
        steps = tuple(Step(actions[kind], None, State()) for kind in kinds)
        with pytest.raises(ConfigurationError, match="coincide"):
            Episode(INSTRUCTION, TOOLS, steps, terminal, "sum2act", 30)

    def test_shrinking_failure_history_rejected(self):
        failed = State(failure_history=(FailureEntry("alpha", "d", "r", 1),))
        call = Action(kind="ToolCall", tool_name="alpha")
        steps = (Step(call, None, failed), Step(call, None, State()))
        with pytest.raises(ConfigurationError, match="failure history shrank"):
            Episode(INSTRUCTION, TOOLS, steps, Terminal("BudgetExhausted"), "sum2act", 30)


class TestArgsDigest:
    def test_order_insensitive(self):
        assert args_digest({"a": 1, "b": "x"}) == args_digest({"b": "x", "a": 1})

    def test_different_args_differ(self):
        assert args_digest({"a": 1}) != args_digest({"a": 2})

    def test_nested_values_render_as_text(self):
        rendered = canonical_args({"q": {"inner": 1}})
        parsed = json.loads(rendered)
        assert isinstance(parsed["q"], str)
        assert "inner" in parsed["q"]

    def test_canonical_rendering_is_sorted(self):
        assert canonical_args({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_null_value_renders_as_empty_text(self):
        assert normalize_arg_value(None) == ""

    def test_flat_list_of_scalars_is_kept(self):
        value = ["a", 1, 2.5, True]
        assert normalize_arg_value(value) is value
        assert normalize_arg_value([["a"]]) == '[["a"]]'


def _finished_episode() -> Episode:
    action1 = Action(kind="ToolCall", tool_name="alpha", args={"x": "1"})
    obs1 = Observation(status="Success", payload="alpha says hi", tool_name="alpha", args_echo={"x": "1"})
    state1 = State()
    action2 = Action(kind="Finish", args={"Answer": "hi"})
    steps = (Step(action1, obs1, state1), Step(action2, None, state1))
    return Episode(INSTRUCTION, TOOLS, steps, Terminal("Finished", "hi"), "sum2act", 30)


class TestSerialization:
    def test_two_step_record_shape(self):
        record = serialize_episode(_finished_episode())
        data = json.loads(record)
        assert len(data["steps"]) == 2
        assert data["terminal"]["status"] == "Finished"
        assert data["step_budget"] == 30
        assert set(data) == {
            "instruction", "tools", "steps", "terminal", "method_label", "step_budget",
        }

    def test_non_record_value_raises_type_error(self):
        finish = Step(Action(kind="Finish", args={"Answer": object()}), None, State())
        episode = Episode(INSTRUCTION, TOOLS, (finish,), Terminal("Finished", "hi"), "sum2act", 30)
        with pytest.raises(TypeError, match="object is not JSON serializable"):
            serialize_episode(episode)

    def test_non_trace_dataclass_raises_type_error(self):
        # Only the eleven trace record types are written as records.
        action = Action(kind="ToolCall", tool_name="alpha", args={"b": Behavior(kind="success")})
        call = Step(action, None, State())
        episode = Episode(INSTRUCTION, TOOLS, (call,), Terminal("BudgetExhausted"), "sum2act", 30)
        with pytest.raises(TypeError, match="Behavior is not JSON serializable"):
            serialize_episode(episode)

    def test_record_keys_are_field_names(self):
        tools = (ToolSpec(name="alpha", description="first", params=(ParamSpec(name="x", required=True),)),)
        state = State((ResultEntry("alpha said hi", 1),), (FailureEntry("alpha", "d1", "timed out", 1),))
        call = Action(kind="ToolCall", tool_name="alpha", args={"x": "1"})
        observation = Observation(status="Success", payload="hi", tool_name="alpha", args_echo={"x": "1"})
        finish = Action(kind="Finish", args={"Answer": "hi"})
        episode = Episode(
            INSTRUCTION, tools, (Step(call, observation, state), Step(finish, None, state)),
            Terminal("Finished", "hi"), "sum2act", 30,
        )
        seen = set()

        def check(value, data):
            if is_dataclass(value):
                seen.add(type(value))
                names = [f.name for f in fields(value) if f.init]
                assert sorted(data) == sorted(names), type(value).__name__
                for name in names:
                    check(getattr(value, name), data[name])
            elif isinstance(value, tuple):
                for item, item_data in zip(value, data, strict=True):
                    check(item, item_data)

        check(episode, json.loads(serialize_episode(episode)))
        assert seen == {
            Instruction, ParamSpec, ToolSpec, Action, Observation, ResultEntry,
            FailureEntry, State, Step, Terminal, Episode,
        }

    def test_unknown_terminal_tag_rejected(self):
        record = serialize_episode(_finished_episode())
        data = json.loads(record)
        data["terminal"]["status"] = "Vanished"
        with pytest.raises(ConfigurationError):
            deserialize_episode(json.dumps(data))

    def test_garbage_record_rejected(self):
        with pytest.raises(ConfigurationError, match="^invalid JSON: "):
            deserialize_episode("not json at all")
        with pytest.raises(ConfigurationError, match="^malformed trace record: "):
            deserialize_episode('["a", "list"]')

    def test_tool_record_without_description_rejected(self):
        data = json.loads(serialize_episode(_finished_episode()))
        del data["tools"][0]["description"]
        with pytest.raises(ConfigurationError, match="description"):
            deserialize_episode(json.dumps(data))

    @pytest.mark.parametrize("path, value", [
        (("terminal",), None),
        (("instruction",), "i1"),
        (("tools",), {"name": "alpha"}),
        (("steps", 0, "action"), None),
        (("steps", 0, "state"), None),
        (("steps", 0, "state", "failure_history"), None),
        (("step_budget",), "x"),
        (("step_budget",), None),
        (("step_budget",), True),
        (("terminal", "answer"), 5),
        (("terminal", "status"), 5),
        (("instruction", "subset_label"), 5),
        (("instruction", "text"), ["t"]),
        (("method_label",), None),
        (("steps", 0, "action", "retry_count"), "0"),
        (("steps", 0, "action", "args"), []),
        (("steps", 0, "observation", "latency"), False),
        (("steps", 0, "observation", "error"), 1),
        (("steps", 1, "state", "current_results"), [{"text": "r", "step": 1.5}]),
        (("tools", 0, "params"), [{"name": "x", "required": "yes"}]),
    ], ids=lambda p: ".".join(map(str, p)) if isinstance(p, tuple) else repr(p))
    def test_malformed_field_rejected(self, path, value):
        data = json.loads(serialize_episode(_finished_episode()))
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ConfigurationError):
            deserialize_episode(json.dumps(data))

    def test_over_budget_record_rejected(self):
        record = serialize_episode(_finished_episode())
        data = json.loads(record)
        data["step_budget"] = 1
        with pytest.raises(ConfigurationError):
            deserialize_episode(json.dumps(data))

    def test_finished_requires_final_finish_action(self):
        record = serialize_episode(_finished_episode())
        data = json.loads(record)
        data["steps"] = data["steps"][:1]  # drop the Finish step
        with pytest.raises(ConfigurationError):
            deserialize_episode(json.dumps(data))

    def test_shrinking_failure_history_rejected(self):
        record = serialize_episode(_finished_episode())
        data = json.loads(record)
        data["steps"][0]["state"]["failure_history"] = [
            {"tool": "alpha", "digest": "d", "reason": "r", "step": 1}
        ]
        with pytest.raises(ConfigurationError):
            deserialize_episode(json.dumps(data))

    @settings(max_examples=50, deadline=None)
    @given(episode=episodes())
    def test_round_trip_is_identity(self, episode: Episode):
        record = serialize_episode(episode)
        assert deserialize_episode(record) == episode
        # Byte-identical on the second pass.
        assert serialize_episode(deserialize_episode(record)) == record


# Non-ASCII text in every kind of trace string, and U+007F, the one ASCII
# char the two JSON escapers of CPython write differently.
ODD_CHARS = {"\u00e9": "\\u00e9", "\u65e5\u672c": "\\u65e5\\u672c",
             "\U0001f600": "\\ud83d\\ude00", "\u2028": "\\u2028", "\u007f": "\\u007f"}
ODD = "".join(ODD_CHARS)


def _odd_episode() -> Episode:
    instruction = Instruction(id="odd", text=f"find {ODD}")
    call = Action(kind="ToolCall", tool_name="alpha", args={"q": ODD, ODD: [ODD]}, thought=ODD)
    observation = Observation(status="Success", payload=f"said {ODD}", tool_name="alpha",
                              args_echo={"q": ODD})
    state = State((ResultEntry(f"found {ODD}", 1),),
                  (FailureEntry("beta", args_digest({"q": ODD}), f"no {ODD}", 1),))
    finish = Action(kind="Finish", args={"Answer": ODD})
    steps = (Step(call, observation, state), Step(finish, None, state))
    return Episode(instruction, TOOLS, steps, Terminal("Finished", ODD), "sum2act", 30)


class TestTraceEncoding:
    def test_record_is_ascii_with_every_char_escaped(self):
        record = serialize_episode(_odd_episode())
        assert record.isascii()
        for char, escape in ODD_CHARS.items():
            assert escape in record, repr(char)
        assert deserialize_episode(record) == _odd_episode()

    def test_trace_written_unescaped_still_reads(self, tmp_path):
        # Traces were once written with ensure_ascii=False: the same record
        # with each char as itself.
        data = json.loads(serialize_episode(_odd_episode()))
        old = json.dumps(data, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        assert ODD in old
        assert deserialize_episode(old) == _odd_episode()
        trace = tmp_path / "old.jsonl"
        trace.write_text(old + "\n", encoding="utf-8")
        assert read_trace(trace) == [_odd_episode()]

    def test_args_rendering_keeps_non_ascii_text(self):
        # Prompts and failure digests show the text itself, not its escapes.
        assert canonical_args({"city": "São Paulo"}) == '{"city":"São Paulo"}'
        assert args_digest({"city": "São Paulo"}) == "0906524dcbec"
