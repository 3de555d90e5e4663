"""Re-ask and error policy of the three callers of ``parsing.ask_json``.

Each caller meets three providers: one whose policy has no reply for the
prompt (``ScriptError``), one whose request is too large
(``RequestTooLarge``) and one that replies with garbage. The policy under
test is whether the error escapes, is re-asked, and what the caller falls
back to once the re-asks are spent.
"""

from __future__ import annotations

import pytest

from sum2act.core import Action, Episode, Instruction, Observation, State, Step, Terminal, ToolSpec
from sum2act.errors import MalformedOutput, RequestTooLarge, ScriptError
from sum2act.evaluation import llm_verdict
from sum2act import parsing
from sum2act.parsing import MAX_REPLY_CHARS, REASK_RETRIES, ask_json
from sum2act.router import parse_action, propose_from_prompt
from sum2act.state_manager import update

INSTRUCTION = Instruction(id="i1", text="find the weather in Miami")
TOOLS = (ToolSpec(name="get_weather", description="weather by city"),)
ATTEMPTS = REASK_RETRIES + 1


class StubProvider:
    """Answers call n with the n-th outcome, repeating the last one; an
    exception outcome is raised. Keeps every prompt."""

    def __init__(self, *outcomes):
        self.outcomes = outcomes
        self.prompts: list[str] = []

    def complete(self, request) -> str:
        self.prompts.append(request.prompt)
        outcome = self.outcomes[min(len(self.prompts), len(self.outcomes)) - 1]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _script_error():
    return StubProvider(ScriptError("no policy entry matched"))


def _too_large():
    return StubProvider(RequestTooLarge("rendered request is too large"))


def _garbage():
    return StubProvider("no JSON here")


def _judge(provider):
    finish = Step(Action(kind="Finish", args={"Answer": "a"}), None, State())
    episode = Episode(INSTRUCTION, TOOLS, (finish,), Terminal("Finished", "a"), "m", 2)
    return llm_verdict(provider, episode, episode, "m:a", "m:b")


def _update(provider):
    observation = Observation(
        status="ToolError", payload="", tool_name="get_weather",
        args_echo={"city": "Miami"}, error="HTTP 502: upstream gone",
    )
    return update(provider, INSTRUCTION, State(), observation, 1, {})


class TestAskJson:
    def test_returns_value_and_attempt(self):
        def parse(text):
            if text != "good":
                raise MalformedOutput(f"reply was {text!r}")
            return text

        provider = StubProvider("bad", "good")
        assert ask_json(provider, "P", parse, " [{error}]") == ("good", 1)
        assert provider.prompts == ["P", "P [reply was 'bad']"]

    def test_spent_retries_raise_with_last_error(self):
        provider = _script_error()
        with pytest.raises(MalformedOutput) as info:
            ask_json(provider, "P", str, " again", swallow=(ScriptError,))
        assert isinstance(info.value.__cause__, ScriptError)
        assert provider.prompts == ["P"] + ["P again"] * REASK_RETRIES

    def test_reply_over_the_cap_is_reasked(self):
        at_cap = "x" * MAX_REPLY_CHARS
        provider = StubProvider(at_cap + "x", at_cap)
        assert ask_json(provider, "P", str, " [{error}]") == (at_cap, 1)
        error = f"reply of {MAX_REPLY_CHARS + 1} chars is over {MAX_REPLY_CHARS}"
        assert provider.prompts[1] == f"P [{error}]"

    def test_over_long_flood_is_never_decoded(self, monkeypatch):
        # 198 KB of real object starts: each one would be decoded down to the
        # recursion limit if the reply reached the parser.
        decodes = []
        decoder = parsing._DECODER

        class CountingDecoder:
            def raw_decode(self, text, index):
                decodes.append(index)
                return decoder.raw_decode(text, index)

        monkeypatch.setattr(parsing, "_DECODER", CountingDecoder())
        provider = StubProvider('{"a": ' * 33000)
        with pytest.raises(MalformedOutput, match="chars is over"):
            ask_json(provider, "P", parse_action, " again")
        assert len(provider.prompts) == ATTEMPTS
        assert decodes == []

    def test_unlisted_provider_error_escapes(self):
        provider = _too_large()
        with pytest.raises(RequestTooLarge):
            ask_json(provider, "P", str, " again", swallow=(ScriptError,))
        assert len(provider.prompts) == 1


class TestRouterPolicy:
    """Provider errors escape; garbage is re-asked, then MalformedOutput
    (the engines end the episode AbortedParseFailure)."""

    @pytest.mark.parametrize("make, error", [(_script_error, ScriptError), (_too_large, RequestTooLarge)])
    def test_provider_errors_escape(self, make, error):
        provider = make()
        with pytest.raises(error):
            propose_from_prompt(provider, "prompt")
        assert len(provider.prompts) == 1

    def test_garbage_is_reasked_then_malformed(self):
        provider = _garbage()
        with pytest.raises(MalformedOutput):
            propose_from_prompt(provider, "prompt")
        assert len(provider.prompts) == ATTEMPTS
        assert all("could not be parsed" in prompt for prompt in provider.prompts[1:])


class TestStateManagerPolicy:
    """Every error is re-asked, then the mechanical verdict is logged and used."""

    @pytest.mark.parametrize("make", [_script_error, _too_large, _garbage])
    def test_reasked_then_mechanical_fallback(self, make, caplog):
        provider = make()
        state = _update(provider)
        assert len(provider.prompts) == ATTEMPTS
        assert all("could not be used" in prompt for prompt in provider.prompts[1:])
        assert [f.reason for f in state.failure_history] == ["HTTP 502: upstream gone"]
        assert [r.getMessage().split(":")[0] for r in caplog.records] == [
            "state verdict unparseable, using mechanical fallback"
        ]


class TestJudgePolicy:
    """Provider errors escape; garbage is re-asked, then recorded as a tie."""

    @pytest.mark.parametrize("make, error", [(_script_error, ScriptError), (_too_large, RequestTooLarge)])
    def test_provider_errors_escape(self, make, error):
        provider = make()
        with pytest.raises(error):
            _judge(provider)
        assert len(provider.prompts) == 1

    def test_garbage_is_reasked_then_tie(self):
        provider = _garbage()
        assert _judge(provider) == ("Tie", "judge output unparseable; recorded as tie")
        assert len(provider.prompts) == ATTEMPTS
        assert all("could not be parsed" in prompt for prompt in provider.prompts[1:])
