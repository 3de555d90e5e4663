from __future__ import annotations

import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sum2act.core import (
    FailureEntry,
    Instruction,
    Observation,
    ResultEntry,
    State,
    args_digest,
)
from sum2act.errors import ConfigurationError, MalformedOutput
from sum2act.parsing import load_templates
from sum2act import state_manager
from sum2act.provider import PolicyEntry, ScriptedPolicy, ScriptedProvider
from sum2act.state_manager import (
    FAILURE_REASON_CAP_CHARS,
    _parse_verdict,
    build_state_prompt,
    enforce_cap,
    render_state,
    update,
)

INSTRUCTION = Instruction(id="i1", text="weather in Miami")
STATE = load_templates()["state"]
UNSCRIPTED = ScriptedProvider(ScriptedPolicy())  # every call errors -> mechanical path


def _success_obs(payload: str, tool: str = "get_weather", args: dict | None = None) -> Observation:
    return Observation(status="Success", payload=payload, tool_name=tool, args_echo=args or {"city": "Miami"})


def _error_obs(error: str, tool: str = "get_weather", args: dict | None = None) -> Observation:
    return Observation(status="ToolError", payload="", tool_name=tool, args_echo=args or {"city": "Miami"}, error=error)


class TestRendering:
    def test_empty_state(self):
        assert render_state(State.empty()) == "Current results: (none). Failure history: (none)."

    def test_sections_and_contract_line(self):
        state = State(
            current_results=(ResultEntry("sunny in Miami", 1),),
            failure_history=(FailureEntry("get_flights", "abc123", "bad airport code", 2),),
        )
        text = render_state(state)
        assert text.splitlines()[0] == "Failure history:"
        assert "get_flights(abc123): bad airport code" in text
        assert "Current results:" in text
        assert text.index("Failure history:") < text.index("Current results:")


def _state_a() -> State:
    return State((ResultEntry("sunny in Miami", 1),), (FailureEntry("get_flights", "abc123", "bad code", 2),))


STATE_A_TEXT = (
    "Failure history:\n"
    "  1. [step 2] get_flights(abc123): bad code\n"
    "Current results:\n"
    "  1. [step 1] sunny in Miami"
)
STATE_B = State((ResultEntry("rain in Boston", 3),), ())
STATE_B_TEXT = "Failure history: (none).\nCurrent results:\n  1. [step 3] rain in Boston"


class TestRenderMemo:
    """render_state keeps the text of the state its thread rendered last."""

    def test_each_state_gets_its_own_text(self):
        state_a = _state_a()
        assert render_state(state_a) == STATE_A_TEXT
        assert render_state(STATE_B) == STATE_B_TEXT
        assert render_state(state_a) == STATE_A_TEXT
        assert render_state(state_a) == STATE_A_TEXT
        equal = _state_a()
        assert equal == state_a and equal is not state_a
        assert render_state(equal) == STATE_A_TEXT
        assert render_state(STATE_B) == STATE_B_TEXT

    def test_nothing_is_stored_on_the_state(self):
        # The trace writer writes a State's fields.
        state = _state_a()
        render_state(state)
        render_state(state)
        assert vars(state) == vars(_state_a())

    def test_threads_rendering_alternately_get_their_own_text(self, monkeypatch):
        renders: list[State] = []
        render = state_manager._render
        monkeypatch.setattr(state_manager, "_render", lambda state: renders.append(state) or render(state))
        lockstep, free = 100, 2000
        turn = threading.Barrier(2, timeout=30)
        wrong: list[tuple[str, str]] = []

        def worker(state: State, expected: str, first: bool) -> None:
            for index in range(lockstep + free):
                if index < lockstep:
                    # One thread renders, then the other: A, B, A, B, ...
                    if not first:
                        turn.wait()
                    text = render_state(state)
                    turn.wait()
                    if first:
                        turn.wait()
                else:
                    text = render_state(state)
                if text != expected:
                    wrong.append((expected, text))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(_state_a(), STATE_A_TEXT, True)),
                threading.Thread(target=worker, args=(STATE_B, STATE_B_TEXT, False)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        # Each thread kept its own state's text: one render per thread.
        assert len(renders) == 2


class TestStatePrompt:
    def test_payload_under_cap_untouched(self):
        prompt = build_state_prompt(STATE, INSTRUCTION, State.empty(), _success_obs("x" * 200))
        assert "x" * 200 in prompt
        assert "[truncated" not in prompt

    def test_payload_over_cap_marker_arithmetic(self):
        prompt = build_state_prompt(STATE, INSTRUCTION, State.empty(), _success_obs("y" * 10000))
        assert "y" * 4096 + "[truncated 5904 chars]" in prompt
        assert "y" * 4097 not in prompt

    def test_error_descriptor_present(self):
        prompt = build_state_prompt(STATE, INSTRUCTION, State.empty(), _error_obs("HTTP 500: boom"))
        assert "HTTP 500: boom" in prompt

    def test_deterministic(self):
        obs = _success_obs("hello")
        assert build_state_prompt(STATE, INSTRUCTION, State.empty(), obs) == build_state_prompt(
            STATE, INSTRUCTION, State.empty(), obs
        )


def _verdict_provider(verdict: dict) -> ScriptedProvider:
    return ScriptedProvider(ScriptedPolicy(default=json.dumps(verdict)))


class TestUpdate:
    def test_scripted_success_appends_result(self):
        provider = _verdict_provider({"verdict": "Success", "summary": "Miami: sunny, 29 degrees"})
        state = update(provider, STATE, INSTRUCTION, State.empty(), _success_obs("..."), step_index=1)
        assert [r.text for r in state.current_results] == ["Miami: sunny, 29 degrees"]
        assert state.failure_history == ()

    def test_scripted_failure_appends_entry(self):
        provider = _verdict_provider({"verdict": "Failure", "reason": "endpoint returned server error"})
        state = update(provider, STATE, INSTRUCTION, State.empty(), _error_obs("HTTP 500: boom"), step_index=1)
        assert state.current_results == ()
        assert len(state.failure_history) == 1
        entry = state.failure_history[0]
        assert entry.tool == "get_weather"
        assert entry.reason == "endpoint returned server error"
        assert entry.digest == args_digest({"city": "Miami"})

    def test_duplicate_failures_merge(self):
        provider = _verdict_provider({"verdict": "Failure", "reason": "same failure"})
        obs = _error_obs("HTTP 500: boom")
        state = update(provider, STATE, INSTRUCTION, State.empty(), obs, step_index=1)
        state = update(provider, STATE, INSTRUCTION, state, obs, step_index=2)
        assert len(state.failure_history) == 1
        assert state.failure_history[0].step == 1

    def test_distinct_args_not_merged(self):
        provider = _verdict_provider({"verdict": "Failure", "reason": "r"})
        state = update(
            provider, STATE, INSTRUCTION, State.empty(),
            _error_obs("HTTP 500: a", args={"city": "Miami"}), step_index=1,
        )
        state = update(
            provider, STATE, INSTRUCTION, state,
            _error_obs("HTTP 500: b", args={"city": "Boston"}), step_index=2,
        )
        assert len(state.failure_history) == 2

    def test_input_state_unchanged(self):
        provider = _verdict_provider({"verdict": "Success", "summary": "new"})
        original = State(current_results=(ResultEntry("old", 1),), failure_history=())
        snapshot = State(tuple(original.current_results), tuple(original.failure_history))
        updated = update(provider, STATE, INSTRUCTION, original, _success_obs("..."), step_index=2)
        assert original == snapshot
        assert updated is not original

    def test_mechanical_fallback_success(self):
        payload = "z" * 500
        state = update(UNSCRIPTED, STATE, INSTRUCTION, State.empty(), _success_obs(payload), step_index=1)
        assert state.current_results[0].text == payload[:200]

    def test_mechanical_fallback_failure_uses_descriptor(self):
        state = update(UNSCRIPTED, STATE, INSTRUCTION, State.empty(), _error_obs("HTTP 502: upstream gone"), step_index=1)
        assert state.failure_history[0].reason == "HTTP 502: upstream gone"

    def test_recovers_after_corrective_retry(self):
        policy = ScriptedPolicy(
            entries=(
                PolicyEntry(
                    match="could not be used",
                    response=json.dumps({"verdict": "Success", "summary": "recovered"}),
                ),
            ),
            default="not a verdict",
        )
        state = update(ScriptedProvider(policy), STATE, INSTRUCTION, State.empty(), _success_obs("..."), step_index=1)
        assert state.current_results[0].text == "recovered"

    def test_over_deep_verdict_falls_back_mechanically(self):
        deep = '{"a":' * 3000 + "1" + "}" * 3000
        reply = '{"verdict": "Success", "summary": "ok", "extra": ' + deep + "}"
        with pytest.raises(MalformedOutput):
            _parse_verdict(reply)
        provider = ScriptedProvider(ScriptedPolicy(default=reply))
        state = update(provider, STATE, INSTRUCTION, State.empty(), _success_obs("p" * 500), step_index=1)
        assert state.current_results[0].text == "p" * 200


class TestEnforceCap:
    def test_identity_under_cap(self):
        state = State(current_results=(ResultEntry("short", 1),), failure_history=())
        assert enforce_cap(state, 4096) == state

    def test_cap_minimum(self):
        with pytest.raises(ConfigurationError):
            enforce_cap(State.empty(), 511)

    def test_compression_preserves_failures(self):
        results = tuple(ResultEntry(f"entry {i}: " + "x" * 440, i + 1) for i in range(20))
        failures = (FailureEntry("tool_a", "d1", "because", 1),)
        state = State(current_results=results, failure_history=failures)
        assert len(render_state(state)) > 9000
        capped = enforce_cap(state, 4096)
        assert len(render_state(capped)) <= 4096
        assert capped.failure_history == failures

    def test_reason_shortening_preserves_count(self):
        failures = tuple(
            FailureEntry(f"tool_{i}", f"d{i}", "r" * 500, i + 1) for i in range(8)
        )
        state = State(current_results=(), failure_history=failures)
        capped = enforce_cap(state, 1024)
        assert len(capped.failure_history) == len(failures)
        assert all(len(f.reason) <= FAILURE_REASON_CAP_CHARS for f in capped.failure_history)

    def test_hard_truncate_single_result(self):
        state = State(current_results=(ResultEntry("w" * 9000, 1),), failure_history=())
        capped = enforce_cap(state, 1024)
        assert len(render_state(capped)) <= 1024
        assert len(capped.current_results) == 1

    @pytest.mark.parametrize("state", [
        State(tuple(ResultEntry("x" * 400, i + 1) for i in range(4)), ()),
        State((), tuple(FailureEntry(f"tool_{i}", f"d{i}", "r" * 500, i + 1) for i in range(8))),
        State((ResultEntry("w" * 9000, 1),), ()),
    ], ids=["merge", "shorten", "truncate"])
    def test_capped_state_is_the_one_rendered_last(self, state):
        # The next prompt then takes the capped state's text from the memo.
        capped = enforce_cap(state, 1024)
        assert capped != state
        assert state_manager._last_render.state is capped

    def test_provider_backed_merge(self):
        provider = ScriptedProvider(ScriptedPolicy(
            entries=(PolicyEntry(match="Merge these two progress notes", response="merged note"),)
        ))
        results = tuple(ResultEntry("x" * 400, i + 1) for i in range(4))
        state = State(current_results=results, failure_history=())
        capped = enforce_cap(state, 1024, provider=provider)
        assert len(render_state(capped)) <= 1024
        assert any("merged note" in r.text for r in capped.current_results)

    def test_merges_stop_once_state_fits(self):
        # Merging renumbers the list, so line lengths change as the count
        # crosses 100 and 10; compare with merging while re-rendering.
        results = tuple(ResultEntry("x" * (i % 7 * 5), 95 + i) for i in range(105))
        for cap in range(512, len(render_state(State(results, ()))), 37):
            expected = list(results)
            while len(expected) > 1 and len(render_state(State(tuple(expected), ()))) > cap:
                merged = f"{expected[0].text}; {expected[1].text}"[:240]
                expected[:2] = [ResultEntry(merged, expected[1].step)]
            if len(render_state(State(tuple(expected), ()))) <= cap:
                assert enforce_cap(State(results, ()), cap).current_results == tuple(expected)

    @settings(max_examples=40, deadline=None)
    @given(
        result_sizes=st.lists(st.integers(0, 1200), max_size=12),
        failure_count=st.integers(0, 10),
        reason_size=st.integers(0, 400),
    )
    def test_capped_whenever_achievable(self, result_sizes, failure_count, reason_size):
        results = tuple(
            ResultEntry("r" * size, index + 1) for index, size in enumerate(result_sizes)
        )
        failures = tuple(
            FailureEntry(f"tool_{i}", f"digest{i}", "f" * reason_size, len(results) + i + 1)
            for i in range(failure_count)
        )
        state = State(current_results=results, failure_history=failures)
        capped = enforce_cap(state, 4096)
        # 10 failures with <=120-char reasons always fit 4096, so the cap
        # must be met; failures are never dropped.
        assert len(render_state(capped)) <= 4096
        assert len(capped.failure_history) == failure_count
