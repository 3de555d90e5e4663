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
from sum2act.errors import MalformedOutput
from sum2act import state_manager
from sum2act.provider import PolicyEntry, RecordingProvider, ScriptedPolicy, ScriptedProvider
from sum2act.state_manager import (
    FAILURE_REASON_CAP_CHARS,
    _parse_verdict,
    build_state_prompt,
    enforce_cap,
    render_observation,
    render_state,
    update,
)

INSTRUCTION = Instruction(id="i1", text="weather in Miami")
UNSCRIPTED = ScriptedProvider(ScriptedPolicy())  # every call errors -> mechanical path


def _success_obs(payload: str, tool: str = "get_weather", args: dict | None = None) -> Observation:
    return Observation(status="Success", payload=payload, tool_name=tool, args_echo=args or {"city": "Miami"})


def _error_obs(error: str, tool: str = "get_weather", args: dict | None = None) -> Observation:
    return Observation(status="ToolError", payload="", tool_name=tool, args_echo=args or {"city": "Miami"}, error=error)


class TestRendering:
    def test_empty_state(self):
        assert render_state(State()) == "Current results: (none). Failure history: (none)."

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
        prompt = build_state_prompt(INSTRUCTION, State(), render_observation(_success_obs("x" * 200)))
        assert "x" * 200 in prompt
        assert "[truncated" not in prompt

    def test_payload_over_cap_marker_arithmetic(self):
        prompt = build_state_prompt(INSTRUCTION, State(), render_observation(_success_obs("y" * 10000)))
        assert "y" * 4096 + "[truncated 5904 chars]" in prompt
        assert "y" * 4097 not in prompt

    def test_error_descriptor_present(self):
        prompt = build_state_prompt(INSTRUCTION, State(), render_observation(_error_obs("HTTP 500: boom")))
        assert "HTTP 500: boom" in prompt

    def test_deterministic(self):
        seen = render_observation(_success_obs("hello"))
        assert build_state_prompt(INSTRUCTION, State(), seen) == build_state_prompt(
            INSTRUCTION, State(), seen
        )


def _verdict_provider(verdict: dict) -> ScriptedProvider:
    return ScriptedProvider(ScriptedPolicy(default=json.dumps(verdict)))


class TestUpdate:
    def test_scripted_success_appends_result(self):
        provider = _verdict_provider({"verdict": "Success", "summary": "Miami: sunny, 29 degrees"})
        state = update(provider, INSTRUCTION, State(), _success_obs("..."), 1, {})
        assert [r.text for r in state.current_results] == ["Miami: sunny, 29 degrees"]
        assert state.failure_history == ()

    def test_scripted_failure_appends_entry(self):
        provider = _verdict_provider({"verdict": "Failure", "reason": "endpoint returned server error"})
        state = update(provider, INSTRUCTION, State(), _error_obs("HTTP 500: boom"), 1, {})
        assert state.current_results == ()
        assert len(state.failure_history) == 1
        entry = state.failure_history[0]
        assert entry.tool == "get_weather"
        assert entry.reason == "endpoint returned server error"
        assert entry.digest == args_digest({"city": "Miami"})

    def test_duplicate_failures_merge(self):
        provider = _verdict_provider({"verdict": "Failure", "reason": "same failure"})
        obs = _error_obs("HTTP 500: boom")
        state = update(provider, INSTRUCTION, State(), obs, 1, {})
        state = update(provider, INSTRUCTION, state, obs, 2, {})
        assert len(state.failure_history) == 1
        assert state.failure_history[0].step == 1

    def test_distinct_args_not_merged(self):
        provider = _verdict_provider({"verdict": "Failure", "reason": "r"})
        state = update(
            provider, INSTRUCTION, State(),
            _error_obs("HTTP 500: a", args={"city": "Miami"}), 1, {},
        )
        state = update(
            provider, INSTRUCTION, state,
            _error_obs("HTTP 500: b", args={"city": "Boston"}), 2, {},
        )
        assert len(state.failure_history) == 2

    def test_input_state_unchanged(self):
        provider = _verdict_provider({"verdict": "Success", "summary": "new"})
        original = State(current_results=(ResultEntry("old", 1),), failure_history=())
        snapshot = State(tuple(original.current_results), tuple(original.failure_history))
        updated = update(provider, INSTRUCTION, original, _success_obs("..."), 2, {})
        assert original == snapshot
        assert updated is not original

    def test_mechanical_fallback_success(self):
        payload = "z" * 500
        state = update(UNSCRIPTED, INSTRUCTION, State(), _success_obs(payload), 1, {})
        assert state.current_results[0].text == payload[:200]

    def test_mechanical_fallback_failure_uses_descriptor(self):
        state = update(UNSCRIPTED, INSTRUCTION, State(), _error_obs("HTTP 502: upstream gone"), 1, {})
        assert state.failure_history[0].reason == "HTTP 502: upstream gone"

    @pytest.mark.parametrize("size", [FAILURE_REASON_CAP_CHARS + 1, 600])
    def test_long_failure_reason_is_clipped_on_entry(self, size):
        provider = _verdict_provider({"verdict": "Failure", "reason": "r" * size})
        state = update(provider, INSTRUCTION, State(), _error_obs("HTTP 500: boom"), 1, {})
        assert [f.reason for f in state.failure_history] == ["r" * 117 + "..."]

    def test_reason_of_exactly_the_cap_enters_unchanged(self):
        reason = "r" * FAILURE_REASON_CAP_CHARS
        provider = _verdict_provider({"verdict": "Failure", "reason": reason})
        state = update(provider, INSTRUCTION, State(), _error_obs("HTTP 500: boom"), 1, {})
        assert [f.reason for f in state.failure_history] == [reason]

    def test_long_mechanical_reason_is_clipped_on_entry(self):
        error = "HTTP 502: " + "e" * 300
        state = update(UNSCRIPTED, INSTRUCTION, State(), _error_obs(error), 1, {})
        assert [f.reason for f in state.failure_history] == [error[:117] + "..."]

    @pytest.mark.parametrize("verdict", ["Maybe", "success", None, 1])
    def test_verdict_of_neither_value_falls_back_to_the_mechanical_one(self, verdict):
        provider = RecordingProvider(_verdict_provider({"verdict": verdict, "summary": "s", "reason": "r"}))
        success = update(provider, INSTRUCTION, State(), _success_obs("z" * 500), 1, {})
        failure = update(provider, INSTRUCTION, State(), _error_obs("HTTP 502: upstream gone"), 1, {})
        assert [r.text for r in success.current_results] == ["z" * 200]
        assert [f.reason for f in failure.failure_history] == ["HTTP 502: upstream gone"]
        assert "verdict must be Success or Failure" in provider.prompts()[1]

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
        state = update(ScriptedProvider(policy), INSTRUCTION, State(), _success_obs("..."), 1, {})
        assert state.current_results[0].text == "recovered"

    @pytest.mark.parametrize("status", ["ToolError", "Timeout", "MalformedResponse"])
    def test_failed_call_failing_again_sends_no_verdict(self, status):
        # The verdict map answers the repeat, and the failure it holds keeps
        # the state as it is.
        provider = RecordingProvider(_verdict_provider({"verdict": "Failure", "reason": "store down"}))
        observation = Observation(
            status=status, payload="", tool_name="get_weather", args_echo={"city": "Miami"},
            error="HTTP 503: store down",
        )
        verdicts = {}
        result = (ResultEntry("sunny in Miami", 1),)
        state = update(provider, INSTRUCTION, State(result, ()), observation, 2, verdicts)
        failed = FailureEntry("get_weather", args_digest({"city": "Miami"}), "store down", 2)
        assert state == State(result, (failed,))
        assert len(provider.prompts()) == 1
        assert update(provider, INSTRUCTION, state, observation, 3, verdicts) is state
        assert len(provider.prompts()) == 1

    def test_failed_call_failing_with_another_error_is_judged_once(self):
        provider = RecordingProvider(_verdict_provider({"verdict": "Failure", "reason": "store down"}))
        verdicts = {}
        state = update(provider, INSTRUCTION, State(), _error_obs("HTTP 503: store down"), 1, verdicts)
        again = _error_obs("HTTP 504: gateway timeout")
        assert update(provider, INSTRUCTION, state, again, 2, verdicts) is state
        assert update(provider, INSTRUCTION, state, again, 3, verdicts) is state
        assert len(provider.prompts()) == 2

    def test_failed_call_whose_verdict_fell_back_is_judged_again(self):
        # The first verdict never parses, so the repeat, whose prompt shows
        # the step-1 failure, is judged again and its verdict is stored.
        policy = ScriptedPolicy(
            entries=(
                PolicyEntry(
                    match="[step 1]", is_regex=False,
                    response=json.dumps({"verdict": "Failure", "reason": "judged"}),
                ),
            ),
            default="no verdict here",
        )
        provider = RecordingProvider(ScriptedProvider(policy))
        verdicts = {}
        observation = _error_obs("HTTP 503: store down")
        state = update(provider, INSTRUCTION, State(), observation, 1, verdicts)
        assert [f.reason for f in state.failure_history] == ["HTTP 503: store down"]
        assert verdicts == {}
        sent = len(provider.prompts())
        assert update(provider, INSTRUCTION, state, observation, 2, verdicts) is state
        assert len(provider.prompts()) == sent + 1
        assert len(verdicts) == 1

    @pytest.mark.parametrize("verdict, summary", [("Success", "Miami: sunny"), ("Failure", "no figure")])
    def test_success_status_of_failed_call_is_still_judged(self, verdict, summary):
        # The state manager may judge a Success payload a failure (a record
        # buried past the observation window); a repeat of a failure in the
        # history is still not added again.
        key = "summary" if verdict == "Success" else "reason"
        provider = RecordingProvider(_verdict_provider({"verdict": verdict, key: summary}))
        failed = FailureEntry("get_weather", args_digest({"city": "Miami"}), "store down", 1)
        state = State((), (failed,))
        updated = update(provider, INSTRUCTION, state, _success_obs("..."), 2, {})
        assert len(provider.prompts()) == 1
        assert updated.failure_history == (failed,)
        expected = (ResultEntry(summary, 2),) if verdict == "Success" else ()
        assert updated.current_results == expected

    def test_repeated_result_reuses_its_verdict(self):
        provider = RecordingProvider(_verdict_provider({"verdict": "Success", "summary": "Miami: sunny"}))
        verdicts = {}
        state = State()
        for step in (1, 2, 3):
            state = update(provider, INSTRUCTION, state, _success_obs("sunny"), step, verdicts)
        assert len(provider.prompts()) == 1
        assert state.current_results == (ResultEntry("Miami: sunny", 1),)

    def test_repeated_summary_returns_the_input_state(self):
        # Another payload, judged to a summary the state already holds.
        provider = RecordingProvider(_verdict_provider({"verdict": "Success", "summary": "Miami: sunny"}))
        state = update(provider, INSTRUCTION, State(), _success_obs("sunny"), 1, {})
        assert update(provider, INSTRUCTION, state, _success_obs("sunny, 29 degrees"), 2, {}) is state
        assert len(provider.prompts()) == 2

    def test_fallbacks_sharing_their_first_chars_fold(self):
        # Both payloads fall back to their first 200 chars, which are equal:
        # the second adds nothing the rendered state would show.
        head = "r" * 200
        state = update(UNSCRIPTED, INSTRUCTION, State(), _success_obs(head + " at noon"), 1, {})
        assert update(UNSCRIPTED, INSTRUCTION, state, _success_obs(head + " at dusk"), 2, {}) is state
        assert state.current_results == (ResultEntry(head, 1),)

    def test_repeat_of_a_merged_result_is_added_again(self, cap_1024):
        provider = RecordingProvider(_verdict_provider({"verdict": "Success", "summary": "Miami: sunny"}))
        verdicts = {}
        state = update(provider, INSTRUCTION, State(), _success_obs("sunny"), 1, verdicts)
        state = enforce_cap(State(state.current_results + (ResultEntry("b" * 1000, 2),), ()), UNSCRIPTED)
        assert [e.text for e in state.current_results] == [("Miami: sunny; " + "b" * 1000)[:240]]
        state = update(provider, INSTRUCTION, state, _success_obs("sunny"), 3, verdicts)
        assert state.current_results[1:] == (ResultEntry("Miami: sunny", 3),)
        assert len(provider.prompts()) == 1

    def test_repeat_judged_to_another_summary_appends(self):
        # Judged against the step-1 entry, the same observation gets a new
        # summary, which is added under the new step.
        policy = ScriptedPolicy(
            entries=(
                PolicyEntry(
                    match="[step 1]", is_regex=False,
                    response=json.dumps({"verdict": "Success", "summary": "still sunny"}),
                ),
            ),
            default=json.dumps({"verdict": "Success", "summary": "Miami: sunny"}),
        )
        provider = ScriptedProvider(policy)
        state = update(provider, INSTRUCTION, State(), _success_obs("sunny"), 1, {})
        state = update(provider, INSTRUCTION, state, _success_obs("sunny"), 2, {})
        assert state.current_results == (ResultEntry("Miami: sunny", 1), ResultEntry("still sunny", 2))

    def test_same_payload_for_other_args_is_judged_again(self):
        provider = RecordingProvider(_verdict_provider({"verdict": "Success", "summary": "sunny"}))
        verdicts = {}
        state = update(provider, INSTRUCTION, State(), _success_obs("sunny"), 1, verdicts)
        update(provider, INSTRUCTION, state, _success_obs("sunny", args={"city": "Boston"}), 2, verdicts)
        assert len(provider.prompts()) == 2

    def test_fallback_verdict_is_not_reused(self):
        # The first verdict never parses; the repeat, whose prompt shows the
        # step-1 result, is judged again and its verdict is stored.
        policy = ScriptedPolicy(
            entries=(
                PolicyEntry(
                    match="[step 1]", is_regex=False,
                    response=json.dumps({"verdict": "Success", "summary": "judged"}),
                ),
            ),
            default="no verdict here",
        )
        provider = RecordingProvider(ScriptedProvider(policy))
        verdicts = {}
        state = update(provider, INSTRUCTION, State(), _success_obs("sunny"), 1, verdicts)
        assert verdicts == {}
        sent = len(provider.prompts())
        state = update(provider, INSTRUCTION, state, _success_obs("sunny"), 2, verdicts)
        assert len(provider.prompts()) == sent + 1
        assert [e.text for e in state.current_results] == ["sunny", "judged"]
        assert len(verdicts) == 1

    def test_over_deep_verdict_falls_back_mechanically(self):
        deep = '{"a":' * 3000 + "1" + "}" * 3000
        reply = '{"verdict": "Success", "summary": "ok", "extra": ' + deep + "}"
        with pytest.raises(MalformedOutput):
            _parse_verdict(reply)
        provider = ScriptedProvider(ScriptedPolicy(default=reply))
        state = update(provider, INSTRUCTION, State(), _success_obs("p" * 500), 1, {})
        assert state.current_results[0].text == "p" * 200


def _merging_provider() -> ScriptedProvider:
    return ScriptedProvider(ScriptedPolicy(
        entries=(PolicyEntry(match="Merge these two progress notes", response="merged note"),)
    ))


@pytest.fixture
def cap_1024(monkeypatch):
    monkeypatch.setattr(state_manager, "STATE_CAP_CHARS", 1024)


class TestEnforceCap:
    def test_identity_under_cap(self):
        state = State(current_results=(ResultEntry("short", 1),), failure_history=())
        assert enforce_cap(state, UNSCRIPTED) == state

    def test_compression_preserves_failures(self):
        results = tuple(ResultEntry(f"entry {i}: " + "x" * 440, i + 1) for i in range(20))
        failures = (FailureEntry("tool_a", "d1", "because", 1),)
        state = State(current_results=results, failure_history=failures)
        assert len(render_state(state)) > 9000
        capped = enforce_cap(state, UNSCRIPTED)
        assert len(render_state(capped)) <= 4096
        assert capped.failure_history == failures

    def test_hard_truncate_single_result(self, cap_1024):
        state = State(current_results=(ResultEntry("w" * 9000, 1),), failure_history=())
        capped = enforce_cap(state, UNSCRIPTED)
        assert len(render_state(capped)) <= 1024
        assert len(capped.current_results) == 1

    @pytest.mark.parametrize("state", [
        State(tuple(ResultEntry("x" * 400, i + 1) for i in range(4)), ()),
        State((ResultEntry("w" * 9000, 1),), ()),
    ], ids=["merge", "truncate"])
    def test_capped_state_is_the_one_rendered_last(self, cap_1024, state):
        # The next prompt then takes the capped state's text from the memo.
        capped = enforce_cap(state, UNSCRIPTED)
        assert capped != state
        assert state_manager._last_render.state is capped

    def test_provider_backed_merge(self, cap_1024):
        provider = _merging_provider()
        results = tuple(ResultEntry("x" * 400, i + 1) for i in range(4))
        state = State(current_results=results, failure_history=())
        capped = enforce_cap(state, provider)
        assert len(render_state(capped)) <= 1024
        assert any("merged note" in r.text for r in capped.current_results)

    def test_long_reasons_cost_no_merge(self):
        # Eight 600-char reasons would put the state over the cap; clipped
        # as they enter, they leave it far under, with no merge to make.
        provider = RecordingProvider(_merging_provider())
        results = (ResultEntry("sunny in Miami", 1), ResultEntry("rain in Boston", 2))
        state = State(results, ())
        for i in range(8):
            judge = _verdict_provider({"verdict": "Failure", "reason": "r" * 600})
            state = update(judge, INSTRUCTION, state, _error_obs("HTTP 500", tool=f"tool_{i}"), i + 3, {})
        capped = enforce_cap(state, provider)
        assert provider.prompts() == []
        assert capped is state
        assert len(render_state(capped)) <= 4096 // 2
        assert [f.reason for f in capped.failure_history] == ["r" * 117 + "..."] * 8

    @pytest.mark.parametrize("results, merges", [
        ((), 0),
        (tuple(ResultEntry("x" * 150, i + 1) for i in range(5)), 1),
        ((ResultEntry("w" * 9000, 1),), 0),
    ], ids=["failures-only", "merge", "truncate"])
    def test_failure_entries_are_never_changed(self, cap_1024, results, merges):
        # The failures alone render past the 1,024-char cap.
        provider = RecordingProvider(_merging_provider())
        failures = tuple(
            FailureEntry(f"tool_{i}", f"d{i}", "r" * FAILURE_REASON_CAP_CHARS, i + 6) for i in range(8)
        )
        state = State(results, failures)
        capped = enforce_cap(state, provider)
        assert len(render_state(State((), failures))) > 1024
        assert len(provider.prompts()) == merges
        assert capped.failure_history == failures
        assert len(capped.current_results) == min(len(results), 1)

    def test_merges_stop_once_state_fits(self, monkeypatch):
        # Folding renumbers the list, so line lengths change as the count
        # crosses 100 and 10; the reference renders each candidate rest.
        results = tuple(ResultEntry("x" * (i % 7 * 5), 95 + i) for i in range(105))
        checked = 0
        for cap in range(512, len(render_state(State(results, ()))), 37):
            count = 2
            while count < len(results) and len(render_state(State(results[count:], ()))) > cap // 2:
                count += 1
            note = "; ".join(entry.text for entry in results[:count])[:240]
            expected = (ResultEntry(note, results[count - 1].step), *results[count:])
            if len(render_state(State(expected, ()))) <= cap:
                checked += 1
                monkeypatch.setattr(state_manager, "STATE_CAP_CHARS", cap)
                assert enforce_cap(State(results, ()), UNSCRIPTED).current_results == expected
        assert checked >= 70

    def test_one_merge_prompt_folds_several_entries(self):
        provider = RecordingProvider(_merging_provider())
        results = tuple(ResultEntry(f"note {i}: " + "x" * 400, i + 1) for i in range(12))
        state = State(results, ())
        assert len(render_state(state)) > 4096 + 2 * 420
        capped = enforce_cap(state, provider)
        (prompt,) = provider.prompts()
        count = len(results) - len(capped.current_results) + 1
        assert count > 2
        assert prompt.endswith(
            f"\n1) {results[0].text}\n2) " + "; ".join(e.text for e in results[1:count])
        )
        assert capped.current_results == (ResultEntry("merged note", count), *results[count:])
        assert len(render_state(capped)) <= 4096 // 2 + 260

    def test_two_entry_fold_sends_the_pairwise_merge_prompt(self, cap_1024):
        provider = RecordingProvider(_merging_provider())
        results = (ResultEntry("a" * 500, 1), ResultEntry("b" * 500, 2), ResultEntry("sunny", 3))
        capped = enforce_cap(State(results, ()), provider)
        assert provider.prompts() == [
            "Merge these two progress notes into one concise note of at most 240 "
            "characters, keeping every concrete fact. Reply with the note text only.\n"
            f"1) {'a' * 500}\n2) {'b' * 500}"
        ]
        assert capped.current_results == (ResultEntry("merged note", 2), ResultEntry("sunny", 3))

    @settings(max_examples=40, deadline=None)
    @given(
        result_sizes=st.lists(st.integers(0, 1200), max_size=12),
        failure_count=st.integers(0, 10),
        reason_size=st.integers(1, FAILURE_REASON_CAP_CHARS),
        merge_reply=st.sampled_from(["merged note", "m" * 300, " "]),
    )
    def test_capped_whenever_achievable(self, result_sizes, failure_count, reason_size, merge_reply):
        results = tuple(
            ResultEntry("r" * size, index + 1) for index, size in enumerate(result_sizes)
        )
        failures = tuple(
            FailureEntry(f"tool_{i}", f"digest{i}", "f" * reason_size, len(results) + i + 1)
            for i in range(failure_count)
        )
        state = State(current_results=results, failure_history=failures)
        # A blank reply makes the merge fall back to the mechanical note.
        provider = RecordingProvider(ScriptedProvider(ScriptedPolicy(
            entries=(PolicyEntry(match="Merge these two progress notes", response=merge_reply),)
        )))
        capped = enforce_cap(state, provider)
        # 10 failures with <=120-char reasons always fit 4096, so the cap
        # must be met; failures are never dropped.
        assert len(render_state(capped)) <= 4096
        assert len(capped.failure_history) == failure_count
        assert capped.failure_history == failures
        if len(render_state(state)) <= 4096:
            assert provider.prompts() == []
        elif len(results) > 1 and len(render_state(State(results[-1:], failures))) < 4096 // 2:
            assert len(provider.prompts()) == 1
