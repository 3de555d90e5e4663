"""Summarization stage: judge each observation, register results or deduce
failure reasons, and keep the rendered state within a length cap.

The state renders to a fixed two-section layout ("Failure history:" then
"Current results:"); that rendering is the contract the router prompt
consumes. Success/failure verdicts are delegated to the provider, with a
mechanical fallback keyed on the observation status so an update can never
abort an episode.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import replace

from .core import (
    FailureEntry,
    Instruction,
    Observation,
    ResultEntry,
    State,
    args_digest,
)
from .errors import (
    ConfigurationError,
    MalformedOutput,
    RequestTooLarge,
    ScriptError,
)
from .parsing import ask_json, extract_first_json_object, fill_template, truncate_with_marker
from .provider import CompletionRequest

logger = logging.getLogger(__name__)

OBSERVATION_WINDOW_CHARS = 4096
STATE_CAP_CHARS = 4096
FAILURE_REASON_CAP_CHARS = 120

# Mechanical-fallback and compression sizing.
_FALLBACK_SUMMARY_CHARS = 200
_MERGED_ENTRY_CHARS = 240

EMPTY_STATE_TEXT = "Current results: (none). Failure history: (none)."


class _LastRender(threading.local):
    """The state this thread rendered last, and its text."""

    state: State | None = None
    text: str = ""


_last_render = _LastRender()


def render_state(state: State) -> str:
    """Canonical two-section rendering consumed by the router prompt.

    Failure history comes first: its entries are only ever appended, while
    the cap merges result entries oldest-first, so the failures form a
    prefix that stays stable from one step's prompts to the next.

    The cap measures each state it builds with this function and returns
    the one it measured last, which the next router and verdict prompts
    show, so each thread keeps the (immutable) state it rendered last and
    its text, and returns the text again for that same object:
    ``is``, since comparing a State walks every entry. Nothing is stored on
    the State, because a trace writes its fields."""
    last = _last_render
    if last.state is state:
        return last.text
    last.text = text = _render(state)
    last.state = state
    return text


def _render(state: State) -> str:
    if not state.current_results and not state.failure_history:
        return EMPTY_STATE_TEXT
    lines = []
    if state.failure_history:
        lines.append("Failure history:")
        for index, entry in enumerate(state.failure_history, 1):
            lines.append(
                f"  {index}. [step {entry.step}] "
                f"{entry.tool}({entry.digest}): {entry.reason}"
            )
    else:
        lines.append("Failure history: (none).")
    if state.current_results:
        lines.append("Current results:")
        for index, entry in enumerate(state.current_results, 1):
            lines.append(f"  {index}. [step {entry.step}] {entry.text}")
    else:
        lines.append("Current results: (none).")
    return "\n".join(lines)


def render_observation(observation: Observation) -> str:
    lines = [
        f"tool: {observation.tool_name}",
        f"status: {observation.status}",
    ]
    if observation.error:
        lines.append(f"error: {observation.error}")
    lines.append(f"payload: {truncate_with_marker(observation.payload, OBSERVATION_WINDOW_CHARS)}")
    return "\n".join(lines)


def build_state_prompt(
    template: str, instruction: Instruction, state: State, observation: Observation
) -> str:
    """Deterministic prompt: ``template`` filled with the instruction, full
    current state, and the observation payload clipped to the observation window."""
    return fill_template(
        template,
        instruction=instruction.text,
        state=render_state(state),
        observation=render_observation(observation),
    )


def _parse_verdict(output: str) -> tuple[str, str]:
    obj = extract_first_json_object(output, required_key="verdict")
    if obj is None:
        raise MalformedOutput("no verdict object found in state-manager output")
    verdict = obj.get("verdict")
    if verdict not in ("Success", "Failure"):
        raise MalformedOutput(f"verdict must be Success or Failure, got {verdict!r}")
    key = "summary" if verdict == "Success" else "reason"
    text = obj.get(key)
    if not isinstance(text, str) or not text:
        raise MalformedOutput(f"{verdict} verdict requires a non-empty {key!r}")
    return verdict, text


_REASK = (
    "\n\nYour previous reply could not be used: {error}. Reply with "
    'exactly one JSON object holding "verdict" and a "summary" or '
    '"reason".'
)


def update(
    provider,
    template: str,
    instruction: Instruction,
    state: State,
    observation: Observation,
    step_index: int,
) -> State:
    """Judge one observation and return a new State; the input is unchanged.

    The provider's verdict is re-asked while it is unusable or the provider
    raises ScriptError or RequestTooLarge; once the re-asks are spent, a
    mechanical verdict keyed on the observation status is logged and used.
    A failure already in the history (same tool and args digest) is not
    added again.
    """
    prompt = build_state_prompt(template, instruction, state, observation)
    try:
        (verdict, text), _ = ask_json(
            provider, prompt, _parse_verdict, _REASK, swallow=(ScriptError, RequestTooLarge)
        )
    except MalformedOutput as exc:
        logger.warning("state verdict unparseable, using mechanical fallback: %s", exc)
        if observation.status == "Success":
            verdict, text = "Success", observation.payload[:_FALLBACK_SUMMARY_CHARS]
        else:
            verdict = "Failure"
            text = observation.error or f"tool returned status {observation.status}"
    if verdict == "Success":
        entry = ResultEntry(text=text, step=step_index)
        return State(state.current_results + (entry,), state.failure_history)
    digest = args_digest(observation.args_echo)
    if state.has_failure(observation.tool_name, digest):
        return state
    entry = FailureEntry(tool=observation.tool_name, digest=digest, reason=text, step=step_index)
    return State(state.current_results, state.failure_history + (entry,))


# ---------------------------------------------------------------------------
# Length-cap enforcement
# ---------------------------------------------------------------------------


def _merge_texts(provider, older: ResultEntry, newer: ResultEntry) -> str:
    if provider is not None:
        prompt = (
            "Merge these two progress notes into one concise note of at most "
            f"{_MERGED_ENTRY_CHARS} characters, keeping every concrete fact. "
            "Reply with the note text only.\n"
            f"1) {older.text}\n2) {newer.text}"
        )
        try:
            merged = provider.complete(CompletionRequest(prompt)).strip()
            if merged:
                return merged[:_MERGED_ENTRY_CHARS]
        except (ScriptError, RequestTooLarge):
            pass
    return f"{older.text}; {newer.text}"[:_MERGED_ENTRY_CHARS]


def enforce_cap(state: State, cap_chars: int = STATE_CAP_CHARS, provider=None) -> State:
    """Bound the rendered state length.

    Oldest result entries are merged first (via the provider when available,
    mechanically otherwise), then failure reasons are shortened to at most
    120 chars each (entries are never dropped), and as a last resort the
    single remaining result entry is hard-truncated. When the shortened
    failure section alone exceeds the cap, the state is returned at its
    minimum achievable length.
    """
    if cap_chars < 512:
        raise ConfigurationError(f"state cap must be >= 512 chars, got {cap_chars}")
    overflow = len(render_state(state)) - cap_chars
    while overflow > 0 and len(state.current_results) > 1:
        older, newer, *rest = state.current_results
        merged = ResultEntry(text=_merge_texts(provider, older, newer), step=newer.step)
        state = State((merged, *rest), state.failure_history)
        overflow = len(render_state(state)) - cap_chars
    if overflow > 0:
        failures = tuple(
            replace(f, reason=f.reason[: FAILURE_REASON_CAP_CHARS - 3] + "...")
            if len(f.reason) > FAILURE_REASON_CAP_CHARS else f
            for f in state.failure_history
        )
        state = State(state.current_results, failures)
        overflow = len(render_state(state)) - cap_chars
    if overflow > 0 and state.current_results:
        (last,) = state.current_results
        kept = last.text[: max(0, len(last.text) - overflow)]
        state = State((ResultEntry(text=kept, step=last.step),), state.failure_history)
        render_state(state)  # the next prompt takes this text from the memo
    return state
