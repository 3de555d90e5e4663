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

from .core import (
    FailureEntry,
    Instruction,
    Observation,
    ResultEntry,
    State,
    args_digest,
)
from .errors import MalformedOutput, RequestTooLarge, ScriptError
from .parsing import TEMPLATES, ask_json, extract_first_json_object, fill_template, truncate_with_marker
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

    Failure history comes first: ``update`` clips each reason as it appends
    the entry and nothing changes an entry after that, while the cap merges
    result entries oldest-first, so the failures form a prefix that stays
    stable from one step's prompts to the next.

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


def render_entry(entry: ResultEntry | FailureEntry) -> str:
    """One state entry as the rendered state lists it: ``[step N] text`` for
    a result, ``[step N] tool(digest): reason`` for a failure."""
    if isinstance(entry, FailureEntry):
        return f"[step {entry.step}] {entry.tool}({entry.digest}): {entry.reason}"
    return f"[step {entry.step}] {entry.text}"


def _render(state: State) -> str:
    if not state.current_results and not state.failure_history:
        return EMPTY_STATE_TEXT
    lines = []
    if state.failure_history:
        lines.append("Failure history:")
        for index, entry in enumerate(state.failure_history, 1):
            lines.append(f"  {index}. {render_entry(entry)}")
    else:
        lines.append("Failure history: (none).")
    if state.current_results:
        lines.append("Current results:")
        for index, entry in enumerate(state.current_results, 1):
            lines.append(f"  {index}. {render_entry(entry)}")
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


def build_state_prompt(instruction: Instruction, state: State, seen: str) -> str:
    """Deterministic prompt: the state template filled with the instruction,
    full current state, and ``seen``, the observation as
    ``render_observation`` shows it (payload clipped to the observation
    window)."""
    return fill_template(
        TEMPLATES["state"],
        instruction=instruction.text,
        state=render_state(state),
        observation=seen,
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
    provider, instruction: Instruction, state: State, observation: Observation, step_index: int,
    verdicts: dict,
) -> State:
    """Judge one observation and return a new State; the input is unchanged.

    The provider's verdict is re-asked while it is unusable or the provider
    raises ScriptError or RequestTooLarge; once the re-asks are spent, a
    mechanical verdict keyed on the observation status is logged and used.
    A Failure reason over ``FAILURE_REASON_CAP_CHARS``, a mechanical one
    too, enters clipped to its first 117 chars and "...".
    A verdict whose entry the state already holds returns the input State,
    and that entry keeps its first step: a result already holds a Success
    verdict with the same text, a failure one with the same tool and args
    digest.

    ``verdicts`` maps each rendered observation to the args of the last
    call that returned it and the verdict parsed then. A call with the same
    args digest that returns it again gets that verdict with no prompt or
    provider call (a new entry only if it left the state): the verdict on
    one call and observation is taken not to depend on how the state has
    grown since. A mechanical verdict is never stored, so the next repeat
    of an observation that fell back is judged again.
    """
    seen = render_observation(observation)
    args, judged = verdicts.get(seen, (None, None))
    if judged is None or args_digest(args) != args_digest(observation.args_echo):
        prompt = build_state_prompt(instruction, state, seen)
        try:
            judged, _ = ask_json(
                provider, prompt, _parse_verdict, _REASK, swallow=(ScriptError, RequestTooLarge)
            )
        except MalformedOutput as exc:
            logger.warning("state verdict unparseable, using mechanical fallback: %s", exc)
            if observation.status == "Success":
                judged = "Success", observation.payload[:_FALLBACK_SUMMARY_CHARS]
            else:
                judged = "Failure", observation.error
        else:
            verdicts[seen] = observation.args_echo, judged
    verdict, text = judged
    if verdict == "Success":
        if any(entry.text == text for entry in state.current_results):
            return state
        entry = ResultEntry(text=text, step=step_index)
        return State(state.current_results + (entry,), state.failure_history)
    digest = args_digest(observation.args_echo)
    if state.has_failure(observation.tool_name, digest):
        return state
    if len(text) > FAILURE_REASON_CAP_CHARS:
        text = text[: FAILURE_REASON_CAP_CHARS - 3] + "..."
    entry = FailureEntry(tool=observation.tool_name, digest=digest, reason=text, step=step_index)
    return State(state.current_results, state.failure_history + (entry,))


# ---------------------------------------------------------------------------
# Length-cap enforcement
# ---------------------------------------------------------------------------


def _merge_texts(provider, folded: tuple[ResultEntry, ...]) -> str:
    """One note for the folded results, oldest first. The prompt shows the
    oldest text as note 1 and the others joined by "; " as note 2, so a
    fold of two results is a plain merge of two notes."""
    oldest, *others = (entry.text for entry in folded)
    newer = "; ".join(others)
    prompt = (
        "Merge these two progress notes into one concise note of at most "
        f"{_MERGED_ENTRY_CHARS} characters, keeping every concrete fact. "
        "Reply with the note text only.\n"
        f"1) {oldest}\n2) {newer}"
    )
    try:
        merged = provider.complete(CompletionRequest(prompt)).strip()
        if merged:
            return merged[:_MERGED_ENTRY_CHARS]
    except (ScriptError, RequestTooLarge):
        pass
    return f"{oldest}; {newer}"[:_MERGED_ENTRY_CHARS]


def enforce_cap(state: State, provider) -> State:
    """Bound the rendered state length to ``STATE_CAP_CHARS``.

    Only results change; failure entries (``update`` clipped each reason)
    are never dropped or rewritten. If the state is over the cap, the
    oldest results are folded into one note with one merge call (by the
    provider, or mechanically when it raises ScriptError or RequestTooLarge
    or replies with nothing). The fold takes the fewest
    oldest results, at least two, that leave the rest of the state rendering
    to at most half the cap, or all of them; the note takes the last folded
    entry's step. Folding to half the cap, not just under it, leaves room
    for the results of the next steps, so one merge call serves several
    steps. As a last resort the single remaining result entry is
    hard-truncated. When the failure section alone exceeds the cap, the
    state is returned at its minimum achievable length.
    """
    overflow = len(render_state(state)) - STATE_CAP_CHARS
    # At the 4,096-char cap one fold always suffices; a much smaller cap may
    # need another.
    while overflow > 0 and len(state.current_results) > 1:
        results, failures = state.current_results, state.failure_history
        count = next(
            (k for k in range(2, len(results))
             if len(_render(State(results[k:], failures))) <= STATE_CAP_CHARS // 2),
            len(results),
        )
        folded = results[:count]
        note = ResultEntry(text=_merge_texts(provider, folded), step=folded[-1].step)
        state = State((note, *results[count:]), failures)
        overflow = len(render_state(state)) - STATE_CAP_CHARS
    if overflow > 0 and state.current_results:
        (last,) = state.current_results
        kept = last.text[: max(0, len(last.text) - overflow)]
        state = State((ResultEntry(text=kept, step=last.step),), state.failure_history)
        render_state(state)  # the next prompt takes this text from the memo
    return state
