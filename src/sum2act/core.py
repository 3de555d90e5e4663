"""Core domain types and episode-trace serialization.

All types here are frozen dataclasses: immutable value objects that are safe
to share across concurrent episode runners. Episodes grow functionally via
``with_step``/``with_terminal``, which return new values.

The trace format is line-delimited JSON, one self-contained episode per line,
with canonical key ordering so that serialization is byte-identical across
runs. Top-level field names ``instruction``, ``tools``, ``steps``,
``terminal``, ``method_label`` and ``step_budget`` are a stable contract
(see README).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

from .errors import ConfigurationError, TraceFormatError

TOOL_NAME_PATTERN = re.compile(r"^[A-Za-z0-9_]+$")

ACTION_KINDS = ("ToolCall", "Finish")
OBSERVATION_STATUSES = ("Success", "ToolError", "Timeout", "MalformedResponse")
TERMINAL_STATUSES = ("Finished", "BudgetExhausted", "AbortedParseFailure")

# Values allowed inside Action.args: scalars and flat lists of scalars.
# Anything else is rendered to its canonical JSON text at parse time.
_SCALAR_TYPES = (str, int, float, bool)


@dataclass(frozen=True)
class Instruction:
    """A user request, the unit of one episode."""

    id: str
    text: str
    subset_label: str | None = None

    def __post_init__(self):
        if not self.id:
            raise ConfigurationError("instruction id must be non-empty")
        if not self.text:
            raise ConfigurationError("instruction text must be non-empty")


@dataclass(frozen=True)
class ParamSpec:
    """One declared parameter of a tool."""

    name: str
    type_tag: str = "string"
    required: bool = False
    description: str = ""

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("parameter name must be non-empty")


@dataclass(frozen=True)
class ToolSpec:
    """A callable tool/API: name, free-text description, parameter schema."""

    name: str
    description: str
    params: tuple[ParamSpec, ...] = ()
    category: str | None = None

    def __post_init__(self):
        if not TOOL_NAME_PATTERN.match(self.name):
            raise ConfigurationError(
                f"tool name must match [A-Za-z0-9_]+, got {self.name!r}"
            )

    def required_params(self) -> tuple[ParamSpec, ...]:
        return tuple(p for p in self.params if p.required)


@dataclass(frozen=True)
class Action:
    """Either a tool invocation or the reserved ``Finish`` action.

    ``retry_count`` records how many corrective re-asks the proposal needed
    before parsing succeeded (0 on the happy path).
    """

    kind: str
    tool_name: str = ""
    args: dict = field(default_factory=dict)
    thought: str | None = None
    retry_count: int = 0

    def __post_init__(self):
        if self.kind not in ACTION_KINDS:
            raise ConfigurationError(f"unknown action kind: {self.kind!r}")
        if self.kind == "Finish" and "Answer" not in self.args:
            raise ConfigurationError("Finish action requires an 'Answer' arg")
        if self.kind == "ToolCall" and not self.tool_name:
            raise ConfigurationError("ToolCall action requires a tool name")

    @property
    def answer(self) -> str:
        if self.kind != "Finish":
            raise ConfigurationError("only Finish actions carry an answer")
        return str(self.args["Answer"])


@dataclass(frozen=True)
class Observation:
    """The raw outcome of executing one tool call."""

    status: str
    payload: str
    tool_name: str
    args_echo: dict = field(default_factory=dict)
    latency: float = 0.0
    error: str | None = None

    def __post_init__(self):
        if self.status not in OBSERVATION_STATUSES:
            raise ConfigurationError(f"unknown observation status: {self.status!r}")
        if self.status != "Success" and not self.error:
            raise ConfigurationError(
                "non-Success observations require an error descriptor"
            )


@dataclass(frozen=True)
class ResultEntry:
    """One accumulated task-relevant finding."""

    text: str
    step_index: int


@dataclass(frozen=True)
class FailureEntry:
    """One failed (tool, args) attempt with its deduced reason."""

    tool_name: str
    args_digest: str
    reason: str
    step_index: int


@dataclass(frozen=True)
class State:
    """Summarized task state: current results plus failure history.

    Failure entries are never removed within an episode; exact duplicates
    (same tool name and args digest) are merged instead of appended.
    """

    current_results: tuple[ResultEntry, ...] = ()
    failure_history: tuple[FailureEntry, ...] = ()

    @classmethod
    def empty(cls) -> State:
        return cls((), ())

    def has_failure(self, tool_name: str, args_digest: str) -> bool:
        return any(
            f.tool_name == tool_name and f.args_digest == args_digest
            for f in self.failure_history
        )


@dataclass(frozen=True)
class Step:
    """One loop iteration: the proposed action, its observation (none for
    Finish and give-up proposals) and the state snapshot after the step."""

    action: Action
    observation: Observation | None
    state: State


@dataclass(frozen=True)
class Terminal:
    status: str
    answer: str | None = None

    def __post_init__(self):
        if self.status not in TERMINAL_STATUSES:
            raise ConfigurationError(f"unknown terminal status: {self.status!r}")
        if self.status == "Finished" and self.answer is None:
            raise ConfigurationError("Finished terminal requires an answer")

    @classmethod
    def finished(cls, answer: str) -> Terminal:
        return cls("Finished", answer)

    @classmethod
    def budget_exhausted(cls) -> Terminal:
        return cls("BudgetExhausted")

    @classmethod
    def aborted_parse_failure(cls) -> Terminal:
        return cls("AbortedParseFailure")


@dataclass(frozen=True)
class Episode:
    """Ordered trace of steps with a terminal status; the unit of evaluation."""

    instruction: Instruction
    tools: tuple[ToolSpec, ...]
    steps: tuple[Step, ...] = ()
    terminal: Terminal | None = None
    method_label: str = ""
    step_budget: int = 1

    def with_step(self, step: Step) -> Episode:
        if len(self.steps) >= self.step_budget:
            raise ConfigurationError("episode already at step budget")
        return Episode(
            instruction=self.instruction,
            tools=self.tools,
            steps=self.steps + (step,),
            terminal=self.terminal,
            method_label=self.method_label,
            step_budget=self.step_budget,
        )

    def with_terminal(self, terminal: Terminal) -> Episode:
        if terminal.status == "Finished":
            if not self.steps or self.steps[-1].action.kind != "Finish":
                raise ConfigurationError(
                    "Finished terminal requires the last action to be Finish"
                )
        elif self.steps and self.steps[-1].action.kind == "Finish":
            raise ConfigurationError(
                "episodes ending in a Finish action must terminate Finished"
            )
        return Episode(
            instruction=self.instruction,
            tools=self.tools,
            steps=self.steps,
            terminal=terminal,
            method_label=self.method_label,
            step_budget=self.step_budget,
        )


def new_episode(
    instruction: Instruction,
    tools: list[ToolSpec] | tuple[ToolSpec, ...],
    budget: int,
    method_label: str,
) -> Episode:
    """Start an empty episode; the state trail begins at the empty state."""
    if budget < 1:
        raise ConfigurationError(f"step budget must be >= 1, got {budget}")
    if not tools:
        raise ConfigurationError("episode requires a non-empty tool list")
    return Episode(
        instruction=instruction,
        tools=tuple(tools),
        steps=(),
        terminal=None,
        method_label=method_label,
        step_budget=budget,
    )


# ---------------------------------------------------------------------------
# Canonical args rendering and digests
# ---------------------------------------------------------------------------


def normalize_arg_value(value):
    """Coerce an arg value to a scalar or flat list of scalars.

    Nested containers are rendered to their canonical JSON text, keeping
    prompt rendering and digesting deterministic.
    """
    if value is None:
        return ""
    if isinstance(value, _SCALAR_TYPES):
        return value
    if isinstance(value, list) and all(isinstance(v, _SCALAR_TYPES) for v in value):
        return value
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_args(args: dict) -> str:
    """Sorted-key canonical JSON rendering of an args map."""
    normalized = {str(k): normalize_arg_value(v) for k, v in args.items()}
    return json.dumps(normalized, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def args_digest(args: dict) -> str:
    """Stable, order-insensitive digest of an args map (for failure dedup)."""
    return hashlib.sha256(canonical_args(args).encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Trace serialization
# ---------------------------------------------------------------------------


def _tool_to_dict(tool: ToolSpec) -> dict:
    return {
        "name": tool.name,
        "description": tool.description,
        "params": [
            {
                "name": p.name,
                "type": p.type_tag,
                "required": p.required,
                "description": p.description,
            }
            for p in tool.params
        ],
        "category": tool.category,
    }


def tool_from_dict(data: dict, description_required: bool = False) -> ToolSpec:
    """Parse one tool record (trace, scenario or catalog file).

    A missing ``description`` reads as ``""`` unless ``description_required``;
    a malformed record raises KeyError, TypeError or ConfigurationError,
    which each caller reports against its own file.
    """
    return ToolSpec(
        name=data["name"],
        description=data["description"] if description_required else data.get("description", ""),
        params=tuple(
            ParamSpec(
                name=p["name"],
                type_tag=p.get("type", "string"),
                required=bool(p.get("required", False)),
                description=p.get("description", ""),
            )
            for p in data.get("params", [])
        ),
        category=data.get("category"),
    )


def _state_to_dict(state: State) -> dict:
    return {
        "current_results": [
            {"text": r.text, "step": r.step_index} for r in state.current_results
        ],
        "failure_history": [
            {
                "tool": f.tool_name,
                "digest": f.args_digest,
                "reason": f.reason,
                "step": f.step_index,
            }
            for f in state.failure_history
        ],
    }


def _state_from_dict(data: dict) -> State:
    return State(
        current_results=tuple(
            ResultEntry(text=r["text"], step_index=r["step"])
            for r in data.get("current_results", [])
        ),
        failure_history=tuple(
            FailureEntry(
                tool_name=f["tool"],
                args_digest=f["digest"],
                reason=f["reason"],
                step_index=f["step"],
            )
            for f in data.get("failure_history", [])
        ),
    )


def _step_to_dict(step: Step) -> dict:
    obs = None
    if step.observation is not None:
        o = step.observation
        obs = {
            "status": o.status,
            "payload": o.payload,
            "tool_name": o.tool_name,
            "args_echo": o.args_echo,
            "latency": o.latency,
            "error": o.error,
        }
    return {
        "action": {
            "kind": step.action.kind,
            "tool_name": step.action.tool_name,
            "args": step.action.args,
            "thought": step.action.thought,
            "retry_count": step.action.retry_count,
        },
        "observation": obs,
        "state": _state_to_dict(step.state),
    }


def _step_from_dict(data: dict) -> Step:
    a = data["action"]
    action = Action(
        kind=a["kind"],
        tool_name=a.get("tool_name", ""),
        args=a.get("args", {}),
        thought=a.get("thought"),
        retry_count=a.get("retry_count", 0),
    )
    obs = None
    if data.get("observation") is not None:
        o = data["observation"]
        obs = Observation(
            status=o["status"],
            payload=o["payload"],
            tool_name=o["tool_name"],
            args_echo=o.get("args_echo", {}),
            latency=o.get("latency", 0.0),
            error=o.get("error"),
        )
    return Step(action=action, observation=obs, state=_state_from_dict(data["state"]))


def serialize_episode(episode: Episode) -> str:
    """One-line canonical JSON record for a terminal episode."""
    if episode.terminal is None:
        raise TraceFormatError("cannot serialize an episode without a terminal state")
    payload = {
        "instruction": {
            "id": episode.instruction.id,
            "text": episode.instruction.text,
            "subset_label": episode.instruction.subset_label,
        },
        "tools": [_tool_to_dict(t) for t in episode.tools],
        "steps": [_step_to_dict(s) for s in episode.steps],
        "terminal": {
            "status": episode.terminal.status,
            "answer": episode.terminal.answer,
        },
        "method_label": episode.method_label,
        "step_budget": episode.step_budget,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def deserialize_episode(record: str) -> Episode:
    """Parse and validate one trace line; raises TraceFormatError on problems."""
    try:
        data = json.loads(record)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise TraceFormatError(f"trace record is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise TraceFormatError("trace record must be a JSON object")

    try:
        terminal_data = data["terminal"]
        status = terminal_data["status"]
        if status not in TERMINAL_STATUSES:
            raise TraceFormatError(f"unknown terminal tag: {status!r}")
        instr = data["instruction"]
        instruction = Instruction(
            id=instr["id"], text=instr["text"], subset_label=instr.get("subset_label")
        )
        tools = tuple(tool_from_dict(t, description_required=True) for t in data["tools"])
        steps = tuple(_step_from_dict(s) for s in data["steps"])
        episode = Episode(
            instruction=instruction,
            tools=tools,
            steps=steps,
            terminal=Terminal(status=status, answer=terminal_data.get("answer")),
            method_label=data["method_label"],
            step_budget=data["step_budget"],
        )
    except TraceFormatError:
        raise
    except (KeyError, TypeError, ConfigurationError) as exc:
        raise TraceFormatError(f"malformed trace record: {exc}") from exc

    _validate_episode(episode)
    return episode


def _validate_episode(episode: Episode) -> None:
    if len(episode.steps) > episode.step_budget:
        raise TraceFormatError(
            f"episode has {len(episode.steps)} steps, over budget {episode.step_budget}"
        )
    finished = episode.terminal is not None and episode.terminal.status == "Finished"
    last_is_finish = bool(episode.steps) and episode.steps[-1].action.kind == "Finish"
    if finished != last_is_finish:
        raise TraceFormatError(
            "terminal Finished must coincide with a final Finish action"
        )
    previous_failures = -1
    for step in episode.steps:
        if len(step.state.failure_history) < previous_failures:
            raise TraceFormatError("failure history shrank between steps")
        previous_failures = len(step.state.failure_history)


def load_json_file(path, error: type[Exception], blank=None):
    """Parse the JSON file at ``path``. Invalid JSON, or JSON nested deeper
    than the interpreter's recursion limit, raises ``error`` naming the file.
    A file that is not UTF-8 raises ``error`` too. A file holding only
    whitespace gives ``blank`` when one is given."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = handle.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8: {exc}") from exc
    if blank is not None and not raw.strip():
        return blank
    try:
        return json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{path}: invalid JSON: {exc}") from exc


def read_trace(path) -> list[Episode]:
    episodes = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    episodes.append(deserialize_episode(line))
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: not UTF-8: {exc}") from exc
    return episodes
