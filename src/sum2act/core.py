"""Core domain types and episode-trace serialization.

All types here are frozen dataclasses: immutable value objects that are safe
to share across concurrent episode runners. An Episode is only ever a
finished one: the engine builds it once, when the episode ends.

The trace format is line-delimited JSON in 7-bit ASCII (other chars as
``\\uXXXX`` escapes), one self-contained episode per line, with canonical key
ordering so that serialization is byte-identical across runs. Top-level field
names ``instruction``, ``tools``, ``steps``, ``terminal``, ``method_label``
and ``step_budget`` are a stable contract (see README). The field annotations
define every record key: each record's JSON keys are its type's field names,
written and read alike.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from types import NoneType, UnionType
from typing import Union, get_args, get_origin, get_type_hints

from .errors import ConfigurationError, Sum2ActError

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
    type: str = "string"
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


def tool_names(tools) -> set[str]:
    """The names of a scenario's or catalog's tools. An empty list, or one
    naming a tool twice (the router would list both and a session run only
    one), raises ConfigurationError."""
    if not tools:
        raise ConfigurationError("'tools' must list at least one tool")
    names = set()
    for tool in tools:
        if tool.name in names:
            raise ConfigurationError(f"tool {tool.name!r} is listed more than once")
        names.add(tool.name)
    return names


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
    step: int


@dataclass(frozen=True)
class FailureEntry:
    """One failed (tool, args) attempt with its deduced reason."""

    tool: str
    digest: str
    reason: str
    step: int


@dataclass(frozen=True)
class State:
    """Summarized task state: current results plus failure history.

    Failure entries are never removed within an episode; exact duplicates
    (same tool name and args digest) are merged instead of appended.
    """

    current_results: tuple[ResultEntry, ...] = ()
    failure_history: tuple[FailureEntry, ...] = ()

    def has_failure(self, tool: str, digest: str) -> bool:
        return any(f.tool == tool and f.digest == digest for f in self.failure_history)


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


@dataclass(frozen=True)
class Episode:
    """Ordered trace of steps with a terminal status; the unit of evaluation.

    Every episode holds at most ``step_budget`` steps, its terminal is
    Finished exactly when the last action is Finish, and its failure history
    never shrinks from one step to the next.
    """

    instruction: Instruction
    tools: tuple[ToolSpec, ...]
    steps: tuple[Step, ...]
    terminal: Terminal
    method_label: str
    step_budget: int

    def __post_init__(self):
        if len(self.steps) > self.step_budget:
            raise ConfigurationError(
                f"episode has {len(self.steps)} steps, over budget {self.step_budget}"
            )
        finished = self.terminal.status == "Finished"
        if finished != (bool(self.steps) and self.steps[-1].action.kind == "Finish"):
            raise ConfigurationError(
                "terminal Finished must coincide with a final Finish action"
            )
        previous_failures = 0
        for step in self.steps:
            if len(step.state.failure_history) < previous_failures:
                raise ConfigurationError("failure history shrank between steps")
            previous_failures = len(step.state.failure_history)


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
    return _ENCODER.encode(value)


def canonical_args(args: dict) -> str:
    """Sorted-key canonical JSON rendering of an args map."""
    return _ENCODER.encode({str(k): normalize_arg_value(v) for k, v in args.items()})


def args_digest(args: dict) -> str:
    """Stable, order-insensitive digest of an args map (for failure dedup)."""
    return hashlib.sha256(canonical_args(args).encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Trace serialization
# ---------------------------------------------------------------------------


# The record format is defined by the field annotations (see ``from_record``)
# and nowhere else: a trace record is its type's ``__dict__``, so its keys are
# the type's field names. These are the trace record types, the ones the
# trace encoder writes.
_TRACE_TYPES = frozenset({
    Instruction, ParamSpec, ToolSpec, Action, Observation, ResultEntry,
    FailureEntry, State, Step, Terminal, Episode,
})


class Defaulted:
    """An annotation: record type ``record`` whose keys in ``defaults`` may be left out."""

    def __init__(self, record: type, **defaults):
        self.record, self.defaults = record, defaults


# Scenario and catalog tools may leave out ``description`` (read as ""); trace tools may not.
CatalogTool = Defaulted(ToolSpec, description="")


def _to_record(obj) -> dict:
    """``default`` hook of the trace encoder; the C encoder does the recursion."""
    if type(obj) not in _TRACE_TYPES:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return obj.__dict__


# Records and args maps are trees (frozen dataclasses over parsed JSON), so
# the encoders skip the circular-reference check, which costs a marker insert
# and delete per record, dict and list inside each timed episode. The
# canonical args rendering keeps non-ASCII text as it is, since prompts and
# failure digests show it. The trace writer escapes it (and U+007F) as
# \uXXXX: CPython's ASCII escaper is the faster one, and the two write the
# same bytes for every other char, so an ASCII trace is unchanged.
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False, check_circular=False,
)
_TRACE_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=True, check_circular=False,
    default=_to_record,
)


def from_record(annotation, data):
    """Read ``data``, a parsed JSON value, as a value of ``annotation``: a
    record type (a frozen dataclass) or a record field's annotation, which
    alone define every trace, scenario, catalog, policy and endpoint format.
    A record is an object of its ``init`` fields, each required unless it has
    a default, and no other key; ``tuple[T, ...]`` is a list, ``dict[str,
    T]`` an object, ``T | None`` T or null, ``Defaulted`` its record with
    some keys optional, and a scalar a JSON value its type admits (a bool is
    never a number, but 0 and 1 pass as a bool). A malformed value raises
    ConfigurationError naming the keys and entries leading to it, or the top
    record's own check's error."""
    return _reader(annotation)(data)


class _Mismatch(ConfigurationError):
    """A JSON value of the wrong type: "must be ..., got ..."."""


def _located(where: str, exc: Sum2ActError) -> ConfigurationError:
    """``exc``, raised reading the value at ``where``, naming ``where``."""
    return ConfigurationError(f"{where}{' ' if isinstance(exc, _Mismatch) else ': '}{exc}")


@cache
def _reader(annotation):
    """The function reading a JSON value as a value of ``annotation``, built
    once: reading the annotations costs far more than reading a record."""
    origin, args = get_origin(annotation), get_args(annotation)
    if isinstance(annotation, Defaulted):
        return _record_reader(annotation.record, annotation.defaults)
    if is_dataclass(annotation):
        return _record_reader(annotation, {})
    if origin in (Union, UnionType) and len(args) == 2 and NoneType in args:
        read = _reader(args[args[0] is NoneType])
        return lambda value: None if value is None else read(value)
    if origin is tuple and args[1:] == (Ellipsis,):
        return _items_reader(list, _reader(args[0]))
    if origin is dict and args[0] is str:
        return _items_reader(dict, _reader(args[1]))
    if annotation is bool:
        return _read_bool
    if annotation not in (str, int, float, dict):
        raise TypeError(f"no record reader for {annotation!r}")
    types = (int, float) if annotation is float else (annotation,)

    def read_scalar(value):
        if type(value) in types:
            return value
        raise _Mismatch(f"must be {annotation.__name__}, got {type(value).__name__}")

    return read_scalar


def _record_reader(cls, defaults: dict):
    """The reader of record type ``cls``; keys in ``defaults`` may be left out."""
    hints = get_type_hints(cls)
    spec = [
        (f.name, _reader(hints[f.name]),
         f.default is MISSING and f.default_factory is MISSING and f.name not in defaults)
        for f in fields(cls) if f.init
    ]
    keys = {name for name, _, _ in spec}

    def read(data):
        if type(data) is not dict:
            raise _Mismatch(f"must be an object, got {type(data).__name__}")
        values = {}
        for name, read_value, required in spec:
            if name in data:
                try:
                    values[name] = read_value(data[name])
                except Sum2ActError as exc:
                    raise _located(repr(name), exc) from exc
            elif required:
                raise ConfigurationError(f"{cls.__name__} is missing key {name!r}")
        if len(values) < len(data):
            unknown = next(key for key in data if key not in keys)
            raise ConfigurationError(f"{cls.__name__} has no key {unknown!r}")
        return cls(**{**defaults, **values}) if defaults else cls(**values)

    return read


def _items_reader(kind: type, read_item):
    """The reader of a JSON list (as a tuple) or object whose items ``read_item`` reads."""
    expected = "a list" if kind is list else "an object"

    def read(value):
        if type(value) is not kind:
            raise _Mismatch(f"must be {expected}, got {type(value).__name__}")
        items = {}
        for key, item in enumerate(value) if kind is list else value.items():
            try:
                items[key] = read_item(item)
            except Sum2ActError as exc:
                raise _located(f"entry {key}" if kind is list else repr(key), exc) from exc
        return tuple(items.values()) if kind is list else items

    return read


def _read_bool(value):
    if type(value) in (bool, int) and value in (0, 1):
        return bool(value)
    raise _Mismatch(f"must be a bool, 0 or 1, got {type(value).__name__}")


def serialize_episode(episode: Episode) -> str:
    """One-line canonical JSON record of an episode, in 7-bit ASCII."""
    return _TRACE_ENCODER.encode(episode)


def deserialize_episode(record: str) -> Episode:
    """Parse and validate one trace line; raises ConfigurationError on problems."""
    return _parse_record(record, Episode, "trace record")


def _parse_record(text: str, annotation, what: str, blank=None):
    """``text`` parsed as JSON and read as ``annotation`` (see ``from_record``);
    text holding only whitespace gives ``blank`` when one is given. Invalid
    JSON, JSON nested deeper than the interpreter's recursion limit and a
    malformed record raise ConfigurationError."""
    try:
        data = blank if blank is not None and not text.strip() else json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigurationError(f"invalid JSON: {exc}") from exc
    try:
        return from_record(annotation, data)
    except Sum2ActError as exc:
        raise ConfigurationError(f"malformed {what}: {exc}") from exc


def load_record(path, annotation, what: str, blank=None):
    """The JSON file at ``path`` read by ``_parse_record``. A file that is
    not UTF-8, or whose text does not parse, raises ConfigurationError naming
    the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            return _parse_record(handle.read(), annotation, what, blank)
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8: {exc}") from exc
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def read_trace(path) -> list[Episode]:
    """The episodes of the trace file at ``path``, one per non-blank line. A
    file that is not UTF-8 raises ConfigurationError naming it, and a line
    that does not parse raises one naming the file and the line number."""
    episodes = []
    try:
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                if line.strip():
                    try:
                        episodes.append(deserialize_episode(line))
                    except ConfigurationError as exc:
                        raise ConfigurationError(f"{path}: line {number}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8: {exc}") from exc
    return episodes
