"""Deterministic simulated open-world API environment, plus a live HTTP tool
invoker.

A Scenario is an immutable value: instruction, tools, per-tool ordered
behavior lists and a pass condition over the final answer. Sessions hold the
per-episode consumption cursors, so concurrent episodes over one shared
Scenario never interfere. Tool responses model the messiness of real APIs:
failures, timeouts and verbose payloads that bury the relevant fragment in
filler.
"""

from __future__ import annotations

import codecs
import math
import os
import re
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING
from urllib.parse import quote

from .core import CatalogTool, Episode, Instruction, Observation, load_record, tool_names
from .errors import ConfigurationError
from .parsing import truncate_with_marker
from .provider import MAX_REQUEST_CHARS

if TYPE_CHECKING:
    import requests

BEHAVIOR_KINDS = ("success", "error", "timeout", "verbose")
REPEAT_MODES = ("once", "forever")

_FILLER_CHUNK = (
    "Auxiliary diagnostic records, pagination cursors, locale metadata and "
    "unrelated catalog entries follow; none of it concerns the request. "
)


@dataclass(frozen=True)
class Behavior:
    kind: str
    payload: str = ""
    code: int | None = None
    message: str = ""
    filler_chars: int = 0
    repeat: str = "once"

    def __post_init__(self):
        if self.kind not in BEHAVIOR_KINDS:
            raise ConfigurationError(f"unknown behavior kind: {self.kind!r}")
        if self.repeat not in REPEAT_MODES:
            raise ConfigurationError(f"unknown repeat mode: {self.repeat!r}")
        if self.kind == "verbose" and self.filler_chars < len(self.payload):
            raise ConfigurationError("a verbose behavior's 'filler_chars' must be >= its payload length")


@dataclass(frozen=True)
class PassCondition:
    """Deterministic predicate over the final answer, given by exactly one
    key: ``contains_all`` substrings, a ``regex`` to search for, or the
    ``exact`` answer."""

    contains_all: tuple[str, ...] | None = None
    regex: str | None = None
    exact: str | None = None
    # Compiled once, so a bad regex fails when the scenario is loaded.
    compiled: re.Pattern | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        given = [k for k in ("contains_all", "regex", "exact") if getattr(self, k) is not None]
        if len(given) != 1:
            raise ConfigurationError(f"give exactly one of contains_all, regex, exact; got {given}")
        if self.contains_all is not None and not self.contains_all:
            # all() of nothing is true: every answer would pass.
            raise ConfigurationError("'contains_all' must list at least one string")
        try:
            compiled = None if self.regex is None else re.compile(self.regex)
        except re.error as exc:
            raise ConfigurationError(f"'regex' is not a valid regex: {exc}") from exc
        object.__setattr__(self, "compiled", compiled)

    def evaluate(self, answer: str) -> bool:
        if self.contains_all is not None:
            return all(value in answer for value in self.contains_all)
        if self.compiled is not None:
            return self.compiled.search(answer) is not None
        return answer == self.exact


@dataclass(frozen=True)
class Scenario:
    id: str
    instruction: Instruction
    tools: tuple[CatalogTool, ...]
    pass_condition: PassCondition
    behaviors: dict[str, tuple[Behavior, ...]] = field(default_factory=dict)

    def __post_init__(self):
        names = tool_names(self.tools)
        for name, behavior_list in self.behaviors.items():
            if name not in names:
                raise ConfigurationError(f"behavior declared for unknown tool: {name!r}")
            if not behavior_list:
                raise ConfigurationError(f"behavior list for {name!r} must be non-empty")


def load_scenario(path) -> Scenario:
    return load_record(path, Scenario, "scenario")


def embed_in_filler(payload: str, total_chars: int) -> str:
    """Embed the relevant payload near the middle of deterministic filler so
    the observation is exactly ``total_chars`` long, which must be at least
    ``len(payload)``: ``Behavior`` checks this of every verbose behavior."""
    pad = total_chars - len(payload)
    prefix_len = pad // 2
    suffix_len = pad - prefix_len
    filler = _FILLER_CHUNK * (total_chars // len(_FILLER_CHUNK) + 2)
    return filler[:prefix_len] + payload + filler[:suffix_len]


def _failed(status: str, tool_name: str, args: dict, error: str, latency=0.0) -> Observation:
    """The non-Success observation of one call: no payload, ``error`` says why."""
    return Observation(
        status=status, payload="", tool_name=tool_name, args_echo=dict(args),
        latency=latency, error=error,
    )


class ScenarioSession:
    """Per-episode executor over one scenario; deterministic given the call
    order. Once-behaviors advance the cursor, forever-behaviors persist."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self._tools = {tool.name: tool for tool in scenario.tools}
        self._cursors = {name: 0 for name in scenario.behaviors}
        self._lock = threading.Lock()

    def invoke(self, tool_name: str, args: dict) -> Observation:
        tool = self._tools.get(tool_name)
        if tool is None:
            return _failed("ToolError", tool_name, args, f"unknown tool: {tool_name}")
        for param in tool.params:
            if param.required and param.name not in args:
                # Validation failures do not consume a behavior.
                return _failed(
                    "ToolError", tool_name, args, f"missing required parameter: {param.name}"
                )
        with self._lock:
            queue = self.scenario.behaviors.get(tool_name, ())
            cursor = self._cursors.get(tool_name, 0)
            if cursor >= len(queue):
                error = f"behavior queue exhausted for tool: {tool_name}"
                return _failed("ToolError", tool_name, args, error)
            behavior = queue[cursor]
            if behavior.repeat == "once":
                self._cursors[tool_name] = cursor + 1
        return self._observe(behavior, tool_name, args)

    @staticmethod
    def _observe(behavior: Behavior, tool_name: str, args: dict) -> Observation:
        if behavior.kind == "timeout":
            return _failed("Timeout", tool_name, args, behavior.message or "simulated timeout")
        if behavior.kind == "error":
            descriptor = behavior.message or "tool error"
            if behavior.code is not None:
                descriptor = f"HTTP {behavior.code}: {descriptor}"
            return _failed("ToolError", tool_name, args, descriptor)
        payload = behavior.payload
        if behavior.kind == "verbose":
            payload = embed_in_filler(payload, behavior.filler_chars)
        return Observation(
            status="Success", payload=payload, tool_name=tool_name, args_echo=dict(args)
        )


def check_pass(scenario: Scenario, episode: Episode) -> bool:
    """True iff the episode Finished and its answer satisfies the scenario's
    pass condition."""
    if episode.terminal.status != "Finished":
        return False
    return scenario.pass_condition.evaluate(episode.terminal.answer)


# ---------------------------------------------------------------------------
# Live HTTP tools
# ---------------------------------------------------------------------------

LIVE_TIMEOUT_SECONDS = 15.0
_BODY_CHUNK_BYTES = 64 * 1024


@dataclass(frozen=True)
class Endpoint:
    """A live tool's HTTP endpoint. Call args fill the url's {param} placeholders, the rest go
    to the query (GET) or JSON body; a set ``auth_env`` variable is the Authorization header."""

    url: str
    method: str = "GET"
    auth_env: str = ""
    timeout: float = LIVE_TIMEOUT_SECONDS

    def __post_init__(self):
        if not 0 < self.timeout < math.inf:
            raise ConfigurationError(
                f"'timeout' must be a positive number of seconds, got {self.timeout!r}"
            )


def load_endpoint_spec(path) -> dict[str, Endpoint]:
    """Endpoint spec file: an object from tool name to Endpoint record."""
    return load_record(path, dict[str, Endpoint], "endpoint spec")


def invoke_live(
    endpoints: dict[str, Endpoint], tool_name: str, args: dict, session: requests.Session
) -> Observation:
    """Execute one HTTP tool call over ``session``, mapping every failure mode
    onto an Observation status; nothing raises into the engine. No retries
    here: the agent loop itself is the retry mechanism. One session serves a
    run's calls, so they reuse its connections. ``requests`` is imported here,
    not with the module, so offline runs never load the HTTP stack."""
    import requests
    from urllib3.exceptions import ReadTimeoutError

    endpoint = endpoints.get(tool_name)
    if endpoint is None:
        return _failed("ToolError", tool_name, args, f"unknown tool: {tool_name}")
    url = endpoint.url
    remaining = dict(args)
    for key in list(remaining):
        placeholder = "{" + key + "}"
        if placeholder in url:
            # Model-chosen values: quoted, so each stays one path segment.
            url = url.replace(placeholder, quote(str(remaining.pop(key)), safe=""))
    method = endpoint.method.upper()
    headers = {}
    if endpoint.auth_env and os.environ.get(endpoint.auth_env):
        headers["Authorization"] = os.environ[endpoint.auth_env]

    body_arg = {"params": remaining} if method == "GET" else {"json": remaining}
    started = time.perf_counter()
    try:
        response = session.request(
            method, url, headers=headers, stream=True,
            timeout=endpoint.timeout, **body_arg,
        )
        with response:
            body = _read_body(response)
    except requests.RequestException as exc:
        latency = time.perf_counter() - started
        # A body that stalls past the timeout raises ConnectionError from
        # iter_content, wrapping urllib3's ReadTimeoutError.
        cause = exc.args[0] if exc.args else None
        if isinstance(exc, requests.Timeout) or isinstance(cause, ReadTimeoutError):
            return _failed("Timeout", tool_name, args, f"timeout: {exc}", latency)
        return _failed("ToolError", tool_name, args, f"transport error: {exc}", latency)
    latency = time.perf_counter() - started
    if 200 <= response.status_code < 300:
        return Observation(
            status="Success", payload=body, tool_name=tool_name,
            args_echo=dict(args), latency=latency,
        )
    error = f"HTTP {response.status_code}: {body[:200]}"
    return _failed("ToolError", tool_name, args, error, latency)


def _read_body(response: requests.Response) -> str:
    """The body as text, read no further than MAX_REQUEST_CHARS chars: no
    longer text can be passed back to a model. A longer body is clipped with
    a marker, which counts the chars read past the limit, not the unread
    rest. Decoded as the response declares (UTF-8 when it declares no known
    charset), undecodable bytes replaced."""
    try:
        decoder = codecs.getincrementaldecoder(response.encoding or "utf-8")("replace")
    except LookupError:
        decoder = codecs.getincrementaldecoder("utf-8")("replace")
    parts: list[str] = []
    size = 0
    for chunk in response.iter_content(_BODY_CHUNK_BYTES):
        parts.append(decoder.decode(chunk))
        size += len(parts[-1])
        if size > MAX_REQUEST_CHARS:
            break
    else:
        parts.append(decoder.decode(b"", final=True))
    return truncate_with_marker("".join(parts), MAX_REQUEST_CHARS)
