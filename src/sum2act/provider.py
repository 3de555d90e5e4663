"""Chat-completion backends: a live HTTP client and a deterministic scripted
provider for tests.

A provider is anything with ``complete(request) -> str``. The scripted
provider matches ordered substring/regex entries against the fully rendered
prompt text, so prompt-construction bugs surface directly in tests. Regex
entries are compiled when built, and an entry is tried only when the prompt
holds every literal its pattern requires, which never changes the entry that
matches first. The engines re-send each template's prompt with most of its
text unchanged, so the scripted provider remembers its last long prompt per
template: an identical prompt gets the same reply unmatched, and a literal
is searched only from where the new prompt could first differ from that
last one.
"""

from __future__ import annotations

import os
import re
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from .core import load_record
from .errors import (
    ConfigurationError,
    ProviderRejected,
    ProviderUnavailable,
    RequestTooLarge,
    ScriptError,
)

if TYPE_CHECKING:
    import requests

# Hard ceiling on rendered request size; requests are never truncated
# silently, they fail loudly instead.
MAX_REQUEST_CHARS = 200_000

# Longest wait between two live attempts, whatever the exponential backoff
# or a Retry-After header asks for.
MAX_BACKOFF_SECONDS = 30.0

# 4xx statuses retried like 5xx: request timeout and rate limiting.
_RETRIED_4XX = (408, 429)


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str

    def __post_init__(self):
        if not self.prompt:
            raise ValueError("completion request requires a non-empty prompt")

    def rendered_prompt(self) -> str:
        """The prompt. Kept for ``perfbench/tracing.py``'s ``ModelledProvider``,
        which calls it; code here reads ``prompt``."""
        return self.prompt


# Inline flags under which a plain pattern character matches only itself;
# i, x and L change what a literal matches.
_LITERAL_SAFE_FLAGS = frozenset("amsu")
_LEADING_FLAGS = re.compile(r"\(\?([a-zA-Z]+)\)")


def _required_literals(pattern: str) -> tuple[str, ...]:
    """Runs of plain characters that every match of ``pattern`` contains.

    A short scan of the pattern text, not a parse: any group, class, brace
    or alternation gives (), as does a leading flag group setting anything but
    a, m, s or u. A character a quantifier applies to is dropped, and ``.``,
    ``^``, ``$`` and escapes of letters or digits end a run. ``()`` means the
    entry always runs its regex.
    """
    flags = _LEADING_FLAGS.match(pattern)
    if flags and not set(flags.group(1)) <= _LITERAL_SAFE_FLAGS:
        return ()
    literals: list[str] = []
    run: list[str] = []

    def end_run() -> None:
        if run:
            literals.append("".join(run))
            run.clear()

    index = flags.end() if flags else 0
    while index < len(pattern):
        char = pattern[index]
        index += 1
        if char in "()[]{}|":
            return ()
        if char == "\\":
            escaped = pattern[index:index + 1]
            index += 1
            if escaped.isdigit() or escaped in ("", "x", "u", "U", "N"):
                return ()  # a code point or backreference, not one plain char
            if escaped.isalnum():
                end_run()
            else:
                run.append(escaped)
        elif char in "*+?":
            if run:
                run.pop()
            end_run()
        elif char in ".^$":
            end_run()
        else:
            run.append(char)
    end_run()
    return tuple(literals)


@dataclass(frozen=True)
class PolicyEntry:
    match: str
    response: str
    is_regex: bool = False
    # Compiled once, so a bad pattern fails when the entry is built.
    pattern: re.Pattern | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "pattern", re.compile(self.match) if self.is_regex else None)
        except re.error as exc:
            raise ConfigurationError(f"'match' is not a valid regex: {exc}") from exc

    @cached_property
    def literals(self) -> tuple[str, ...]:
        """Substrings every matching prompt holds; found on first use, so
        loading a policy scans no pattern."""
        return _required_literals(self.match) if self.is_regex else (self.match,)


@dataclass(frozen=True)
class ScriptedPolicy:
    """Ordered matcher list; the first matching entry wins."""

    entries: tuple[PolicyEntry, ...] = ()
    default: str | None = None

    @cached_property
    def _recorded_from_chars(self) -> int:
        """Prompts longer than this are recorded (see ScriptedProvider and
        _PREFIX_COST_CHARS)."""
        literals = {literal for entry in self.entries for literal in entry.literals}
        return _PREFIX_COST_CHARS // max(len(literals), 1)


# The shortest block compared while narrowing down a shared prefix.
_MIN_PREFIX_BLOCK = 64

# Measuring a shared prefix costs about what a search of this many prompt
# chars does (the Python loop of _shared_prefix dominates on short prompts).
# A prompt is recorded, and the next of its kind measures the prefix, only
# when its length times the policy's distinct literal count exceeds this:
# short prompts with few literals, where a full search is cheap, are searched
# whole and not recorded, since keeping records costs about a microsecond per
# call.
_PREFIX_COST_CHARS = 32_768


def _shared_prefix(a: str, b: str) -> int:
    """A lower bound, within _MIN_PREFIX_BLOCK chars, on the length of the
    common prefix of ``a`` and ``b``: blocks of doubling size are compared
    until one differs, then halving blocks narrow down the difference."""
    limit = min(len(a), len(b))
    shared, block = 0, _MIN_PREFIX_BLOCK
    while shared + block <= limit and a[shared:shared + block] == b[shared:shared + block]:
        shared += block
        block *= 2
    while block > _MIN_PREFIX_BLOCK:
        block //= 2
        end = min(shared + block, limit)
        if a[shared:end] == b[shared:end]:
            shared = end
    return shared


# A prompt's kind is its first chars. Every template opens with fixed text,
# and the templates differ within this many chars, so each gets one record;
# the key costs a short slice where finding the first line costs a search.
_KIND_CHARS = 32

# The record of a kind not seen yet: no prompt equals it, no literal is known.
_NOTHING_STORED = (None, None, {})


class ScriptedProvider:
    """Pure, deterministic stand-in for a live model.

    ``complete`` is a function of the policy and the prompt alone. Per prompt
    kind (its first _KIND_CHARS chars, so one per template) it records the
    last long prompt it answered, the reply, and the first index of each
    literal it searched there (-1 when absent). An identical prompt gets the
    stored reply. Otherwise a literal searched in the stored prompt is
    searched in the new one only from where an occurrence could end past
    their shared prefix: any occurrence ending inside it is one the stored
    prompt has at the same index. Only prompts long enough for that to save
    more than it costs are recorded (_PREFIX_COST_CHARS). Each kind's record
    is replaced whole and never changed after, so threads may share one
    provider.
    """

    def __init__(self, policy: ScriptedPolicy):
        self.policy = policy
        self._last: dict[str, tuple[str, str, dict[str, int]]] = {}

    def complete(self, request: CompletionRequest) -> str:
        prompt = request.prompt
        _check_size(prompt)
        kind = None
        before, _, before_found = _NOTHING_STORED
        shared = 0  # until measured, every literal is searched from the start
        if len(prompt) > self.policy._recorded_from_chars:
            kind = prompt[:_KIND_CHARS]
            before, reply, before_found = self._last.get(kind, _NOTHING_STORED)
            if before == prompt:
                return reply
            if before is not None:
                shared = _shared_prefix(prompt, before)
        found: dict[str, int] = {}
        for entry in self.policy.entries:
            for literal in entry.literals:
                index = found.get(literal)
                if index is None:
                    index = before_found.get(literal) if shared else None
                    if index is None:
                        index = prompt.find(literal)
                    elif index < 0 or index + len(literal) > shared:
                        index = prompt.find(literal, max(0, shared - len(literal) + 1))
                    found[literal] = index
                if index < 0:
                    break
            else:
                if entry.pattern is None or entry.pattern.search(prompt) is not None:
                    reply = entry.response
                    break
        else:
            reply = self.policy.default
            if reply is None:
                raise ScriptError(
                    "no policy entry matched the prompt and no default is set; "
                    f"prompt started with: {prompt[:160]!r}"
                )
        if kind is not None:
            self._last[kind] = (prompt, reply, found)
        return reply


def load_policy(path) -> ScriptedPolicy:
    """Load a scripted policy file, a ScriptedPolicy record; an empty file is an empty policy."""
    return load_record(path, ScriptedPolicy, "policy", blank={})


def _check_size(prompt: str) -> None:
    if len(prompt) > MAX_REQUEST_CHARS:
        raise RequestTooLarge(
            f"rendered request is {len(prompt)} chars, over the "
            f"{MAX_REQUEST_CHARS}-char limit"
        )


def _retry_after_seconds(value: str | None) -> float | None:
    """The wait a Retry-After header asks for, in its delay-seconds or its
    HTTP-date form (a past date waits 0); None when absent or unreadable."""
    if value is None:
        return None
    value = value.strip()
    if re.fullmatch(r"[0-9]+", value):
        return float(value)
    from datetime import datetime, timezone
    from email.utils import parsedate_to_datetime

    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, (when - datetime.now(timezone.utc)).total_seconds())


class LiveProvider:
    """Client for any chat-completions-compatible HTTP endpoint.

    Retries transport failures, 5xx, 408 and 429 responses, waiting as long
    as the response's Retry-After header asks, or else with exponential
    backoff, and never longer than MAX_BACKOFF_SECONDS. A Retry-After wait is
    shared: it pushes one not-before time later, and every thread sharing the
    provider waits for that time before its next request. Other 4xx responses
    are rejected immediately and never retried. Configuration comes from
    PROVIDER_BASE_URL, PROVIDER_API_KEY and PROVIDER_MODEL unless passed
    explicitly. ``requests`` is imported by the methods, not with the module,
    so scripted runs never load the HTTP stack.
    """

    def __init__(
        self,
        base_url: str | None = None,
        api_key: str | None = None,
        model: str | None = None,
        retries: int = 3,
        backoff_base: float = 1.0,
        timeout: float = 60.0,
        session: requests.Session | None = None,
    ):
        import requests

        self.base_url = (base_url or os.environ.get("PROVIDER_BASE_URL", "")).rstrip("/")
        self.api_key = api_key or os.environ.get("PROVIDER_API_KEY", "")
        self.model = model or os.environ.get("PROVIDER_MODEL", "")
        if not self.base_url.lower().startswith(("http://", "https://")):
            raise ProviderUnavailable(
                f"PROVIDER_BASE_URL must start with http:// or https://, got {self.base_url!r}"
            )
        if not self.model:
            raise ProviderUnavailable("PROVIDER_MODEL is not configured")
        self.retries = retries
        self.backoff_base = backoff_base
        self.timeout = timeout
        self._session = session or requests.Session()
        self._lock = threading.Lock()
        self._not_before = 0.0  # no request is sent before this time.monotonic()

    def _await_turn(self) -> None:
        """Sleep until the not-before time, which may move on while sleeping."""
        while True:
            with self._lock:
                delay = self._not_before - time.monotonic()
            if delay <= 0:
                return
            time.sleep(delay)

    def complete(self, request: CompletionRequest) -> str:
        import requests

        _check_size(request.prompt)
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": 0.0,
            "max_tokens": 1024,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        url = f"{self.base_url}/chat/completions"
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            self._await_turn()
            wait = None
            try:
                response = self._session.post(
                    url, json=body, headers=headers, timeout=self.timeout
                )
            except requests.RequestException as exc:
                last_error = exc
            else:
                status = response.status_code
                if 200 <= status < 300:
                    return self._extract_content(response)
                if 400 <= status < 500 and status not in _RETRIED_4XX:
                    raise ProviderRejected(status, response.text[:500])
                last_error = ProviderUnavailable(f"HTTP {status}: {response.text[:200]}")
                wait = _retry_after_seconds(response.headers.get("Retry-After"))
                if wait is not None:  # every thread waits; never moved earlier
                    with self._lock:
                        self._not_before = max(
                            self._not_before, time.monotonic() + min(wait, MAX_BACKOFF_SECONDS)
                        )
            if attempt < self.retries:
                if wait is None:
                    wait = self.backoff_base * (2**attempt)
                time.sleep(min(wait, MAX_BACKOFF_SECONDS))
        raise ProviderUnavailable(
            f"endpoint unreachable after {self.retries + 1} attempts: {last_error}"
        )

    @staticmethod
    def _extract_content(response: requests.Response) -> str:
        try:
            data = response.json()
            content = data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderUnavailable(
                f"malformed completion response: {response.text[:200]!r}"
            ) from exc
        if not isinstance(content, str):
            raise ProviderUnavailable("completion content is not a string")
        return content


class RecordingProvider:
    """Wrapper that logs every (prompt, response) pair; used by tests and the
    replay tooling to assert on exactly what the model was shown."""

    def __init__(self, inner):
        self._inner = inner
        self._lock = threading.Lock()
        self.calls: list[tuple[str, str]] = []

    def complete(self, request: CompletionRequest) -> str:
        response = self._inner.complete(request)
        with self._lock:
            self.calls.append((request.prompt, response))
        return response

    def prompts(self) -> list[str]:
        with self._lock:
            return [prompt for prompt, _ in self.calls]
