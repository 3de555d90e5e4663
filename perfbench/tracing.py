"""Spans recorded from outside the program, and the wrappers that make them.

``install`` replaces public names in the sum2act modules, at the place each
module looks them up, with wrappers that open a span around the call; the
returned function puts the originals back. The provider and the executor are
wrapped as objects per episode. Nothing under ``src/`` changes.

A span is ``[name, start_ns, end_ns, parent_index, attrs]``; spans of one
episode live in one list, in the order they were opened, so a parent always
precedes its children. Each client thread records into its own list.
"""

from __future__ import annotations

import bisect
import logging
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

PROVIDER = "provider.complete"
PROVIDER_WAIT = "provider.wait"
EXECUTOR = "sandbox.invoke"
EXECUTOR_WAIT = "sandbox.wait"
FALLBACK = "state_manager.fallback"

# A provider call's role is the role of its nearest enclosing span with one.
ROLE_OF_SPAN = {
    "router.propose": "router",
    "router.propose_from_prompt": "router",
    "state_manager.update": "state",
    "state_manager.enforce_cap": "merge",
}

# (module, attribute, span name): every public name the benchmark times, at
# each module that imports it.
SHIMS = (
    ("engine", "propose", "router.propose"),
    ("engine", "propose_from_prompt", "router.propose_from_prompt"),
    ("engine", "update", "state_manager.update"),
    ("engine", "enforce_cap", "state_manager.enforce_cap"),
    ("engine", "fill_template", "parsing.fill_template"),
    ("engine", "render_tools_block", "router.render_tools_block"),
    ("router", "build_router_prompt", "router.build_router_prompt"),
    ("router", "parse_action", "router.parse_action"),
    ("router", "render_state", "state_manager.render_state"),
    ("router", "extract_first_json_object", "parsing.extract_first_json_object"),
    ("router", "fill_template", "parsing.fill_template"),
    ("state_manager", "render_state", "state_manager.render_state"),
    ("state_manager", "extract_first_json_object", "parsing.extract_first_json_object"),
    ("state_manager", "fill_template", "parsing.fill_template"),
)


class Tracer:
    """Collects the spans of the episode running on each thread."""

    def __init__(self):
        self._local = threading.local()

    def start_episode(self) -> None:
        self._local.spans = []
        self._local.stack = []

    def finish_episode(self) -> list:
        spans = self._local.spans
        self._local.spans = None
        return spans

    def open(self, name: str) -> int | None:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            return None
        stack = self._local.stack
        index = len(spans)
        spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, None])
        stack.append(index)
        return index

    def close(self, index: int | None, attrs: dict | None = None) -> None:
        if index is None:
            return
        span = self._local.spans[index]
        span[2] = time.perf_counter_ns()
        span[4] = attrs
        self._local.stack.pop()

    def unwind(self) -> None:
        """Close the spans an exception left open."""
        while self._local.stack:
            self.close(self._local.stack[-1])

    def mark(self, name: str) -> None:
        """Record an instant event as an empty span."""
        self.close(self.open(name))

    def wrap(self, name: str, function, attrs=None):
        def traced(*args, **kwargs):
            index = self.open(name)
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                self.close(index, attrs(args, kwargs, result) if attrs and index is not None else None)

        traced.__wrapped__ = function
        return traced


def _cap_attrs(args, kwargs, result) -> dict:
    # enforce_cap returns its input object unchanged when the state fits.
    state = args[0] if args else kwargs["state"]
    return {"active": result is not None and result is not state}


def install(tracer: Tracer, modules: dict) -> Callable[[], None]:
    """Wrap every name in SHIMS; return a function that restores them."""
    originals = []
    for module_name, attribute, span_name in SHIMS:
        module = modules[module_name]
        original = getattr(module, attribute)
        attrs = _cap_attrs if attribute == "enforce_cap" else None
        originals.append((module, attribute, original))
        setattr(module, attribute, tracer.wrap(span_name, original, attrs))

    def restore() -> None:
        for module, attribute, original in reversed(originals):
            setattr(module, attribute, original)

    return restore


class FallbackCounter(logging.Handler):
    """Marks a span for each mechanical-fallback record the state manager logs."""

    def __init__(self, tracer: Tracer):
        super().__init__(logging.WARNING)
        self._tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if record.name.endswith("state_manager") and record.msg.startswith("state verdict unparseable"):
            self._tracer.mark(FALLBACK)


# ---------------------------------------------------------------------------
# Provider and executor wrappers
# ---------------------------------------------------------------------------


def common_prefix(a: str, b: str) -> int:
    chunk = 1024
    n = min(len(a), len(b))
    low = 0
    while low + chunk <= n and a[low:low + chunk] == b[low:low + chunk]:
        low += chunk
    high = min(low + chunk, n)
    while low < high:
        mid = (low + high + 1) // 2
        if a[low:mid] == b[low:mid]:
            low = mid
        else:
            high = mid - 1
    return low


class PrefixIndex:
    """Earlier prompts of one episode, sorted, so the longest prefix a new
    prompt shares with any of them is shared with a sorted neighbour."""

    def __init__(self):
        self._sorted: list[str] = []

    def uncached(self, prompt: str) -> int:
        position = bisect.bisect_left(self._sorted, prompt)
        shared = 0
        for neighbour in self._sorted[max(0, position - 1):position + 1]:
            shared = max(shared, common_prefix(prompt, neighbour))
        self._sorted.insert(position, prompt)
        return len(prompt) - shared


@dataclass(frozen=True)
class LatencyModel:
    """Modelled waits of a live deployment."""

    provider_base_ms: float
    provider_ms_per_kchar: float
    tool_ms: float
    timeout_ms: float

    def provider_seconds(self, uncached_chars: int) -> float:
        return (self.provider_base_ms + self.provider_ms_per_kchar * uncached_chars / 1000) / 1000

    def tool_seconds(self, status: str) -> float:
        return (self.timeout_ms if status == "Timeout" else self.tool_ms) / 1000


class Delays:
    """Sleeps one episode's modelled waits, inside a span when traced, and
    adds up the time actually slept."""

    def __init__(self, model: LatencyModel, tracer: Tracer | None):
        self.model = model
        self.tracer = tracer
        self.seconds = 0.0

    def sleep(self, name: str, seconds: float) -> None:
        index = self.tracer.open(name) if self.tracer else None
        started = time.perf_counter()
        time.sleep(seconds)
        self.seconds += time.perf_counter() - started
        if self.tracer:
            self.tracer.close(index)


class ModelledProvider:
    """Wraps one episode's provider: records a span per call with its sizes,
    and sleeps the modelled provider delay after the reply."""

    def __init__(self, inner, tracer: Tracer | None, delays: Delays | None):
        self._inner = inner
        self._tracer = tracer
        self._delays = delays
        self._prefixes = PrefixIndex()

    def complete(self, request):
        prompt = request.rendered_prompt()
        uncached = self._prefixes.uncached(prompt)
        tracer = self._tracer
        index = tracer.open(PROVIDER) if tracer else None
        attrs = {"prompt_chars": len(prompt), "uncached_chars": uncached, "reply_chars": 0}
        try:
            reply = self._inner.complete(request)
            attrs["reply_chars"] = len(reply)
            if self._delays:
                self._delays.sleep(PROVIDER_WAIT, self._delays.model.provider_seconds(uncached))
            return reply
        except Exception as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            if tracer:
                tracer.close(index, attrs)


def modelled_executor(invoke, tracer: Tracer | None, delays: Delays | None):
    """Wrap a session's ``invoke``: a span per call, then the modelled tool delay."""

    def executor(tool_name, args):
        index = tracer.open(EXECUTOR) if tracer else None
        observation = invoke(tool_name, args)
        if delays:
            delays.sleep(EXECUTOR_WAIT, delays.model.tool_seconds(observation.status))
        if tracer:
            tracer.close(index, {"status": observation.status,
                                 "payload_chars": len(observation.payload)})
        return observation

    return executor


# ---------------------------------------------------------------------------
# Per-episode aggregation
# ---------------------------------------------------------------------------


def summarize(spans: list) -> dict:
    """Counters and times (ns) of one episode's spans."""
    count = len(spans)
    child_ns = [0] * count
    provider_ns = [0] * count
    for i in range(count - 1, -1, -1):
        name, start, end, parent, _ = spans[i]
        if parent >= 0:
            child_ns[parent] += end - start
            provider_ns[parent] += end - start if name == PROVIDER else provider_ns[i]
    roles = [None] * count
    out = {
        "calls": {"router": 0, "state": 0, "merge": 0, "other": 0},
        "prompt_chars": 0, "router_prompt_chars": 0, "router_uncached_chars": 0,
        "uncached_chars": 0, "reply_chars": 0,
        "provider_self_ns": 0, "provider_wait_ns": 0,
        "proposals": 0, "build_ns": 0, "builds": 0,
        "extract_ns": 0, "fill_ns": 0,
        "updates": 0, "update_ns": 0, "caps": 0, "cap_ns": 0, "caps_active": 0,
        "renders": 0, "fallbacks": 0,
        "invokes": 0, "invoke_self_ns": 0, "invoke_wait_ns": 0,
        "failures": 0, "oversize": 0,
        "serialize_ns": 0, "engine_self_ns": 0,
    }
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        duration = end - start
        roles[i] = ROLE_OF_SPAN.get(name) or (roles[parent] if parent >= 0 else None)
        if name == PROVIDER:
            role = roles[parent] if parent >= 0 and roles[parent] else "other"
            out["calls"][role] += 1
            out["prompt_chars"] += attrs["prompt_chars"]
            out["uncached_chars"] += attrs["uncached_chars"]
            out["reply_chars"] += attrs["reply_chars"]
            out["provider_self_ns"] += duration - child_ns[i]
            if role == "router":
                out["router_prompt_chars"] += attrs["prompt_chars"]
                out["router_uncached_chars"] += attrs["uncached_chars"]
        elif name == PROVIDER_WAIT:
            out["provider_wait_ns"] += duration
        elif name in ("router.propose", "router.propose_from_prompt"):
            out["proposals"] += 1
        elif name == "router.build_router_prompt":
            out["build_ns"] += duration
            out["builds"] += 1
        elif name == "parsing.fill_template":
            out["fill_ns"] += duration
            if parent >= 0 and spans[parent][0] == "engine.run_episode":
                # react and dfsdt build their prompts in the engine.
                out["build_ns"] += duration
                out["builds"] += 1
        elif name == "router.render_tools_block" and parent >= 0 and spans[parent][0] == "engine.run_episode":
            out["build_ns"] += duration
        elif name == "parsing.extract_first_json_object":
            out["extract_ns"] += duration
        elif name == "state_manager.update":
            out["updates"] += 1
            out["update_ns"] += duration - provider_ns[i]
        elif name == "state_manager.enforce_cap":
            out["caps"] += 1
            out["cap_ns"] += duration - provider_ns[i]
            out["caps_active"] += attrs["active"]
        elif name == "state_manager.render_state":
            out["renders"] += 1
        elif name == FALLBACK:
            out["fallbacks"] += 1
        elif name == EXECUTOR:
            out["invokes"] += 1
            out["invoke_self_ns"] += duration - child_ns[i]
            out["failures"] += attrs["status"] != "Success"
            out["oversize"] += attrs["payload_chars"] > 4096
        elif name == EXECUTOR_WAIT:
            out["invoke_wait_ns"] += duration
        elif name == "core.serialize_episode":
            out["serialize_ns"] += duration
        elif name == "engine.run_episode":
            out["engine_self_ns"] += duration - child_ns[i]
    return out


def reconcile(summary: dict, episode, parse_retries: int) -> list[str]:
    """Compare one traced episode's counters with its trace; return the
    mismatches (empty when the shims saw every call)."""
    problems = []
    expected_router = sum(1 + step.action.retry_count for step in episode.steps)
    if episode.terminal.status == "AbortedParseFailure":
        expected_router += parse_retries + 1
    if summary["calls"]["router"] != expected_router:
        problems.append(f"router spans {summary['calls']['router']} != {expected_router} from the trace")
    observed = sum(1 for step in episode.steps if step.observation is not None)
    if summary["invokes"] != observed:
        problems.append(f"executor spans {summary['invokes']} != {observed} observations")
    if summary["calls"]["other"]:
        problems.append(f"{summary['calls']['other']} provider spans outside router, state and merge spans")
    return problems
