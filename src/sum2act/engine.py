"""The episode loop and the memories it runs with.

``run_episode`` iterates proposal -> execution -> record. The methods differ
only in what they carry from one step to the next:

- ``Summary`` (sum2act) keeps the summarized state, rendered into every
  router prompt;
- ``Window`` (react) keeps a raw append-only transcript, dropping the oldest
  entries whole once it exceeds the memory window;
- ``Tree`` (dfsdt) searches depth-first: a failed branch is abandoned and its
  observation is not carried to sibling branches (only the attempted action
  names are), which is exactly the information loss the summarized state
  avoids.

Agent-level failures (unparseable proposals, tool errors, exhausted budgets)
become terminal episode states; infrastructure failures (provider
unreachable, scripted-policy holes) raise.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import ClassVar

from .core import (
    Action,
    Episode,
    Instruction,
    Observation,
    State,
    Step,
    Terminal,
    canonical_args,
    new_episode,
)
from .errors import ConfigurationError, MalformedOutput
from .parsing import REASK_RETRIES, fill_template, load_templates
from .router import ROUTER_RULES, propose, propose_from_prompt, render_tools_block
from .state_manager import OBSERVATION_WINDOW_CHARS, STATE_CAP_CHARS, enforce_cap, update

SUM2ACT_STEP_BUDGET = 30
DFSDT_STEP_BUDGET = 200
RESTART_ACTION = "Restart"

DFSDT_RULES = ROUTER_RULES + (
    '\n- If this branch looks hopeless, reply with the special action '
    '"Restart" and empty args to abandon it.'
)


@dataclass(frozen=True)
class EngineConfig:
    step_budget: int = SUM2ACT_STEP_BUDGET
    state_cap_chars: int = STATE_CAP_CHARS
    observation_window_chars: int = OBSERVATION_WINDOW_CHARS
    react_memory_window_chars: int = 4096
    dfsdt_max_children: int = 3
    templates_dir: str | None = None
    # Each template's text by name, read from templates_dir when built.
    templates: dict[str, str] = field(init=False, repr=False, compare=False)
    # Re-asks per structured reply; fixed, readable to count provider calls.
    parse_retries: ClassVar[int] = REASK_RETRIES

    def __post_init__(self):
        if self.step_budget < 1:
            raise ConfigurationError("step_budget must be >= 1")
        for name in ("state_cap_chars", "observation_window_chars", "react_memory_window_chars"):
            if getattr(self, name) < 512:
                raise ConfigurationError(f"{name} must be >= 512")
        if self.dfsdt_max_children < 1:
            raise ConfigurationError("dfsdt_max_children must be >= 1")
        object.__setattr__(self, "templates", load_templates(self.templates_dir))


def _transcript_entry(action: Action, observation: Observation) -> str:
    if observation.status == "Success":
        seen = f"Observation[Success]: {observation.payload}"
    else:
        seen = f"Observation[{observation.status}]: {observation.error}"
    return "\n".join((
        f"Thought: {action.thought or '(none)'}",
        f"Action: {action.tool_name}({canonical_args(action.args)})",
        seen,
    ))


def _evict_oldest(transcript: list[str], window_chars: int) -> None:
    # Length of the entries joined by blank lines, kept as entries go.
    total = sum(len(entry) for entry in transcript) + 2 * max(0, len(transcript) - 1)
    while transcript and total > window_chars:
        total -= len(transcript.pop(0)) + 2


@dataclass
class Memory:
    """What a method carries between steps. ``propose`` returns the next
    action, or None once nothing is left to try; ``record`` runs a proposed
    tool call and returns its step; ``state`` is the summarized state every
    step stores (empty except for sum2act). ``tools_block`` is the episode's
    tool list as every prompt shows it, rendered once."""

    provider: object
    instruction: Instruction
    tools_block: str
    config: EngineConfig
    executor: Callable[[str, dict], Observation]
    state: State = State.empty()

    def _propose(self, name: str, transcript, rules: str, **blocks: str) -> Action:
        prompt = fill_template(
            self.config.templates[name],
            instruction=self.instruction.text,
            tools=self.tools_block,
            transcript="\n\n".join(transcript) if transcript else "(empty)",
            rules=rules,
            **blocks,
        )
        return propose_from_prompt(self.provider, prompt)


class _Replies:
    """The provider as the state manager sees it in one episode: a prompt
    already answered gets the stored reply, with no new call. Both providers
    answer one prompt one way (scripted by construction, live at temperature
    0). A call that raises stores nothing."""

    def __init__(self, provider):
        self._provider = provider
        self._replies: dict[str, str] = {}

    def complete(self, request) -> str:
        reply = self._replies.get(request.prompt)
        if reply is None:
            reply = self._replies[request.prompt] = self._provider.complete(request)
        return reply


@dataclass
class Summary(Memory):
    """sum2act: the state manager judges each observation into the state,
    which is then held under its length cap. Its calls go through
    ``replies``, so it sends each distinct prompt once per episode; router
    calls go to the provider, as the trace counts each one."""

    replies: _Replies = field(init=False)

    def __post_init__(self):
        self.replies = _Replies(self.provider)

    def propose(self) -> Action:
        return propose(
            self.provider, self.config.templates["router"], self.instruction, self.state,
            self.tools_block,
        )

    def record(self, action: Action, step_index: int) -> Step:
        config = self.config
        observation = self.executor(action.tool_name, action.args)
        state = update(
            self.replies, config.templates["state"], self.instruction, self.state, observation,
            step_index=step_index,
            window=config.observation_window_chars,
        )
        self.state = enforce_cap(state, config.state_cap_chars, provider=self.replies)
        return Step(action, observation, self.state)


@dataclass
class Window(Memory):
    """react: a raw transcript with whole-entry eviction once the window
    overflows."""

    transcript: list[str] = field(default_factory=list)

    def propose(self) -> Action:
        _evict_oldest(self.transcript, self.config.react_memory_window_chars)
        return self._propose("react", self.transcript, ROUTER_RULES)

    def record(self, action: Action, step_index: int) -> Step:
        observation = self.executor(action.tool_name, action.args)
        self.transcript.append(_transcript_entry(action, observation))
        return Step(action, observation, self.state)


@dataclass
class SearchNode:
    """One node of the depth-first search; ``memory`` is the transcript along
    this branch only."""

    memory: tuple[str, ...]
    parent: SearchNode | None = None
    attempted: tuple[str, ...] = ()


@dataclass
class Tree(Memory):
    """dfsdt: depth-first search over proposals.

    A non-Success observation fails the attempted child: the proposal counts
    against the node's child budget and only the attempted action name is
    carried to the next sibling attempt. A node whose child budget is spent
    is left for its parent. The reserved action ``Restart`` abandons the
    current branch. Leaving the root exhausts the tree.
    """

    node: SearchNode | None = field(default_factory=lambda: SearchNode(memory=()))

    def propose(self) -> Action | None:
        while self.node is not None and len(self.node.attempted) >= self.config.dfsdt_max_children:
            self.node = self.node.parent
        if self.node is None:
            return None
        node = self.node
        return self._propose(
            "dfsdt", node.memory, DFSDT_RULES,
            attempted=", ".join(node.attempted) if node.attempted else "(none)",
        )

    def record(self, action: Action, step_index: int) -> Step:
        node = self.node
        if action.tool_name == RESTART_ACTION:
            self.node = node.parent
            return Step(action, None, self.state)
        observation = self.executor(action.tool_name, action.args)
        node.attempted += (action.tool_name,)
        if observation.status == "Success":
            self.node = SearchNode(node.memory + (_transcript_entry(action, observation),), node)
        return Step(action, observation, self.state)


# method label: (memory, default step budget)
METHODS = {
    "sum2act": (Summary, SUM2ACT_STEP_BUDGET),
    "react": (Window, SUM2ACT_STEP_BUDGET),
    "dfsdt": (Tree, DFSDT_STEP_BUDGET),
}
METHOD_LABELS = tuple(METHODS)


def _method(method: str) -> tuple[type[Memory], int]:
    if method not in METHOD_LABELS:
        raise ConfigurationError(
            f"unknown method {method!r}; expected one of {', '.join(METHOD_LABELS)}"
        )
    return METHODS[method]


def default_config(method: str) -> EngineConfig:
    return EngineConfig(step_budget=_method(method)[1])


def run_episode(method: str, provider, instruction: Instruction, tools, config: EngineConfig, executor) -> Episode:
    """Run one episode with ``method``'s memory; it terminates Finished,
    BudgetExhausted or AbortedParseFailure within ``step_budget`` steps."""
    memory_type, _ = _method(method)
    episode = new_episode(instruction, tools, config.step_budget, method)
    memory = memory_type(provider, instruction, render_tools_block(tools), config, executor)
    while len(episode.steps) < config.step_budget:
        try:
            action = memory.propose()
        except MalformedOutput:
            return episode.with_terminal(Terminal.aborted_parse_failure())
        if action is None:
            break
        if action.kind == "Finish":
            episode = episode.with_step(Step(action, None, memory.state))
            return episode.with_terminal(Terminal.finished(action.answer))
        episode = episode.with_step(memory.record(action, len(episode.steps) + 1))
    return episode.with_terminal(Terminal.budget_exhausted())
