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

Neither transcript takes an entry equal to its last one: a step that repeats
the one before it word for word (thought, action, args and observation) tells
the model nothing new.

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
    args_digest,
    canonical_args,
    tool_names,
)
from .errors import ConfigurationError, MalformedOutput
from .parsing import REASK_RETRIES, TEMPLATES, fill_template
from .router import ROUTER_RULES, propose, propose_from_prompt, render_tools_block
from .state_manager import enforce_cap, render_observation, update

SUM2ACT_STEP_BUDGET = 30
DFSDT_STEP_BUDGET = 200
# dfsdt tries at most this many tool calls from one search node.
DFSDT_MAX_CHILDREN = 3
# react keeps at most this many transcript chars; the oldest entries go first.
REACT_WINDOW_CHARS = 4096
RESTART_ACTION = "Restart"

DFSDT_RULES = ROUTER_RULES + (
    '\n- If this branch looks hopeless, reply with the special action '
    '"Restart" and empty args to abandon it.'
)


@dataclass(frozen=True)
class EngineConfig:
    step_budget: int = SUM2ACT_STEP_BUDGET
    # Re-asks per structured reply; fixed, readable to count provider calls.
    parse_retries: ClassVar[int] = REASK_RETRIES

    def __post_init__(self):
        if self.step_budget < 1:
            raise ConfigurationError("step_budget must be >= 1")


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


def _repeats_last(transcript, entry: str) -> bool:
    """Whether ``entry`` repeats the transcript's last entry."""
    return bool(transcript) and transcript[-1] == entry


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
    executor: Callable[[str, dict], Observation]
    state: State = State()

    def _propose(self, name: str, transcript, rules: str, **blocks: str) -> Action:
        prompt = fill_template(
            TEMPLATES[name],
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
    held under its length cap. Its calls go through ``replies`` (each
    distinct prompt sent once per episode); a repeated result gets its
    parsed verdict from ``verdicts`` with no prompt, and adds an entry only
    if its text left the state. Router calls go to the provider, as the
    trace counts each one.

    A call that a tool answered (status Success) with a result the state
    manager judged a Failure joins ``refused`` as (tool name, args digest),
    and the router is re-asked whenever it proposes that call again: the
    tool is taken to answer one call the same way every time. A call that
    raised an error, timed out or returned a malformed response is never
    refused, so it can be retried."""

    replies: _Replies = field(init=False)
    verdicts: dict = field(init=False, default_factory=dict)
    refused: set = field(init=False, default_factory=set)

    def __post_init__(self):
        self.replies = _Replies(self.provider)

    def propose(self) -> Action:
        return propose(self.provider, self.instruction, self.state, self.tools_block, self.refused)

    def record(self, action: Action, step_index: int) -> Step:
        observation = self.executor(action.tool_name, action.args)
        state = update(self.replies, self.instruction, self.state, observation, step_index, self.verdicts)
        if observation.status == "Success" and self._judged_failure(observation, state):
            self.refused.add((action.tool_name, args_digest(action.args)))
        self.state = enforce_cap(state, provider=self.replies)
        return Step(action, observation, self.state)

    def _judged_failure(self, observation: Observation, state: State) -> bool:
        """Whether ``update``, turning ``self.state`` into ``state``, gave
        ``observation`` a parsed Failure verdict. A verdict that added a
        result is a Success, so only a step that added none looks it up:
        ``verdicts`` holds it under the call's args digest exactly when
        ``update`` parsed or reused it, and a mechanical verdict on a
        Success is a Success."""
        if len(state.current_results) > len(self.state.current_results):
            return False
        args, judged = self.verdicts.get(render_observation(observation), (None, None))
        return (
            judged is not None and judged[0] == "Failure"
            and args_digest(args) == args_digest(observation.args_echo)
        )


@dataclass
class Window(Memory):
    """react: a raw transcript with whole-entry eviction once the window
    overflows. A step equal to the last entry adds none; one whose entry
    was evicted is added again."""

    transcript: list[str] = field(default_factory=list)

    def propose(self) -> Action:
        _evict_oldest(self.transcript, REACT_WINDOW_CHARS)
        return self._propose("react", self.transcript, ROUTER_RULES)

    def record(self, action: Action, step_index: int) -> Step:
        observation = self.executor(action.tool_name, action.args)
        entry = _transcript_entry(action, observation)
        if not _repeats_last(self.transcript, entry):
            self.transcript.append(entry)
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
    against the node's ``DFSDT_MAX_CHILDREN`` and only the attempted action
    name is carried to the next sibling attempt. A Success makes a child
    node, unless its entry equals the branch's last entry: that child would
    hold its parent's memory and, under a provider that answers one prompt
    one way, replay the parent's subtree, so it is not made and the attempt
    counts like a failed one. A node whose children are spent is left for
    its parent. The reserved action ``Restart`` abandons the current branch.
    Leaving the root exhausts the tree, so one call proposed at every node
    and returning one Success payload forever ends the search after
    ``DFSDT_MAX_CHILDREN * (DFSDT_MAX_CHILDREN + 1)`` steps.
    """

    node: SearchNode | None = field(default_factory=lambda: SearchNode(memory=()))

    def propose(self) -> Action | None:
        while self.node is not None and len(self.node.attempted) >= DFSDT_MAX_CHILDREN:
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
            entry = _transcript_entry(action, observation)
            if not _repeats_last(node.memory, entry):
                self.node = SearchNode(node.memory + (entry,), node)
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


def default_config(method: str, step_budget: int | None = None) -> EngineConfig:
    """``method``'s config: ``step_budget`` when given, else its default budget."""
    return EngineConfig(_method(method)[1] if step_budget is None else step_budget)


def run_episode(method: str, provider, instruction: Instruction, tools, config: EngineConfig, executor) -> Episode:
    """Run one episode with ``method``'s memory; it terminates Finished,
    BudgetExhausted or AbortedParseFailure within ``step_budget`` steps. An
    empty tool list, or one naming a tool twice, raises before any provider
    call."""
    memory_type, _ = _method(method)
    tool_names(tools)
    memory = memory_type(provider, instruction, render_tools_block(tools), executor)
    steps: list[Step] = []
    terminal = Terminal("BudgetExhausted")
    while len(steps) < config.step_budget:
        try:
            action = memory.propose()
        except MalformedOutput:
            terminal = Terminal("AbortedParseFailure")
            break
        if action is None:
            break
        if action.kind == "Finish":
            steps.append(Step(action, None, memory.state))
            terminal = Terminal("Finished", action.answer)
            break
        steps.append(memory.record(action, len(steps) + 1))
    return Episode(instruction, tuple(tools), tuple(steps), terminal, method, config.step_budget)
