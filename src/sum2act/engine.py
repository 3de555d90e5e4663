"""The outer loops.

``run_sum2act`` iterates proposal -> execution -> state update with the
summarized state rendered into every router prompt. ``run_react`` keeps a raw
append-only transcript instead, dropping the oldest entries whole once it
exceeds the memory window. ``run_dfsdt`` searches depth-first: a failed
branch is abandoned and its observation is not carried to sibling branches
(only the attempted action names are), which is exactly the information loss
the summarized state avoids.

Agent-level failures (unparseable proposals, tool errors, exhausted budgets)
become terminal episode states; infrastructure failures (provider
unreachable, scripted-policy holes) raise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Action,
    Episode,
    Instruction,
    Observation,
    State,
    Step,
    Terminal,
    ToolSpec,
    canonical_args,
    new_episode,
)
from .errors import ConfigurationError, MalformedOutput
from .parsing import REASK_RETRIES, fill_template
from .router import ROUTER_RULES, decompose, propose, propose_from_prompt, render_tools_block
from .state_manager import enforce_cap, update
from .templates_loader import load_template

SUM2ACT_STEP_BUDGET = 30
DFSDT_STEP_BUDGET = 200
RESTART_ACTION = "Restart"

METHOD_LABELS = ("sum2act", "react", "dfsdt")

DFSDT_RULES = ROUTER_RULES + (
    '\n- If this branch looks hopeless, reply with the special action '
    '"Restart" and empty args to abandon it.'
)


@dataclass(frozen=True)
class EngineConfig:
    step_budget: int = SUM2ACT_STEP_BUDGET
    state_cap_chars: int = 4096
    observation_window_chars: int = 4096
    use_decomposition: bool = False
    react_memory_window_chars: int = 4096
    dfsdt_max_children: int = 3
    parse_retries: int = REASK_RETRIES
    templates_dir: str | None = None

    def __post_init__(self):
        if self.step_budget < 1:
            raise ConfigurationError("step_budget must be >= 1")
        for name in ("state_cap_chars", "observation_window_chars", "react_memory_window_chars"):
            if getattr(self, name) < 512:
                raise ConfigurationError(f"{name} must be >= 512")
        if self.dfsdt_max_children < 1:
            raise ConfigurationError("dfsdt_max_children must be >= 1")


def default_config(method: str) -> EngineConfig:
    if method == "dfsdt":
        return EngineConfig(step_budget=DFSDT_STEP_BUDGET)
    return EngineConfig(step_budget=SUM2ACT_STEP_BUDGET)


@dataclass
class SearchNode:
    """One node of the depth-first search; ``memory`` is the transcript along
    this branch only."""

    memory: tuple[str, ...]
    depth: int
    parent: SearchNode | None = None
    children_tried: int = 0
    attempted: tuple[str, ...] = ()


def _transcript_entry(action: Action, observation: Observation | None) -> str:
    lines = [
        f"Thought: {action.thought or '(none)'}",
        f"Action: {action.tool_name}({canonical_args(action.args)})",
    ]
    if observation is None:
        lines.append("Observation: (none)")
    elif observation.status == "Success":
        lines.append(f"Observation[Success]: {observation.payload}")
    else:
        lines.append(f"Observation[{observation.status}]: {observation.error}")
    return "\n".join(lines)


def run_sum2act(provider, instruction: Instruction, tools, config: EngineConfig, executor) -> Episode:
    """Proposal/summarization loop; terminates Finished, BudgetExhausted or
    AbortedParseFailure within ``step_budget`` proposals."""
    episode = new_episode(instruction, tools, config.step_budget, "sum2act")
    decomposition = None
    if config.use_decomposition:
        decomposition = decompose(
            provider, instruction, tools,
            retries=config.parse_retries, templates_dir=config.templates_dir,
        )
    state = State.empty()
    while len(episode.steps) < config.step_budget:
        try:
            action = propose(
                provider, instruction, state, tools, decomposition,
                retries=config.parse_retries, templates_dir=config.templates_dir,
            )
        except MalformedOutput:
            return episode.with_terminal(Terminal.aborted_parse_failure())
        if action.kind == "Finish":
            episode = episode.with_step(Step(action, None, state))
            return episode.with_terminal(Terminal.finished(action.answer))
        observation = executor(action.tool_name, action.args)
        state = update(
            provider, instruction, state, observation,
            step_index=len(episode.steps) + 1,
            window=config.observation_window_chars,
            retries=config.parse_retries,
            templates_dir=config.templates_dir,
        )
        state = enforce_cap(
            state, config.state_cap_chars,
            provider=provider, templates_dir=config.templates_dir,
        )
        episode = episode.with_step(Step(action, observation, state))
    return episode.with_terminal(Terminal.budget_exhausted())


def _evict_oldest(transcript: list[str], window_chars: int) -> None:
    # Length of the entries joined by blank lines, kept as entries go.
    total = sum(len(entry) for entry in transcript) + 2 * max(0, len(transcript) - 1)
    while transcript and total > window_chars:
        total -= len(transcript.pop(0)) + 2


def _react_prompt(instruction, tools, transcript: list[str], config: EngineConfig) -> str:
    return fill_template(
        load_template("react", config.templates_dir),
        instruction=instruction.text,
        tools=render_tools_block(tools),
        transcript="\n\n".join(transcript) if transcript else "(empty)",
        rules=ROUTER_RULES,
    )


def run_react(provider, instruction: Instruction, tools, config: EngineConfig, executor) -> Episode:
    """Linear baseline: same loop shape, raw transcript memory with
    whole-entry eviction once the window overflows."""
    if not tools:
        raise ConfigurationError("react run requires a non-empty tool list")
    episode = new_episode(instruction, tools, config.step_budget, "react")
    transcript: list[str] = []
    while len(episode.steps) < config.step_budget:
        _evict_oldest(transcript, config.react_memory_window_chars)
        prompt = _react_prompt(instruction, tools, transcript, config)
        try:
            action = propose_from_prompt(provider, prompt, retries=config.parse_retries)
        except MalformedOutput:
            return episode.with_terminal(Terminal.aborted_parse_failure())
        if action.kind == "Finish":
            episode = episode.with_step(Step(action, None, State.empty()))
            return episode.with_terminal(Terminal.finished(action.answer))
        observation = executor(action.tool_name, action.args)
        transcript.append(_transcript_entry(action, observation))
        episode = episode.with_step(Step(action, observation, State.empty()))
    return episode.with_terminal(Terminal.budget_exhausted())


def _dfsdt_prompt(instruction, tools, node: SearchNode, config: EngineConfig) -> str:
    return fill_template(
        load_template("dfsdt", config.templates_dir),
        instruction=instruction.text,
        tools=render_tools_block(tools),
        transcript="\n\n".join(node.memory) if node.memory else "(empty)",
        attempted=", ".join(node.attempted) if node.attempted else "(none)",
        rules=DFSDT_RULES,
    )


def run_dfsdt(provider, instruction: Instruction, tools, config: EngineConfig, executor) -> Episode:
    """Depth-first search over proposals.

    A non-Success observation fails the attempted child: the proposal counts
    against the node's child budget and only the attempted action name is
    carried to the next sibling attempt. The reserved action ``Restart``
    abandons the current branch. The global proposal count is bounded by
    ``step_budget``; an exhausted tree terminates BudgetExhausted.
    """
    if not tools:
        raise ConfigurationError("dfsdt run requires a non-empty tool list")
    episode = new_episode(instruction, tools, config.step_budget, "dfsdt")
    node = SearchNode(memory=(), depth=0)
    while len(episode.steps) < config.step_budget:
        if node.children_tried >= config.dfsdt_max_children:
            if node.parent is None:
                return episode.with_terminal(Terminal.budget_exhausted())
            node = node.parent
            continue
        prompt = _dfsdt_prompt(instruction, tools, node, config)
        try:
            action = propose_from_prompt(provider, prompt, retries=config.parse_retries)
        except MalformedOutput:
            return episode.with_terminal(Terminal.aborted_parse_failure())
        if action.kind == "Finish":
            episode = episode.with_step(Step(action, None, State.empty()))
            return episode.with_terminal(Terminal.finished(action.answer))
        if action.tool_name == RESTART_ACTION:
            episode = episode.with_step(Step(action, None, State.empty()))
            if node.parent is None:
                return episode.with_terminal(Terminal.budget_exhausted())
            node = node.parent
            continue
        observation = executor(action.tool_name, action.args)
        episode = episode.with_step(Step(action, observation, State.empty()))
        node.children_tried += 1
        node.attempted = node.attempted + (action.tool_name,)
        if observation.status == "Success":
            node = SearchNode(
                memory=node.memory + (_transcript_entry(action, observation),),
                depth=node.depth + 1,
                parent=node,
            )
    return episode.with_terminal(Terminal.budget_exhausted())


ENGINES = {
    "sum2act": run_sum2act,
    "react": run_react,
    "dfsdt": run_dfsdt,
}


def run_episode(method: str, provider, instruction, tools, config: EngineConfig, executor) -> Episode:
    if method not in ENGINES:
        raise ConfigurationError(
            f"unknown method {method!r}; expected one of {', '.join(METHOD_LABELS)}"
        )
    return ENGINES[method](provider, instruction, tools, config, executor)
