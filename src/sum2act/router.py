"""Action proposal stage: build the router prompt, invoke the provider, and
parse the output into an Action; optionally prepend a one-shot task
decomposition.

The output contract is one JSON object with keys ``thought``, ``action`` and
``args``; ``action`` is either a tool name or the reserved ``Finish``, whose
args carry the final answer under ``Answer``. Tool arguments are not
schema-validated here; the executor validates them so schema mistakes land in
the failure history instead of crashing the proposal."""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

from .core import Action, Instruction, State, normalize_arg_value
from .errors import ConfigurationError, MalformedOutput, ScriptError
from .parsing import ask_json, extract_first_json_object, fill_template
from .state_manager import render_state
from .templates_loader import load_template

logger = logging.getLogger(__name__)

ROUTER_RULES = """\
- Propose exactly one action per reply.
- Never repeat a (tool, arguments) combination listed in the failure history;
  change the tool or the arguments instead.
- Use only the tools listed above. When the task is complete, use the special
  action "Finish" and put the final answer in args under the key "Answer".
- Reply with exactly one JSON object and nothing else:
  {"thought": "<brief reasoning>", "action": "<tool name or Finish>", "args": {"<param>": "<value>"}}"""


@dataclass(frozen=True)
class Task:
    """A decomposed target task with optional subtasks, attached to router
    prompts as guidance."""

    target: str
    subtasks: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.target:
            raise ConfigurationError("task target must be non-empty")


def render_tools_block(tools) -> str:
    """The tool list as every prompt shows it; fixed for an episode, so the
    engine renders it once per episode and passes the text on."""
    lines = []
    for tool in tools:
        lines.append(f"- {tool.name}: {tool.description}")
        for param in tool.params:
            required = "required" if param.required else "optional"
            suffix = f": {param.description}" if param.description else ""
            lines.append(f"    {param.name} ({param.type_tag}, {required}){suffix}")
    return "\n".join(lines)


def _instruction_block(instruction: Instruction, decomposition: Task | None) -> str:
    if decomposition is None:
        return instruction.text
    lines = [instruction.text, f"Target task: {decomposition.target}"]
    for index, subtask in enumerate(decomposition.subtasks, 1):
        lines.append(f"  {index}. {subtask}")
    return "\n".join(lines)


def build_router_prompt(
    instruction: Instruction,
    state: State,
    tools_block: str,
    decomposition: Task | None = None,
    templates_dir: str | None = None,
) -> str:
    """Deterministic prompt text from the instruction, the rendered tools
    block (``render_tools_block``), the rules and the state; every failure
    history entry is rendered, none omitted."""
    if not tools_block:
        raise ConfigurationError("router prompt requires a non-empty tool list")
    return fill_template(
        load_template("router", templates_dir),
        instruction=_instruction_block(instruction, decomposition),
        state=render_state(state),
        tools=tools_block,
        rules=ROUTER_RULES,
    )


def parse_action(model_output: str) -> Action:
    """Extract the first well-formed action object, tolerating surrounding
    prose. Raises MalformedOutput when nothing usable is found."""
    obj = extract_first_json_object(model_output, required_key="action")
    if obj is None:
        raise MalformedOutput("no action object found in model output")
    action_name = obj.get("action")
    if not isinstance(action_name, str) or not action_name:
        raise MalformedOutput("'action' must be a non-empty string")
    args = obj.get("args", {})
    if args is None:
        args = {}
    if not isinstance(args, dict):
        raise MalformedOutput("'args' must be a map")
    args = {str(key): normalize_arg_value(value) for key, value in args.items()}
    thought = obj.get("thought")
    if thought is not None:
        thought = str(thought)

    if action_name == "Finish":
        if "Answer" not in args:
            raise MalformedOutput("Finish action is missing the 'Answer' arg")
        answer = str(args["Answer"])
        if not answer:
            raise MalformedOutput("Finish answer must be non-empty")
        args["Answer"] = answer
        return Action(kind="Finish", args=args, thought=thought)
    return Action(kind="ToolCall", tool_name=action_name, args=args, thought=thought)


def _parse_task(output: str) -> Task:
    obj = extract_first_json_object(output, required_key="target")
    if obj is not None:
        target = obj.get("target")
        subtasks = obj.get("subtasks", [])
        if (
            isinstance(target, str)
            and target
            and isinstance(subtasks, list)
            and all(isinstance(s, str) for s in subtasks)
        ):
            return Task(target=target, subtasks=tuple(subtasks))
    raise MalformedOutput(f"no task object in output: {output[:120]!r}")


_REASK = (
    "\n\nYour previous reply could not be parsed: {error}. Reply with "
    'exactly one JSON object with the keys "thought", "action" and "args".'
)


def propose_from_prompt(provider, prompt_text: str) -> Action:
    """Run one proposal round-trip with corrective re-asks on parse failures;
    provider errors escape. The returned action records how many re-asks
    were needed."""
    action, attempt = ask_json(provider, prompt_text, parse_action, _REASK)
    # parse_action leaves retry_count at 0, so the happy path needs no copy.
    return action if attempt == 0 else replace(action, retry_count=attempt)


def propose(
    provider,
    instruction: Instruction,
    state: State,
    tools_block: str,
    decomposition: Task | None = None,
    templates_dir: str | None = None,
) -> Action:
    prompt = build_router_prompt(instruction, state, tools_block, decomposition, templates_dir)
    return propose_from_prompt(provider, prompt)


def decompose(
    provider, instruction: Instruction, tools_block: str, templates_dir: str | None = None
) -> Task | None:
    """One-shot task decomposition, run before the loop, over the rendered
    tools block. Output that stays unparseable, or a scripted policy with no
    reply for the prompt, is logged and the episode proceeds without
    guidance."""
    if not tools_block:
        raise ConfigurationError("decomposition requires a non-empty tool list")
    prompt = fill_template(
        load_template("decompose", templates_dir),
        instruction=instruction.text,
        tools=tools_block,
    )
    try:
        task, _ = ask_json(provider, prompt, _parse_task, _REASK, swallow=(ScriptError,))
    except MalformedOutput as exc:
        logger.warning("task decomposition failed, continuing without it: %s", exc)
        return None
    return task
