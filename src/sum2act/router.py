"""Action proposal stage: build the router prompt, invoke the provider, and
parse the output into an Action.

The output contract is one JSON object with keys ``thought``, ``action`` and
``args``; ``action`` is either a tool name or the reserved ``Finish``, whose
args carry the final answer under ``Answer``. Tool arguments are not
schema-validated here; the executor validates them so schema mistakes land in
the failure history instead of crashing the proposal."""

from __future__ import annotations

from dataclasses import replace

from .core import Action, Instruction, State, normalize_arg_value
from .errors import MalformedOutput
from .parsing import TEMPLATES, ask_json, extract_first_json_object, fill_template
from .state_manager import render_state

ROUTER_RULES = """\
- Propose exactly one action per reply.
- Never repeat a (tool, arguments) combination listed in the failure history;
  change the tool or the arguments instead.
- Use only the tools listed above. When the task is complete, use the special
  action "Finish" and put the final answer in args under the key "Answer".
- Reply with exactly one JSON object and nothing else:
  {"thought": "<brief reasoning>", "action": "<tool name or Finish>", "args": {"<param>": "<value>"}}"""


def render_tools_block(tools) -> str:
    """The tool list as every prompt shows it; fixed for an episode, so the
    engine renders it once per episode and passes the text on."""
    lines = []
    for tool in tools:
        lines.append(f"- {tool.name}: {tool.description}")
        for param in tool.params:
            required = "required" if param.required else "optional"
            suffix = f": {param.description}" if param.description else ""
            lines.append(f"    {param.name} ({param.type}, {required}){suffix}")
    return "\n".join(lines)


def build_router_prompt(instruction: Instruction, state: State, tools_block: str) -> str:
    """Deterministic prompt text: the router template filled with the
    instruction, the rendered tools block (``render_tools_block``), the rules
    and the state; every failure history entry is rendered, none omitted."""
    return fill_template(
        TEMPLATES["router"],
        instruction=instruction.text,
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


def propose(provider, instruction: Instruction, state: State, tools_block: str) -> Action:
    prompt = build_router_prompt(instruction, state, tools_block)
    return propose_from_prompt(provider, prompt)

