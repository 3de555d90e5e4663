"""Hypothesis strategies producing valid random episodes."""

from __future__ import annotations

from hypothesis import strategies as st

from sum2act.core import (
    Action,
    Episode,
    FailureEntry,
    Instruction,
    Observation,
    ResultEntry,
    State,
    Step,
    Terminal,
    ToolSpec,
    args_digest,
)

# Lone surrogates do not survive a UTF-8 write, so keep them out of payloads.
safe_text = st.text(st.characters(exclude_categories=("Cs",)), max_size=30)
arg_values = st.one_of(safe_text, st.integers(-5, 5), st.booleans())
arg_maps = st.dictionaries(st.sampled_from(["a", "b", "c"]), arg_values, max_size=2)


@st.composite
def episodes(draw) -> Episode:
    tool_count = draw(st.integers(1, 3))
    tools = tuple(
        ToolSpec(name=f"tool_{i}", description=f"test tool number {i}")
        for i in range(tool_count)
    )
    instruction = Instruction(
        id=draw(st.uuids()).hex,
        text=draw(safe_text.filter(bool)),
        subset_label=draw(st.one_of(st.none(), st.sampled_from(["s1", "s2"]))),
    )
    budget = draw(st.integers(1, 12))
    step_count = draw(st.integers(0, budget))
    ends_with_finish = step_count >= 1 and draw(st.booleans())

    results: list[ResultEntry] = []
    failures: list[FailureEntry] = []
    steps: list[Step] = []
    for index in range(1, step_count + 1):
        if index == step_count and ends_with_finish:
            action = Action(
                kind="Finish",
                args={"Answer": draw(safe_text)},
                thought=draw(st.one_of(st.none(), safe_text)),
            )
            steps.append(Step(action, None, State(tuple(results), tuple(failures))))
            break
        tool = draw(st.sampled_from(tools))
        args = draw(arg_maps)
        action = Action(kind="ToolCall", tool_name=tool.name, args=args)
        if draw(st.booleans()):
            observation = Observation(
                status="Success", payload=draw(safe_text),
                tool_name=tool.name, args_echo=args,
            )
            results.append(ResultEntry(text=draw(safe_text), step=index))
        else:
            observation = Observation(
                status=draw(st.sampled_from(["ToolError", "Timeout", "MalformedResponse"])),
                payload="", tool_name=tool.name, args_echo=args,
                error="error: " + draw(safe_text),
            )
            digest = args_digest(args)
            if not any(
                f.tool == tool.name and f.digest == digest for f in failures
            ):
                failures.append(
                    FailureEntry(
                        tool=tool.name, digest=digest,
                        reason="failed: " + draw(safe_text), step=index,
                    )
                )
        steps.append(Step(action, observation, State(tuple(results), tuple(failures))))

    if ends_with_finish:
        terminal = Terminal("Finished", steps[-1].action.answer)
    else:
        terminal = draw(
            st.sampled_from([Terminal("BudgetExhausted"), Terminal("AbortedParseFailure")])
        )
    return Episode(
        instruction=instruction,
        tools=tools,
        steps=tuple(steps),
        terminal=terminal,
        method_label=draw(st.sampled_from(["sum2act", "react", "dfsdt"])),
        step_budget=budget,
    )
