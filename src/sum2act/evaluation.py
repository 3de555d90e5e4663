"""Pass-rate and pairwise win-rate computation with tie-splitting, the two
judges' verdicts, and the report table's rate rows.

Rounding policy: internal arithmetic stays full precision; half-up rounding
to one decimal happens at presentation (and in ``pass_rate``, which is a
reported value by contract). ``win_rate`` splits ties evenly, so side A's rate
over any outcomes and over the same outcomes with the sides swapped sum to
exactly 100.
"""

from __future__ import annotations

import logging
from decimal import ROUND_HALF_UP, Decimal

from .core import Episode
from .errors import ConfigurationError, MalformedOutput
from .parsing import ask_json, extract_first_json_object

logger = logging.getLogger(__name__)

_JUDGE_PROMPT = """\
You compare two solution paths for the same user instruction and pick the
better one, weighing total execution steps, the quality of the final answer,
and the diversity of tools used.

## Instruction
{instruction}

## Path A ({label_a})
{summary_a}

## Path B ({label_b})
{summary_b}

## Rules
- Reply with exactly one JSON object and nothing else:
  {{"winner": "A" | "B" | "Tie", "rationale": "<one sentence>"}}
"""


def round_half_up(*values: float) -> float:
    """Round the mean of ``values`` to one decimal place, halves away from zero.
    Each value's repr is summed in decimal: a float sum can cross a half."""
    mean = sum(Decimal(repr(value)) for value in values) / len(values)
    return float(mean.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def pass_rate(passed: list[bool]) -> float:
    """Percentage of passing episodes, given each one's pass flag, reported
    to one decimal."""
    if not passed:
        raise ConfigurationError("pass rate requires at least one episode")
    return round_half_up(100.0 * sum(passed) / len(passed))


def win_rate(outcomes: list[str]) -> float:
    """Side A's tie-split win rate over judgment outcomes (``AWins``,
    ``BWins`` or ``Tie``): 50 * (2 * AWins + Ties) / n, full precision."""
    if not outcomes:
        raise ConfigurationError("win rate requires at least one judgment")
    return 50.0 * (2 * outcomes.count("AWins") + outcomes.count("Tie")) / len(outcomes)


def side_labels(label_a: str, label_b: str) -> tuple[str, str]:
    """The two sides' report labels. Self-comparison is legal and must land
    on all ties, so coinciding method labels are qualified by side."""
    if label_a == label_b:
        return f"{label_a}:a", f"{label_b}:b"
    return label_a, label_b


def rule_verdict(passed, episode_a: Episode, episode_b: Episode) -> tuple[str, str]:
    """The deterministic judge's ``(outcome, rationale)``, given ``passed``,
    an episode's pass check: a passing path beats a failing one; between two
    passing paths the shorter one wins; everything else ties."""
    pass_a = passed(episode_a)
    pass_b = passed(episode_b)
    if pass_a and pass_b:
        if len(episode_a.steps) < len(episode_b.steps):
            return "AWins", "both pass; A used fewer steps"
        if len(episode_b.steps) < len(episode_a.steps):
            return "BWins", "both pass; B used fewer steps"
        return "Tie", "both pass with equal steps"
    if pass_a:
        return "AWins", "only A passed"
    if pass_b:
        return "BWins", "only B passed"
    return "Tie", "neither passed"


def _episode_summary(episode: Episode) -> str:
    tools_used = sorted({s.action.tool_name for s in episode.steps if s.action.kind == "ToolCall"})
    answer = episode.terminal.answer
    return (
        f"terminal: {episode.terminal.status}\n"
        f"final answer: {answer if answer is not None else '(none)'}\n"
        f"steps used: {len(episode.steps)}\n"
        f"distinct tools used: {', '.join(tools_used) if tools_used else '(none)'}"
    )


_JUDGE_REASK = (
    "\n\nYour previous reply could not be parsed: {error}. "
    'Reply with exactly one JSON object holding "winner".'
)


def _parse_judgment(output: str) -> tuple[str, str]:
    obj = extract_first_json_object(output, required_key="winner")
    winner = obj.get("winner") if obj else None
    if winner not in ("A", "B", "Tie"):
        raise MalformedOutput(f"no winner in judge output: {output[:120]!r}")
    outcome = {"A": "AWins", "B": "BWins", "Tie": "Tie"}[winner]
    return outcome, str(obj.get("rationale", ""))


def llm_verdict(
    provider, episode_a: Episode, episode_b: Episode, label_a: str, label_b: str
) -> tuple[str, str]:
    """The provider-backed judge's ``(outcome, rationale)``, with each path
    shown under its side's method label; unparseable verdicts are re-asked and
    then degrade to a logged tie. Provider errors escape."""
    prompt = _JUDGE_PROMPT.format(
        instruction=episode_a.instruction.text,
        label_a=label_a,
        summary_a=_episode_summary(episode_a),
        label_b=label_b,
        summary_b=_episode_summary(episode_b),
    )
    try:
        return ask_json(provider, prompt, _parse_judgment, _JUDGE_REASK)[0]
    except MalformedOutput as exc:
        logger.warning("judge output unparseable, recording a tie: %s", exc)
        return "Tie", "judge output unparseable; recorded as tie"


# ---------------------------------------------------------------------------
# Report tables
# ---------------------------------------------------------------------------


def rate_row(label: str, rates: list[float]) -> list[str]:
    """A report row: ``label``, each subset's rate and their unweighted mean
    (the Average cell), each rounded half-up to one decimal."""
    cells = [round_half_up(rate) for rate in rates] + [round_half_up(*rates)]
    return [label] + [f"{cell:.1f}" for cell in cells]


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def fmt(cells: list[str]) -> str:
        parts = [cells[0].ljust(widths[0])]
        parts += [cell.rjust(width) for cell, width in zip(cells[1:], widths[1:])]
        return "  ".join(parts).rstrip()

    return "\n".join([fmt(headers)] + [fmt(row) for row in rows])
