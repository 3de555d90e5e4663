from __future__ import annotations

import json
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sum2act.core import Action, Episode, Instruction, State, Step, Terminal, ToolSpec
from sum2act.errors import ConfigurationError
from sum2act.evaluation import (
    llm_verdict, pass_rate, rate_row, round_half_up, rule_verdict, side_labels, win_rate,
)
from sum2act.provider import RecordingProvider, ScriptedPolicy, ScriptedProvider

INSTRUCTION = Instruction(id="q1", text="do the thing")
TOOLS = (ToolSpec(name="alpha", description="a"),)


def _episode(method: str, steps: int, finished: bool = True):
    call = Step(Action(kind="ToolCall", tool_name="alpha", args={}), None, State())
    if finished:
        finish = Step(Action(kind="Finish", args={"Answer": "a"}), None, State())
        trail, terminal = (call,) * (steps - 1) + (finish,), Terminal("Finished", "a")
    else:
        trail, terminal = (call,) * steps, Terminal("BudgetExhausted")
    return Episode(INSTRUCTION, TOOLS, trail, terminal, method, max(steps, 1) + 1)


class TestPassRate:
    def test_brute_force_count(self):
        passed = [i < 57 for i in range(100)]
        expected = 100.0 * sum(1 for p in passed if p) / len(passed)
        assert pass_rate(passed) == expected == 57.0

    def test_all_pass(self):
        assert pass_rate([True] * 4) == 100.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            pass_rate([])

    def test_permutation_invariant(self):
        passed = [True, False, True, True, False]
        assert pass_rate(passed) == pass_rate(list(reversed(passed)))


def _outcomes(wins: int, ties: int, losses: int) -> list[str]:
    """Side A's judgment outcomes: ``wins`` AWins, ``ties`` Tie, ``losses`` BWins."""
    return ["AWins"] * wins + ["Tie"] * ties + ["BWins"] * losses


class TestWinRate:
    def test_tie_splitting_arithmetic(self):
        assert win_rate(_outcomes(50, 20, 30)) == 60.0

    def test_all_ties(self):
        assert win_rate(_outcomes(0, 8, 0)) == 50.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            win_rate([])

    @settings(max_examples=300, deadline=None)
    @given(
        wins=st.integers(0, 400), ties=st.integers(0, 400), losses=st.integers(0, 400)
    )
    def test_symmetry_sums_to_exactly_100(self, wins, ties, losses):
        if wins + ties + losses == 0:
            return
        # The same judgments with the sides swapped: each AWins is a BWins.
        assert win_rate(_outcomes(wins, ties, losses)) + win_rate(_outcomes(losses, ties, wins)) == 100.0


class TestRuleJudge:
    def _outcome(self, passes: dict, episode_a, episode_b) -> str:
        return rule_verdict(lambda episode: passes[episode.method_label], episode_a, episode_b)[0]

    def test_fewer_steps_wins_among_passes(self):
        outcome = self._outcome({"fast": True, "slow": True}, _episode("fast", 3), _episode("slow", 7))
        assert outcome == "AWins"

    def test_pass_beats_budget_exhausted(self):
        outcome = self._outcome(
            {"ok": True, "bad": False}, _episode("ok", 3), _episode("bad", 5, finished=False)
        )
        assert outcome == "AWins"

    def test_both_fail_ties(self):
        outcome = self._outcome(
            {"x": False, "y": False}, _episode("x", 3, finished=False), _episode("y", 5, finished=False)
        )
        assert outcome == "Tie"

    def test_equal_steps_tie(self):
        assert self._outcome({"x": True, "y": True}, _episode("x", 4), _episode("y", 4)) == "Tie"

    @settings(max_examples=100, deadline=None)
    @given(
        pass_a=st.booleans(), pass_b=st.booleans(),
        steps_a=st.integers(1, 9), steps_b=st.integers(1, 9),
    )
    def test_antisymmetric(self, pass_a, pass_b, steps_a, steps_b):
        passes = {"x": pass_a, "y": pass_b}
        episode_a = _episode("x", steps_a)
        episode_b = _episode("y", steps_b)
        forward = self._outcome(passes, episode_a, episode_b)
        backward = self._outcome(passes, episode_b, episode_a)
        assert backward == {"AWins": "BWins", "BWins": "AWins", "Tie": "Tie"}[forward]

    def test_self_comparison_gets_distinct_labels(self):
        assert self._outcome({"same": True}, _episode("same", 3), _episode("same", 3)) == "Tie"
        label_a, label_b = side_labels("same", "same")
        assert label_a != label_b
        assert side_labels("x", "y") == ("x", "y")


class TestLlmJudge:
    def test_parses_winner(self):
        provider = ScriptedProvider(
            ScriptedPolicy(default=json.dumps({"winner": "B", "rationale": "cleaner answer"}))
        )
        verdict = llm_verdict(provider, _episode("m1", 2), _episode("m2", 2), "m1", "m2")
        assert verdict == ("BWins", "cleaner answer")

    def test_unparseable_degrades_to_tie(self):
        provider = ScriptedProvider(ScriptedPolicy(default="no verdict here"))
        outcome, _ = llm_verdict(provider, _episode("m1", 2), _episode("m2", 2), "m1", "m2")
        assert outcome == "Tie"

    def test_prompt_shows_each_path_under_its_label(self):
        provider = RecordingProvider(ScriptedProvider(
            ScriptedPolicy(default=json.dumps({"winner": "A", "rationale": "r"}))
        ))
        llm_verdict(provider, _episode("m1", 2), _episode("m2", 3, finished=False), "sum2act", "react")
        assert provider.prompts() == [
            "You compare two solution paths for the same user instruction and pick the\n"
            "better one, weighing total execution steps, the quality of the final answer,\n"
            "and the diversity of tools used.\n\n"
            "## Instruction\ndo the thing\n\n"
            "## Path A (sum2act)\nterminal: Finished\nfinal answer: a\nsteps used: 2\n"
            "distinct tools used: alpha\n\n"
            "## Path B (react)\nterminal: BudgetExhausted\nfinal answer: (none)\n"
            "steps used: 3\ndistinct tools used: alpha\n\n"
            "## Rules\n- Reply with exactly one JSON object and nothing else:\n"
            '  {"winner": "A" | "B" | "Tie", "rationale": "<one sentence>"}\n'
        ]


class TestAggregate:
    # Published-row golden values: the Average cell must be reproduced from
    # its row exactly, to one decimal.
    GOLDEN_PASS_ROWS = [
        ([36.0, 52.0, 40.0, 42.5, 39.0, 37.0], 41.1),
        ([57.0, 63.0, 63.0, 78.0, 69.0, 72.0], 67.0),
        ([71.0, 71.0, 65.0, 78.0, 61.0, 74.0], 70.0),
        ([62.0, 75.0, 73.0, 73.0, 67.0, 74.0], 70.7),
    ]
    GOLDEN_WIN_ROWS = [
        ([63.5, 54.5, 65.0, 70.0, 69.0, 72.5], 65.8),
        ([71.5, 59.5, 66.5, 73.5, 61.5, 74.5], 67.8),
        ([60.0, 58.5, 56.0, 55.0, 48.0, 50.0], 54.6),
        ([64.0, 61.0, 74.5, 70.5, 68.5, 74.0], 68.8),
    ]

    @pytest.mark.parametrize("rates,expected", GOLDEN_PASS_ROWS)
    def test_pass_rate_averages(self, rates, expected):
        row = rate_row("Pass rate", rates)
        assert row == ["Pass rate"] + [f"{rate:.1f}" for rate in rates] + [f"{expected:.1f}"]

    @pytest.mark.parametrize("win_rates,expected", GOLDEN_WIN_ROWS)
    def test_win_rate_averages(self, win_rates, expected):
        assert rate_row("a vs b", win_rates)[-1] == f"{expected:.1f}"

    def test_single_subset_average_is_identity(self):
        assert rate_row("only", [57.0]) == ["only", "57.0", "57.0"]

    @settings(max_examples=100, deadline=None)
    @given(rates=st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=8))
    def test_average_matches_independent_summation(self, rates):
        # Independent recomputation with Decimal arithmetic.
        total = sum(Decimal(repr(r)) for r in rates) / Decimal(len(rates))
        expected = total.quantize(Decimal("0.1"), rounding="ROUND_HALF_UP")
        assert rate_row("x", rates)[-1] == str(expected)


class TestRounding:
    def test_half_up_at_one_decimal(self):
        assert round_half_up(41.08333333) == 41.1
        assert round_half_up(68.75) == 68.8
        assert round_half_up(65.75) == 65.8
        assert round_half_up(54.5833333) == 54.6
        assert round_half_up(70.6666666) == 70.7

    def test_mean_is_not_moved_across_a_half_by_float_summation(self):
        # The float sum of these is 1.0 (mean 0.25); the values' reprs sum below 1.
        assert round_half_up(0.0, 1 / 3, 1 / 3, 1 / 3) == 0.2
        assert rate_row("x", [0.0] + [1 / 3] * 3)[-1] == "0.2"
