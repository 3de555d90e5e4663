"""Figures that README states about the shipped corpus, computed again."""

from __future__ import annotations

import re
from pathlib import Path

from sum2act.engine import METHOD_LABELS

from .test_corpus_counts import _run_corpus

README = Path(__file__).resolve().parents[1] / "README.md"


def test_prompt_layout_states_the_corpus_uncached_prompt_chars(scenarios_root):
    text = " ".join(README.read_text(encoding="utf-8").split())
    stated = re.search(r"prefix come to ([\d,]+\.\d\d) per episode, over all three methods", text)
    assert stated, "README 'Prompt layout' no longer states the figure"
    episodes = len(list(scenarios_root.glob("**/*.scenario.json"))) * len(METHOD_LABELS)
    uncached = sum(_run_corpus(method, scenarios_root)[4] for method in METHOD_LABELS)
    assert stated.group(1) == f"{uncached / episodes:,.2f}"
