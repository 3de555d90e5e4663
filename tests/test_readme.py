"""Figures that README states about the shipped corpus, computed again."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_prompt_layout_states_the_corpus_uncached_prompt_chars(workload_counts):
    text = " ".join(README.read_text(encoding="utf-8").split())
    stated = re.search(r"prefix come to ([\d,]+\.\d\d) per episode, over all three methods", text)
    assert stated, "README 'Prompt layout' no longer states the figure"
    uncached = workload_counts("corpus")["uncached_prompt_chars_per_episode"]
    assert stated.group(1) == f"{uncached:,.2f}"
