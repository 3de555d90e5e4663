"""Pins each method's deterministic cost on the shipped corpus: the
``("corpus", method)`` rows of ``test_counts.PINNED``, checked against
``scripts/role_counts.py``'s counts from the same ``workload_counts``
fixture. The generated workloads' rows are checked in ``test_counts``.
"""

from __future__ import annotations

import pytest

from .test_counts import EPISODES, PINNED

METHODS = sorted(method for workload, method in PINNED if workload == "corpus")


@pytest.mark.parametrize("method", METHODS)
def test_corpus_counts_are_pinned(workload_counts, method):
    counts = workload_counts("corpus")["methods"][method]
    calls, chars, _, trace_sha256, prompt_sha256, raised = PINNED["corpus", method]
    assert counts["episodes"] == EPISODES["corpus"]
    assert (
        counts["calls"]["total"], counts["prompt_chars"]["total"],
        counts["trace_sha256"], counts["prompt_sha256"], counts["raised"],
    ) == (calls, chars, trace_sha256, prompt_sha256, raised)


@pytest.mark.parametrize("method", METHODS)
def test_corpus_uncached_prompt_chars_are_pinned(workload_counts, method):
    counts = workload_counts("corpus")["methods"][method]
    assert counts["uncached_chars"] == PINNED["corpus", method][2]
