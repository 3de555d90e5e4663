"""Pins each method's deterministic cost on the benchmark's workloads:
provider calls, prompt chars, uncached prompt chars, the traces, the bytes of
every prompt sent and the episodes that raise, as ``scripts/role_counts.py``
counts them once per session (the ``workload_counts`` fixture) over the
shipped corpus and the generated ``long_state`` and ``flaky_live`` workloads
at seed 5. Every provider call is counted when it is made, a raising one too,
as perfbench's spans count it, so each pin over its episodes equals a
``perfbench/run.py`` count metric. An extra call, a changed prompt (even one
of the same length), a prompt layout that a prefix cache can reuse less of,
or a changed trace byte fails here, before any benchmark run.
"""

from __future__ import annotations

import pytest

EPISODES = {"corpus": 30, "long_state": 12, "flaky_live": 24}
SUBSETS = {
    "corpus": ["adversarial", "core", "long-horizon", "search"],
    "long_state": ["long_state-buried", "long_state-compact", "long_state-heavy", "long_state-mixed"],
    "flaky_live": ["flaky_live"],
}

# (workload, method): (provider calls, prompt chars, uncached prompt chars,
# sha256 of the traces of the episodes that ended, each followed by "\n",
# sha256 over the sha256 of every prompt sent, in order, {scenario id:
# exception type} of the episodes that raised). Uncached chars are each
# prompt's chars past the longest prefix it shares with an earlier prompt of
# its episode: a prefix cache (RadixAttention and the like) has to process
# only these. dfsdt raises RequestTooLarge on two long_state chains, since it
# keeps whole payloads in its branch memory (a known defect).
PINNED = {
    ("corpus", "sum2act"): (
        188, 240_011, 118_436,
        "d1edb0f35223cd0d01c41ba48c8e42e58e2cf57cceabc1121bfda06579ba919a",
        "886729fa26ad1cb46500dfc593f7a242a30c6bbcf70f182c74f9f2192e08db52", {},
    ),
    ("corpus", "react"): (
        235, 286_565, 81_003,
        "cd12fd6de0770bf5f643ac9f53531c12e54661dc5c02eed068b48e3be039e465",
        "c818c40cc75bf637479b61a686312e82ad45bca96bfe4b71523188dd923ce06e", {},
    ),
    ("corpus", "dfsdt"): (
        105, 236_142, 96_127,
        "447a1d47a39e947c58e43cb27c1849964b57641e08cdd9c71f5152012a611cae",
        "1b4f0e82958cf5e5563bfff5c7bfee595c8c73ec9e1d50e1f5d8c5020565ca8c", {},
    ),
    ("long_state", "sum2act"): (
        485, 2_739_532, 967_500,
        "79193c976c61d5a33bacdf8bd7c13ab4a2e89927a56f52b4bd644201fc4c5b83",
        "b50bd711e2cbba54e34c867055bbcead6ef95a8a766a9f1f2e714e93a50063e9", {},
    ),
    ("long_state", "react"): (
        317, 1_488_105, 151_090,
        "0a3bfac29dff30ab4508e10d478d4baf63ab6fde37c2f802426f052a21d1d6cf",
        "45386499e6f6628304baf23daff20087fcbe69516535f52cb96916b445ff03b0", {},
    ),
    ("long_state", "dfsdt"): (
        238, 10_303_495, 955_401,
        "f6772f6c225f866c0407e977d992c0f96b7c4c9eb087f429d0a8afc85c6c2d56",
        "8c53e537a7ea94e91e6f478b194fcf8c26bdfd52d98c0f989079ceb263ccc979",
        {"chain10": "RequestTooLarge", "chain11": "RequestTooLarge"},
    ),
    ("flaky_live", "sum2act"): (
        339, 609_280, 159_653,
        "c232650d926b534b0a56b316cc0d7ec1332fec2ae9a2ee409e11f971b54e9c31",
        "b76cb4ca223c8e87315aa77de80836ad803c1dae476f6bdf1c7253e220471824", {},
    ),
    ("flaky_live", "react"): (
        186, 392_012, 63_624,
        "26f06371045a69d757acbdc29861174836b7fa019a4929bc5304df434a9e556e",
        "6880d53c003a21322f6d66a63af6c638885c4d186295ecb1c976adea1aa23c3d", {},
    ),
    ("flaky_live", "dfsdt"): (
        186, 382_559, 64_716,
        "16502b57dde7491a58456f3529a22b9fb20caa3e0fdcf48baea5bf44f594429a",
        "411cdc9738529a1db8e13077be9d111269becc5441850a386753c7edd473ac58", {},
    ),
}

# workload: {method: router re-asks}, the router prompts that carry the
# router's re-ask note. flaky_live's re-asks are its planned unparseable
# router replies. On long_state each buried chain's hidden hop answers with
# filler that the state manager judges a Failure; sum2act refuses the
# router's repeat of that call twice, and the episode aborts.
REASKS = {
    "corpus": {"sum2act": 0, "react": 0, "dfsdt": 0},
    "long_state": {"sum2act": 4, "react": 0, "dfsdt": 0},
    "flaky_live": {"sum2act": 12, "react": 12, "dfsdt": 12},
}


# The corpus rows are checked in test_corpus_counts.
@pytest.mark.parametrize("workload, method", sorted(pair for pair in PINNED if pair[0] != "corpus"))
def test_counts_are_pinned(workload_counts, workload, method):
    counts = workload_counts(workload)["methods"][method]
    assert counts["episodes"] == EPISODES[workload]
    assert (
        counts["calls"]["total"], counts["prompt_chars"]["total"], counts["uncached_chars"],
        counts["trace_sha256"], counts["prompt_sha256"], counts["raised"],
    ) == PINNED[workload, method]


@pytest.mark.parametrize("workload", sorted(EPISODES))
def test_uncached_chars_per_episode_are_the_pins_over_every_episode(workload_counts, workload):
    out = workload_counts(workload)
    methods = [method for pinned_workload, method in PINNED if pinned_workload == workload]
    assert sorted(out["methods"]) == sorted(methods)
    uncached = sum(PINNED[workload, method][2] for method in methods)
    assert out["uncached_prompt_chars_per_episode"] == uncached / (len(methods) * EPISODES[workload])


@pytest.mark.parametrize("workload, method", sorted(PINNED))
def test_uncached_chars_by_role_add_up_to_the_pin(workload_counts, workload, method):
    by_role = workload_counts(workload)["methods"][method]["uncached_chars_by_role"]
    assert sorted(by_role) == ["merge", "router", "state"]
    assert sum(by_role.values()) == PINNED[workload, method][2]


@pytest.mark.parametrize("workload", sorted(SUBSETS))
def test_passes_per_subset_add_up_to_the_passes(workload_counts, workload):
    for counts in workload_counts(workload)["methods"].values():
        assert sorted(counts["passes_by_subset"]) == SUBSETS[workload]
        assert sum(counts["passes_by_subset"].values()) == counts["passes"]


@pytest.mark.parametrize("workload", sorted(EPISODES))
def test_terminals_count_the_episodes_that_ended(workload_counts, workload):
    for counts in workload_counts(workload)["methods"].values():
        assert sum(counts["terminals"].values()) + len(counts["raised"]) == counts["episodes"]
        assert counts["terminals"].get("Finished", 0) >= counts["passes"]
        assert counts["per_episode"]["steps"] == counts["steps"] / counts["episodes"]


@pytest.mark.parametrize("workload", sorted(EPISODES))
def test_router_reasks_are_pinned(workload_counts, workload):
    methods = workload_counts(workload)["methods"]
    assert {method: counts["reasks"] for method, counts in methods.items()} == REASKS[workload]
    for counts in methods.values():
        assert counts["per_episode"]["reasks"] == counts["reasks"] / counts["episodes"]
