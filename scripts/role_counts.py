#!/usr/bin/env python3
"""Count each method's provider calls and prompt chars per episode, by role,
on one benchmark workload.

The workload's inputs come from ``perfbench/workloads.py``: the shipped
corpus, or a generated workload written at --seed into a temporary directory
(nothing is written under ``perfbench/``). Every episode runs once with the
scripted provider, as ``perfbench/run.py``'s counting pass runs it. Each
provider call is counted when it is made, whether or not it raises, under
the role its prompt shows: ``merge`` for a state-cap merge, ``state`` for a
state-manager verdict (and its re-asks), ``router`` for every other prompt
(the router's, and react's and dfsdt's proposals). A router prompt that
carries the router's re-ask note is a router re-ask. Uncached prompt chars are
the chars of each prompt past the longest prefix it shares with an earlier
prompt of its episode, by perfbench's own ``PrefixIndex``.

Prints one JSON object: per method the episodes, passes, passes per subset
(each scenario's subset label, "default" when it has none), the exception
types of episodes that raised, the terminal status of each episode that
ended (counted per status), calls and prompt chars by role, as totals and
per episode, uncached prompt chars as a total and by role, router re-asks,
distinct router prompts (counted per episode, then summed) and the steps of
the episodes that ended, each as a total and per episode (over every
episode, as the calls are), ``trace_sha256``, the sha256 of each ended
episode's trace followed by "\n", in task order, and ``prompt_sha256``, the
sha256 over the sha256 of each prompt sent, in send order, as
``tests/test_counts.py`` pins them; and, over all methods, uncached prompt
chars per episode.

Run from the repo root; --src picks the source tree to import, so two
revisions can be counted, and their traces compared, on the same inputs from
their own checkouts:

    python scripts/role_counts.py --src src --workload long_state --seed 5
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import logging
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROLES = ("router", "state", "merge")
MERGE_PROMPT = "Merge these two progress notes"


def _load_perfbench(name: str):
    """Import ``perfbench/<name>.py`` from its file, writing no bytecode."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while the file loads.
    sys.modules[spec.name] = module
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


class _CountingProvider:
    """Counts each call's prompt by role, and its uncached chars, and hashes
    it, before passing it on."""

    def __init__(self, inner, state_head: str, reask_head: str, prefixes, totals: dict, prompts):
        self._inner = inner
        self._state_head = state_head
        self._reask_head = reask_head
        self._prefixes = prefixes
        self._totals = totals
        self._prompts = prompts
        self.router_prompts: set[str] = set()

    def complete(self, request):
        prompt = request.prompt
        if prompt.startswith(MERGE_PROMPT):
            role = "merge"
        elif prompt.startswith(self._state_head):
            role = "state"
        else:
            role = "router"
            self.router_prompts.add(prompt)
            self._totals["reasks"] += self._reask_head in prompt
        self._totals["calls"][role] += 1
        self._totals["prompt_chars"][role] += len(prompt)
        uncached = self._prefixes.uncached(prompt)
        self._totals["uncached_chars"] += uncached
        self._totals["uncached_chars_by_role"][role] += uncached
        self._prompts.update(hashlib.sha256(prompt.encode("utf-8")).digest())
        return self._inner.complete(request)


def _subset(scenario) -> str:
    return scenario.instruction.subset_label or "default"


def count(lib, tracing, tasks, methods, state_head: str, reask_head: str) -> dict:
    """Run every task once per method; return the counts per method."""
    loaded = [(lib.load_scenario(t.scenario_path), lib.load_policy(t.policy_path)) for t in tasks]
    out = {}
    for method in methods:
        totals = {
            "episodes": len(loaded), "passes": 0, "raised": {},
            "passes_by_subset": {
                subset: 0 for subset in sorted({_subset(scenario) for scenario, _ in loaded})
            },
            "calls": dict.fromkeys(ROLES, 0), "prompt_chars": dict.fromkeys(ROLES, 0),
            "uncached_chars": 0, "uncached_chars_by_role": dict.fromkeys(ROLES, 0),
            "reasks": 0, "distinct_router_prompts": 0, "terminals": {}, "steps": 0,
        }
        traces, prompts = hashlib.sha256(), hashlib.sha256()
        for scenario, policy in loaded:
            provider = _CountingProvider(
                lib.ScriptedProvider(policy), state_head, reask_head, tracing.PrefixIndex(), totals, prompts,
            )
            try:
                episode = lib.run_episode(
                    method, provider, scenario.instruction, list(scenario.tools),
                    lib.default_config(method), lib.ScenarioSession(scenario).invoke,
                )
            except lib.Sum2ActError as exc:
                totals["raised"][scenario.id] = type(exc).__name__
            else:
                passed = lib.check_pass(scenario, episode)
                totals["passes"] += passed
                totals["passes_by_subset"][_subset(scenario)] += passed
                status = episode.terminal.status
                totals["terminals"][status] = totals["terminals"].get(status, 0) + 1
                totals["steps"] += len(episode.steps)
                traces.update(lib.serialize_episode(episode).encode("utf-8") + b"\n")
            totals["distinct_router_prompts"] += len(provider.router_prompts)
        totals["trace_sha256"] = traces.hexdigest()
        totals["prompt_sha256"] = prompts.hexdigest()
        for key in ("calls", "prompt_chars"):
            totals[key]["total"] = sum(totals[key].values())
        totals["per_episode"] = {
            key: {role: value / len(loaded) for role, value in totals[key].items()}
            for key in ("calls", "prompt_chars")
        }
        for key in ("reasks", "distinct_router_prompts", "steps"):
            totals["per_episode"][key] = totals[key] / len(loaded)
        totals["terminals"] = dict(sorted(totals["terminals"].items()))
        out[method] = totals
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="directory holding the sum2act package")
    parser.add_argument("--workload", required=True, choices=("corpus", "long_state", "flaky_live"))
    parser.add_argument("--seed", type=int, default=5, help="seed of a generated workload")
    parser.add_argument("--methods", default="sum2act,react,dfsdt")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    import sum2act as lib
    from sum2act.parsing import TEMPLATES
    from sum2act.router import _REASK

    # flaky_live plans mechanical fallbacks; their warnings are not news here.
    logging.getLogger("sum2act").addHandler(logging.NullHandler())

    workloads = _load_perfbench("workloads")
    tracing = _load_perfbench("tracing")
    methods = args.methods.split(",")
    with tempfile.TemporaryDirectory() as tmp:
        if args.workload == "corpus":
            tasks = workloads.corpus_tasks(ROOT)
        else:
            tasks = workloads.generate(args.workload, args.seed, Path(tmp) / args.workload)
        counts = count(
            lib, tracing, tasks, methods, TEMPLATES["state"].partition("{")[0], _REASK.partition("{")[0],
        )
    episodes = sum(totals["episodes"] for totals in counts.values())
    print(json.dumps({
        "workload": args.workload,
        "seed": None if args.workload == "corpus" else args.seed,
        "methods": counts,
        "uncached_prompt_chars_per_episode":
            sum(totals["uncached_chars"] for totals in counts.values()) / episodes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
