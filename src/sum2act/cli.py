"""Command-line entry points: run one instruction, run a benchmark suite,
compare two trace sets, replay traces.

Exit codes: 0 = episode Finished (or command succeeded), 1 = episode
non-success, 2 = configuration/parse failure, or a ``bench`` episode whose
request grew over the size limit (reported after every other episode). Flag
values override config-file keys, which override built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .core import Instruction, State, load_record, read_trace, serialize_episode
from .engine import METHOD_LABELS, default_config, run_episode
from .errors import ConfigurationError, RequestTooLarge, Sum2ActError
from .evaluation import (
    format_table, llm_verdict, pass_rate, rate_row, rule_verdict, side_labels, win_rate,
)
from .provider import LiveProvider, ScriptedProvider, load_policy
from .retriever import load_catalog, rank
from .sandbox import Scenario, ScenarioSession, check_pass, invoke_live, load_endpoint_spec, load_scenario
from .state_manager import render_entry, render_state

EXIT_OK = 0
EXIT_EPISODE_FAILURE = 1
EXIT_CONFIG = 2


@dataclass(frozen=True)
class Config:
    """A ``--config`` file: one field per key that some subcommand reads, so
    one file serves every subcommand and any other key exits 2."""

    method: str | None = None
    methods: str | None = None
    provider: str | None = None
    policy: str | None = None
    out: str | None = None
    concurrency: int | None = None
    judge: str | None = None
    budget: int | None = None


def _provider(args, need_policy: bool = True):
    """The command's one provider, built and checked before anything runs.

    Live mode builds the LiveProvider, whose constructor names a missing
    environment variable. Scripted mode loads the ``--policy`` file into a
    ScriptedProvider; without one it returns None, which only a caller
    passing ``need_policy=False`` accepts.
    """
    if args.provider == "live":
        return LiveProvider()
    if args.provider != "scripted":
        raise ConfigurationError(f"unknown provider mode: {args.provider!r}")
    if not args.policy and need_policy:
        raise ConfigurationError("scripted provider requires --policy")
    return ScriptedProvider(load_policy(args.policy)) if args.policy else None


def _write_episode(path: Path, episode) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(serialize_episode(episode) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    # A scenario brings its own instruction and tools.
    given = [key for key in ("instruction", "instruction_id", "tools", "endpoint_spec", "top_k")
             if getattr(args, key) is not None]
    if args.scenario and given:
        flag = "--" + given[0].replace("_", "-")
        raise ConfigurationError(f"--scenario cannot be combined with {flag}")
    engine_config = default_config(args.method, args.budget)
    provider = _provider(args)
    out_dir = Path(args.out)

    scenario = session = None
    if args.scenario:
        scenario = load_scenario(args.scenario)
        instruction = scenario.instruction
        tools = list(scenario.tools)
        executor = ScenarioSession(scenario).invoke
    elif args.instruction and args.tools:
        catalog = load_catalog(args.tools)
        instruction = Instruction(id=args.instruction_id or "cli", text=args.instruction)
        if args.top_k is not None:
            tools = [ranked.tool for ranked in rank(instruction.text, catalog, args.top_k)]
        else:
            tools = catalog
        if not args.endpoint_spec:
            raise ConfigurationError("running against live tools requires --endpoint-spec")
        endpoints = load_endpoint_spec(args.endpoint_spec)
        # Only the episode's tools run: any other is an unknown tool.
        endpoints = {tool.name: endpoints[tool.name] for tool in tools if tool.name in endpoints}
        import requests

        session = requests.Session()

        def executor(tool_name, call_args):
            return invoke_live(endpoints, tool_name, call_args, session)

    else:
        raise ConfigurationError("provide --scenario, or --instruction with --tools")

    try:
        episode = run_episode(args.method, provider, instruction, tools, engine_config, executor)
    finally:
        if session is not None:
            session.close()

    trace_path = out_dir / f"{args.method}__{instruction.id}.jsonl"
    _write_episode(trace_path, episode)

    if episode.terminal.status == "Finished":
        print(f"answer: {episode.terminal.answer}")
    else:
        print(f"terminal: {episode.terminal.status}")
    if scenario is not None:
        print(f"pass: {check_pass(scenario, episode)}")
    print(f"trace: {trace_path}")
    return EXIT_OK if episode.terminal.status == "Finished" else EXIT_EPISODE_FAILURE


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _by_key(key_name: str, items) -> dict:
    """``{key: value}`` from ``(key, path, value)`` items, in their order. A
    key given twice raises ConfigurationError naming both files."""
    values: dict = {}
    paths: dict = {}
    for key, path, value in items:
        if key in paths:
            raise ConfigurationError(f"{key_name} {key!r} is used by both {paths[key]} and {path}")
        values[key], paths[key] = value, path
    return values


def _by_subset(items) -> dict[str, list]:
    """``{subset: values}`` from ``(instruction, value)`` items, in sorted
    subset order; an instruction without a subset label is in ``default``."""
    groups: dict[str, list] = {}
    for instruction, value in items:
        groups.setdefault(instruction.subset_label or "default", []).append(value)
    return dict(sorted(groups.items()))


def _write_report(out_dir: Path, name: str, machine: dict, table: str, *sections: str) -> None:
    """Write ``<name>.txt`` (``table``, then each section) and its
    machine-readable mirror ``<name>.json``; print the table and the path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}.txt").write_text("\n\n".join((table,) + sections) + "\n", encoding="utf-8")
    (out_dir / f"{name}.json").write_text(
        json.dumps(machine, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(table)
    print(f"report: {out_dir / f'{name}.json'}")


def _load_scenarios(scenario_dir: str) -> Iterator[tuple[Path, Scenario]]:
    """Every ``*.scenario.json`` under ``scenario_dir`` with its path, each
    loaded as it is reached."""
    root = Path(scenario_dir)
    if not root.is_dir():
        raise ConfigurationError(f"scenario directory not found: {scenario_dir}")
    paths = sorted(root.glob("**/*.scenario.json"))
    if not paths:
        raise ConfigurationError(f"no *.scenario.json files under {scenario_dir}")
    return ((path, load_scenario(path)) for path in paths)


def cmd_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ConfigurationError("no method to run: give at least one method label")
    repeated = sorted({method for method in methods if methods.count(method) > 1})
    if repeated:
        raise ConfigurationError(f"method {repeated[0]!r} is listed more than once")
    engine_configs = {method: default_config(method, args.budget) for method in methods}
    global_provider = _provider(args, need_policy=False)
    out_dir = Path(args.out)
    if args.concurrency < 1:
        raise ConfigurationError("concurrency must be >= 1")

    # Fail fast: every scenario (and its policy, without a global provider)
    # must load, and no two may share an id (their traces would share one
    # path), before anything runs. Every episode of a scenario, whatever its
    # method or thread, shares the one provider picked here.
    scenarios = _by_key("scenario id", (
        (scenario.id, path, (path, scenario))
        for path, scenario in _load_scenarios(args.scenario_dir)
    ))
    loaded = []
    for path, scenario in scenarios.values():
        provider = global_provider
        if provider is None:
            policy_path = path.with_name(path.name.replace(".scenario.json", ".policy.json"))
            if not policy_path.exists():
                raise ConfigurationError(
                    f"no policy for scenario {scenario.id!r}: expected {policy_path}"
                )
            provider = ScriptedProvider(load_policy(policy_path))
        loaded.append((scenario, provider))

    def run_pair(method: str, scenario, provider):
        """(method, scenario, episode, passed, error); an episode whose
        request grew too large has no trace and counts as failed. Any other
        error ends the run."""
        try:
            episode = run_episode(
                method, provider, scenario.instruction, list(scenario.tools),
                engine_configs[method], ScenarioSession(scenario).invoke,
            )
        except RequestTooLarge as exc:
            return method, scenario, None, False, exc
        trace_path = out_dir / "traces" / method / f"{scenario.id}.jsonl"
        _write_episode(trace_path, episode)
        return method, scenario, episode, check_pass(scenario, episode), None

    # The longest episodes start first, so at concurrency N none starts
    # last and sets the wall time alone; results.sort fixes the report order.
    pairs = [(method, scenario, provider) for method in methods for scenario, provider in loaded]
    pairs.sort(key=lambda pair: -engine_configs[pair[0]].step_budget)
    with ThreadPoolExecutor(max_workers=args.concurrency) as pool:
        results = list(pool.map(lambda pair: run_pair(*pair), pairs))
    results.sort(key=lambda item: (item[0], item[1].id))

    # Every method runs every scenario, so each method's subsets are the scenarios'.
    by_subset = _by_subset((scenario.instruction, scenario.id) for scenario, _ in loaded)
    subset_of = {scenario_id: subset for subset, ids in by_subset.items() for scenario_id in ids}
    counts = [len(ids) for ids in by_subset.values()]
    report_sections = []
    machine: dict = {"methods": {}, "episodes": []}
    method_rows = []
    for method in methods:
        episodes = [
            {
                "method": method,
                "scenario": scenario.id,
                "subset": subset_of[scenario.id],
                "pass": passed,
                "terminal": type(error).__name__ if error else episode.terminal.status,
                "steps": None if error else len(episode.steps),
            }
            for result_method, scenario, episode, passed, error in results if result_method == method
        ]
        machine["episodes"] += episodes
        rates = [pass_rate([e["pass"] for e in episodes if e["subset"] == subset]) for subset in by_subset]
        row = rate_row("Pass rate", rates)
        table = format_table(
            ["Subset"] + list(by_subset) + ["Average"],
            [row, ["n"] + [str(n) for n in counts] + [str(sum(counts))]],
        )
        report_sections.append(f"## {method}\n{table}")
        # Win rates are ``compare``'s; the mirror keeps null ``win_rate`` keys.
        machine["methods"][method] = {
            "subsets": [
                {"label": subset, "pass_rate": rate, "win_rate": None, "n": n}
                for subset, rate, n in zip(by_subset, rates, counts)
            ],
            "average": {"pass_rate": float(row[-1]), "win_rate": None},
        }
        method_rows.append([method] + row[1:])

    combined = format_table(["Method"] + list(by_subset) + ["Average"], method_rows)
    _write_report(out_dir, "report", machine, combined, *report_sections)
    raised = [(method, scenario, error) for method, scenario, _, _, error in results if error]
    for method, scenario, error in raised:
        print(f"error: {method}/{scenario.id}: {error}", file=sys.stderr)
    return EXIT_CONFIG if raised else EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _load_trace_set(path_text: str, side: str) -> tuple[str, dict]:
    """A trace set's one method label (an empty one reads ``side``) and its
    episodes by instruction id. Episodes of two labels raise
    ConfigurationError naming both."""
    path = Path(path_text)
    if path.is_dir():
        files = sorted(path.glob("**/*.jsonl"))
    elif path.exists():
        files = [path]
    else:
        raise ConfigurationError(f"trace path not found: {path_text}")
    episodes = _by_key("instruction id", (
        (episode.instruction.id, file_path, episode)
        for file_path in files for episode in read_trace(file_path)
    ))
    if not episodes:
        raise ConfigurationError(f"no episodes found under {path_text}")
    labels = sorted({episode.method_label for episode in episodes.values()})
    if len(labels) > 1:
        raise ConfigurationError(
            f"{path_text}: trace set mixes method labels {', '.join(map(repr, labels))}"
        )
    return labels[0] or side, episodes


def cmd_compare(args) -> int:
    if args.judge == "llm" and args.scenario_dir is not None:
        raise ConfigurationError("the llm judge cannot be combined with --scenario-dir")
    out_dir = Path(args.out)
    label_a, side_a = _load_trace_set(args.traces_a, "a")
    label_b, side_b = _load_trace_set(args.traces_b, "b")
    label_a, label_b = side_labels(label_a, label_b)

    missing_in_b = sorted(set(side_a) - set(side_b))
    missing_in_a = sorted(set(side_b) - set(side_a))
    if missing_in_a or missing_in_b:
        details = []
        if missing_in_b:
            details.append(f"missing from B: {', '.join(missing_in_b)}")
        if missing_in_a:
            details.append(f"missing from A: {', '.join(missing_in_a)}")
        raise ConfigurationError(f"trace sets cover different instructions; {'; '.join(details)}")

    if args.judge == "rule":
        if not args.scenario_dir:
            raise ConfigurationError("the rule judge requires --scenario-dir to evaluate passes")
        scenarios = _by_key("instruction id", (
            (scenario.instruction.id, path, scenario)
            for path, scenario in _load_scenarios(args.scenario_dir)
        ))

        def passed(episode):
            if episode.instruction.id not in scenarios:
                raise ConfigurationError(
                    f"no scenario found for instruction {episode.instruction.id!r}"
                )
            return check_pass(scenarios[episode.instruction.id], episode)

        def verdict(episode_a, episode_b):
            return rule_verdict(passed, episode_a, episode_b)
    elif args.judge == "llm":
        provider = _provider(args)

        def verdict(episode_a, episode_b):
            return llm_verdict(provider, episode_a, episode_b, label_a, label_b)
    else:
        raise ConfigurationError(f"unknown judge mode: {args.judge!r}")

    judgments = [(key, *verdict(side_a[key], side_b[key])) for key in sorted(side_a)]
    subset_rates = {
        subset: win_rate(outcomes)
        for subset, outcomes in _by_subset(
            (side_a[key].instruction, outcome) for key, outcome, _ in judgments
        ).items()
    }
    row = rate_row(f"{label_a} vs {label_b}", list(subset_rates.values()))
    table = format_table(["Method"] + list(subset_rates) + ["Average"], [row])

    machine = {
        "method_a": label_a,
        "method_b": label_b,
        "subsets": subset_rates,
        "average": float(row[-1]),
        "judgments": [
            {"instruction_id": key, "outcome": outcome, "rationale": rationale}
            for key, outcome, rationale in judgments
        ],
    }
    _write_report(out_dir, "winrate", machine, table)
    return EXIT_OK


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def _state_diff(previous, current) -> list[str]:
    """The entries ``current`` dropped from ``previous`` and those it added,
    compared by value: a cap merge replaces entries, so counts can shrink.
    Each shows its ``[step N]`` as ``render_state`` does, since a merge can
    keep an entry's text and move its step."""
    lines = []
    for kind, old, new in (
        ("result", previous.current_results, current.current_results),
        ("failure", previous.failure_history, current.failure_history),
    ):
        lines += [f"    - {kind}: {render_entry(entry)}" for entry in old if entry not in new]
        lines += [f"    + {kind}: {render_entry(entry)}" for entry in new if entry not in old]
    return lines or ["    (state unchanged)"]


def cmd_replay(args) -> int:
    path = Path(args.trace)
    if not path.exists():
        raise ConfigurationError(f"trace file not found: {args.trace}")
    episodes = read_trace(path)
    if not episodes:
        raise ConfigurationError(f"trace file is empty: {args.trace}")
    for episode in episodes:
        print(f"=== {episode.method_label} :: {episode.instruction.id} "
              f"(budget {episode.step_budget}) ===")
        print(f"instruction: {episode.instruction.text}")
        previous_state = State()
        for index, step in enumerate(episode.steps, 1):
            if step.action.kind == "Finish":
                print(f"step {index}: Finish")
            else:
                print(f"step {index}: {step.action.tool_name}({json.dumps(step.action.args, sort_keys=True)})")
            if step.observation is not None:
                print(f"    observation: {step.observation.status}")
            for line_text in _state_diff(previous_state, step.state):
                print(line_text)
            previous_state = step.state
        print(f"terminal: {episode.terminal.status}"
              + (f" answer: {episode.terminal.answer}" if episode.terminal.answer else ""))
        print(f"final state:\n{render_state(episode.steps[-1].state if episode.steps else State())}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_io_flags(parser: argparse.ArgumentParser, provider: str, out: str) -> None:
    parser.add_argument("--provider", choices=["scripted", "live"], default=provider)
    parser.add_argument("--policy", default=None, help="scripted policy file")
    parser.add_argument("--config", default=None, help="JSON config file; flags override it")
    parser.add_argument("--out", default=out, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sum2act",
        description="Tool-invocation agent loops with a deterministic sandbox and benchmark harness",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one instruction")
    run_parser.add_argument("--scenario", default=None, help="sandbox scenario file")
    run_parser.add_argument("--instruction", default=None, help="instruction text (live tools)")
    run_parser.add_argument("--instruction-id", dest="instruction_id", default=None)
    run_parser.add_argument("--tools", default=None, help="tool catalog file (live tools)")
    run_parser.add_argument("--endpoint-spec", dest="endpoint_spec", default=None)
    run_parser.add_argument("--top-k", dest="top_k", type=int, default=None,
                            help="rank the catalog and keep the top k tools")
    run_parser.add_argument("--method", choices=list(METHOD_LABELS), default="sum2act")
    _add_io_flags(run_parser, "scripted", "runs")
    run_parser.add_argument("--budget", type=int, default=None, help="step budget")
    run_parser.set_defaults(func=cmd_run, parser=run_parser)

    bench_parser = subparsers.add_parser("bench", help="run a scenario suite")
    bench_parser.add_argument("--scenario-dir", dest="scenario_dir", required=True)
    bench_parser.add_argument("--methods", default="sum2act", help="comma-separated method labels")
    bench_parser.add_argument("--concurrency", type=int, default=1)
    _add_io_flags(bench_parser, "scripted", "bench-out")
    bench_parser.add_argument("--budget", type=int, default=None, help="step budget of every method")
    bench_parser.set_defaults(func=cmd_bench, parser=bench_parser)

    compare_parser = subparsers.add_parser("compare", help="pairwise win rate of two trace sets")
    compare_parser.add_argument("--traces-a", dest="traces_a", required=True)
    compare_parser.add_argument("--traces-b", dest="traces_b", required=True)
    compare_parser.add_argument("--judge", choices=["rule", "llm"], default="rule")
    compare_parser.add_argument("--scenario-dir", dest="scenario_dir", default=None,
                                help="scenario files for the rule judge's pass checks")
    _add_io_flags(compare_parser, "live", "compare-out")
    compare_parser.set_defaults(func=cmd_compare, parser=compare_parser)

    replay_parser = subparsers.add_parser("replay", help="print a step-by-step trace rendering")
    replay_parser.add_argument("trace", help="episode trace file")
    replay_parser.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # The file's keys that this subcommand takes become its defaults;
            # parsing again lets each given flag override its key.
            config = load_record(args.config, Config, "config file")
            args.parser.set_defaults(**{key: value for key, value in vars(config).items()
                                        if value is not None and key in vars(args)})
            args = parser.parse_args(argv)
        return args.func(args)
    except (Sum2ActError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
