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
from typing import get_args, get_type_hints

from .core import Instruction, State, load_record, read_trace, serialize_episode
from .engine import METHOD_LABELS, EngineConfig, default_config, run_episode
from .errors import ConfigurationError, RequestTooLarge, Sum2ActError
from .evaluation import (
    LlmJudge,
    RuleJudge,
    format_table,
    pass_rate,
    rate_row,
    win_rate,
)
from .provider import LiveProvider, ScriptedProvider, load_policy
from .retriever import load_catalog, rank
from .sandbox import Scenario, ScenarioSession, check_pass, invoke_live, load_endpoint_spec, load_scenario
from .state_manager import render_state

EXIT_OK = 0
EXIT_EPISODE_FAILURE = 1
EXIT_CONFIG = 2


@dataclass(frozen=True)
class Config:
    """A ``--config`` file: one field per key that some subcommand reads, so
    one file serves every subcommand and any other key exits 2. The engine
    flags take their types from these annotations."""

    method: str | None = None
    methods: str | None = None
    provider: str | None = None
    policy: str | None = None
    out: str | None = None
    concurrency: int | None = None
    judge: str | None = None
    budget: int | None = None
    max_children: int | None = None
    templates_dir: str | None = None


# Config key (and flag dest, dashed as --flag): the EngineConfig field it sets.
_ENGINE_KEYS = {
    "budget": "step_budget",
    "max_children": "dfsdt_max_children",
    "templates_dir": "templates_dir",
}


def _engine_config(method: str, args) -> EngineConfig:
    """``method``'s defaults with the given engine settings applied; an
    unknown method raises ConfigurationError."""
    given = {field: getattr(args, key) for key, field in _ENGINE_KEYS.items()
             if getattr(args, key) is not None}
    return default_config(method, **given)


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
    engine_config = _engine_config(args.method, args)
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


def _load_scenarios(scenario_dir: str, key_name: str, key) -> list[tuple[Path, Scenario]]:
    """Every ``*.scenario.json`` under ``scenario_dir``, loaded, with its path.
    Two scenarios with one ``key(scenario)`` raise ConfigurationError naming
    both files."""
    root = Path(scenario_dir)
    if not root.is_dir():
        raise ConfigurationError(f"scenario directory not found: {scenario_dir}")
    paths = sorted(root.glob("**/*.scenario.json"))
    if not paths:
        raise ConfigurationError(f"no *.scenario.json files under {scenario_dir}")
    loaded = []
    paths_by_key: dict[str, Path] = {}
    for path in paths:
        scenario = load_scenario(path)
        value = key(scenario)
        if value in paths_by_key:
            raise ConfigurationError(
                f"{key_name} {value!r} is used by both {paths_by_key[value]} and {path}"
            )
        paths_by_key[value] = path
        loaded.append((path, scenario))
    return loaded


def _sibling_policy(scenario_path: Path) -> Path:
    return scenario_path.with_name(
        scenario_path.name.replace(".scenario.json", ".policy.json")
    )


def cmd_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ConfigurationError("no method to run: give at least one method label")
    repeated = sorted({method for method in methods if methods.count(method) > 1})
    if repeated:
        raise ConfigurationError(f"method {repeated[0]!r} is listed more than once")
    engine_configs = {method: _engine_config(method, args) for method in methods}
    global_provider = _provider(args, need_policy=False)
    out_dir = Path(args.out)
    if args.concurrency < 1:
        raise ConfigurationError("concurrency must be >= 1")

    # Fail fast: every scenario (and its policy, without a global provider)
    # must load, and no two may share an id (their traces would share one
    # path), before anything runs. Every episode of a scenario, whatever its
    # method or thread, shares the one provider picked here.
    loaded = []
    for path, scenario in _load_scenarios(args.scenario_dir, "scenario id", lambda s: s.id):
        provider = global_provider
        if provider is None:
            policy_path = _sibling_policy(path)
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

    report_sections = []
    machine: dict = {"methods": {}, "episodes": []}
    method_rows = []
    for method in methods:
        by_subset: dict[str, list] = {}
        for result_method, scenario, episode, passed, error in results:
            if result_method != method:
                continue
            subset = scenario.instruction.subset_label or "default"
            by_subset.setdefault(subset, []).append(passed)
            machine["episodes"].append(
                {
                    "method": method,
                    "scenario": scenario.id,
                    "subset": subset,
                    "pass": passed,
                    "terminal": type(error).__name__ if error else episode.terminal.status,
                    "steps": None if error else len(episode.steps),
                }
            )
        subsets = sorted(by_subset)
        rates = [pass_rate(by_subset[subset]) for subset in subsets]
        counts = [len(by_subset[subset]) for subset in subsets]
        row = rate_row("Pass rate", rates)
        table = format_table(
            ["Subset"] + subsets + ["Average"],
            [row, ["n"] + [str(n) for n in counts] + [str(sum(counts))]],
        )
        report_sections.append(f"## {method}\n{table}")
        # Win rates are ``compare``'s; the mirror keeps null ``win_rate`` keys.
        machine["methods"][method] = {
            "subsets": [
                {"label": subset, "pass_rate": rate, "win_rate": None, "n": n}
                for subset, rate, n in zip(subsets, rates, counts)
            ],
            "average": {"pass_rate": float(row[-1]), "win_rate": None},
        }
        method_rows.append([method] + row[1:])

    subset_labels = sorted({s["subset"] for s in machine["episodes"]})
    combined = format_table(["Method"] + subset_labels + ["Average"], method_rows)

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.txt").write_text(
        combined + "\n\n" + "\n\n".join(report_sections) + "\n", encoding="utf-8"
    )
    (out_dir / "report.json").write_text(
        json.dumps(machine, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(combined)
    print(f"report: {out_dir / 'report.json'}")
    raised = [(method, scenario, error) for method, scenario, _, _, error in results if error]
    for method, scenario, error in raised:
        print(f"error: {method}/{scenario.id}: {error}", file=sys.stderr)
    return EXIT_CONFIG if raised else EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _load_trace_set(path_text: str) -> dict:
    path = Path(path_text)
    if path.is_dir():
        files = sorted(path.glob("**/*.jsonl"))
    elif path.exists():
        files = [path]
    else:
        raise ConfigurationError(f"trace path not found: {path_text}")
    episodes: dict = {}
    paths_by_id: dict[str, Path] = {}
    for file_path in files:
        for episode in read_trace(file_path):
            instruction_id = episode.instruction.id
            if instruction_id in episodes:
                raise ConfigurationError(
                    f"instruction id {instruction_id!r} is used by both "
                    f"{paths_by_id[instruction_id]} and {file_path}"
                )
            paths_by_id[instruction_id] = file_path
            episodes[instruction_id] = episode
    if not episodes:
        raise ConfigurationError(f"no episodes found under {path_text}")
    return episodes


def cmd_compare(args) -> int:
    if args.judge == "llm" and args.scenario_dir is not None:
        raise ConfigurationError("the llm judge cannot be combined with --scenario-dir")
    out_dir = Path(args.out)
    side_a = _load_trace_set(args.traces_a)
    side_b = _load_trace_set(args.traces_b)

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
        scenarios = {
            scenario.instruction.id: scenario
            for _, scenario in _load_scenarios(
                args.scenario_dir, "instruction id", lambda s: s.instruction.id
            )
        }

        def passed(episode):
            if episode.instruction.id not in scenarios:
                raise ConfigurationError(
                    f"no scenario found for instruction {episode.instruction.id!r}"
                )
            return check_pass(scenarios[episode.instruction.id], episode)

        judge = RuleJudge(passed)
    elif args.judge == "llm":
        judge = LlmJudge(_provider(args))
    else:
        raise ConfigurationError(f"unknown judge mode: {args.judge!r}")

    judgments_by_subset: dict[str, list] = {}
    all_judgments = []
    for instruction_id in sorted(side_a):
        episode_a = side_a[instruction_id]
        episode_b = side_b[instruction_id]
        judgment = judge.judge(episode_a.instruction, episode_a, episode_b)
        subset = episode_a.instruction.subset_label or "default"
        judgments_by_subset.setdefault(subset, []).append(judgment)
        all_judgments.append(judgment)

    label_a = all_judgments[0].method_a
    label_b = all_judgments[0].method_b
    subset_rates = {
        subset: win_rate(judgments, label_a)
        for subset, judgments in sorted(judgments_by_subset.items())
    }
    row = rate_row(f"{label_a} vs {label_b}", list(subset_rates.values()))
    table = format_table(["Method"] + list(subset_rates) + ["Average"], [row])

    machine = {
        "method_a": label_a,
        "method_b": label_b,
        "subsets": subset_rates,
        "average": float(row[-1]),
        "judgments": [
            {
                "instruction_id": j.instruction_id,
                "outcome": j.outcome,
                "rationale": j.rationale,
            }
            for j in all_judgments
        ],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "winrate.txt").write_text(table + "\n", encoding="utf-8")
    (out_dir / "winrate.json").write_text(
        json.dumps(machine, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(table)
    print(f"report: {out_dir / 'winrate.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def _state_diff(previous, current) -> list[str]:
    """The entries ``current`` dropped from ``previous`` and those it added,
    compared by value: a cap merge replaces entries, so counts can shrink."""
    lines = []
    for kind, old, new, render in (
        ("result", previous.current_results, current.current_results, lambda e: e.text),
        ("failure", previous.failure_history, current.failure_history,
         lambda e: f"{e.tool}({e.digest}): {e.reason}"),
    ):
        lines += [f"    - {kind}: {render(entry)}" for entry in old if entry not in new]
        lines += [f"    + {kind}: {render(entry)}" for entry in new if entry not in old]
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
        previous_state = State.empty()
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
        print(f"final state:\n{render_state(episode.steps[-1].state if episode.steps else State.empty())}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_io_flags(parser: argparse.ArgumentParser, provider: str, out: str) -> None:
    parser.add_argument("--provider", choices=["scripted", "live"], default=provider)
    parser.add_argument("--policy", default=None, help="scripted policy file")
    parser.add_argument("--config", default=None, help="JSON config file; flags override it")
    parser.add_argument("--out", default=out, help="output directory")


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    hints = get_type_hints(Config)
    for key in _ENGINE_KEYS:
        # Each annotation is ``T | None``; the flag's value is read as T.
        parser.add_argument(
            "--" + key.replace("_", "-"), dest=key, type=get_args(hints[key])[0], default=None
        )


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
    _add_engine_flags(run_parser)
    run_parser.set_defaults(func=cmd_run, parser=run_parser)

    bench_parser = subparsers.add_parser("bench", help="run a scenario suite")
    bench_parser.add_argument("--scenario-dir", dest="scenario_dir", required=True)
    bench_parser.add_argument("--methods", default="sum2act", help="comma-separated method labels")
    bench_parser.add_argument("--concurrency", type=int, default=1)
    _add_io_flags(bench_parser, "scripted", "bench-out")
    _add_engine_flags(bench_parser)
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
            config = load_record(args.config, Config, "config file", ConfigurationError)
            args.parser.set_defaults(**{key: value for key, value in vars(config).items()
                                        if value is not None and key in vars(args)})
            args = parser.parse_args(argv)
        return args.func(args)
    except (Sum2ActError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
