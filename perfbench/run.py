#!/usr/bin/env python3
"""Benchmark of the sum2act engines: one workload per run, in one process.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Run from a checkout of the repository: the package is imported from
``src/`` of that checkout and the shipped corpus is read from
``scenarios/``; generated inputs and span files go to ``.perfbench/``.

Per episode the run builds a fresh ``ScriptedProvider`` and
``ScenarioSession``, calls ``engine.run_episode``, then
``core.serialize_episode`` (in memory) and ``sandbox.check_pass``. Each run:

1. sets up: imports the package and loads every input through
   ``sandbox.load_scenario`` and ``provider.load_policy``. The set-up is
   repeated between passes of step 3, timed like an episode, and
   ``setup_s`` is the median;
2. runs every episode once with the tracing shims installed. This pass gives
   the exact counts (provider calls, prompt chars, pass rate) and checks each
   episode: a valid terminal state within budget, a trace that round-trips
   byte-identically, ``check_pass`` agreeing with the benchmark's own reading
   of the pass condition, and span counters reconciling with the trace;
3. runs whole passes over the episodes until ``--seconds`` have elapsed,
   untraced, and checks each result against step 2. An episode's time is
   its CPU time, scaled by the speed of a fixed kernel timed next to it,
   plus the modelled waits it slept (see ``KERNEL_REFERENCE_MS``). With
   ``--trace 1`` half the time runs untraced and half traced, and the traced
   half gives the per-layer metrics and ``trace.overhead_share``.

Exceptions an episode raises are recorded by type and counted as failed; the
episode's time still counts. The last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import importlib
import json
import logging
import math
import random
import re
import resource
import statistics
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"
# Set-up is repeated between passes of the timed window, at most this
# often: its median then spans the run instead of one second of it, and no
# episode runs right after a set-up on every pass.
SETUP_INTERVAL_SECONDS = 3.0

# Modelled waits of a live deployment, used by flaky_live only.
FLAKY_LATENCY = tracing.LatencyModel(
    provider_base_ms=4.0, provider_ms_per_kchar=1.0, tool_ms=2.0, timeout_ms=20.0)

# Interpreter speed on a shared host drifts: it moves by tens of percent for
# seconds at a time, and whole minutes can run at half the speed of the
# next. Episodes are therefore timed in CPU time of their thread
# (time.thread_time), which leaves out time the thread waits for a CPU, the
# GIL or the hypervisor, and the timed window is cut into blocks of whole
# passes lasting at least BLOCK_SECONDS. In a block, an episode's median CPU
# time over the block's passes is scaled by KERNEL_REFERENCE_MS over the
# median CPU time of a fixed pure-Python kernel timed every
# SPEED_SAMPLE_SECONDS between episodes of the same block, and its median
# modelled wait is added unscaled. The episode's time is the median of its
# block times. Medians, not fastest times, are compared: when a neighbour on
# the host slows the CPU for a while, a 2 ms kernel still finds its quiet
# moments and a 40 ms episode cannot. The reference is about the kernel's
# median time on the host the baseline was measured on, so figures read as
# milliseconds there.
KERNEL_REFERENCE_MS = 2.5
SPEED_SAMPLE_SECONDS = 0.02
BLOCK_SECONDS = 1.0
_KERNEL_TEXT = "alpha beta gamma delta " * 400
_KERNEL_PATTERN = re.compile(r"delta (\w+) zeta")
_KERNEL_LONG_TEXT = "lorem ipsum dolor " * 12000
_KERNEL_LONG_PATTERN = re.compile(r"sentinel-(\d+) zz")

CLIENTS = {"corpus": 1, "long_state": 1, "flaky_live": 2}


def speed_kernel() -> int:
    """Fixed work of the kinds the engines do: JSON, regex search, string
    building and a character loop on small strings, and a regex search,
    slicing and joining on a 216,000-char text, the size of a long prompt."""
    parts = []
    for i in range(150):
        record = {"id": i, "name": f"item-{i}", "tags": ["x", "y", str(i)]}
        parts.append(json.loads(json.dumps(record, sort_keys=True))["name"])
    joined = "; ".join(parts)
    _KERNEL_PATTERN.search(_KERNEL_TEXT + joined)
    depth = 0
    for char in joined:
        if char == "-":
            depth += 1
        elif char == ";":
            depth -= 1
    long_text = _KERNEL_LONG_TEXT + joined
    _KERNEL_LONG_PATTERN.search(long_text)
    pieces = [long_text[i:i + 4000] for i in range(0, len(long_text), 4000)]
    return depth + "\n".join(pieces).count("{")


class SpeedProbe:
    """CPU times of ``speed_kernel`` in one block, sampled at most every
    SPEED_SAMPLE_SECONDS."""

    def __init__(self):
        self.samples_ms = []
        self._last = -math.inf

    def sample(self) -> None:
        if time.perf_counter() - self._last < SPEED_SAMPLE_SECONDS:
            return
        started = time.thread_time()
        speed_kernel()
        self.samples_ms.append((time.thread_time() - started) * 1000)
        self._last = time.perf_counter()


class BenchmarkError(Exception):
    """The benchmark cannot run in this directory."""


@dataclass
class Item:
    """One (task, method) episode of the workload."""

    key: str
    method: str
    scenario: object
    policy: object
    config: object
    expected: dict


@dataclass
class Outcome:
    cpu: float
    text: str | None = None
    episode: object = None
    passed: bool = False
    waited: float = 0.0
    error: str | None = None
    unexpected: bool = False
    spans: list | None = None


@dataclass
class Reference:
    """What the counting pass saw for one item; timed runs must repeat it."""

    digest: str | None
    passed: bool
    error: str | None
    summary: dict
    steps: int = 0
    trace_kb: float = 0.0
    state_chars: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def import_library():
    """Import sum2act from this checkout's ``src/``, dropping any copy already
    imported so that each call pays the full import."""
    package = ROOT / "src" / "sum2act" / "__init__.py"
    if not package.is_file():
        raise BenchmarkError(f"no sum2act package at {package}")
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "sum2act" or n.startswith("sum2act.")]:
        del sys.modules[name]
    lib = importlib.import_module("sum2act")
    if Path(lib.__file__).resolve() != package.resolve():
        raise BenchmarkError(f"imported sum2act from {lib.__file__}, not {package}")
    return lib


def set_up(task_list):
    """Import the package and load every input; return the library, the
    loaded inputs and the CPU seconds it took."""
    started = time.thread_time()
    lib = import_library()
    loaded = [(lib.load_scenario(task.scenario_path), lib.load_policy(task.policy_path))
              for task in task_list]
    return lib, loaded, time.thread_time() - started


def build_items(lib, workload: str, seed: int, task_list, loaded) -> list[Item]:
    configs = {method: lib.default_config(method) for method in workloads.METHODS}
    items = [
        Item(f"{method}/{scenario.id}", method, scenario, policy, configs[method], task.expected)
        for task, (scenario, policy) in zip(task_list, loaded)
        for method in workloads.METHODS
    ]
    random.Random(f"order:{workload}:{seed}").shuffle(items)
    return items


# ---------------------------------------------------------------------------
# Running episodes
# ---------------------------------------------------------------------------


class Runner:
    """Runs one episode at a time per thread, traced or not."""

    def __init__(self, lib):
        self.lib = lib
        self.tracer = tracing.Tracer()
        self.modules = {name: importlib.import_module(f"sum2act.{name}")
                        for name in ("engine", "router", "state_manager")}
        self.logger = logging.getLogger("sum2act")
        self.handler = tracing.FallbackCounter(self.tracer)
        self.logger.addHandler(self.handler)
        self.script_error = importlib.import_module("sum2act.errors").ScriptError
        self.first_tracebacks: dict[str, str] = {}

    def close(self) -> None:
        self.logger.removeHandler(self.handler)

    def run(self, item: Item, traced: bool, latency) -> Outcome:
        lib = self.lib
        tracer = self.tracer if traced else None
        if tracer:
            tracer.start_episode()
            root = tracer.open("engine.run_episode")
        started = time.thread_time()
        provider = lib.ScriptedProvider(item.policy)
        executor = lib.ScenarioSession(item.scenario).invoke
        delays = tracing.Delays(latency, tracer) if latency else None
        if traced or delays:
            provider = tracing.ModelledProvider(provider, tracer, delays)
            executor = tracing.modelled_executor(executor, tracer, delays)
        outcome = Outcome(0.0)
        try:
            episode = lib.run_episode(item.method, provider, item.scenario.instruction,
                                      list(item.scenario.tools), item.config, executor)
            if tracer:
                tracer.close(root)
                serialize = tracer.open("core.serialize_episode")
            outcome.text = lib.serialize_episode(episode)
            if tracer:
                tracer.close(serialize)
            outcome.passed = lib.check_pass(item.scenario, episode)
            outcome.episode = episode
        except Exception as exc:  # every raise is recorded, by type, per episode
            outcome.error = type(exc).__name__
            # A policy hole or a crash means the inputs or the harness are wrong.
            outcome.unexpected = isinstance(exc, self.script_error) or not isinstance(exc, lib.Sum2ActError)
            self.first_tracebacks.setdefault(outcome.error, traceback.format_exc())
            if tracer:
                tracer.unwind()
        outcome.cpu = time.thread_time() - started
        outcome.waited = delays.seconds if delays else 0.0
        if tracer:
            outcome.spans = tracer.finish_episode()
        return outcome


def digest(text: str | None) -> str | None:
    return None if text is None else hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def check_episode(lib, item: Item, outcome: Outcome) -> list[str]:
    """Output checks for one episode that ended without raising."""
    episode = outcome.episode
    problems = []
    terminal = episode.terminal
    if terminal is None or terminal.status not in ("Finished", "BudgetExhausted", "AbortedParseFailure"):
        problems.append(f"no valid terminal state: {terminal!r}")
        return problems
    if len(episode.steps) > item.config.step_budget:
        problems.append(f"{len(episode.steps)} steps over the budget of {item.config.step_budget}")
    finished = terminal.status == "Finished"
    if finished != (bool(episode.steps) and episode.steps[-1].action.kind == "Finish"):
        problems.append("Finished does not coincide with a final Finish action")
    again = lib.serialize_episode(lib.deserialize_episode(outcome.text))
    if again != outcome.text:
        problems.append("trace does not round-trip byte-identically")
    own = finished and workloads.evaluate_pass_condition(item.expected, terminal.answer or "")
    if own != outcome.passed:
        problems.append(f"check_pass says {outcome.passed}, the pass condition says {own}")
    return problems


def counting_pass(runner: Runner, items) -> tuple[dict, list[str]]:
    """Run every item once, traced and without modelled waits; check everything."""
    render_state = runner.modules["state_manager"].render_state
    restore = tracing.install(runner.tracer, runner.modules)
    references, problems = {}, []
    try:
        for item in items:
            outcome = runner.run(item, True, None)
            summary = tracing.summarize(outcome.spans)
            reference = Reference(digest(outcome.text), outcome.passed, outcome.error, summary)
            if outcome.unexpected:
                problems.append(f"{item.key}: raised {outcome.error}")
            elif outcome.error is None:
                episode = outcome.episode
                reference.steps = len(episode.steps)
                reference.trace_kb = len(outcome.text.encode("utf-8")) / 1024
                if item.method == "sum2act":
                    reference.state_chars = [len(render_state(step.state)) for step in episode.steps]
                found = check_episode(runner.lib, item, outcome)
                found += tracing.reconcile(summary, episode, item.config.parse_retries)
                problems += [f"{item.key}: {problem}" for problem in found]
            references[item.key] = reference
    finally:
        restore()
    return references, problems


@dataclass
class Window:
    """Running aggregates of a timed window. Per block it keeps each item's
    CPU times and waits and the set-ups' CPU times, and per item one time per
    closed block, so the harness's memory grows by one number per item and
    block."""

    block_times: dict = field(default_factory=dict)
    block: dict = field(default_factory=dict)
    block_setups: list = field(default_factory=list)
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    totals: dict = field(default_factory=dict)
    first_pass_spans: list = field(default_factory=list)
    setup_seconds: list = field(default_factory=list)

    @property
    def passes(self) -> int:
        return self.attempted // len(self.block_times) if self.block_times else 0

    @property
    def best(self) -> dict[str, float]:
        """Each item's time in ms: the median of its block times."""
        return {key: statistics.median(times) for key, times in self.block_times.items()}

    def close_block(self) -> None:
        """Scale each item's median CPU time and the set-ups by the block's
        speed factor, add the median wait and start a new block."""
        factor = KERNEL_REFERENCE_MS / statistics.median(self.probe.samples_ms)
        for key, (cpus, waits) in self.block.items():
            seconds = statistics.median(cpus) * factor + statistics.median(waits)
            self.block_times.setdefault(key, []).append(seconds * 1000)
        self.setup_seconds += [cpu * factor for cpu in self.block_setups]
        self.block = {}
        self.block_setups = []
        self.probe = SpeedProbe()
        self.probe.sample()

    def add(self, item: Item, outcome: Outcome, reference: Reference) -> None:
        first = not self.block_times and item.key not in self.block
        cpus, waits = self.block.setdefault(item.key, ([], []))
        cpus.append(outcome.cpu)
        waits.append(outcome.waited)
        self.attempted += 1
        self.failed += outcome.error is not None
        if (digest(outcome.text), outcome.passed, outcome.error) != (
                reference.digest, reference.passed, reference.error):
            self.problems.append(f"{item.key}: outcome differs from the counting pass")
        if outcome.spans is not None:
            _accumulate(self.totals, tracing.summarize(outcome.spans))
            if first:
                self.first_pass_spans.append((item.key, outcome.spans))


def _accumulate(totals: dict, summary: dict) -> None:
    for key, value in summary.items():
        if isinstance(value, dict):
            _accumulate(totals.setdefault(key, {}), value)
        else:
            totals[key] = totals.get(key, 0) + value


def timed_window(runner: Runner, items, seconds: float, clients: int, traced: bool,
                 references: dict, latency, rng: random.Random, task_list=()) -> Window:
    """Whole passes over ``items`` until ``seconds`` have elapsed, each in a
    new order drawn from ``rng``, so that no episode always follows the same
    one, with a set-up of ``task_list`` between passes every
    SETUP_INTERVAL_SECONDS."""
    window = Window()
    restore = tracing.install(runner.tracer, runner.modules) if traced else None

    def one(item):
        return item, runner.run(item, traced, latency)

    pool = ThreadPoolExecutor(max_workers=clients) if clients > 1 else None
    window.probe.sample()
    started = last_setup = block_started = time.perf_counter()
    try:
        while True:
            order = rng.sample(items, len(items))
            for item, outcome in pool.map(one, order) if pool else map(one, order):
                window.add(item, outcome, references[item.key])
                window.probe.sample()
            done = time.perf_counter() - started >= seconds
            if task_list and (time.perf_counter() - last_setup >= SETUP_INTERVAL_SECONDS
                              or done and not window.setup_seconds + window.block_setups):
                window.block_setups.append(set_up(task_list)[2])
                window.probe.sample()
                last_setup = time.perf_counter()
            if done or time.perf_counter() - block_started >= BLOCK_SECONDS:
                window.close_block()
                block_started = time.perf_counter()
            if done:
                break
    finally:
        if pool:
            pool.shutdown(wait=True)
        if restore:
            restore()
    return window


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _share(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def end_to_end(items, references, window: Window, clients: int) -> dict:
    best = window.best
    times = {method: [best[i.key] for i in items if i.method == method] for method in workloads.METHODS}
    # A closed loop with no think time completes clients / latency episodes
    # per second (Little's law).
    metrics = {"episodes_per_s": (clients * 1000 / statistics.fmean(best.values()), "episodes/s")}
    for method in workloads.METHODS:
        metrics[f"episode_ms_p50.{method}"] = (statistics.median(times[method]), "ms")
    metrics["episode_ms_p90"] = (statistics.quantiles(best.values(), n=10)[8], "ms")
    by_method = {method: [references[i.key] for i in items if i.method == method]
                 for method in workloads.METHODS}
    for method, refs in by_method.items():
        calls = sum(sum(r.summary["calls"].values()) for r in refs)
        metrics[f"provider_calls_per_episode.{method}"] = (calls / len(refs), "calls/episode")
    for method, refs in by_method.items():
        chars = sum(r.summary["prompt_chars"] for r in refs)
        metrics[f"prompt_chars_per_episode.{method}"] = (chars / len(refs), "chars/episode")
    refs = list(references.values())
    metrics["uncached_prompt_chars_per_episode"] = (
        sum(r.summary["uncached_chars"] for r in refs) / len(refs), "chars/episode")
    metrics["pass_rate"] = (_share(sum(r.passed for r in refs), len(refs)), "%")
    metrics["terminal_share"] = (_share(sum(r.error is None for r in refs), len(refs)), "%")
    metrics["setup_s"] = (statistics.median(window.setup_seconds), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def per_layer(items, references, traced: Window, untraced: Window) -> dict:
    """Per-layer metrics from the traced window's span totals. Every pass
    runs each item once, so per-pass sums from the references scale by the
    number of passes."""
    total = traced.totals
    passes = traced.passes
    episodes = traced.attempted
    calls = sum(total["calls"].values())
    router_calls = total["calls"]["router"]
    reasks = router_calls - total["proposals"]
    steps = passes * sum(references[i.key].steps for i in items)
    sum2act_steps = passes * sum(references[i.key].steps for i in items if i.method == "sum2act")
    state_chars = [n for r in references.values() for n in r.state_chars]
    ms = 1e-6

    def per(value, base):
        return value / base if base else 0.0

    return {
        "engine.self_ms_per_episode": (per(total["engine_self_ns"] * ms, episodes), "ms/episode"),
        "engine.steps_per_episode": (per(steps, episodes), "steps/episode"),
        "router.build_ms_per_call": (per(total["build_ns"] * ms, total["builds"]), "ms/call"),
        "router.prompt_chars_per_call": (per(total["router_prompt_chars"], router_calls), "chars/call"),
        "router.reasks_per_episode": (per(reasks, episodes), "reasks/episode"),
        "router.reask_share": (_share(reasks, router_calls), "%"),
        "router.prefix_reuse_share": (_share(total["router_prompt_chars"] - total["router_uncached_chars"],
                                             total["router_prompt_chars"]), "%"),
        "parsing.extract_ms_per_episode": (per(total["extract_ns"] * ms, episodes), "ms/episode"),
        "parsing.fill_ms_per_episode": (per(total["fill_ns"] * ms, episodes), "ms/episode"),
        "parsing.reply_chars_per_call": (per(total["reply_chars"], calls), "chars/call"),
        "provider.self_ms_per_call": (per(total["provider_self_ns"] * ms, calls), "ms/call"),
        "provider.wait_ms_per_episode": (per(total["provider_wait_ns"] * ms, episodes), "ms/episode"),
        "provider.router_calls_per_episode": (per(router_calls, episodes), "calls/episode"),
        "provider.state_calls_per_episode": (per(total["calls"]["state"], episodes), "calls/episode"),
        "provider.merge_calls_per_episode": (per(total["calls"]["merge"], episodes), "calls/episode"),
        "provider.uncached_chars_per_call": (per(total["uncached_chars"], calls), "chars/call"),
        "state_manager.update_ms_per_step": (per(total["update_ns"] * ms, total["updates"]), "ms/step"),
        "state_manager.cap_ms_per_step": (per(total["cap_ns"] * ms, total["caps"]), "ms/step"),
        "state_manager.render_calls_per_step": (per(total["renders"], sum2act_steps), "calls/step"),
        "state_manager.cap_active_share": (_share(total["caps_active"], total["caps"]), "%"),
        "state_manager.fallbacks_per_episode": (per(total["fallbacks"], episodes), "count/episode"),
        "state_manager.state_chars_p50": (statistics.median(state_chars) if state_chars else 0.0, "chars"),
        "sandbox.invoke_ms_per_call": (per(total["invoke_self_ns"] * ms, total["invokes"]), "ms/call"),
        "sandbox.wait_ms_per_episode": (per(total["invoke_wait_ns"] * ms, episodes), "ms/episode"),
        "sandbox.failure_share": (_share(total["failures"], total["invokes"]), "%"),
        "sandbox.oversize_share": (_share(total["oversize"], total["invokes"]), "%"),
        "core.serialize_ms_per_episode": (per(total["serialize_ns"] * ms, episodes), "ms/episode"),
        "core.trace_kb_per_episode": (
            statistics.fmean(references[i.key].trace_kb for i in items), "KB/episode"),
        "trace.overhead_share": (sum(traced.best.values()) / sum(untraced.best.values()), "ratio"),
    }


def write_spans(path: Path, window: Window) -> None:
    """One JSON object per span of the traced window's first pass."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
        for number, (key, spans) in enumerate(window.first_pass_spans):
            episode_id = f"{number}:{key}"
            for index, (name, start, end, parent, attrs) in enumerate(spans):
                handle.write(json.dumps({"episode": episode_id, "span": index, "name": name,
                                         "start_ns": start, "end_ns": end, "parent": parent,
                                         "attrs": attrs}) + "\n")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if not (ROOT / "src" / "sum2act" / "__init__.py").is_file():
            raise BenchmarkError(f"no sum2act package under {ROOT / 'src'}")
        if args.workload == "corpus":
            task_list = workloads.corpus_tasks(ROOT)
        else:
            task_list = workloads.generate(args.workload, args.seed,
                                           WORK_DIR / "inputs" / args.workload)
    except (BenchmarkError, FileNotFoundError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    lib, loaded, _ = set_up(task_list)
    items = build_items(lib, args.workload, args.seed, task_list, loaded)
    latency = FLAKY_LATENCY if args.workload == "flaky_live" else None
    clients = CLIENTS[args.workload]
    runner = Runner(lib)
    try:
        references, problems = counting_pass(runner, items)
        rng = random.Random(f"passes:{args.workload}:{args.seed}")
        if args.trace:
            untraced = timed_window(runner, items, args.seconds / 2, clients, False, references, latency, rng)
            traced = timed_window(runner, items, args.seconds / 2, clients, True, references, latency, rng)
            windows = [untraced, traced]
        else:
            untraced = timed_window(runner, items, args.seconds, clients, False, references, latency,
                                    rng, task_list)
            windows = [untraced]
    finally:
        runner.close()
    for window in windows:
        problems += window.problems

    if args.trace:
        metrics = per_layer(items, references, traced, untraced)
        write_spans(WORK_DIR / "spans" / f"{args.workload}.jsonl.gz", traced)
    else:
        metrics = end_to_end(items, references, untraced, clients)

    raised: dict[str, list[str]] = {}
    for key, reference in sorted(references.items()):
        if reference.error:
            raised.setdefault(reference.error, []).append(key)
    for name, keys in raised.items():
        print(f"raised {name} in {len(keys)} episodes: {', '.join(keys)}")
        print(runner.first_tracebacks.get(name, "").rstrip(), file=sys.stderr)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {clients} client(s), "
          f"{len(items)} episodes per pass, {windows[-1].passes} passes timed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit}")

    result = {
        "correct": not problems,
        "attempted": sum(window.attempted for window in windows),
        "failed": sum(window.failed for window in windows),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
