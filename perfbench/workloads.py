"""Benchmark inputs: the shipped corpus and two seeded generators.

Every generated task is one scenario file and one scripted-policy file in
the formats ``sandbox.load_scenario`` and ``provider.load_policy`` read. The
program under test only ever sees those files.

The generators are stratified: the task shapes (stage counts, which stage
gets which payload size class or failure mode) are fixed, and the seed picks
the task order, the sizes within each class, every tool name, key, sentinel
and prose reply. Per-episode counts therefore move only a little between
seeds, while no two seeds produce the same files.

Generated policies have no default reply. Each prompt the engines can build
is matched by an entry, so a prompt nobody planned for raises ``ScriptError``
instead of being answered silently. Entry order, first match wins:

1. state-manager entries, keyed on sentinels inside the newest observation;
2. a catch-all state-manager verdict for observations whose record lies past
   the observation window;
3. merge entries; on flaky_live they keep the newest key of the two notes;
4. router entries from the last stage down: a stage's recovery entries, its
   re-ask entry, then the entry that moves into it, keyed on the previous key;
5. the opening call, keyed on the empty state, transcript or branch.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import string
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("corpus", "long_state", "flaky_live")
METHODS = ("sum2act", "react", "dfsdt")

_ALNUM = string.ascii_uppercase + string.digits

_WORDS = (
    "ledger replica audit region shard index cursor window batch partition "
    "quota archive bucket segment journal snapshot mirror tenant schema relay "
    "queue digest vector pointer manifest cluster header lease token gateway "
    "checkpoint rollup cohort registry catalog sequence bundle channel frame "
    "the a of for with from into after before while and then also only each "
    "resolved confirmed pending stable recent earlier nightly primary nominal "
    "checked merged stored listed routed mapped joined copied scanned"
).split()
_NOUNS = _WORDS[:39]

# Marks a prompt built before any lookup succeeded, for each engine.
OPENING = r"Current results: \(none\)|## Transcript\n\(empty\)|## Branch Transcript\n\(empty\)"
MERGE_MARKER = "Merge these two progress notes"


@dataclass(frozen=True)
class Task:
    """One scenario/policy pair on disk; ``expected`` is the benchmark's own
    oracle for the pass condition, read from the raw scenario file."""

    scenario_path: Path
    policy_path: Path
    expected: dict


def prose(rng: random.Random, chars: int, braces: int = 0) -> str:
    """Neutral filler words, about ``chars`` chars. ``braces`` stray ``{``
    are spread evenly through it, so the parser's rescans from each one cost
    the same for every seed; quotes and ``}`` never occur."""
    words = []
    length = 0
    while length < chars:
        word = rng.choice(_WORDS)
        words.append(word)
        length += len(word) + 1
    for number in range(braces, 0, -1):
        position = len(words) * number // (braces + 1)
        words[position] = "{" + words[position]
    return " ".join(words)


class _Tokens:
    """Fixed-length random tokens, unique within one task."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._seen: set[str] = set()

    def new(self, prefix: str) -> str:
        while True:
            token = prefix + "".join(self._rng.choice(_ALNUM) for _ in range(6))
            if token not in self._seen:
                self._seen.add(token)
                return token


def _entry(match: str, response: str) -> dict:
    return {"match": match, "response": response, "is_regex": True}


def _reply(rng: random.Random, obj: dict, prose_chars: int, braces: int) -> str:
    if prose_chars == 0:
        return json.dumps(obj)
    return prose(rng, prose_chars, braces) + "\n" + json.dumps(obj)


def _into(previous: str, first: bool) -> str:
    """Pattern for prompts whose newest key is ``previous``. The first call's
    argument is not in the instruction, so it marks a transcript that holds
    only failed first calls."""
    return rf"(?s)(?:{OPENING}|{previous})" if first else rf"(?s){previous}"


def _call(thought: str, tool: str, args: dict) -> dict:
    return {"thought": thought, "action": tool, "args": args}


def _state_match(sentinel: str) -> str:
    return rf"(?s)state manager.*## Newest Observation.*{sentinel}"


def _tool(name: str, description: str, param: str) -> dict:
    return {
        "name": name,
        "description": description,
        "params": [{"name": param, "type": "string", "required": True,
                    "description": "key returned by the previous lookup"}],
    }


def _write(directory: Path, name: str, scenario: dict, policy: dict) -> Task:
    scenario_path = directory / f"{name}.scenario.json"
    policy_path = directory / f"{name}.policy.json"
    scenario_path.write_text(json.dumps(scenario, indent=1) + "\n", encoding="utf-8")
    policy_path.write_text(json.dumps(policy, indent=1) + "\n", encoding="utf-8")
    return Task(scenario_path, policy_path, scenario["pass_condition"])


# ---------------------------------------------------------------------------
# long_state: long chains of dependent lookups
# ---------------------------------------------------------------------------

# (stage count, profile); the seed shuffles this list.
LONG_CHAINS = (
    (10, "compact"), (13, "compact"), (16, "compact"),
    (11, "buried"), (19, "buried"),
    (24, "heavy"), (25, "heavy"),
    (14, "mixed"), (17, "mixed"), (20, "mixed"), (22, "mixed"), (23, "mixed"),
)

# Observation sizes (filler_chars) per class. The observation window and the
# react memory window are both 4,096 chars: "small" fits both, "mid" and
# "large" exceed both but keep the record inside the observation window,
# "buried" puts the record past it. Twenty-odd "large" payloads pass the
# 200,000-char request limit in a transcript that keeps them all.
SIZE_CLASSES = {
    "small": (400, 3000),
    "mid": (4300, 7800),
    "large": (10000, 13000),
    "buried": (9000, 12000),
}
OBSERVATION_WINDOW = 4096


def _long_classes(stages: int, profile: str) -> list[str]:
    """Size class per hop: every third hop of a mixed or buried chain is
    "mid", and the middle hop of a buried chain is "buried"."""
    if profile in ("compact", "heavy"):
        return ["small" if profile == "compact" else "large"] * stages
    classes = ["mid" if k % 3 == 1 else "small" for k in range(stages)]
    if profile == "buried":
        classes[stages // 2] = "buried"
    return classes


def _transient(k: int) -> bool:
    """Hops whose first call fails with a 5xx."""
    return k % 7 == 3


def _stratified_sizes(rng: random.Random, size_class: str, count: int) -> list[int]:
    """``count`` sizes spread evenly over the class range from a seeded
    start, in a fixed scrambled order, so each hop's size moves by at most
    one stratum between seeds."""
    low, high = SIZE_CLASSES[size_class]
    offset = rng.random()
    order = sorted(range(count), key=lambda i: (i * 0.618034) % 1)
    return [int(low + (high - low) * (i + offset) / count) for i in order]


def _long_observation(rng: random.Random, head: str, size_class: str, total: int) -> tuple[str, int]:
    """Return (payload, filler_chars). ``embed_in_filler`` centres the payload,
    so the record's offset is (filler - len(payload)) / 2."""
    if size_class == "large":
        # A long record body keeps the key inside the observation window.
        body_chars = total - 2 * (OBSERVATION_WINDOW - 400) + rng.randint(200, 400)
    else:
        body_chars = rng.randint(150, 250)
    payload = head + " " + prose(rng, max(0, body_chars - len(head) - 1))
    return payload, max(total, len(payload))


def generate_long_chain(rng: random.Random, index: int, stages: int, profile: str) -> tuple[dict, dict]:
    tokens = _Tokens(rng)
    account = tokens.new("ACCT")
    keys = [tokens.new("K") for _ in range(stages)]
    sentinels = [tokens.new("OBS") for _ in range(stages)]
    error_sentinels = [tokens.new("ERR") for _ in range(stages)]
    classes = _long_classes(stages, profile)
    sizes = {size_class: _stratified_sizes(rng, size_class, classes.count(size_class))
             for size_class in sorted(set(classes))}
    name = f"chain{index:02d}"

    def reply(obj: dict) -> str:
        return _reply(rng, obj, rng.randint(2000, 2400), 3)

    tools, behaviors = [], {}
    state_entries, router_entries = [], []
    for k in range(stages):
        tool = f"hop{k + 1:02d}_{rng.choice(_NOUNS)}"
        tools.append(_tool(tool, f"Resolve hop {k + 1} of a record chain; "
                           "returns the key for the next hop.", "key"))
        head = f"Hop {k + 1} record: next key {keys[k]} ({sentinels[k]})."
        payload, filler = _long_observation(rng, head, classes[k], sizes[classes[k]].pop())
        queue = [{"kind": "verbose", "payload": payload, "filler_chars": filler,
                  "repeat": "forever"}]
        if _transient(k):
            queue.insert(0, {"kind": "error", "code": 502, "repeat": "once",
                             "message": f"hop gateway hiccup ({error_sentinels[k]})"})
            state_entries.append(_entry(
                _state_match(error_sentinels[k]),
                reply({"verdict": "Failure",
                       "reason": f"the hop {k + 1} gateway had a transient fault; "
                                 + prose(rng, rng.randint(120, 160))}),
            ))
        behaviors[tool] = queue
        summary = f"Hop {k + 1} resolved: next key {keys[k]}; " + prose(rng, rng.randint(280, 320))
        state_entries.append(_entry(_state_match(sentinels[k]),
                                    reply({"verdict": "Success", "summary": summary})))
        previous = keys[k - 1] if k else account
        move = reply(_call(f"follow the chain to hop {k + 1}", tool, {"key": previous}))
        router_entries.insert(0, _entry(_into(previous, k == 0), move))

    finish = reply({"thought": "chain resolved", "action": "Finish",
                    "args": {"Answer": f"The chain ends at key {keys[-1]} after {stages} hops."}})
    state_entries.append(_entry(
        r"(?s)You are the state manager",
        reply({"verdict": "Failure",
               "reason": "the visible part of the observation holds only filler and no hop record"}),
    ))
    # Merges take the oldest notes first and the newest key stays in its own
    # note, so one merge reply serves every chain. Per-key merge entries
    # would push the workload past the 512 patterns Python's regex cache
    # holds, and timings would then depend on the episode order.
    merge_entries = [_entry(MERGE_MARKER, "Earlier hops are resolved.")]
    scenario = {
        "id": name,
        "instruction": {
            "id": name,
            "text": f"Follow the record chain from the first hop through all {stages} "
                    "hops and report the key the last hop returns.",
            "subset_label": f"long_state-{profile}",
        },
        "tools": tools,
        "behaviors": behaviors,
        "pass_condition": {"contains_all": [keys[-1]]},
    }
    policy = {"entries": state_entries + merge_entries
              + [_entry(rf"(?s){keys[-1]}", finish)] + router_entries}
    return scenario, policy


# ---------------------------------------------------------------------------
# flaky_live: short and medium tasks where most calls fail first
# ---------------------------------------------------------------------------

# Failure modes of a stage:
#   ok        plain success
#   transient one 5xx, then success
#   double    two 5xx on the same call (the second failure dedups), then success
#   timeout   one timeout, then success
#   missing   the first call omits the required parameter
#   failover  the primary stays down; a backup tool answers
#   reask     the first router reply is malformed; the re-ask parses
#   garbage   the state-manager reply never parses (mechanical fallback)
# One mode tuple per task; the seed shuffles the tasks.
FLAKY_PLANS = (
    ("transient",), ("failover",),
    ("ok", "missing"), ("timeout", "reask"), ("failover", "garbage"), ("double", "ok"),
    ("missing", "timeout"),
    ("transient", "failover", "garbage"), ("reask", "timeout", "ok"),
    ("missing", "double", "transient"), ("failover", "reask", "timeout"),
    ("timeout", "garbage", "failover", "missing"), ("transient", "reask", "double", "failover"),
    ("ok", "timeout", "missing", "reask"), ("garbage", "transient", "failover", "timeout"),
    ("failover", "timeout", "transient", "missing"),
    ("failover", "missing", "transient", "garbage", "timeout"),
    ("reask", "double", "timeout", "failover", "transient"),
    ("missing", "garbage", "reask", "transient", "ok"),
    ("transient", "failover", "timeout", "missing", "reask", "garbage"),
    ("double", "timeout", "failover", "garbage", "transient", "missing"),
    ("failover", "transient", "reask", "timeout", "double", "failover"),
    ("timeout", "missing", "garbage", "failover", "transient", "reask"),
)

# One more task, whose router replies never parse at its second stage, so
# every method ends it AbortedParseFailure.
ABORT_TASK_MODES = ("transient", "ok", "ok")
ABORT_STAGE = 1


def generate_flaky_task(rng: random.Random, index: int, modes: tuple[str, ...], abort_stage: int | None) -> tuple[dict, dict]:
    stages = len(modes)
    tokens = _Tokens(rng)
    ticket = tokens.new("TKT")
    keys = [tokens.new("K") for _ in range(stages)]
    sentinels = [tokens.new("OK") for _ in range(stages)]
    error_sentinels = [tokens.new("ERR") for _ in range(stages)]
    name = f"task{index:02d}"

    def reply(obj: dict) -> str:
        return _reply(rng, obj, rng.randint(150, 250), 1)

    def failure(sentinel: str, what: str) -> dict:
        # Long enough that a few failures push the state past its cap.
        reason = f"{what}; " + prose(rng, rng.randint(900, 1100))
        return _entry(_state_match(sentinel), reply({"verdict": "Failure", "reason": reason}))

    tools, behaviors = [], {}
    state_entries, merge_entries, router_entries = [], [], []
    for k, mode in enumerate(modes):
        noun = rng.choice(_NOUNS)
        tool = f"svc{k + 1}_{noun}"
        param = f"ref{k + 1}"
        previous = keys[k - 1] if k else ticket
        tools.append(_tool(tool, f"Look up the {noun} record for step {k + 1}.", param))
        head = f"Step {k + 1} record: key {keys[k]} ({sentinels[k]})."
        success = {"kind": "success", "repeat": "forever",
                   "payload": head + " " + prose(rng, rng.randint(100, 200))}
        error_message = f"upstream {noun} service unavailable ({error_sentinels[k]})"
        queue = [success]
        if mode == "transient":
            queue.insert(0, {"kind": "error", "code": rng.choice((500, 502, 503)),
                             "message": error_message, "repeat": "once"})
        elif mode == "double":
            queue[:0] = [{"kind": "error", "code": 503, "message": error_message,
                          "repeat": "once"}] * 2
        elif mode == "timeout":
            queue.insert(0, {"kind": "timeout", "repeat": "once",
                             "message": f"simulated timeout ({error_sentinels[k]})"})
        behaviors[tool] = queue

        good_call = _call(f"look up step {k + 1}", tool, {param: previous})
        recovery = []
        if mode in ("transient", "double", "timeout"):
            state_entries.append(failure(error_sentinels[k], f"the step {k + 1} call failed transiently"))
        elif mode == "missing":
            state_entries.append(failure(f"missing required parameter: {param}\\b",
                                         f"the call omitted the required {param} argument"))
            recovery.append(_entry(
                rf"(?s)missing required parameter: {param}\b|omitted the required {param} "
                rf"|Point\n[^\n]*\b{tool}\b",
                reply(_call(f"add the {param} argument", tool, {param: previous})),
            ))
        elif mode == "failover":
            backup = f"{tool}_backup"
            tools.append(_tool(backup, f"Read-only replica of the {noun} records.", param))
            behaviors[tool] = [{"kind": "error", "code": 503, "repeat": "forever",
                                "message": f"{noun} primary is offline ({error_sentinels[k]})"}]
            behaviors[backup] = [success]
            state_entries.append(failure(error_sentinels[k], f"the {noun} primary is offline"))
            recovery.append(_entry(
                rf"(?s){tool}\(|Point\n[^\n]*\b{tool}\b",
                reply(_call("use the replica", backup, {param: previous})),
            ))
        if mode == "garbage":
            state_entries.append(_entry(_state_match(sentinels[k]),
                                        prose(rng, rng.randint(200, 300))))
        else:
            summary = f"Step {k + 1} done: key {keys[k]}; " + prose(rng, rng.randint(100, 120))
            state_entries.append(_entry(_state_match(sentinels[k]),
                                        reply({"verdict": "Success", "summary": summary})))
        merge_entries.insert(0, _entry(
            rf"(?s){MERGE_MARKER}.*2\) [^\n]*{keys[k]}",
            f"Steps up to {k + 1} are done; the latest key is {keys[k]}.",
        ))

        into = _into(previous, k == 0)
        first_call = _call(f"look up step {k + 1}", tool, {} if mode == "missing" else {param: previous})
        if k == abort_stage:
            move = prose(rng, rng.randint(150, 250), 1) + '\n{"thought": "unsure", "tool": "' + tool + '"}'
        elif mode == "reask":
            recovery.append(_entry(into + ".*could not be parsed", reply(good_call)))
            move = prose(rng, rng.randint(150, 250), 1) + '\n{"thought": "next", "args": {}}'
        else:
            move = reply(first_call)
        router_entries[:0] = recovery + [_entry(into, move)]

    finish = reply({"thought": "all steps done", "action": "Finish",
                    "args": {"Answer": f"Ticket {ticket} resolves to key {keys[-1]}."}})
    merge_entries.append(_entry(MERGE_MARKER, "Earlier steps are done."))
    scenario = {
        "id": name,
        "instruction": {
            "id": name,
            "text": f"Resolve the open ticket through its {stages} lookup steps and "
                    "report the final key.",
            "subset_label": "flaky_live",
        },
        "tools": tools,
        "behaviors": behaviors,
        "pass_condition": {"contains_all": [keys[-1]]},
    }
    policy = {"entries": state_entries + merge_entries
              + [_entry(rf"(?s){keys[-1]}", finish)] + router_entries}
    return scenario, policy


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def corpus_tasks(root: Path) -> list[Task]:
    tasks = []
    for scenario_path in sorted((root / "scenarios").glob("**/*.scenario.json")):
        policy_path = scenario_path.with_name(
            scenario_path.name.replace(".scenario.json", ".policy.json"))
        raw = json.loads(scenario_path.read_text(encoding="utf-8"))
        tasks.append(Task(scenario_path, policy_path, raw["pass_condition"]))
    if not tasks:
        raise FileNotFoundError(f"no shipped scenarios under {root / 'scenarios'}")
    return tasks


def generate(workload: str, seed: int, out_dir: Path) -> list[Task]:
    """Write the workload's files under ``out_dir`` (emptied first) and return
    the tasks in file order."""
    rng = random.Random(f"{workload}:{seed}")
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    tasks = []
    if workload == "long_state":
        chains = list(LONG_CHAINS)
        rng.shuffle(chains)
        for index, (stages, profile) in enumerate(chains):
            tasks.append(_write(out_dir, f"chain{index:02d}",
                                *generate_long_chain(rng, index, stages, profile)))
    elif workload == "flaky_live":
        plans = [(modes, None) for modes in FLAKY_PLANS] + [(ABORT_TASK_MODES, ABORT_STAGE)]
        rng.shuffle(plans)
        for index, (modes, abort_stage) in enumerate(plans):
            tasks.append(_write(out_dir, f"task{index:02d}",
                                *generate_flaky_task(rng, index, modes, abort_stage)))
    else:
        raise ValueError(f"not a generated workload: {workload!r}")
    return tasks


def evaluate_pass_condition(condition: dict, answer: str) -> bool:
    """The benchmark's own reading of a scenario pass condition."""
    if "contains_all" in condition:
        return all(str(value) in answer for value in condition["contains_all"])
    if "regex" in condition:
        return re.search(condition["regex"], answer) is not None
    return answer == condition["exact"]
