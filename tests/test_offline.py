"""The offline path (scripted provider, sandbox, replay, rule-judged compare)
never loads the HTTP stack: it runs with ``requests`` made unimportable."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Setting a module's sys.modules entry to None makes importing it raise.
_OFFLINE_RUN = """
import sys
from pathlib import Path

sys.modules["requests"] = None
from sum2act.cli import main

core, out = Path(sys.argv[1]), Path(sys.argv[2])
traces = out / "bench" / "traces"
codes = [
    main(["bench", "--scenario-dir", str(core), "--methods", "sum2act,react,dfsdt",
          "--out", str(out / "bench")]),
    main(["replay", str(traces / "sum2act" / "weather_miami.jsonl")]),
    main(["compare", "--traces-a", str(traces / "sum2act"), "--traces-b", str(traces / "dfsdt"),
          "--judge", "rule", "--scenario-dir", str(core), "--out", str(out / "cmp")]),
]
loaded = [name for name in ("requests", "urllib3", "email.utils", "http.client")
          if sys.modules.get(name) is not None]
print("CODES", codes, "LOADED", loaded, file=sys.stderr)
"""


def test_bench_replay_and_rule_compare_run_without_requests(scenarios_root, tmp_path):
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    result = subprocess.run(
        [sys.executable, "-c", _OFFLINE_RUN, str(scenarios_root / "core"), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.strip().splitlines()[-1] == "CODES [0, 0, 0] LOADED []"
    assert (tmp_path / "cmp" / "winrate.json").exists()
